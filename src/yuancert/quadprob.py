"""Quadratically-constrained problem class: minimize z s.t. x'A_i x/2 <= z.

The constraint Jacobian at a point x has columns (A_i x; a). The rank of
that Jacobian stays at most 2 for every x exactly when all members of
the family lie on one line in matrix space (every triple admits an
affine dependence A - C + delta*(B - C) = 0); symmetry of the members is
essential. `quad_certificate` decides that condition exactly in one
linear scan of triple extractions and then certifies through the rank-2
machinery on the full space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import FirstOrderCone
from .errors import InputError, NumericalFailureError
from .numeric_core import (
    DEFAULT_TOL,
    SymMatrix,
    _normalized_rows,
    as_family,
    as_sym,
    matrix_set_rank,
    norm_max,
    numerical_rank,
    sym_eigen,
)
from .nlp import KKTData
from .yuan import CertificateReport, HypothesisViolated, certify_rank2

_DEFAULT_SAMPLES = 1000
_DEFAULT_SEED = 42


class QuadProblem:
    """Constraint matrices plus the constant Jacobian bottom row.

    ray_constant is -1 for the optimization problem itself; other nonzero
    values are allowed for rank experiments with the Jacobian map. The
    optimization pipeline requires symmetric members; general square
    members are accepted so the Jacobian rank of the symmetry
    counterexample can be sampled.
    """

    __slots__ = ("matrices", "ray_constant")

    def __init__(self, matrices, ray_constant: float = -1.0) -> None:
        family = as_family(matrices)
        a = float(ray_constant)
        if a == 0.0 or not np.isfinite(a):
            raise InputError("ray constant must be nonzero and finite")
        object.__setattr__(self, "matrices", family)
        object.__setattr__(self, "ray_constant", a)

    def __setattr__(self, name, value):
        raise AttributeError("QuadProblem is immutable")

    @property
    def n(self) -> int:
        return self.matrices.order

    @property
    def m(self) -> int:
        return len(self.matrices)


def jacobian_at(prob: QuadProblem, x) -> np.ndarray:
    """(n+1) x m matrix with columns (A_i x; a)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != prob.n:
        raise InputError(f"vector of length {prob.n} expected")
    cols = [np.append(mat @ x, prob.ray_constant) for mat in prob.matrices.members]
    return np.column_stack(cols)


def _require_pipeline(prob: QuadProblem) -> None:
    if prob.ray_constant != -1.0:
        raise InputError("the optimization pipeline requires ray constant -1")
    if not prob.matrices.is_symmetric():
        raise InputError("the optimization pipeline requires symmetric matrices")


@dataclass(frozen=True, eq=False)
class RankIncreaseCheck:
    rank_at_zero: int
    max_rank_observed: int
    satisfied: bool
    worst_x: np.ndarray | None


def rank_increase_check(
    prob: QuadProblem,
    samples: int = _DEFAULT_SAMPLES,
    seed: int = _DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> RankIncreaseCheck:
    """Sampled test that the Jacobian rank exceeds the rank at 0 by at most 1.

    Draws unit vectors (the rank is constant along rays). Sampling refutes
    soundly and confirms heuristically; `jacobian_rank_reduce` decides the
    exact condition, and no pipeline calls this cross-check.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    rank0 = numerical_rank(jacobian_at(prob, np.zeros(prob.n)), tol)
    rng = np.random.default_rng(seed)
    max_rank = rank0
    worst = None
    for x in _normalized_rows(rng.standard_normal((samples, prob.n))):
        r = numerical_rank(jacobian_at(prob, x), tol)
        if r > max_rank:
            max_rank = r
            worst = x.copy()
    return RankIncreaseCheck(rank0, max_rank, max_rank <= rank0 + 1, worst)


@dataclass(frozen=True, eq=False)
class Equal:
    """B equals C; the triple is trivially dependent."""


@dataclass(frozen=True, eq=False)
class Delta:
    """Coefficient with A - C + delta * (B - C) = 0."""

    delta: float


@dataclass(frozen=True, eq=False)
class NotDependent:
    """No affine dependence; carries the best-effort residual."""

    residual: float


def extract_dependence(
    a: SymMatrix, b: SymMatrix, c: SymMatrix, tol: float = DEFAULT_TOL
) -> Equal | Delta | NotDependent:
    """Constructive affine-dependence extraction for a matrix triple.

    Eigendecomposes B - C; when it vanishes the triple is dependent with
    B = C. Otherwise the top eigenvector v with eigenvalue lam pins
    delta = -v'(A-C)v / lam, and the full matrix identity
    A - C + delta*(B - C) = 0 is verified at relative tolerance.
    """
    a, b, c = as_sym(a), as_sym(b), as_sym(c)
    if not (a.order == b.order == c.order):
        raise InputError("matrices must share one order")
    d = SymMatrix(b.entries - c.entries)
    return _dependence(a, b, c, d, sym_eigen(d), tol)


def _dependence(a, b, c, d: SymMatrix, spec, tol: float) -> Equal | Delta | NotDependent:
    """`extract_dependence` given d = B - C and its spectrum."""
    scale = max(a.norm_max(), b.norm_max(), c.norm_max())
    if norm_max(spec.eigenvalues) <= tol * (1.0 + scale):
        return Equal()
    top = int(np.argmax(np.abs(spec.eigenvalues)))
    lam = float(spec.eigenvalues[top])
    v = spec.basis[:, top]
    delta = -float(v @ (a.entries - c.entries) @ v) / lam
    residual = norm_max(a.entries - c.entries + delta * d.entries)
    if residual > tol * (1.0 + scale):
        return NotDependent(residual)
    return Delta(delta)


@dataclass(frozen=True, eq=False)
class JacobianRankReduction:
    """Every triple is affinely dependent; the set rank is at most 2."""

    rank: int
    basis: tuple[int, ...]
    coefficients: np.ndarray | None


@dataclass(frozen=True, eq=False)
class JacobianRankViolation:
    """Some triple fails; carries an x where the Jacobian has rank 3."""

    triple: tuple[int, int, int]
    residual: float
    witness_x: np.ndarray
    jacobian_rank: int


def jacobian_rank_reduce(
    prob: QuadProblem, tol: float = DEFAULT_TOL
) -> JacobianRankReduction | JacobianRankViolation:
    """Exact decision of 'Jacobian rank <= 2 everywhere' in one linear scan.

    Every triple is dependent exactly when all members lie on the line
    through member 0 and the member farthest from it, so each other member
    i is tested once, as the triple (i, far, 0): at most m - 2 extractions,
    all sharing one eigendecomposition of A_far - A_0.
    The first failing triple (sorted) is returned together with a sampled
    point where the Jacobian rank reaches 3 (one must exist, so a
    fruitless search raises NumericalFailureError rather than guessing).
    """
    if not prob.matrices.is_symmetric():
        raise InputError("the triple reduction requires symmetric matrices")
    syms = prob.matrices.sym_members()
    base = syms[0].entries
    gaps = [norm_max(s.entries - base) for s in syms]
    far = int(np.argmax(gaps))
    scale = max(s.norm_max() for s in syms)
    spread = gaps[far] > tol * (1.0 + scale)
    others = [i for i in range(1, prob.m) if i != far] if spread else []
    d = SymMatrix(syms[far].entries - base)
    spec = sym_eigen(d) if others else None
    for i in others:
        res = _dependence(syms[i], syms[far], syms[0], d, spec, tol)
        if isinstance(res, NotDependent):
            triple = tuple(sorted((0, far, i)))
            witness = _rank3_point(prob, tol)
            if witness is None:
                raise NumericalFailureError(
                    f"triple {triple} not dependent (residual {res.residual:.3e}) "
                    "but no rank-3 Jacobian point found in the sample budget"
                )
            x, rank = witness
            return JacobianRankViolation(triple, res.residual, x, rank)
    sr = matrix_set_rank(prob.matrices, tol)
    if sr.rank > 2:
        raise NumericalFailureError(
            f"all triples dependent yet set rank {sr.rank}; inconsistent tolerances"
        )
    return JacobianRankReduction(sr.rank, sr.basis, sr.coefficients)


def _rank3_point(prob: QuadProblem, tol: float) -> tuple[np.ndarray, int] | None:
    rng = np.random.default_rng(_DEFAULT_SEED)
    candidates = [np.ones(prob.n) / np.sqrt(prob.n)]
    candidates.extend(_normalized_rows(rng.standard_normal((5000, prob.n))))
    for x in candidates:
        rank = numerical_rank(jacobian_at(prob, x), tol)
        if rank >= 3:
            return x, rank
    return None


def quad_certificate(prob: QuadProblem, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Full-space PSD-combination certificate under the Jacobian rank premise.

    Decides the premise exactly with `jacobian_rank_reduce`; a violation
    is reported with its failing triple and a rank-3 Jacobian point.
    Otherwise hands the family to certify_rank2 over the full space (the
    critical cone restriction is exactly the original family).
    """
    _require_pipeline(prob)
    reduced = jacobian_rank_reduce(prob, tol)
    if isinstance(reduced, JacobianRankViolation):
        return CertificateReport(
            HypothesisViolated(
                "Jacobian rank reaches 3 away from the candidate point "
                f"(triple {reduced.triple})",
                rank=reduced.jacobian_rank,
                witness=reduced.witness_x,
            ),
            {"triple_residual": reduced.residual},
        )
    return certify_rank2(prob.matrices, FirstOrderCone.full(prob.n), tol)


def to_kkt(prob: QuadProblem) -> KKTData:
    """KKT data of the epigraph problem at the origin.

    Variables (x, z) with objective gradient (0, 1); every constraint is
    active with gradient (0, -1) and Hessian blockdiag(A_i, 0).
    """
    _require_pipeline(prob)
    n, m = prob.n, prob.m
    grad_f = np.zeros(n + 1)
    grad_f[n] = 1.0
    grad_g = np.zeros((m, n + 1))
    grad_g[:, n] = -1.0
    hess_g = []
    for mat in prob.matrices.members:
        block = np.zeros((n + 1, n + 1))
        block[:n, :n] = mat
        hess_g.append(SymMatrix(block))
    return KKTData(
        grad_f=grad_f,
        hess_f=SymMatrix(np.zeros((n + 1, n + 1))),
        grad_g=grad_g,
        hess_g=hess_g,
        g_values=np.zeros(m),
    )
