"""Quadratically-constrained problem class: minimize z s.t. x'A_i x/2 <= z.

The constraint Jacobian at a point x has columns (A_i x; a). The rank of
that Jacobian stays at most 2 for every x exactly when all members of
the family lie on one line in matrix space (every triple admits an
affine dependence A - C + delta*(B - C) = 0); symmetry of the members is
essential. `quad_certificate` decides that condition exactly in one
linear scan of triple extractions and then certifies through the rank-2
machinery on the full space. Where it fails, `rank_increase_check` finds
a point of Jacobian rank 3 among fixed candidates, with no random draw.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .cone import FirstOrderCone
from .errors import InputError, NumericalFailureError
from .numeric_core import (
    DEFAULT_TOL,
    MatrixFamily,
    _as_symmetric,
    _basis_coordinates,
    _normalized_rows,
    _prescaled,
    norm_max,
    numerical_rank,
)
from .yuan import certify_rank2


class QuadProblem:
    """Constraint matrices, one MatrixFamily, plus the constant Jacobian bottom row.

    ray_constant is -1 for the optimization problem itself; other nonzero
    values are allowed for rank experiments with the Jacobian map. The
    optimization pipeline requires symmetric members; general square
    members are accepted so the Jacobian rank of the symmetry
    counterexample can be scanned.
    """

    __slots__ = ("matrices", "ray_constant")

    def __init__(self, matrices: MatrixFamily, ray_constant: float = -1.0) -> None:
        a = float(ray_constant)
        if a == 0.0 or not np.isfinite(a):
            raise InputError("ray constant must be nonzero and finite")
        object.__setattr__(self, "matrices", matrices)
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


def jacobian_rank(prob: QuadProblem, x, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of the Jacobian at x judged at unit length (the rank is
    constant along rays), with its constant last row set to the largest entry
    of the rows above it (1 where those vanish). Scaling a row keeps the rank,
    and so neither the size of x nor the ray constant's can decide it."""
    x = np.asarray(x, dtype=float)
    jac = jacobian_at(prob, _normalized_rows(x[None])[0] if x.ndim == 1 else x)
    size = norm_max(jac[:-1])
    jac[-1] = size if size > 0.0 else 1.0
    return numerical_rank(jac, tol)


def rank_increase_check(prob: QuadProblem, tol: float = DEFAULT_TOL) -> tuple | None:
    """(x, rank) for the first unit candidate x where the Jacobian rank reaches 3,
    else None: the normalized all-ones vector, each e_j, then each (e_j + e_k)/sqrt(2),
    j < k, built only past all-ones. The rank is 1 + rank[(A_i - A_0)x]_i, whose
    2x2 minors are quadratic forms in x, and a quadratic form vanishing at every
    e_j and e_j + e_k vanishes everywhere; so the scan is exact for square members."""
    def candidates():
        yield np.ones(prob.n) / np.sqrt(prob.n)
        eye = np.eye(prob.n)
        yield from eye
        yield from ((eye[j] + eye[k]) / np.sqrt(2.0) for j, k in combinations(range(prob.n), 2))

    for x in candidates():
        rank = jacobian_rank(prob, x, tol)
        if rank >= 3:
            return x, rank
    return None


def extract_dependence(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[float | None, float | None]:
    """Constructive affine-dependence extraction for a matrix triple.

    When B - C vanishes (its largest entry within tol*(1 + largest entry of
    the triple)) the triple is dependent with B = C, and (None, None) is
    returned. Otherwise delta = -c for c the coordinate of A - C in B - C,
    and A - C + delta*(B - C) = 0 is verified at relative tolerance
    (`_line_fit`): (delta, None) when it holds, (None, residual) when not.
    """
    a, b, c = _as_symmetric(a), _as_symmetric(b), _as_symmetric(c)
    if not (a.shape == b.shape == c.shape):
        raise InputError("matrices must share one order")
    if norm_max(0.5 * b - 0.5 * c) <= 0.5 * tol * (1.0 + norm_max(np.stack([a, b, c]))):
        return None, None
    coef, residuals, failed = _line_fit(a[None], b, c, tol)
    return (None, float(residuals[0])) if failed[0] else (-float(coef[0]), None)


def _line_fit(mats: np.ndarray, far: np.ndarray, base: np.ndarray,
              tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each A_i of the (k, n, n) stack `mats`: c_i, the coordinate of A_i - A_0 in
    A_far - A_0 (one `_basis_coordinates` call for all), the residual max|A_i - A_0 -
    c_i*(A_far - A_0)| and whether it exceeds tol*(1 + max(|A_i|, |A_far|, |A_0|)) or
    is not finite; taken on halves, exactly, so that no difference overflows."""
    diffs = 0.5 * np.concatenate([far[None], mats]) - 0.5 * base
    rows, exponents = _prescaled(diffs.reshape(len(diffs), -1))
    coef = _basis_coordinates(rows, exponents, [0], _normalized_rows(rows[:1]))[1:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a huge c_i reads as failing
        half = np.abs(diffs[1:] - coef[:, None, None] * diffs[0]).max(axis=(1, 2))
        residuals = 2.0 * half
    scale = np.maximum(np.abs(mats).max(axis=(1, 2)), max(norm_max(far), norm_max(base)))
    return coef, residuals, ~(half <= 0.5 * tol * (1.0 + scale))


def jacobian_rank_reduce(prob: QuadProblem, tol: float = DEFAULT_TOL) -> dict | None:
    """Exact decision of 'Jacobian rank <= 2 everywhere' in one linear scan.

    Every triple is dependent exactly when all members lie on the line
    through member 0 and the member farthest from it, so each other member i
    is tested once, as the triple (i, far, 0), all in one `_line_fit` pass:
    None when every triple is dependent, else the hypothesis_violated verdict
    record, whose reason names the first failing triple (sorted),
    `triple_residual` is that triple's residual, and the witness is the
    `rank_increase_check` point where the Jacobian rank reaches 3, with its
    `rank` (one must exist, so a scan that finds none means the tolerances
    disagree and raises NumericalFailureError rather than guessing).
    """
    if not prob.matrices.symmetric:
        raise InputError("the triple reduction requires symmetric matrices")
    mats = prob.matrices.members
    gaps = np.abs(0.5 * mats - 0.5 * mats[0]).max(axis=(1, 2))  # halves cannot overflow
    far = int(np.argmax(gaps))
    if gaps[far] <= 0.5 * tol * (1.0 + norm_max(mats)):
        return None
    others = np.delete(np.arange(1, prob.m), far - 1)
    _, residuals, failed = _line_fit(mats[others], mats[far], mats[0], tol)
    if not failed.any():
        return None
    first = int(np.argmax(failed))
    residual, triple = float(residuals[first]), tuple(sorted((0, far, int(others[first]))))
    witness = rank_increase_check(prob, tol)
    if witness is None:
        bound = tol * (1.0 + norm_max(mats[list(triple)]))
        raise NumericalFailureError(
            f"premise scan: triple {triple} not dependent (residual {residual:.3e} > bound "
            f"{bound:.3e}) yet no candidate reaches Jacobian rank 3; inconsistent tolerances")
    x, rank = witness
    return {"verdict": "hypothesis_violated", "residuals": {"triple_residual": residual},
            "reason": f"Jacobian rank reaches 3 away from the candidate point (triple {triple})",
            "rank": rank, "witness": x}


def quad_certificate(prob: QuadProblem, tol: float = DEFAULT_TOL) -> dict:
    """Full-space PSD-combination certificate under the Jacobian rank premise.

    Decides the premise exactly with `jacobian_rank_reduce`, whose verdict
    record reports a violation with its failing triple and a rank-3
    Jacobian point. Otherwise hands the family to certify_rank2 over the
    full space (the critical cone restriction is exactly the original
    family); dependent triples bound the set rank by 2, so a rank above 2
    there means the two tests' tolerances disagree.
    """
    if prob.ray_constant != -1.0:
        raise InputError("the optimization pipeline requires ray constant -1")
    violated = jacobian_rank_reduce(prob, tol)
    if violated is not None:
        return violated
    record = certify_rank2(prob.matrices, FirstOrderCone.full(prob.n), tol)
    if record["verdict"] == "hypothesis_violated":
        raise NumericalFailureError(
            f"all triples dependent yet set rank {record['rank']}; inconsistent tolerances"
        )
    return record
