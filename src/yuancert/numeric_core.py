"""Dense symmetric linear algebra kernel.

Eigendecomposition through LAPACK's symmetric solver, the smallest
eigenvalue, quadratic-form evaluation, and the numerical rank of a set
of matrices viewed as vectors. Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, InputError, NotInSpanError, NumericalFailureError

DEFAULT_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)


def norm_max(a: np.ndarray) -> float:
    """Largest absolute entry; 0 for empty arrays."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _as_square(values, name: str = "matrix") -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"{name} must be square of order >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} has non-finite entries")
    return a


class SymMatrix:
    """Real symmetric matrix of order >= 1.

    The upper triangle is authoritative: the lower triangle is an exact
    mirror of it, so entries(i, j) == entries(j, i) holds by construction.
    """

    __slots__ = ("entries",)

    def __init__(self, values) -> None:
        a = _as_square(values)
        skew = norm_max(a - a.T)
        if skew > 1e-12 * (1.0 + norm_max(a)):
            raise InputError(f"matrix is not symmetric (asymmetry {skew:.3e})")
        sym = np.triu(a) + np.triu(a, 1).T
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def norm_max(self) -> float:
        return norm_max(self.entries)

    def __repr__(self) -> str:
        return f"SymMatrix({self.entries.tolist()!r})"


def as_sym(values) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix)."""
    return values if isinstance(values, SymMatrix) else SymMatrix(values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order with an orthonormal eigenvector basis."""

    eigenvalues: np.ndarray
    basis: np.ndarray


def sym_eigen(m: SymMatrix) -> Spectrum:
    """Eigendecomposition by LAPACK's symmetric solver (numpy.linalg.eigh).

    Householder tridiagonalization followed by implicit QR, which is as
    accurate as Jacobi rotations on a symmetric matrix (Golub & Van Loan,
    Matrix Computations, sections 8.3 and 8.5) at a fraction of the cost.
    The result is deterministic for a fixed input; a LAPACK convergence
    failure is raised as NumericalFailureError.
    """
    m = as_sym(m)
    try:
        vals, basis = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc
    return _spectrum(vals, basis)


def _spectrum(vals: np.ndarray, basis: np.ndarray) -> Spectrum:
    vals = np.ascontiguousarray(vals)
    basis = np.ascontiguousarray(basis)
    vals.setflags(write=False)
    basis.setflags(write=False)
    return Spectrum(vals, basis)


def min_eigenvalue(m: SymMatrix) -> float:
    """Smallest eigenvalue, equal to sym_eigen(m).eigenvalues[0]."""
    return float(sym_eigen(m).eigenvalues[0])


def quad_form(m: SymMatrix, x) -> float:
    """The scalar x^T M x."""
    m = as_sym(m)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != m.order:
        raise InputError(f"vector of length {m.order} expected, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("vector has non-finite entries")
    return float(x @ m.entries @ x)


class MatrixFamily:
    """Ordered family of square matrices sharing one order.

    Certificate pipelines require symmetric members; general square
    members are accepted so that the set rank of a non-symmetric family
    can still be measured.
    """

    __slots__ = ("members",)

    def __init__(self, members) -> None:
        mats = []
        for k, raw in enumerate(members):
            a = raw.entries if isinstance(raw, SymMatrix) else raw
            a = _as_square(a, name=f"member {k}").copy()
            a.setflags(write=False)
            mats.append(a)
        if not mats:
            raise InputError("family must contain at least one matrix")
        order = mats[0].shape[0]
        if any(mat.shape[0] != order for mat in mats):
            raise InputError("family members have mixed orders")
        object.__setattr__(self, "members", tuple(mats))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFamily is immutable")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return self.members[0].shape[0]

    def is_symmetric(self) -> bool:
        return all(
            norm_max(mat - mat.T) <= 1e-12 * (1.0 + norm_max(mat)) for mat in self.members
        )

    def sym_members(self) -> list[SymMatrix]:
        return [SymMatrix(mat) for mat in self.members]


def as_family(members) -> MatrixFamily:
    return members if isinstance(members, MatrixFamily) else MatrixFamily(members)


def flatten_sym(a: np.ndarray) -> np.ndarray:
    """Upper-triangle flattening with sqrt(2)-scaled off-diagonal entries.

    Chosen so the Euclidean inner product of two flattened symmetric
    matrices equals their trace inner product sum_ij A_ij B_ij.
    """
    n = a.shape[0]
    ii, jj = np.triu_indices(n)
    w = np.where(ii == jj, 1.0, _SQRT2)
    return a[ii, jj] * w


def _flatten_family(family: MatrixFamily) -> np.ndarray:
    if family.is_symmetric():
        return np.stack([flatten_sym(mat) for mat in family.members])
    return np.stack([mat.reshape(-1) for mat in family.members])


def _normalized_rows(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit Euclidean norm; zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=1)
    return np.where(norms[:, None] > 0.0, rows / np.where(norms == 0.0, 1.0, norms)[:, None], 0.0)


def _pivoted_rank(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of a (K, m, d) stack of row sets by max-norm-pivoted elimination.

    Every set is eliminated on its own, all K in one array pass per step:
    the pivot is the remaining row of largest norm, and the dependence
    threshold is tol times the set's first pivot norm. Returns the K ranks
    and a (K, m) array listing each set's pivots in order, padded with -1.
    """
    work = np.array(stack, dtype=float)
    k, m, _ = work.shape
    sets = np.arange(k)
    used = np.zeros((k, m), dtype=bool)
    live = np.ones(k, dtype=bool)
    pivots = np.full((k, m), -1)
    for step in range(m):
        norms = np.linalg.norm(work, axis=2)
        norms[used] = -1.0
        j = np.argmax(norms, axis=1)
        top = norms[sets, j]
        if step == 0:
            limit = tol * top
        live &= (top > limit) & (top > 0.0)
        if not live.any():
            break
        # a set that stopped never restarts, so its rows may go stale
        pivots[:, step] = np.where(live, j, -1)
        used[sets, j] = True
        q = work[sets, j] / np.where(live, top, 1.0)[:, None]
        work -= np.matmul(work, q[:, :, None]) * q[:, None, :]
    return (pivots >= 0).sum(axis=1), pivots


def _greedy_basis(rows: np.ndarray, tol: float, size: int) -> list[int]:
    """First `size` members independent in index order (rows pre-normalized)."""
    basis: list[int] = []
    qs: list[np.ndarray] = []
    for idx in range(rows.shape[0]):
        if len(basis) == size:
            break
        v = rows[idx].copy()
        for _ in range(2):
            for q in qs:
                v -= (v @ q) * q
        nv = float(np.linalg.norm(v))
        if nv > tol:
            basis.append(idx)
            qs.append(v / nv)
    return basis


@dataclass(frozen=True, eq=False)
class MatrixSetRank:
    """Rank of a matrix set with, at rank 2, per-member basis coordinates."""

    rank: int
    basis: tuple[int, ...]
    coefficients: np.ndarray | None


def matrix_set_rank(family: MatrixFamily, tol: float = DEFAULT_TOL) -> MatrixSetRank:
    """Numerical rank of the family members flattened to vectors.

    Members are normalized before the column-pivoted elimination, so the
    rank is invariant under rescaling any member by a nonzero factor and
    under permuting the family. When the rank is 2 the result carries the
    coordinates of every member in the first two independent members.
    """
    family = as_family(family)
    flat = _flatten_family(family)
    unit = _normalized_rows(flat)
    ranks, pivots = _pivoted_rank(unit[None], tol)
    rank = int(ranks[0])
    basis = _greedy_basis(unit, tol, rank)
    if len(basis) < rank:  # threshold disagreement; fall back to pivot choice
        basis = sorted(pivots[0, :rank].tolist())
    coefficients = None
    if rank == 2 and len(family) >= 2:
        coefficients = _pair_coordinates(flat[basis], flat)
    return MatrixSetRank(rank, tuple(basis), coefficients)


def _pair_coordinates(pair: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coordinates of each target row in the two pair rows.

    One orthogonal (SVD) solve for all targets: unlike the normal
    equations it does not square the condition number of the pair, so a
    nearly parallel pair still yields accurate coordinates in its span.
    """
    return np.linalg.lstsq(pair.T, targets.T, rcond=None)[0].T


def express_in_basis(
    a: SymMatrix, b1: SymMatrix, b2: SymMatrix, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Coefficients (alpha, beta) with A = alpha*B1 + beta*B2.

    Raises DegenerateBasisError when the pair is dependent and
    NotInSpanError when the least-squares residual exceeds
    tol * (1 + largest entry of A).
    """
    a, b1, b2 = as_sym(a), as_sym(b1), as_sym(b2)
    if not (a.order == b1.order == b2.order):
        raise InputError("matrices must share one order")
    if matrix_set_rank(MatrixFamily([b1, b2]), tol).rank < 2:
        raise DegenerateBasisError("basis pair is linearly dependent")
    pair = np.stack([flatten_sym(b1.entries), flatten_sym(b2.entries)])
    alpha, beta = _pair_coordinates(pair, flatten_sym(a.entries)[None, :])[0]
    residual = norm_max(a.entries - alpha * b1.entries - beta * b2.entries)
    if residual > tol * (1.0 + a.norm_max()):
        raise NotInSpanError(residual)
    return float(alpha), float(beta)


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of a general dense matrix (columns normalized first)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InputError("rank expects a 2-d array")
    ranks, _ = _pivoted_rank(_normalized_rows(a.T)[None], tol)
    return int(ranks[0])
