"""Dense symmetric linear algebra kernel.

Eigendecomposition through LAPACK's symmetric solver, the smallest
eigenvalue, and the numerical rank of a set of matrices viewed as
vectors. Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, InputError, NotInSpanError, NumericalFailureError

DEFAULT_TOL = 1e-9


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


def _mirrored(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """A (..., n, n) stack with each lower triangle mirrored from the upper one, or None
    when some matrix breaks the asymmetry rule; and the largest asymmetry max|A - A'|."""
    at = np.swapaxes(a, -1, -2)
    skew = np.abs(a - at).max(axis=(-2, -1))
    if (skew > 1e-12 * (1.0 + np.abs(a).max(axis=(-2, -1)))).any():  # the asymmetry rule
        return None, float(skew.max())
    sym = np.where(np.tri(a.shape[-1], k=-1, dtype=bool), at, a) + 0.0  # -0.0 reads as 0.0
    sym.setflags(write=False)
    return sym, float(skew.max())


def _as_symmetric(values) -> np.ndarray:
    """A square, finite matrix that keeps the asymmetry rule, as a read-only array
    mirrored from its upper triangle; anything else raises InputError."""
    sym, skew = _mirrored(_as_square(values))
    if sym is None:
        raise InputError(f"matrix is not symmetric (asymmetry {skew:.3e})")
    return sym


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and an orthonormal eigenvector basis, as
    read-only, contiguous arrays, by LAPACK's symmetric solver (numpy.linalg.eigh).

    Householder tridiagonalization followed by implicit QR, which is as
    accurate as Jacobi rotations on a symmetric matrix (Golub & Van Loan,
    Matrix Computations, sections 8.3 and 8.5) at a fraction of the cost.
    The result is deterministic for a fixed input; a LAPACK convergence
    failure is raised as NumericalFailureError; an `m` that is not square, finite
    and symmetric by the asymmetry rule raises InputError.
    """
    vals, basis = _eigh(_as_symmetric(m))
    vals = np.ascontiguousarray(vals)
    basis = np.ascontiguousarray(basis)
    vals.setflags(write=False)
    basis.setflags(write=False)
    return vals, basis


def _eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of one symmetric matrix or of each in an (..., n, n) stack,
    which LAPACK decomposes one by one, each as it would alone; a convergence
    failure is raised as NumericalFailureError."""
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue, equal to sym_eigen(m)[0][0]."""
    vals, _ = sym_eigen(m)
    return float(vals[0])


class MatrixFamily:
    """Ordered family of square matrices sharing one order.

    `members` is one read-only (m, n, n) stack, checked once here, and
    `symmetric` says whether every member keeps the asymmetry rule
    (max|A - A'| <= 1e-12 * (1 + max|A|)); the members of a symmetric family
    are mirrored from their upper triangles. Certificate pipelines require
    a symmetric family; a non-symmetric one still has a set rank.
    """

    __slots__ = ("members", "symmetric")

    def __init__(self, members) -> None:
        mats = [_as_square(raw, name=f"member {k}") for k, raw in enumerate(members)]
        if not mats:
            raise InputError("family must contain at least one matrix")
        if any(mat.shape[0] != mats[0].shape[0] for mat in mats):
            raise InputError("family members have mixed orders")
        stack = np.stack(mats)
        stack.setflags(write=False)
        sym, _ = _mirrored(stack)
        object.__setattr__(self, "members", stack if sym is None else sym)
        object.__setattr__(self, "symmetric", sym is not None)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFamily is immutable")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return self.members.shape[1]


def _prescaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by 2**e, with e the exponent of its largest entry, and the
    exponents e. The division is exact, so the squares of a scaled row's entries
    neither overflow nor underflow, and its products scale back exactly."""
    _, exponents = np.frexp(np.abs(rows).max(axis=1, initial=0.0))
    return np.ldexp(rows, -exponents[:, None]), exponents


def _normalized_rows(rows: np.ndarray) -> np.ndarray:
    """Rows scaled to unit Euclidean norm, through `_prescaled`; zero rows stay zero."""
    rows, _ = _prescaled(rows)
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


def _gram_schmidt(
    rows: np.ndarray | list[np.ndarray], limits: np.ndarray | list[float], size: int
) -> tuple[list[int], list[np.ndarray]]:
    """Modified Gram-Schmidt with re-orthogonalization over the rows in index order.

    Row i joins when its residual norm exceeds limits[i], until `size` rows
    have joined. Returns the joined indices and their orthonormal vectors.
    """
    kept: list[int] = []
    qs: list[np.ndarray] = []
    for idx, row in enumerate(rows):
        if len(kept) == size:
            break
        v = row.copy()
        for _ in range(2):
            for q in qs:
                v -= (v @ q) * q
        nv = float(np.linalg.norm(v))
        if nv > limits[idx]:
            kept.append(idx)
            qs.append(v / nv)
    return kept, qs


@dataclass(frozen=True, eq=False)
class MatrixSetRank:
    """Rank of a matrix set with, at rank 1 or 2, per-member basis coordinates."""

    rank: int
    basis: tuple[int, ...]
    coefficients: np.ndarray | None


def _basis_coordinates(rows: np.ndarray, exponents: np.ndarray, basis: list[int],
                       qs: list[np.ndarray]) -> np.ndarray:
    """(m, 2) coordinates of each member rows[i]*2**exponents[i] in the one or two
    basis members (second column 0 for one): projections on qs, the basis rows'
    Gram-Schmidt vectors, solved against the basis rows' own projections. With the
    rows flattened matrices (`_prescaled` of members.reshape(m, -1)) the Euclidean
    product is the trace inner product sum_ij A_ij B_ij of any square matrices."""
    proj = (rows[:, None, :] * np.asarray(qs)).sum(axis=2)  # each row bit for bit as alone
    coef = np.zeros((len(rows), 2))
    with np.errstate(over="ignore"):  # a multiple past the float range reads as inf
        coef[:, :len(basis)] = np.ldexp(np.linalg.solve(proj[basis].T, proj.T).T,
                                        exponents[:, None] - exponents[basis])
    return coef


def matrix_set_rank(family: MatrixFamily, tol: float = DEFAULT_TOL) -> MatrixSetRank:
    """Numerical rank of the family members flattened to vectors.

    Members are normalized before the column-pivoted elimination, so the
    rank is invariant under rescaling any member by a nonzero factor and
    under permuting the family. When the rank is 1 or 2 the result carries
    the coordinates of every member in the first independent members.
    """
    rows, exponents = _prescaled(family.members.reshape(len(family), -1))
    unit = _normalized_rows(rows)
    ranks, pivots = _pivoted_rank(unit[None], tol)
    rank = int(ranks[0])
    basis, qs = _gram_schmidt(unit, np.full(len(unit), tol), rank)
    if len(basis) < rank:  # threshold disagreement; fall back to pivot choice
        basis = sorted(pivots[0, :rank].tolist())
        _, qs = _gram_schmidt(unit[basis], np.zeros(rank), rank)
    coefficients = _basis_coordinates(rows, exponents, basis, qs) if rank in (1, 2) else None
    return MatrixSetRank(rank, tuple(basis), coefficients)


def express_in_basis(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Coefficients (alpha, beta) with A = alpha*B1 + beta*B2.

    Raises DegenerateBasisError when the pair is dependent and
    NotInSpanError when the least-squares residual exceeds
    tol * (1 + largest entry of A).
    """
    a, b1, b2 = _as_symmetric(a), _as_symmetric(b1), _as_symmetric(b2)
    if not (a.shape == b1.shape == b2.shape):
        raise InputError("matrices must share one order")
    if matrix_set_rank(MatrixFamily([b1, b2]), tol).rank < 2:
        raise DegenerateBasisError("basis pair is linearly dependent")
    rows, exponents = _prescaled(np.stack([b1, b2, a]).reshape(3, -1))
    _, qs = _gram_schmidt(_normalized_rows(rows[:2]), np.zeros(2), 2)
    alpha, beta = _basis_coordinates(rows, exponents, [0, 1], qs)[2]
    residual = norm_max(a - alpha * b1 - beta * b2)
    if residual > tol * (1.0 + norm_max(a)):
        raise NotInSpanError(residual)
    return float(alpha), float(beta)


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of a general dense matrix (columns normalized first)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InputError("rank expects a 2-d array")
    ranks, _ = _pivoted_rank(_normalized_rows(a.T)[None], tol)
    return int(ranks[0])
