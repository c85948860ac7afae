"""Planar hull search, the reference criterion 6 checks `certify_rank2` against.

It shares no search code with the solver: it never calls `certify_rank2`,
`yuan_two` or the pencil bisection, only the LP, the numeric kernels, the
cone restriction of `restricted_forms` and the oracle's batched lambda_min.
"""

from __future__ import annotations

import numpy as np

from yuancert.cone import FirstOrderCone
from yuancert.errors import NumericalFailureError
from yuancert.lp import lp_solve
from yuancert.numeric_core import (
    DEFAULT_TOL,
    MatrixFamily,
    matrix_set_rank,
    norm_max,
)
from yuancert.oracle import _lam_min_batch
from yuancert.yuan import _simplex_weights, restricted_forms


class HypothesisViolatedError(RuntimeError):
    """Rank hypothesis required by the operation does not hold."""

    def __init__(self, message: str, rank: int | None = None) -> None:
        super().__init__(message)
        self.rank = rank


_KSECTION_TOL = 1e-10
_KSECTION_CAP = 160
# interior points K per step of the k-section, odd: each step keeps 2 of K + 1
# cells, and its grid reuses 3 of the K + 2 values
_KSECTION_POINTS = 7


def _lam_min(mats: np.ndarray) -> np.ndarray:
    """lambda_min of each matrix of an (..., k, k) stack, in one batched call."""
    return _lam_min_batch(mats.reshape(-1, *mats.shape[-2:])).reshape(mats.shape[:-2])


def _ksection_max(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Maximize concave functions, one per bracket [lo[r], hi[r]], all at once
    on K + 2 evenly spaced points per bracket.

    `f` maps an (R, P) array of points, row r in bracket r, to their values in
    one call. Each step keeps the two cells beside each row's best interior
    point, so every bracket shrinks by 2/(K + 1) and keeps its best point in
    the middle; with K odd the new grid reuses the values at its ends and
    middle, and K - 1 points are new. The search stops once every bracket
    meets the width rule. Returns each row's best point and value.
    """
    k, mid = _KSECTION_POINTS, (_KSECTION_POINTS + 1) // 2
    rows = np.arange(np.size(lo))[:, None]
    spots = np.arange(k + 2) / (k + 1.0)
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    xs = lo + (hi - lo) * spots
    fs = f(xs)
    ends = [0, mid, k + 1]  # where the next grid takes the kept points
    fresh = np.setdiff1d(np.arange(k + 2), ends)
    for _ in range(_KSECTION_CAP):
        lo, hi = xs[:, :1], xs[:, -1:]
        if (hi - lo <= _KSECTION_TOL * (1.0 + np.abs(lo) + np.abs(hi))).all():
            break
        j = np.argmax(fs, axis=1)[:, None]
        j = j + (j == 0) - (j == k + 1) + np.array([-1, 0, 1])  # an end moves inward
        kept_x, kept_f = xs[rows, j], fs[rows, j]
        xs = kept_x[:, :1] + (kept_x[:, 2:] - kept_x[:, :1]) * spots
        xs[:, ends] = kept_x
        fs = np.empty_like(xs)
        fs[:, ends] = kept_f
        fs[:, fresh] = f(xs[:, fresh])
    j = np.argmax(fs, axis=1)
    return xs[rows[:, 0], j], fs[rows[:, 0], j]


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, degenerate-safe."""
    pts = np.unique(np.round(points, 12), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def turn(o, a, b) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull if hull.shape[0] >= 3 else np.array([pts[0], pts[-1]])


def _slice_bounds(hull: np.ndarray, a: float) -> tuple[float, float]:
    ys: list[float] = []
    count = hull.shape[0]
    for i in range(count):
        p, q = hull[i], hull[(i + 1) % count]
        if (p[0] - a) * (q[0] - a) <= 0.0:
            if p[0] == q[0]:
                ys.extend([p[1], q[1]])
            else:
                s = (a - p[0]) / (q[0] - p[0])
                ys.append(p[1] + s * (q[1] - p[1]))
    if not ys:
        j = int(np.argmin(np.abs(hull[:, 0] - a)))
        return float(hull[j, 1]), float(hull[j, 1])
    return min(ys), max(ys)


def hull_psd_search(
    family: MatrixFamily,
    cone: FirstOrderCone,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Concave maximization over the planar hull of basis coordinates.

    Members of a rank-<=2 family have coordinates (alpha_i, beta_i) in a
    two-member basis; weight vectors sweep the convex hull of those
    points, over which lambda_min of the restricted combination is
    concave. A k-section over alpha, whose columns each take a k-section
    over beta on their slice, all of a step's columns in one stacked search,
    locates the optimum, and an L1-penalty LP recovers simplex weights
    realizing it.
    """
    m = len(family)
    sr = matrix_set_rank(family, tol)
    if sr.rank > 2:
        raise HypothesisViolatedError(f"matrix set rank {sr.rank} exceeds 2", rank=sr.rank)
    mats, _ = restricted_forms(family, cone, tol)
    uniform = np.full(m, 1.0 / m)
    if not mats.size or sr.rank == 0:
        return uniform, 0.0

    flats = family.members.reshape(m, -1)
    if sr.rank == 1:
        ref = sr.basis[0]
        fref = flats[ref]
        coords = np.array([float(f @ fref) / float(fref @ fref) for f in flats])
        base = mats[ref]
        s_star, best = _ksection_max(lambda ss: _lam_min(np.multiply.outer(ss, base)),
                                     [coords.min()], [coords.max()])
        weights = _recover_weights(coords[:, None], s_star)
        return weights, float(best[0])

    b1, b2 = sr.basis
    f1, f2 = flats[b1], flats[b2]
    g11, g22, g12 = float(f1 @ f1), float(f2 @ f2), float(f1 @ f2)
    det = g11 * g22 - g12 * g12
    coords = np.array(
        [
            [
                (g22 * float(f @ f1) - g12 * float(f @ f2)) / det,
                (g11 * float(f @ f2) - g12 * float(f @ f1)) / det,
            ]
            for f in flats
        ]
    )
    m1, m2 = mats[b1], mats[b2]

    def phi(a, b) -> np.ndarray:
        """lambda_min(a*m1 + b*m2) for a and b of one (broadcast) shape, in one call."""
        return _lam_min(np.multiply.outer(a, m1) + np.multiply.outer(b, m2))

    def column_max(a: np.ndarray):
        """The k-section maximum of phi(a_r, .) on each slice, all columns at once."""
        lo, hi = np.array([_slice_bounds(hull, x) for x in a]).T
        return _ksection_max(lambda bs: phi(a[:, None], bs), lo, hi)

    hull = _convex_hull(coords)
    if hull.shape[0] == 1:
        a_star, b_star = hull[0]
        best = float(phi(a_star, b_star))
    elif hull.shape[0] == 2:
        p, q = hull
        s_star, best = _ksection_max(
            lambda ss: phi(p[0] + ss * (q[0] - p[0]), p[1] + ss * (q[1] - p[1])), [0.0], [1.0])
        (a_star, b_star), best = p + s_star[0] * (q - p), float(best[0])
    else:
        # the outer search over alpha maximizes the concave column maximum, each
        # step's K + 2 columns in one stacked inner search
        a_star, best = _ksection_max(
            lambda xs: column_max(xs.ravel())[1].reshape(xs.shape),
            [hull[:, 0].min()], [hull[:, 0].max()],
        )
        b_star, best_b = column_max(a_star)
        a_star, b_star, best = a_star[0], b_star[0], float(max(best[0], best_b[0]))
    for point in coords:  # corners are cheap insurance against search misses
        val = float(phi(point[0], point[1]))
        if val > best:
            best = val
            a_star, b_star = point
    weights = _recover_weights(coords, np.array([a_star, b_star]))
    return weights, best


def _recover_weights(coords: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Simplex weights reproducing a hull point, via an L1-penalty LP."""
    m, d = coords.shape
    slack = np.zeros((d, 2 * d))
    for j in range(d):
        slack[j, 2 * j] = 1.0
        slack[j, 2 * j + 1] = -1.0
    a_eq = np.hstack([np.stack([coords[:, j] for j in range(d)]), slack])
    a_eq = np.vstack([a_eq, np.concatenate([np.ones(m), np.zeros(2 * d)])])
    b_eq = np.concatenate([target, [1.0]])
    c = np.concatenate([np.zeros(m), -np.ones(2 * d)])
    mask = np.ones(m + 2 * d, dtype=bool)
    optimum, solution = lp_solve(c, a_eq, b_eq, mask)
    error = -optimum
    if error > 1e-6 * (1.0 + norm_max(target)):
        raise NumericalFailureError(
            f"weight recovery missed the hull point by {error:.3e}"
        )
    return _simplex_weights(solution[:m])
