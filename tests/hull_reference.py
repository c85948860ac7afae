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
    flatten_sym,
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


_TERNARY_TOL = 1e-10
_TERNARY_CAP = 160
# points per step of the inner k-section: each step keeps 2 of K + 1 cells
_KSECTION_POINTS = 16


def _lam_min_one(mat: np.ndarray) -> float:
    return float(_lam_min_batch(mat[None, :, :])[0])


def _ternary_max(f, lo: float, hi: float) -> tuple[float, float]:
    best_x, best_f = lo, f(lo)
    fh = f(hi)
    if fh > best_f:
        best_x, best_f = hi, fh
    for _ in range(_TERNARY_CAP):
        if hi - lo <= _TERNARY_TOL * (1.0 + abs(lo) + abs(hi)):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = f(m1), f(m2)
        if f1 > best_f:
            best_x, best_f = m1, f1
        if f2 > best_f:
            best_x, best_f = m2, f2
        if f1 <= f2:
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    fm = f(mid)
    if fm > best_f:
        best_x, best_f = mid, fm
    return best_x, best_f


def _ksection_max(f_batch, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a concave f on [lo, hi] from K + 2 evenly spaced points per step.

    `f_batch` maps an array of points to their values in one call. Each
    step keeps the two cells beside the best point, so the bracket
    shrinks by 2/(K + 1); it stops on the ternary search's width rule.
    """
    best_x, best_f = lo, -np.inf
    for _ in range(_TERNARY_CAP):
        xs = np.linspace(lo, hi, _KSECTION_POINTS + 2)
        fs = f_batch(xs)
        j = int(np.argmax(fs))
        if fs[j] > best_f:
            best_x, best_f = float(xs[j]), float(fs[j])
        if hi - lo <= _TERNARY_TOL * (1.0 + abs(lo) + abs(hi)):
            break
        lo, hi = float(xs[max(j - 1, 0)]), float(xs[min(j + 1, _KSECTION_POINTS + 1)])
    return best_x, best_f


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
    concave. A ternary search over alpha, with a k-section over beta on
    each slice, locates the optimum and an L1-penalty LP recovers simplex
    weights realizing it.
    """
    m = len(family)
    sr = matrix_set_rank(family, tol)
    if sr.rank > 2:
        raise HypothesisViolatedError(f"matrix set rank {sr.rank} exceeds 2", rank=sr.rank)
    mats, _ = restricted_forms(family, cone, tol)
    uniform = np.full(m, 1.0 / m)
    if not mats.size or sr.rank == 0:
        return uniform, 0.0

    flats = [flatten_sym(s) for s in family.members]
    if sr.rank == 1:
        ref = sr.basis[0]
        fref = flats[ref]
        coords = np.array([float(f @ fref) / float(fref @ fref) for f in flats])
        base = mats[ref]

        def phi1(s: float) -> float:
            return _lam_min_one(s * base)

        s_star, best = _ternary_max(phi1, float(coords.min()), float(coords.max()))
        weights = _recover_weights(coords[:, None], np.array([s_star]))
        return weights, best

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

    def phi(a: float, b: float) -> float:
        return _lam_min_one(a * m1 + b * m2)

    def column(a: float):
        """phi(a, .) on an array of b values, in one stacked call."""
        return lambda bs: _lam_min_batch(a * m1 + bs[:, None, None] * m2)

    hull = _convex_hull(coords)
    if hull.shape[0] == 1:
        a_star, b_star = hull[0]
        best = phi(a_star, b_star)
    elif hull.shape[0] == 2:
        p, q = hull
        s_star, best = _ternary_max(
            lambda s: phi(*(p + s * (q - p))), 0.0, 1.0
        )
        a_star, b_star = p + s_star * (q - p)
    else:

        def column_max(a: float) -> float:
            return _ksection_max(column(a), *_slice_bounds(hull, a))[1]

        a_star, best = _ternary_max(
            column_max, float(hull[:, 0].min()), float(hull[:, 0].max())
        )
        b_star, best_b = _ksection_max(column(a_star), *_slice_bounds(hull, a_star))
        best = max(best, best_b)
    for point in coords:  # corners are cheap insurance against search misses
        val = phi(point[0], point[1])
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
