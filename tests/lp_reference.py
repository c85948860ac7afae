"""Row-by-row dense simplex, the reference `lp_solve`'s array pivots are checked against.

The arithmetic of each pivot is the same as `lp_solve`'s, one row at a time,
so the two agree exactly, up to the sign of a zero.
"""

from __future__ import annotations

import numpy as np

from yuancert.errors import InfeasibleError, InputError, UnboundedError
from yuancert.numeric_core import norm_max

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_RATIO_TIE_TOL = 1e-9


def loop_lp_solve(c, a_eq, b_eq) -> tuple[float, np.ndarray]:
    """`lp_solve` pivoting row by row, with the entering column found by a Python loop."""
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float)
    if c.ndim != 1 or b.ndim != 1 or a.shape != (b.size, c.size):
        raise InputError("inconsistent linear program dimensions")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("linear program has non-finite data")

    nv = c.size
    m = b.size
    tableau = a.copy()
    rhs = b.copy()
    flip = rhs < 0.0
    tableau[flip] *= -1.0
    rhs[flip] *= -1.0

    tableau = np.hstack([tableau, np.eye(m)])
    basis = list(range(nv, nv + m))

    def run(cost: np.ndarray) -> None:
        while True:
            dual = cost[basis] @ tableau
            reduced = cost - dual
            entering = -1
            for j in range(tableau.shape[1]):
                if j not in basis and reduced[j] > _COST_TOL:
                    entering = j
                    break
            if entering < 0:
                return
            col = tableau[:, entering]
            eligible = np.flatnonzero(col > _PIVOT_TOL)
            if eligible.size == 0:
                raise UnboundedError("objective is unbounded above")
            ratios = rhs[eligible] / col[eligible]
            best = ratios.min()
            ties = eligible[ratios <= best + _RATIO_TIE_TOL * (1.0 + abs(best))]
            row = min(ties, key=lambda i: basis[i])
            _pivot(row, entering)

    def _pivot(row: int, col: int) -> None:
        piv = tableau[row, col]
        tableau[row] /= piv
        rhs[row] /= piv
        for i in range(tableau.shape[0]):
            if i == row:
                continue
            f = tableau[i, col]
            if f != 0.0:
                tableau[i] -= f * tableau[row]
                rhs[i] -= f * rhs[row]
        basis[row] = col

    # phase 1: drive the artificial variables to zero
    cost1 = np.zeros(nv + m)
    cost1[nv:] = -1.0
    run(cost1)
    infeas = sum(rhs[i] for i in range(len(basis)) if basis[i] >= nv)
    if infeas > 1e-8 * (1.0 + norm_max(b)):
        raise InfeasibleError(f"no feasible point (phase-1 residual {infeas:.3e})")

    # remove artificials still basic at level zero, dropping redundant rows
    keep_rows = []
    for i in range(len(basis)):
        if basis[i] < nv:
            keep_rows.append(i)
            continue
        candidates = np.flatnonzero(np.abs(tableau[i, :nv]) > _PIVOT_TOL)
        if candidates.size:
            _pivot(i, int(candidates[0]))
            keep_rows.append(i)
        # else: redundant constraint, row dropped below
    tableau = tableau[keep_rows, :nv]
    rhs = rhs[keep_rows]
    basis = [basis[i] for i in keep_rows]

    run(c)

    y = np.zeros(nv)
    y[basis] = rhs
    return float(c @ y), y
