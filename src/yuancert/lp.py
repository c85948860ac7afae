"""Dense two-phase simplex kernel for the small standard-form LP of `check_mfcq`."""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError, InputError, UnboundedError
from .numeric_core import norm_max

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9
_RATIO_TIE_TOL = 1e-9


def lp_solve(c, a_eq, b_eq) -> tuple[float, np.ndarray]:
    """Maximize c.y subject to a_eq @ y == b_eq and y >= 0 (the standard form).

    Both phases pivot with Bland's rule (lowest eligible index enters, the
    lowest-index basic variable leaves among minimum ratios), so the
    method cannot cycle. Returns the optimum with an optimal basic
    solution; raises InfeasibleError or UnboundedError.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float)
    if c.ndim != 1 or b.ndim != 1 or a.shape != (b.size, c.size):
        raise InputError("inconsistent linear program dimensions")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("linear program has non-finite data")

    nv, m = c.size, b.size
    rhs = b.copy()
    flip = rhs < 0.0
    tableau = np.hstack([a, np.eye(m)])
    tableau[flip, :nv] *= -1.0
    rhs[flip] *= -1.0
    basis = list(range(nv, nv + m))

    def run(cost: np.ndarray) -> None:
        while True:
            reduced = cost - cost[basis] @ tableau
            reduced[basis] = 0.0  # basic columns never enter
            improving = np.flatnonzero(reduced > _COST_TOL)
            if improving.size == 0:
                return
            entering = int(improving[0])
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
        # one outer-product update of every other row; a zero factor subtracts 0
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau[:] -= np.outer(factors, tableau[row])
        rhs[:] -= factors * rhs[row]
        basis[row] = col

    # phase 1: drive the artificial variables to zero
    run(np.concatenate([np.zeros(nv), -np.ones(m)]))
    infeas = sum(rhs[i] for i in range(len(basis)) if basis[i] >= nv)
    if infeas > 1e-8 * (1.0 + norm_max(b)):
        raise InfeasibleError(f"no feasible point (phase-1 residual {infeas:.3e})")

    # remove artificials still basic at level zero, dropping redundant rows
    keep_rows = []
    for i in range(len(basis)):
        if basis[i] >= nv:
            candidates = np.flatnonzero(np.abs(tableau[i, :nv]) > _PIVOT_TOL)
            if not candidates.size:
                continue  # a redundant constraint: its row is dropped below
            _pivot(i, int(candidates[0]))
        keep_rows.append(i)
    tableau = tableau[keep_rows, :nv]
    rhs = rhs[keep_rows]
    basis = [basis[i] for i in keep_rows]

    run(c)

    y = np.zeros(nv)
    y[basis] = rhs
    return float(c @ y), y
