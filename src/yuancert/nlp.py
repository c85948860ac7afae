"""Second-order analysis of a nonlinear program at a fixed candidate point.

All first- and second-order data is frozen into KKTData; no function
evaluation or differentiation happens here. The pipeline enumerates the
vertices of the multiplier polytope, assembles the Lagrangian Hessians
at those vertices, and reduces the single-multiplier certificate to
`certify_rank2` on that matrix family over a first-order subcone of the
critical cone.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cone import FirstOrderCone
from .errors import (
    ConeNotCriticalError,
    EmptyMultiplierSetError,
    InputError,
    MfcqFailedError,
    NumericalFailureError,
)
from .lp import lp_solve
from .numeric_core import (
    DEFAULT_TOL,
    MatrixFamily,
    _as_symmetric,
    _normalized_rows,
    _pivoted_rank,
    norm_max,
    numerical_rank,
    sym_eigen,
)
from .yuan import certificate_value, certify_rank2, restricted_forms

ACTIVITY_TOL = 1e-8
_FEAS_TOL = 1e-9
_DEDUP_TOL = 1e-8
_BLOCK = 256  # column subsets per stacked rank test and solve


def _vectors(raw, n: int, name: str) -> np.ndarray:
    if raw is None:
        return np.zeros((0, n))
    arr = np.asarray(raw, dtype=float)
    if arr.size == 0:
        return np.zeros((0, n))
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InputError(f"{name} must be rows of length {n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


class KKTData:
    """Problem derivatives frozen at a candidate point.

    Gradients are stored as rows. The Hessians are one read-only
    (1 + p1 + p2, n, n) stack `hessians`: hess_f, then hess_h, then hess_g,
    each checked and mirrored from its upper triangle. The active set is
    either given directly (0-based indices) or derived from g_values with
    an absolute activity tolerance of 1e-8; when both are supplied they
    must agree.
    """

    __slots__ = ("n", "grad_f", "grad_h", "grad_g", "hessians", "active", "g_values")

    def __init__(self, grad_f, hess_f, grad_h=None, hess_h=(), grad_g=None,
                 hess_g=(), active=None, g_values=None) -> None:
        gf = np.asarray(grad_f, dtype=float)
        if gf.ndim != 1 or gf.size < 1:
            raise InputError("grad_f must be a nonempty vector")
        if not np.isfinite(gf).all():
            raise InputError("grad_f has non-finite entries")
        n = gf.size
        gh = _vectors(grad_h, n, "grad_h")
        gg = _vectors(grad_g, n, "grad_g")
        hf = _as_symmetric(hess_f)
        hh = [_as_symmetric(h) for h in hess_h]
        hg = [_as_symmetric(h) for h in hess_g]
        if hf.shape[0] != n:
            raise InputError("hess_f order does not match grad_f")
        if len(hh) != gh.shape[0] or any(h.shape[0] != n for h in hh):
            raise InputError("hess_h does not match grad_h")
        if len(hg) != gg.shape[0] or any(h.shape[0] != n for h in hg):
            raise InputError("hess_g does not match grad_g")
        p2 = gg.shape[0]
        gv = None
        if g_values is not None:
            gv = np.asarray(g_values, dtype=float)
            if gv.shape != (p2,) or not np.isfinite(gv).all():
                raise InputError("g_values must be a finite vector of length p2")
            derived = tuple(int(i) for i in range(p2) if abs(gv[i]) <= ACTIVITY_TOL)
            if active is not None and tuple(sorted(int(i) for i in active)) != derived:
                raise InputError("active set inconsistent with g_values")
            act = derived
        elif active is not None:
            act = tuple(sorted(set(int(i) for i in active)))
            if any(i < 0 or i >= p2 for i in act):
                raise InputError("active indices out of range")
        elif p2 == 0:
            act = ()
        else:
            raise InputError("either active or g_values is required when p2 > 0")
        hessians = np.stack([hf, *hh, *hg])
        hessians.setflags(write=False)
        for name, value in (("n", n), ("grad_f", gf), ("grad_h", gh), ("grad_g", gg),
                            ("hessians", hessians), ("active", act), ("g_values", gv)):
            object.__setattr__(self, name, value)
        gf.setflags(write=False)
        gh.setflags(write=False)
        gg.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("KKTData is immutable")

    @property
    def p1(self) -> int:
        return self.grad_h.shape[0]

    @property
    def p2(self) -> int:
        return self.grad_g.shape[0]


def lagrangian_hessian(data: KKTData, multiplier) -> np.ndarray:
    """hess_f + sum_i lam_i * hess_h_i + sum_i mu_i * hess_g_i, exactly symmetric, for
    the multiplier row (lam, mu) of length p1 + p2."""
    row = np.asarray(multiplier, dtype=float)
    if row.shape != (data.p1 + data.p2,):
        raise InputError("multiplier dimensions do not match the problem")
    return _hessian_stack(data, row[None])[0]


def _hessian_stack(data: KKTData, rows: np.ndarray) -> np.ndarray:
    """The (V, n, n) Lagrangian Hessians of the V multiplier rows (lam, mu),
    summed in constraint order for all rows at once."""
    total = np.repeat(data.hessians[:1], len(rows), axis=0)
    for w, h in zip(rows.T, data.hessians[1:]):
        total += w[:, None, None] * h
    return total


def check_mfcq(data: KKTData, tol: float = DEFAULT_TOL) -> bool:
    """Mangasarian-Fromovitz test.

    Requires (i) linearly independent equality gradients and (ii) optimum
    zero for the LP maximizing the total active-inequality coefficient in
    a vanishing nonnegative combination of active gradients.
    """
    if data.p1 > 0 and numerical_rank(data.grad_h.T, tol) < data.p1:
        return False
    act = list(data.active)
    if not act:
        return True
    na = len(act)
    # variables: alpha (free), beta >= 0, slack >= 0
    cols = [data.grad_h[i] for i in range(data.p1)] + [data.grad_g[i] for i in act]
    a_top = np.column_stack(cols) if cols else np.zeros((data.n, 0))
    a_top = np.hstack([a_top, np.zeros((data.n, 1))])
    a_bot = np.concatenate([np.zeros(data.p1), np.ones(na), np.ones(1)])[None, :]
    a_eq = np.vstack([a_top, a_bot])
    b_eq = np.concatenate([np.zeros(data.n), [1.0]])
    c = np.concatenate([np.zeros(data.p1), np.ones(na), [0.0]])
    mask = np.concatenate([np.zeros(data.p1, dtype=bool), np.ones(na + 1, dtype=bool)])
    try:
        optimum, _ = lp_solve(c, a_eq, b_eq, mask)
    except Exception as exc:  # the LP is feasible and bounded by construction
        raise NumericalFailureError(f"MFCQ linear program failed: {exc}") from exc
    return optimum <= 1e-6


def multiplier_vertices(data: KKTData, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All vertices of the multiplier polytope at the candidate point, as the
    rows (lam, mu) of one (V, p1 + p2) array, mu zero off the active set.

    Enumerates basic solutions of the stationarity system over column
    subsets of size equal to its rank. Every subset must contain all
    equality-gradient columns: those variables are free, so a vertex
    support always extends through them, and subsets omitting one can
    only produce non-extreme points. The subsets are rank-tested in
    stacked blocks of _BLOCK, and the full-rank ones of a block are solved
    together by one stacked QR factorization. Solutions are filtered for a
    finite residual within 1e-8 of scale and mu >= -1e-9 (then clamped),
    and deduplicated at 1e-8, in the order they first appear among the
    subsets.
    """
    act = list(data.active)
    na = len(act)
    cols = [data.grad_h[i] for i in range(data.p1)] + [data.grad_g[i] for i in act]
    rhs = -data.grad_f
    scale = 1.0 + norm_max(rhs)
    if not cols:
        if norm_max(rhs) <= 1e-8 * scale:
            return np.zeros((1, data.p2))
        raise EmptyMultiplierSetError("no multipliers: gradient of f does not vanish")
    mat = np.column_stack(cols)
    rank = numerical_rank(mat, tol)
    if data.p1 > 0 and numerical_rank(data.grad_h.T, tol) < data.p1:
        raise MfcqFailedError("equality gradients are linearly dependent")
    unit = _normalized_rows(mat.T)
    free = list(range(data.p1))
    subsets = (free + list(combo)
               for combo in itertools.combinations(range(data.p1, data.p1 + na), rank - data.p1))
    found: list[np.ndarray] = []
    while block := list(itertools.islice(subsets, _BLOCK)):
        sels = np.array(block, dtype=int)
        ranks, _ = _pivoted_rank(unit[sels], tol)
        sels = sels[ranks == rank]
        subs = mat[:, sels].transpose(1, 0, 2)  # (K, n, rank)
        q, r = np.linalg.qr(subs)
        y = np.linalg.solve(r, np.matmul(rhs, q)[:, :, None])[:, :, 0]
        resid = np.abs(np.einsum("knr,kr->kn", subs, y) - rhs).max(axis=1)
        ok = (resid <= 1e-8 * scale) & (y[:, data.p1:] >= -_FEAS_TOL).all(axis=1)
        full = np.zeros((int(ok.sum()), data.p1 + na))
        np.put_along_axis(full, sels[ok], y[ok], axis=1)
        full[:, data.p1:] = np.maximum(full[:, data.p1:], 0.0)
        found.append(full)
    candidates = np.concatenate(found)
    if not len(candidates):
        raise EmptyMultiplierSetError("stationarity system has no feasible basic solution")
    unique = np.empty_like(candidates)
    kept = 0
    for v in candidates:
        if np.all(np.abs(unique[:kept] - v).max(axis=1) > _DEDUP_TOL):
            unique[kept] = v
            kept += 1
    rows = np.zeros((kept, data.p1 + data.p2))
    rows[:, : data.p1] = unique[:kept, : data.p1]
    rows[:, data.p1 + np.array(act, dtype=int)] = unique[:kept, data.p1:]
    return rows


def critical_cone_lineality(data: KKTData) -> np.ndarray:
    """Orthonormal basis of the lineality space of the critical cone.

    The null space of the rows {grad_h_i (all i), grad_g_i (i active),
    grad_f}, computed through the eigendecomposition of the Gram matrix.
    """
    rows = np.vstack([data.grad_h, data.grad_g[list(data.active)], data.grad_f[None, :]])
    gram = rows.T @ rows
    vals, basis = sym_eigen(0.5 * (gram + gram.T))
    thresh = 1e-12 * (1.0 + norm_max(gram))
    return np.array(basis[:, vals <= thresh])


def recombine(rows: np.ndarray, weights, p1: int) -> np.ndarray:
    """The multiplier sum_i w_i*rows[i] of weighted vertex rows, mu (the entries
    from p1 on) clamped at 0."""
    mult = np.asarray(sum(w * row for w, row in zip(weights, rows)))
    mult[p1:] = np.maximum(mult[p1:], 0.0)
    return mult


def vertex_hessians(
    data: KKTData,
    cone: FirstOrderCone | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[FirstOrderCone, np.ndarray, MatrixFamily]:
    """Cone, multiplier vertex rows and vertex Lagrangian Hessians of a second-order check.

    Raises MfcqFailedError where MFCQ fails. The default cone is the critical
    cone's lineality space; a given cone must lie in the critical cone."""
    if not check_mfcq(data, tol):
        raise MfcqFailedError("Mangasarian-Fromovitz constraint qualification fails")
    if cone is None:
        cone = FirstOrderCone(data.n, critical_cone_lineality(data).T)
    elif cone.ambient_dim != data.n:
        raise InputError("cone ambient dimension does not match the problem")
    else:
        rows_eq = np.vstack([data.grad_h, data.grad_f[None, :]])
        rows_ineq = data.grad_g[list(data.active)]
        scale = 1.0 + max(norm_max(rows_eq), norm_max(rows_ineq) if rows_ineq.size else 0.0)
        ctol = 1e-8 * scale
        for j in range(cone.subspace_dim):
            v = cone.subspace[:, j]
            if norm_max(rows_eq @ v) > ctol or (rows_ineq.size and norm_max(rows_ineq @ v) > ctol):
                raise ConeNotCriticalError("cone subspace leaves the critical cone")
        if cone.ray is not None and norm_max(rows_eq @ cone.ray) > ctol:
            raise ConeNotCriticalError("cone ray leaves the critical cone")
        if cone.ray is not None and rows_ineq.size and (rows_ineq @ cone.ray > ctol).any():
            raise ConeNotCriticalError("cone ray violates an active inequality")
    rows = multiplier_vertices(data, tol)
    return cone, rows, MatrixFamily(_hessian_stack(data, rows))


def second_order_certificate(
    data: KKTData,
    cone: FirstOrderCone | None = None,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Single-multiplier second-order certificate over a first-order subcone.

    Hands the Lagrangian Hessians at the multiplier vertices
    (`vertex_hessians`) to certify_rank2. The verdict record gains
    `vertex_count` and, when certified, `multiplier`: the vertex weights
    recombine into one multiplier, its `lambda` and `mu`, whose Hessian is
    re-verified PSD on the cone by `certificate_value`.
    """
    cone, rows, hessians = vertex_hessians(data, cone, tol)
    record = certify_rank2(hessians, cone, tol)
    if record["verdict"] == "certified":
        mult = recombine(rows, record["weights"], data.p1)
        restricted, threshold = restricted_forms(
            MatrixFamily([lagrangian_hessian(data, mult)]), cone, tol)
        value = certificate_value(restricted, [1.0])
        if value < threshold:
            raise NumericalFailureError(
                f"recombined multiplier failed the PSD re-check ({value:.3e})"
            )
        record["multiplier"] = {"lambda": mult[: data.p1], "mu": mult[data.p1:]}
    record["vertex_count"] = len(rows)
    return record
