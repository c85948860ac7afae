"""Convex-combination PSD certificates for families of quadratic forms.

`yuan_two` decides the two-matrix case by maximizing the concave map
lambda(t) = lambda_min(t*A + (1-t)*B) over [0, 1], bisecting on the sign
of its supergradient v1'(A-B)v1 (Lewis & Overton, Acta Numerica 5,
1996) down to the float resolution of t. It certifies at the best t
evaluated, or refutes with a unit vector on which the two forms agree,
from the span of that point's lowest eigenvector and a later one.
`certify_rank2` extends the decision to any family whose matrix set has
rank at most 2 by one pass over the members' coordinates in a two-member
basis: a zero combination when 0 lies in their conic hull, otherwise the
same pencil decision on its two extreme rays, at the family's threshold.

A verdict is one record from the solver to the report: a dict holding the
report's own fields, `verdict` ("certified", "refuted" or
"hypothesis_violated") and `residuals`, then `weights` and `lambda_min`,
or `witness` and `form_values`, or `reason` and `rank`. Every verdict,
here, in `nlp`, `oracle` and `verify-report`, meets one rule: the
threshold of `restricted_forms`, which turns a non-symmetric family away,
cleared by `certificate_value` for a certificate and by every form value
in `witness_check` for a refutation.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import FirstOrderCone, cone_contains, restrict, span_basis
from .errors import InputError, NumericalFailureError
from .numeric_core import (
    DEFAULT_TOL,
    MatrixFamily,
    _eigh,
    _mirrored,
    _prescaled,
    matrix_set_rank,
    min_eigenvalue,
    norm_max,
)

# Coordinate directions this close to opposite count as an opposite pair:
# well above the rounding of atan2 and of adding pi (a few ulps of pi), and
# the pair's combination is then off by only this fraction of a member.
# Wider, it would take near-opposite pairs from the three-member identity,
# whose combination is exact for them.
_OPPOSITE_ANGLE = 1e-12


def _simplex_weights(raw) -> np.ndarray:
    """Raw weights as a point of the standard simplex: negative round-off clamped
    to 0, then divided by the total, which must be positive. What results must be
    finite and sum to 1 to 1e-12."""
    arr = np.asarray(raw, dtype=float).copy()
    arr[arr < 0.0] = 0.0
    total = float(arr.sum())
    if total <= 0.0:
        raise InputError("weights must have positive total")
    arr = arr / total
    if not np.isfinite(arr).all():
        raise InputError("weights have non-finite entries")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise InputError("weights must sum to 1")
    return arr


def restricted_forms(family, cone: FirstOrderCone, tol: float) -> tuple[np.ndarray, float]:
    """The (m, k, k) stack of the members restricted to the k-dimensional cone span,
    and the threshold -tol*(1 + largest restricted entry) every verdict clears (0
    when k = 0). The symmetry gate of every verdict: a non-symmetric family raises."""
    members = family.members
    if family.order != cone.ambient_dim:
        raise InputError("family and cone must share one ambient dimension")
    if not family.symmetric:
        raise InputError(f"family is not symmetric (asymmetry {_mirrored(members)[1]:.3e})")
    if not cone.span_dim:
        return np.zeros((len(members), 0, 0)), 0.0
    restricted = restrict(members, span_basis(cone))
    return restricted, -tol * (1.0 + norm_max(restricted))


def certificate_value(restricted: np.ndarray, weights) -> float:
    """lambda_min of the weighted restriction sum_i w_i*R_i (0 on an empty span)."""
    combined = sum(w * r for w, r in zip(weights, restricted))
    return min_eigenvalue(combined) if restricted.size else 0.0


def witness_check(members, cone: FirstOrderCone, x, threshold: float) -> tuple[bool, np.ndarray]:
    """Whether x is a witness judged at unit length: 0 < x'x < inf, x/|x| lies in
    the cone (at 1e-8) and every form value x'A_i x of the member stack, also
    returned, is below threshold*x'x."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([float(x @ m @ x) for m in members])
        length = float(x @ x)
    if not 0.0 < length < np.inf:
        return False, values
    in_cone = cone_contains(cone, x, 1e-8 * math.sqrt(length))
    return in_cone and bool((values < threshold * length).all()), values


def _into_cone(x: np.ndarray, cone: FirstOrderCone) -> np.ndarray:
    """Flip the sign so the ray coordinate is nonnegative (forms are even)."""
    if cone.ray is not None and float(cone.ray @ x) < 0.0:
        return -x
    return x


def _pencil_max(ar: np.ndarray, br: np.ndarray) -> tuple[float, float, np.ndarray]:
    """t*, lambda(t*) and the eigenvectors at t* that `_pencil_witness` draws a
    witness from, for lambda(t) = lambda_min(t*A + (1-t)*B).

    lambda is concave and g(t) = v1'(A-B)v1, for a bottom eigenvector v1,
    is a supergradient, so the sign of g tells on which side of t the
    maximum lies. g(0) <= 0 puts it at 0 and g(1) >= 0 at 1, and that
    endpoint's v1 alone is returned, so it is the witness. Otherwise [0, 1]
    is halved on the sign of g until it is no wider than ulp(1), the float
    resolution of t there, and the best midpoint evaluated is kept with its
    whole eigenvector basis. The next four midpoints of a bracket [lo, hi]
    all lie among lo + j*(hi - lo)/16, j = 1..15, and every such point is a
    multiple of 2**-52 in [0, 1], so exact: each point of the 16-way grid is
    decomposed in one stacked call, and the halvings replay on it as one
    point at a time would, with the same t*. That is at most 2 + 13 stacked
    eigendecompositions for the 52 halvings.
    """
    diff = 0.5 * ar - 0.5 * br  # half of A - B: its sign is read, and it cannot overflow

    def at(ts: np.ndarray) -> dict:
        """t -> (lambda(t), eigenvectors) for each t of ts, from one stacked call;
        both restrictions are mirrored, so every point is exactly symmetric."""
        pts = ts[:, None, None] * ar + (1.0 - ts)[:, None, None] * br + 0.0  # -0.0 reads as 0.0
        if not np.isfinite(pts).all():
            raise InputError("matrix has non-finite entries")
        vals, vecs = _eigh(pts)
        return dict(zip(ts.tolist(), zip(vals[:, 0].tolist(), vecs)))

    def judged(lam: float, vecs: np.ndarray) -> tuple[float, float, np.ndarray]:
        """lambda, g and the basis, laid out as sym_eigen's, at one point."""
        basis = np.ascontiguousarray(vecs)
        v1 = basis[:, 0]
        return lam, float(v1 @ diff @ v1), basis

    lam0, g, basis0 = judged(*at(np.zeros(1))[0.0])
    if g <= 0.0:
        return 0.0, lam0, basis0[:, :1]
    lam1, g, basis1 = judged(*at(np.ones(1))[1.0])
    if g >= 0.0:
        return 1.0, lam1, basis1[:, :1]
    # g = a - b is constant at order 1, so from here on the order is >= 2
    best_lam, best_t, basis = max((lam0, 0.0, basis0), (lam1, 1.0, basis1), key=lambda e: e[0])
    lo, hi, grid = 0.0, 1.0, {}
    while hi - lo > math.ulp(1.0):
        mid = 0.5 * (lo + hi)
        if mid not in grid:  # every fourth halving
            grid = at(lo + np.arange(1.0, 16.0) * ((hi - lo) / 16.0))
        lam, g, mid_basis = judged(*grid[mid])
        if lam > best_lam:
            best_lam, best_t, basis = lam, mid, mid_basis
        if g == 0.0:
            break
        lo, hi = (mid, hi) if g > 0.0 else (lo, mid)
    return best_t, best_lam, basis


def _pencil_witness(diff: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The unit x with x'(A-B)x = 0, for diff = (A-B)/2, nearest v1 = basis[:, 0]
    in span(v1, vj) for the first later column vj that admits one, or v1 when
    none does. At a pencil point t with bottom eigenvector v1, x'Ax = x'Bx =
    x'(tA + (1-t)B)x there, close to lambda(t)."""
    # x = v1 + tau*vj with p + 2q*tau + r*tau^2 = 0; the small root
    # tau = -p / (q + sign(q)*sqrt(q^2 - p*r)) loses no digits to cancellation,
    # and q^2 - p*r >= 0 holds for any vj with r of the sign opposite to p.
    # x is the same for the forms divided by one power of two, exactly, which
    # keeps q^2 and p*r inside the float range
    forms = basis.T @ diff @ basis
    forms = np.ldexp(forms, -np.frexp(norm_max(forms))[1])
    p, q, r = float(forms[0, 0]), forms[0, 1:], np.diag(forms)[1:]
    disc = q * q - p * r
    real = np.flatnonzero(disc >= 0.0)
    v1 = basis[:, 0]
    if p == 0.0 or real.size == 0:
        return v1
    j = int(real[0])
    den = float(q[j]) + math.copysign(math.sqrt(float(disc[j])), float(q[j]))
    return (den * v1 - p * basis[:, j + 1]) / math.hypot(den, p)


def _pencil_decision(members: np.ndarray, cone: FirstOrderCone, restricted: np.ndarray,
                     threshold: float, i: int, j: int) -> dict:
    """Weights on members i and j, or a witness against every member, from
    `_pencil_max` on restricted[i] and restricted[j] judged at the caller's
    threshold.

    Only a refutation builds its witness (`_pencil_witness`), which is mapped
    into the cone and checked once by `witness_check` on all the members; one
    that fails raises NumericalFailureError naming the largest form value, the
    threshold and the margin.
    """
    t_star, lam_star, basis = _pencil_max(restricted[i], restricted[j])
    residuals = {"pencil_argmax": t_star, "pencil_max": lam_star}
    if lam_star >= threshold:
        w = np.zeros(len(members))
        w[i] += t_star
        w[j] += 1.0 - t_star
        return {"verdict": "certified", "residuals": residuals,
                "weights": _simplex_weights(w), "lambda_min": lam_star}

    witness = _pencil_witness(0.5 * restricted[i] - 0.5 * restricted[j], basis)
    x = _into_cone(span_basis(cone) @ witness, cone)
    ok, values = witness_check(members, cone, x, threshold)
    if not ok:
        worst = float(values.max())
        raise NumericalFailureError(
            f"pencil witness verification failed: largest form value {worst:.9e}"
            f" against threshold {threshold:.9e} (margin {worst - threshold:.3e})"
        )
    return {"verdict": "refuted", "residuals": residuals, "witness": x, "form_values": values}


def yuan_two(
    a: np.ndarray,
    b: np.ndarray,
    cone: FirstOrderCone,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Two-matrix certificate: a PSD pencil point or a double-negative witness.

    The pair restricted to the cone span, with its `restricted_forms`
    threshold, is decided by the pencil search (`_pencil_decision`).
    """
    pair = MatrixFamily([a, b])
    restricted, threshold = restricted_forms(pair, cone, tol)
    if not restricted.size:
        return {"verdict": "certified", "residuals": {"span_dim": 0.0},
                "weights": np.array([0.5, 0.5]), "lambda_min": 0.0}
    return _pencil_decision(pair.members, cone, restricted, threshold, 0, 1)


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _plane_pass(top, members, restricted, cone, threshold: float) -> dict:
    """Weights or a witness for a rank <= 2 family from its basis coordinates.

    Zero combinations carry lambda_min 0; the caller re-verifies every
    certificate. A witness is already checked on the whole family. Member
    sizes are taken on rows prescaled by powers of two (`_prescaled`) and
    scaled back, so entries near the float range do not overflow their
    squares.
    """
    m = len(members)
    w = np.zeros(m)
    rows, exps = _prescaled(restricted.reshape(m, -1))
    with np.errstate(over="ignore"):  # a size past the float range sorts and compares as inf
        sizes = np.ldexp([np.linalg.norm(row) for row in rows], exps)
    zero = int(np.argmin(sizes))
    if top.rank == 0:
        w[:] = 1.0
    elif sizes[zero] <= -0.5 * threshold:
        w[zero] = 1.0  # its lambda_min is provably inside the threshold
    else:
        pts = top.coefficients
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(theta, kind="stable")
        ts = theta[order]
        gaps = np.diff(ts, append=ts[0] + 2.0 * math.pi)
        g = int(np.argmax(gaps))
        if gaps[g] > math.pi:
            # pointed hull: every member is a nonnegative combination of the
            # two members bounding the gap, so a pair certificate or witness
            # for them holds for the family
            i, j = int(order[(g + 1) % m]), int(order[g])
            return _pencil_decision(members, cone, restricted, threshold, i, j)
        # 0 lies in the conic hull. With p the first member in angle order,
        # no gap above pi puts some member at or past the direction of -p.
        p = int(order[0])
        k = int(np.searchsorted(ts, ts[0] + math.pi - _OPPOSITE_ANGLE))
        r = int(order[k])
        if ts[k] <= ts[0] + math.pi + _OPPOSITE_ANGLE:
            w[p], w[r] = np.linalg.norm(pts[r]), np.linalg.norm(pts[p])  # |r|*p + |p|*r = 0
        else:
            # -p lies strictly between q and r, which are less than pi apart,
            # and cross(q,r)*p + cross(r,p)*q + cross(p,q)*r = 0 for any points
            q = int(order[k - 1])
            w[p], w[q], w[r] = (_cross(pts[q], pts[r]), _cross(pts[r], pts[p]),
                                _cross(pts[p], pts[q]))
    return {"verdict": "certified", "residuals": {}, "weights": _simplex_weights(w),
            "lambda_min": 0.0}


def certify_rank2(
    family: MatrixFamily,
    cone: FirstOrderCone,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Certificate for a symmetric family of matrix-set rank at most 2: the one
    rank-<=2 decider of `certify`, `soc` and `quad`.

    The family passes `restricted_forms` first, so a non-symmetric one raises.
    An empty cone span certifies with equal weights. Otherwise a set rank
    above 2 (one `matrix_set_rank` call) is reported as a hypothesis
    violation, and at most 2 every member is alpha_i*P + beta_i*Q for the
    basis pair (on a line at rank 1), so the decision is one pass over the
    points (alpha_i, beta_i): a member that vanishes on the cone span takes
    unit weight; when no angular gap between the points exceeds pi, 0 lies
    in their conic hull and a zero combination of at most three members
    certifies; otherwise the hull is pointed, every member is a nonnegative
    combination of its two extreme rays, and the pencil of that pair decides
    at the family's threshold.
    """
    members = family.members
    m = len(members)
    restricted, threshold = restricted_forms(family, cone, tol)
    if not restricted.size:
        return {"verdict": "certified", "residuals": {"span_dim": 0.0},
                "weights": np.full(m, 1.0 / m), "lambda_min": 0.0}
    top = matrix_set_rank(family, tol)
    if top.rank > 2:
        return {"verdict": "hypothesis_violated", "residuals": {},
                "reason": f"matrix set rank {top.rank} exceeds 2", "rank": top.rank}
    record = _plane_pass(top, members, restricted, cone, threshold)
    residuals = record["residuals"]
    if top.rank == 2:  # an overflowed coordinate leaves a nan or inf fit, which max keeps
        (al, be), (b0, b1) = top.coefficients.T[:, :, None, None], members[list(top.basis)]
        with np.errstate(over="ignore", invalid="ignore"):
            misfit = np.abs(members - (al * b0 + be * b1)).max(axis=(1, 2))
        residuals["basis_fit_residual"] = float(
            (misfit / (1.0 + np.abs(members).max(axis=(1, 2)))).max())
    if record["verdict"] == "refuted":
        residuals["worst_form_value"] = float(record["form_values"].max())
        return record

    weights = record["weights"]
    lam = certificate_value(restricted, weights)
    if lam < threshold:
        raise NumericalFailureError(
            f"certificate failed verification (lambda_min {lam:.3e})"
        )
    residuals["combined_lambda_min"] = lam
    residuals["weight_sum_error"] = abs(float(weights.sum()) - 1.0)
    record["lambda_min"] = lam
    return record
