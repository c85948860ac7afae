"""Convex-combination PSD certificates for families of quadratic forms.

`yuan_two` decides the two-matrix case by maximizing the concave map
lambda(t) = lambda_min(t*A + (1-t)*B) over [0, 1], bisecting on the sign
of its supergradient v1'(A-B)v1 (Lewis & Overton, Acta Numerica 5,
1996) down to the float resolution of t. It certifies at the best t
evaluated, or refutes with a unit vector on which the two forms agree,
from the span of that point's lowest eigenvector and a later one.
`certify_rank2` extends the decision to any family whose matrix set has
rank at most 2 by one pass over the members' coordinates in a two-member
basis: a zero combination when 0 lies in their conic hull, otherwise
`yuan_two` on its two extreme rays.

Every verdict, here, in `nlp` and in `verify-report`, meets one rule:
the threshold of `restricted_forms`, cleared by `certificate_value` for a
certificate and by every form value in `witness_check` for a refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import FirstOrderCone, cone_contains, restrict, span_basis
from .errors import InputError, NumericalFailureError
from .numeric_core import (
    DEFAULT_TOL,
    MatrixFamily,
    SymMatrix,
    as_family,
    as_sym,
    flatten_sym,
    matrix_set_rank,
    min_eigenvalue,
    norm_max,
    quad_form,
    sym_eigen,
)

# Coordinate directions this close to opposite count as an opposite pair:
# well above the rounding of atan2 and of adding pi (a few ulps of pi), and
# the pair's combination is then off by only this fraction of a member.
# Wider, it would take near-opposite pairs from the three-member identity,
# whose combination is exact for them.
_OPPOSITE_ANGLE = 1e-12


class SimplexWeights:
    """Point of the standard simplex: nonnegative weights summing to one."""

    __slots__ = ("t",)

    def __init__(self, t) -> None:
        arr = np.asarray(t, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise InputError("weights must form a nonempty vector")
        if not np.isfinite(arr).all():
            raise InputError("weights have non-finite entries")
        if (arr < 0.0).any():
            raise InputError("weights must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise InputError("weights must sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "t", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexWeights is immutable")

    def __len__(self) -> int:
        return self.t.size

    def __repr__(self) -> str:
        return f"SimplexWeights({self.t.tolist()!r})"


def make_weights(raw) -> SimplexWeights:
    """Clamp tiny negative round-off and renormalize, then validate."""
    arr = np.asarray(raw, dtype=float).copy()
    arr[arr < 0.0] = 0.0
    total = float(arr.sum())
    if total <= 0.0:
        raise InputError("weights must have positive total")
    return SimplexWeights(arr / total)


@dataclass(frozen=True, eq=False)
class Certified:
    weights: SimplexWeights
    lambda_min: float


@dataclass(frozen=True, eq=False)
class Refuted:
    witness: np.ndarray
    form_values: np.ndarray


@dataclass(frozen=True, eq=False)
class HypothesisViolated:
    reason: str
    rank: int | None = None
    witness: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of a certificate search plus diagnostic residuals."""

    outcome: Certified | Refuted | HypothesisViolated
    residuals: dict

    @property
    def certified(self) -> bool:
        return isinstance(self.outcome, Certified)

    @property
    def refuted(self) -> bool:
        return isinstance(self.outcome, Refuted)

    @property
    def hypothesis_violated(self) -> bool:
        return isinstance(self.outcome, HypothesisViolated)


def restricted_forms(syms, cone: FirstOrderCone, tol: float) -> tuple[list[np.ndarray], float]:
    """The forms restricted to the cone span, and the threshold -tol*(1 + largest
    restricted entry) every verdict clears. An empty span gives ([], 0)."""
    basis = span_basis(cone)
    if basis.shape[1] == 0:
        return [], 0.0
    restricted = [restrict(s, basis).entries for s in syms]
    return restricted, -tol * (1.0 + max(norm_max(r) for r in restricted))


def certificate_value(restricted: list[np.ndarray], weights) -> float:
    """lambda_min of the weighted restriction sum_i w_i*R_i (0 on an empty span)."""
    combined = sum(w * r for w, r in zip(weights, restricted))
    return min_eigenvalue(SymMatrix(combined)) if restricted else 0.0


def witness_check(syms, cone: FirstOrderCone, x, threshold: float) -> tuple[bool, np.ndarray]:
    """Whether x lies in the cone (at 1e-8) with every form value x'A_i x,
    also returned, below the threshold."""
    values = np.array([quad_form(s, x) for s in syms])
    return cone_contains(cone, x, 1e-8) and bool((values < threshold).all()), values


def _into_cone(x: np.ndarray, cone: FirstOrderCone) -> np.ndarray:
    """Flip the sign so the ray coordinate is nonnegative (forms are even)."""
    if cone.ray is not None and float(cone.ray @ x) < 0.0:
        return -x
    return x


def _pencil_max(ar: np.ndarray, br: np.ndarray) -> tuple[float, float, np.ndarray]:
    """t*, lambda(t*) and a witness direction for lambda(t) = lambda_min(t*A + (1-t)*B).

    lambda is concave and g(t) = v1'(A-B)v1, for a bottom eigenvector v1,
    is a supergradient, so the sign of g tells on which side of t the
    maximum lies. g(0) <= 0 puts it at 0 and g(1) >= 0 at 1, with that
    endpoint's v1 as the witness. Otherwise [0, 1] is halved on the sign
    of g until it is no wider than ulp(1), the float resolution of t there,
    and the best t evaluated is kept. Its witness is the unit x with
    x'(A-B)x = 0 nearest v1 in span(v1, vj) for the first later eigenvector
    vj that admits one, or v1 when none does: there x'Ax = x'Bx =
    x'(tA + (1-t)B)x, close to lambda(t).
    """
    diff = ar - br

    def at(t: float):
        spec = sym_eigen(SymMatrix(t * ar + (1.0 - t) * br))
        v1 = spec.basis[:, 0]
        return float(spec.eigenvalues[0]), float(v1 @ diff @ v1), spec

    lam0, g, spec0 = at(0.0)
    if g <= 0.0:
        return 0.0, lam0, spec0.basis[:, 0]
    lam1, g, spec1 = at(1.0)
    if g >= 0.0:
        return 1.0, lam1, spec1.basis[:, 0]
    # g = a - b is constant at order 1, so from here on the order is >= 2
    best_lam, best_t, spec = max((lam0, 0.0, spec0), (lam1, 1.0, spec1), key=lambda e: e[0])
    lo, hi = 0.0, 1.0
    while hi - lo > math.ulp(1.0):
        mid = 0.5 * (lo + hi)
        lam, g, mid_spec = at(mid)
        if lam > best_lam:
            best_lam, best_t, spec = lam, mid, mid_spec
        if g == 0.0:
            break
        lo, hi = (mid, hi) if g > 0.0 else (lo, mid)
    # x = v1 + tau*vj with p + 2q*tau + r*tau^2 = 0; the small root
    # tau = -p / (q + sign(q)*sqrt(q^2 - p*r)) loses no digits to cancellation,
    # and q^2 - p*r >= 0 holds for any vj with r of the sign opposite to p
    forms = spec.basis.T @ diff @ spec.basis
    p, q, r = float(forms[0, 0]), forms[0, 1:], np.diag(forms)[1:]
    disc = q * q - p * r
    real = np.flatnonzero(disc >= 0.0)
    v1 = spec.basis[:, 0]
    if p == 0.0 or real.size == 0:
        return best_t, best_lam, v1
    j = int(real[0])
    den = float(q[j]) + math.copysign(math.sqrt(float(disc[j])), float(q[j]))
    return best_t, best_lam, (den * v1 - p * spec.basis[:, j + 1]) / math.hypot(den, p)


def yuan_two(
    a: SymMatrix,
    b: SymMatrix,
    cone: FirstOrderCone,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """Two-matrix certificate: a PSD pencil point or a double-negative witness.

    Maximizes lambda(t) = lambda_min(t*A + (1-t)*B), restricted to the cone
    span, by bisection on the sign of its supergradient v1'(A-B)v1 (see
    `_pencil_max`). Certifies when the best value found clears the
    `restricted_forms` threshold. Otherwise the witness of that search (v1
    at an endpoint maximum; at an interior one, the unit x in the span of
    v1 and a later eigenvector on which both forms equal
    x'(t*A + (1-t*)B)x) is mapped into the cone and re-checked by
    `witness_check`. A witness that fails it raises NumericalFailureError
    naming the largest form value and the margin, instead of reporting an
    unverified negative.
    """
    a, b = as_sym(a), as_sym(b)
    if a.order != b.order or a.order != cone.ambient_dim:
        raise InputError("matrices and cone must share one ambient dimension")
    restricted, threshold = restricted_forms((a, b), cone, tol)
    if not restricted:
        return CertificateReport(
            Certified(SimplexWeights([0.5, 0.5]), 0.0), {"span_dim": 0.0}
        )
    ar, br = restricted

    t_star, lam_star, witness = _pencil_max(ar, br)
    residuals = {"pencil_argmax": t_star, "pencil_max": lam_star}
    if lam_star >= threshold:
        return CertificateReport(
            Certified(make_weights([t_star, 1.0 - t_star]), lam_star), residuals
        )

    x = _into_cone(span_basis(cone) @ witness, cone)
    ok, values = witness_check((a, b), cone, x, threshold)
    if not ok:
        worst = float(values.max())
        raise NumericalFailureError(
            f"yuan_two witness verification failed: largest form value {worst:.9e}"
            f" against threshold {threshold:.9e} (margin {worst - threshold:.3e})"
        )
    return CertificateReport(Refuted(x, values), residuals)


def _cross(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _plane_pass(top, syms, restricted, cone, tol: float, threshold: float) -> CertificateReport:
    """Weights or a witness for a rank <= 2 family from its basis coordinates.

    Zero combinations carry lambda_min 0; the caller re-verifies every
    certificate and transfers every witness to the whole family.
    """
    m = len(syms)
    w = np.zeros(m)
    sizes = [float(np.linalg.norm(r)) for r in restricted]
    zero = int(np.argmin(sizes))
    if top.rank == 0:
        w[:] = 1.0
    elif sizes[zero] <= -0.5 * threshold:
        w[zero] = 1.0  # its lambda_min is provably inside the threshold
    else:
        if top.rank == 2:
            pts = top.coefficients
        else:
            flats = np.stack([flatten_sym(s.entries) for s in syms])
            ref = flats[top.basis[0]]
            pts = np.column_stack([flats @ ref / float(ref @ ref), np.zeros(m)])
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
            rep = yuan_two(syms[i], syms[j], cone, tol=tol)
            if not rep.certified:
                return rep
            w[i] += rep.outcome.weights.t[0]
            w[j] += rep.outcome.weights.t[1]
            return CertificateReport(
                Certified(make_weights(w), rep.outcome.lambda_min), rep.residuals
            )
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
    return CertificateReport(Certified(make_weights(w), 0.0), {})


def certify_rank2(
    family: MatrixFamily,
    cone: FirstOrderCone,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """Certificate for a symmetric family of matrix-set rank at most 2.

    Every member is alpha_i*P + beta_i*Q for the basis pair of one
    `matrix_set_rank` call (on a line at rank 1), so the decision is one
    pass over the points (alpha_i, beta_i): a member that vanishes on the
    cone span takes unit weight; when no angular gap between the points
    exceeds pi, 0 lies in their conic hull and a zero combination of at
    most three members certifies; otherwise the hull is pointed, every
    member is a nonnegative combination of its two extreme rays, and
    yuan_two on that pair decides. Rank above 2 is reported as a
    hypothesis violation.
    """
    family = as_family(family)
    syms = family.sym_members()
    m = len(syms)
    if family.order != cone.ambient_dim:
        raise InputError("family and cone must share one ambient dimension")
    restricted, threshold = restricted_forms(syms, cone, tol)
    if not restricted:
        return CertificateReport(
            Certified(SimplexWeights(np.full(m, 1.0 / m)), 0.0), {"span_dim": 0.0}
        )

    top = matrix_set_rank(family, tol)
    if top.rank > 2:
        return CertificateReport(
            HypothesisViolated(f"matrix set rank {top.rank} exceeds 2", rank=top.rank),
            {},
        )
    diagnostics = {}
    if top.rank == 2 and top.coefficients is not None:
        worst = 0.0
        for mem, (al, be) in zip(family.members, top.coefficients):
            recon = al * family.members[top.basis[0]] + be * family.members[top.basis[1]]
            worst = max(worst, norm_max(mem - recon) / (1.0 + norm_max(mem)))
        diagnostics["basis_fit_residual"] = worst

    report = _plane_pass(top, syms, restricted, cone, tol, threshold)

    if report.certified:
        weights = report.outcome.weights
        lam = certificate_value(restricted, weights.t)
        if lam < threshold:
            raise NumericalFailureError(
                f"certificate failed verification (lambda_min {lam:.3e})"
            )
        residuals = dict(report.residuals, **diagnostics)
        residuals["combined_lambda_min"] = lam
        residuals["weight_sum_error"] = abs(float(weights.t.sum()) - 1.0)
        return CertificateReport(Certified(weights, lam), residuals)

    if report.refuted:
        x = report.outcome.witness
        ok, values = witness_check(syms, cone, x, threshold)
        if not ok:
            raise NumericalFailureError("witness did not transfer to the full family")
        residuals = dict(report.residuals, **diagnostics)
        residuals["worst_form_value"] = float(values.max())
        return CertificateReport(Refuted(x, values), residuals)

    return report
