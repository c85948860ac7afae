"""First-order cones: a subspace plus an optional ray.

Quadratic forms are even, so nonnegativity of a form on a first-order
cone is equivalent to nonnegativity on the cone's linear span. All
downstream checks therefore operate on the restriction of a matrix to an
orthonormal basis of that span; the ray is kept only for membership
queries and reporting.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .numeric_core import _gram_schmidt, _prescaled, norm_max

_RAY_ABSORB_TOL = 1e-8


class FirstOrderCone:
    """Direct sum of a subspace and an optional ray, stored orthonormally.

    The subspace basis has orthonormal columns; the ray direction is unit
    and orthogonal to the subspace. A ray whose component orthogonal to
    the subspace is smaller than 1e-8 is absorbed into the subspace. Norms
    are taken after an exact power-of-two scaling, so none overflows.
    """

    __slots__ = ("subspace", "ray")

    def __init__(self, ambient_dim: int, generators=(), ray=None) -> None:
        if ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        rows, limits = [], []
        for k, raw in enumerate(generators):
            v = np.asarray(raw, dtype=float)
            if v.ndim != 1 or v.size != ambient_dim:
                raise InputError(f"generator {k} must be a vector of length {ambient_dim}")
            if not np.isfinite(v).all():
                raise InputError(f"generator {k} has non-finite entries")
            (v,), _ = _prescaled(v[None])  # so its norm neither overflows nor underflows
            norm = float(np.linalg.norm(v))
            if norm > 0.0:  # a zero generator adds nothing
                rows.append(v)
                limits.append(1e-10 * norm)  # it joins when its residual exceeds this
        _, qs = _gram_schmidt(rows, limits, ambient_dim)
        sub = np.column_stack(qs) if qs else np.zeros((ambient_dim, 0))
        ray_dir = None
        if ray is not None:
            r = np.asarray(ray, dtype=float)
            if r.ndim != 1 or r.size != ambient_dim:
                raise InputError(f"ray must be a vector of length {ambient_dim}")
            if not np.isfinite(r).all():
                raise InputError("ray has non-finite entries")
            (r,), _ = _prescaled(r[None])
            nr = float(np.linalg.norm(r))
            if nr == 0.0:
                raise InputError("ray must be nonzero")
            r = r / nr
            for _ in range(2):
                r = r - sub @ (sub.T @ r)
            residual = float(np.linalg.norm(r))
            if residual >= _RAY_ABSORB_TOL:
                ray_dir = r / residual
                ray_dir.setflags(write=False)
            # else: the ray lies in the subspace and the cone equals it
        sub.setflags(write=False)
        object.__setattr__(self, "subspace", sub)
        object.__setattr__(self, "ray", ray_dir)

    def __setattr__(self, name, value):
        raise AttributeError("FirstOrderCone is immutable")

    @classmethod
    def full(cls, ambient_dim: int) -> "FirstOrderCone":
        # the identity is its own Gram-Schmidt basis, so it is stored as is
        cone = cls(ambient_dim)
        sub = np.eye(ambient_dim)
        sub.setflags(write=False)
        object.__setattr__(cone, "subspace", sub)
        return cone

    @property
    def ambient_dim(self) -> int:
        return self.subspace.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.subspace.shape[1]

    @property
    def span_dim(self) -> int:
        return self.subspace_dim + (0 if self.ray is None else 1)

    def __repr__(self) -> str:
        return (
            f"FirstOrderCone(ambient_dim={self.ambient_dim}, "
            f"subspace_dim={self.subspace_dim}, ray={'yes' if self.ray is not None else 'no'})"
        )


def span_basis(cone: FirstOrderCone) -> np.ndarray:
    """Orthonormal basis of subspace + ray span (n x k, possibly k = 0)."""
    if cone.ray is None:
        return np.array(cone.subspace)
    return np.column_stack([cone.subspace, cone.ray])


def restrict(forms: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The restrictions B^T A_i B of an (m, n, n) stack of symmetric forms to the
    span of orthonormal columns, as an (m, k, k) stack."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != forms.shape[-1]:
        raise InputError(f"basis must have {forms.shape[-1]} rows, got shape {basis.shape}")
    if basis.shape[1] == 0:
        raise InputError("basis must have at least one column")
    if norm_max(basis.T @ basis - np.eye(basis.shape[1])) > 1e-8:
        raise InputError("basis columns are not orthonormal")
    raw = basis.T @ forms @ basis
    return 0.5 * raw + 0.5 * np.swapaxes(raw, -1, -2)  # halved first, so no sum overflows


def cone_contains(cone: FirstOrderCone, x, tol: float = 1e-9) -> bool:
    """Membership test: residual off the span <= tol, ray coordinate >= -tol."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cone.ambient_dim:
        raise InputError(f"vector of length {cone.ambient_dim} expected")
    if not np.isfinite(x).all():
        raise InputError("vector has non-finite entries")
    r = x - cone.subspace @ (cone.subspace.T @ x)
    if cone.ray is not None:
        s = float(cone.ray @ r)
        r = r - s * cone.ray
        if s < -tol:
            return False
    return float(np.linalg.norm(r)) <= tol
