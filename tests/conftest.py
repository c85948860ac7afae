"""Shared fixtures: the two worked 2x2 families, random-family builders and
the instance and cone writers the file tests round-trip through."""

from __future__ import annotations

import numpy as np

from yuancert import FirstOrderCone, KKTData, MatrixFamily, SymMatrix, min_eigenvalue
from yuancert.instances import SCHEMA_VERSION, FamilyInstance, QuadInstance

# Family one: A3 = 2*A1 - A2; max of the three forms is nonnegative everywhere
# and (0, 3/5, 2/5) is a PSD combination.
EX1_A1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
EX1_A2 = np.array([[-2.0, 1.0], [1.0, 1.0]])
EX1_A3 = np.array([[4.0, -3.0], [-3.0, 1.0]])

# Family two: A3 = -A1 - A2; the uniform combination is the zero matrix, yet
# every pair of forms goes jointly negative somewhere.
EX2_A1 = np.array([[-1.0, 0.0], [0.0, 1.0]])
EX2_A2 = np.array([[1.0, 2.0], [2.0, -2.0]])
EX2_A3 = np.array([[0.0, -2.0], [-2.0, 1.0]])

# Non-symmetric triple with set rank 3 whose Jacobian map keeps rank <= 2.
CX_A1 = np.array([[1.0, 0.0], [0.0, 0.0]])
CX_A2 = np.array([[1.0, 0.0], [0.0, 1.0]])
CX_A3 = np.array([[1.0, 0.0], [1.0, 0.0]])


# Exact rank-2 family whose first two members are nearly parallel (pair
# cosine 1 - 2.6e-9); the third member lies in their span.
NP_D = np.diag([1.0, -1.0, 0.5])
NEAR_PARALLEL = (np.eye(3) + 0.3 * NP_D, np.eye(3) + (0.3 + 1e-4) * NP_D, np.eye(3) - 0.9 * NP_D)


def family_one() -> MatrixFamily:
    return MatrixFamily([EX1_A1, EX1_A2, EX1_A3])


def family_two() -> MatrixFamily:
    return MatrixFamily([EX2_A1, EX2_A2, EX2_A3])


def counterexample_family() -> MatrixFamily:
    return MatrixFamily([CX_A1, CX_A2, CX_A3])


def full_cone(n: int) -> FirstOrderCone:
    return FirstOrderCone.full(n)


def psd(m: SymMatrix, tol: float = 1e-9) -> bool:
    """PSD at the tests' threshold: lambda_min >= -tol * (1 + largest entry)."""
    return min_eigenvalue(m) >= -tol * (1.0 + m.norm_max())


def pencil_min(a: SymMatrix, b: SymMatrix, t: float) -> float:
    """lambda_min(t*A + (1-t)*B), the concave profile `yuan_two` maximizes."""
    return min_eigenvalue(SymMatrix(t * a.entries + (1.0 - t) * b.entries))


def random_sym(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMatrix:
    raw = rng.standard_normal((n, n)) * scale
    return SymMatrix(0.5 * (raw + raw.T))


def random_rank2_family(rng: np.random.Generator, n: int, m: int) -> MatrixFamily:
    """Random members of the span of two random symmetric matrices."""
    b1 = random_sym(rng, n).entries
    b2 = random_sym(rng, n).entries
    members = []
    for _ in range(m):
        a, b = rng.standard_normal(2)
        members.append(a * b1 + b * b2)
    return MatrixFamily(members)


def random_collinear_family(rng: np.random.Generator, n: int, m: int) -> MatrixFamily:
    """Members on a line base + s*direction in matrix space.

    Every triple is affinely dependent, so the Jacobian of the induced
    quadratic problem keeps rank <= 2 everywhere.
    """
    base = random_sym(rng, n).entries
    direction = random_sym(rng, n).entries
    members = [base + float(s) * direction for s in rng.standard_normal(m)]
    return MatrixFamily(members)


def random_cone(rng: np.random.Generator, n: int, subspace_dim: int, with_ray: bool) -> FirstOrderCone:
    generators = rng.standard_normal((subspace_dim, n)) if subspace_dim else ()
    ray = rng.standard_normal(n) if with_ray else None
    return FirstOrderCone(n, generators, ray)


def degenerate_kkt_point(rng: np.random.Generator, n: int, p1: int, blocks, *,
                         zero_column: bool = False, repeat_column: bool = False,
                         sparse: bool = False, lone: bool = False, inactive: int = 0):
    """Seeded KKT data whose multiplier polytope has many, often degenerate, vertices.

    Each (dim, count) in `blocks` puts `count` active inequality gradients
    into its own `dim`-dimensional subspace, so column subsets that take
    more than `dim` members of one block are rank deficient. The p1
    equality gradients are independent and also reach into the block
    subspaces. grad_f is minus a combination with free equality
    multipliers and nonnegative inequality ones (a third of them zero
    when `sparse`, all but one per block when `lone`), so the multiplier
    set is nonempty; with `lone`, rank-deficient subsets also solve the
    stationarity system, so only the rank test rejects them. `zero_column`
    zeroes one inequality gradient, `repeat_column` copies one onto
    another, and `inactive` appends inactive inequalities. Every Hessian
    is zero: only the stationarity system matters here.
    """
    dims = [dim for dim, _ in blocks]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    grad_h = (q[:, :p1] @ (rng.standard_normal((p1, p1)) + 3.0 * np.eye(p1))
              + q[:, p1:p1 + sum(dims)] @ rng.standard_normal((sum(dims), p1))).T
    cols, start = [], p1
    for dim, count in blocks:
        coef = rng.standard_normal((dim, count)) * rng.uniform(0.5, 2.0, count)
        cols.append(q[:, start:start + dim] @ coef)
        start += dim
    grad_g = np.hstack(cols).T if cols else np.zeros((0, n))
    na = grad_g.shape[0]
    if repeat_column and na >= 2:
        i, j = rng.choice(na, 2, replace=False)
        grad_g[j] = grad_g[i]
    if zero_column and na:
        grad_g[int(rng.integers(na))] = 0.0
    mu = rng.uniform(0.2, 1.5, na)
    if sparse:
        mu[rng.permutation(na)[: na // 3]] = 0.0
    if lone:
        counts = [count for _, count in blocks]
        keep = np.cumsum([0] + counts[:-1]) + rng.integers(counts)
        mu[np.setdiff1d(np.arange(na), keep)] = 0.0
    grad_f = -(grad_h.T @ rng.standard_normal(p1) + grad_g.T @ mu)
    extra = rng.standard_normal((inactive, n))
    order = rng.permutation(na + inactive)
    rows = np.vstack([grad_g, extra])[order]
    g_values = np.concatenate([np.zeros(na), -rng.uniform(0.5, 1.0, inactive)])[order]
    zero = np.zeros((n, n))
    return KKTData(grad_f=grad_f, hess_f=zero, grad_h=grad_h, hess_h=[zero] * p1,
                   grad_g=rows, hess_g=[zero] * (na + inactive), g_values=g_values)


def serialize_instance(instance) -> dict:
    """The instance document that parses back to `instance`."""
    if isinstance(instance, FamilyInstance):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "family",
            "matrices": [mat.tolist() for mat in instance.matrices.members],
        }
    if isinstance(instance, QuadInstance):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "quadprob",
            "matrices": [mat.tolist() for mat in instance.problem.matrices.members],
            "ray_constant": instance.problem.ray_constant,
        }
    data = instance.data
    out = {
        "schema_version": SCHEMA_VERSION,
        "kind": "kkt",
        "grad_f": data.grad_f.tolist(),
        "hess_f": data.hess_f.entries.tolist(),
        "grad_h": data.grad_h.tolist(),
        "hess_h": [h.entries.tolist() for h in data.hess_h],
        "grad_g": data.grad_g.tolist(),
        "hess_g": [h.entries.tolist() for h in data.hess_g],
        "active": list(data.active),
    }
    if data.g_values is not None:
        out["g_values"] = data.g_values.tolist()
    return out


def serialize_cone(cone: FirstOrderCone) -> dict:
    """The cone document that parses back to `cone`."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cone",
        "ambient_dim": cone.ambient_dim,
        "subspace": cone.subspace.T.tolist(),
        "ray": None if cone.ray is None else cone.ray.tolist(),
    }
