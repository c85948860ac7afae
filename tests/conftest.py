"""Shared fixtures: the two worked 2x2 families, random-family builders and
the instance and cone writers the file tests round-trip through."""

from __future__ import annotations

import numpy as np

from yuancert import FirstOrderCone, KKTData, MatrixFamily, QuadProblem, min_eigenvalue
from yuancert.instances import SCHEMA_VERSION
from yuancert.numeric_core import norm_max

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


def psd(m: np.ndarray, tol: float = 1e-9) -> bool:
    """PSD at the tests' threshold: lambda_min >= -tol * (1 + largest entry)
    for a symmetric array m."""
    return min_eigenvalue(m) >= -tol * (1.0 + norm_max(m))


def pencil_min(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """lambda_min(t*A + (1-t)*B), the concave profile `yuan_two` maximizes."""
    return min_eigenvalue(t * a + (1.0 - t) * b)


def random_sym(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((n, n)) * scale
    return 0.5 * (raw + raw.T)


def random_rank2_family(rng: np.random.Generator, n: int, m: int) -> MatrixFamily:
    """Random members of the span of two random symmetric matrices."""
    b1 = random_sym(rng, n)
    b2 = random_sym(rng, n)
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
    base = random_sym(rng, n)
    direction = random_sym(rng, n)
    members = [base + float(s) * direction for s in rng.standard_normal(m)]
    return MatrixFamily(members)


def dependent_row_sets(rng: np.random.Generator, count: int, max_rows: int = 8,
                       max_dim: int = 6) -> list[np.ndarray]:
    """Seeded row sets for the Gram-Schmidt references.

    Besides generic rows, a row may be zero, exactly dependent on earlier
    rows (a power-of-2 multiple of one, or, in the sets of integer rows, an
    integer combination), or within 1e-12 of a multiple of one. Sets may
    have more rows than columns.
    """
    sets = []
    for k in range(count):
        m, d = int(rng.integers(1, max_rows + 1)), int(rng.integers(1, max_dim + 1))
        integer = k % 2 == 1
        if integer:
            rows = rng.integers(-3, 4, (m, d)).astype(float)
        else:
            rows = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0, (m, 1))
        for i in range(m):
            kind = int(rng.integers(5)) if i else int(rng.integers(2))
            if kind == 1:
                rows[i] = 0.0
            elif kind == 2:
                rows[i] = 2.0 ** int(rng.integers(-3, 4)) * rows[rng.integers(i)]
            elif kind == 3 and integer:
                rows[i] = rng.integers(-2, 3, i).astype(float) @ rows[:i]
            elif kind == 4:
                rows[i] = rows[rng.integers(i)] + 1e-12 * rng.standard_normal(d)
        sets.append(rows)
    return sets


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


def to_kkt(prob: QuadProblem) -> KKTData:
    """KKT data of the epigraph problem of `prob` (ray constant -1) at the origin.

    Variables (x, z) with objective gradient (0, 1); every constraint is
    active with gradient (0, -1) and Hessian blockdiag(A_i, 0). The `soc`
    route on this data must agree with `quad_certificate` on `prob`.
    """
    n, m = prob.n, prob.m
    grad_f = np.zeros(n + 1)
    grad_f[n] = 1.0
    grad_g = np.zeros((m, n + 1))
    grad_g[:, n] = -1.0
    hess_g = np.zeros((m, n + 1, n + 1))
    hess_g[:, :n, :n] = prob.matrices.members
    return KKTData(grad_f=grad_f, hess_f=np.zeros((n + 1, n + 1)), grad_g=grad_g,
                   hess_g=hess_g, g_values=np.zeros(m))


def serialize_instance(instance: MatrixFamily | KKTData | QuadProblem) -> dict:
    """The instance document that parses back to `instance`."""
    if isinstance(instance, MatrixFamily):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "family",
            "matrices": [mat.tolist() for mat in instance.members],
        }
    if isinstance(instance, QuadProblem):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "quadprob",
            "matrices": [mat.tolist() for mat in instance.matrices.members],
            "ray_constant": instance.ray_constant,
        }
    data = instance
    out = {
        "schema_version": SCHEMA_VERSION,
        "kind": "kkt",
        "grad_f": data.grad_f.tolist(),
        "hess_f": data.hessians[0].tolist(),
        "grad_h": data.grad_h.tolist(),
        "hess_h": data.hessians[1:1 + data.p1].tolist(),
        "grad_g": data.grad_g.tolist(),
        "hess_g": data.hessians[1 + data.p1:].tolist(),
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


def g300_families() -> list[list[np.ndarray]]:
    """G300: 300 seeded families of 2 to 5 members in the span of two random
    symmetric matrices P and Q, of order 2 to 5."""
    rng = np.random.default_rng(7)
    families = []
    for _ in range(300):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        s = rng.standard_normal((n, n))
        p = (s + s.T) / 2.0
        s = rng.standard_normal((n, n))
        q = (s + s.T) / 2.0
        families.append([rng.standard_normal() * p + rng.standard_normal() * q
                         for _ in range(m)])
    return families
