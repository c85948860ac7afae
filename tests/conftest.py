"""Shared fixtures: the two worked 2x2 families and random-family builders."""

from __future__ import annotations

import numpy as np

from yuancert import FirstOrderCone, MatrixFamily, SymMatrix

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
