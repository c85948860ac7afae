"""Independent brute-force verifiers for cross-checking certificates.

These are independent of the solver by algorithm: optimal weights come
from an exhaustive simplex grid, and witnesses from sphere sampling,
never from the pencil search or the conic-hull pass. Both sides take
eigenvalues from LAPACK through numpy.linalg. Disagreement with the
solver beyond tolerance is a bug, never something to vote over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cone import FirstOrderCone, cone_contains, restrict, span_basis
from .errors import InputError
from .numeric_core import DEFAULT_TOL, MatrixFamily, as_family, norm_max, quad_form
from .yuan import SimplexWeights


@dataclass(frozen=True, eq=False)
class Witness:
    x: np.ndarray
    form_values: np.ndarray


@dataclass(frozen=True, eq=False)
class NoWitnessFound:
    samples: int


def _restricted(family: MatrixFamily, cone: FirstOrderCone):
    syms = family.sym_members()
    basis = span_basis(cone)
    mats = [restrict(s, basis).entries for s in syms] if basis.shape[1] else []
    scale = 1.0 + (max(norm_max(r) for r in mats) if mats else 0.0)
    return syms, basis, mats, scale


def sample_max_nonneg(
    family: MatrixFamily,
    cone: FirstOrderCone,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Witness | NoWitnessFound:
    """Search the cone for a direction where every form is strictly negative.

    Unit vectors are drawn uniformly on the sphere of the span
    coordinates (deterministic per seed); evenness of quadratic forms
    means each draw also covers its negation, so only one of the pair is
    evaluated. A hit is re-verified by direct evaluation before return.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    family = as_family(family)
    syms, basis, mats, scale = _restricted(family, cone)
    k = basis.shape[1]
    if k == 0:
        return NoWitnessFound(0)
    threshold = -tol * scale
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        count = min(2048, samples - done)
        z = rng.standard_normal((count, k))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        z /= norms
        values = np.stack([np.einsum("ij,jk,ik->i", z, m, z) for m in mats])
        hits = np.flatnonzero(values.max(axis=0) < threshold)
        if hits.size:
            x = basis @ z[int(hits[0])]
            if cone.ray is not None and float(cone.ray @ x) < 0.0:
                x = -x
            forms = np.array([quad_form(s, x) for s in syms])
            if cone_contains(cone, x, 1e-8) and (forms < threshold).all():
                return Witness(x, forms)
        done += count
    return NoWitnessFound(samples)


def _lam_min_batch(mats: np.ndarray) -> np.ndarray:
    k = mats.shape[-1]
    if k == 1:
        return mats[:, 0, 0]
    if k == 2:
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        return 0.5 * (tr - disc)
    return np.linalg.eigvalsh(mats)[:, 0]


def simplex_grid_search(
    family: MatrixFamily,
    cone: FirstOrderCone,
    resolution: int,
) -> tuple[SimplexWeights, float]:
    """Exhaustive search over the weight grid with coordinates k/resolution."""
    if resolution < 1:
        raise InputError("resolution must be >= 1")
    family = as_family(family)
    m = len(family)
    _, basis, mats, _ = _restricted(family, cone)
    grid = _grid_weights(m, resolution)
    if basis.shape[1] == 0:
        return SimplexWeights(grid[0]), 0.0
    stack = np.stack(mats)
    best_val = -math.inf
    best_t = grid[0]
    for start in range(0, grid.shape[0], 65536):
        chunk = grid[start : start + 65536]
        combos = np.tensordot(chunk, stack, axes=(1, 0))
        vals = _lam_min_batch(combos)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_t = chunk[j]
    return SimplexWeights(best_t), best_val


def _grid_weights(m: int, resolution: int) -> np.ndarray:
    if m == 1:
        return np.ones((1, 1))
    combos = np.array(
        list(itertools.combinations(range(resolution + m - 1), m - 1)), dtype=int
    )
    bounds = np.hstack(
        [
            np.full((combos.shape[0], 1), -1),
            combos,
            np.full((combos.shape[0], 1), resolution + m - 1),
        ]
    )
    parts = np.diff(bounds, axis=1) - 1
    return parts / float(resolution)
