"""Independent brute-force verifiers for cross-checking certificates.

These are independent of the solver by search: optimal weights come
from an exhaustive simplex grid, and witnesses from sphere sampling,
never from the pencil search or the conic-hull pass. They share the
solver's acceptance rule: the restriction and threshold of
`restricted_forms`, and a hit re-checked by `witness_check`. The grid
search takes lambda_min in closed form on a cone span of dimension at
most 2 and from numpy.linalg.eigvalsh above it; the solver takes every
eigenvalue from LAPACK's eigh. Disagreement with the solver beyond
tolerance is a bug, never something to vote over.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import FirstOrderCone, span_basis
from .errors import InputError
from .numeric_core import DEFAULT_TOL, MatrixFamily
from .yuan import _into_cone, restricted_forms, witness_check


def sample_max_nonneg(
    family: MatrixFamily,
    cone: FirstOrderCone,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Search the cone for a direction where every form is strictly negative.

    Unit vectors are drawn uniformly on the sphere of the span
    coordinates (deterministic per seed); evenness of quadratic forms
    means each draw also covers its negation, so only one of the pair is
    evaluated. A hit is re-verified by direct evaluation and returned as a
    refuted verdict record with its `witness` and `form_values`; no hit is
    a certified one carrying the number of `samples` drawn.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    mats, threshold = restricted_forms(family, cone, tol)
    if not mats.size:
        return {"verdict": "certified", "samples": 0}
    basis = span_basis(cone)
    k = basis.shape[1]
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
            x = _into_cone(basis @ z[int(hits[0])], cone)
            ok, forms = witness_check(family.members, cone, x, threshold)
            if ok:
                return {"verdict": "refuted", "witness": x, "form_values": forms}
        done += count
    return {"verdict": "certified", "samples": samples}


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
) -> tuple[np.ndarray, float]:
    """Exhaustive search over the weight grid with coordinates k/resolution: the
    best weights found and their lambda_min."""
    if resolution < 1:
        raise InputError("resolution must be >= 1")
    mats, _ = restricted_forms(family, cone, DEFAULT_TOL)
    grid = _grid_weights(len(family), resolution)
    if not mats.size:
        return grid[0], 0.0
    best_val = -math.inf
    best_t = grid[0]
    for start in range(0, grid.shape[0], 65536):
        chunk = grid[start : start + 65536]
        combos = np.tensordot(chunk, mats, axes=(1, 0))
        vals = _lam_min_batch(combos)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_t = chunk[j]
    return best_t, best_val


def _grid_weights(m: int, resolution: int) -> np.ndarray:
    """Every weight vector with coordinates k/resolution, as rows in
    lexicographic order, built one coordinate at a time: each row branches
    into every value from 0 to what its coordinates so far leave over."""
    parts = np.zeros((1, 0), dtype=int)
    left = np.array([resolution])
    for _ in range(m - 1):
        counts = left + 1
        rows = np.repeat(np.arange(len(parts)), counts)
        value = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[rows], value])
        left = left[rows] - value
    return np.column_stack([parts, left]) / float(resolution)
