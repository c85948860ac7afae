import math

import numpy as np
import pytest

from conftest import dependent_row_sets, psd, random_cone, random_sym
from yuancert import (
    FirstOrderCone,
    InputError,
    MatrixFamily,
    cone_contains,
    restrict,
    span_basis,
)
from yuancert.numeric_core import norm_max


def reference_orthonormalize(vectors, ambient_dim: int) -> np.ndarray:
    """Reference: the cone's own Gram-Schmidt loop before the shared kernel.
    Modified Gram-Schmidt with re-orthogonalization; drops dependents."""
    basis: list[np.ndarray] = []
    for raw in vectors:
        v = np.asarray(raw, dtype=float)
        original = float(np.linalg.norm(v))
        if original == 0.0:
            continue
        v = v.copy()
        for _ in range(2):
            for q in basis:
                v -= (v @ q) * q
        nv = float(np.linalg.norm(v))
        if nv > 1e-10 * original:
            basis.append(v / nv)
    if basis:
        return np.column_stack(basis)
    return np.zeros((ambient_dim, 0))


class TestFirstOrderCone:
    def test_full_space(self):
        cone = FirstOrderCone.full(2)
        np.testing.assert_allclose(span_basis(cone), np.eye(2))
        assert cone.ray is None

    def test_full_space_is_the_orthonormalized_identity(self):
        # full() stores the identity without running Gram-Schmidt over it;
        # the basis must be the one the generic constructor builds, bit for bit
        for n in range(1, 13):
            full, generic = FirstOrderCone.full(n), FirstOrderCone(n, np.eye(n))
            assert full.subspace.tobytes() == generic.subspace.tobytes()
            assert full.subspace.shape == generic.subspace.shape
            assert not full.subspace.flags.writeable and full.ray is None

    def test_ray_only(self):
        cone = FirstOrderCone(2, (), ray=[1.0, 0.0])
        basis = span_basis(cone)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_ray_orthogonalized_against_subspace(self):
        # span(e1) + ray((e1+e2)/sqrt(2)) in R^3 spans {e1, e2}
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0]], ray=[1.0, 1.0, 0.0] / np.sqrt(2.0))
        basis = span_basis(cone)
        assert basis.shape == (3, 2)
        proj = basis @ basis.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_ray_absorbed_when_in_subspace(self):
        cone = FirstOrderCone(2, np.eye(2), ray=[0.3, -0.4])
        assert cone.ray is None
        assert cone.span_dim == 2

    def test_dependent_generators_dropped(self):
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert cone.subspace_dim == 1

    def test_orthonormal_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n))
            cone = random_cone(rng, n, k, with_ray=True)
            v = cone.subspace
            if v.shape[1]:
                assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-10
            if cone.ray is not None:
                assert np.linalg.norm(cone.ray) == pytest.approx(1.0, abs=1e-10)
                if v.shape[1]:
                    assert np.abs(v.T @ cone.ray).max() <= 1e-10

    def test_subspace_matches_the_reference_bitwise(self):
        rng = np.random.default_rng(25)
        dropped = capped = 0
        for rows in dependent_row_sets(rng, 600):
            n = rows.shape[1]
            want = reference_orthonormalize(rows, n)
            got = FirstOrderCone(n, rows).subspace
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            dropped += want.shape[1] < len(rows)
            capped += want.shape[1] == n < len(rows)
        assert dropped > 300 and capped > 50

    def test_generator_of_underflowing_norm_dropped_as_zero(self):
        # the norm of the second generator underflows to 0, but its residual
        # after the first one does not; it adds nothing, as a zero generator
        gens = [[1.0, 1.0, 1.0, -1.0], [1.5e-162] * 4]
        subspace = FirstOrderCone(4, gens).subspace
        assert subspace.shape == (4, 1)
        assert subspace.tobytes() == reference_orthonormalize(gens, 4).tobytes()

    def test_zero_ray_rejected(self):
        with pytest.raises(InputError):
            FirstOrderCone(2, (), ray=[0.0, 0.0])


class TestRestrict:
    def test_identity_basis(self):
        m = random_sym(np.random.default_rng(1), 3)
        np.testing.assert_allclose(restrict(m[None], np.eye(3)), [m])

    def test_block_embedding(self):
        # restricting blockdiag(A, 0) to the first coordinates recovers A
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        block = np.zeros((3, 3))
        block[:2, :2] = a
        basis = np.eye(3)[:, :2]
        np.testing.assert_allclose(restrict(block[None], basis), [a])

    def test_scalar_restriction(self):
        basis = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(restrict(np.diag([-1.0, 1.0])[None], basis), [[[1.0]]])

    def test_stack_matches_each_member_bitwise(self):
        rng = np.random.default_rng(3)
        members = MatrixFamily([random_sym(rng, 4) for _ in range(3)]).members
        basis = span_basis(FirstOrderCone(4, rng.standard_normal((2, 4)), ray=rng.standard_normal(4)))
        stacked = restrict(members, basis)
        assert stacked.shape == (3, 3, 3)
        for m, r in zip(members, stacked):
            assert np.array_equal(restrict(m[None], basis)[0], r)

    def test_stack_of_another_order_rejected(self):
        with pytest.raises(InputError, match="basis must have 2 rows"):
            restrict(np.zeros((3, 2, 2)), np.eye(3))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InputError):
            restrict(np.eye(2)[None], np.array([[1.0], [1.0]]))

    def test_psd_verdict_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = random_sym(rng, n)[None]
            k = int(rng.integers(1, n + 1))
            cone = random_cone(rng, n, k, with_ray=False)
            basis = span_basis(cone)
            if basis.shape[1] < 1:
                continue
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.eye(basis.shape[1])
            if basis.shape[1] >= 2:
                rot[:2, :2] = [[math.cos(theta), -math.sin(theta)],
                               [math.sin(theta), math.cos(theta)]]
            assert psd(restrict(m, basis)[0]) == psd(restrict(m, basis @ rot)[0])


class TestConeContains:
    def test_full_space_contains_everything(self):
        cone = FirstOrderCone.full(3)
        assert cone_contains(cone, [5.0, -2.0, 0.1])

    def test_ray_sign(self):
        cone = FirstOrderCone(2, (), ray=[1.0, 0.0])
        assert cone_contains(cone, [1.0, 0.0])
        assert not cone_contains(cone, [-1.0, 0.0])

    def test_subspace_plus_ray_coordinates(self):
        cone = FirstOrderCone(2, [[1.0, 0.0]], ray=[0.0, 1.0])
        assert cone_contains(cone, [5.0, 3.0])
        assert not cone_contains(cone, [5.0, -3.0])

    def test_off_span_rejected(self):
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0]])
        assert not cone_contains(cone, [1.0, 0.0, 0.5])


class TestSpanReduction:
    def test_negative_direction_on_cone_matches_restriction(self):
        # min of the form over sampled unit cone points goes negative exactly
        # when the restricted matrix is not PSD
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n - 1))
            cone = random_cone(rng, n, k, with_ray=True)
            basis = span_basis(cone)
            width = basis.shape[1]
            if width == 0:
                continue
            m = random_sym(rng, n)
            restricted_psd = psd(restrict(m[None], basis)[0])
            z = rng.standard_normal((1500, width))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            points = z @ basis.T
            sampled_min = min(x @ m @ x for x in points)
            scale = 1.0 + norm_max(m)
            if sampled_min < -1e-7 * scale:
                assert not restricted_psd
            if restricted_psd:
                assert sampled_min >= -1e-9 * scale
