import numpy as np
import pytest

from conftest import family_one, family_two, random_rank2_family
from hull_reference import hull_psd_search
from yuancert import (
    FirstOrderCone,
    HypothesisViolatedError,
    MatrixFamily,
    NoWitnessFound,
    SymMatrix,
    Witness,
    cone_contains,
    min_eigenvalue,
    quad_form,
    sample_max_nonneg,
    simplex_grid_search,
)

FULL2 = FirstOrderCone.full(2)


class TestSampleMaxNonneg:
    def test_example_two_no_witness(self):
        verdict = sample_max_nonneg(family_two(), FULL2, samples=10_000, seed=0)
        assert isinstance(verdict, NoWitnessFound)

    def test_negative_identity_witness(self):
        verdict = sample_max_nonneg(MatrixFamily([-np.eye(2)]), FULL2, samples=100, seed=0)
        assert isinstance(verdict, Witness)
        assert verdict.form_values[0] == pytest.approx(-1.0, abs=1e-9)

    def test_example_two_pair_witness(self):
        fam = MatrixFamily(family_two().members[:2])
        verdict = sample_max_nonneg(fam, FULL2, samples=10_000, seed=0)
        assert isinstance(verdict, Witness)
        assert (verdict.form_values < 0).all()
        for mat, value in zip(fam.members, verdict.form_values):
            assert quad_form(SymMatrix(mat), verdict.x) == pytest.approx(value)

    def test_witness_lies_in_cone(self):
        cone = FirstOrderCone(2, [[1.0, 0.0]], ray=[0.0, 1.0])
        verdict = sample_max_nonneg(MatrixFamily([-np.eye(2)]), cone, samples=100, seed=3)
        assert isinstance(verdict, Witness)
        assert cone_contains(cone, verdict.x, 1e-8)

    def test_deterministic(self):
        fam = MatrixFamily(family_two().members[:2])
        v1 = sample_max_nonneg(fam, FULL2, samples=5000, seed=11)
        v2 = sample_max_nonneg(fam, FULL2, samples=5000, seed=11)
        np.testing.assert_array_equal(v1.x, v2.x)


class TestSimplexGridSearch:
    def test_example_two_resolution_three(self):
        weights, best = simplex_grid_search(family_two(), FULL2, 3)
        np.testing.assert_allclose(weights.t, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert best == pytest.approx(0.0, abs=1e-12)

    def test_identity_single(self):
        weights, best = simplex_grid_search(MatrixFamily([np.eye(2)]), FULL2, 5)
        np.testing.assert_allclose(weights.t, [1.0])
        assert best == pytest.approx(1.0)

    def test_example_one_resolution_ten(self):
        weights, best = simplex_grid_search(family_one(), FULL2, 10)
        assert best >= (1.4 - np.sqrt(1.8)) / 2 - 1e-12  # grid holds (0, 0.6, 0.4)
        combined = sum(w * m for w, m in zip(weights.t, family_one().members))
        assert min_eigenvalue(SymMatrix(combined)) == pytest.approx(best, abs=1e-9)

    def test_grid_is_exhaustive(self):
        weights, _ = simplex_grid_search(family_one(), FULL2, 4)
        np.testing.assert_allclose(weights.t * 4, np.round(weights.t * 4), atol=1e-12)


class TestHullPsdSearch:
    def test_example_one(self):
        weights, best = hull_psd_search(family_one(), FULL2)
        assert best > 0.0
        combined = sum(w * m for w, m in zip(weights.t, family_one().members))
        assert min_eigenvalue(SymMatrix(combined)) >= best - 1e-8

    def test_example_two_zero_point(self):
        _, best = hull_psd_search(family_two(), FULL2)
        assert best == pytest.approx(0.0, abs=1e-9)

    def test_opposite_pair_midpoint(self):
        a = np.diag([1.0, -1.0])
        weights, best = hull_psd_search(MatrixFamily([a, -a]), FULL2)
        assert best == pytest.approx(0.0, abs=1e-9)
        combined = sum(w * m for w, m in zip(weights.t, (a, -a)))
        assert np.abs(combined).max() <= 1e-8

    def test_rank_three_rejected(self):
        fam = MatrixFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                            np.array([[0.0, 1.0], [1.0, 0.0]])])
        with pytest.raises(HypothesisViolatedError):
            hull_psd_search(fam, FULL2)

    def test_agreement_with_grid_random(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            fam = random_rank2_family(rng, n, m)
            cone = FirstOrderCone.full(n)
            _, hull_best = hull_psd_search(fam, cone)
            _, grid_best = simplex_grid_search(fam, cone, 40)
            scale = 1.0 + max(np.abs(mem).max() for mem in fam.members)
            # the grid is a subset of the hull, so the hull can only do better
            assert hull_best >= grid_best - 1e-8 * scale
            # and a resolution-40 grid gets within O(1/40) of the optimum
            assert hull_best <= grid_best + 0.15 * scale
