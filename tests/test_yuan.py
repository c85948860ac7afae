import math
import sys

import numpy as np
import pytest

from conftest import (
    EX1_A2,
    EX1_A3,
    EX2_A1,
    EX2_A2,
    EX2_A3,
    NEAR_PARALLEL,
    NP_D,
    family_one,
    family_two,
    random_rank2_family,
    random_sym,
)
from yuancert import (
    Certified,
    FirstOrderCone,
    HypothesisViolated,
    InputError,
    MatrixFamily,
    Refuted,
    SimplexWeights,
    SymMatrix,
    certify_rank2,
    cone_contains,
    lambda_min_profile,
    min_eigenvalue,
    quad_form,
    restrict,
    sample_max_nonneg,
    span_basis,
    yuan_two,
)

LAM_LO = (1.4 - math.sqrt(1.8)) / 2.0
FULL2 = FirstOrderCone.full(2)


class TestSimplexWeights:
    def test_valid(self):
        w = SimplexWeights([0.25, 0.75])
        assert w.t.sum() == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            SimplexWeights([-0.1, 1.1])

    def test_sum_off_rejected(self):
        with pytest.raises(InputError):
            SimplexWeights([0.25, 0.70])


class TestLambdaMinProfile:
    def test_opposite_pair_midpoint(self):
        a = random_sym(np.random.default_rng(0), 3)
        b = SymMatrix(-a.entries)
        assert lambda_min_profile(a, b, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_pencil(self):
        a = SymMatrix(np.eye(2))
        b = SymMatrix(-np.eye(2))
        for t in (0.0, 0.25, 0.5, 1.0):
            assert lambda_min_profile(a, b, t) == pytest.approx(2 * t - 1, abs=1e-12)

    def test_derived_point(self):
        val = lambda_min_profile(SymMatrix(EX1_A2), SymMatrix(EX1_A3), 0.6)
        assert val == pytest.approx(LAM_LO, abs=1e-9)

    def test_t_out_of_range(self):
        with pytest.raises(InputError):
            lambda_min_profile(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)), 1.5)

    def test_midpoint_concavity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            scale = 1.0 + max(a.norm_max(), b.norm_max())
            t1, t2 = sorted(rng.uniform(0, 1, size=2))
            mid = lambda_min_profile(a, b, 0.5 * (t1 + t2))
            avg = 0.5 * (lambda_min_profile(a, b, t1) + lambda_min_profile(a, b, t2))
            assert mid >= avg - 1e-10 * scale


class TestYuanTwo:
    def test_opposite_pair(self):
        a = SymMatrix(np.diag([1.0, -1.0]))
        b = SymMatrix(np.diag([-1.0, 1.0]))
        report = yuan_two(a, b, FULL2)
        out = report.outcome
        assert isinstance(out, Certified)
        assert out.weights.t[0] == pytest.approx(0.5, abs=1e-9)
        assert out.lambda_min == pytest.approx(0.0, abs=1e-9)

    def test_identity_always_certifies(self):
        for other in (np.diag([-3.0, -3.0]), np.diag([5.0, 1.0]), EX2_A2):
            report = yuan_two(SymMatrix(np.eye(2)), SymMatrix(other), FULL2)
            assert isinstance(report.outcome, Certified)
            t = report.outcome.weights.t
            combined = t[0] * np.eye(2) + t[1] * np.asarray(other, float)
            assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())

    @pytest.mark.parametrize("pair", [(EX2_A1, EX2_A2), (EX2_A1, EX2_A3), (EX2_A2, EX2_A3)])
    def test_example_two_pairs_refuted(self, pair):
        a, b = SymMatrix(pair[0]), SymMatrix(pair[1])
        report = yuan_two(a, b, FULL2)
        out = report.outcome
        assert isinstance(out, Refuted)
        assert quad_form(a, out.witness) < -1e-6
        assert quad_form(b, out.witness) < -1e-6

    def test_cone_restricted(self):
        # indefinite on the plane, positive along the kept axis
        a = SymMatrix(np.diag([-1.0, 1.0]))
        b = SymMatrix(np.diag([-2.0, 3.0]))
        cone = FirstOrderCone(2, [[0.0, 1.0]])
        report = yuan_two(a, b, cone)
        assert isinstance(report.outcome, Certified)

    def test_zero_cone(self):
        cone = FirstOrderCone(2, ())
        report = yuan_two(SymMatrix(-np.eye(2)), SymMatrix(-np.eye(2)), cone)
        assert isinstance(report.outcome, Certified)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            yuan_two(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)), FULL2)


class TestCertifyRank2:
    def test_example_one(self):
        report = certify_rank2(family_one(), FULL2)
        out = report.outcome
        assert isinstance(out, Certified)
        # the solver's own weights validate
        combined = sum(w * m for w, m in zip(out.weights.t, family_one().members))
        assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())
        # so do the reference weights (0, 3/5, 2/5)
        ref = 0.6 * EX1_A2 + 0.4 * EX1_A3
        np.testing.assert_allclose(ref, [[0.4, -0.6], [-0.6, 1.0]], atol=1e-12)
        assert min_eigenvalue(SymMatrix(ref)) == pytest.approx(LAM_LO, abs=1e-9)

    def test_example_two_uniform(self):
        report = certify_rank2(family_two(), FULL2)
        out = report.outcome
        assert isinstance(out, Certified)
        np.testing.assert_allclose(out.weights.t, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
        assert out.lambda_min == pytest.approx(0.0, abs=1e-12)

    def test_scaled_line_family(self):
        a = np.diag([1.0, -1.0])
        report = certify_rank2(MatrixFamily([a, 2 * a, -a]), FULL2)
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, (a, 2 * a, -a)))
        assert np.abs(combined).max() <= 1e-12

    def test_rank_three_violation(self):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = certify_rank2(MatrixFamily([e11, e22, e12]), FULL2)
        out = report.outcome
        assert isinstance(out, HypothesisViolated)
        assert out.rank == 3

    def test_all_zero_family(self):
        report = certify_rank2(MatrixFamily([np.zeros((2, 2))] * 3), FULL2)
        out = report.outcome
        assert isinstance(out, Certified)
        np.testing.assert_allclose(out.weights.t, [1 / 3] * 3)

    def test_single_member_psd(self):
        report = certify_rank2(MatrixFamily([np.eye(2)]), FULL2)
        assert isinstance(report.outcome, Certified)

    def test_single_member_refuted(self):
        report = certify_rank2(MatrixFamily([-np.eye(2)]), FULL2)
        out = report.outcome
        assert isinstance(out, Refuted)
        assert (out.form_values < -0.5).all()

    def test_asymmetric_member_rejected(self):
        with pytest.raises(InputError):
            certify_rank2(MatrixFamily([np.array([[0.0, 1.0], [0.0, 0.0]])]), FULL2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        fam = family_one()
        for _ in range(6):
            perm = rng.permutation(3)
            shuffled = MatrixFamily([fam.members[i] for i in perm])
            report = certify_rank2(shuffled, FULL2)
            out = report.outcome
            assert isinstance(out, Certified)
            # weights mapped back to the original order remain a certificate
            back = np.zeros(3)
            back[perm] = out.weights.t
            combined = sum(w * m for w, m in zip(back, fam.members))
            assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())

    def test_certified_soundness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            fam = random_rank2_family(rng, n, m)
            cone = FirstOrderCone.full(n)
            report = certify_rank2(fam, cone)
            scale = 1.0 + max(np.abs(mem).max() for mem in fam.members)
            if isinstance(report.outcome, Certified):
                combined = sum(w * mem for w, mem in zip(report.outcome.weights.t, fam.members))
                assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * scale
            else:
                assert isinstance(report.outcome, Refuted)
                witness = report.outcome.witness
                assert cone_contains(cone, witness, 1e-8)
                for mem in fam.members:
                    assert quad_form(SymMatrix(mem), witness) < -1e-9 * scale

    def test_oracle_agreement_sampled(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            fam = random_rank2_family(rng, n, m)
            cone = FirstOrderCone.full(n)
            report = certify_rank2(fam, cone)
            verdict = sample_max_nonneg(fam, cone, samples=4000, seed=7)
            if isinstance(report.outcome, Certified):
                assert verdict.__class__.__name__ == "NoWitnessFound"

    def test_rank1_line_families(self):
        rng = np.random.default_rng(123)
        for trial in range(150):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            base = random_sym(rng, n).entries
            kind = trial % 4
            if kind == 0:
                base = base @ base.T + 1e-3 * np.eye(n)
            elif kind == 1:
                base = -(base @ base.T) - 1e-3 * np.eye(n)
            cs = rng.standard_normal(m) * (10.0 ** rng.integers(-2, 3))
            if kind == 3 and m >= 2:
                cs[0], cs[1] = abs(cs[0]), -abs(cs[1])
            fam = MatrixFamily([c * base for c in cs])
            cone = FirstOrderCone.full(n)
            report = certify_rank2(fam, cone)
            scale = 1.0 + max(np.abs(mem).max() for mem in fam.members)
            if isinstance(report.outcome, Certified):
                combined = sum(w * mem for w, mem in zip(report.outcome.weights.t, fam.members))
                assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * scale
            else:
                assert isinstance(report.outcome, Refuted)
                for mem in fam.members:
                    assert quad_form(SymMatrix(mem), report.outcome.witness) < -1e-9 * scale

    def test_ray_cone_witness_membership(self):
        rng = np.random.default_rng(8)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, n - 1))
            cone = FirstOrderCone(
                n, rng.standard_normal((k, n)) if k else (), ray=rng.standard_normal(n)
            )
            fam = random_rank2_family(rng, n, int(rng.integers(1, 5)))
            report = certify_rank2(fam, cone)
            if isinstance(report.outcome, Refuted):
                assert cone_contains(cone, report.outcome.witness, 1e-8)
                checked += 1
        assert checked >= 5

    def test_restricted_family_certificate(self):
        # blockdiag embedding certified on the coordinate subspace
        fam3 = []
        for mem in family_one().members:
            block = np.zeros((3, 3))
            block[:2, :2] = mem
            fam3.append(block)
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        report = certify_rank2(MatrixFamily(fam3), cone)
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, fam3))
        basis = span_basis(cone)
        assert min_eigenvalue(restrict(SymMatrix(combined), basis)) >= -1e-9

    def test_nearly_parallel_basis_pair(self):
        # normal equations on this basis pair lose the third member from the span
        fam = MatrixFamily(NEAR_PARALLEL)
        report = certify_rank2(fam, FirstOrderCone.full(3))
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, fam.members))
        assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())

    def test_long_pointed_family_without_recursion(self):
        # each member dropped by the case analysis must not cost a stack frame
        rng = np.random.default_rng(7)
        members = [a * np.eye(3) + b * NP_D for a, b in zip(rng.uniform(0.1, 1.0, 150),
                                                         rng.uniform(-1.0, 1.0, 150))]
        fam = MatrixFamily(members)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            report = certify_rank2(fam, FirstOrderCone.full(3))
        finally:
            sys.setrecursionlimit(limit)
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, members))
        assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())
