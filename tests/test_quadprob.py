import itertools

import numpy as np
import pytest

from conftest import (
    counterexample_family,
    family_one,
    family_two,
    random_collinear_family,
    random_rank2_family,
    random_sym,
)
from yuancert import quadprob
from yuancert import (
    Certified,
    Delta,
    Equal,
    HypothesisViolated,
    InputError,
    JacobianRankReduction,
    JacobianRankViolation,
    MatrixFamily,
    NotDependent,
    QuadProblem,
    Refuted,
    SymMatrix,
    check_mfcq,
    critical_cone_lineality,
    extract_dependence,
    jacobian_at,
    jacobian_rank_reduce,
    min_eigenvalue,
    multiplier_vertices,
    numerical_rank,
    quad_form,
    rank_increase_check,
    second_order_certificate,
    quad_certificate,
    sym_eigen,
    to_kkt,
)

E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])
E12 = np.array([[0.0, 1.0], [1.0, 0.0]])


def rank3_problem() -> QuadProblem:
    return QuadProblem(MatrixFamily([E11, E22, E12]))


def failing_triples(prob: QuadProblem) -> list[tuple[int, int, int]]:
    """Reference: every C(m,3) index triple put through extract_dependence."""
    syms = prob.matrices.sym_members()
    return [
        t for t in itertools.combinations(range(prob.m), 3)
        if isinstance(extract_dependence(syms[t[0]], syms[t[1]], syms[t[2]]), NotDependent)
    ]


def near_twin_family(rng, n: int, m: int) -> MatrixFamily:
    """Collinear family plus a copy of member 0 off by 1e-13 noise.

    Every triple is dependent at tol 1e-9, but the normalized differences
    A_i - A_0 can reach set rank 2, so a set-rank test on them would call
    the premise violated.
    """
    fam = random_collinear_family(rng, n, m - 1)
    twin = fam.members[0] + 1e-13 * random_sym(rng, n).entries
    return MatrixFamily(list(fam.members) + [twin])


def jittered_family(rng, n: int, m: int) -> MatrixFamily:
    """Collinear family with one member moved 1e-3 off the line."""
    members = list(random_collinear_family(rng, n, m).members)
    j = int(rng.integers(m))
    members[j] = members[j] + 1e-3 * random_sym(rng, n).entries
    return MatrixFamily(members)


def repeated_family(rng, n: int, m: int) -> MatrixFamily:
    """Members drawn with repetition from a pool of one to three matrices."""
    pool = [random_sym(rng, n).entries for _ in range(int(rng.integers(1, 4)))]
    return MatrixFamily([pool[int(rng.integers(len(pool)))] for _ in range(m)])


SCAN_FAMILIES = {
    "collinear": random_collinear_family,
    "repeated": repeated_family,
    "jittered": jittered_family,
    "planar": random_rank2_family,
    "near_twin": near_twin_family,
}


class TestQuadProblem:
    def test_zero_ray_constant_rejected(self):
        with pytest.raises(InputError):
            QuadProblem(family_one(), ray_constant=0.0)

    def test_asymmetric_rejected_by_pipeline(self):
        prob = QuadProblem(counterexample_family())
        with pytest.raises(InputError):
            quad_certificate(prob)
        with pytest.raises(InputError):
            to_kkt(prob)
        with pytest.raises(InputError):
            jacobian_rank_reduce(prob)


class TestJacobianAt:
    def test_at_origin_rank_one(self):
        prob = QuadProblem(family_one())
        jac = jacobian_at(prob, np.zeros(2))
        np.testing.assert_allclose(jac[:2], 0.0)
        np.testing.assert_allclose(jac[2], -1.0)
        assert numerical_rank(jac) == 1

    def test_counterexample_columns(self):
        prob = QuadProblem(counterexample_family(), ray_constant=1.0)
        jac = jacobian_at(prob, [1.0, 2.0])
        np.testing.assert_allclose(jac.T, [[1, 0, 1], [1, 2, 1], [1, 1, 1]])
        assert numerical_rank(jac) == 2

    def test_counterexample_rank_stays_low(self):
        # symmetry is essential: set rank 3 yet the Jacobian never exceeds 2
        prob = QuadProblem(counterexample_family(), ray_constant=1.0)
        result = rank_increase_check(prob)
        assert result.satisfied
        assert result.max_rank_observed == 2

    def test_single_member_null_direction(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = QuadProblem(MatrixFamily([a]))
        jac = jacobian_at(prob, [0.0, 5.0])  # a @ x = 0
        assert numerical_rank(jac) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            jacobian_at(QuadProblem(family_one()), [1.0, 2.0, 3.0])


class TestRankIncreaseCheck:
    def test_family_one_satisfied(self):
        result = rank_increase_check(QuadProblem(family_one()))
        assert result.rank_at_zero == 1
        assert result.max_rank_observed == 2
        assert result.satisfied

    def test_rank3_family_not_satisfied(self):
        result = rank_increase_check(rank3_problem())
        assert result.max_rank_observed == 3
        assert not result.satisfied

    def test_example_two_not_satisfied(self):
        # set rank is 2 but the members are not collinear, so the Jacobian
        # rank reaches 3 away from the origin
        result = rank_increase_check(QuadProblem(family_two()))
        assert result.max_rank_observed == 3
        assert not result.satisfied

    def test_deterministic_per_seed(self):
        prob = QuadProblem(family_one())
        r1 = rank_increase_check(prob, samples=200, seed=7)
        r2 = rank_increase_check(prob, samples=200, seed=7)
        assert r1.max_rank_observed == r2.max_rank_observed


class TestExtractDependence:
    def test_constructed_delta(self):
        rng = np.random.default_rng(0)
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        c = SymMatrix((a.entries + 2.0 * b.entries) / 3.0)
        result = extract_dependence(a, b, c)
        assert isinstance(result, Delta)
        assert result.delta == pytest.approx(2.0, rel=1e-10)

    def test_equal_branch(self):
        rng = np.random.default_rng(1)
        a, b = random_sym(rng, 3), random_sym(rng, 3)
        result = extract_dependence(a, b, b)
        assert isinstance(result, Equal)

    def test_not_dependent(self):
        result = extract_dependence(SymMatrix(E11), SymMatrix(E22), SymMatrix(np.zeros((2, 2))))
        assert isinstance(result, NotDependent)
        assert result.residual >= 1.0

    def test_delta_recovery_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            if rng.random() < 0.5:
                delta = 10.0 ** rng.uniform(-2, 3)
            else:
                delta = -(10.0 ** rng.uniform(-2, np.log10(0.99)))
            c = SymMatrix((a.entries + delta * b.entries) / (1.0 + delta))
            result = extract_dependence(a, b, c)
            assert isinstance(result, Delta)
            assert abs(result.delta - delta) <= 1e-8 * abs(delta)


class TestJacobianRankReduce:
    def test_repeated_member_rank_one(self):
        a = random_sym(np.random.default_rng(4), 3)
        prob = QuadProblem(MatrixFamily([a, a, a]))
        result = jacobian_rank_reduce(prob)
        assert isinstance(result, JacobianRankReduction)
        assert result.rank == 1

    def test_family_one_reduces(self):
        result = jacobian_rank_reduce(QuadProblem(family_one()))
        assert isinstance(result, JacobianRankReduction)
        assert result.rank == 2
        assert result.basis == (0, 1)

    def test_rank3_family_violated(self):
        result = jacobian_rank_reduce(rank3_problem())
        assert isinstance(result, JacobianRankViolation)
        prob = rank3_problem()
        assert numerical_rank(jacobian_at(prob, result.witness_x)) >= 3

    def test_example_two_violated(self):
        # the triple has no affine dependence (1*A1 + 1*A2 + 1*A3 = 0 has
        # coefficient sum 3), so the Jacobian rank reaches 3 somewhere even
        # though the matrix set rank is 2
        prob = QuadProblem(family_two())
        result = jacobian_rank_reduce(prob)
        assert isinstance(result, JacobianRankViolation)
        assert numerical_rank(jacobian_at(prob, result.witness_x)) == 3

    @pytest.mark.parametrize("kind", sorted(SCAN_FAMILIES))
    def test_scan_agrees_with_triple_loop(self, kind):
        rng = np.random.default_rng(sorted(SCAN_FAMILIES).index(kind))
        for m in range(1 if kind != "near_twin" else 2, 13):
            prob = QuadProblem(SCAN_FAMILIES[kind](rng, int(rng.integers(2, 7)), m))
            failing = failing_triples(prob)
            result = jacobian_rank_reduce(prob)
            if not failing:
                assert isinstance(result, JacobianRankReduction), (kind, m)
                assert result.rank <= 2
                continue
            assert isinstance(result, JacobianRankViolation), (kind, m)
            assert result.triple in failing
            assert numerical_rank(jacobian_at(prob, result.witness_x)) >= 3

    def test_scan_anchor_is_not_a_repeat_of_member_zero(self):
        prob = QuadProblem(MatrixFamily([E11, E11, E22, E12]))
        result = jacobian_rank_reduce(prob)
        assert isinstance(result, JacobianRankViolation)
        assert result.triple in failing_triples(prob)

    def test_scan_work_bound(self, monkeypatch):
        prob = QuadProblem(random_collinear_family(np.random.default_rng(8), 8, 40))
        calls = []

        dependence = quadprob._dependence

        def counted(*args, **kwargs):
            calls.append(args)
            return dependence(*args, **kwargs)

        monkeypatch.setattr(quadprob, "_dependence", counted)
        assert isinstance(jacobian_rank_reduce(prob), JacobianRankReduction)
        assert len(calls) <= 38

    def test_scan_eigendecomposes_once(self, monkeypatch):
        prob = QuadProblem(random_collinear_family(np.random.default_rng(8), 8, 40))
        calls = []

        def counted(m):
            calls.append(m)
            return sym_eigen(m)

        monkeypatch.setattr(quadprob, "sym_eigen", counted)
        assert isinstance(jacobian_rank_reduce(prob), JacobianRankReduction)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", sorted(SCAN_FAMILIES))
    def test_scan_results_match_per_member_extraction(self, kind):
        # the shared spectrum gives the same residual, bit for bit, as
        # extract_dependence on the failing triple (i, far, 0)
        rng = np.random.default_rng(20 + sorted(SCAN_FAMILIES).index(kind))
        for m in range(3, 13):
            prob = QuadProblem(SCAN_FAMILIES[kind](rng, int(rng.integers(2, 7)), m))
            syms = prob.matrices.sym_members()
            gaps = [np.abs(s.entries - syms[0].entries).max() for s in syms]
            far = int(np.argmax(gaps))
            want = None
            for i in range(1, m):
                res = extract_dependence(syms[i], syms[far], syms[0]) if i != far else None
                if isinstance(res, NotDependent):
                    want = (tuple(sorted((0, far, i))), res.residual)
                    break
            result = jacobian_rank_reduce(prob)
            if want is None:
                assert isinstance(result, JacobianRankReduction), (kind, m)
            else:
                assert (result.triple, result.residual) == want, (kind, m)

    def test_collinear_families_reduce(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            prob = QuadProblem(random_collinear_family(rng, n, m))
            result = jacobian_rank_reduce(prob)
            assert isinstance(result, JacobianRankReduction)
            assert result.rank <= 2


class TestQuadCertificate:
    def test_example_one_certified(self):
        report = quad_certificate(QuadProblem(family_one()))
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, family_one().members))
        assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())
        # the reference weights certify as well
        ref = 0.6 * family_one().members[1] + 0.4 * family_one().members[2]
        assert min_eigenvalue(SymMatrix(ref)) > 0.0

    def test_rank3_family_violated(self):
        report = quad_certificate(rank3_problem())
        assert isinstance(report.outcome, HypothesisViolated)

    def test_example_two_premise_fails_but_certificate_exists(self):
        # the Jacobian rank-increase premise fails for this family, so the
        # pipeline reports a hypothesis violation; the PSD combination still
        # exists and the set-rank route finds it
        report = quad_certificate(QuadProblem(family_two()))
        assert isinstance(report.outcome, HypothesisViolated)
        soc = second_order_certificate(to_kkt(QuadProblem(family_two())))
        assert isinstance(soc.report.outcome, Certified)

    def test_near_twin_family_refuted(self):
        # the normalized differences have set rank 2, yet every triple is
        # dependent at tol, so the family reaches certify_rank2 and is refuted
        prob = QuadProblem(near_twin_family(np.random.default_rng(0), 6, 6))
        assert isinstance(quad_certificate(prob).outcome, Refuted)

    def test_sampled_check_off_the_pipeline(self, monkeypatch):
        # planted refutation: every member of C + s*D takes -1 at z0
        rng = np.random.default_rng(9)
        n = 8
        z0 = rng.standard_normal(n)
        z0 /= np.linalg.norm(z0)
        c = random_sym(rng, n).entries
        c = c - (z0 @ c @ z0 + 1.0) * np.outer(z0, z0)
        d = random_sym(rng, n).entries
        d = d - (z0 @ d @ z0) * np.outer(z0, z0)
        prob = QuadProblem(MatrixFamily([c + s * d for s in np.linspace(-1.0, 1.0, 40)]))

        def forbidden(*args, **kwargs):
            raise AssertionError("quad_certificate called rank_increase_check")

        monkeypatch.setattr(quadprob, "rank_increase_check", forbidden)
        out = quad_certificate(prob).outcome
        assert isinstance(out, Refuted)
        assert max(quad_form(SymMatrix(m), out.witness) for m in prob.matrices.members) < 0.0

    def test_requires_optimization_ray_constant(self):
        with pytest.raises(InputError):
            quad_certificate(QuadProblem(family_one(), ray_constant=1.0))


class TestToKkt:
    def test_example_one_data(self):
        data = to_kkt(QuadProblem(family_one()))
        assert data.n == 3 and data.p1 == 0 and data.p2 == 3
        assert data.active == (0, 1, 2)
        np.testing.assert_allclose(data.grad_f, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(data.grad_g, [[0.0, 0.0, -1.0]] * 3)
        vertices = multiplier_vertices(data)
        got = sorted(tuple(np.round(v.mu, 9)) for v in vertices)
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        assert check_mfcq(data)
        basis = critical_cone_lineality(data)
        np.testing.assert_allclose(basis @ basis.T, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_single_identity_member(self):
        data = to_kkt(QuadProblem(MatrixFamily([np.eye(2)])))
        vertices = multiplier_vertices(data)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].mu, [1.0])
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, Certified)

    def test_route_equivalence_on_collinear_families(self):
        rng = np.random.default_rng(6)
        agreements = 0
        for _ in range(15):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            fam = random_collinear_family(rng, n, m)
            prob = QuadProblem(fam)
            direct = quad_certificate(prob)
            via_kkt = second_order_certificate(to_kkt(prob))
            assert direct.outcome.__class__ is via_kkt.report.outcome.__class__
            if isinstance(direct.outcome, Certified):
                # each route's member weights certify the family: the direct
                # route's simplex weights, and the multipliers mu of the soc
                # route (its vertex weights follow the vertices' order, not
                # the members')
                scale = 1.0 + max(np.abs(mem).max() for mem in fam.members)
                for weights in (direct.outcome.weights.t, via_kkt.multiplier.mu):
                    combined = sum(w * mem for w, mem in zip(weights, fam.members))
                    assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * scale
            agreements += 1
        assert agreements == 15


class TestHomogeneity:
    def test_max_form_sign_scale_invariant(self):
        rng = np.random.default_rng(7)
        members = [m for m in family_two().members]
        for _ in range(25):
            x = rng.standard_normal(2)
            s = float(rng.uniform(0.1, 10.0))
            base = max(quad_form(SymMatrix(m), x) for m in members)
            scaled = max(quad_form(SymMatrix(m), s * x) for m in members)
            assert np.sign(base) == np.sign(scaled)
