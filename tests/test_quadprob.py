import itertools
import re
import warnings

import numpy as np
import pytest

from conftest import (
    counterexample_family,
    family_one,
    family_two,
    random_collinear_family,
    random_rank2_family,
    random_sym,
    to_kkt,
)
from yuancert import numeric_core, quadprob
from yuancert.quadprob import jacobian_rank
from yuancert import (
    InputError,
    NumericalFailureError,
    MatrixFamily,
    QuadProblem,
    check_mfcq,
    critical_cone_lineality,
    extract_dependence,
    jacobian_at,
    jacobian_rank_reduce,
    matrix_set_rank,
    min_eigenvalue,
    multiplier_vertices,
    numerical_rank,
    rank_increase_check,
    second_order_certificate,
    quad_certificate,
)

E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])
E12 = np.array([[0.0, 1.0], [1.0, 0.0]])


def rank3_problem() -> QuadProblem:
    return QuadProblem(MatrixFamily([E11, E22, E12]))


def failing_triples(prob: QuadProblem) -> list[tuple[int, int, int]]:
    """Reference: every C(m,3) index triple put through extract_dependence."""
    syms = prob.matrices.members
    return [
        t for t in itertools.combinations(range(prob.m), 3)
        if extract_dependence(syms[t[0]], syms[t[1]], syms[t[2]])[1] is not None
    ]


def violated_triple(result) -> tuple[int, ...]:
    """The failing triple that a hypothesis_violated record names in its reason."""
    assert result["verdict"] == "hypothesis_violated"
    return tuple(int(i) for i in re.findall(r"\d+", result["reason"].rsplit("triple", 1)[1]))


def near_twin_family(rng, n: int, m: int) -> MatrixFamily:
    """Collinear family plus a copy of member 0 off by 1e-13 noise.

    Every triple is dependent at tol 1e-9, but the normalized differences
    A_i - A_0 can reach set rank 2, so a set-rank test on them would call
    the premise violated.
    """
    fam = random_collinear_family(rng, n, m - 1)
    twin = fam.members[0] + 1e-13 * random_sym(rng, n)
    return MatrixFamily(list(fam.members) + [twin])


def jittered_family(rng, n: int, m: int) -> MatrixFamily:
    """Collinear family with one member moved 1e-3 off the line."""
    members = list(random_collinear_family(rng, n, m).members)
    j = int(rng.integers(m))
    members[j] = members[j] + 1e-3 * random_sym(rng, n)
    return MatrixFamily(members)


def repeated_family(rng, n: int, m: int) -> MatrixFamily:
    """Members drawn with repetition from a pool of one to three matrices."""
    pool = [random_sym(rng, n) for _ in range(int(rng.integers(1, 4)))]
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
        # symmetry is essential: set rank 3 yet the Jacobian never exceeds 2, which
        # the candidate scan decides exactly for any square members
        prob = QuadProblem(counterexample_family(), ray_constant=1.0)
        assert rank_increase_check(prob) is None
        assert jacobian_rank(prob, np.ones(2)) == 2

    def test_single_member_null_direction(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = QuadProblem(MatrixFamily([a]))
        jac = jacobian_at(prob, [0.0, 5.0])  # a @ x = 0
        assert numerical_rank(jac) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            jacobian_at(QuadProblem(family_one()), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("length", [1e-320, 1e-300, 1.0, 1e300, 1e308])
    def test_rank_judged_at_unit_length(self, length):
        # the rank is constant along rays, so the size of x cannot decide it, and no
        # product A_i x overflows
        d = np.diag([1.0, -1.0])
        prob = QuadProblem(MatrixFamily([1e12 * d, -1e12 * d, 1e11 * E11]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert jacobian_rank(prob, [length, length]) == 3
            assert jacobian_rank(prob, [length, 0.0]) == 2
            assert jacobian_rank(prob, [0.0, 0.0]) == 1

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1.0, 1e12, 1e300])
    @pytest.mark.parametrize("ray", [-1.0, 1e-200, 1e200])
    def test_rank_free_of_the_ray_constant_size(self, scale, ray):
        d = np.diag([1.0, -1.0])
        prob = QuadProblem(MatrixFamily([scale * d, -scale * d, 0.1 * scale * E11]), ray)
        assert jacobian_rank(prob, np.ones(2)) == 3
        assert jacobian_rank(prob, [1.0, 0.0]) == 2
        assert jacobian_rank(prob, np.zeros(2)) == 1


class TestRankIncreaseCheck:
    def test_family_one_satisfied(self):
        prob = QuadProblem(family_one())
        assert jacobian_rank(prob, np.zeros(2)) == 1
        assert rank_increase_check(prob) is None

    def test_rank3_family_not_satisfied(self):
        prob = rank3_problem()
        x, rank = rank_increase_check(prob)
        assert rank == jacobian_rank(prob, x) == 3

    def test_example_two_not_satisfied(self):
        # set rank is 2 but the members are not collinear, so the Jacobian
        # rank reaches 3 away from the origin
        prob = QuadProblem(family_two())
        x, rank = rank_increase_check(prob)
        assert rank == jacobian_rank(prob, x) == 3

    def test_point_past_all_ones(self):
        # rank 2 at the all-ones vector, rank 3 at e_1: the scan goes on to e_1, and
        # quad reports it
        prob = QuadProblem(MatrixFamily([np.zeros((2, 2)), np.diag([1.0, -1.0]),
                                         np.array([[0.0, 1.0], [1.0, -2.0]])]))
        assert jacobian_rank(prob, np.ones(2)) == 2
        x, rank = rank_increase_check(prob)
        assert x.tolist() == [1.0, 0.0] and rank == 3
        result = quad_certificate(prob)
        assert result["witness"].tolist() == [1.0, 0.0] and result["rank"] == 3

    @pytest.mark.parametrize("kind", sorted(SCAN_FAMILIES))
    def test_exact_against_the_line_fit(self, kind):
        # the candidates find a rank-3 point exactly when the line fit finds a
        # failing triple, on both sides of the premise
        rng = np.random.default_rng(100 + sorted(SCAN_FAMILIES).index(kind))
        for _ in range(40):
            n, m = int(rng.integers(2, 9)), int(rng.integers(3, 13))
            prob = QuadProblem(SCAN_FAMILIES[kind](rng, n, m))
            assert (rank_increase_check(prob) is None) == (jacobian_rank_reduce(prob) is None)

    def test_fruitless_scan_is_a_numerical_failure(self, monkeypatch):
        # a failing triple with no candidate at rank 3 means the two tolerances
        # disagree; the message names the stage, the triple, its residual and bound
        monkeypatch.setattr(quadprob, "jacobian_rank", lambda prob, x, tol: 2)
        with pytest.raises(NumericalFailureError,
                           match=r"premise scan: triple \(0, 1, 2\) not dependent "
                                 r"\(residual 1\.000e\+00 > bound 2\.000e-09\)"):
            jacobian_rank_reduce(rank3_problem())


class TestExtractDependence:
    def test_constructed_delta(self):
        rng = np.random.default_rng(0)
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        c = (a + 2.0 * b) / 3.0
        delta, residual = extract_dependence(a, b, c)
        assert residual is None
        assert delta == pytest.approx(2.0, rel=1e-10)

    def test_equal_branch(self):
        rng = np.random.default_rng(1)
        a, b = random_sym(rng, 3), random_sym(rng, 3)
        assert extract_dependence(a, b, b) == (None, None)

    def test_not_dependent(self):
        delta, residual = extract_dependence(E11, E22, np.zeros((2, 2)))
        assert delta is None
        assert residual >= 1.0

    def test_delta_recovery_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            if rng.random() < 0.5:
                delta = 10.0 ** rng.uniform(-2, 3)
            else:
                delta = -(10.0 ** rng.uniform(-2, np.log10(0.99)))
            c = (a + delta * b) / (1.0 + delta)
            got, residual = extract_dependence(a, b, c)
            assert residual is None
            assert abs(got - delta) <= 1e-8 * abs(delta)


class TestJacobianRankReduce:
    def test_repeated_member_rank_one(self):
        a = random_sym(np.random.default_rng(4), 3)
        prob = QuadProblem(MatrixFamily([a, a, a]))
        assert jacobian_rank_reduce(prob) is None
        assert matrix_set_rank(prob.matrices).rank == 1

    def test_family_one_reduces(self):
        prob = QuadProblem(family_one())
        assert jacobian_rank_reduce(prob) is None
        top = matrix_set_rank(prob.matrices)
        assert top.rank == 2
        assert top.basis == (0, 1)

    def test_rank3_family_violated(self):
        result = jacobian_rank_reduce(rank3_problem())
        assert result["verdict"] == "hypothesis_violated"
        prob = rank3_problem()
        assert numerical_rank(jacobian_at(prob, result["witness"])) == result["rank"] >= 3

    def test_example_two_violated(self):
        # the triple has no affine dependence (1*A1 + 1*A2 + 1*A3 = 0 has
        # coefficient sum 3), so the Jacobian rank reaches 3 somewhere even
        # though the matrix set rank is 2
        prob = QuadProblem(family_two())
        result = jacobian_rank_reduce(prob)
        assert result["verdict"] == "hypothesis_violated"
        assert numerical_rank(jacobian_at(prob, result["witness"])) == 3

    @pytest.mark.parametrize("kind", sorted(SCAN_FAMILIES))
    def test_scan_agrees_with_triple_loop(self, kind):
        rng = np.random.default_rng(sorted(SCAN_FAMILIES).index(kind))
        for m in range(1 if kind != "near_twin" else 2, 13):
            prob = QuadProblem(SCAN_FAMILIES[kind](rng, int(rng.integers(2, 7)), m))
            failing = failing_triples(prob)
            result = jacobian_rank_reduce(prob)
            if not failing:
                assert result is None, (kind, m)
                assert matrix_set_rank(prob.matrices).rank <= 2
                continue
            assert violated_triple(result) in failing, (kind, m)
            assert numerical_rank(jacobian_at(prob, result["witness"])) >= 3

    def test_entries_near_the_largest_float(self):
        # {1e308 I, -1e308 I, 0} lies on one line; the differences overflow, their
        # halves do not, so the scan and the pipeline decide it with no warning
        big = 1e308 * np.eye(2)
        prob = QuadProblem(MatrixFamily([big, -big, np.zeros((2, 2))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert extract_dependence(np.zeros((2, 2)), big, -big) == (-0.5, None)
            assert jacobian_rank_reduce(prob) is None
            assert quad_certificate(prob)["verdict"] == "certified"

    def test_scan_anchor_is_not_a_repeat_of_member_zero(self):
        prob = QuadProblem(MatrixFamily([E11, E11, E22, E12]))
        result = jacobian_rank_reduce(prob)
        assert violated_triple(result) in failing_triples(prob)

    def test_scan_work_bound(self, monkeypatch):
        # the coordinates of all A_i - A_0 in A_far - A_0 come from one
        # _basis_coordinates call over the 39 differences
        prob = QuadProblem(random_collinear_family(np.random.default_rng(8), 8, 40))
        calls = []

        def counted(rows, *args):
            calls.append(len(rows))
            return basis_coordinates(rows, *args)

        basis_coordinates = quadprob._basis_coordinates
        monkeypatch.setattr(quadprob, "_basis_coordinates", counted)
        assert jacobian_rank_reduce(prob) is None
        assert calls == [39]

    def test_scan_eigendecomposes_once(self, monkeypatch):
        # at most once, and in fact never: the scan is a projection, so no
        # spectrum is computed on the way to the rank-<=2 answer
        prob = QuadProblem(random_collinear_family(np.random.default_rng(8), 8, 40))
        calls = []

        def counted(eigh):
            def wrapped(m):
                calls.append(m)
                return eigh(m)

            return wrapped

        monkeypatch.setattr(numeric_core, "sym_eigen", counted(numeric_core.sym_eigen))
        monkeypatch.setattr(numeric_core, "_eigh", counted(numeric_core._eigh))
        assert jacobian_rank_reduce(prob) is None
        assert calls == []

    @pytest.mark.parametrize("kind", sorted(SCAN_FAMILIES))
    def test_scan_results_match_per_member_extraction(self, kind):
        # the stacked projection gives the same residual, bit for bit, as
        # extract_dependence on the failing triple (i, far, 0)
        rng = np.random.default_rng(20 + sorted(SCAN_FAMILIES).index(kind))
        for m in range(3, 13):
            prob = QuadProblem(SCAN_FAMILIES[kind](rng, int(rng.integers(2, 7)), m))
            syms = prob.matrices.members
            gaps = [np.abs(s - syms[0]).max() for s in syms]
            far = int(np.argmax(gaps))
            want = None
            for i in range(1, m):
                if i == far:
                    continue
                _, residual = extract_dependence(syms[i], syms[far], syms[0])
                if residual is not None:
                    want = (tuple(sorted((0, far, i))), residual)
                    break
            result = jacobian_rank_reduce(prob)
            if want is None:
                assert result is None, (kind, m)
            else:
                got = (violated_triple(result), result["residuals"]["triple_residual"])
                assert got == want, (kind, m)

    def test_collinear_families_reduce(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            prob = QuadProblem(random_collinear_family(rng, n, m))
            assert jacobian_rank_reduce(prob) is None
            assert matrix_set_rank(prob.matrices).rank <= 2


class TestRank3Point:
    """The rank-3 scan tests 1 + n(n+1)/2 unit points in a fixed order, and builds
    the points after all-ones only once it gets past all-ones."""

    @staticmethod
    def candidates(monkeypatch, n: int, hit: int | None = None) -> list:
        """The points `rank_increase_check` tests, in order, with the rank reaching 3
        only at candidate `hit`; the Jacobian is not formed."""
        seen = []
        monkeypatch.setattr(quadprob, "jacobian_rank", lambda prob, x, tol: seen.append(x)
                            or (3 if len(seen) - 1 == hit else 0))
        found = rank_increase_check(QuadProblem(MatrixFamily([np.diag(np.ones(n))])), 1e-9)
        assert (found is None) == (hit is None)
        return seen

    @pytest.mark.parametrize("n", range(1, 13))
    def test_candidates_equal_one_draw(self, n, monkeypatch):
        # named for the Gaussian draw the fixed list replaced: the points tested
        # equal, bit for bit, one list built in the stated order
        eye = np.eye(n)
        want = [np.ones(n) / np.sqrt(n), *eye,
                *((eye[j] + eye[k]) / np.sqrt(2.0) for j in range(n) for k in range(j + 1, n))]
        got = self.candidates(monkeypatch, n)
        assert len(got) == len(want) == 1 + n * (n + 1) // 2
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("hit, eyes, pairs", [(0, 0, 0), (1, 1, 0), (4, 1, 0),
                                                  (5, 1, 1), (None, 1, 1)])
    def test_builds_only_past_the_hit(self, hit, eyes, pairs, monkeypatch):
        built = {"eye": 0, "pairs": 0}
        eye, combinations = np.eye, quadprob.combinations

        def counted(name, make):
            def wrapped(*args):
                built[name] += 1
                return make(*args)

            return wrapped

        monkeypatch.setattr(np, "eye", counted("eye", eye))
        monkeypatch.setattr(quadprob, "combinations", counted("pairs", combinations))
        tested = self.candidates(monkeypatch, 4, hit)
        assert len(tested) == (11 if hit is None else hit + 1)
        assert built == {"eye": eyes, "pairs": pairs}


class TestQuadCertificate:
    def test_example_one_certified(self):
        report = quad_certificate(QuadProblem(family_one()))
        assert report["verdict"] == "certified"
        combined = sum(w * m for w, m in zip(report["weights"], family_one().members))
        assert min_eigenvalue(combined) >= -1e-9 * (1.0 + np.abs(combined).max())
        # the reference weights certify as well
        ref = 0.6 * family_one().members[1] + 0.4 * family_one().members[2]
        assert min_eigenvalue(ref) > 0.0

    def test_rank3_family_violated(self):
        report = quad_certificate(rank3_problem())
        assert report["verdict"] == "hypothesis_violated"

    def test_example_two_premise_fails_but_certificate_exists(self):
        # the Jacobian rank-increase premise fails for this family, so the
        # pipeline reports a hypothesis violation; the PSD combination still
        # exists and the set-rank route finds it
        report = quad_certificate(QuadProblem(family_two()))
        assert report["verdict"] == "hypothesis_violated"
        soc = second_order_certificate(to_kkt(QuadProblem(family_two())))
        assert soc["verdict"] == "certified"

    def test_near_twin_family_refuted(self):
        # the normalized differences have set rank 2, yet every triple is
        # dependent at tol, so the family reaches certify_rank2 and is refuted
        prob = QuadProblem(near_twin_family(np.random.default_rng(0), 6, 6))
        assert quad_certificate(prob)["verdict"] == "refuted"

    def test_sampled_check_off_the_pipeline(self, monkeypatch):
        # planted refutation: every member of C + s*D takes -1 at z0
        rng = np.random.default_rng(9)
        n = 8
        z0 = rng.standard_normal(n)
        z0 /= np.linalg.norm(z0)
        c = random_sym(rng, n)
        c = c - (z0 @ c @ z0 + 1.0) * np.outer(z0, z0)
        d = random_sym(rng, n)
        d = d - (z0 @ d @ z0) * np.outer(z0, z0)
        prob = QuadProblem(MatrixFamily([c + s * d for s in np.linspace(-1.0, 1.0, 40)]))

        def forbidden(*args, **kwargs):
            raise AssertionError("quad_certificate called rank_increase_check")

        monkeypatch.setattr(quadprob, "rank_increase_check", forbidden)
        out = quad_certificate(prob)
        assert out["verdict"] == "refuted"
        x = out["witness"]
        assert max(x @ m @ x for m in prob.matrices.members) < 0.0

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
        got = sorted(tuple(np.round(row, 9)) for row in vertices)  # p1 = 0: the rows are mu
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        assert check_mfcq(data)
        basis = critical_cone_lineality(data)
        np.testing.assert_allclose(basis @ basis.T, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_single_identity_member(self):
        data = to_kkt(QuadProblem(MatrixFamily([np.eye(2)])))
        vertices = multiplier_vertices(data)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0], [1.0])
        assert second_order_certificate(data)["verdict"] == "certified"

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
            assert direct["verdict"] == via_kkt["verdict"]
            if direct["verdict"] == "certified":
                # each route's member weights certify the family: the direct
                # route's simplex weights, and the multipliers mu of the soc
                # route (its vertex weights follow the vertices' order, not
                # the members')
                scale = 1.0 + max(np.abs(mem).max() for mem in fam.members)
                for weights in (direct["weights"], via_kkt["multiplier"]["mu"]):
                    combined = sum(w * mem for w, mem in zip(weights, fam.members))
                    assert min_eigenvalue(combined) >= -1e-9 * scale
            agreements += 1
        assert agreements == 15


class TestHomogeneity:
    def test_max_form_sign_scale_invariant(self):
        rng = np.random.default_rng(7)
        members = [m for m in family_two().members]
        for _ in range(25):
            x = rng.standard_normal(2)
            s = float(rng.uniform(0.1, 10.0))
            base = max(x @ m @ x for m in members)
            scaled = max((s * x) @ m @ (s * x) for m in members)
            assert np.sign(base) == np.sign(scaled)
