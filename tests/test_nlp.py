import itertools

import numpy as np
import pytest

from conftest import degenerate_kkt_point, family_one, family_two
from yuancert import nlp
from yuancert.numeric_core import norm_max
from yuancert import (
    Certified,
    ConeNotCriticalError,
    EmptyMultiplierSetError,
    FirstOrderCone,
    HypothesisViolated,
    InfeasibleError,
    InputError,
    KKTData,
    MatrixFamily,
    MfcqFailedError,
    MultiplierPoint,
    QuadProblem,
    check_mfcq,
    critical_cone_lineality,
    lagrangian_hessian,
    lp_solve,
    min_eigenvalue,
    multiplier_vertices,
    numerical_rank,
    restrict,
    second_order_certificate,
    span_basis,
    to_kkt,
)


def quad_data(family=None):
    return to_kkt(QuadProblem(family or family_one()))


def reference_multiplier_vertices(data, tol=1e-9):
    """Reference: the per-subset loop, one numerical_rank call per column subset."""
    act = list(data.active)
    na = len(act)
    cols = [data.grad_h[i] for i in range(data.p1)] + [data.grad_g[i] for i in act]
    rhs = -data.grad_f
    scale = 1.0 + norm_max(rhs)
    if not cols:
        if norm_max(rhs) <= 1e-8 * scale:
            return [MultiplierPoint(np.zeros(0), np.zeros(data.p2))]
        raise EmptyMultiplierSetError("no multipliers: gradient of f does not vanish")
    mat = np.column_stack(cols)
    rank = numerical_rank(mat, tol)
    if data.p1 > 0 and numerical_rank(data.grad_h.T, tol) < data.p1:
        raise MfcqFailedError("equality gradients are linearly dependent")
    found = []
    free = list(range(data.p1))
    for combo in itertools.combinations(range(na), rank - data.p1):
        sel = free + [data.p1 + j for j in combo]
        sub = mat[:, sel]
        if numerical_rank(sub, tol) < len(sel):
            continue
        y, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if norm_max(sub @ y - rhs) > 1e-8 * scale:
            continue
        if (y[data.p1:] < -1e-9).any():
            continue
        full = np.zeros(data.p1 + na)
        full[sel] = y
        full[data.p1:] = np.maximum(full[data.p1:], 0.0)
        found.append(full)
    if not found:
        raise EmptyMultiplierSetError("stationarity system has no feasible basic solution")
    found.sort(key=lambda v: tuple(v))
    unique = []
    for v in found:
        if all(norm_max(v - u) > 1e-8 for u in unique):
            unique.append(v)
    points = []
    for v in unique:
        mu = np.zeros(data.p2)
        mu[act] = v[data.p1:]
        points.append(MultiplierPoint(v[: data.p1], mu))
    return points


def assert_same_vertices(data):
    """multiplier_vertices equals the reference bit for bit, in order, or
    both raise the same error."""
    try:
        want = reference_multiplier_vertices(data)
    except (EmptyMultiplierSetError, MfcqFailedError) as exc:
        with pytest.raises(type(exc)):
            multiplier_vertices(data)
        return type(exc)
    got = multiplier_vertices(data)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.lam, w.lam) and np.array_equal(g.mu, w.mu)
    return len(got)


def stationarity_residual(data, pt):
    grad = data.grad_f.copy()
    for w, g in zip(pt.lam, data.grad_h):
        grad += w * g
    for w, g in zip(pt.mu, data.grad_g):
        grad += w * g
    return np.abs(grad).max()


class TestKKTData:
    def test_active_from_g_values(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.zeros((2, 2)),
            grad_g=[[1.0, 0.0], [0.0, 1.0]],
            hess_g=[np.zeros((2, 2))] * 2,
            g_values=[0.0, -0.5],
        )
        assert data.active == (0,)

    def test_inconsistent_active_rejected(self):
        with pytest.raises(InputError):
            KKTData(
                grad_f=[1.0],
                hess_f=[[0.0]],
                grad_g=[[1.0]],
                hess_g=[np.zeros((1, 1))],
                active=[0],
                g_values=[-1.0],
            )

    def test_active_required(self):
        with pytest.raises(InputError):
            KKTData(
                grad_f=[1.0],
                hess_f=[[0.0]],
                grad_g=[[1.0]],
                hess_g=[np.zeros((1, 1))],
            )

    def test_negative_mu_rejected(self):
        with pytest.raises(InputError):
            MultiplierPoint(np.zeros(0), np.array([-0.5]))


class TestLagrangianHessian:
    def test_vertex_gives_block_matrix(self):
        data = quad_data()
        for i, member in enumerate(family_one().members):
            mu = np.zeros(3)
            mu[i] = 1.0
            hess = lagrangian_hessian(data, MultiplierPoint(np.zeros(0), mu))
            expected = np.zeros((3, 3))
            expected[:2, :2] = member
            np.testing.assert_allclose(hess.entries, expected)

    def test_zero_multipliers(self):
        data = quad_data()
        hess = lagrangian_hessian(data, MultiplierPoint(np.zeros(0), np.zeros(3)))
        np.testing.assert_allclose(hess.entries, data.hess_f.entries)

    def test_linearity(self):
        data = quad_data()
        rng = np.random.default_rng(0)
        mu1, mu2 = rng.random(3), rng.random(3)
        p1 = MultiplierPoint(np.zeros(0), mu1)
        p2 = MultiplierPoint(np.zeros(0), mu2)
        mid = MultiplierPoint(np.zeros(0), 0.5 * (mu1 + mu2))
        lhs = lagrangian_hessian(data, mid).entries
        rhs = 0.5 * (lagrangian_hessian(data, p1).entries + lagrangian_hessian(data, p2).entries)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


class TestCheckMfcq:
    def test_quad_problem_holds(self):
        assert check_mfcq(quad_data())

    def test_zero_equality_gradient_fails(self):
        data = KKTData(grad_f=[1.0, 0.0], hess_f=np.zeros((2, 2)),
                       grad_h=[[0.0, 0.0]], hess_h=[np.zeros((2, 2))])
        assert not check_mfcq(data)

    def test_opposing_inequalities_fail(self):
        data = KKTData(
            grad_f=[0.0, 1.0],
            hess_f=np.zeros((2, 2)),
            grad_g=[[1.0, 0.0], [-1.0, 0.0]],
            hess_g=[np.zeros((2, 2))] * 2,
            active=[0, 1],
        )
        assert not check_mfcq(data)

    def test_unconstrained_holds(self):
        data = KKTData(grad_f=[0.0], hess_f=[[1.0]])
        assert check_mfcq(data)

    def test_mixed_equality_inequality(self):
        data = KKTData(
            grad_f=[1.0, 1.0],
            hess_f=np.eye(2),
            grad_h=[[1.0, 0.0]],
            hess_h=[np.zeros((2, 2))],
            grad_g=[[0.0, -1.0]],
            hess_g=[np.eye(2)],
            active=[0],
        )
        assert check_mfcq(data)
        vertices = multiplier_vertices(data)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].lam, [-1.0], atol=1e-9)
        np.testing.assert_allclose(vertices[0].mu, [1.0], atol=1e-9)
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, Certified)

    def test_mixed_opposing_gradients_fail(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.zeros((2, 2)),
            grad_h=[[1.0, 0.0]],
            hess_h=[np.zeros((2, 2))],
            grad_g=[[-1.0, 0.0]],
            hess_g=[np.zeros((2, 2))],
            active=[0],
        )
        assert not check_mfcq(data)


class TestMultiplierVertices:
    def test_quad_problem_simplex_vertices(self):
        data = quad_data()
        vertices = multiplier_vertices(data)
        got = sorted(tuple(np.round(v.mu, 9)) for v in vertices)
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        for v in vertices:
            assert stationarity_residual(data, v) <= 1e-8

    def test_licq_unique_vertex(self):
        # f gradient in the row space of independent equality gradients
        data = KKTData(
            grad_f=[1.0, 2.0],
            hess_f=np.zeros((2, 2)),
            grad_h=[[1.0, 0.0], [0.0, 1.0]],
            hess_h=[np.zeros((2, 2))] * 2,
        )
        vertices = multiplier_vertices(data)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].lam, [-1.0, -2.0], atol=1e-9)

    def test_segment_endpoints(self):
        data = KKTData(
            grad_f=[1.0],
            hess_f=[[0.0]],
            grad_g=[[-1.0], [-1.0]],
            hess_g=[np.zeros((1, 1))] * 2,
            active=[0, 1],
        )
        vertices = multiplier_vertices(data)
        got = sorted(tuple(v.mu) for v in vertices)
        assert got == [(0.0, 1.0), (1.0, 0.0)]

    def test_not_kkt_point(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.zeros((2, 2)),
            grad_g=[[0.0, 1.0]],
            hess_g=[np.zeros((2, 2))],
            active=[0],
        )
        with pytest.raises(EmptyMultiplierSetError):
            multiplier_vertices(data)

    def test_vertices_are_extreme(self):
        # no vertex is a convex combination of the others (LP separation)
        data = quad_data(family_two())
        vertices = multiplier_vertices(data)
        stacked = [np.concatenate([v.lam, v.mu]) for v in vertices]
        for j, v in enumerate(stacked):
            others = [u for i, u in enumerate(stacked) if i != j]
            a_eq = np.vstack([np.stack(others, axis=1), np.ones((1, len(others)))])
            b_eq = np.concatenate([v, [1.0]])
            with pytest.raises(InfeasibleError):
                lp_solve(np.zeros(len(others)), a_eq, b_eq, [True] * len(others))

    def test_inactive_mu_zero(self):
        data = KKTData(
            grad_f=[1.0],
            hess_f=[[0.0]],
            grad_g=[[-1.0], [5.0]],
            hess_g=[np.zeros((1, 1))] * 2,
            g_values=[0.0, -2.0],
        )
        vertices = multiplier_vertices(data)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].mu, [1.0, 0.0], atol=1e-9)


class TestVertexEnumerationReference:
    """The stacked subset test keeps the per-subset loop's vertices and order."""

    @pytest.mark.parametrize("p1", [0, 1, 2])
    def test_seeded_block_points(self, p1):
        rng = np.random.default_rng(40 + p1)
        shapes = [[(2, 4), (1, 3)], [(2, 5), (2, 4)], [(1, 2), (2, 6), (1, 3)], [(3, 7)]]
        counts = []
        for trial in range(12):
            blocks = shapes[trial % len(shapes)]
            n = p1 + sum(dim for dim, _ in blocks) + int(rng.integers(0, 3))
            data = degenerate_kkt_point(
                rng, n, p1, blocks, zero_column=trial % 3 == 0,
                repeat_column=trial % 4 == 1, sparse=trial % 2 == 0, lone=trial % 4 == 3,
                inactive=trial % 3)
            counts.append(assert_same_vertices(data))
        assert all(isinstance(c, int) and c >= 1 for c in counts)
        assert max(counts) > 3

    @pytest.mark.parametrize("blocks", [[(2, 9), (2, 9)], [(1, 6), (2, 6), (1, 6)]])
    def test_eighteen_active_constraints(self, blocks):
        rng = np.random.default_rng(7)
        data = degenerate_kkt_point(rng, 6, 0, blocks, zero_column=True, sparse=True)
        assert len(data.active) == 18
        assert assert_same_vertices(data) > 10
        data = degenerate_kkt_point(rng, 6, 0, blocks, lone=True)
        assert assert_same_vertices(data) > 1

    def test_eighteen_active_with_equalities(self):
        rng = np.random.default_rng(8)
        data = degenerate_kkt_point(rng, 6, 2, [(2, 9), (1, 9)], repeat_column=True)
        assert assert_same_vertices(data) > 10

    @pytest.mark.parametrize("block", [1, 34, 35, 36, 256])
    def test_subset_count_around_one_block(self, monkeypatch, block):
        # p1 = 1 and column rank 4, so C(7, 3) = 35 subsets
        data = degenerate_kkt_point(np.random.default_rng(3), 5, 1, [(2, 4), (1, 3)],
                                    sparse=True)
        assert numerical_rank(np.column_stack([*data.grad_h, *data.grad_g])) == 4
        monkeypatch.setattr(nlp, "_BLOCK", block)
        assert assert_same_vertices(data) >= 2

    def test_no_active_constraints(self):
        rng = np.random.default_rng(5)
        licq = degenerate_kkt_point(rng, 4, 2, [], inactive=3)
        assert licq.active == ()
        assert assert_same_vertices(licq) == 1
        zero = np.zeros((3, 3))
        assert assert_same_vertices(KKTData(grad_f=np.zeros(3), hess_f=zero)) == 1
        moving = KKTData(grad_f=[1.0, 0.0, 0.0], hess_f=zero)
        assert assert_same_vertices(moving) is EmptyMultiplierSetError

    def test_empty_multiplier_set(self):
        zero = np.zeros((3, 3))
        grads = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 1.0, 0.0],
                 [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]]
        point = dict(hess_f=zero, grad_g=grads, hess_g=[zero] * 6, active=range(6))
        # the gradients span a pointed cone, so -grad_f in -cone needs mu <= 0
        assert assert_same_vertices(KKTData(grad_f=[1.0, 1.0, 0.0], **point)) \
            is EmptyMultiplierSetError
        # -grad_f leaves the span of the gradients
        assert assert_same_vertices(KKTData(grad_f=[-1.0, -1.0, 1.0], **point)) \
            is EmptyMultiplierSetError
        assert assert_same_vertices(KKTData(grad_f=[-1.0, -1.0, 0.0], **point)) >= 2

    def test_all_gradients_zero(self):
        # column rank 0: the one empty subset is the only basic solution
        zero = np.zeros((2, 2))
        point = dict(hess_f=zero, grad_g=np.zeros((2, 2)), hess_g=[zero] * 2, active=[0, 1])
        assert assert_same_vertices(KKTData(grad_f=[0.0, 0.0], **point)) == 1
        assert assert_same_vertices(KKTData(grad_f=[1.0, 0.0], **point)) \
            is EmptyMultiplierSetError

    def test_dependent_equalities(self):
        rng = np.random.default_rng(9)
        data = degenerate_kkt_point(rng, 5, 2, [(2, 4)])
        twin = KKTData(grad_f=data.grad_f, hess_f=data.hess_f,
                       grad_h=[data.grad_h[0], 2.0 * data.grad_h[0]], hess_h=data.hess_h,
                       grad_g=data.grad_g, hess_g=data.hess_g, active=data.active)
        assert assert_same_vertices(twin) is MfcqFailedError


class TestCriticalConeLineality:
    def test_quad_problem(self):
        basis = critical_cone_lineality(quad_data())
        assert basis.shape == (3, 2)
        proj = basis @ basis.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_unconstrained_zero_gradient(self):
        data = KKTData(grad_f=[0.0, 0.0], hess_f=np.zeros((2, 2)))
        basis = critical_cone_lineality(data)
        assert basis.shape == (2, 2)

    def test_single_active_inequality(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.zeros((2, 2)),
            grad_g=[[1.0, 0.0]],
            hess_g=[np.zeros((2, 2))],
            active=[0],
        )
        basis = critical_cone_lineality(data)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-10)


class TestSecondOrderCertificate:
    def test_example_one_pipeline(self):
        data = quad_data()
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, Certified)
        mult = result.multiplier
        assert mult is not None
        assert stationarity_residual(data, mult) <= 1e-8
        # the certified multiplier's Hessian is PSD on the lineality space
        basis = span_basis(result.cone)
        lam = min_eigenvalue(restrict(lagrangian_hessian(data, mult), basis))
        assert lam >= -1e-9
        # the reference multiplier (0, 3/5, 2/5) validates too
        ref = MultiplierPoint(np.zeros(0), np.array([0.0, 0.6, 0.4]))
        lam_ref = min_eigenvalue(restrict(lagrangian_hessian(data, ref), basis))
        assert lam_ref == pytest.approx((1.4 - np.sqrt(1.8)) / 2, abs=1e-9)

    def test_example_two_pipeline(self):
        data = quad_data(family_two())
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, Certified)
        uniform = MultiplierPoint(np.zeros(0), np.full(3, 1 / 3))
        basis = span_basis(result.cone)
        lam = min_eigenvalue(restrict(lagrangian_hessian(data, uniform), basis))
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_licq_unit_weight(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.eye(2),
            grad_h=[[1.0, 0.0]],
            hess_h=[np.zeros((2, 2))],
        )
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, Certified)
        assert len(result.vertices) == 1
        np.testing.assert_allclose(result.multiplier.lam, [-1.0], atol=1e-9)

    def test_mfcq_failure_raised(self):
        data = KKTData(grad_f=[1.0], hess_f=[[0.0]], grad_h=[[0.0]], hess_h=[np.zeros((1, 1))])
        with pytest.raises(MfcqFailedError):
            second_order_certificate(data)

    def test_rank_hypothesis_violation(self):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        e12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = quad_data(MatrixFamily([e11, e22, e12]))
        result = second_order_certificate(data)
        assert isinstance(result.report.outcome, HypothesisViolated)
        assert result.multiplier is None

    def test_supplied_cone_validated(self):
        data = quad_data()
        bad = FirstOrderCone(3, [[0.0, 0.0, 1.0]])  # z-direction leaves the critical cone
        with pytest.raises(ConeNotCriticalError):
            second_order_certificate(data, bad)

    def test_supplied_subcone_accepted(self):
        data = quad_data()
        sub = FirstOrderCone(3, [[1.0, 0.0, 0.0]], ray=[0.0, 1.0, 0.0])
        result = second_order_certificate(data, sub)
        assert isinstance(result.report.outcome, Certified)

    def test_multiplier_in_vertex_hull(self):
        data = quad_data(family_two())
        result = second_order_certificate(data)
        t = result.report.outcome.weights.t
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        recombined = sum(w * v.mu for w, v in zip(t, result.vertices))
        np.testing.assert_allclose(recombined, result.multiplier.mu, atol=1e-12)

    def test_recombination_linearity(self):
        data = quad_data()
        vertices = multiplier_vertices(data)
        rng = np.random.default_rng(1)
        t = rng.random(len(vertices))
        t /= t.sum()
        mixed = MultiplierPoint(
            sum(w * v.lam for w, v in zip(t, vertices)),
            sum(w * v.mu for w, v in zip(t, vertices)),
        )
        lhs = lagrangian_hessian(data, mixed).entries
        rhs = sum(w * lagrangian_hessian(data, v).entries for w, v in zip(t, vertices))
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())
