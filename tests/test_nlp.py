import itertools

import numpy as np
import pytest

from conftest import degenerate_kkt_point, family_one, family_two, random_sym, to_kkt
from yuancert import nlp
from yuancert.numeric_core import norm_max
from yuancert import (
    ConeNotCriticalError,
    EmptyMultiplierSetError,
    FirstOrderCone,
    InfeasibleError,
    InputError,
    KKTData,
    MatrixFamily,
    MfcqFailedError,
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
)


def quad_data(family=None):
    return to_kkt(QuadProblem((family or family_one()).members))


def qr_solve(sub, rhs):
    q, r = np.linalg.qr(sub)
    return np.linalg.solve(r, q.T @ rhs)


def lstsq_solve(sub, rhs):
    return np.linalg.lstsq(sub, rhs, rcond=None)[0]


def reference_multiplier_vertices(data, tol=1e-9, solve=qr_solve):
    """Reference: the per-subset loop, one numerical_rank call and one `solve`
    per column subset; the vertices as rows (lam, mu), in the order they
    first appear among the subsets."""
    act = list(data.active)
    na = len(act)
    cols = [data.grad_h[i] for i in range(data.p1)] + [data.grad_g[i] for i in act]
    rhs = -data.grad_f
    scale = 1.0 + norm_max(rhs)
    if not cols:
        if norm_max(rhs) <= 1e-8 * scale:
            return np.zeros((1, data.p2))
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
        y = solve(sub, rhs)
        if not norm_max(sub @ y - rhs) <= 1e-8 * scale:
            continue
        if (y[data.p1:] < -1e-9).any():
            continue
        full = np.zeros(data.p1 + na)
        full[sel] = y
        full[data.p1:] = np.maximum(full[data.p1:], 0.0)
        found.append(full)
    if not found:
        raise EmptyMultiplierSetError("stationarity system has no feasible basic solution")
    unique = []
    for v in found:
        if all(norm_max(v - u) > 1e-8 for u in unique):
            unique.append(v)
    rows = []
    for v in unique:
        mu = np.zeros(data.p2)
        mu[act] = v[data.p1:]
        rows.append(np.concatenate([v[: data.p1], mu]))
    return np.array(rows)


def assert_same_vertices(data):
    """multiplier_vertices equals the QR reference bit for bit, in order, and
    the per-subset lstsq solve within 1e-9*(1 + |v|), in order; or all
    three raise the same error."""
    try:
        want = reference_multiplier_vertices(data)
    except (EmptyMultiplierSetError, MfcqFailedError) as exc:
        for enumerate_vertices in (multiplier_vertices, lstsq_vertices):
            with pytest.raises(type(exc)):
                enumerate_vertices(data)
        return type(exc)
    got = multiplier_vertices(data)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert_close_vertices(got, lstsq_vertices(data))
    return len(got)


def lstsq_vertices(data):
    return reference_multiplier_vertices(data, solve=lstsq_solve)


def assert_close_vertices(got, want):
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want))).all()


def stationarity_residual(data, row):
    grad = data.grad_f.copy()
    for w, g in zip(row, np.vstack([data.grad_h, data.grad_g])):
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


class TestLagrangianHessian:
    def test_vertex_gives_block_matrix(self):
        data = quad_data()
        for i, member in enumerate(family_one().members):
            mu = np.zeros(3)
            mu[i] = 1.0
            hess = lagrangian_hessian(data, mu)
            expected = np.zeros((3, 3))
            expected[:2, :2] = member
            np.testing.assert_allclose(hess, expected)

    def test_zero_multipliers(self):
        data = quad_data()
        hess = lagrangian_hessian(data, np.zeros(3))
        np.testing.assert_allclose(hess, data.hessians[0])

    def test_multiplier_of_another_length_rejected(self):
        with pytest.raises(InputError, match="multiplier dimensions"):
            lagrangian_hessian(quad_data(), np.zeros(2))

    def test_linearity(self):
        data = quad_data()
        rng = np.random.default_rng(0)
        mu1, mu2 = rng.random(3), rng.random(3)
        lhs = lagrangian_hessian(data, 0.5 * (mu1 + mu2))
        rhs = 0.5 * (lagrangian_hessian(data, mu1) + lagrangian_hessian(data, mu2))
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
        np.testing.assert_allclose(vertices[0], [-1.0, 1.0], atol=1e-9)  # lam, then mu
        assert second_order_certificate(data)["verdict"] == "certified"

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
        got = sorted(tuple(np.round(row, 9)) for row in vertices)  # p1 = 0: the rows are mu
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
        np.testing.assert_allclose(vertices[0], [-1.0, -2.0], atol=1e-9)

    def test_segment_endpoints(self):
        data = KKTData(
            grad_f=[1.0],
            hess_f=[[0.0]],
            grad_g=[[-1.0], [-1.0]],
            hess_g=[np.zeros((1, 1))] * 2,
            active=[0, 1],
        )
        vertices = multiplier_vertices(data)
        got = sorted(tuple(row) for row in vertices)
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
        for j, v in enumerate(vertices):
            others = [u for i, u in enumerate(vertices) if i != j]
            a_eq = np.vstack([np.stack(others, axis=1), np.ones((1, len(others)))])
            b_eq = np.concatenate([v, [1.0]])
            with pytest.raises(InfeasibleError):
                lp_solve(np.zeros(len(others)), a_eq, b_eq)

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
        np.testing.assert_allclose(vertices[0], [1.0, 0.0], atol=1e-9)


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

    @pytest.mark.parametrize("r, na, count", [(3, 10, 38), (4, 12, 86), (5, 12, 88)])
    def test_pointed_cone_points(self, r, na, count):
        # MFCQ holds: every active gradient has component -1 along one direction
        rng = np.random.default_rng(5)
        n = r + 3
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        grads = np.zeros((na, n))
        grads[:, 0] = -1.0
        grads[:, 1:r] = rng.uniform(-1.0, 1.0, (na, r - 1))
        grads = grads @ rotation.T
        mu = rng.uniform(0.2, 1.5, na)
        zero = np.zeros((n, n))
        data = KKTData(grad_f=-(mu @ grads), hess_f=zero, grad_g=grads, hess_g=[zero] * na,
                       active=range(na))
        assert assert_same_vertices(data) == count

    def test_no_lstsq_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        rng = np.random.default_rng(12)
        for p1 in (0, 2):
            data = degenerate_kkt_point(rng, 6, p1, [(2, 5), (1, 3)], sparse=True)
            assert len(multiplier_vertices(data)) >= 2

    def test_dependent_equalities(self):
        rng = np.random.default_rng(9)
        data = degenerate_kkt_point(rng, 5, 2, [(2, 4)])
        twin = KKTData(grad_f=data.grad_f, hess_f=data.hessians[0],
                       grad_h=[data.grad_h[0], 2.0 * data.grad_h[0]], hess_h=data.hessians[1:3],
                       grad_g=data.grad_g, hess_g=data.hessians[3:], active=data.active)
        assert assert_same_vertices(twin) is MfcqFailedError


def reference_lagrangian_hessian(data, row):
    """Reference: the per-vertex sum in constraint order that the stack replaced."""
    total = np.array(data.hessians[0])
    for w, h in zip(row, data.hessians[1:]):
        total += w * h
    return MatrixFamily([total]).members[0]


def assert_hessians_match(data, vertices, stack):
    want = np.stack([reference_lagrangian_hessian(data, v) for v in vertices])
    assert stack.tobytes() == want.tobytes()
    for v, hess in zip(vertices, stack):
        assert lagrangian_hessian(data, v).tobytes() == hess.tobytes()


class TestVertexHessians:
    """The vertex Hessians, summed for all vertices at once, equal the per-vertex
    sum bitwise."""

    @pytest.mark.parametrize("p1, blocks", [(0, [(2, 4), (1, 3)]), (1, [(2, 5)]),
                                            (2, [(1, 3), (2, 4)])])
    def test_degenerate_points(self, p1, blocks):
        rng = np.random.default_rng(70 + p1)
        n = p1 + sum(dim for dim, _ in blocks) + 1
        point = degenerate_kkt_point(rng, n, p1, blocks, sparse=True, inactive=1)
        data = KKTData(grad_f=point.grad_f, hess_f=random_sym(rng, n), grad_h=point.grad_h,
                       hess_h=[random_sym(rng, n) for _ in range(p1)], grad_g=point.grad_g,
                       hess_g=[random_sym(rng, n) for _ in range(point.p2)],
                       g_values=point.g_values)
        vertices = multiplier_vertices(data)
        assert len(vertices) >= 2
        assert_hessians_match(data, vertices, nlp._hessian_stack(data, vertices))

    def test_vertex_family(self):
        # a point with equality constraints, at a seed where MFCQ holds
        rng = np.random.default_rng(92)
        point = degenerate_kkt_point(rng, 6, 2, [(1, 3), (2, 4)], sparse=True, inactive=1)
        equalities = KKTData(grad_f=point.grad_f, hess_f=random_sym(rng, 6),
                             grad_h=point.grad_h, hess_h=[random_sym(rng, 6) for _ in range(2)],
                             grad_g=point.grad_g,
                             hess_g=[random_sym(rng, 6) for _ in range(point.p2)],
                             g_values=point.g_values)
        for data in (quad_data(family_two()), equalities):
            _, vertices, family = nlp.vertex_hessians(data)
            assert len(vertices) >= 2
            assert_hessians_match(data, vertices, family.members)


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

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_default_cone_passes_the_given_cone_check(self, eps):
        # one criticality rule: the default cone, given back as a cone, is accepted,
        # whether the near-parallel pair's second direction is in it or not
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        grad_h = np.array([[1.0, 0.0, 0.0], [1.0, eps, 0.0]]) @ q.T
        data = KKTData(grad_f=np.zeros(3), hess_f=np.eye(3), grad_h=grad_h,
                       hess_h=[np.zeros((3, 3))] * 2)
        basis = critical_cone_lineality(data)
        assert basis.shape == (3, 1 if eps > 1e-8 else 2)
        given = FirstOrderCone(3, basis.T)
        cone, _, _ = nlp.vertex_hessians(data, given)
        assert cone is given


def multiplier_row(record):
    """The certified multiplier of a soc record as one row (lam, mu)."""
    return np.concatenate([record["multiplier"]["lambda"], record["multiplier"]["mu"]])


def default_cone_basis(data):
    """Span basis of the cone soc decides on by default: the critical cone's lineality."""
    return span_basis(FirstOrderCone(data.n, critical_cone_lineality(data).T))


class TestSecondOrderCertificate:
    def test_example_one_pipeline(self):
        data = quad_data()
        result = second_order_certificate(data)
        assert result["verdict"] == "certified"
        mult = multiplier_row(result)
        assert stationarity_residual(data, mult) <= 1e-8
        # the certified multiplier's Hessian is PSD on the lineality space
        basis = default_cone_basis(data)
        lam = min_eigenvalue(restrict(lagrangian_hessian(data, mult)[None], basis)[0])
        assert lam >= -1e-9
        # the reference multiplier (0, 3/5, 2/5) validates too
        ref = np.array([0.0, 0.6, 0.4])
        lam_ref = min_eigenvalue(restrict(lagrangian_hessian(data, ref)[None], basis)[0])
        assert lam_ref == pytest.approx((1.4 - np.sqrt(1.8)) / 2, abs=1e-9)

    def test_example_two_pipeline(self):
        data = quad_data(family_two())
        result = second_order_certificate(data)
        assert result["verdict"] == "certified"
        uniform = np.full(3, 1 / 3)
        basis = default_cone_basis(data)
        lam = min_eigenvalue(restrict(lagrangian_hessian(data, uniform)[None], basis)[0])
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_licq_unit_weight(self):
        data = KKTData(
            grad_f=[1.0, 0.0],
            hess_f=np.eye(2),
            grad_h=[[1.0, 0.0]],
            hess_h=[np.zeros((2, 2))],
        )
        result = second_order_certificate(data)
        assert result["verdict"] == "certified"
        assert result["vertex_count"] == 1
        np.testing.assert_allclose(result["multiplier"]["lambda"], [-1.0], atol=1e-9)

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
        assert result["verdict"] == "hypothesis_violated"
        assert "multiplier" not in result

    def test_supplied_cone_validated(self):
        data = quad_data()
        bad = FirstOrderCone(3, [[0.0, 0.0, 1.0]])  # z-direction leaves the critical cone
        with pytest.raises(ConeNotCriticalError):
            second_order_certificate(data, bad)

    def test_supplied_subcone_accepted(self):
        data = quad_data()
        sub = FirstOrderCone(3, [[1.0, 0.0, 0.0]], ray=[0.0, 1.0, 0.0])
        result = second_order_certificate(data, sub)
        assert result["verdict"] == "certified"

    def test_multiplier_in_vertex_hull(self):
        data = quad_data(family_two())
        result = second_order_certificate(data)
        t = result["weights"]
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        recombined = sum(w * row for w, row in zip(t, multiplier_vertices(data)))
        np.testing.assert_allclose(recombined, result["multiplier"]["mu"], atol=1e-12)

    @pytest.mark.parametrize("p1", [0, 1, 2])
    def test_recombine_sums_in_vertex_order(self, p1):
        # the weighted sum over the vertices, in their order, of lam and mu apart,
        # with mu clamped at 0, bit for bit
        rng = np.random.default_rng(60 + p1)
        data = degenerate_kkt_point(rng, p1 + 5, p1, [(2, 4), (1, 3)], inactive=1)
        rows = multiplier_vertices(data)
        weights = rng.random(len(rows))
        weights /= weights.sum()
        lam = sum(w * row[:p1] for w, row in zip(weights, rows))
        mu = np.maximum(sum(w * row[p1:] for w, row in zip(weights, rows)), 0.0)
        got = nlp.recombine(rows, weights, p1)
        assert got.tobytes() == np.concatenate([lam, mu]).tobytes()

    def test_recombination_linearity(self):
        data = quad_data()
        vertices = multiplier_vertices(data)
        rng = np.random.default_rng(1)
        t = rng.random(len(vertices))
        t /= t.sum()
        lhs = lagrangian_hessian(data, nlp.recombine(vertices, t, data.p1))
        rhs = sum(w * lagrangian_hessian(data, v) for w, v in zip(t, vertices))
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())
