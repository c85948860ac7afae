import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    counterexample_family,
    degenerate_kkt_point,
    family_one,
    random_sym,
    EX1_A1,
    EX1_A2,
    EX1_A3,
    EX2_A1,
    EX2_A2,
    EX2_A3,
)
from yuancert import (
    DegenerateBasisError,
    InputError,
    MatrixFamily,
    NotInSpanError,
    NumericalFailureError,
    SymMatrix,
    express_in_basis,
    matrix_set_rank,
    multiplier_vertices,
    min_eigenvalue,
    numerical_rank,
    quad_form,
    sym_eigen,
)
from yuancert.numeric_core import _pivoted_rank

# eigenvalues of [[0.4, -0.6], [-0.6, 1.0]] from its characteristic
# polynomial lam^2 - 1.4 lam + 0.04 = 0, solved by hand
LAM_LO = (1.4 - math.sqrt(1.8)) / 2.0
LAM_HI = (1.4 + math.sqrt(1.8)) / 2.0
M_DERIVED = np.array([[0.4, -0.6], [-0.6, 1.0]])


class TestSymMatrix:
    def test_mirror_is_exact(self):
        m = SymMatrix([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            SymMatrix([[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            SymMatrix([[1.0, 2.0, 3.0]])

    def test_entries_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestSymEigen:
    def test_identity(self):
        spec = sym_eigen(SymMatrix(np.eye(2)))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(spec.basis.T @ spec.basis, np.eye(2), atol=1e-12)

    def test_already_diagonal(self):
        spec = sym_eigen(SymMatrix(np.diag([-1.0, 1.0])))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0])
        np.testing.assert_allclose(np.abs(spec.basis), np.eye(2), atol=1e-12)

    def test_derived_two_by_two(self):
        spec = sym_eigen(SymMatrix(M_DERIVED))
        np.testing.assert_allclose(spec.eigenvalues, [LAM_LO, LAM_HI], atol=1e-12)

    def test_deterministic(self):
        m = SymMatrix(M_DERIVED)
        s1 = sym_eigen(m)
        s2 = sym_eigen(m)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.basis, s2.basis)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = random_sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            spec = sym_eigen(m)
            scale = 1.0 + m.norm_max()
            recon = spec.basis @ np.diag(spec.eigenvalues) @ spec.basis.T
            assert np.abs(recon - m.entries).max() <= 1e-9 * scale
            assert np.abs(spec.basis.T @ spec.basis - np.eye(n)).max() <= 1e-10
            assert (np.diff(spec.eigenvalues) >= 0).all()

    def test_rayleigh_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            m = random_sym(rng, n)
            lam = min_eigenvalue(m)
            scale = 1.0 + m.norm_max()
            for _ in range(5):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                assert quad_form(m, x) >= lam - 1e-9 * scale

    @pytest.mark.parametrize(
        "mat",
        [np.eye(12), np.diag([-2.0, -2.0, -2.0, 0.5, 3.0])],
        ids=["identity12", "triple_bottom"],
    )
    def test_repeated_bottom_eigenvalue(self, mat):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal(mat.shape))
        m = SymMatrix(q @ mat @ q.T)
        spec = sym_eigen(m)
        n = mat.shape[0]
        np.testing.assert_allclose(spec.eigenvalues, np.sort(np.diag(mat)), atol=1e-12)
        assert np.abs(spec.basis.T @ spec.basis - np.eye(n)).max() <= 1e-12
        bottom = spec.basis[:, np.abs(spec.eigenvalues - spec.eigenvalues[0]) <= 1e-9]
        np.testing.assert_allclose(m.entries @ bottom, spec.eigenvalues[0] * bottom, atol=1e-12)

    def test_order_one(self):
        spec = sym_eigen(SymMatrix([[-3.5]]))
        assert spec.eigenvalues.tolist() == [-3.5]
        assert np.abs(spec.basis).tolist() == [[1.0]]

    def test_zero_matrix(self):
        spec = sym_eigen(SymMatrix(np.zeros((4, 4))))
        assert (spec.eigenvalues == 0.0).all()
        np.testing.assert_allclose(spec.basis.T @ spec.basis, np.eye(4), atol=1e-15)

    def test_arrays_read_only_and_contiguous(self):
        spec = sym_eigen(SymMatrix(M_DERIVED))
        for arr in (spec.eigenvalues, spec.basis):
            assert arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_min_eigenvalue_is_first_eigenvalue(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 12):
            m = random_sym(rng, n)
            assert min_eigenvalue(m) == sym_eigen(m).eigenvalues[0]

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError):
            sym_eigen(SymMatrix(M_DERIVED))


class TestMinEigenvalue:
    def test_zero_matrix(self):
        assert min_eigenvalue(SymMatrix(np.zeros((3, 3)))) == 0.0

    def test_negative_identity(self):
        assert min_eigenvalue(SymMatrix(-np.eye(3))) == pytest.approx(-1.0, abs=1e-12)

    def test_derived(self):
        assert min_eigenvalue(SymMatrix(M_DERIVED)) == pytest.approx(LAM_LO, abs=1e-9)


class TestQuadForm:
    def test_identity(self):
        assert quad_form(SymMatrix(np.eye(2)), [3.0, 4.0]) == pytest.approx(25.0)

    def test_example_two_values(self):
        x = [1.0, -0.3]
        assert quad_form(SymMatrix(EX2_A1), x) == pytest.approx(-0.91, abs=1e-12)
        assert quad_form(SymMatrix(EX2_A2), x) == pytest.approx(-0.38, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            quad_form(SymMatrix(np.eye(2)), [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    def test_even_in_sign(self, x):
        m = SymMatrix(M_DERIVED)
        assert quad_form(m, x) == quad_form(m, [-v for v in x])


class TestMatrixSetRank:
    def test_example_one(self):
        result = matrix_set_rank(family_one())
        assert result.rank == 2
        assert result.basis == (0, 1)
        np.testing.assert_allclose(result.coefficients[2], [2.0, -1.0], atol=1e-9)

    def test_zero_family(self):
        assert matrix_set_rank(MatrixFamily([np.zeros((2, 2)), np.zeros((2, 2))])).rank == 0

    def test_counterexample_rank_three(self):
        assert matrix_set_rank(counterexample_family()).rank == 3

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        fam = family_one()
        for _ in range(5):
            perm = rng.permutation(3)
            shuffled = MatrixFamily([fam.members[i] for i in perm])
            assert matrix_set_rank(shuffled).rank == 2

    def test_scaling_invariant(self):
        for factor in (1e-6, -3.0, 1e6):
            fam = MatrixFamily([EX1_A1 * factor, EX1_A2, EX1_A3])
            assert matrix_set_rank(fam).rank == 2

    def test_mixed_orders_rejected(self):
        with pytest.raises(InputError):
            MatrixFamily([np.eye(2), np.eye(3)])


class TestExpressInBasis:
    def test_example_one(self):
        alpha, beta = express_in_basis(SymMatrix(EX1_A3), SymMatrix(EX1_A1), SymMatrix(EX1_A2))
        assert alpha == pytest.approx(2.0, abs=1e-9)
        assert beta == pytest.approx(-1.0, abs=1e-9)

    def test_example_two(self):
        alpha, beta = express_in_basis(SymMatrix(EX2_A3), SymMatrix(EX2_A1), SymMatrix(EX2_A2))
        assert alpha == pytest.approx(-1.0, abs=1e-9)
        assert beta == pytest.approx(-1.0, abs=1e-9)

    def test_basis_member_itself(self):
        alpha, beta = express_in_basis(SymMatrix(EX1_A1), SymMatrix(EX1_A1), SymMatrix(EX1_A2))
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasisError):
            express_in_basis(SymMatrix(EX1_A1), SymMatrix(EX1_A2), SymMatrix(2.0 * EX1_A2))

    def test_not_in_span(self):
        with pytest.raises(NotInSpanError):
            express_in_basis(
                SymMatrix(np.diag([1.0, 0.0, 0.0])),
                SymMatrix(np.diag([0.0, 1.0, 0.0])),
                SymMatrix(np.diag([0.0, 0.0, 1.0])),
            )

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            b1 = random_sym(rng, n)
            b2 = random_sym(rng, n)
            alpha, beta = rng.standard_normal(2) * 3.0
            target = SymMatrix(alpha * b1.entries + beta * b2.entries)
            got_a, got_b = express_in_basis(target, b1, b2)
            recon = got_a * b1.entries + got_b * b2.entries
            assert np.abs(recon - target.entries).max() <= 1e-9 * (1.0 + target.norm_max())


class TestNumericalRank:
    def test_counterexample_jacobian_columns(self):
        # flattened by hand: (1,0,0,0), (1,0,0,1), (1,0,1,0) are independent
        cols = np.array([[1.0, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]]).T
        assert numerical_rank(cols) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 2))) == 0


def reference_pivoted_rank(rows, tol):
    """Reference: max-norm-pivoted elimination of one row set, row by row."""
    work = np.array(rows, dtype=float)
    m = work.shape[0]
    used = np.zeros(m, dtype=bool)
    pivots = []
    limit = 0.0
    for step in range(m):
        norms = np.linalg.norm(work, axis=1)
        norms[used] = -1.0
        j = int(np.argmax(norms))
        if step == 0:
            limit = tol * norms[j]
        if norms[j] <= limit or norms[j] <= 0.0:
            break
        used[j] = True
        pivots.append(j)
        q = work[j] / norms[j]
        work -= np.outer(work @ q, q)
        work[j] = 0.0
    return len(pivots), pivots


def seeded_row_sets(rng, shape, count):
    """Row sets of one shape: generic, with zero rows, exactly rank
    deficient, or rank deficient up to 1e-11 noise."""
    m, d = shape
    sets = []
    for k in range(count):
        rows = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0, (m, 1))
        kind = k % 4
        if kind == 1:
            rows[rng.random(m) < 0.3] = 0.0
        elif kind >= 2 and m >= 2:
            r = int(rng.integers(1, m))
            rows[r:] = rng.standard_normal((m - r, r)) @ rows[:r]
            if kind == 3:
                rows[r:] += 1e-11 * rng.standard_normal((m - r, d))
        sets.append(rows)
    return np.stack(sets)


class TestStackedPivotedRank:
    @pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-12])
    def test_matches_row_by_row_elimination(self, tol):
        rng = np.random.default_rng(17)
        checked = deficient = 0
        for shape in [(1, 3), (2, 2), (3, 5), (4, 4), (5, 8), (6, 3), (8, 12)]:
            stack = seeded_row_sets(rng, shape, 50)
            ranks, pivots = _pivoted_rank(stack, tol)
            for k, rows in enumerate(stack):
                rank, order = reference_pivoted_rank(rows, tol)
                assert ranks[k] == rank
                assert pivots[k, :rank].tolist() == order
                assert (pivots[k, rank:] == -1).all()
                checked += 1
                deficient += rank < min(shape)
        assert checked == 350 and deficient > 100

    def test_sets_do_not_interact(self):
        rng = np.random.default_rng(18)
        stack = seeded_row_sets(rng, (5, 6), 40)
        ranks, pivots = _pivoted_rank(stack, 1e-9)
        for k in range(len(stack)):
            one_rank, one_pivots = _pivoted_rank(stack[k:k + 1], 1e-9)
            assert one_rank[0] == ranks[k]
            assert (one_pivots[0] == pivots[k]).all()

    def test_empty_and_zero_sets(self):
        ranks, pivots = _pivoted_rank(np.zeros((3, 0, 4)), 1e-9)
        assert ranks.tolist() == [0, 0, 0] and pivots.shape == (3, 0)
        ranks, _ = _pivoted_rank(np.zeros((2, 3, 4)), 1e-9)
        assert ranks.tolist() == [0, 0]

    def test_vertex_enumeration_memory(self):
        # 18 active constraints and column rank 4: C(18, 4) = 3060 subsets,
        # tested in blocks instead of one 3060 x 4 x 8 stack
        data = degenerate_kkt_point(np.random.default_rng(11), 8, 0, [(2, 9), (2, 9)])
        multiplier_vertices(data)
        tracemalloc.start()
        try:
            vertices = multiplier_vertices(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vertices) > 10
        assert peak < 1_000_000
