import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    counterexample_family,
    degenerate_kkt_point,
    dependent_row_sets,
    family_one,
    random_sym,
    EX1_A1,
    EX1_A2,
    EX1_A3,
    EX2_A1,
    EX2_A2,
    EX2_A3,
    g300_families,
)
from yuancert import (
    DegenerateBasisError,
    FirstOrderCone,
    InputError,
    KKTData,
    MatrixFamily,
    NotInSpanError,
    NumericalFailureError,
    certify_rank2,
    express_in_basis,
    matrix_set_rank,
    multiplier_vertices,
    min_eigenvalue,
    numerical_rank,
    sym_eigen,
)
from yuancert.instances import load_instance
from yuancert.numeric_core import _gram_schmidt, _normalized_rows, _pivoted_rank, norm_max

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# eigenvalues of [[0.4, -0.6], [-0.6, 1.0]] from its characteristic
# polynomial lam^2 - 1.4 lam + 0.04 = 0, solved by hand
LAM_LO = (1.4 - math.sqrt(1.8)) / 2.0
LAM_HI = (1.4 + math.sqrt(1.8)) / 2.0
M_DERIVED = np.array([[0.4, -0.6], [-0.6, 1.0]])


class TestSymMatrix:
    """A symmetric matrix is a plain array: `sym_eigen` and `KKTData` check and
    mirror the ones they take, with one error text each."""

    NEAR = [[1.0, 2.0 + 1e-14], [2.0, 3.0]]

    def test_mirror_is_exact(self):
        data = KKTData(grad_f=[0.0, 0.0], hess_f=self.NEAR)
        assert data.hessians[0].tolist() == [[1.0, 2.0 + 1e-14], [2.0 + 1e-14, 3.0]]
        # eigh reads the lower triangle, so equal spectra show sym_eigen mirrored it
        assert sym_eigen(self.NEAR)[0].tolist() == sym_eigen(data.hessians[0])[0].tolist()

    @staticmethod
    def takers(n: int):
        """The two public ways in for one n x n symmetric matrix."""
        return sym_eigen, lambda m: KKTData(grad_f=np.zeros(n), hess_f=m)

    def test_rejects_asymmetric(self):
        for take in self.takers(2):
            with pytest.raises(InputError,
                               match=r"^matrix is not symmetric \(asymmetry 1\.500e\+00\)$"):
                take([[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_non_finite(self):
        for take in self.takers(2):
            with pytest.raises(InputError, match="^matrix has non-finite entries$"):
                take([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        for take in self.takers(1):
            with pytest.raises(InputError,
                               match=r"^matrix must be square of order >= 1, got shape \(1, 3\)$"):
                take([[1.0, 2.0, 3.0]])

    def test_entries_read_only(self):
        data = degenerate_kkt_point(np.random.default_rng(2), 4, 1, [(2, 3)])
        with pytest.raises(ValueError):
            data.hessians[0, 0, 0] = 5.0

    def test_kkt_hessians_in_constraint_order(self):
        rng = np.random.default_rng(6)
        hf, hh, hg = random_sym(rng, 3), [random_sym(rng, 3)], [random_sym(rng, 3)] * 2
        data = KKTData(grad_f=np.ones(3), hess_f=hf, grad_h=np.ones((1, 3)), hess_h=hh,
                       grad_g=np.eye(3)[:2], hess_g=hg, active=[0])
        assert data.hessians.shape == (4, 3, 3)
        assert data.hessians.tobytes() == np.stack([hf, *hh, *hg]).tobytes()


class TestSymEigen:
    def test_identity(self):
        vals, basis = sym_eigen(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0])
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)

    def test_already_diagonal(self):
        vals, basis = sym_eigen(np.diag([-1.0, 1.0]))
        np.testing.assert_allclose(vals, [-1.0, 1.0])
        np.testing.assert_allclose(np.abs(basis), np.eye(2), atol=1e-12)

    def test_derived_two_by_two(self):
        vals, basis = sym_eigen(M_DERIVED)
        np.testing.assert_allclose(vals, [LAM_LO, LAM_HI], atol=1e-12)

    def test_deterministic(self):
        m = M_DERIVED
        vals1, basis1 = sym_eigen(m)
        vals2, basis2 = sym_eigen(m)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(basis1, basis2)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = random_sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            vals, basis = sym_eigen(m)
            scale = 1.0 + norm_max(m)
            recon = basis @ np.diag(vals) @ basis.T
            assert np.abs(recon - m).max() <= 1e-9 * scale
            assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-10
            assert (np.diff(vals) >= 0).all()

    def test_rayleigh_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            m = random_sym(rng, n)
            lam = min_eigenvalue(m)
            scale = 1.0 + norm_max(m)
            for _ in range(5):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                assert x @ m @ x >= lam - 1e-9 * scale

    @pytest.mark.parametrize(
        "mat",
        [np.eye(12), np.diag([-2.0, -2.0, -2.0, 0.5, 3.0])],
        ids=["identity12", "triple_bottom"],
    )
    def test_repeated_bottom_eigenvalue(self, mat):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal(mat.shape))
        m = q @ mat @ q.T
        vals, basis = sym_eigen(m)
        n = mat.shape[0]
        np.testing.assert_allclose(vals, np.sort(np.diag(mat)), atol=1e-12)
        assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-12
        bottom = basis[:, np.abs(vals - vals[0]) <= 1e-9]
        np.testing.assert_allclose(m @ bottom, vals[0] * bottom, atol=1e-12)

    def test_order_one(self):
        vals, basis = sym_eigen([[-3.5]])
        assert vals.tolist() == [-3.5]
        assert np.abs(basis).tolist() == [[1.0]]

    def test_zero_matrix(self):
        vals, basis = sym_eigen(np.zeros((4, 4)))
        assert (vals == 0.0).all()
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-15)

    def test_arrays_read_only_and_contiguous(self):
        for arr in sym_eigen(M_DERIVED):
            assert arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_min_eigenvalue_is_first_eigenvalue(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 12):
            m = random_sym(rng, n)
            assert min_eigenvalue(m) == sym_eigen(m)[0][0]

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError):
            sym_eigen(M_DERIVED)


class TestMinEigenvalue:
    def test_zero_matrix(self):
        assert min_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_negative_identity(self):
        assert min_eigenvalue(-np.eye(3)) == pytest.approx(-1.0, abs=1e-12)

    def test_derived(self):
        assert min_eigenvalue(M_DERIVED) == pytest.approx(LAM_LO, abs=1e-9)


class TestQuadForm:
    """Form values x'Ax of the worked examples, written inline."""

    def test_identity(self):
        x = np.array([3.0, 4.0])
        assert x @ np.eye(2) @ x == pytest.approx(25.0)

    def test_example_two_values(self):
        x = np.array([1.0, -0.3])
        assert x @ EX2_A1 @ x == pytest.approx(-0.91, abs=1e-12)
        assert x @ EX2_A2 @ x == pytest.approx(-0.38, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    def test_even_in_sign(self, x):
        m, x = M_DERIVED, np.array(x)
        assert x @ m @ x == (-x) @ m @ (-x)


class TestMatrixFamily:
    def test_members_are_one_read_only_stack(self):
        fam = MatrixFamily([EX1_A1, EX1_A2, EX1_A3.tolist()])
        assert isinstance(fam.members, np.ndarray)
        assert fam.members.shape == (3, 2, 2)
        assert not fam.members.flags.writeable
        with pytest.raises(ValueError):
            fam.members[0, 0, 0] = 5.0

    def test_symmetric_members_equal_their_transposes(self):
        rng = np.random.default_rng(7)
        raw = [random_sym(rng, 4) + 1e-14 * rng.standard_normal((4, 4))
               for _ in range(3)]
        fam = MatrixFamily(raw)
        assert fam.symmetric
        assert np.array_equal(fam.members, np.swapaxes(fam.members, 1, 2))
        for mem, mat in zip(fam.members, raw):
            assert np.array_equal(mem, np.triu(mat) + np.triu(mat, 1).T)

    def test_counterexample_file_is_not_symmetric(self):
        fam = load_instance(INSTANCES / "counterexample.json")
        assert fam.symmetric is False
        assert np.array_equal(fam.members, counterexample_family().members)


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


class TestSetRankAcrossTheFloatRange:
    """Each row is scaled by a power of two before its norm, so no square in it
    overflows or underflows and one member may sit anywhere in the float range."""

    def test_normalized_rows_equal_the_plain_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rows = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 12))))
            rows *= rng.uniform(0.01, 100.0, (len(rows), 1))
            rows[rng.random(len(rows)) < 0.1] = 0.0
            norms = np.linalg.norm(rows, axis=1)
            plain = np.where(norms[:, None] > 0.0,
                             rows / np.where(norms == 0.0, 1.0, norms)[:, None], 0.0)
            assert _normalized_rows(rows).tobytes() == plain.tobytes()

    def test_one_member_scaled_by_powers_of_two(self):
        families = g300_families()
        ranks = [matrix_set_rank(MatrixFamily(f)).rank for f in families]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-1010, -700, -550, 550, 700, 1015):
                moved = [i for i, (f, r) in enumerate(zip(families, ranks))
                         if matrix_set_rank(MatrixFamily([np.ldexp(f[0], k), *f[1:]])).rank != r]
                assert moved == [], (k, moved)

    @pytest.mark.parametrize("members, rank", [
        ([np.diag([1.0, -1.0]), 1e-170 * np.eye(2)], 2),
        ([np.diag([1.0, -1.0]), 1e160 * np.eye(2)], 2),
        ([np.diag([1e308, -1e308])], 1),
        ([np.diag([1e308, -1e308]), np.diag([-1e308, 1e308])], 1),
        ([np.array([[0.0, 1.3e308], [1.3e308, 0.0]])], 1),
    ], ids=["tiny", "huge", "near_max", "near_max_pair", "near_max_off_diagonal"])
    def test_extreme_members(self, members, rank):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matrix_set_rank(MatrixFamily(members)).rank == rank


class TestBasisCoordinates:
    """Every member's coordinates come from one formula at rank 1 and rank 2:
    projections on the basis members' orthonormal vectors, solved against the
    basis members' own, with the members' powers of two put back last."""

    def test_member_far_smaller_than_the_others(self):
        # a least-squares solve with a relative cutoff dropped member 0 here
        fam = MatrixFamily([np.diag([1.0, -1.0]), 1e20 * np.eye(2), -1e20 * np.eye(2)])
        result = matrix_set_rank(fam)
        assert result.rank == 2 and result.basis == (0, 1)
        np.testing.assert_allclose(result.coefficients, [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                   rtol=0.0, atol=1e-15)
        record = certify_rank2(fam, FirstOrderCone.full(2))
        assert record["residuals"]["basis_fit_residual"] <= 1e-15

    @pytest.mark.parametrize("base, multiples", [
        (EX1_A1, [1.0, -3.0, 0.25, 0.0]),
        (np.diag([9e153, -9e153]), [1.0, -1e160 / 9e153]),
        (np.diag([1e308, -1e308]), [1.0, -1.0]),
        (np.array([[0.0, 1.3e-300], [1.3e-300, 0.0]]), [1.0, 2.0 ** 600, -(2.0 ** 1000)]),
    ], ids=["small", "wide", "near_max", "tiny_base"])
    def test_rank_one_coordinates_are_the_multiples(self, base, multiples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = matrix_set_rank(MatrixFamily([c * base for c in multiples]))
        assert result.rank == 1 and result.basis == (0,)
        np.testing.assert_allclose(result.coefficients[:, 0], multiples, rtol=1e-15)
        assert (result.coefficients[:, 1] == 0.0).all()

    def test_multiple_past_the_float_range_reads_inf(self):
        members = [np.diag([1e-300, -1e-300]), np.diag([1e300, -1e300])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = matrix_set_rank(MatrixFamily(members))
        assert result.coefficients.tolist() == [[1.0, 0.0], [math.inf, 0.0]]

    def test_pivot_basis_when_the_thresholds_disagree(self):
        # at tol 0.3 Gram-Schmidt in index order keeps member 0 alone, while the
        # pivoted elimination starts at member 1 (its unit row is longer by
        # rounding) and finds rank 2: the basis falls back to the pivots
        members = [np.diag([-1.7997163589178715, 0.7795110521284745]),
                   np.diag([-1.823301602645885, 0.29188032851772094]),
                   np.diag([-1.3967671938598556, 1.0812130056142137])]
        result = matrix_set_rank(MatrixFamily(members), 0.3)
        assert result.rank == 2 and result.basis == (1, 2)
        recon = [al * members[1] + be * members[2] for al, be in result.coefficients]
        np.testing.assert_allclose(recon, members, rtol=0.0, atol=1e-14)

    def test_rank_two_basis_members_get_unit_coordinates(self):
        for members in g300_families()[:100]:
            result = matrix_set_rank(MatrixFamily(members))
            np.testing.assert_allclose(result.coefficients[list(result.basis)], np.eye(2),
                                       rtol=0.0, atol=1e-12)


def reference_greedy_basis(rows: np.ndarray, tol: float, size: int) -> list[int]:
    """Reference: the set rank's own basis loop before the shared kernel.
    First `size` members independent in index order (rows pre-normalized)."""
    basis: list[int] = []
    qs: list[np.ndarray] = []
    for idx in range(rows.shape[0]):
        if len(basis) == size:
            break
        v = rows[idx].copy()
        for _ in range(2):
            for q in qs:
                v -= (v @ q) * q
        nv = float(np.linalg.norm(v))
        if nv > tol:
            basis.append(idx)
            qs.append(v / nv)
    return basis


class TestGramSchmidt:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 0.3])
    def test_matches_the_set_rank_basis_loop(self, tol):
        rng = np.random.default_rng(23)
        short = 0
        for rows in dependent_row_sets(rng, 600):
            unit = _normalized_rows(rows)
            m = len(unit)
            for size in range(m + 2):
                kept, qs = _gram_schmidt(unit, np.full(m, tol), size)
                assert kept == reference_greedy_basis(unit, tol, size)
                assert len(qs) == len(kept)
            short += len(kept) < m
        assert short > 300


class TestExpressInBasis:
    def test_example_one(self):
        alpha, beta = express_in_basis(EX1_A3, EX1_A1, EX1_A2)
        assert alpha == pytest.approx(2.0, abs=1e-9)
        assert beta == pytest.approx(-1.0, abs=1e-9)

    def test_example_two(self):
        alpha, beta = express_in_basis(EX2_A3, EX2_A1, EX2_A2)
        assert alpha == pytest.approx(-1.0, abs=1e-9)
        assert beta == pytest.approx(-1.0, abs=1e-9)

    def test_basis_member_itself(self):
        alpha, beta = express_in_basis(EX1_A1, EX1_A1, EX1_A2)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_basis(self):
        with pytest.raises(DegenerateBasisError):
            express_in_basis(EX1_A1, EX1_A2, 2.0 * EX1_A2)

    def test_not_in_span(self):
        with pytest.raises(NotInSpanError):
            express_in_basis(
                np.diag([1.0, 0.0, 0.0]),
                np.diag([0.0, 1.0, 0.0]),
                np.diag([0.0, 0.0, 1.0]),
            )

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            b1 = random_sym(rng, n)
            b2 = random_sym(rng, n)
            alpha, beta = rng.standard_normal(2) * 3.0
            target = alpha * b1 + beta * b2
            got_a, got_b = express_in_basis(target, b1, b2)
            recon = got_a * b1 + got_b * b2
            assert np.abs(recon - target).max() <= 1e-9 * (1.0 + norm_max(target))


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
