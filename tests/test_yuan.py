import math
import sys
from collections import Counter

import numpy as np
import pytest

import yuancert.numeric_core as numeric_core
import yuancert.yuan as yuan_module
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
    pencil_min,
    random_cone,
    random_rank2_family,
    random_sym,
)
from yuancert import (
    Certified,
    FirstOrderCone,
    HypothesisViolated,
    InputError,
    MatrixFamily,
    NumericalFailureError,
    Refuted,
    SimplexWeights,
    SymMatrix,
    certify_rank2,
    cone_contains,
    express_in_basis,
    make_weights,
    matrix_set_rank,
    min_eigenvalue,
    quad_form,
    restrict,
    sample_max_nonneg,
    span_basis,
    sym_eigen,
    yuan_two,
)
from yuancert.numeric_core import flatten_sym, norm_max
from yuancert.yuan import _into_cone

# most exit-4 cases at c = 1 in TestBoundaryCorpus, whose pencil maxima sit on
# the threshold itself, so rounding decides how many witnesses clear it
C1_FAILURES = 2
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
        assert pencil_min(a, b, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_pencil(self):
        a = SymMatrix(np.eye(2))
        b = SymMatrix(-np.eye(2))
        for t in (0.0, 0.25, 0.5, 1.0):
            assert pencil_min(a, b, t) == pytest.approx(2 * t - 1, abs=1e-12)

    def test_derived_point(self):
        val = pencil_min(SymMatrix(EX1_A2), SymMatrix(EX1_A3), 0.6)
        assert val == pytest.approx(LAM_LO, abs=1e-9)

    def test_midpoint_concavity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            scale = 1.0 + max(a.norm_max(), b.norm_max())
            t1, t2 = sorted(rng.uniform(0, 1, size=2))
            mid = pencil_min(a, b, 0.5 * (t1 + t2))
            avg = 0.5 * (pencil_min(a, b, t1) + pencil_min(a, b, t2))
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

    def test_triple_bottom_eigenvalue_refuted(self):
        # t = 1/2 gives exactly -I; A - B is diag(2, 1, -2), so the forms agree
        # on (e1 - e3)/sqrt(2) but on no unit vector of span(e1, e2)
        a, b = SymMatrix(np.diag([0.0, -0.5, -2.0])), SymMatrix(np.diag([-2.0, -1.5, 0.0]))
        out = yuan_two(a, b, FirstOrderCone.full(3)).outcome
        assert isinstance(out, Refuted)
        np.testing.assert_allclose(out.form_values, [-1.0, -1.0], atol=1e-12)

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # g(0) = 2 > 0 but g = -1 at every t > 0, so the bracket shrinks towards 0
        calls = []
        monkeypatch.setattr(yuan_module, "sym_eigen", lambda m: calls.append(m) or sym_eigen(m))
        out = yuan_two(SymMatrix(np.diag([1.0, -2.0])), SymMatrix(-np.eye(2)), FULL2).outcome
        assert isinstance(out, Refuted)
        assert len(calls) <= 2 + 52  # both endpoints, then [0, 1] halved to width 2**-52


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

    @pytest.mark.parametrize("zero_at", [0, 1, 2])
    @pytest.mark.parametrize("zero", [np.zeros((2, 2)), 1e-12 * np.diag([-1.0, -2.0])],
                             ids=["exact", "near"])
    def test_zero_member_takes_unit_weight(self, zero_at, zero):
        # the other two members are jointly negative definite
        members = [np.diag([-1.0, -2.0]), np.diag([-2.0, -1.0])]
        members.insert(zero_at, zero)
        out = certify_rank2(MatrixFamily(members), FULL2).outcome
        assert isinstance(out, Certified)
        expected = np.zeros(3)
        expected[zero_at] = 1.0
        np.testing.assert_array_equal(out.weights.t, expected)

    def test_long_pointed_family_without_recursion(self, monkeypatch):
        # one set-rank call decides the family: no per-member re-ranking,
        # no basis-coordinate solves and no stack frame per member
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (yuan_module, numeric_core):
            for name in ("matrix_set_rank", "express_in_basis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rng = np.random.default_rng(7)
        members = [a * np.eye(3) + b * NP_D for a, b in zip(rng.uniform(0.1, 1.0, 1000),
                                                         rng.uniform(-1.0, 1.0, 1000))]
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
        assert calls == Counter(matrix_set_rank=1)
        out = report.outcome
        assert isinstance(out, Certified)
        combined = sum(w * m for w, m in zip(out.weights.t, members))
        assert min_eigenvalue(SymMatrix(combined)) >= -1e-9 * (1.0 + np.abs(combined).max())


def reference_certify_rank2(family, cone, tol=1e-9):
    """Outcome of the drop-one-member case loop that certify_rank2 replaced.

    Each pass re-ranks the remaining members and either decides or drops
    one of them by the signs of the last member's coordinates in the
    basis pair; rank 1 has its own eigenvalue-based solver. Kept as the
    reference the one-pass decision must agree with; residual bookkeeping
    is left out, the final verification and witness transfer are not.
    """
    syms = family.sym_members()
    m = len(syms)
    basis = span_basis(cone)
    if basis.shape[1] == 0:
        return Certified(SimplexWeights(np.full(m, 1.0 / m)), 0.0)
    restricted = [restrict(s, basis).entries for s in syms]
    scale = 1.0 + max(norm_max(r) for r in restricted)
    threshold = -tol * scale
    top = matrix_set_rank(family, tol)
    if top.rank > 2:
        return HypothesisViolated("rank", rank=top.rank)

    def embed_pair(out, i, j):
        if not isinstance(out, Certified):
            return out
        w = np.zeros(m)
        w[i], w[j] = out.weights.t
        return Certified(make_weights(w), out.lambda_min)

    def solve_rank1(idxs):
        flats = [flatten_sym(syms[i].entries) for i in idxs]
        ref_pos = max(range(len(idxs)), key=lambda p: float(flats[p] @ flats[p]))
        fref = flats[ref_pos]
        coeffs = np.array([float(f @ fref) / float(fref @ fref) for f in flats])
        spec = sym_eigen(SymMatrix(restricted[idxs[ref_pos]]))
        lam_lo, lam_hi = float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])
        tau = tol * scale
        spread = max(abs(lam_lo), abs(lam_hi))

        def unit(pos):
            w = np.zeros(m)
            w[idxs[pos]] = 1.0
            return Certified(SimplexWeights(w), 0.0)

        def uniform():
            w = np.zeros(m)
            w[idxs] = 1.0 / len(idxs)
            return Certified(make_weights(w), 0.0)

        def refute(col):
            x = _into_cone(basis @ spec.basis[:, col], cone)
            return Refuted(x, np.array([quad_form(s, x) for s in syms]))

        if spread <= tau:
            return uniform()
        zero = np.flatnonzero(np.abs(coeffs) * spread <= 0.5 * tau)
        if zero.size:
            return unit(int(zero[0]))
        psd, nsd = lam_lo >= -tau, lam_hi <= tau
        pos, neg = np.flatnonzero(coeffs > 0.0), np.flatnonzero(coeffs < 0.0)
        if psd and nsd:
            return uniform()
        if psd:
            return unit(int(pos[0])) if pos.size else refute(-1)
        if nsd:
            return unit(int(neg[0])) if neg.size else refute(0)
        if pos.size and neg.size:
            i, j = int(pos[0]), int(neg[0])
            ci, cj = coeffs[i], coeffs[j]
            w = np.zeros(m)
            w[idxs[i]] = -cj / (ci - cj)
            w[idxs[j]] = ci / (ci - cj)
            return Certified(make_weights(w), 0.0)
        return refute(0 if pos.size else -1)

    def solve(idxs):
        while True:
            sr = matrix_set_rank(MatrixFamily([syms[i] for i in idxs]), tol)
            if sr.rank == 0:
                w = np.zeros(m)
                w[idxs] = 1.0 / len(idxs)
                return Certified(make_weights(w), 0.0)
            if sr.rank == 1:
                return solve_rank1(idxs)
            if len(idxs) == 2:
                out = yuan_two(syms[idxs[0]], syms[idxs[1]], cone, tol=tol).outcome
                return embed_pair(out, idxs[0], idxs[1])
            b1, b2 = idxs[sr.basis[0]], idxs[sr.basis[1]]
            last = [i for i in idxs if i != b1 and i != b2][-1]
            alpha, beta = express_in_basis(syms[last], syms[b1], syms[b2], tol)
            ctol = tol * (1.0 + abs(alpha) + abs(beta))
            sa = 0 if abs(alpha) <= ctol else (1 if alpha > 0.0 else -1)
            sb = 0 if abs(beta) <= ctol else (1 if beta > 0.0 else -1)
            if sa >= 0 and sb >= 0:
                idxs.remove(last)
            elif sa < 0 and sb == 0:
                return embed_pair(yuan_two(syms[b1], syms[last], cone, tol=tol).outcome, b1, last)
            elif sa == 0 and sb < 0:
                return embed_pair(yuan_two(syms[b2], syms[last], cone, tol=tol).outcome, b2, last)
            elif sa < 0 and sb > 0:
                idxs.remove(b2)
            elif sa > 0 and sb < 0:
                idxs.remove(b1)
            else:
                # alpha < 0 and beta < 0: the combination below is the zero matrix
                denom = 1.0 - alpha - beta
                w = np.zeros(m)
                w[b1], w[b2], w[last] = -alpha / denom, -beta / denom, 1.0 / denom
                return Certified(make_weights(w), 0.0)

    out = solve(list(range(m)))
    if isinstance(out, Certified):
        combined = sum(w * r for w, r in zip(out.weights.t, restricted))
        if min_eigenvalue(SymMatrix(0.5 * (combined + combined.T))) < threshold:
            raise NumericalFailureError("certificate failed verification")
    elif isinstance(out, Refuted):
        values = np.array([quad_form(s, out.witness) for s in syms])
        if not cone_contains(cone, out.witness, 1e-8) or not (values < threshold).all():
            raise NumericalFailureError("witness did not transfer to the full family")
    return out


REFERENCE_KINDS = ("generic", "pointed", "repeated", "opposite", "near_parallel", "rank1")


def reference_family(rng, kind, n, m):
    """Seeded family of one coefficient pattern, with no zero member."""
    p, q = random_sym(rng, n).entries, random_sym(rng, n).entries
    if kind == "rank1":
        base = (p, p @ p.T + 1e-3 * np.eye(n), -(p @ p.T) - 1e-3 * np.eye(n))[rng.integers(3)]
        cs = rng.standard_normal(m) * 10.0 ** rng.integers(-2, 3)
        return MatrixFamily([c * base for c in cs])
    if kind == "near_parallel":
        q = p + 1e-4 * q  # basis pair about 1e-4 apart, as in NEAR_PARALLEL
    if kind == "pointed":
        width = rng.uniform(0.0, 0.95 * math.pi)
        angles = rng.uniform(0.0, 2.0 * math.pi) + rng.uniform(0.0, width, m)
        coef = rng.uniform(0.1, 2.0, (m, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        coef = rng.standard_normal((m, 2))
    members = [a * p + b * q for a, b in coef]
    if kind == "repeated":
        for t in range(1, m // 2 + 1):
            members[-t] = members[int(rng.integers(m // 2))] * float(rng.choice([1.0, 3.0]))
    if kind == "opposite" and m >= 2:
        members[-1] = -members[int(rng.integers(m - 1))]
    return MatrixFamily(members)


def verdict_class(solver, family, cone) -> str:
    try:
        out = solver(family, cone)
    except NumericalFailureError as exc:
        return type(exc).__name__
    return type(getattr(out, "outcome", out)).__name__


class TestAgainstCaseLoop:
    def test_verdict_class_agrees(self):
        rng = np.random.default_rng(2017)
        seen = Counter()
        for trial in range(180):
            kind = REFERENCE_KINDS[trial % len(REFERENCE_KINDS)]
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 31))
            fam = reference_family(rng, kind, n, m)
            shape = trial % 3  # full space, subspace, subspace plus ray
            cone = FirstOrderCone.full(n) if shape == 0 else random_cone(
                rng, n, int(rng.integers(1, n)) if shape == 1 else int(rng.integers(0, n - 1)),
                with_ray=shape == 2)
            want = verdict_class(reference_certify_rank2, fam, cone)
            assert verdict_class(certify_rank2, fam, cone) == want, (trial, kind, n, m)
            seen[want] += 1
        assert seen["Certified"] >= 100 and seen["Refuted"] >= 20
        fam, cone = MatrixFamily(NEAR_PARALLEL), FirstOrderCone.full(3)
        assert verdict_class(certify_rank2, fam, cone) == "Certified"
        assert verdict_class(reference_certify_rank2, fam, cone) == "Certified"


def eigvalsh_pencil_max(a: np.ndarray, b: np.ndarray) -> float:
    """max over [0, 1] of the concave lambda_min(t*a + (1-t)*b), by ternary search."""
    def f(t):
        return float(np.linalg.eigvalsh(t * a + (1.0 - t) * b)[0])

    lo, hi = 0.0, 1.0
    best = max(f(lo), f(hi))
    for _ in range(100):  # (2/3)^100 < 1e-17: the bracket reaches rounding level
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        f1, f2 = f(m1), f(m2)
        best = max(best, f1, f2)
        if f1 <= f2:
            lo = m1
        else:
            hi = m2
    return best


def pair_scale(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 + max(np.abs(a).max(), np.abs(b).max())


def boundary_pencil(rng, c: float, tol: float = 1e-9):
    """A random pencil (n = 2..5) shifted so its maximum sits c*tol*scale below zero."""
    n = int(rng.integers(2, 6))
    a, b = random_sym(rng, n).entries, random_sym(rng, n).entries
    top, eye = eigvalsh_pencil_max(a, b), np.eye(n)
    shift = -top
    for _ in range(3):  # the scale depends on the shift; three rounds settle it
        shift = -top - c * tol * pair_scale(a + shift * eye, b + shift * eye)
    return a + shift * eye, b + shift * eye


def near_opposite_pair(rng):
    """{s0*A, -s1*A + eps*B}: both forms are negative only near x'Ax = 0."""
    n = int(rng.integers(2, 5))
    a, b = random_sym(rng, n).entries, random_sym(rng, n).entries
    s0, s1 = rng.uniform(0.2, 3.0, 2)
    eps = 10.0 ** rng.uniform(-8.4, -4.6)
    return s0 * a, -s1 * a + eps * b


def pencil_verdict(a, b) -> str:
    return verdict_class(lambda fam, cone: yuan_two(*fam.sym_members(), cone),
                         MatrixFamily([a, b]), FirstOrderCone.full(a.shape[0]))


class TestBoundaryCorpus:
    """yuan_two within a few tolerances of its threshold reaches a verdict.

    The pencil maximum is c*tol*scale below zero; at c = 1 it lies on the
    threshold itself, so rounding decides and a few witnesses cannot clear
    it. The near-opposite pairs are refuted on a thin band only.
    """

    def test_shifted_pencils(self):
        failures = {}
        for c in (1, 2, 5, 20):
            rng = np.random.default_rng([2017, c])
            verdicts = Counter(pencil_verdict(*boundary_pencil(rng, c)) for _ in range(60))
            failures[c] = verdicts["NumericalFailureError"]
            if c >= 2:
                assert verdicts["Refuted"] == 60, (c, verdicts)
        assert failures[1] <= C1_FAILURES, failures
        assert {c: failures[c] for c in (2, 5, 20)} == {2: 0, 5: 0, 20: 0}

    def test_near_opposite_pairs(self):
        rng = np.random.default_rng(2018)
        seen = Counter()
        for trial in range(100):
            a, b = near_opposite_pair(rng)
            verdict = pencil_verdict(a, b)
            seen[verdict] += 1
            margin = eigvalsh_pencil_max(a, b) + 1e-9 * pair_scale(a, b)
            if abs(margin) > 1e-9 * pair_scale(a, b):
                assert verdict == ("Certified" if margin > 0.0 else "Refuted"), trial
        assert seen["NumericalFailureError"] == 0, seen
        assert seen["Refuted"] >= 30, seen
