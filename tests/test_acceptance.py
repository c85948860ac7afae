"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the runtime budgets cover the computation
itself, not fixture setup.
"""

import math
import time
from pathlib import Path

import numpy as np

from conftest import (
    EX1_A2,
    EX1_A3,
    EX2_A1,
    EX2_A2,
    EX2_A3,
    counterexample_family,
    family_one,
    family_two,
    pencil_min,
    psd,
)
from hull_reference import hull_psd_search
from yuancert import (
    Certified,
    FirstOrderCone,
    MatrixFamily,
    NoWitnessFound,
    QuadProblem,
    Refuted,
    SymMatrix,
    certify_rank2,
    check_mfcq,
    critical_cone_lineality,
    extract_dependence,
    jacobian_at,
    lagrangian_hessian,
    matrix_set_rank,
    min_eigenvalue,
    multiplier_vertices,
    numerical_rank,
    quad_form,
    restrict,
    sample_max_nonneg,
    second_order_certificate,
    simplex_grid_search,
    span_basis,
    sym_eigen,
    quad_certificate,
    to_kkt,
    yuan_two,
)
from yuancert.cli import main

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
LAM_REF = (1.4 - math.sqrt(1.8)) / 2.0


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report_line(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_sym(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n)) * scale
    return SymMatrix(0.5 * (raw + raw.T))


def test_criterion_1_example_one(capsys):
    with Stopwatch() as clock:
        report = certify_rank2(family_one(), FirstOrderCone.full(2))
    ok = isinstance(report.outcome, Certified)
    combined = 0.6 * EX1_A2 + 0.4 * EX1_A3
    ok = ok and np.abs(combined - np.array([[0.4, -0.6], [-0.6, 1.0]])).max() <= 1e-12
    lam = min_eigenvalue(SymMatrix(combined))
    ok = ok and abs(lam - LAM_REF) <= 1e-9
    ok = ok and main(["certify", str(INSTANCES / "example1.json")]) == 0
    ok = ok and clock.elapsed < 0.1
    with capsys.disabled():
        report_line(1, "example-one reproduction", ok,
                    f"lambda_min={lam:.9f} vs {LAM_REF:.9f}, {clock.elapsed * 1e3:.1f} ms")


def test_criterion_2_example_two(capsys):
    with Stopwatch() as clock:
        report = certify_rank2(family_two(), FirstOrderCone.full(2))
        ok = isinstance(report.outcome, Certified)
        uniform = (EX2_A1 + EX2_A2 + EX2_A3) / 3.0
        ok = ok and np.abs(uniform).max() <= 1e-15
        ok = ok and abs(min_eigenvalue(SymMatrix(uniform))) <= 1e-12
        pair_margins = []
        for a, b in ((EX2_A1, EX2_A2), (EX2_A1, EX2_A3), (EX2_A2, EX2_A3)):
            pair = yuan_two(SymMatrix(a), SymMatrix(b), FirstOrderCone.full(2))
            out = pair.outcome
            ok = ok and isinstance(out, Refuted)
            values = [quad_form(SymMatrix(a), out.witness), quad_form(SymMatrix(b), out.witness)]
            ok = ok and max(values) < -1e-6
            pair_margins.append(max(values))
    ok = ok and main(["certify", str(INSTANCES / "example2.json")]) == 0
    ok = ok and main(["yuan2", str(INSTANCES / "example2_pair12.json")]) == 1
    ok = ok and clock.elapsed < 0.5
    with capsys.disabled():
        report_line(2, "example-two reproduction", ok,
                    f"pair margins {', '.join(f'{v:.3f}' for v in pair_margins)}, "
                    f"{clock.elapsed * 1e3:.1f} ms")


def test_criterion_3_counterexample(capsys):
    with Stopwatch() as clock:
        rank = matrix_set_rank(counterexample_family()).rank
        ok = rank == 3
        prob = QuadProblem(counterexample_family(), ray_constant=1.0)
        rng = np.random.default_rng(42)
        max_jac = 0
        for _ in range(1000):
            x = rng.standard_normal(2)
            x *= rng.random() ** 0.5 / max(np.linalg.norm(x), 1e-12)
            max_jac = max(max_jac, numerical_rank(jacobian_at(prob, x)))
        ok = ok and max_jac <= 2
    ok = ok and clock.elapsed < 1.0
    with capsys.disabled():
        report_line(3, "symmetry-necessity counterexample", ok,
                    f"set rank {rank}, max jacobian rank {max_jac}, "
                    f"{clock.elapsed * 1e3:.0f} ms")


def test_criterion_4_quadratic_pipeline(capsys):
    with Stopwatch() as clock:
        prob = QuadProblem(family_one())
        data = to_kkt(prob)
        vertices = multiplier_vertices(data)
        got = sorted(tuple(np.round(v.mu, 8)) for v in vertices)
        ok = got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        ok = ok and check_mfcq(data)
        lineality = critical_cone_lineality(data)
        ok = ok and lineality.shape == (3, 2)
        ok = ok and np.abs(lineality @ lineality.T - np.diag([1.0, 1.0, 0.0])).max() <= 1e-10
        soc = second_order_certificate(data)
        direct = quad_certificate(prob)
        ok = ok and isinstance(soc.report.outcome, Certified)
        ok = ok and isinstance(direct.outcome, Certified)
        basis = span_basis(soc.cone)
        lam_soc = min_eigenvalue(restrict(lagrangian_hessian(data, soc.multiplier), basis))
        ok = ok and lam_soc >= -1e-9
        combined = sum(w * mem for w, mem in zip(direct.outcome.weights.t, family_one().members))
        lam_direct = min_eigenvalue(SymMatrix(combined))
        ok = ok and lam_direct >= -1e-9
    ok = ok and clock.elapsed < 1.0
    with capsys.disabled():
        report_line(4, "quadratic pipeline", ok,
                    f"lambda_min soc={lam_soc:.6f} direct={lam_direct:.6f}, "
                    f"{clock.elapsed * 1e3:.0f} ms")


def test_criterion_5_dependence_extraction(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    with Stopwatch() as clock:
        for trial in range(100):
            n = int(rng.integers(2, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            if trial % 5 < 3:
                delta = 10.0 ** rng.uniform(-2.0, 3.0)
            else:
                delta = -(10.0 ** rng.uniform(-2.0, math.log10(0.99)))
            c = SymMatrix((a.entries + delta * b.entries) / (1.0 + delta))
            result = extract_dependence(a, b, c)
            rel = abs(result.delta - delta) / abs(delta)
            worst = max(worst, rel)
        ok = worst <= 1e-8
    ok = ok and clock.elapsed < 5.0
    with capsys.disabled():
        report_line(5, "dependence extraction", ok,
                    f"worst relative delta error {worst:.3e}, {clock.elapsed:.2f} s")


def test_criterion_6_oracle_equivalence(capsys):
    disagreements = 0
    certified = refuted = 0
    with Stopwatch() as clock:
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            b1, b2 = random_sym(rng, n).entries, random_sym(rng, n).entries
            fam = MatrixFamily(
                [rng.standard_normal() * b1 + rng.standard_normal() * b2 for _ in range(m)]
            )
            cone = FirstOrderCone.full(n)
            report = certify_rank2(fam, cone)
            _, hull_best = hull_psd_search(fam, cone)
            if isinstance(report.outcome, Certified):
                certified += 1
                verdict = sample_max_nonneg(fam, cone, samples=10_000, seed=seed)
                if not isinstance(verdict, NoWitnessFound) or hull_best < -1e-6:
                    disagreements += 1
            else:
                refuted += 1
                assert isinstance(report.outcome, Refuted)
                _, grid_best = simplex_grid_search(fam, cone, 50)
                if grid_best >= 1e-6 or hull_best >= 1e-6:
                    disagreements += 1
        ok = disagreements == 0
    ok = ok and clock.elapsed < 60.0
    with capsys.disabled():
        report_line(6, "oracle equivalence", ok,
                    f"{certified} certified / {refuted} refuted, "
                    f"{disagreements} disagreements, {clock.elapsed:.1f} s")


def test_criterion_7_pencil_concavity(capsys):
    rng = np.random.default_rng(11)
    worst = -math.inf
    with Stopwatch() as clock:
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a, b = random_sym(rng, n), random_sym(rng, n)
            scale = 1.0 + max(a.norm_max(), b.norm_max())
            for _ in range(20):
                t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
                mid = pencil_min(a, b, 0.5 * (t1 + t2))
                avg = 0.5 * (pencil_min(a, b, t1) + pencil_min(a, b, t2))
                worst = max(worst, (avg - mid) / scale)
        ok = worst <= 1e-10
    with capsys.disabled():
        report_line(7, "pencil concavity", ok,
                    f"worst midpoint defect {worst:.3e}, {clock.elapsed:.2f} s")


def test_criterion_8_span_reduction(capsys):
    mismatches = 0
    with Stopwatch() as clock:
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n - 1))
            cone = FirstOrderCone(
                n, rng.standard_normal((k, n)) if k else (), ray=rng.standard_normal(n)
            )
            basis = span_basis(cone)
            width = basis.shape[1]
            raw = random_sym(rng, n).entries
            if rng.random() < 0.5:
                g = rng.standard_normal((n, n))
                mat = SymMatrix(g @ g.T)
            else:
                z = rng.standard_normal(width)
                u = basis @ (z / np.linalg.norm(z))
                drop = quad_form(SymMatrix(raw), u) + 1.0 * (1.0 + np.abs(raw).max())
                mat = SymMatrix(raw - drop * np.outer(u, u))
            restricted_psd = psd(restrict(mat, basis))
            z = rng.standard_normal((1000, width))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            scale = 1.0 + mat.norm_max()
            sampled_min = min(quad_form(mat, x) for x in z @ basis.T)
            if (sampled_min >= -1e-9 * scale) != restricted_psd:
                mismatches += 1
            fam = MatrixFamily([mat, SymMatrix(raw)])
            span_cone = FirstOrderCone(n, basis.T)
            on_cone = sample_max_nonneg(fam, cone, samples=1000, seed=trial)
            on_span = sample_max_nonneg(fam, span_cone, samples=1000, seed=trial)
            if isinstance(on_cone, NoWitnessFound) != isinstance(on_span, NoWitnessFound):
                mismatches += 1
        ok = mismatches == 0
    with capsys.disabled():
        report_line(8, "span reduction", ok,
                    f"{mismatches} verdict mismatches, {clock.elapsed:.2f} s")


def test_criterion_9_eigensolver_contract(capsys):
    rng = np.random.default_rng(99)
    worst_recon = worst_orth = 0.0
    with Stopwatch() as clock:
        for _ in range(500):
            n = int(rng.integers(1, 13))
            mat = random_sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            spec = sym_eigen(mat)
            scale = 1.0 + mat.norm_max()
            recon = np.abs(
                spec.basis @ np.diag(spec.eigenvalues) @ spec.basis.T - mat.entries
            ).max()
            orth = np.abs(spec.basis.T @ spec.basis - np.eye(n)).max()
            worst_recon = max(worst_recon, recon / scale)
            worst_orth = max(worst_orth, orth)
        ok = worst_recon <= 1e-9 and worst_orth <= 1e-10
    with capsys.disabled():
        report_line(9, "eigensolver contract", ok,
                    f"worst reconstruction {worst_recon:.3e}, "
                    f"worst orthonormality {worst_orth:.3e}, {clock.elapsed:.2f} s")
