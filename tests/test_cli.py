import json
import re
from pathlib import Path

import numpy as np
import pytest

import yuancert.yuan as yuan_module
from conftest import (EX1_A1, EX1_A2, EX1_A3, EX2_A1, EX2_A2, EX2_A3, NEAR_PARALLEL,
                      serialize_cone, serialize_instance)
from yuancert import FirstOrderCone, QuadProblem, to_kkt
from yuancert.cli import main
from yuancert.instances import (
    KktInstance,
    QuadInstance,
    dump_json,
    parse_cone,
    parse_instance,
)


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(dump_json(document) + "\n", encoding="utf-8")
    return str(path)


def family_doc(*matrices):
    return {
        "schema_version": "1",
        "kind": "family",
        "matrices": [np.asarray(m, float).tolist() for m in matrices],
    }


@pytest.fixture
def example1(tmp_path):
    return write(tmp_path, "example1.json", family_doc(EX1_A1, EX1_A2, EX1_A3))


@pytest.fixture
def example2(tmp_path):
    return write(tmp_path, "example2.json", family_doc(EX2_A1, EX2_A2, EX2_A3))


@pytest.fixture
def pair12(tmp_path):
    return write(tmp_path, "pair12.json", family_doc(EX2_A1, EX2_A2))


class TestRoundTrip:
    def test_family(self):
        doc = family_doc(EX1_A1, EX1_A2, EX1_A3)
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        for a, b in zip(parsed.matrices.members, again.matrices.members):
            assert np.array_equal(a, b)

    def test_family_with_odd_floats(self):
        mat = [[0.1 + 0.2, 1e-17], [1e-17, -3.0000000000000004]]
        doc = family_doc(mat)
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert np.array_equal(parsed.matrices.members[0], again.matrices.members[0])

    def test_kkt(self):
        data = to_kkt(QuadProblem([EX1_A1, EX1_A2, EX1_A3]))
        doc = serialize_instance(KktInstance(data))
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert np.array_equal(parsed.data.grad_f, again.data.grad_f)
        assert parsed.data.active == again.data.active
        for a, b in zip(parsed.data.hess_g, again.data.hess_g):
            assert np.array_equal(a.entries, b.entries)

    def test_quadprob(self):
        doc = serialize_instance(QuadInstance(QuadProblem([EX1_A1, EX1_A2])))
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert parsed.problem.ray_constant == again.problem.ray_constant
        for a, b in zip(parsed.problem.matrices.members, again.problem.matrices.members):
            assert np.array_equal(a, b)

    def test_cone(self):
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0]], ray=[0.0, 1.0, 0.0])
        doc = serialize_cone(cone)
        again = parse_cone(doc)
        assert np.allclose(again.subspace, cone.subspace)
        assert np.allclose(again.ray, cone.ray)


class TestParsing:
    def test_position_annotated_error(self):
        doc = family_doc(EX1_A1)
        doc["matrices"][0][1][0] = "oops"
        with pytest.raises(Exception) as err:
            parse_instance(doc)
        assert "matrices[0][1][0]" in str(err.value)

    def test_wrong_schema_version(self):
        doc = family_doc(EX1_A1)
        doc["schema_version"] = "2"
        with pytest.raises(Exception) as err:
            parse_instance(doc)
        assert "schema_version" in str(err.value)

    def test_asymmetric_quadprob_rejected(self):
        doc = {
            "schema_version": "1",
            "kind": "quadprob",
            "matrices": [[[0.0, 1.0], [0.0, 0.0]]],
        }
        with pytest.raises(Exception) as err:
            parse_instance(doc)
        assert "asymmetry" in str(err.value)


class TestCommands:
    def test_certify_example1(self, example1, capsys):
        assert main(["certify", example1]) == 0
        assert "certified" in capsys.readouterr().out

    def test_certify_json_report(self, example1, capsys):
        assert main(["certify", example1, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "certified"
        assert abs(sum(report["weights"]) - 1.0) <= 1e-12
        assert report["lambda_min"] >= -1e-9
        assert report["input_digest"].startswith("sha256:")

    def test_certify_nearly_parallel_pair(self, tmp_path, capsys):
        path = write(tmp_path, "near.json", family_doc(*NEAR_PARALLEL))
        assert main(["certify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "certified"

    def test_certify_zero_member_family(self, tmp_path, capsys):
        # unit weight on the zero member certifies a jointly negative pair
        path = write(tmp_path, "zero.json", family_doc(
            np.diag([-1.0, -2.0]), np.diag([-2.0, -1.0]), np.zeros((2, 2))
        ))
        assert main(["certify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["weights"] == [0.0, 0.0, 1.0]

    def test_yuan2_refuted_exit_code(self, pair12, capsys):
        assert main(["yuan2", pair12, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "refuted"
        assert len(report["witness"]) == 2
        assert max(report["form_values"]) < -1e-6

    def test_yuan2_wrong_count(self, example1, capsys):
        assert main(["yuan2", example1]) == 3

    def test_rank_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "cx.json", family_doc(
            [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]
        ))
        assert main(["rank", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 3

    def test_hypothesis_violated_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "rank3.json", family_doc(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]
        ))
        assert main(["certify", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "hypothesis_violated"

    def test_certify_with_cone(self, tmp_path, capsys):
        fam = write(tmp_path, "fam.json", family_doc(np.diag([-1.0, 1.0])))
        cone = write(tmp_path, "cone.json", {
            "schema_version": "1", "kind": "cone", "ambient_dim": 2,
            "subspace": [[0.0, 1.0]], "ray": None,
        })
        assert main(["certify", fam, "--cone", cone]) == 0

    def test_soc_and_vertices(self, tmp_path, capsys):
        data = to_kkt(QuadProblem([EX1_A1, EX1_A2, EX1_A3]))
        path = write(tmp_path, "kkt.json", serialize_instance(KktInstance(data)))
        assert main(["vertices", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mfcq"] is True
        assert len(report["vertices"]) == 3
        assert main(["soc", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "certified"
        assert "multiplier" in report

    def test_vertices_without_mfcq_exit_two(self, tmp_path, capsys):
        # the two active gradients cancel, so the multiplier set is unbounded
        path = write(tmp_path, "no_mfcq.json", {
            "schema_version": "1", "kind": "kkt", "grad_f": [1.0, 0.0],
            "hess_f": [[0.0, 0.0], [0.0, 0.0]], "grad_g": [[1.0, 0.0], [-1.0, 0.0]],
            "hess_g": [np.eye(2).tolist()] * 2, "active": [0, 1],
        })
        for command in ("vertices", "soc"):
            assert main([command, path, "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Mangasarian-Fromovitz" in captured.err

    @staticmethod
    def witness_failure(err):
        found = re.search(r"yuan_two witness verification failed: largest form value (\S+)"
                          r" against threshold (\S+) \(margin (\S+)\)", err)
        assert found, err
        return tuple(map(float, found.groups()))

    def test_yuan2_witness_failure_names_stage_and_margin(self, tmp_path, capsys, monkeypatch):
        # refuted by -1 everywhere; the witness e1 is forced and fails on A
        monkeypatch.setattr(yuan_module, "_pencil_max",
                            lambda ar, br: (0.0, -1.0, np.array([1.0, 0.0])))
        path = write(tmp_path, "forced.json", family_doc(np.diag([1.0, -1.0]), -np.eye(2)))
        assert main(["yuan2", path, "--json"]) == 4
        worst, threshold, margin = self.witness_failure(capsys.readouterr().err)
        assert (worst, threshold) == (1.0, -2e-9)
        assert margin == pytest.approx(1.0)

    def test_yuan2_on_threshold_refutes_or_names_margin(self, tmp_path, capsys):
        # pencil maximum shifted onto the threshold -tol*scale (c = 1): rounding
        # decides whether the witness clears it, so either outcome is allowed
        a = [[-0.38510919853086845, -0.5337359360773486],
             [-0.5337359360773486, -0.7774402930881059]]
        b = [[0.18059613358206278, 0.5441639307435358],
             [0.5441639307435358, 1.6396496029240317]]
        path = write(tmp_path, "boundary.json", family_doc(a, b))
        code = main(["yuan2", path, "--json"])
        assert code in (1, 4)
        if code == 4:
            worst, threshold, margin = self.witness_failure(capsys.readouterr().err)
            assert threshold == pytest.approx(-1e-9 * (1.0 + 1.6396496029240317), rel=1e-9)
            assert worst >= threshold
            assert 0.0 <= margin < 1e-12

    def test_quad_pipeline(self, tmp_path, capsys):
        doc = serialize_instance(QuadInstance(QuadProblem([EX1_A1, EX1_A2, EX1_A3])))
        path = write(tmp_path, "quad.json", doc)
        assert main(["quad", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "certified"

    def test_oracle_command(self, example2, capsys):
        assert main(["oracle", example2, "--samples", "2000", "--resolution", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "certified"
        assert report["grid_best_lambda_min"] == pytest.approx(0.0, abs=1e-9)

    def test_oracle_refuted(self, pair12, capsys):
        assert main(["oracle", pair12, "--samples", "5000"]) == 1

    def test_malformed_input_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["certify", str(path)]) == 3
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exit_three(self, capsys):
        assert main(["certify", "/nonexistent/file.json"]) == 3

    @pytest.mark.parametrize("argv", [
        ["certify"], ["certify", "example1.json", "--tol", "abc"],
        ["rank", "example1.json", "--cone", "c.json"], ["bogus", "x.json"], [],
    ])
    def test_usage_error_exit_three(self, argv, capsys):
        # exit 2 means "hypothesis violated", so a usage error must not use it
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert "yuancert" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "0", "1", "inf", "-inf", "nan", "1e-9x"])
    def test_tolerance_outside_unit_interval_exit_three(self, tol, capsys):
        # at tol -1 example1 read as rank 3 and at tol 1 or inf the refuted
        # pair certified; verify-report must not accept such a tolerance either
        example1 = str(INSTANCES / "example1.json")
        pair12 = str(INSTANCES / "example2_pair12.json")
        for argv in (["certify", example1], ["yuan2", pair12],
                     ["verify-report", example1, example1]):
            assert main(argv + ["--tol", tol]) == 3, argv
            assert "argument --tol" in capsys.readouterr().err


KIND_FILES = {"family": "example1.json", "kkt": "kkt_example1.json",
              "quadprob": "quad_example1.json"}
COMMAND_KINDS = {"yuan2": "family", "certify": "family", "rank": "family", "vertices": "kkt",
                 "soc": "kkt", "quad": "quadprob", "oracle": "family", "verify-report": None}


@pytest.mark.parametrize("command", sorted(COMMAND_KINDS))
def test_command_table(command, capsys, monkeypatch):
    """Each command reads one instance kind, takes --cone or not, and shares one parser."""
    import yuancert.cli as cli

    def argv(path, *extra):
        return [command, *([path] if command == "verify-report" else []), path, *extra]

    expected = COMMAND_KINDS[command]
    for kind, name in KIND_FILES.items():
        if expected is not None and kind != expected:
            assert main(argv(str(INSTANCES / name))) == 3, kind
            assert f"expected a '{expected}' instance" in capsys.readouterr().err
    if command in ("rank", "vertices", "quad"):
        own = str(INSTANCES / KIND_FILES[expected])
        assert main(argv(own, "--cone", own)) == 3
        assert "unrecognized arguments: --cone" in capsys.readouterr().err

    def no_parser():
        raise AssertionError("the parser is built once, at import")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    assert main(["certify", str(INSTANCES / "example1.json")]) == 0


class TestVerifyReport:
    def test_certified_roundtrip(self, example1, tmp_path, capsys):
        assert main(["certify", example1, "--json"]) == 0
        report_path = tmp_path / "report.json"
        report_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify-report", str(report_path), example1]) == 0

    def test_refuted_roundtrip(self, pair12, tmp_path, capsys):
        assert main(["yuan2", pair12, "--json"]) == 1
        report_path = tmp_path / "report.json"
        report_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify-report", str(report_path), pair12]) == 0

    def test_malformed_report_exit_three(self, example1, tmp_path, capsys):
        report_path = tmp_path / "broken.json"
        report_path.write_text("{not json", encoding="utf-8")
        assert main(["verify-report", str(report_path), example1]) == 3
        assert "input error" in capsys.readouterr().err

    def test_tampered_report_fails(self, example1, tmp_path, capsys):
        assert main(["certify", example1, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["lambda_min"] = report["lambda_min"] + 0.5
        report_path = tmp_path / "tampered.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), example1]) == 4

    @pytest.mark.parametrize("weights", [[0.0, 1.0, 0.0], [5.0, -4.0, 0.0]])
    def test_forged_certified_report_rejected(self, example1, weights, tmp_path, capsys):
        # off-certificate weights (lambda_min -2.30) or weights off the
        # simplex, each stored with its own true lambda_min
        assert main(["certify", example1, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        combined = sum(w * m for w, m in zip(weights, (EX1_A1, EX1_A2, EX1_A3)))
        report["weights"] = weights
        report["lambda_min"] = float(np.linalg.eigvalsh(combined)[0])
        report_path = tmp_path / "forged.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), example1]) == 4

    def test_changed_digest_rejected(self, example1, tmp_path, capsys):
        assert main(["certify", example1, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["input_digest"] = "sha256:" + "0" * 64
        report_path = tmp_path / "digest.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), example1, "--json"]) == 4
        assert "input_digest" in json.loads(capsys.readouterr().out)["reason"]

    def test_quad_hypothesis_roundtrip(self, tmp_path, capsys):
        # planar non-collinear family: set rank 2, Jacobian rank 3 at the witness
        c, d = np.array(EX2_A1), np.array(EX2_A2)
        mats = [c, d, c + d, 0.5 * c + 1.2 * d]
        path = write(tmp_path, "planar.json", serialize_instance(QuadInstance(QuadProblem(mats))))
        assert main(["quad", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == report["rank"] == 3
        report["witness"] = [0.0, 0.0]  # the Jacobian has rank 1 at the origin
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path]) == 4

    @pytest.mark.parametrize("rank", [None, 2])
    def test_family_hypothesis_report_needs_its_rank(self, example1, rank, tmp_path, capsys):
        # example1 has set rank 2, so no hypothesis report on it may verify
        assert main(["certify", example1, "--json"]) == 0
        report = {"verdict": "hypothesis_violated",
                  "input_digest": json.loads(capsys.readouterr().out)["input_digest"]}
        if rank is not None:
            report["rank"] = rank
        report_path = tmp_path / "hypothesis.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), example1]) == 4

    @pytest.mark.parametrize("field, value", [
        ("weights", ["a", "b", "c"]), ("weights", [[1.0, 0.0, 0.0]]),
        ("lambda_min", "low"), ("witness", ["x", "y"]), ("form_values", [-1.0]),
    ])
    def test_malformed_report_field_exit_three(self, pair12, example1, field, value,
                                               tmp_path, capsys):
        command, path = ("certify", example1) if field in ("weights", "lambda_min") else (
            "yuan2", pair12)
        main([command, path, "--json"])
        report = json.loads(capsys.readouterr().out)
        report[field] = value
        report_path = tmp_path / "malformed.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path]) == 3
        assert "input error" in capsys.readouterr().err

    def run_report(self, tmp_path, capsys, argv, want):
        """Run a solver command, expect its exit code, and store its report."""
        assert main(argv + ["--json"]) == want
        report = json.loads(capsys.readouterr().out)
        report_path = tmp_path / f"{len(list(tmp_path.iterdir()))}.report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        return report, str(report_path)

    def verify(self, capsys, report, path, *extra):
        report_path = Path(path).with_suffix(".tampered.json")
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code = main(["verify-report", str(report_path), *extra, "--json"])
        return code, capsys.readouterr().out

    def test_witness_outside_cone_rejected(self, tmp_path, capsys):
        # the family is PSD on e3 and certifies there; e1 makes both forms
        # negative but lies outside the cone, so it refutes nothing
        fam = write(tmp_path, "fam.json", family_doc(np.diag([-1.0, -1.0, 1.0]),
                                                     np.diag([-2.0, -1.0, 1.0])))
        cone = write(tmp_path, "cone.json", serialize_cone(FirstOrderCone(3, [[0, 0, 1.0]])))
        report, path = self.run_report(tmp_path, capsys, ["certify", fam, "--cone", cone], 0)
        assert main(["verify-report", path, fam, "--cone", cone]) == 0
        forged = {"verdict": "refuted", "input_digest": report["input_digest"],
                  "witness": [1.0, 0.0, 0.0], "form_values": [-1.0, -2.0]}
        assert self.verify(capsys, forged, path, fam, "--cone", cone)[0] == 4

    def test_refuted_report_verifies_at_its_tolerance(self, tmp_path, capsys):
        # e2 puts both forms at -1e-10, below the threshold -2e-12 of tol 1e-12
        fam = write(tmp_path, "fam.json", family_doc(np.diag([1.0, -1e-10]),
                                                     np.diag([-1.0, -1e-10])))
        _, path = self.run_report(tmp_path, capsys, ["certify", fam, "--tol", "1e-12"], 1)
        assert main(["verify-report", path, fam, "--tol", "1e-12"]) == 0

    def test_quad_rejects_cone(self, tmp_path, capsys):
        # quad decides on the full space, so a cone may not relax its check:
        # weights (1, 0) are PSD on e1 only
        quad = write(tmp_path, "quad.json", serialize_instance(
            QuadInstance(QuadProblem([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])]))))
        cone = write(tmp_path, "cone.json", serialize_cone(FirstOrderCone(2, [[1.0, 0.0]])))
        report, path = self.run_report(tmp_path, capsys, ["quad", quad], 0)
        assert report["weights"] == [0.5, 0.5]
        assert main(["verify-report", path, quad, "--cone", cone]) == 3
        assert "no --cone" in capsys.readouterr().err
        report.update(weights=[1.0, 0.0], lambda_min=1.0)
        assert self.verify(capsys, report, path, quad)[0] == 4
        assert self.verify(capsys, report, path, quad, "--cone", cone)[0] == 3

    @staticmethod
    def kkt_of(tmp_path, name, *matrices):
        data = to_kkt(QuadProblem([np.asarray(m, float) for m in matrices]))
        return write(tmp_path, name, serialize_instance(KktInstance(data)))

    def verdict_cases(self, kind, tmp_path):
        """(command, instance path, solver exit) for every verdict of one kind."""
        if kind == "family":
            rank3 = write(tmp_path, "rank3.json", family_doc(
                np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]))
            return [("certify", str(INSTANCES / "example1.json"), 0),
                    ("yuan2", str(INSTANCES / "example2_pair12.json"), 1),
                    ("certify", rank3, 2)]
        if kind == "quad":
            c, d = np.array(EX2_A1), np.array(EX2_A2)
            planar = write(tmp_path, "planar.json", serialize_instance(
                QuadInstance(QuadProblem([c, d, c + d, 0.5 * c + 1.2 * d]))))
            return [("quad", str(INSTANCES / "quad_example1.json"), 0), ("quad", planar, 2)]
        return [("soc", str(INSTANCES / "kkt_example1.json"), 0),
                ("soc", self.kkt_of(tmp_path, "refuted.json", EX2_A1, EX2_A2), 1),
                ("soc", self.kkt_of(tmp_path, "rank3.json", *map(np.diag, np.eye(3))), 2)]

    @pytest.mark.parametrize("kind", ["family", "quad", "kkt"])
    def test_every_verdict_roundtrips(self, kind, tmp_path, capsys):
        for command, path, want in self.verdict_cases(kind, tmp_path):
            report, report_path = self.run_report(tmp_path, capsys, [command, path], want)
            assert main(["verify-report", report_path, path, "--json"]) == 0, (command, path)
            out = json.loads(capsys.readouterr().out)
            assert out["verdict"] == out["checked_verdict"] == report["verdict"]
            if report["verdict"] == "hypothesis_violated":
                assert out["rank"] == report["rank"] and "margin" not in out
            else:
                assert out["margin"] > 0.0

    @pytest.mark.parametrize("tamper", ["multiplier", "weights", "witness"])
    def test_tampered_soc_report_rejected(self, tamper, tmp_path, capsys):
        if tamper == "witness":
            # e1 lies in the critical cone but the second form is positive there
            path = self.kkt_of(tmp_path, "refuted.json", EX2_A1, EX2_A2)
            report, report_path = self.run_report(tmp_path, capsys, ["soc", path], 1)
            report.update(witness=[1.0, 0.0, 0.0], form_values=[-1.0, 1.0])
        else:
            path = str(INSTANCES / "kkt_example1.json")
            report, report_path = self.run_report(tmp_path, capsys, ["soc", path], 0)
            if tamper == "multiplier":
                report["multiplier"]["mu"][0] += 0.5
            else:
                report["weights"] = report["weights"][::-1]
        assert self.verify(capsys, report, report_path, path)[0] == 4
