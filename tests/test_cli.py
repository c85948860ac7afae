import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import yuancert.yuan as yuan_module
from conftest import (EX1_A1, EX1_A2, EX1_A3, EX2_A1, EX2_A2, EX2_A3, NEAR_PARALLEL,
                      random_sym, serialize_cone, serialize_instance, to_kkt)
from yuancert import FirstOrderCone, KKTData, MatrixFamily, QuadProblem, instances
from yuancert.cli import main
from yuancert.instances import dump_json, input_digest, load_instance, parse_cone, parse_instance


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
        for a, b in zip(parsed.members, again.members):
            assert np.array_equal(a, b)

    def test_family_with_odd_floats(self):
        mat = [[0.1 + 0.2, 1e-17], [1e-17, -3.0000000000000004]]
        doc = family_doc(mat)
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert np.array_equal(parsed.members[0], again.members[0])

    def test_kkt(self):
        data = to_kkt(QuadProblem(MatrixFamily([EX1_A1, EX1_A2, EX1_A3])))
        doc = serialize_instance(data)
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert np.array_equal(parsed.grad_f, again.grad_f)
        assert parsed.active == again.active
        assert np.array_equal(parsed.hessians, again.hessians)

    def test_quadprob(self):
        doc = serialize_instance(QuadProblem(MatrixFamily([EX1_A1, EX1_A2])))
        parsed = parse_instance(doc)
        again = parse_instance(serialize_instance(parsed))
        assert parsed.ray_constant == again.ray_constant
        for a, b in zip(parsed.matrices.members, again.matrices.members):
            assert np.array_equal(a, b)

    def test_cone(self):
        cone = FirstOrderCone(3, [[1.0, 0.0, 0.0]], ray=[0.0, 1.0, 0.0])
        doc = serialize_cone(cone)
        again = parse_cone(doc)
        assert np.allclose(again.subspace, cone.subspace)
        assert np.allclose(again.ray, cone.ray)


class TestParsing:
    @pytest.mark.parametrize("name, kind", [
        ("counterexample.json", MatrixFamily),
        ("example1.json", MatrixFamily),
        ("example2.json", MatrixFamily),
        ("example2_pair12.json", MatrixFamily),
        ("kkt_example1.json", KKTData),
        ("quad_example1.json", QuadProblem),
    ])
    def test_instance_file_parses_to_its_library_type(self, name, kind):
        assert type(load_instance(INSTANCES / name)) is kind

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

    def test_near_symmetric_matrices_mirror_the_upper_triangle(self):
        # asymmetry within 1e-12 is accepted and the lower triangle is
        # replaced by the upper one, not averaged with it
        near = [[1.0, 0.5], [0.5 + 1e-14, 2.0]]
        quad = parse_instance({"schema_version": "1", "kind": "quadprob", "matrices": [near]})
        kkt = parse_instance({"schema_version": "1", "kind": "kkt", "grad_f": [0.0, 0.0],
                              "hess_f": near, "hess_h": [near], "grad_h": [[1.0, 0.0]]})
        for entries in (quad.matrices.members[0], *kkt.hessians):
            assert entries.tolist() == [[1.0, 0.5], [0.5, 2.0]]


class TestNumberArrays:
    """An array of JSON ints and floats is converted in one call, equal to the
    per-entry walk; any other array takes the walk and its error names the entry."""

    @pytest.mark.parametrize("row", [
        [1, 2.5, -0.0, 0, -3],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310],
        [2**53 + 1, 2**63 + 1, -(2**63) - 1, 2**64 + 1, 2**100 + 3, 0.1],
        [1.7976931348623157e308, -(2**1023), 3],
    ])
    def test_one_call_equals_the_walk(self, row):
        walked = np.array([instances._number(v, f"x[{i}]") for i, v in enumerate(row)])
        assert instances._vector(row, "x").tobytes() == walked.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("true", "expected a number"),
        ('"1"', "expected a number"),
        ("NaN", "number is not finite"),
        ("Infinity", "number is not finite"),
        ("1e400", "number is not finite"),
        ("1" + "0" * 400, "number is too large for a float"),
    ])
    def test_bad_entry_names_its_path(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "1", "kind": "family", "matrices": '
                        f'[[[1, 0.5], [0.5, {text}]]]}}', encoding="utf-8")
        assert main(["certify", str(path)]) == 3
        assert capsys.readouterr().err == f"input error: instance.matrices[0][1][1]: {message}\n"


def kkt_example_doc() -> dict:
    return serialize_instance(to_kkt(QuadProblem(MatrixFamily([EX1_A1, EX1_A2, EX1_A3]))))


@pytest.mark.parametrize("value", [3, 0, "", {}], ids=["three", "zero", "empty_string", "object"])
@pytest.mark.parametrize("field", ["grad_h", "grad_g", "hess_h", "hess_g", "g_values", "subspace"])
def test_non_array_field_exit_three(field, value, tmp_path, capsys):
    # a number, string or object where an array of vectors or matrices
    # belongs is an input error naming the field, never read as empty
    if field == "subspace":
        fam = write(tmp_path, "fam.json", family_doc(np.diag([-1.0, 1.0])))
        cone = write(tmp_path, "cone.json", {"schema_version": "1", "kind": "cone",
                                             "ambient_dim": 2, field: value})
        runs, where = [["certify", fam, "--cone", cone]], "cone.subspace"
    else:
        path = write(tmp_path, "kkt.json", dict(kkt_example_doc(), **{field: value}))
        runs, where = [["soc", path], ["vertices", path]], f"instance.{field}"
    for argv in runs:
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {where}: expected "), err


@pytest.mark.parametrize("command", ["soc", "vertices"])
@pytest.mark.parametrize("field", ["grad_h", "grad_g"])
def test_ragged_gradient_rows_exit_three(field, command, tmp_path, capsys):
    # rows of unequal length are an input error naming the short row
    hess = "hess_h" if field == "grad_h" else "hess_g"
    doc = {"schema_version": "1", "kind": "kkt", "grad_f": [1.0, 0.0],
           "hess_f": np.zeros((2, 2)).tolist(), field: [[1.0, 0.0], [1.0]],
           hess: [np.eye(2).tolist(), np.eye(2).tolist()], "active": []}
    assert main([command, write(tmp_path, "ragged.json", doc)]) == 3
    assert capsys.readouterr().err == f"input error: instance.{field}[1]: row length 1 != 2\n"


@pytest.mark.parametrize("value", [None, []], ids=["null", "empty"])
def test_empty_array_fields_still_read_as_empty(value, tmp_path, capsys):
    doc = dict(kkt_example_doc(), grad_h=value, hess_h=value)
    assert main(["soc", write(tmp_path, "kkt.json", doc)]) == 0
    del doc["grad_h"], doc["hess_h"]
    assert main(["soc", write(tmp_path, "absent.json", doc)]) == 0
    fam = write(tmp_path, "fam.json", family_doc(np.eye(2)))
    cone = write(tmp_path, "cone.json", {"schema_version": "1", "kind": "cone",
                                         "ambient_dim": 2, "subspace": value})
    assert main(["certify", fam, "--cone", cone]) == 0


class TestNonSymmetricFamily:
    """instances/counterexample.json has an asymmetric member: its set rank
    is defined, but every verdict on it is an input error naming the asymmetry."""

    PATH = str(INSTANCES / "counterexample.json")

    @pytest.mark.parametrize("command", ["certify", "oracle"])
    def test_solvers_reject_asymmetry(self, command, capsys):
        assert main([command, self.PATH]) == 3
        assert "asymmetry" in capsys.readouterr().err

    def test_rank_is_three(self, capsys):
        assert main(["rank", self.PATH, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 3

    @pytest.mark.parametrize("report", [
        {"verdict": "certified", "weights": [0.5, 0.5, 0.0], "lambda_min": 0.0},
        {"verdict": "refuted", "witness": [0.0, 1.0], "form_values": [0.0, 1.0, 0.0]},
    ], ids=["certified", "refuted"])
    def test_verify_report_rejects_asymmetry(self, report, tmp_path, capsys):
        report = dict(report, input_digest=input_digest(self.PATH))
        path = write(tmp_path, "report.json", report)
        assert main(["verify-report", path, self.PATH]) == 3
        assert "asymmetry" in capsys.readouterr().err


# the gradients span the plane, so the critical cone is {0}, where every
# Hessian family is PSD whatever its set rank (here 3: E11, E22, E12 + E21)
SPAN0_KKT = {"schema_version": "1", "kind": "kkt", "grad_f": [-1.0, -1.0],
             "hess_f": np.zeros((2, 2)).tolist(),
             "grad_g": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
             "hess_g": [np.diag([1.0, 0.0]).tolist(), np.zeros((2, 2)).tolist(),
                        np.diag([0.0, 1.0]).tolist(), [[0.0, 1.0], [1.0, 0.0]]],
             "active": [0, 1, 2, 3]}


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
        data = to_kkt(QuadProblem(MatrixFamily([EX1_A1, EX1_A2, EX1_A3])))
        path = write(tmp_path, "kkt.json", serialize_instance(data))
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
        found = re.search(r"pencil witness verification failed: largest form value (\S+)"
                          r" against threshold (\S+) \(margin (\S+)\)", err)
        assert found, err
        return tuple(map(float, found.groups()))

    def test_yuan2_witness_failure_names_stage_and_margin(self, tmp_path, capsys, monkeypatch):
        # refuted by -1 everywhere; the eigenvector e1 alone is forced, so it is
        # the witness, and it fails on A
        monkeypatch.setattr(yuan_module, "_pencil_max",
                            lambda ar, br: (0.0, -1.0, np.array([[1.0], [0.0]])))
        path = write(tmp_path, "forced.json", family_doc(np.diag([1.0, -1.0]), -np.eye(2)))
        assert main(["yuan2", path, "--json"]) == 4
        worst, threshold, margin = self.witness_failure(capsys.readouterr().err)
        assert (worst, threshold) == (1.0, -2e-9)
        assert margin == pytest.approx(1.0)

    def test_certify_witness_failure_names_stage_and_margin(self, tmp_path, capsys,
                                                              monkeypatch):
        # pointed family; the forced eigenvector e1 is the witness, and it fails
        # on its first member
        monkeypatch.setattr(yuan_module, "_pencil_max",
                            lambda ar, br: (0.0, -1.0, np.array([[1.0], [0.0]])))
        path = write(tmp_path, "forced.json",
                     family_doc(np.diag([1.0, -1.0]), -np.eye(2), -2.0 * np.eye(2)))
        assert main(["certify", path, "--json"]) == 4
        worst, threshold, margin = self.witness_failure(capsys.readouterr().err)
        assert (worst, threshold) == (1.0, -3e-9)
        assert margin == pytest.approx(1.0)

    def test_certify_pointed_family_at_the_family_threshold(self, tmp_path, capsys):
        # the extreme pair P, Q alone has threshold -2e-9, which the pencil
        # maximum -5e-9 at weights (1/2, 1/2) misses; the family threshold
        # -1e-6 is what the weights must clear, and they do
        p, q = np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]) - 1e-8 * np.eye(2)
        path = write(tmp_path, "scaled.json", family_doc(p, q, 1000.0 * (p + 2.0 * q)))
        assert main(["certify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["weights"] == [0.5, 0.5, 0.0]
        assert report["lambda_min"] == pytest.approx(-5e-9)
        report_path = write(tmp_path, "scaled.report.json", report)
        assert main(["verify-report", report_path, path]) == 0

    @pytest.mark.parametrize("command, name", [("certify", "example1.json"),
                                               ("soc", "kkt_example1.json"),
                                               ("quad", "quad_example1.json")])
    def test_one_set_rank_call_per_command(self, command, name, capsys, monkeypatch):
        calls = []
        original = yuan_module.matrix_set_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in ("numeric_core", "yuan", "cli"):
            monkeypatch.setattr(f"yuancert.{module}.matrix_set_rank", counted)
        assert main([command, str(INSTANCES / name)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("command, name", [("certify", "example1.json"),
                                               ("soc", "kkt_example1.json"),
                                               ("quad", "quad_example1.json")])
    def test_one_rank2_decision_per_command(self, command, name, capsys, monkeypatch):
        # certify, soc and quad all decide through the one certify_rank2
        calls = []
        original = yuan_module.certify_rank2

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in ("yuan", "nlp", "quadprob", "cli"):
            monkeypatch.setattr(f"yuancert.{module}.certify_rank2", counted)
        assert main([command, str(INSTANCES / name)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_soc_empty_span_certifies_at_any_rank(self, tmp_path, capsys):
        path = write(tmp_path, "span0.json", SPAN0_KKT)
        assert main(["soc", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"] == {"span_dim": 0.0}
        assert report["vertex_count"] == 3
        report_path = write(tmp_path, "span0.report.json", report)
        assert main(["verify-report", report_path, path]) == 0

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
        doc = serialize_instance(QuadProblem(MatrixFamily([EX1_A1, EX1_A2, EX1_A3])))
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

    def test_oversized_integer_exit_three(self, tmp_path, capsys):
        # float() of a JSON integer beyond the float range raised OverflowError (exit 1)
        path = tmp_path / "huge.json"
        path.write_text('{"schema_version": "1", "kind": "family", "matrices": [[[1'
                        + "0" * 400 + ']]]}', encoding="utf-8")
        assert main(["certify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: instance.matrices[0][0][0]: "), err

    def test_malformed_input_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["certify", str(path)]) == 3
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exit_three(self, capsys):
        assert main(["certify", "/nonexistent/file.json"]) == 3

    @pytest.mark.parametrize("role", ["instance", "cone", "report"])
    def test_non_utf8_file_exit_three(self, role, example1, tmp_path, capsys):
        # byte 0xE9 is Latin-1 for e-acute and no UTF-8 sequence
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"schema_version": "1", "note": "caf\xe9"}')
        argv = {"instance": ["certify", str(bad)],
                "cone": ["certify", example1, "--cone", str(bad)],
                "report": ["verify-report", str(bad), example1]}[role]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: ") and "0xe9" in err, err

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

    @pytest.mark.parametrize("tol", ["-1", "0", "1", "inf", "-inf", "nan", "1e-9x",
                                     "1e-16", "1e-300"])
    def test_tolerance_outside_unit_interval_exit_three(self, tol, capsys):
        # at tol -1 example1 read as rank 3 and at tol 1 or inf the refuted
        # pair certified; below 1e-15 round-off decided its set rank (rank 3
        # at 1e-16 and 1e-300); verify-report must not accept such a tolerance
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
        path = write(tmp_path, "planar.json", serialize_instance(QuadProblem(MatrixFamily(mats))))
        assert main(["quad", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == report["rank"] == 3
        report["witness"] = [0.0, 0.0]  # the Jacobian has rank 1 at the origin
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path]) == 4

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e12, 1e200])
    def test_quad_hypothesis_at_any_member_scale(self, scale, tmp_path, capsys):
        # the ray constant -1 is not on the members' scale: the rank-3 point
        # must not depend on how far apart the two are
        d = np.diag([1.0, -1.0])
        mats = [scale * d, -scale * d, 0.1 * scale * np.diag([1.0, 0.0])]
        path = write(tmp_path, "scaled.json", serialize_instance(QuadProblem(MatrixFamily(mats))))
        assert main(["quad", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 3
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path]) == 0

    @pytest.mark.parametrize("witness, code", [([1e308, 1e308], 0), ([1e-320, 1e-320], 0),
                                               ([0.0, 0.0], 4)])
    def test_quad_hypothesis_witness_at_any_length(self, witness, code, tmp_path, capsys):
        # the Jacobian rank is judged at unit length, so a genuine witness scaled to
        # any nonzero length verifies with nothing on stderr, and the origin does not
        d = np.diag([1.0, -1.0])
        mats = [1e12 * d, -1e12 * d, 1e11 * np.diag([1.0, 0.0])]
        path = write(tmp_path, "quad_1e12.json", serialize_instance(QuadProblem(MatrixFamily(mats))))
        assert main(["quad", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        report["witness"] = witness
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-report", str(report_path), path, "--json"]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["rank"] == (3 if code == 0 else 1)

    def test_quad_hypothesis_past_all_ones(self, tmp_path, capsys):
        # {0, diag(1, -1), [[0, 1], [1, -2]]} has Jacobian rank 2 at the all-ones
        # vector and 3 at e_1, the next candidate, which the report names
        mats = [np.zeros((2, 2)), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, -2.0]])]
        path = write(tmp_path, "past_ones.json", serialize_instance(QuadProblem(MatrixFamily(mats))))
        assert main(["quad", path, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["witness"] == [1.0, 0.0] and report["rank"] == 3
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify-report", str(report_path), path]) == 0

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

    @pytest.mark.parametrize("case", ["kkt", "family"])
    def test_hypothesis_report_on_an_empty_span_rejected(self, case, tmp_path, capsys):
        # on a cone span {0} every family certifies whatever its set rank (3 in
        # both cases), so a hypothesis report there is forged
        cone = []
        if case == "kkt":
            path = write(tmp_path, "span0.json", SPAN0_KKT)
            command = "soc"
        else:
            rng = np.random.default_rng(30)
            members = [random_sym(rng, 2) for _ in range(3)]
            path = write(tmp_path, "rank3.json", family_doc(*members))
            assert main(["rank", path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["rank"] == 3
            cone = ["--cone", write(tmp_path, "cone.json", {
                "schema_version": "1", "kind": "cone", "ambient_dim": 2, "subspace": []})]
            command = "certify"
        assert main([command, path, *cone]) == 0
        forged = write(tmp_path, "forged.json", {"verdict": "hypothesis_violated", "rank": 3,
                                                 "input_digest": input_digest(path)})
        assert main(["verify-report", forged, path, *cone]) == 4

    @pytest.mark.parametrize("field, value", [
        ("weights", ["a", "b", "c"]), ("weights", [[1.0, 0.0, 0.0]]),
        ("lambda_min", "low"), ("witness", ["x", "y"]), ("form_values", [-1.0]),
        pytest.param("lambda_min", 10**400, id="lambda_min-beyond-float"),
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
        err = capsys.readouterr().err
        assert err.startswith(f"input error: report field {field!r} "), err

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

    @pytest.mark.parametrize("witness", [[1000.0, 0.0], [1.0, 0.0], [1e-200, 0.0],
                                         [1e200, 0.0], [0.0, 0.0]])
    def test_witness_judged_at_unit_length(self, witness, tmp_path, capsys):
        # {-1e-10 I} certifies: every form value at a unit vector is -1e-10,
        # above the threshold -1e-9, so no length of e1 refutes it
        fam = write(tmp_path, "fam.json", family_doc(-1e-10 * np.eye(2)))
        report, path = self.run_report(tmp_path, capsys, ["certify", fam], 0)
        assert self.verify(capsys, report, path, fam)[0] == 0
        forged = {"verdict": "refuted", "input_digest": report["input_digest"],
                  "witness": witness}
        code, out = self.verify(capsys, forged, path, fam)
        assert code == 4
        if witness[0] == 1000.0:
            assert json.loads(out)["form_values"] == pytest.approx([-1e-10], rel=1e-12)

    def test_short_witness_outside_cone_rejected(self, tmp_path, capsys):
        # 1e-9 * e1 lies within 1e-8 of the cone e3, but e1 itself does not
        fam = write(tmp_path, "fam.json", family_doc(np.diag([-1.0, -1.0, 1.0]),
                                                     np.diag([-2.0, -1.0, 1.0])))
        cone = write(tmp_path, "cone.json", serialize_cone(FirstOrderCone(3, [[0, 0, 1.0]])))
        report, path = self.run_report(tmp_path, capsys, ["certify", fam, "--cone", cone], 0)
        forged = {"verdict": "refuted", "input_digest": report["input_digest"],
                  "witness": [1e-9, 0.0, 0.0]}
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
            QuadProblem(MatrixFamily([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])]))))
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
        data = to_kkt(QuadProblem(MatrixFamily(matrices)))
        return write(tmp_path, name, serialize_instance(data))

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
                QuadProblem(MatrixFamily([c, d, c + d, 0.5 * c + 1.2 * d]))))
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


HEAD = ["verdict", "tool_version", "input_digest"]
PENCIL = ["pencil_argmax", "pencil_max"]
CERTIFIED = ["combined_lambda_min", "weight_sum_error"]
RANK3 = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]]


class TestReportShape:
    """Each verdict kind prints its fields in one order: the head, `residuals`
    (in their own order), the verdict's fields, then the command's."""

    CASES = {
        "certify-certified": (["certify", "example1.json"], 0,
                              ["residuals", "weights", "lambda_min"],
                              PENCIL + ["basis_fit_residual"] + CERTIFIED),
        "certify-refuted": (["certify", "example2_pair12.json"], 1,
                            ["residuals", "witness", "form_values"],
                            PENCIL + ["basis_fit_residual", "worst_form_value"]),
        "certify-hypothesis": (["certify", "rank3"], 2, ["residuals", "reason", "rank"], []),
        "yuan2-certified": (["yuan2", "opposite"], 0, ["residuals", "weights", "lambda_min"],
                            PENCIL),
        "yuan2-refuted": (["yuan2", "example2_pair12.json"], 1,
                          ["residuals", "witness", "form_values"], PENCIL),
        "soc-certified": (["soc", "kkt_example1.json"], 0,
                          ["residuals", "weights", "lambda_min", "multiplier", "vertex_count"],
                          PENCIL + ["basis_fit_residual"] + CERTIFIED),
        "quad-hypothesis": (["quad", "quad2"], 2, ["residuals", "reason", "rank", "witness"],
                            ["triple_residual"]),
        "oracle-certified": (["oracle", "example2.json"], 0, ["samples"], None),
        "oracle-refuted": (["oracle", "example2_pair12.json"], 1, ["witness", "form_values"], None),
        "oracle-certified-grid": (["oracle", "example2.json", "--resolution", "3"], 0,
                                  ["samples", "grid_best_weights", "grid_best_lambda_min"], None),
        "oracle-refuted-grid": (["oracle", "example2_pair12.json", "--resolution", "3"], 1,
                                ["witness", "form_values", "grid_best_weights",
                                 "grid_best_lambda_min"], None),
    }
    VERIFIED = {"certified": ["lambda_min", "margin"], "refuted": ["form_values", "margin"],
                "hypothesis_violated": ["rank"]}

    @staticmethod
    def instance(tmp_path, name):
        if name == "rank3":
            return write(tmp_path, "rank3.json", family_doc(*RANK3))
        if name == "opposite":
            return write(tmp_path, "opposite.json",
                         family_doc(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
        if name == "quad2":
            return write(tmp_path, "quad2.json",
                         serialize_instance(QuadProblem(MatrixFamily([EX2_A1, EX2_A2, EX2_A3]))))
        return str(INSTANCES / name)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_key_order(self, case, tmp_path, capsys):
        (command, name, *options), code, fields, residuals = self.CASES[case]
        path = self.instance(tmp_path, name)
        assert main([command, path, "--json", *options]) == code
        report = json.loads(capsys.readouterr().out)
        assert list(report) == HEAD + fields
        if residuals is not None:
            assert list(report["residuals"]) == residuals
        if "multiplier" in report:
            assert list(report["multiplier"]) == ["lambda", "mu"]
        if command == "oracle":
            return
        report_path = write(tmp_path, "report.json", report)
        assert main(["verify-report", report_path, path, "--json"]) == 0
        checked = json.loads(capsys.readouterr().out)
        assert list(checked) == HEAD + ["checked_verdict"] + self.VERIFIED[report["verdict"]]


class TestFiniteOverflowFamily:
    """Families with finite entries whose squares, sums or differences overflow;
    FAMILY, {diag(9e153, -9e153), diag(-1e160, 1e160)}, has set rank 1, and both
    solvers decide each family without a warning."""

    FAMILY = [np.diag([9e153, -9e153]), np.diag([-1e160, 1e160])]

    @pytest.mark.parametrize("command", ["certify", "yuan2"])
    def test_certified_and_verified(self, command, tmp_path, capsys):
        path = write(tmp_path, "wide.json", family_doc(*self.FAMILY))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, "--json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            assert report["verdict"] == "certified"
            report_path = write(tmp_path, "wide.report.json", report)
            assert main(["verify-report", report_path, path]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, members, code", [
        ("certify", [np.diag([1e308, -1e308]), np.diag([-1e308, 1e308])], 0),
        ("yuan2", [np.diag([1e308, -1e308]), np.diag([-1e308, 1e308])], 0),
        ("certify", [np.array([[0.0, 1.3e308], [1.3e308, 0.0]])], 1),
    ], ids=["certify_pair", "yuan2_pair", "certify_off_diagonal"])
    def test_entries_near_the_largest_float(self, command, members, code, tmp_path, capsys):
        """No restriction, flattening or pencil difference overflows: the opposite
        pair cancels, and the single indefinite member is its own witness."""
        path = write(tmp_path, "near_max.json", family_doc(*members))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, path, "--json"]) == code
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            if code == 1:
                assert report["form_values"] == pytest.approx([-1.3e308], rel=1e-15)
            report_path = write(tmp_path, "near_max.report.json", report)
            assert main(["verify-report", report_path, path]) == 0
        assert capsys.readouterr().err == ""

    def test_rank_report_is_strict_json(self, tmp_path, capsys):
        """{diag(1e-300, -1e-300), diag(1e300, -1e300)}: member 1's coordinate in
        member 0, 1e600, is past the float range, and the report writes it as null."""
        path = write(tmp_path, "wide.json", family_doc(np.diag([1e-300, -1e-300]),
                                                       np.diag([1e300, -1e300])))
        assert main(["rank", path, "--json"]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["coefficients"] == [[1.0, 0.0], [None, 0.0]]

    def test_basis_fit_of_an_overflowed_coordinate_is_null(self, tmp_path, capsys):
        """{1e-300 diag(1, -1), 1e-300 diag(-1, 2), 1e300 diag(1, -1)}: member 2's
        coordinate, 1e600, is past the float range, so its reconstruction is not
        finite and its fit reads null, not 0; the verdict stands."""
        path = write(tmp_path, "wide3.json", family_doc(
            np.diag([1e-300, -1e-300]), np.diag([-1e-300, 2e-300]), np.diag([1e300, -1e300])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(captured.out, parse_constant=reject)
        assert report["verdict"] == "certified" and report["weights"] == [1.0, 0.0, 0.0]
        assert report["residuals"]["basis_fit_residual"] is None

    def test_finite_arrays_dump_as_plain_lists(self):
        document = {"a": np.array([[0.1, -0.0], [1e-300, 2.5e300]]), "b": np.arange(3)}
        plain = {key: value.tolist() for key, value in document.items()}
        assert dump_json(document) == json.dumps(plain, indent=2)

    def test_member_size_past_the_float_range(self, tmp_path, capsys):
        """{8e307 * ones((3, 3))} restricts to finite entries, but its Frobenius
        norm, 2.4e308, is past the largest float: its size is inf, not an error."""
        path = write(tmp_path, "huge.json", family_doc(8e307 * np.ones((3, 3))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", path, "--json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            assert report["verdict"] == "certified"
            report_path = write(tmp_path, "huge.report.json", report)
            assert main(["verify-report", report_path, path]) == 0
        assert capsys.readouterr().err == ""
