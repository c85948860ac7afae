"""Command-line interface: a command table, dispatch, certificate reports.

Exit codes mirror the report outcome taxonomy so shell pipelines can
branch on verdicts: 0 certified/verified, 1 refuted, 2 hypothesis
violated, 3 input or usage error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cone import FirstOrderCone
from .errors import (
    EmptyMultiplierSetError,
    InputError,
    MfcqFailedError,
    NumericalFailureError,
)
from .instances import (
    dump_json,
    input_digest,
    load_cone,
    load_instance,
    load_json,
)
from .nlp import (
    KKTData,
    check_mfcq,
    critical_cone_lineality,
    multiplier_vertices,
    recombine,
    second_order_certificate,
    vertex_hessians,
)
from .numeric_core import DEFAULT_TOL, MatrixFamily, matrix_set_rank, norm_max
from .oracle import sample_max_nonneg, simplex_grid_search
from .quadprob import QuadProblem, jacobian_rank, quad_certificate
from .yuan import certificate_value, certify_rank2, restricted_forms, witness_check, yuan_two

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


# the exit code of each verdict a solver record carries
_EXITS = {"certified": EXIT_OK, "refuted": EXIT_REFUTED, "hypothesis_violated": EXIT_HYPOTHESIS}


def _cmd_yuan2(args, family, cone, report) -> int:
    if len(family) != 2:
        raise InputError(f"{args.input}: expected exactly 2 matrices, got {len(family)}")
    report.update(yuan_two(*family.members, cone, tol=args.tol))
    return _EXITS[report["verdict"]]


def _cmd_certify(args, family, cone, report) -> int:
    report.update(certify_rank2(family, cone, tol=args.tol))
    return _EXITS[report["verdict"]]


def _cmd_rank(args, family, cone, report) -> int:
    result = matrix_set_rank(family, args.tol)
    report.update(verdict="certified", rank=result.rank, basis=list(result.basis))
    if result.coefficients is not None:
        report["coefficients"] = result.coefficients
    return EXIT_OK


def _cmd_vertices(args, data, cone, report) -> int:
    # without MFCQ the multiplier set is unbounded and no vertex list describes it
    if not check_mfcq(data, args.tol):
        raise MfcqFailedError("Mangasarian-Fromovitz constraint qualification fails")
    rows = multiplier_vertices(data, args.tol)
    report["verdict"] = "certified"
    report["mfcq"] = True
    report["vertices"] = [{"lambda": row[: data.p1], "mu": row[data.p1:]} for row in rows]
    report["lineality_basis"] = critical_cone_lineality(data).T
    return EXIT_OK


def _cmd_soc(args, data, cone, report) -> int:
    report.update(second_order_certificate(data, cone, tol=args.tol))
    return _EXITS[report["verdict"]]


def _cmd_quad(args, prob, cone, report) -> int:
    report.update(quad_certificate(prob, tol=args.tol))
    return _EXITS[report["verdict"]]


def _cmd_oracle(args, family, cone, report) -> int:
    report.update(sample_max_nonneg(family, cone, samples=args.samples, seed=args.seed,
                                    tol=args.tol))
    if args.resolution is not None:
        weights, best = simplex_grid_search(family, cone, args.resolution)
        report.update(grid_best_weights=weights, grid_best_lambda_min=best)
    return _EXITS[report["verdict"]]


def _cmd_verify_report(args, instance, cone, out) -> int:
    stored = load_json(args.report)
    if not isinstance(stored, dict):
        raise InputError(f"{args.report}: expected a JSON report object")
    verdict = stored.get("verdict")
    out["checked_verdict"] = verdict
    if stored.get("input_digest") != out["input_digest"]:
        out["reason"] = "report input_digest differs from the instance"
        return EXIT_NUMERICAL
    # the forms the report is checked against; for a kkt instance, the Lagrangian
    # Hessians at the multiplier vertices, on the cone soc uses
    rows, forms = None, instance
    if isinstance(instance, KKTData):
        cone, rows, forms = vertex_hessians(instance, cone, args.tol)
    elif isinstance(instance, QuadProblem) and args.cone is not None:
        raise InputError("quad decides on the full space and takes no --cone")
    if verdict == "certified" and "weights" in stored:
        weights = _report_field(stored, "weights", (len(forms),))
        on_simplex = bool((weights >= 0.0).all()) and abs(float(weights.sum()) - 1.0) <= 1e-12
        restricted, threshold = restricted_forms(forms, cone, args.tol)
        lam = out["lambda_min"] = certificate_value(restricted, weights)
        out["margin"] = lam - threshold
        ok = on_simplex and lam >= threshold
        if "lambda_min" in stored:
            ok = ok and _matches(lam, _report_field(stored, "lambda_min", ()))
        if rows is not None:
            # the certified multiplier is the weighted combination of the vertices
            mult, want = stored.get("multiplier"), recombine(rows, weights, instance.p1)
            if not isinstance(mult, dict):
                raise InputError("report field 'multiplier' must hold 'lambda' and 'mu'")
            lam, mu = want[: instance.p1], want[instance.p1:]
            ok = ok and _matches(lam, _report_field(mult, "lambda", lam.shape))
            ok = ok and _matches(mu, _report_field(mult, "mu", mu.shape))
    elif verdict == "refuted" and "witness" in stored:
        x = _report_field(stored, "witness", (forms.order,))
        _, threshold = restricted_forms(forms, cone, args.tol)
        ok, values = witness_check(forms.members, cone, x, threshold)
        if "form_values" in stored:
            ok = ok and _matches(values, _report_field(stored, "form_values", values.shape))
        # printed for x/|x|, the witness that witness_check judges
        with np.errstate(over="ignore"):
            length = float(x @ x)
        unit = out["form_values"] = values / length if 0.0 < length < np.inf else values
        out["margin"] = threshold - float(unit.max())
    elif verdict == "hypothesis_violated" and isinstance(instance, QuadProblem):
        # the premise fails where the Jacobian reaches rank 3, not where the set rank does
        x = _report_field(stored, "witness", (instance.order,))
        out["rank"] = jacobian_rank(instance, x, args.tol)
        ok = out["rank"] >= 3 and stored.get("rank") == out["rank"]
    elif verdict == "hypothesis_violated":
        # only where the rank-<=2 decider finds it: an empty cone span certifies at any rank
        record = certify_rank2(forms, cone, args.tol)
        ok = record["verdict"] == "hypothesis_violated" and stored.get("rank") == record["rank"]
        if "rank" in record:
            out["rank"] = record["rank"]
    else:
        raise InputError("report carries nothing verifiable for this instance")
    out["verdict"] = verdict if ok else "error"
    return EXIT_OK if ok else EXIT_NUMERICAL


def _report_field(stored: dict, key: str, shape: tuple) -> np.ndarray:
    """A numeric report field as a float array of the given shape.

    Anything else (a missing key, strings, nesting, a wrong length, NaN,
    infinity or an integer beyond the float range) is a malformed report
    and raises InputError.
    """
    try:
        value = np.asarray(stored.get(key), dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"report field {key!r} is too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"report field {key!r} is not numeric") from exc
    if value.shape != shape or not np.isfinite(value).all():
        raise InputError(f"report field {key!r} must be finite numbers of shape {shape}")
    return value


def _matches(value, stored) -> bool:
    """Stored numbers agree with their recomputation to 1e-9 relative."""
    return norm_max(np.asarray(value) - stored) <= 1e-9 * (1.0 + norm_max(value))


class _Command(NamedTuple):
    handler: Callable[..., int]  # (args, instance, cone, report) -> exit code
    kind: type | None  # the instance kind the command reads; None reads any
    takes_cone: bool
    help: str


_COMMANDS = {
    "yuan2": _Command(_cmd_yuan2, MatrixFamily, True, "two-matrix certificate (pencil search)"),
    "certify": _Command(_cmd_certify, MatrixFamily, True, "rank-<=2 family certificate"),
    "rank": _Command(_cmd_rank, MatrixFamily, False, "numerical rank of the matrix set"),
    "vertices": _Command(_cmd_vertices, KKTData, False, "multiplier polytope vertices"),
    "soc": _Command(_cmd_soc, KKTData, True, "single-multiplier second-order certificate"),
    "quad": _Command(_cmd_quad, QuadProblem, False, "quadratic-problem certificate pipeline"),
    "oracle": _Command(_cmd_oracle, MatrixFamily, True, "sampling cross-check"),
    "verify-report": _Command(_cmd_verify_report, None, True,
                              "recompute a stored report against its input"),
}
_KIND_NAMES = {MatrixFamily: "family", KKTData: "kkt", QuadProblem: "quadprob"}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 3); exit 2 means hypothesis violated."""

    def error(self, message):
        raise InputError(message)


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    # below 1e-15 the set-rank threshold tol*(first pivot norm) falls under the
    # round-off of the elimination, so round-off would decide the rank
    if not 1e-15 <= tol < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [1e-15, 1), got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="yuancert", description="PSD convex-combination certificates for "
                     "quadratic-form families")
    parser.add_argument("--version", action="version", version=f"yuancert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "verify-report":
            p.add_argument("report")
        p.add_argument("input")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="relative tolerance in [1e-15, 1) (default 1e-9)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        if command.takes_cone:
            p.add_argument("--cone", default=None, help="path to a cone instance file")
        if name == "oracle":
            p.add_argument("--samples", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--resolution", type=int, default=None,
                           help="also run the exhaustive weight-grid search")
    return parser


_PARSER = _build_parser()


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(dump_json(report))
        return
    print(f"verdict: {report.get('verdict')}")
    for key in ("rank", "reason", "lambda_min", "margin", "samples", "vertex_count", "mfcq"):
        if key in report:
            print(f"{key}: {report[key]}")
    if "weights" in report:
        print("weights: " + ", ".join(f"{w:.12g}" for w in report["weights"]))
    if "witness" in report:
        print("witness: " + ", ".join(f"{w:.12g}" for w in report["witness"]))
    if "form_values" in report:
        print("form values: " + ", ".join(f"{w:.12g}" for w in report["form_values"]))
    if "multiplier" in report:
        mult = report["multiplier"]
        print("multiplier lambda: " + ", ".join(f"{w:.12g}" for w in mult["lambda"]))
        print("multiplier mu: " + ", ".join(f"{w:.12g}" for w in mult["mu"]))
    if "vertices" in report:
        for v in report["vertices"]:
            print("vertex lambda=(" + ", ".join(f"{w:.6g}" for w in v["lambda"]) +
                  ") mu=(" + ", ".join(f"{w:.6g}" for w in v["mu"]) + ")")
    residuals = report.get("residuals")
    if residuals:
        print("residuals: " + ", ".join(f"{k}={v:.3e}" for k, v in residuals.items()))


def _order(instance) -> int:
    return instance.order if isinstance(instance, MatrixFamily) else instance.n


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        command = _COMMANDS[args.command]
        instance = load_instance(args.input)
        # by exact type: a QuadProblem is a MatrixFamily, yet `certify` does not read one
        if command.kind is not None and type(instance) is not command.kind:
            raise InputError(f"{args.input}: expected a '{_KIND_NAMES[command.kind]}' instance")
        # kkt instances default to the critical cone's lineality space (vertex_hessians)
        cone = None
        if command.takes_cone and args.cone is not None:
            cone = load_cone(args.cone, _order(instance))
        elif command.takes_cone and not isinstance(instance, KKTData):
            cone = FirstOrderCone.full(_order(instance))
        report = {"verdict": "error", "tool_version": __version__,
                  "input_digest": input_digest(args.input)}
        code = command.handler(args, instance, cone, report)
    except InputError as exc:  # ConeNotCriticalError included
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MfcqFailedError, EmptyMultiplierSetError) as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _print_report(report, args.json)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
