"""Benchmark of the yuancert CLI, driven in-process through `yuancert.cli.main`.

    python3 perfbench/run.py --workload {pencil,kkt,quad,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The run generates its seeded corpus under
perfbench/out/, sets up three times (corpus, instance files, the reports
`verify` needs, warm-up), then repeats whole passes over the corpus until
S seconds of timed passes have elapsed. Every command's output is then
checked by check.py. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (commands_per_s, latency_p50_ms,
setup_s, peak_rss_mb). --trace 1 alternates untraced and traced passes
and reports the per-module split of one pass (see tracing.py), checking
that the per-module counts repeat exactly from pass to pass.
"""

import time

_T0 = time.perf_counter()  # process start, before `import yuancert`

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import yuancert.cli as cli  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_ROUNDS = 3
OUT = os.path.join(HERE, "out")


def _call(argv) -> tuple[object, str]:
    """One CLI command; returns its exit code (or the exception) and stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # counted as a failed command
        code = exc
    return code, out.getvalue()


def _store_reports(commands) -> None:
    """Run each verify command's source command and store its report."""
    for c in commands:
        e = c.expect
        code, text = _call(e.source.argv)
        try:
            report = json.loads(text)
        except ValueError:
            report = {"verdict": f"no report (exit {code})"}
        if e.forged is not None:
            report = corpus.forge(report, e.forged, e.source.expect.mats)
        with open(e.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


def _set_up(workload: str, seed: int, directory: str) -> list:
    shutil.rmtree(directory, ignore_errors=True)
    commands = corpus.build(workload, seed, directory)
    if workload == "verify":
        _store_reports(commands)
    first = {}
    for c in commands:
        first.setdefault(c.argv[0], c)
    for c in first.values():  # warm-up: first command of each kind
        _call(c.argv)
    return commands


def _pass(commands, results: list, tracer=None) -> float:
    start = time.perf_counter()
    for c in commands:
        if tracer is not None:
            tracer.cmd = c.cid
        t = time.perf_counter()
        code, text = _call(c.argv)
        results.append((c, code, text, time.perf_counter() - t))
    return time.perf_counter() - start


def _judge(results) -> tuple[int, int, dict]:
    """(failed, failed outside the known faults, reason counts)."""
    memo: dict = {}
    failed = unexpected = 0
    reasons: dict = {}
    for c, code, text, _ in results:
        key = (c.cid, str(code), text)
        if key not in memo:
            try:
                memo[key] = check.check(c, code, text)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                memo[key] = f"malformed output: {exc!r}"
        reason = memo[key]
        if reason is None:
            continue
        failed += 1
        if c.expect.known_fault is None:
            unexpected += 1
        label = f"{c.argv[0]} #{c.cid}: {reason}"
        reasons[label] = reasons.get(label, 0) + 1
    return failed, unexpected, reasons


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _T0

    directory = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t = time.perf_counter()
        commands = _set_up(args.workload, args.seed, directory)
        rounds.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(rounds)

    results: list = []
    walls: list = []
    traced_walls: list = []
    traced_passes: list = []
    summaries: list = []
    tracer = tracing.Tracer() if args.trace else None
    while True:
        walls.append(_pass(commands, results))
        if tracer is not None:
            tracer.install()
            try:
                traced_walls.append(_pass(commands, results, tracer))
            finally:
                tracer.remove()
            spans, counters = tracer.take()
            traced_passes.append(spans)
            summaries.append(tracing.summarize(spans, counters))
        elapsed = sum(walls) + sum(traced_walls)
        if elapsed >= args.seconds and (tracer is None or len(summaries) >= 2):
            break
    # before the checker runs, so its scipy import does not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, unexpected, reasons = _judge(results)
    shutil.rmtree(directory, ignore_errors=True)
    for label, count in sorted(reasons.items()):
        print(f"failed x{count}: {label}")
    correct = unexpected == 0
    if tracer is None:
        latencies = [r[3] for r in results]
        metrics = {
            "commands_per_s": _metric(len(results) / sum(walls), "1/s"),
            "latency_p50_ms": _metric(1e3 * statistics.median(latencies), "ms"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        metrics, repeat = _per_layer(summaries, walls, traced_walls)
        correct = correct and repeat
        os.makedirs(OUT, exist_ok=True)
        tracing.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"),
                    {"workload": args.workload, "seed": args.seed,
                     "fields": ["name", "start", "end", "parent", "command", "pass"]},
                    traced_passes)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def _per_layer(summaries, walls, traced_walls) -> tuple[dict, bool]:
    """Per-module metrics of one pass: exact counts, median times."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer"]
    counts = [{k: v for k, v in s.items() if not k.endswith(("_s", ".s"))} for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("per-module counts differ between traced passes")
    untraced = statistics.median(walls)
    traced = statistics.median(traced_walls)
    derived = {
        "trace.overhead_s": traced - untraced,
        "trace.pass_wall_s": traced,
        "trace.unaccounted_s": statistics.median(
            w - s["trace.self_total_s"] for w, s in zip(traced_walls, summaries)),
    }
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in derived:
            value = derived[name]
        else:
            value = statistics.median(s.get(name, 0) for s in summaries)
        metrics[name] = _metric(value, spec["unit"])
    return metrics, repeat


if __name__ == "__main__":
    sys.exit(main())
