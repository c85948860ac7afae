"""Steadiness check: two sets of runs per workload, judged by BENCHMARK.json.

    python3 perfbench/steady.py [--runs N] [--workload W ...]

Run from the repository root. For every workload it runs the benchmark
command N times with seeds 1..N, then N times with seeds 101..100+N
(--trace 0), and prints for each end-to-end metric the median and
quartiles of each set and the spread (q3 - q1) / median. The two sets
agree when every spread except that of setup_s is within the metric's
bound, the second median is not worse than the first by more than the
bound, and the share of failed commands is identical. Two traced runs
with one seed must then give identical per-module counts. The summary
is written to perfbench/out/steady.json; the exit code is 0 only when
everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(spec: dict, workload: str, seed: int, traced: bool) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", "1" if traced else "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def _worse(metric: dict, first: float, second: float) -> float:
    """Relative change of the second median, positive when it is worse."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="two sets of benchmark runs per workload")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workload", action="append", help="workload (default: all)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {}
    for workload in workloads:
        sets = []
        for base in (1, 101):
            runs = [_run(spec, workload, base + i, False) for i in range(args.runs)]
            sets.append(runs)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        same_share = len(shares[0] | shares[1]) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = (_stats([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            drift = _worse(metric, first["median"], second["median"])
            steady = name == "setup_s" or max(first["spread"], second["spread"]) <= metric["bound"]
            agree = steady and drift <= metric["bound"]
            ok = ok and agree
            rows[name] = {"first": first, "second": second, "drift": drift, "agree": agree}
            print(f"{workload:7s} {name:15s} "
                  f"{first['median']:10.4g} [{first['q1']:.4g}, {first['q3']:.4g}] "
                  f"spread {first['spread']:6.2%} | "
                  f"{second['median']:10.4g} [{second['q1']:.4g}, {second['q3']:.4g}] "
                  f"spread {second['spread']:6.2%} | drift {drift:+6.2%} "
                  f"bound {metric['bound']:.0%} {'ok' if agree else 'DISAGREE'}")
        traced = [_run(spec, workload, 1, True) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        counts_repeat = counts[0] == counts[1] and all(t["correct"] for t in traced)
        ok = ok and same_share and correct and counts_repeat
        print(f"{workload:7s} failed share {sorted(shares[0] | shares[1])} "
              f"{'identical' if same_share else 'DIFFERS'}; all correct: {correct}; "
              f"traced counts repeat: {counts_repeat}")
        summary[workload] = {"metrics": rows, "failed_shares": sorted(shares[0] | shares[1]),
                             "correct": correct, "traced_counts_repeat": counts_repeat,
                             "traced": traced[0]["metrics"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump({"runs_per_set": args.runs, "workloads": summary}, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
