"""End-to-end benchmark of the ARO-PUF reproduction, run from outside.

    python3 bench/run.py --workload anchors --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --trace 1 --out results.json      # every workload
    python3 bench/run.py --check-repeat --repeats 10       # spread vs bounds

Each workload runs the program as real subprocesses built from the
checkout's ``src``.  With ``--trace 0`` a run prints every end-to-end
metric of ``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced
runs with the same commands under the import hook in ``bench/trace`` and
prints every per-layer metric, and no end-to-end metric.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

import proc
import stats
import workloads

BENCHMARK_JSON = os.path.join(proc.ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def print_result(result) -> None:
    mode = "traced" if result.trace else "timed"
    print(f"# {result.workload} seed={result.seed} seconds={result.seconds:g} ({mode})")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:8s} n={result.samples.get(name, 0)}")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print(f"attempted={result.attempted} failed={result.failed} correct={result.correct}")


def run_workloads(names: List[str], seed: int, seconds: float, trace: int, out: str) -> int:
    results = []
    for name in names:
        try:
            result = workloads.run(name, seed, seconds, trace)
        except (OSError, RuntimeError, ValueError) as exc:
            result = workloads.Result(name, seed, seconds, trace)
            result.attempted = 1
            result.fail(f"{type(exc).__name__}: {exc}")
        results.append(result)
        print_result(result)
    if out:
        with open(out, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=1)
    if len(results) == 1:
        summary = results[0].summary()
    else:
        summary = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}.{name}": value
                for r in results
                for name, value in r.summary()["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def check_repeat(names: List[str], seed: int, seconds: float, repeats: int, out: str) -> int:
    """Run each workload ``repeats`` times, each in a fresh process with
    its own seed, and compare each end-to-end metric's spread (the
    inter-quartile distance over the median) with its bound."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    report: Dict[str, dict] = {}
    for name in names:
        runs = []
        for k in range(repeats):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed + k), "--seconds", str(seconds), "--trace", "0"]
            lines = subprocess.run(argv, cwd=proc.ROOT, capture_output=True, text=True).stdout.splitlines()
            runs.append(json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}})
            print(f"{name} seed={seed + k}: {lines[-1] if lines else 'no result'}", flush=True)
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            spread = stats.relative_spread(values) if len(values) == len(runs) else float("inf")
            rows[metric] = {
                "values": values,
                "median": stats.median(values) if values else None,
                "spread": spread,
                "bound": bound,
                "verdict": "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO NOISY",
            }
        report[name] = {"correct": all(r["correct"] for r in runs), "metrics": rows}

    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    status = 0
    for name, entry in report.items():
        for metric, row in entry["metrics"].items():
            median = "-" if row["median"] is None else f"{row['median']:.5g}"
            print(f"{name:12s} {metric:14s} {median:>12s} {row['spread']:8.2%} {row['bound']:6.0%}  {row['verdict']}")
            if row["verdict"] == "TOO NOISY":
                status = 1
        if not entry["correct"]:
            print(f"{name}: some runs were not correct")
            status = 1
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=proc.DEFAULT_SEED, help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--out", help="also write the full results as JSON here")
    parser.add_argument("--check-repeat", action="store_true", help="run every workload repeatedly and report spreads")
    parser.add_argument("--repeats", type=int, default=2, help="runs per workload for --check-repeat")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(proc.SRC, "repro", "cli.py")):
        print(f"error: no program to measure: {proc.SRC}/repro/cli.py is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    if args.check_repeat:
        return check_repeat(names, args.seed, seconds, args.repeats, args.out)
    return run_workloads(names, args.seed, seconds, args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
