"""Steadiness check: are the benchmark's end-to-end figures steady within their bounds?

    python3 benchmarks/steady.py [--runs 10] [WORKLOAD ...]

Run from the root of a devfp checkout. For each workload (default: all in
BENCHMARK.json) it runs two sets of --runs benchmark runs, each run with
another seed (the first set seeds 1..runs, the second the next --runs
seeds). It prints every end-to-end metric's median and the spread between
its first and third quartile as a share of the median, next to the
metric's bound, and how far the second set's median moved from the first,
in the metric's worse direction. A spread or a move beyond its bound
fails; a spread beyond a third of its bound is flagged as unsteady. Exit
status is 0 only when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One benchmark run's JSON result line."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    failed = False
    for workload in workloads:
        sets, attempted, errors = [], 0, 0
        for s in range(SETS):
            first = 1 + s * args.runs
            runs = []
            for seed in range(first, first + args.runs):
                result = run_once(spec, workload, seed)
                attempted += result["attempted"]
                errors += result["failed"]
                runs.append({name: m["value"] for name, m in result["metrics"].items()})
                print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
        failed |= errors > 0
        print(f"\n{workload}: {args.runs} runs per set, {SETS} sets; "
              f"error_rate {errors / attempted:.6g} ({errors} of {attempted} operations failed)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:12s} bound {bound:<5g}"
            medians = []
            for runs in sets:
                median, share = spread([r[name] for r in runs])
                medians.append(median)
                verdict = "ok" if share <= bound / 3 else ("unsteady" if share <= bound else "FAIL")
                failed |= verdict == "FAIL"
                line += f" | median {median:.6g} {metric['unit']} spread {share:.4f} {verdict}"
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if worse <= bound else "FAIL"
            failed |= verdict == "FAIL"
            line += f" | second set worse by {worse:+.4f} {verdict}"
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
