"""Run every workload N times and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workloads figure-grid,serve-mix]
        [--first-seed 1] [--seconds 20]

Run ``i`` uses seed ``first-seed + i``; the order of the workloads
alternates between forward and reversed from one run to the next, so
no workload always runs on a machine warmed by the same neighbour.
For every end-to-end metric of every workload it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median``, which is what the bounds in BENCHMARK.json are
set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figure-grid", "sorter-sweep", "serve-mix")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    samples: dict = {w: {} for w in workloads}
    failures: dict = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            doc = run_once(workload, args.first_seed + i, args.seconds)
            failures[workload].append((doc["failed"], doc["attempted"]))
            for name, metric in doc["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{args.runs} {workload}: correct={doc['correct']} "
                  f"failed {doc['failed']}/{doc['attempted']}", flush=True)

    for workload in workloads:
        print(f"\n{workload}  (failed/attempted per run: {failures[workload]})")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for name, values in samples[workload].items():
            if len(values) < 2:
                continue
            s = summarize(values)
            print(f"  {name:28s} {s['median']:14.6f} {s['q1']:14.6f} "
                  f"{s['q3']:14.6f} {s['spread']:8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
