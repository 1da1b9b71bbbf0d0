"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure-grid --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload until the measured phases
add up to ``--seconds``, checks every output, and prints every metric
by name and unit, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones, after checking that both kinds took the same engine paths
and produced the same result digests.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-layer metrics and their units, in BENCHMARK.json order.
LAYER_UNITS = {
    "workloads.gen_s": "s",
    "cache.walk_s": "s",
    "capture.s": "s",
    "capture.rows": "count",
    "trace.put_s": "s",
    "trace.get_s": "s",
    "trace.hits": "count",
    "trace.misses": "count",
    "replay.object_s": "s",
    "replay.object_ns_per_row": "ns",
    "replay.vector_s": "s",
    "replay.vector_ns_per_row": "ns",
    "kernels.engaged": "count",
    "kernels.delegated": "count",
    "kernels.fallbacks": "count",
    "sort.s": "s",
    "sort.sequences": "count",
    "sort.comparator_ops": "count",
    "dmc.s": "s",
    "dmc.packets_out": "count",
    "dmc.merges": "count",
    "crq.pushes": "count",
    "mshr.s": "s",
    "mshr.allocated": "count",
    "mshr.merged": "count",
    "hmc.s": "s",
    "hmc.ns_per_packet": "ns",
    "hmc.packets": "count",
    "hmc_kernel.engaged": "count",
    "hmc_kernel.delegated": "count",
    "hmc_kernel.fallbacks": "count",
    "obs.finalize_s": "s",
    "obs.observe_calls": "count",
    "sweep.worker_busy_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.checkpoint_s": "s",
    "sweep.retries": "count",
    "serve.queue_wait_p50_s": "s",
    "serve.run_p50_s": "s",
    "serve.overhead_p50_s": "s",
    "serve.fresh_run_s": "s",
    "serve.sibling_run_s": "s",
    "serve.encode_s": "s",
    "serve.cache_hits": "count",
    "serve.attached": "count",
    "serve.rejected": "count",
    "figures.build_s": "s",
    "trace.overhead_s": "s",
}

#: Modules every workload imports; timed in fresh interpreters.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.api, repro.perf.digest, repro.serve.client, repro.sim.pool; "
    "print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 7


def import_seconds() -> float:
    """Import time of the simulator: the fastest of several fresh
    interpreters.  Machine noise only ever adds time, so the minimum
    is the steadiest estimate of it (see README.md)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return min(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every process it
    started and waited for (pool workers, the server, probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, rounds, import_s: float, rss_mb: float) -> dict:
    import numpy as np
    from common import tail_percentile

    ops = [t for r in rounds for t in r.op_times]
    return {
        "setup_s": (import_s + median([r.setup_s for r in rounds]), "s"),
        "wall_s": (median([r.wall_s for r in rounds]), "s"),
        "ops_per_s": (median([(r.attempted - r.failed) / r.wall_s for r in rounds]), "1/s"),
        "sim_accesses_per_s": (median([r.sim_accesses / r.wall_s for r in rounds]), "1/s"),
        "op_p50_s": (median(ops), "s"),
        "op_tail_s": (float(np.percentile(ops, tail_percentile(workload.ops_per_round))), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics, as means per traced round."""
    import spans as spanlib
    from common import add_counts

    n = len(traced)
    folded = spanlib.fold(spanlib.merge_snapshots(r.spans for r in traced if r.spans))
    counts: dict = {}
    kernels: dict = {}
    layer: dict = {}
    for r in traced:
        add_counts(counts, r.counts)
        add_counts(kernels, r.kernels)
        add_counts(layer, r.layer)
        if r.spans:
            add_counts(counts, r.spans["counts"])

    def span(name, field="self_s"):
        return folded.get(name, {}).get(field, 0)

    def per_unit(seconds, units):
        return seconds * 1e9 / units if units else 0.0

    object_rows = span("replay.object", "tally")
    vector_rows = span("replay.vector", "tally") - folded.get("replay.object", {}).get(
        "tally_under", {}
    ).get("replay.vector", 0)
    hits = span("trace.get", "tally")
    values = {
        "workloads.gen_s": span("workloads.gen"),
        "cache.walk_s": span("cache.walk"),
        "capture.s": span("capture"),
        "capture.rows": span("capture", "tally"),
        "trace.put_s": span("trace.put"),
        "trace.get_s": span("trace.get") + span("trace.verify"),
        "trace.hits": hits,
        "trace.misses": span("trace.get", "calls") - hits,
        "replay.object_s": span("replay.object"),
        "replay.object_ns_per_row": per_unit(span("replay.object"), object_rows),
        "replay.vector_s": span("replay.vector"),
        "replay.vector_ns_per_row": per_unit(span("replay.vector"), vector_rows),
        "sort.s": span("sort"),
        "dmc.s": span("dmc"),
        "mshr.s": span("mshr"),
        "hmc.s": span("hmc"),
        "hmc.ns_per_packet": per_unit(span("hmc"), counts.get("hmc.packets", 0)),
        "obs.finalize_s": span("obs.finalize"),
        "obs.observe_calls": counts.get("obs.observe", 0),
        "sweep.checkpoint_s": span("sweep.checkpoint"),
        "serve.encode_s": span("serve.encode"),
        "figures.build_s": span("figures.build"),
    }
    for name in LAYER_UNITS:
        if name in values:
            continue
        values[name] = kernels.get(name, counts.get(name, layer.get(name, 0)))
    # Per-unit times are ratios of totals; everything else was summed
    # over the traced rounds.
    per_round = {k: v if k.endswith("_per_row") or k == "hmc.ns_per_packet" else v / n
                 for k, v in values.items()}
    per_round["trace.overhead_s"] = median([r.wall_s for r in traced]) - median(
        [r.wall_s for r in untraced]
    )
    return {name: (per_round[name], LAYER_UNITS[name]) for name in LAYER_UNITS}


def consistency(rounds) -> list[str]:
    """Every round, traced or not, produced the same digests and took
    the same engine paths as the first."""
    first = rounds[0]
    problems = []
    for i, r in enumerate(rounds[1:], start=2):
        kind = "traced" if r.traced else "untraced"
        if r.digests != first.digests:
            differing = sorted(k for k in first.digests if r.digests.get(k) != first.digests[k])
            problems.append(f"round {i} ({kind}): result digests differ: {differing[:5]}")
        if r.kernels != first.kernels:
            problems.append(
                f"round {i} ({kind}): kernel counters {r.kernels} != {first.kernels}"
            )
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure-grid", "sorter-sweep", "serve-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # Keep every temporary file of this run (and of the processes it
    # starts) inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    import spans as spanlib
    from workloads import WORKLOADS

    import_s = import_seconds()
    recorder = spanlib.SpanRecorder() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, work, recorder)
    pattern = (False, True) if args.trace else (False,)
    rounds = []
    measured = 0.0
    while not rounds or measured < args.seconds:
        for traced in pattern:
            patches = spanlib.install(recorder) if traced else None
            try:
                rnd = workload.round(traced)
            finally:
                if patches is not None:
                    patches.undo()
            rounds.append(rnd)
            measured += rnd.wall_s
            print(
                f"round {len(rounds)} ({'traced' if traced else 'untraced'}): "
                f"setup {rnd.setup_s:.3f} s, wall {rnd.wall_s:.3f} s, "
                f"{rnd.attempted} ops, {rnd.failed} failed",
                flush=True,
            )

    # Read before the checks below, which run simulations of their own
    # in this process.
    rss_mb = peak_rss_mb()
    problems = [p for r in rounds for p in r.problems]
    problems += consistency(rounds)
    problems += workload.final_checks()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    untraced = [r for r in rounds if not r.traced]
    if args.trace:
        metrics = per_layer([r for r in rounds if r.traced], untraced)
    else:
        metrics = end_to_end(workload, untraced, import_s, rss_mb)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
