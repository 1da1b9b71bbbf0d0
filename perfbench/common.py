"""Shared helpers: the tail percentile, counters and per-round records."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

#: Worker processes and client connections: one per CPU.
NPROC = os.cpu_count() or 1


def tail_percentile(ops_per_round: int) -> int:
    """The highest whole percentile with at least ten operations of
    one round beyond it."""
    return math.floor(100 * (1 - 10 / ops_per_round))


def kernel_snapshot() -> dict:
    """Engagement counters of the batched coalesce and HMC kernels."""
    from repro.kernels.coalesce import kernel_counters
    from repro.kernels.hmc import kernel_counters as hmc_counters

    keys = ("engaged", "delegated", "fallbacks")
    coalesce, hmc = kernel_counters(), hmc_counters()
    return {
        **{f"kernels.{k}": coalesce[k] for k in keys},
        **{f"hmc_kernel.{k}": hmc[k] for k in keys},
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def add_counts(total: dict, more: dict) -> dict:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v
    return total


def result_counts(result) -> dict:
    """Per-layer work counts of one simulation, from its stats."""
    c = result.coalescer
    return {
        "sort.sequences": c.pipeline.sequences,
        "sort.comparator_ops": c.pipeline.comparator_ops,
        "dmc.packets_out": c.dmc.packets_out,
        "dmc.merges": c.dmc.merges,
        "crq.pushes": c.crq.pushes,
        "mshr.allocated": c.mshr.allocated,
        "mshr.merged": c.mshr.merged_full + c.mshr.merged_partial,
        "hmc.packets": result.hmc.requests,
    }


@dataclass
class Round:
    """One round of a workload: the same operations every time."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    op_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated CPU accesses of the simulations this round executed.
    sim_accesses: int = 0
    #: operation label -> canonical result digest.
    digests: dict = field(default_factory=dict)
    #: kernel engagement counters summed over every process.
    kernels: dict = field(default_factory=dict)
    #: per-layer work counts from the executed results.
    counts: dict = field(default_factory=dict)
    #: merged span snapshot (traced rounds only).
    spans: dict | None = None
    #: workload-specific per-layer values (serve.*, sweep.*, ...).
    layer: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
