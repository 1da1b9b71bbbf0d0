"""Tests of the benchmark's own arithmetic (no simulation runs).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans as spanlib  # noqa: E402
from common import tail_percentile  # noqa: E402
from workloads import FRESH, REPEAT, SIBLING, serve_jobs  # noqa: E402


def test_self_time_excludes_child_spans():
    rec = spanlib.SpanRecorder()
    child = rec.wrap(lambda: time.sleep(0.02), "child")

    def parent_body():
        time.sleep(0.01)
        child()
        child()

    rec.wrap(parent_body, "parent")()
    folded = spanlib.fold(rec.snapshot())
    assert folded["child"]["calls"] == 2
    assert folded["child"]["tally_under"] == {"parent": 0}
    parent = folded["parent"]
    assert parent["total_s"] >= 0.05
    assert abs(parent["self_s"] - (parent["total_s"] - folded["child"]["total_s"])) < 1e-9
    assert parent["self_s"] < 0.03


def test_spans_on_other_threads_have_no_parent_here():
    rec = spanlib.SpanRecorder()
    leaf = rec.wrap(lambda: None, "leaf")

    def outer():
        t = threading.Thread(target=leaf)
        t.start()
        t.join(5)
        assert not t.is_alive()

    rec.wrap(outer, "outer")()
    assert set(rec.snapshot()["spans"]) == {"outer<", "leaf<"}


def test_tally_counts_rows_and_hits():
    rec = spanlib.SpanRecorder()
    get = rec.wrap(lambda hit: [1, 2, 3] if hit else None, "get",
                   tally=lambda a, r: 0 if r is None else 1)
    for hit in (True, False, True):
        get(hit)
    folded = spanlib.fold(spanlib.merge_snapshots([rec.snapshot(), rec.snapshot()]))
    assert folded["get"]["calls"] == 6
    assert folded["get"]["tally"] == 4


def test_patches_undo_restores_originals():
    from repro.core.mshr import DynamicMSHRFile
    from repro.sim import driver

    offer = DynamicMSHRFile.__dict__["offer"]
    batch_capture = driver.batch_capture
    patches = spanlib.install(spanlib.SpanRecorder())
    assert DynamicMSHRFile.__dict__["offer"] is not offer
    assert driver.batch_capture is not batch_capture
    patches.undo()
    assert DynamicMSHRFile.__dict__["offer"] is offer
    assert driver.batch_capture is batch_capture


def test_tail_percentile():
    assert tail_percentile(48) == 79  # 10.08 of 48 beyond p79
    assert tail_percentile(40) == 75


def test_serve_jobs_are_ordered_and_seed_invariant_in_work():
    runs = {}
    shapes = {}
    for seed in (1, 2, 3):
        jobs = serve_jobs(seed, 1000)
        kinds = [kind for kind, _, _ in jobs]
        assert (kinds.count(FRESH), kinds.count(SIBLING), kinds.count(REPEAT)) == (12, 18, 18)
        for i, (kind, spec, after) in enumerate(jobs):
            assert (after is None) == (kind == FRESH)
            if after is not None:
                assert after < i
                assert jobs[after][0] != REPEAT
                assert jobs[after][1].benchmark == spec.benchmark
        runs[seed] = sorted(
            (spec.benchmark, spec.label) for kind, spec, _ in jobs if kind != REPEAT
        )
        shapes[seed] = [(kind, spec.benchmark, after) for kind, spec, after in jobs]
    assert runs[1] == runs[2] == runs[3]
    # The queue the server sees has the same shape for every seed.
    assert shapes[1] == shapes[2] == shapes[3]
    assert len(set(runs[1])) == 30


def test_benchmark_json_declares_every_printed_metric():
    import json

    from run import LAYER_UNITS

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "ops_per_s", "sim_accesses_per_s",
        "op_p50_s", "op_tail_s", "peak_rss_mb",
    ]
    assert [w["name"] for w in doc["workloads"]] == ["figure-grid", "sorter-sweep", "serve-mix"]
