"""Span recorder for the traced run.

The traced run wraps the public entry points of each simulator layer
(see ``ENTRY_POINTS``) with a span: name, start, end and parent.  Spans
are folded as they close into a per-thread table keyed by
``(name, parent name)`` holding call count, total time, self time (the
span's duration minus the time its child spans cover) and a per-call
tally (rows replayed, trace-store hits, ...).  Folding instead of
keeping every span keeps memory flat on per-row entry points such as
``DynamicMSHRFile.offer``, which close hundreds of thousands of spans
per round.

Only the benchmark installs these wrappers, and it removes them again
with :meth:`Patches.undo`; the simulator itself is never edited.  A
wrapper must not change which engine path runs, so nothing that the
kernels' envelope checks compare by type is replaced: the classes stay
the same, only some of their methods are wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

#: (module, attribute path, span name, tally) for every wrapped entry
#: point.  ``tally(args, result)`` returns a number summed per span
#: name (rows replayed, 1 for a trace-store hit, ...).
ENTRY_POINTS = (
    ("repro.cache.hierarchy", "CacheHierarchy.access_batch", "cache.walk", None),
    ("repro.kernels.capture", "batch_capture", "capture", lambda a, r: len(r[0])),
    ("repro.trace.store", "TraceStore.put", "trace.put", None),
    ("repro.trace.store", "TraceStore.get", "trace.get",
     lambda a, r: 0 if r is None else 1),
    # Deferred sha256 check of mmap-loaded traces; part of reading one.
    ("repro.trace.buffer", "TraceBuffer._ensure_verified", "trace.verify", None),
    ("repro.trace.replay", "replay_trace", "replay.object", lambda a, r: len(a[0])),
    ("repro.kernels.replay", "vector_replay", "replay.vector", lambda a, r: len(a[0])),
    ("repro.kernels.sortnet", "VectorSortNetwork.permutations", "sort", None),
    ("repro.core.pipeline", "PipelinedSortingNetwork.push", "sort", None),
    ("repro.core.pipeline", "PipelinedSortingNetwork.drain", "sort", None),
    ("repro.core.dmc", "DMCUnit.coalesce", "dmc", None),
    ("repro.core.mshr", "DynamicMSHRFile.offer", "mshr", None),
    ("repro.core.mshr", "DynamicMSHRFile.merge_only", "mshr", None),
    ("repro.core.mshr", "DynamicMSHRFile.pop_completions", "mshr", None),
    # The batched coalesce kernel never calls the two entry points
    # above: it plans DMC merges and joins the MSHR index itself.  Its
    # twins of those stages are timed under the same layer names.
    ("repro.kernels.coalesce", "plan_merge_spans", "dmc", None),
    ("repro.kernels.coalesce", "BatchedCoalescer._coalesce", "dmc", None),
    ("repro.kernels.coalesce", "BatchedCoalescer._alloc_entry", "mshr", None),
    ("repro.kernels.coalesce", "BatchedCoalescer._merge_entry", "mshr", None),
    ("repro.kernels.coalesce", "BatchedCoalescer._merge_waiting_pass", "mshr", None),
    ("repro.kernels.coalesce", "BatchedCoalescer.complete_up_to", "mshr", None),
    # The driver's service-time closure binds ``device._service_core``
    # when it is built, so wrapping the class attribute times the
    # object path's device service without replacing the closure the
    # batched back end recognizes.
    ("repro.hmc.device", "HMCDevice._service_core", "hmc", None),
    ("repro.kernels.hmc", "BatchedHMCBackend.replay_batch", "hmc", None),
    ("repro.kernels.hmc", "BatchedHMCBackend.finalize", "hmc", None),
    ("repro.hmc.device", "HMCDevice.apply_deferred_metrics", "obs.finalize", None),
    ("repro.sim.driver", "SimulationResult.publish_derived_metrics",
     "obs.finalize", None),
    ("repro.sim.shard", "write_checkpoint", "sweep.checkpoint", None),
    ("repro.sim.shard", "read_checkpoint", "sweep.checkpoint", None),
    ("repro.serve.jobs", "JobResult.to_dict", "serve.encode", None),
)

#: Entry points that are only counted, not timed: they run millions of
#: times per round and their bodies are a few bucket updates.
COUNTED = (
    ("repro.obs.metrics", "Histogram.observe", "obs.observe"),
    ("repro.obs.metrics", "Histogram.observe_bulk", "obs.observe"),
    ("repro.obs.metrics", "_BoundHistogram.observe", "obs.observe"),
    ("repro.obs.metrics", "_BoundHistogram.observe_bulk", "obs.observe"),
)


class SpanRecorder:
    """Per-thread span stacks folded into per-thread tables.

    ``table[(name, parent)] = [calls, total_s, self_s, tally]``; the
    parent of a span is the innermost span open on the same thread
    when it started (``None`` at the top).
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._counts: list[dict] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table, local.counts
        except AttributeError:
            local.stack, local.table, local.counts = [], {}, {}
            with self._lock:
                self._tables.append(local.table)
                self._counts.append(local.counts)
            return local.stack, local.table, local.counts

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. after a fork)."""
        with self._lock:
            for table in self._tables:
                table.clear()
            for counts in self._counts:
                counts.clear()

    def wrap(self, fn, name: str, tally=None):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, table, _ = state()
            frame = [name, 0.0]  # [name, time covered by child spans]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if tally is not None and result is not None:
                    row[3] += tally(args, result)

        return span

    def count(self, fn, name: str):
        state = self._state

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = state()[2]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        """JSON-able merge of every thread's table and counts."""
        spans: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            for table in self._tables:
                for (name, parent), row in list(table.items()):
                    key = f"{name}<{parent or ''}"
                    acc = spans.setdefault(key, [0, 0.0, 0.0, 0])
                    for i in range(4):
                        acc[i] += row[i]
            for table in self._counts:
                for name, n in list(table.items()):
                    counts[name] = counts.get(name, 0) + n
        return {"spans": spans, "counts": counts}


def merge_snapshots(snapshots) -> dict:
    """Sum several :meth:`SpanRecorder.snapshot` documents."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for key, row in snap["spans"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += row[i]
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


def fold(snapshot: dict) -> dict:
    """Per span name: ``{"calls", "total_s", "self_s", "tally"}`` plus
    ``"tally_under"``: tallies keyed by parent name (so a caller can
    tell delegated rows from engaged ones)."""
    out: dict[str, dict] = {}
    for key, (calls, total, self_s, tally) in snapshot["spans"].items():
        name, _, parent = key.partition("<")
        acc = out.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tally": 0, "tally_under": {}},
        )
        acc["calls"] += calls
        acc["total_s"] += total
        acc["self_s"] += self_s
        acc["tally"] += tally
        under = acc["tally_under"]
        under[parent] = under.get(parent, 0) + tally
    return out


class Patches:
    """Installed wrappers, removable with :meth:`undo`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_function(self, module_name: str, attr: str, new) -> None:
        """Rebind a module-level function everywhere it was imported.

        ``from x import f`` copies the function object into the
        importing module, so the wrapper replaces every ``repro``
        module attribute that is the original object.
        """
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(module_name: str, path: str):
    import importlib

    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else None
    return module, owner, attr


def _subclasses(cls) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _subclasses(sub)
    return found


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every entry point of ``ENTRY_POINTS`` and ``COUNTED``."""
    from repro.workloads.base import Workload

    patches = Patches()
    for module_name, path, name, tally in ENTRY_POINTS:
        module, owner, attr = _resolve(module_name, path)
        if owner is None:
            fn = getattr(module, attr)
            patches.replace_function(module_name, attr, recorder.wrap(fn, name, tally))
        else:
            fn = owner.__dict__[attr]
            patches.replace(owner, attr, recorder.wrap(fn, name, tally))
    for module_name, path, name in COUNTED:
        _, owner, attr = _resolve(module_name, path)
        patches.replace(owner, attr, recorder.count(owner.__dict__[attr], name))
    # The batched HMC back end compiles its per-packet ``service``
    # closure when it is built; wrap that instance attribute once the
    # back end exists (it is attached only after the engine chose it).
    from repro.kernels.hmc import BatchedHMCBackend

    init = BatchedHMCBackend.__dict__["__init__"]

    @functools.wraps(init)
    def backend_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.service = recorder.wrap(self.service, "hmc")

    patches.replace(BatchedHMCBackend, "__init__", backend_init)
    # Every workload generator overrides ``thread_phases``; wrap each
    # definition (a subclass calling ``super()`` nests, which the
    # self-time arithmetic already accounts for).
    for cls in {Workload} | _subclasses(Workload):
        fn = cls.__dict__.get("thread_phases")
        if fn is not None and inspect.isfunction(fn):
            patches.replace(cls, "thread_phases", recorder.wrap(fn, "workloads.gen"))
    return patches
