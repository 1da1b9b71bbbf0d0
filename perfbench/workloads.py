"""The three workloads, each a sequence of identical rounds.

Every round sets up from cold, runs a fixed set of operations through
the program's public surface, and checks the outputs.  ``round()``
returns a :class:`common.Round`; ``final_checks()`` runs the checks
that need a second execution (engine or executor parity, direct
Session runs) once per benchmark run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
from checks import check_against_uncoalesced, check_analytic_figures, check_result
from common import (
    NPROC,
    Round,
    add_counts,
    counter_delta,
    kernel_snapshot,
    result_counts,
)

clock = time.perf_counter


def _digest(result) -> str:
    from repro.perf.digest import result_digest

    return result_digest(result)


class FigureGrid:
    """12 benchmarks x the four figure configs through one cold Session,
    then the Fig 1-2, 8-13 and 15 tables from the cached results."""

    name = "figure-grid"
    accesses = 6_000
    ops_per_round = 48

    def __init__(self, seed: int, work: Path, recorder=None):
        from repro.sim.driver import PlatformConfig

        self.seed = seed
        self.platform = PlatformConfig(accesses=self.accesses, seed=seed)
        self.recorder = recorder
        self.first_digests: dict | None = None

    def round(self, traced: bool) -> Round:
        from repro.api import Session
        from repro.sim.experiments import (
            BENCHMARK_ORDER,
            fig1_bandwidth_efficiency,
            fig2_control_overhead,
        )
        from repro.sim.sweep import FIGURE_CONFIGS

        rnd = Round(traced=traced)
        t0 = clock()
        session = Session(platform=self.platform)
        rnd.setup_s = clock() - t0
        results: dict = {}
        kernels_before = kernel_snapshot()
        if traced:
            self.recorder.reset()
        start = clock()
        for bench in BENCHMARK_ORDER:
            for cfg_name, cfg in FIGURE_CONFIGS.items():
                rnd.attempted += 1
                t = clock()
                try:
                    results[(bench, cfg_name)] = session.run(bench, coalescer=cfg)
                except Exception as exc:  # noqa: BLE001 - counted as failed op
                    rnd.failed += 1
                    rnd.problems.append(f"{bench}/{cfg_name}: {type(exc).__name__}: {exc}")
                rnd.op_times.append(clock() - t)

        # The figure builders for Figs 8-13/15 live on the Session's
        # EvaluationSuite; Session.figures() would also run the Fig 14
        # timeout sweep, which is not part of this workload.
        suite = session._suite

        def build_tables():
            return [
                fig1_bandwidth_efficiency(),
                fig2_control_overhead(),
                suite.fig8_coalescing_efficiency(),
                suite.fig9_bandwidth_efficiency(),
                suite.fig10_request_distribution("HPCG"),
                suite.fig11_bandwidth_saving(),
                suite.fig12_dmc_latency(),
                suite.fig13_crq_fill_time(),
                suite.fig15_performance(),
            ]

        build = self.recorder.wrap(build_tables, "figures.build") if traced else build_tables
        try:
            figures = build()
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            figures = None
            rnd.problems.append(f"figure tables: {type(exc).__name__}: {exc}")
        rnd.wall_s = clock() - start
        rnd.kernels = counter_delta(kernel_snapshot(), kernels_before)
        if traced:
            rnd.spans = self.recorder.snapshot()

        failed_ops = set()
        for (bench, cfg_name), result in results.items():
            label = f"{bench}/{cfg_name}"
            rnd.sim_accesses += result.tracer.cpu_accesses
            add_counts(rnd.counts, result_counts(result))
            rnd.digests[label] = _digest(result)
            problems = check_result(label, result)
            if problems:
                failed_ops.add(label)
                rnd.problems += problems
        for bench in BENCHMARK_ORDER:
            per_cfg = {c: results[(bench, c)] for c in FIGURE_CONFIGS if (bench, c) in results}
            if "uncoalesced" in per_cfg:
                problems = check_against_uncoalesced(bench, per_cfg)
                if problems:
                    failed_ops.update(f"{bench}/{c}" for c in per_cfg)
                    rnd.problems += problems
        rnd.failed += len(failed_ops)
        if figures is not None:
            rnd.problems += check_analytic_figures(figures[0], figures[1])
        if self.first_digests is None:
            self.first_digests = rnd.digests
        return rnd

    def final_checks(self) -> list[str]:
        """(f): one sampled cell re-run on the object engine."""
        from repro.api import Session
        from repro.sim.sweep import FIGURE_CONFIGS

        if not self.first_digests:
            return ["no completed round to compare against"]
        label = random.Random(self.seed).choice(sorted(self.first_digests))
        bench, cfg_name = label.split("/")
        session = Session(platform=self.platform, engine="object")
        digest = _digest(session.run(bench, coalescer=FIGURE_CONFIGS[cfg_name]))
        if digest != self.first_digests[label]:
            return [f"{label}: object-engine digest differs from the vector engine's"]
        return []


class _WorkerProbe:
    """Wraps ``repro.sim.shard.execute_run`` for one sweep.

    In each forked pool worker it times every run and records the
    kernel counters the run moved (and, in a traced round, the
    worker's spans) to ``<dir>/worker-<pid>.json`` after every run:
    pool workers leave through ``os._exit``, so nothing is written at
    exit.  The pool resolves ``shard.execute_run`` through the module
    at call time, so a wrapper installed before the pool forks is the
    one its workers call.
    """

    def __init__(self, out_dir: Path, recorder=None):
        self.out_dir = out_dir
        self.recorder = recorder
        self.parent = os.getpid()
        self.pid = None
        self.records: list = []

    def install(self) -> spanlib.Patches:
        from repro.sim import shard

        original = shard.execute_run
        patches = spanlib.Patches()

        def execute_run(payload, checkpoint_path, trace_store=None):
            if os.getpid() == self.parent:
                return original(payload, checkpoint_path, trace_store=trace_store)
            if self.pid != os.getpid():
                # First run in a fresh worker: drop what the fork copied.
                self.pid, self.records = os.getpid(), []
                if self.recorder is not None:
                    self.recorder.reset()
            before = kernel_snapshot()
            t, cpu = clock(), time.process_time()
            result = original(payload, checkpoint_path, trace_store=trace_store)
            self.records.append(
                {
                    "s": clock() - t,
                    "cpu_s": time.process_time() - cpu,
                    "kernels": counter_delta(kernel_snapshot(), before),
                }
            )
            doc = {
                "records": self.records,
                "spans": self.recorder.snapshot() if self.recorder else None,
            }
            path = self.out_dir / f"worker-{self.pid}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc))
            os.replace(tmp, path)
            return result

        patches.replace(shard, "execute_run", execute_run)
        return patches

    def collect(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(self.out_dir.glob("worker-*.json"))]


class SorterSweep:
    """DMC-only design-space sweep on the pool: four benchmarks of
    opposite stream shape x ten sorter/timeout configs."""

    name = "sorter-sweep"
    accesses = 24_000
    benchmarks = ("FT", "STREAM", "SG", "HPCG")
    ops_per_round = 40

    def __init__(self, seed: int, work: Path, recorder=None):
        from repro.core.config import CoalescerConfig
        from repro.sim.driver import PlatformConfig

        self.seed = seed
        self.work = work
        self.recorder = recorder
        self.platform = PlatformConfig(accesses=self.accesses, seed=seed)
        tokens = [f"combined@sorter_width={w}" for w in (16, 32, 64, 128)]
        tokens += [f"combined@sorter_width={w}@sorter_arch=two_phase" for w in (32, 64, 128)]
        self.configs = {t: t for t in tokens}
        for timeout in (12, 28):
            self.configs[f"combined@timeout_cycles={timeout}"] = CoalescerConfig(
                timeout_cycles=timeout
            )
        self.configs["dmc_only"] = "dmc_only"
        self.rounds = 0
        self.first: dict | None = None

    def round(self, traced: bool) -> Round:
        from repro.api import Session
        from repro.core.config import DMC_ONLY_CONFIG

        self.rounds += 1
        root = self.work / f"sweep-{self.rounds}"
        probe_dir = root / "probe"
        probe_dir.mkdir(parents=True)
        rnd = Round(traced=traced)

        t0 = clock()
        session = Session(platform=self.platform, jobs=NPROC, trace_dir=root / "traces")
        # Capture the four front ends into the disk store; the sweep's
        # workers map them read-only.
        for bench in self.benchmarks:
            session.run(bench, coalescer=DMC_ONLY_CONFIG)
        rnd.setup_s = clock() - t0

        probe = _WorkerProbe(probe_dir, self.recorder if traced else None)
        patches = probe.install()
        messages: list[str] = []
        kernels_before = kernel_snapshot()
        if traced:
            self.recorder.reset()
        start = clock()
        try:
            sweep = session.sweep(
                benchmarks=self.benchmarks,
                configs=self.configs,
                jobs=NPROC,
                out_dir=root / "checkpoints",
                progress=messages.append,
                executor="pool",
            )
        finally:
            rnd.wall_s = clock() - start
            patches.undo()
        rnd.kernels = counter_delta(kernel_snapshot(), kernels_before)
        parent_spans = self.recorder.snapshot() if traced else None

        rnd.attempted = len(sweep.keys)
        rnd.failed = len(sweep.failures)
        rnd.problems += [f"{f.key.label}: {f.error}" for f in sweep.failures]
        workers = probe.collect()
        busy = 0.0
        for worker in workers:
            for record in worker["records"]:
                # A cell's host time is the CPU time its worker spent on
                # it: right after the pool forks, both workers can share
                # one CPU for a second or so before the kernel spreads
                # them, which stretches their wall time but not their
                # work.  That wait still shows in wall_s.
                rnd.op_times.append(record["cpu_s"])
                busy += record["s"]
                add_counts(rnd.kernels, record["kernels"])
        if traced:
            rnd.spans = spanlib.merge_snapshots([parent_spans, *(w["spans"] for w in workers)])
        jobs = sweep.metadata["effective_jobs"]
        rnd.layer["sweep.worker_busy_s"] = busy
        rnd.layer["sweep.parallel_efficiency"] = busy / (rnd.wall_s * jobs)
        rnd.layer["sweep.retries"] = sum(m.startswith("retry ") for m in messages)

        failed_ops = set()
        for key, result in sweep.results.items():
            rnd.sim_accesses += result.tracer.cpu_accesses
            add_counts(rnd.counts, result_counts(result))
            rnd.digests[key.label] = _digest(result)
            problems = check_result(key.label, result)
            if problems:
                failed_ops.add(key.label)
                rnd.problems += problems
        rnd.failed += len(failed_ops)
        if sweep.metadata["executor"] != "pool":
            rnd.problems.append(f"sweep ran on {sweep.metadata['executor']}, not the pool")
        if self.first is None:
            # Not the Session itself: every later round, and every
            # worker forked in it, would start from its heap.
            self.first = {"trace_dir": root / "traces", "digests": rnd.digests}
        shutil.rmtree(root / "checkpoints", ignore_errors=True)
        return rnd

    def final_checks(self) -> list[str]:
        """(f): one sampled cell re-run inline matches the pool's digest."""
        from repro.api import Session

        if not self.first or not self.first["digests"]:
            return ["no completed round to compare against"]
        label = random.Random(self.seed).choice(sorted(self.first["digests"]))
        bench, cfg_name = label.split("/", 1)
        session = Session(platform=self.platform, trace_dir=self.first["trace_dir"])
        sweep = session.sweep(
            benchmarks=(bench,),
            configs={cfg_name: self.configs[cfg_name]},
            jobs=1,
            out_dir=self.work / "inline-check",
            executor="inline",
        )
        if sweep.failures:
            return [f"{label}: inline re-run failed: {sweep.failures[0].error}"]
        digest = _digest(next(iter(sweep.results.values())))
        if digest != self.first["digests"][label]:
            return [f"{label}: inline digest differs from the pool's"]
        return []


FRESH, SIBLING, REPEAT = "fresh", "sibling", "repeat"


def serve_jobs(seed: int, accesses: int) -> list[tuple[str, object, int | None]]:
    """The seeded job sequence of one serve-mix round.

    Every seed runs the same 30 distinct (benchmark, config) pairs --
    benchmark ``k`` under figure configs ``k, k+1`` (and ``k+2`` for the
    first six) of the config cycle -- in the same interleaving of 12
    fresh jobs, 18 siblings (a claimed front end under another config)
    and 18 exact repeats of an earlier job, so neither the work of a
    round nor the shape of its queue depends on the seed.  The seed
    picks the workload inputs (a front-end seed no other job uses) and
    which of a benchmark's configs is its fresh job.  Each entry is
    ``(kind, spec, after)``: siblings and repeats name the index of the
    job they refer to, which comes earlier in the sequence.
    """
    from repro.serve.jobs import JobSpec
    from repro.sim.driver import PlatformConfig
    from repro.sim.sweep import FIGURE_CONFIGS
    from repro.workloads import BENCHMARKS

    pick = random.Random(seed)  # which config of a benchmark is fresh
    rng = random.Random(0)  # the interleaving, the same for every seed
    names = list(FIGURE_CONFIGS)
    plan = {}  # front end -> configs still to issue, the fresh one last
    for k, bench in enumerate(BENCHMARKS):
        configs = [names[(k + j) % len(names)] for j in range(3 if k < 6 else 2)]
        pick.shuffle(configs)
        plan[(bench, seed * 1000 + k)] = configs
    fronts = list(plan)
    rng.shuffle(fronts)
    remaining = {FRESH: len(fronts), SIBLING: sum(map(len, plan.values())) - len(fronts),
                 REPEAT: 18}
    fresh_index: dict = {}  # claimed front end -> index of its fresh job
    issued: list[int] = []
    jobs = []
    while any(remaining.values()):
        kinds = [k for k, n in remaining.items() if n]
        if not issued:
            kinds = [FRESH]
        if not any(plan[f] for f in fresh_index):
            kinds = [k for k in kinds if k != SIBLING]
        kind = rng.choice(kinds)
        remaining[kind] -= 1
        if kind == REPEAT:
            after = rng.choice(issued)
            jobs.append((kind, jobs[after][1], after))
            continue
        if kind == FRESH:
            front, after = fronts[len(fresh_index)], None
            fresh_index[front] = len(jobs)
        else:
            front = rng.choice([f for f in fresh_index if plan[f]])
            after = fresh_index[front]
        bench, front_seed = front
        cfg_name = plan[front].pop()
        platform = PlatformConfig(accesses=accesses, seed=front_seed)
        spec = JobSpec(
            benchmark=bench,
            platform=platform.with_coalescer(FIGURE_CONFIGS[cfg_name]),
            tenant=f"tenant-{len(jobs) % 4}",
            label=cfg_name,
        )
        issued.append(len(jobs))
        jobs.append((kind, spec, after))
    return jobs


class ServeMix:
    """A ``repro serve`` subprocess (thread executor, one worker thread)
    driven by one client thread that keeps ``depth`` jobs in flight.

    The client submits the jobs in their fixed order, topping the
    pipeline up as jobs finish, and polls the oldest unfinished job
    every ``poll_s``.  The server's queue is FIFO, so jobs finish in
    submission order (an attached repeat with its original), and the
    oldest job is the one to watch.  A job's time runs from its submit
    to its fetched result.

    One client thread and a fixed interleaving keep a job's latency a
    function of the queue ahead of it, not of how many client threads'
    polls happen to interleave (see README.md).  The server runs one
    worker thread because simulations hold the interpreter lock: a
    second thread adds no parallelism, only lock hand-offs.  With more
    than one CPU the server is pinned to the first and the client to
    the rest, so the server's threads hand the lock over on one CPU and
    the client never takes that CPU from them."""

    name = "serve-mix"
    accesses = 4_000
    ops_per_round = 48
    depth = 3
    poll_s = 0.01
    launcher = Path(__file__).resolve().parent / "serve_launcher.py"

    def __init__(self, seed: int, work: Path, recorder=None):
        self.seed = seed
        self.work = work
        self.jobs = serve_jobs(seed, self.accesses)
        self.rounds = 0
        self.first_results: dict | None = None
        self.cpus = sorted(os.sched_getaffinity(0))

    def _start_server(self, root: Path, traced: bool):
        from repro.serve.client import ServeClient

        cmd = [
            sys.executable, "-u", str(self.launcher),
            "--dump", str(root / "server.json"),
            *(["--trace"] if traced else []),
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--executor", "thread", "--workers", "1",
            "--accesses", str(self.accesses),
            "--trace-dir", str(root / "traces"),
        ]
        pin = None
        if len(self.cpus) > 1:
            def pin():
                os.sched_setaffinity(0, self.cpus[:1])
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
        line = proc.stdout.readline()
        client = ServeClient(line.split()[2]) if line.startswith("serving on ") else None
        if client is None or not client.health():
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"server did not start: {line!r}")
        return proc, client

    @staticmethod
    def _stop_server(proc) -> None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def _drive(self, client, rnd: Round) -> list[dict]:
        from repro.errors import CapacityError, QuotaError

        done: list = [None] * len(self.jobs)
        pending: list = []  # (index, job id, record) of unfinished jobs, oldest first
        rejected = 0

        def close(i, record, status=None, error=None):
            """Fetch a finished job's result and file its record."""
            record["status"] = status
            if error is None and status is not None and status.state == "done":
                try:
                    record["result"] = client.result(status.job_id)
                except Exception as exc:  # noqa: BLE001 - counted as failed op
                    error = exc
            if error is not None:
                record["error"] = f"{type(error).__name__}: {error}"
            record["s"] = clock() - record["t"]
            done[i] = record

        cursor = 0
        while cursor < len(self.jobs) or pending:
            while cursor < len(self.jobs) and len(pending) < self.depth:
                i, (kind, spec, _) = cursor, self.jobs[cursor]
                cursor += 1
                record = {"kind": kind, "spec": spec, "t": clock()}
                backoff = 0.01
                try:
                    while True:
                        try:
                            status = client.submit(spec)
                            break
                        except (CapacityError, QuotaError):
                            rejected += 1
                            time.sleep(backoff)
                            backoff = min(backoff * 2, 0.2)
                except Exception as exc:  # noqa: BLE001 - counted as failed op
                    close(i, record, error=exc)
                    continue
                if status.terminal:
                    close(i, record, status)
                else:
                    pending.append((i, status.job_id, record))
            if not pending:
                continue
            i, job_id, record = pending[0]
            try:
                status = client.status(job_id)
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                pending.pop(0)
                close(i, record, error=exc)
                continue
            if status.terminal:
                pending.pop(0)
                close(i, record, status)
            else:
                time.sleep(self.poll_s)
        rnd.layer["serve.rejected"] = rejected
        return done

    def round(self, traced: bool) -> Round:
        self.rounds += 1
        root = self.work / f"serve-{self.rounds}"
        root.mkdir(parents=True)
        rnd = Round(traced=traced)
        t0 = clock()
        proc, client = self._start_server(root, traced)
        rnd.setup_s = clock() - t0
        try:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, self.cpus[1:])
            start = clock()
            records = self._drive(client, rnd)
            rnd.wall_s = clock() - start
            stats = client.stats()
        finally:
            os.sched_setaffinity(0, self.cpus)
            self._stop_server(proc)
        dump = json.loads((root / "server.json").read_text())
        rnd.kernels = dump["kernels"]
        rnd.spans = dump["spans"]

        counters = stats["counters"]
        rnd.layer["serve.cache_hits"] = counters.get("cache_hits", 0)
        rnd.layer["serve.attached"] = counters.get("coalesced", 0)
        waits, runs, overheads = [], [], []
        run_s = {FRESH: 0.0, SIBLING: 0.0}
        fronts = set()
        results = {}
        for i, record in enumerate(records):
            rnd.attempted += 1
            rnd.op_times.append(record["s"])
            kind, spec = record["kind"], record["spec"]
            label = f"{i:02d}:{spec.benchmark}/{spec.platform.seed}/{spec.label}"
            if "result" not in record:
                rnd.failed += 1
                status = record.get("status")
                rnd.problems.append(
                    f"{label}: {record.get('error') or (status and status.error)}"
                )
                continue
            status, job = record["status"], record["result"]
            overheads.append(record["s"] - (status.finished_at - status.submitted_at))
            problems = []
            if _digest(job.result) != job.result_digest:
                problems.append(f"{label}: result digest does not match its payload")
            if (kind == REPEAT) != bool(job.cached):
                problems.append(f"{label}: {kind} job reports cached={job.cached}")
            if not job.cached:
                waits.append(status.started_at - status.submitted_at)
                runs.append(status.finished_at - status.started_at)
                if kind in run_s:
                    run_s[kind] += runs[-1]
                rnd.sim_accesses += job.result.tracer.cpu_accesses
                add_counts(rnd.counts, result_counts(job.result))
                problems += check_result(label, job.result)
            if problems:
                rnd.failed += 1
                rnd.problems += problems
            fronts.add((spec.benchmark, spec.platform.seed))
            results[(spec.benchmark, spec.digest)] = job.result_digest
            rnd.digests[label] = job.result_digest
        captures = stats["trace_store"]["puts"]
        if captures != len(fronts):
            rnd.problems.append(f"{captures} captures for {len(fronts)} distinct front ends")
        for name, values in (("queue_wait", waits), ("run", runs), ("overhead", overheads)):
            rnd.layer[f"serve.{name}_p50_s"] = statistics.median(values) if values else 0.0
        rnd.layer["serve.fresh_run_s"] = run_s[FRESH]
        rnd.layer["serve.sibling_run_s"] = run_s[SIBLING]
        if self.first_results is None:
            self.first_results = results
        shutil.rmtree(root / "traces", ignore_errors=True)
        return rnd

    def final_checks(self) -> list[str]:
        """(g): every served result equals a direct ``Session.run``."""
        from repro.api import Session

        if not self.first_results:
            return ["no completed round to compare against"]
        specs = {(spec.benchmark, spec.digest): spec for _, spec, _ in self.jobs}
        session = Session()
        problems = []
        for key, served in sorted(self.first_results.items()):
            spec = specs[key]
            direct = _digest(session.run(spec.benchmark, platform=spec.platform))
            if direct != served:
                problems.append(f"{spec.benchmark}/{spec.label}: served digest != Session.run")
        return problems


WORKLOADS = {w.name: w for w in (FigureGrid, SorterSweep, ServeMix)}
