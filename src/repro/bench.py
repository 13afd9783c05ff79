"""Kernel benchmark workloads, importable by tooling.

The workloads live inside the package (rather than in
``benchmarks/kernel_bench.py``) so both the tracked benchmark harness
and the ``repro bench`` CLI subcommand (including its ``--profile``
cProfile mode) can run the exact same code.  Each workload is a
zero-argument-callable-friendly function returning an operation count;
timing is the harness's job.

Workloads:

* ``event_chain`` — a single process yielding 20k timeouts: the pure
  ``yield env.timeout`` hot path (heap push + pop + timeout pooling).
* ``scheduler_insert_pop`` — 20k bare events at scattered times pushed
  through ``Environment.schedule`` and drained: isolates the event heap
  (insert + pop), no generator machinery at all.
* ``same_instant_batch`` — 20k events in 200 same-instant cohorts of
  100: dense ties resolved by sequence number, one heap pop per
  event.
* ``resource_contention`` — 2k customers through a three-stage FIFO
  queueing network: request/grant/release plus timeout mix.
* ``priority_cancel`` — a priority queue under heavy cancellation:
  exercises the eager-purge/compaction path.
* ``debit_credit`` — one simulated second of 200 TPS Debit-Credit:
  the end-to-end simulator.
* ``page_reference`` — one CM hammering the per-reference pipeline
  (CPU burst + buffer-manager fix) on a main-memory-hit working set.
* ``prewarm_trace`` — the cache prewarm of one ``fig4_6`` point (NVEM
  cache 2000, MM 250) on the fast trace: the setup every trace-driven
  sweep point pays before its first simulated event.
* ``trace_measure`` — the warm-up and measure phases of that same
  point, prewarm excluded: the trace-driven measured window, where
  buffer misses, NVEM transfers and disk I/O dominate.
* ``restart_replay`` — crash-recovery restart replay (log scan + redo).
* ``fig4_1_fast_sweep`` — the registry-driven fig4_1 fast sweep end to
  end: what an experiment author actually waits for.
* ``fig4_1_cached_rerun`` — the same sweep served entirely from a warm
  content-addressed result store: fingerprinting + store reads +
  deserialization, i.e. what an unchanged ``--cache`` rerun costs.
* ``calibration`` — fixed pure-Python spin loop; the machine-speed
  yardstick used to normalize all of the above.

A workload function may carry a ``prepare`` attribute: a step that
:func:`timed_ms` runs, untimed, before every timed call (used to keep
setup out of a measured-window benchmark).
"""

from __future__ import annotations

import random
import time

from repro.sim import Environment, PriorityResource, RandomStreams, Resource

__all__ = [
    "WORKLOADS",
    "bench_debit_credit",
    "bench_event_chain",
    "bench_fig4_1_cached_rerun",
    "bench_fig4_1_fast_sweep",
    "bench_media_redo",
    "bench_page_reference",
    "bench_prewarm_trace",
    "bench_priority_cancel",
    "bench_resource_contention",
    "bench_restart_replay",
    "bench_same_instant_batch",
    "bench_scheduler_insert_pop",
    "bench_trace_measure",
    "bench_trace_overhead",
    "calibration",
    "timed_ms",
]


def bench_event_chain(n: int = 20_000) -> int:
    env = Environment()

    def proc(env):
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env.now == float(n)
    return n


def bench_scheduler_insert_pop(n: int = 20_000) -> int:
    """Bare event-heap traffic: n events at scattered times, no
    processes — isolates heap insert + ordered drain."""
    env = Environment()
    rng = random.Random(123)
    schedule = env.schedule
    event = env.event
    for _ in range(n):
        ev = event()
        ev._ok = True
        schedule(ev, rng.random() * 100.0)
    env.run()
    assert not env._heap
    return n


def bench_same_instant_batch(instants: int = 200,
                             per_instant: int = 100) -> int:
    """Same-instant dispatch: dense cohorts of simultaneous events, the
    shape commit bursts and broadcast invalidations have."""
    env = Environment()
    schedule = env.schedule
    event = env.event
    for t in range(1, instants + 1):
        when = float(t)
        for _ in range(per_instant):
            ev = event()
            ev._ok = True
            schedule(ev, when)
    env.run()
    assert env.now == float(instants)
    return instants * per_instant


def bench_resource_contention(customers: int = 2_000) -> int:
    env = Environment()
    streams = RandomStreams(1)
    servers = [Resource(env, capacity=2) for _ in range(3)]

    def customer(env):
        for server in servers:
            req = server.request()
            yield req
            yield env.timeout(streams.exponential("svc", 1.0))
            server.release(req)

    def source(env):
        for _ in range(customers):
            yield env.timeout(streams.exponential("arr", 0.5))
            env.process(customer(env))

    env.process(source(env))
    env.run()
    return customers


def bench_priority_cancel(customers: int = 2_000) -> int:
    """Contended priority resource with a third of the waiters aborted."""
    env = Environment()
    streams = RandomStreams(2)
    server = PriorityResource(env, capacity=2)

    def customer(env, i):
        req = server.request(priority=i % 7)
        if i % 3 == 0:
            # Give up quickly: exercises cancel/purge under load.
            result = yield env.any_of([req, env.timeout(0.4)])
            if req not in result.values():
                server.cancel(req)
                return
        else:
            yield req
        yield env.timeout(streams.exponential("svc", 1.0))
        server.release(req)

    def source(env):
        for i in range(customers):
            yield env.timeout(streams.exponential("arr", 0.3))
            env.process(customer(env, i))

    env.process(source(env))
    env.run()
    return customers


def bench_debit_credit() -> int:
    from repro.core.model import TransactionSystem
    from repro.experiments.defaults import debit_credit_config, disk_only
    from repro.workload.debit_credit import DebitCreditWorkload

    config = debit_credit_config(disk_only())
    system = TransactionSystem(config, DebitCreditWorkload(arrival_rate=200))
    results = system.run(warmup=0.5, duration=1.0)
    assert results.committed > 100
    return results.committed


def bench_page_reference(n: int = 20_000) -> int:
    """One CM driving the per-reference pipeline on a hot working set.

    64 warm-up misses fill the frames, then every reference is a main
    memory hit: per-object CPU burst + buffer fix + hit accounting —
    the exact loop the transaction managers run per object reference.
    Metrics keep no percentile reservoir (``reservoir=0``).
    """
    from repro.core.bm import BufferManager
    from repro.core.cpu import CPUPool
    from repro.core.metrics import MetricsCollector
    from repro.core.transaction import ObjectRef, Transaction
    from repro.experiments.defaults import debit_credit_config, disk_only
    from repro.storage.hierarchy import StorageSubsystem

    config = debit_credit_config(disk_only())
    env = Environment()
    streams = RandomStreams(7)
    metrics = MetricsCollector(env, reservoir=0)
    storage = StorageSubsystem(env, streams, config)
    cpu = CPUPool(env, streams, config.cm)
    bm = BufferManager(env, streams, config, cpu, storage, metrics)
    instr_or = config.cm.instr_or
    refs = [ObjectRef(1, i, i % 64, False, tag="BRANCH") for i in range(n)]
    tx = Transaction(1, "bench", refs[:1])
    fix_fast = bm.fix_page_fast

    def driver(env):
        for ref in refs:
            burst = cpu.execute_event(tx, instr_or)
            if burst is not None:
                yield burst
            if fix_fast(tx, ref) is None:
                yield from bm.fix_page_miss(tx, ref)

    env.run(until=env.process(driver(env)))
    assert metrics.page_access.total() == n
    return n


def bench_prewarm_trace() -> int:
    """Prewarm of the ``fig4_6`` "NVEM cache 2000" point at MM 250.

    Builds the point's system and replays the fast trace through main
    memory and the NVEM cache, exactly as the experiment does before
    its warm-up.  The trace itself is generated (and cached) by the
    harness's warm-up call, so only the system build and the replay
    are timed.
    """
    from repro.core.model import TransactionSystem
    from repro.experiments.trace_setup import (
        trace_config,
        trace_for,
        trace_workload,
    )

    trace = trace_for(fast=True)
    workload = trace_workload(trace)
    system = TransactionSystem(trace_config(trace, "nvem", 250), workload,
                               seed=1)
    workload.prewarm(system)
    assert system.bm.mm_occupancy() == 250
    assert system.bm.nvem_occupancy() == 2000
    # The fast trace is shorter than the prewarm cap: all of it replays.
    return trace.num_accesses


class _TraceMeasure:
    """Warm-up and measure phases of the ``fig4_6`` "NVEM cache 2000"
    point at MM 250, at the fast profile's lengths.

    :meth:`prepare` builds and prewarms the system the next call runs,
    so only the simulated window is timed; a call without it prepares
    its own system first.
    """

    def __init__(self):
        self._system = None

    def prepare(self) -> None:
        from repro.core.model import TransactionSystem
        from repro.experiments.trace_setup import (
            trace_config,
            trace_for,
            trace_workload,
        )

        trace = trace_for(fast=True)
        system = TransactionSystem(trace_config(trace, "nvem", 250),
                                   trace_workload(trace), seed=1)
        system.start_workload()  # prewarm + arrival process, no sim time
        self._system = system

    def __call__(self) -> int:
        from repro.experiments.api import get_experiment

        if self._system is None:
            self.prepare()
        system, self._system = self._system, None
        profile = get_experiment("fig4_6").profile("fast")
        results = system.run(warmup=profile.warmup,
                             duration=profile.duration)
        assert results.committed > 300
        return results.committed


bench_trace_measure = _TraceMeasure()


def bench_restart_replay(redo_pages: int = 1200,
                         log_pages: int = 600) -> int:
    """Crash-recovery restart replay (log scan + redo) on disk units.

    Populates the recovery tracker with a synthetic dirty page table
    and log tail, then replays the restart through the real device
    registry — the path every fig_restart / ablation_availability
    point pays once per injected crash.
    """
    from repro.core.model import TransactionSystem
    from repro.experiments.defaults import debit_credit_config, disk_only

    config = debit_credit_config(disk_only())
    config.recovery.enabled = True

    class _IdleWorkload:
        def start(self, system):
            pass

    system = TransactionSystem(config, _IdleWorkload(), seed=11)
    tracker = system.recovery.tracker
    for i in range(redo_pages):
        tracker.note_dirty((0, i))
    system.storage._log_page = log_pages
    snapshot = tracker.on_crash(time=0.0, log_tail=log_pages, in_flight=0)
    replayer = system.recovery.crash_controller.replayer
    done = system.env.process(replayer.replay(snapshot))
    system.env.run(until=done)
    assert system.env.now > 0
    return redo_pages + log_pages


def bench_media_redo(written_pages: int = 1500,
                     log_pages: int = 600) -> int:
    """Media rebuild of a lost database unit through the device registry.

    Primes the written-page tracker and log tail, marks ``db0`` lost,
    and drives the :class:`~repro.recovery.media.MediaRecoverer`
    directly: batched archive restore of the full unit, the
    post-archive log scan, and the per-stale-page redo — the path every
    fig_media_recovery point pays once per injected loss.
    """
    from repro.core.config import DeviceFault
    from repro.core.model import TransactionSystem
    from repro.experiments.defaults import debit_credit_config, disk_only
    from repro.recovery.media import MediaRecoveryStats

    config = debit_credit_config(disk_only())
    config.media.enabled = True
    # The scheduled instant never fires inside the benchmark run; it
    # only arms the subsystem (gate, tracker, archive device).
    config.media.faults = (
        DeviceFault(device="db0", time=1e9, kind="loss"),
    )
    config.media.archive_batch_pages = 8192

    class _IdleWorkload:
        def start(self, system):
            pass

    system = TransactionSystem(config, _IdleWorkload(), seed=11)
    tracker = system.storage.media_tracker
    for i in range(written_pages):
        tracker.note_write("db0", (0, i))
    system.storage._log_page = log_pages
    system.storage.media_state.mark_lost("db0")
    stats = MediaRecoveryStats("db0", system.env.now)
    done = system.env.process(
        system.media.recoverer.recover_device("db0", stats))
    system.env.run(until=done)
    assert stats.restore_pages > 0
    assert stats.redo_pages == written_pages
    assert stats.log_pages == log_pages
    return stats.restore_batches + stats.redo_pages + stats.log_pages


def bench_cluster_2pc_commit() -> int:
    """A 2-node sharded cluster committing through presumed-abort 2PC.

    Half the transactions touch a remote account, so every timed call
    exercises the full distributed path: work shipping over the
    message bus, participant prepare forces, GEM decision mirroring
    and the decision/commit fan-out — on top of the per-node
    single-system stack the other benchmarks cover.
    """
    from repro.cluster import cluster_config, node_scheme
    from repro.cluster.workload import ShardedDebitCreditWorkload

    config = cluster_config(scheme=node_scheme(log="nvem"), num_nodes=2)
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=100.0, distributed_fraction=0.5)
    system = config.build_system(workload, seed=1)
    results = system.run(warmup=0.5, duration=1.0)
    assert results.committed > 100
    assert results.cluster["distributed_commits"] > 20
    return results.committed


def bench_trace_overhead() -> int:
    """The traced Debit-Credit second: tracer off, sampled 1/10, full.

    Three back-to-back runs of the ``debit_credit`` kernel second with
    tracing disabled, sampling every 10th transaction, and tracing
    every transaction.  The reported time bounds the *worst-case* cost
    of leaving span tracing on; the off-run inside the same measurement
    keeps the ratio honest against machine drift.
    """
    import dataclasses

    from repro.core.model import TransactionSystem
    from repro.experiments.defaults import debit_credit_config, disk_only
    from repro.workload.debit_credit import DebitCreditWorkload

    spans = 0
    committed = 0
    for sample, enabled in ((1, False), (10, True), (1, True)):
        config = debit_credit_config(disk_only())
        config.trace = dataclasses.replace(
            config.trace, enabled=enabled, sample=sample)
        system = TransactionSystem(
            config, DebitCreditWorkload(arrival_rate=200))
        results = system.run(warmup=0.5, duration=1.0)
        assert results.committed > 100
        committed += results.committed
        if enabled:
            assert system.tracer is not None and system.tracer.spans
            spans += len(system.tracer.spans)
    assert spans > 0
    return committed


def bench_fig4_1_fast_sweep() -> int:
    """The registry-driven fig4_1 fast sweep, serial, end to end."""
    from repro.experiments.api import ExperimentRunner, get_experiment

    result = ExperimentRunner().run_one(get_experiment("fig4_1"),
                                        profile="fast")
    points = sum(len(series.points) for series in result.series)
    assert points >= 8
    return points


#: Per-process store backing ``bench_fig4_1_cached_rerun``; lives in a
#: temporary directory so benchmark runs never touch the user's cache.
_CACHED_RERUN_STORE = None


def bench_fig4_1_cached_rerun() -> int:
    """The fig4_1 fast sweep served from a warm point cache.

    The first call of the process populates a temporary
    :class:`~repro.experiments.store.ResultStore` (the harness's
    warm-up call absorbs that cost); every timed call then runs with
    100% cache hits, measuring the incremental-rerun path: point
    fingerprinting, store reads and Results deserialization.
    """
    import tempfile

    from repro.experiments.api import ExperimentRunner, get_experiment
    from repro.experiments.store import ResultStore

    global _CACHED_RERUN_STORE
    if _CACHED_RERUN_STORE is None:
        _CACHED_RERUN_STORE = ResultStore(
            tempfile.mkdtemp(prefix="repro-bench-cache-"))
    runner = ExperimentRunner(store=_CACHED_RERUN_STORE)
    result = runner.run_one(get_experiment("fig4_1"), profile="fast")
    points = sum(len(series.points) for series in result.series)
    assert points >= 8
    return points


def timed_ms(fn) -> float:
    """Wall milliseconds of one workload call; the workload's
    ``prepare`` step, if it has one, runs first and is not timed."""
    prepare = getattr(fn, "prepare", None)
    if prepare is not None:
        prepare()
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def calibration(loops: int = 2_000_000) -> int:
    """Fixed pure-Python spin loop; the machine-speed yardstick."""
    acc = 0
    for i in range(loops):
        acc += i & 7
    return acc


#: name -> (workload, description).  The registry the harness and the
#: CLI iterate; order is report order.
WORKLOADS = {
    "event_chain": (bench_event_chain, "20k-timeout chain"),
    "scheduler_insert_pop": (
        bench_scheduler_insert_pop,
        "20k bare events, scattered times (heap insert+pop)"),
    "same_instant_batch": (
        bench_same_instant_batch,
        "200 cohorts x 100 simultaneous events"),
    "resource_contention": (
        bench_resource_contention, "2k customers, 3-stage FIFO network"),
    "priority_cancel": (
        bench_priority_cancel, "2k customers, priority queue, 1/3 cancelled"),
    "debit_credit": (
        bench_debit_credit, "1 s of 200 TPS Debit-Credit end-to-end"),
    "page_reference": (
        bench_page_reference, "20k-reference MM-hit pipeline (1 CM)"),
    "prewarm_trace": (
        bench_prewarm_trace,
        "fig4_6 NVEM-cache point prewarm: 89k fast-trace references"),
    "trace_measure": (
        bench_trace_measure,
        "fig4_6 NVEM-cache point warm-up + measure (4 + 15 sim s), "
        "prewarm excluded"),
    "restart_replay": (
        bench_restart_replay,
        "crash restart: 600-page log scan + 1200-page redo on disks"),
    "media_redo": (
        bench_media_redo,
        "media rebuild: 5.5M-page archive restore + 600-page log scan "
        "+ 1.5k-page redo"),
    "cluster_2pc_commit": (
        bench_cluster_2pc_commit,
        "1 s of 2-node sharded Debit-Credit, 50% distributed via 2PC"),
    "trace_overhead": (
        bench_trace_overhead,
        "3x 1 s 200 TPS Debit-Credit: tracer off / sampled 1/10 / full"),
    "fig4_1_fast_sweep": (
        bench_fig4_1_fast_sweep,
        "fig4_1 fast profile through the experiment registry"),
    "fig4_1_cached_rerun": (
        bench_fig4_1_cached_rerun,
        "fig4_1 fast profile from a warm point cache (100% hits)"),
}
