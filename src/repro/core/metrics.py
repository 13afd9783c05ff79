"""Simulation output: the statistics TPSIM reports (§4).

The paper's primary metric is mean transaction response time; TPSIM
additionally records "detailed statistics on the composition of response
time and device utilization, waiting times, queue lengths, lock
behavior, hit ratios, etc."  :class:`MetricsCollector` gathers all of
those during a run (after the warm-up boundary) and freezes them into a
plain :class:`Results` record at the end.

Hit-ratio accounting follows Table 4.2: the denominator is the number
of logical page accesses (one per object reference), and each access is
attributed to the level that satisfied it — main memory, NVEM cache,
disk cache, SSD, NVEM-resident, memory-resident or disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.transaction import Transaction
from repro.sim import Environment
from repro.sim.stats import Accumulator, CategoryCounter

__all__ = ["MetricsCollector", "Results", "Window"]

#: Access levels, in hierarchy order.
LEVEL_MEMORY_RESIDENT = "memory_resident"
LEVEL_MAIN_MEMORY = "main_memory"
LEVEL_NVEM_CACHE = "nvem_cache"
LEVEL_NVEM_RESIDENT = "nvem"
LEVEL_DISK_CACHE = "disk_cache"
LEVEL_SSD = "ssd"
LEVEL_FLASH = "flash"
LEVEL_BATTERY_DRAM = "battery_dram"
LEVEL_DISK = "disk"


@dataclass
class Results:
    """Frozen summary of one simulation run."""

    simulated_time: float
    committed: int
    aborted: int
    #: Logical page accesses observed during measurement.
    page_accesses: int
    throughput: float
    response_time_mean: float
    response_time_p95: float
    response_time_max: float
    response_by_type: Dict[str, float]
    #: Mean seconds per committed transaction, by component.
    composition: Dict[str, float]
    #: Page-access share per level (fractions of all logical accesses).
    hit_ratios: Dict[str, float]
    #: Per-tag (record type / partition) main-memory hit ratio.
    mm_hit_by_tag: Dict[str, float]
    #: Second-level (NVEM or disk cache) hit ratio per tag.
    second_level_hit_by_tag: Dict[str, float]
    #: I/O counts per committed transaction.
    io_per_tx: Dict[str, float]
    lock_stats: Dict[str, float]
    cpu_utilization: float
    device_utilization: Dict[str, Dict[str, float]]
    saturated: bool = False
    input_queue_peak: int = 0
    #: The optional blocks: each is filled by its subsystem (see
    #: :meth:`MetricsCollector.block`) and stays ``None`` when the run
    #: had no such subsystem, so its export is bit-identical to builds
    #: without it.
    #: Crash-recovery counters and availability (:mod:`repro.recovery`).
    recovery: Optional[Dict[str, float]] = None
    #: Shared-nothing size, $ cost and 2PC counters (:mod:`repro.cluster`).
    cluster: Optional[Dict[str, float]] = None
    #: Degraded-window TPS, I/O retries and media-recovery MTTR (media
    #: faults or online redo).
    degraded: Optional[Dict[str, float]] = None
    #: p50/p95/p99 + SLO attainment (``TraceConfig.latency_detail``).
    latency: Optional[Dict[str, float]] = None
    #: Telemetry gauge samples (``TraceConfig.telemetry_interval``).
    timeseries: Optional[List[Dict]] = None

    def stat(self, block: str, key: str,
             default: Optional[float] = 0.0) -> Optional[float]:
        """``key`` of the named block, or ``default`` without one."""
        payload = getattr(self, block)
        return default if payload is None else payload.get(key, default)

    @property
    def response_time_ms(self) -> float:
        return self.response_time_mean * 1000.0

    @property
    def response_time_p50(self) -> Optional[float]:
        """Median response time; ``None`` without a latency block."""
        return self.stat("latency", "p50", None)

    @property
    def response_time_p99(self) -> Optional[float]:
        """99th-percentile response time; ``None`` without a latency
        block."""
        return self.stat("latency", "p99", None)

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of commits inside the SLO threshold; ``None``
        without a latency block (the share is measured, never guessed
        from the summary statistics)."""
        return self.stat("latency", "slo_attainment", None)

    @property
    def availability(self) -> float:
        """Fraction of the measured window the system was up."""
        return self.stat("recovery", "availability", 1.0)

    @property
    def restart_time_mean(self) -> float:
        """Mean restart (crash-to-admission) time in seconds — the MTTR."""
        return self.stat("recovery", "restart_time_mean")

    @property
    def degraded_tps(self) -> float:
        """Delivered throughput while the system ran degraded (media
        rebuild in progress or online redo admitting transactions)."""
        return self.stat("degraded", "degraded_tps")

    @property
    def media_mttr_mean(self) -> float:
        """Mean media-recovery time (loss to fully rebuilt) in seconds."""
        return self.stat("degraded", "media_mttr_mean")

    @property
    def io_retries(self) -> float:
        """Transient-fault I/O retries survived during measurement."""
        return self.stat("degraded", "io_retries")

    @property
    def nodes(self) -> int:
        """Computing modules the run used (1 for the central case)."""
        return int(self.stat("cluster", "nodes", 1))

    @property
    def dist_fraction(self) -> float:
        """Measured fraction of commits that ran two-phase commit."""
        if self.committed == 0:
            return 0.0
        return self.stat("cluster", "distributed_commits") / self.committed

    @property
    def commit_phase_ms(self) -> float:
        """Mean commit-phase (EOT to lock release) time per commit."""
        if self.committed == 0:
            return 0.0
        return self.stat("cluster", "commit_phase_total") \
            / self.committed * 1000.0

    @property
    def in_doubt_time(self) -> float:
        """Mean seconds a prepared 2PC participant spent in doubt
        (vote sent, decision not yet known — locks held throughout)."""
        prepared = self.stat("cluster", "prepared_pieces")
        if prepared <= 0:
            return 0.0
        return self.stat("cluster", "in_doubt_total") / prepared

    @property
    def dollars_per_tps(self) -> float:
        """Price-performance: configuration dollars per measured TPS."""
        if self.throughput <= 0:
            return 0.0
        return self.stat("cluster", "cost_dollars") / self.throughput

    def normalized_response_time(self, mean_tx_size: float) -> float:
        """Response time of an "artificial transaction performing the
        average number of database accesses" (§4.6): total response time
        divided by total accesses, scaled to ``mean_tx_size`` accesses.

        This is how the paper reports trace results, where transaction
        sizes vary from a handful of accesses to 11,000.
        """
        if self.page_accesses == 0:
            return 0.0
        per_access = (self.response_time_mean * self.committed) / \
            self.page_accesses
        return per_access * mean_tx_size

    def hit_ratio(self, level: str) -> float:
        return self.hit_ratios.get(level, 0.0)

    def summary(self) -> str:
        """Human-readable one-run report."""
        lines = [
            f"simulated time      : {self.simulated_time:.2f} s",
            f"committed tx        : {self.committed}",
            f"aborted tx (dlock)  : {self.aborted}",
            f"throughput          : {self.throughput:.1f} TPS",
            f"response time       : {self.response_time_ms:.2f} ms "
            f"(p95 {self.response_time_p95 * 1000:.2f}, "
            f"max {self.response_time_max * 1000:.2f})",
            f"cpu utilization     : {self.cpu_utilization * 100:.1f} %",
            "hit ratios          : "
            + ", ".join(
                f"{level}={ratio * 100:.1f}%"
                for level, ratio in sorted(self.hit_ratios.items())
                if ratio > 0
            ),
            "ios per tx          : "
            + ", ".join(
                f"{kind}={count:.2f}"
                for kind, count in sorted(self.io_per_tx.items())
                if count > 0
            ),
        ]
        if self.recovery is not None:
            lines.append(
                f"availability        : {self.availability * 100:.2f} % "
                f"({int(self.recovery.get('crashes', 0))} crash(es), "
                f"MTTR {self.restart_time_mean:.2f} s, "
                f"{int(self.recovery.get('checkpoints', 0))} checkpoint(s))"
            )
        if self.degraded is not None:
            lines.append(
                f"degraded mode       : "
                f"{self.degraded.get('degraded_window', 0.0):.2f} s window, "
                f"{self.degraded_tps:.1f} TPS degraded, "
                f"{int(self.io_retries)} retry(ies), "
                f"{int(self.degraded.get('media_recoveries', 0))} media "
                f"recovery(ies), MTTR {self.media_mttr_mean:.2f} s"
            )
        if self.cluster is not None:
            lines.append(
                f"cluster             : {self.nodes} node(s), "
                f"{self.dist_fraction * 100:.1f} % distributed, "
                f"commit phase {self.commit_phase_ms:.2f} ms, "
                f"in-doubt {self.in_doubt_time * 1000:.2f} ms, "
                f"{self.dollars_per_tps:,.0f} $/tps"
            )
        if self.saturated:
            lines.append("WARNING             : input queue diverged (saturated)")
        return "\n".join(lines)


class Window:
    """A union of possibly overlapping intervals, clipped to the
    measured window.

    Overlapping outages (two nodes down at once, a media rebuild
    spanning a crash) charge the wall clock once: ``open`` counts the
    concurrently open intervals and ``since`` marks when their union
    opened, so :meth:`total` can also charge a window that ends while
    an interval is still open.
    """

    __slots__ = ("env", "open", "since", "closed", "measure_start")

    def __init__(self, env: Environment):
        self.env = env
        self.open = 0
        self.since: Optional[float] = None
        self.closed = 0.0
        self.measure_start = env.now

    def start(self) -> None:
        if self.open == 0:
            self.since = self.env.now
        self.open += 1

    def end(self) -> None:
        """Close one interval; closing the last one charges the union."""
        self.open = max(0, self.open - 1)
        if self.open == 0 and self.since is not None:
            self.closed += self._open_part()
            self.since = None

    def reset(self) -> None:
        """Warm-up boundary: only later time is charged."""
        self.measure_start = self.env.now
        self.closed = 0.0

    def total(self) -> float:
        """Charged seconds, including a union that is still open."""
        if self.since is None:
            return self.closed
        return self.closed + self._open_part()

    def _open_part(self) -> float:
        return max(0.0, self.env.now - max(self.since, self.measure_start))


class MetricsCollector:
    """Accumulates statistics during a run (post-warm-up).

    The per-reference hooks (:meth:`record_page_access`,
    :meth:`record_io`) run once per logical page access / physical I/O —
    millions of times per figure — so they are plain dict-counter
    increments: no string formatting, no attribute chains beyond one
    bound dict, no allocation except the first time a tag appears.

    Subsystems keep their own accounting in a *block* (:meth:`block`);
    the collector only resets and finalizes the blocks it was given.
    """

    def __init__(self, env: Environment, reservoir: int = 4000):
        self.env = env
        self.measure_start = env.now
        self.response = Accumulator(reservoir=reservoir)
        self.response_by_type: Dict[str, Accumulator] = {}
        self.committed = 0
        self.aborted = 0
        self.restarts = 0
        self.page_access = CategoryCounter()
        self.page_access_by_tag: Dict[str, CategoryCounter] = {}
        self.io_counts = CategoryCounter()
        self.lock_counts = CategoryCounter()
        # Bound inner dicts for the per-reference hooks.  CategoryCounter
        # clears (never replaces) its dict on reset, so these aliases
        # stay valid across warm-up boundaries.
        self._page_counts = self.page_access._counts
        self._io_count_map = self.io_counts._counts
        self._tag_counts: Dict[str, Dict[str, int]] = {}
        self.lock_wait = Accumulator()
        self.composition_totals: Dict[str, float] = {
            "input_queue": 0.0,
            "cpu_wait": 0.0,
            "cpu_service": 0.0,
            "lock_wait": 0.0,
            "sync_io": 0.0,
            "async_io": 0.0,
            "nvem": 0.0,
        }
        self.input_queue_peak = 0
        self.saturated = False
        #: Down time and degraded time (media rebuild in progress, or
        #: online redo admitting transactions).  Held here because
        #: crashes, cluster faults, media, online redo and telemetry
        #: all touch them; commits inside a degraded window are counted.
        self.outage = Window(env)
        self.degraded = Window(env)
        self.degraded_commits = 0
        #: Commits within ``slo_threshold`` seconds: one comparison per
        #: commit, so it is always maintained.
        self.slo_threshold = 1.0
        self.slo_ok = 0
        #: Span tracer, cleared at the warm-up boundary (``None`` when
        #: tracing is off).
        self.tracer = None
        #: ``Results`` field name -> block (see :meth:`block`).
        self.blocks: Dict[str, object] = {}

    def block(self, name: str,
              factory: Callable[["MetricsCollector"], object]):
        """The block that fills ``Results.<name>``, made by
        ``factory(self)`` on first request.

        A block has ``reset()`` (the warm-up boundary) and
        ``finalize()``, which returns the field's payload.  A run that
        never asks for a block leaves its field ``None``, so its export
        is unchanged.  Every later request returns the same block, so
        two producers of one block (media faults and online redo) share
        it.
        """
        block = self.blocks.get(name)
        if block is None:
            block = self.blocks[name] = factory(self)
        return block

    # -- event hooks ------------------------------------------------------
    def record_commit(self, tx: Transaction, response_time: float) -> None:
        self.committed += 1
        self.response.add(response_time)
        acc = self.response_by_type.get(tx.tx_type)
        if acc is None:
            acc = self.response_by_type[tx.tx_type] = Accumulator()
        acc.add(response_time)
        totals = self.composition_totals
        totals["input_queue"] += tx.wait_input_queue
        totals["cpu_wait"] += tx.wait_cpu
        totals["cpu_service"] += tx.service_cpu
        totals["lock_wait"] += tx.wait_lock
        totals["sync_io"] += tx.wait_sync_io
        totals["async_io"] += tx.wait_async_io
        totals["nvem"] += tx.wait_nvem
        if response_time <= self.slo_threshold:
            self.slo_ok += 1
        if self.degraded.open:
            self.degraded_commits += 1

    def record_abort(self, tx: Transaction, restarted: bool = True) -> None:
        """Count an abort; ``restarted=False`` for external aborts that
        tear the transaction down without re-running it (the restart
        counter tracks deadlock victims that actually re-execute)."""
        self.aborted += 1
        if restarted:
            self.restarts += 1

    def record_page_access(self, tag: Optional[str], level: str) -> None:
        counts = self._page_counts
        counts[level] = counts.get(level, 0) + 1
        if tag is not None:
            by_tag = self._tag_counts.get(tag)
            if by_tag is None:
                counter = self.page_access_by_tag[tag] = CategoryCounter()
                by_tag = self._tag_counts[tag] = counter._counts
            by_tag[level] = by_tag.get(level, 0) + 1

    def record_io(self, kind: str) -> None:
        counts = self._io_count_map
        counts[kind] = counts.get(kind, 0) + 1

    def record_lock_request(self, granted_immediately: bool) -> None:
        self.lock_counts.add("requests")
        if not granted_immediately:
            self.lock_counts.add("conflicts")

    def record_lock_wait(self, duration: float) -> None:
        self.lock_wait.add(duration)

    def record_deadlock(self) -> None:
        self.lock_counts.add("deadlocks")

    def note_input_queue(self, length: int) -> None:
        if length > self.input_queue_peak:
            self.input_queue_peak = length

    # -- warm-up ------------------------------------------------------------
    def reset(self) -> None:
        """Discard everything measured so far (warm-up boundary)."""
        self.measure_start = self.env.now
        self.response.reset()
        self.response_by_type.clear()
        self.committed = 0
        self.aborted = 0
        self.restarts = 0
        self.page_access.reset()
        self.page_access_by_tag.clear()
        self._tag_counts.clear()
        self.io_counts.reset()
        self.lock_counts.reset()
        self.lock_wait.reset()
        for key in self.composition_totals:
            self.composition_totals[key] = 0.0
        self.input_queue_peak = 0
        self.saturated = False
        self.outage.reset()
        self.degraded.reset()
        self.degraded_commits = 0
        self.slo_ok = 0
        if self.tracer is not None:
            self.tracer.clear()
        for block in self.blocks.values():
            block.reset()

    # -- finalization ------------------------------------------------------
    def finalize(self, cpu_utilization: float,
                 device_utilization: Dict[str, Dict[str, float]]) -> Results:
        span = self.env.now - self.measure_start
        committed = max(self.committed, 1)
        total_accesses = max(self.page_access.total(), 1)
        hit_ratios = {
            level: count / total_accesses
            for level, count in self.page_access.as_dict().items()
        }
        mm_by_tag = {}
        second_by_tag = {}
        for tag, counter in self.page_access_by_tag.items():
            tag_total = max(counter.total(), 1)
            mm_by_tag[tag] = (
                counter.get(LEVEL_MAIN_MEMORY)
                + counter.get(LEVEL_MEMORY_RESIDENT)
            ) / tag_total
            second_by_tag[tag] = (
                counter.get(LEVEL_NVEM_CACHE) + counter.get(LEVEL_DISK_CACHE)
            ) / tag_total
        io_per_tx = {
            kind: count / committed
            for kind, count in self.io_counts.as_dict().items()
        }
        requests = self.lock_counts.get("requests")
        lock_stats = {
            "requests_per_tx": requests / committed,
            "conflict_ratio": (
                self.lock_counts.get("conflicts") / requests if requests else 0.0
            ),
            "deadlocks": float(self.lock_counts.get("deadlocks")),
            "mean_lock_wait": self.lock_wait.mean(),
        }
        composition = {
            key: total / committed
            for key, total in self.composition_totals.items()
        }
        return Results(
            simulated_time=span,
            committed=self.committed,
            aborted=self.aborted,
            page_accesses=self.page_access.total(),
            throughput=self.committed / span if span > 0 else 0.0,
            response_time_mean=self.response.mean(),
            response_time_p95=self.response.percentile(95),
            response_time_max=self.response.max if self.response.count else 0.0,
            response_by_type={
                name: acc.mean() for name, acc in self.response_by_type.items()
            },
            composition=composition,
            hit_ratios=hit_ratios,
            mm_hit_by_tag=mm_by_tag,
            second_level_hit_by_tag=second_by_tag,
            io_per_tx=io_per_tx,
            lock_stats=lock_stats,
            cpu_utilization=cpu_utilization,
            device_utilization=device_utilization,
            saturated=self.saturated,
            input_queue_peak=self.input_queue_peak,
            **{name: block.finalize() for name, block in self.blocks.items()},
        )
