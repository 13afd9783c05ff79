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
from typing import Dict, List, Optional

from repro.core.transaction import Transaction
from repro.sim import Environment
from repro.sim.stats import Accumulator, CategoryCounter

__all__ = ["MetricsCollector", "Results"]

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
    #: Crash-recovery/availability counters; ``None`` unless the run had
    #: the recovery subsystem enabled (keeps recovery-disabled exports
    #: bit-identical to builds without the subsystem).
    recovery: Optional[Dict[str, float]] = None
    #: Cluster / two-phase-commit counters; ``None`` unless the run was
    #: a multi-node cluster (keeps single-node exports bit-identical to
    #: builds without the cluster subsystem).
    cluster: Optional[Dict[str, float]] = None
    #: Degraded-mode / media-failure counters (degraded-window TPS, I/O
    #: retries, media-recovery MTTR distribution); ``None`` unless the
    #: run enabled media faults or online redo (keeps default-off
    #: exports bit-identical to builds without the subsystem).
    degraded: Optional[Dict[str, float]] = None
    #: Latency-distribution block (p50/p95/p99 + SLO attainment);
    #: ``None`` unless the run enabled ``TraceConfig.latency_detail``
    #: (keeps default exports bit-identical to builds without the
    #: observability subsystem).
    latency: Optional[Dict[str, float]] = None
    #: Telemetry gauge samples (:mod:`repro.trace.telemetry`); ``None``
    #: unless the run set ``TraceConfig.telemetry_interval``.
    timeseries: Optional[List[Dict]] = None

    @property
    def response_time_ms(self) -> float:
        return self.response_time_mean * 1000.0

    @property
    def response_time_p50(self) -> float:
        """Median response time; falls back to the mean when the run
        recorded no latency block."""
        if self.latency is not None:
            return self.latency.get("p50", self.response_time_mean)
        return self.response_time_mean

    @property
    def response_time_p99(self) -> float:
        """99th-percentile response time; falls back to p95 when the
        run recorded no latency block."""
        if self.latency is not None:
            return self.latency.get("p99", self.response_time_p95)
        return self.response_time_p95

    @property
    def slo_attainment(self) -> float:
        """Fraction of commits inside the SLO threshold.

        Exact when the run recorded the latency block; otherwise a
        coarse bound read off the summary statistics against the
        default 1 s threshold (TPC-A's classic 90th-percentile bound).
        """
        if self.latency is not None:
            return self.latency.get("slo_attainment", 1.0)
        if self.committed == 0:
            return 1.0
        if self.response_time_max <= 1.0:
            return 1.0
        if self.response_time_p95 <= 1.0:
            return 0.95
        if self.response_time_mean <= 1.0:
            return 0.5
        return 0.0

    @property
    def availability(self) -> float:
        """Fraction of the measured window the system was up."""
        if self.recovery is None:
            return 1.0
        return self.recovery.get("availability", 1.0)

    @property
    def restart_time_mean(self) -> float:
        """Mean restart (crash-to-admission) time in seconds — the MTTR."""
        if self.recovery is None:
            return 0.0
        return self.recovery.get("restart_time_mean", 0.0)

    @property
    def degraded_tps(self) -> float:
        """Delivered throughput while the system ran degraded (media
        rebuild in progress or online redo admitting transactions)."""
        if self.degraded is None:
            return 0.0
        return self.degraded.get("degraded_tps", 0.0)

    @property
    def media_mttr_mean(self) -> float:
        """Mean media-recovery time (loss to fully rebuilt) in seconds."""
        if self.degraded is None:
            return 0.0
        return self.degraded.get("media_mttr_mean", 0.0)

    @property
    def io_retries(self) -> float:
        """Transient-fault I/O retries survived during measurement."""
        if self.degraded is None:
            return 0.0
        return self.degraded.get("io_retries", 0.0)

    @property
    def nodes(self) -> int:
        """Computing modules the run used (1 for the central case)."""
        if self.cluster is None:
            return 1
        return int(self.cluster.get("nodes", 1))

    @property
    def dist_fraction(self) -> float:
        """Measured fraction of commits that ran two-phase commit."""
        if self.cluster is None or self.committed == 0:
            return 0.0
        return self.cluster.get("distributed_commits", 0.0) / self.committed

    @property
    def commit_phase_ms(self) -> float:
        """Mean commit-phase (EOT to lock release) time per commit."""
        if self.cluster is None or self.committed == 0:
            return 0.0
        return self.cluster.get("commit_phase_total", 0.0) \
            / self.committed * 1000.0

    @property
    def in_doubt_time(self) -> float:
        """Mean seconds a prepared 2PC participant spent in doubt
        (vote sent, decision not yet known — locks held throughout)."""
        if self.cluster is None:
            return 0.0
        prepared = self.cluster.get("prepared_pieces", 0.0)
        if prepared <= 0:
            return 0.0
        return self.cluster.get("in_doubt_total", 0.0) / prepared

    @property
    def dollars_per_tps(self) -> float:
        """Price-performance: configuration dollars per measured TPS."""
        if self.cluster is None or self.throughput <= 0:
            return 0.0
        return self.cluster.get("cost_dollars", 0.0) / self.throughput

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


class MetricsCollector:
    """Accumulates statistics during a run (post-warm-up).

    The per-reference hooks (:meth:`record_page_access`,
    :meth:`record_io`) run once per logical page access / physical I/O —
    millions of times per figure — so they are plain dict-counter
    increments: no string formatting, no attribute chains beyond one
    bound dict, no allocation except the first time a tag appears.
    """

    def __init__(self, env: Environment, reservoir: int = 4000):
        self.env = env
        self.active = True
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
        #: Set by the recovery subsystem when installed; makes finalize
        #: emit the availability block even for crash-free windows.
        self.recovery_enabled = False
        self.crash_count = 0
        self.checkpoint_count = 0
        #: True restart durations (MTTR numerator) vs. the part of them
        #: that fell inside the measured window (availability charge).
        self.downtime_total = 0.0
        self.window_downtime = 0.0
        self.restart_log_pages = 0
        self.restart_redo_pages = 0
        self.restart_log_scan_total = 0.0
        self.restart_redo_total = 0.0
        #: Outage accounting as a *union* of down-intervals: overlapping
        #: outages (two nodes down at once, or a media rebuild spanning
        #: a crash) charge the wall-clock once.  ``_outages_open`` counts
        #: concurrently open outages; ``_outage_union_since`` marks when
        #: the union interval opened, so finalize can charge a window
        #: that ends mid-outage.
        self._outages_open = 0
        self._outage_union_since: Optional[float] = None
        #: Set by the media/online-redo wiring; makes finalize emit the
        #: degraded block even for fault-free windows.
        self.media_enabled = False
        self.io_retry_count = 0
        self.media_recovery_count = 0
        self.media_mttr_total = 0.0
        self.media_mttr_max = 0.0
        self.media_restore_pages = 0
        self.media_redo_pages = 0
        self.media_log_pages = 0
        #: Degraded windows (media rebuild in progress or online redo
        #: admitting transactions), unioned like outages.
        self._degraded_open = 0
        self._degraded_since: Optional[float] = None
        self.degraded_window = 0.0
        self.degraded_commits = 0
        #: Set by the cluster layer; makes finalize emit the cluster
        #: block (per-phase 2PC counters + price-performance inputs).
        self.cluster_enabled = False
        self.cluster_nodes = 1
        self.cluster_cost = 0.0
        self.local_commits = 0
        self.distributed_commits = 0
        self.commit_phase_total = 0.0
        self.prepared_pieces = 0
        self.in_doubt_total = 0.0
        self.failover_resolved = 0
        #: Observability wiring (:mod:`repro.trace`), set by the system
        #: when configured.  ``latency_detail`` makes finalize emit the
        #: p50/p99/SLO block; the SLO counter itself costs one
        #: comparison per *commit* (never per event) so it is always
        #: maintained.  ``tracer``/``telemetry`` are cleared at the
        #: warm-up boundary through :meth:`reset`, which both the
        #: single-node and the cluster run loop already call.
        self.latency_detail = False
        self.slo_threshold = 1.0
        self.slo_ok = 0
        self.tracer = None
        self.telemetry = None

    # -- event hooks ------------------------------------------------------
    def record_commit(self, tx: Transaction, response_time: float) -> None:
        if not self.active:
            return
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
        if self._degraded_open:
            self.degraded_commits += 1

    def record_abort(self, tx: Transaction, restarted: bool = True) -> None:
        """Count an abort; ``restarted=False`` for external aborts that
        tear the transaction down without re-running it (the restart
        counter tracks deadlock victims that actually re-execute)."""
        if not self.active:
            return
        self.aborted += 1
        if restarted:
            self.restarts += 1

    def record_page_access(self, tag: Optional[str], level: str) -> None:
        if not self.active:
            return
        counts = self._page_counts
        counts[level] = counts.get(level, 0) + 1
        if tag is not None:
            by_tag = self._tag_counts.get(tag)
            if by_tag is None:
                counter = self.page_access_by_tag[tag] = CategoryCounter()
                by_tag = self._tag_counts[tag] = counter._counts
            by_tag[level] = by_tag.get(level, 0) + 1

    def record_io(self, kind: str) -> None:
        if not self.active:
            return
        counts = self._io_count_map
        counts[kind] = counts.get(kind, 0) + 1

    def record_lock_request(self, granted_immediately: bool) -> None:
        if not self.active:
            return
        self.lock_counts.add("requests")
        if not granted_immediately:
            self.lock_counts.add("conflicts")

    def record_lock_wait(self, duration: float) -> None:
        if not self.active:
            return
        self.lock_wait.add(duration)

    def record_deadlock(self) -> None:
        if not self.active:
            return
        self.lock_counts.add("deadlocks")

    def note_input_queue(self, length: int) -> None:
        if length > self.input_queue_peak:
            self.input_queue_peak = length

    def record_checkpoint(self) -> None:
        self.checkpoint_count += 1

    def record_cluster_commit(self, distributed: bool,
                              commit_phase: float) -> None:
        """Commit-phase accounting for one committed transaction:
        ``distributed`` marks two-phase commits, ``commit_phase`` is
        the EOT-to-lock-release duration in seconds."""
        if not self.active:
            return
        if distributed:
            self.distributed_commits += 1
        else:
            self.local_commits += 1
        self.commit_phase_total += commit_phase

    def record_in_doubt(self, duration: float) -> None:
        """A prepared participant's vote-to-decision window closed."""
        if not self.active:
            return
        self.prepared_pieces += 1
        self.in_doubt_total += duration

    def record_failover(self, pieces: int) -> None:
        """GEM failover resolved ``pieces`` in-doubt participants of a
        crashed coordinator (presumed abort unless a mirrored commit
        decision was found)."""
        self.failover_resolved += pieces

    def note_outage_start(self) -> None:
        """A node just went down; its restart is now in progress."""
        if self._outages_open == 0:
            self._outage_union_since = self.env.now
        self._outages_open += 1

    def note_outage_end(self) -> None:
        """One outage closed; when it was the last open one, charge the
        union interval (clipped to the measured window) to downtime."""
        self._outages_open = max(0, self._outages_open - 1)
        if self._outages_open == 0 and self._outage_union_since is not None:
            start = max(self._outage_union_since, self.measure_start)
            self.window_downtime += max(0.0, self.env.now - start)
            self._outage_union_since = None

    def record_crash(self, downtime: float, stats,
                     outage_open: bool = True) -> None:
        """One crash/restart cycle finished; ``stats`` is a
        :class:`repro.recovery.crash.RestartStats`.

        ``downtime`` is the full crash-to-admission duration (the MTTR
        numerator).  The availability charge comes from the union of
        down-intervals (:meth:`note_outage_end`), so overlapping
        multi-node outages count the wall-clock once; pass
        ``outage_open=False`` when the caller already closed the outage
        (online redo reopens admission before the redo pass finishes).
        """
        if outage_open:
            self.note_outage_end()
        self.crash_count += 1
        self.downtime_total += downtime
        self.restart_log_pages += stats.log_pages
        self.restart_redo_pages += stats.redo_pages
        self.restart_log_scan_total += stats.log_scan_time
        self.restart_redo_total += stats.redo_time

    # -- degraded mode / media failures ------------------------------------
    def note_degraded_start(self) -> None:
        """The system keeps running but degraded (media rebuild under
        way, or online redo gating pages while admitting work)."""
        if self._degraded_open == 0:
            self._degraded_since = self.env.now
        self._degraded_open += 1

    def note_degraded_end(self) -> None:
        self._degraded_open = max(0, self._degraded_open - 1)
        if self._degraded_open == 0 and self._degraded_since is not None:
            start = max(self._degraded_since, self.measure_start)
            self.degraded_window += max(0.0, self.env.now - start)
            self._degraded_since = None

    def record_io_retry(self) -> None:
        """One transient-fault I/O attempt failed and was retried."""
        if not self.active:
            return
        self.io_retry_count += 1

    def record_media_recovery(self, duration: float, stats) -> None:
        """A lost device finished rebuilding; ``stats`` is a
        :class:`repro.recovery.media.MediaRecoveryStats`."""
        self.media_recovery_count += 1
        self.media_mttr_total += duration
        if duration > self.media_mttr_max:
            self.media_mttr_max = duration
        self.media_restore_pages += stats.restore_pages
        self.media_redo_pages += stats.redo_pages
        self.media_log_pages += stats.log_pages

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
        self.crash_count = 0
        self.checkpoint_count = 0
        self.downtime_total = 0.0
        self.window_downtime = 0.0
        self.restart_log_pages = 0
        self.restart_redo_pages = 0
        self.restart_log_scan_total = 0.0
        self.restart_redo_total = 0.0
        self.io_retry_count = 0
        self.media_recovery_count = 0
        self.media_mttr_total = 0.0
        self.media_mttr_max = 0.0
        self.media_restore_pages = 0
        self.media_redo_pages = 0
        self.media_log_pages = 0
        self.degraded_window = 0.0
        self.degraded_commits = 0
        self.local_commits = 0
        self.distributed_commits = 0
        self.commit_phase_total = 0.0
        self.prepared_pieces = 0
        self.in_doubt_total = 0.0
        self.failover_resolved = 0
        self.slo_ok = 0
        if self.tracer is not None:
            self.tracer.clear()
        if self.telemetry is not None:
            self.telemetry.reset()

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
        recovery = None
        if self.recovery_enabled:
            downtime = self.window_downtime
            if self._outage_union_since is not None:
                # A restart is still in progress at the window's end:
                # charge its elapsed downtime (clipped to the window).
                downtime += self.env.now - max(self._outage_union_since,
                                               self.measure_start)
            availability = 1.0
            if span > 0:
                availability = min(1.0, max(0.0, 1.0 - downtime / span))
            recovery = {
                "crashes": float(self.crash_count),
                "checkpoints": float(self.checkpoint_count),
                "downtime": downtime,
                "availability": availability,
                "restart_time_mean": (
                    self.downtime_total / self.crash_count
                    if self.crash_count else 0.0
                ),
                "restart_log_scan_time": self.restart_log_scan_total,
                "restart_redo_time": self.restart_redo_total,
                "restart_log_pages": float(self.restart_log_pages),
                "restart_redo_pages": float(self.restart_redo_pages),
            }
        degraded = None
        if self.media_enabled:
            window = self.degraded_window
            if self._degraded_since is not None:
                # The window ends while still degraded: charge the open
                # interval (clipped to the measured window).
                window += self.env.now - max(self._degraded_since,
                                             self.measure_start)
            degraded = {
                "degraded_window": window,
                "degraded_commits": float(self.degraded_commits),
                "degraded_tps": (
                    self.degraded_commits / window if window > 0 else 0.0
                ),
                "io_retries": float(self.io_retry_count),
                "media_recoveries": float(self.media_recovery_count),
                "media_mttr_mean": (
                    self.media_mttr_total / self.media_recovery_count
                    if self.media_recovery_count else 0.0
                ),
                "media_mttr_max": self.media_mttr_max,
                "media_restore_pages": float(self.media_restore_pages),
                "media_redo_pages": float(self.media_redo_pages),
                "media_log_pages": float(self.media_log_pages),
            }
        latency = None
        if self.latency_detail:
            latency = {
                "p50": self.response.percentile(50),
                "p95": self.response.percentile(95),
                "p99": self.response.percentile(99),
                "slo_ms": self.slo_threshold * 1000.0,
                "slo_attainment": (
                    self.slo_ok / self.committed if self.committed else 1.0
                ),
            }
        timeseries = None
        if self.telemetry is not None:
            timeseries = self.telemetry.snapshot()
        cluster = None
        if self.cluster_enabled:
            cluster = {
                "nodes": float(self.cluster_nodes),
                "cost_dollars": self.cluster_cost,
                "local_commits": float(self.local_commits),
                "distributed_commits": float(self.distributed_commits),
                "commit_phase_total": self.commit_phase_total,
                "prepared_pieces": float(self.prepared_pieces),
                "in_doubt_total": self.in_doubt_total,
                "failover_resolved": float(self.failover_resolved),
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
            recovery=recovery,
            cluster=cluster,
            degraded=degraded,
            latency=latency,
            timeseries=timeseries,
        )
