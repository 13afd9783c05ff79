"""Fault injection and simulated restart (log scan + redo replay).

:class:`CrashController` crashes the computing module at the instants of
``RecoveryConfig.crash_times``: admission gates shut, every in-flight
transaction is interrupted (its undo is assumed instantaneous — the
paper's model has no partial-update visibility), the volatile buffer is
discarded, and :class:`RestartReplayer` then replays recovery through
the *actual* device registry before the gate reopens:

* **log scan** — every log page after the ARIES-style scan start (the
  older of the last completed checkpoint record and the dirty-page
  table's minimum recLSN) is read from the configured log device (NVEM
  access, SSD, cached or plain disk) with the ordinary per-I/O CPU
  overheads.  Under FORCE the scan collapses to the commit-window
  tail: committed updates are already in the permanent database, so
  history needs no redo [HR83].
* **redo** — every page of the crash-time dirty page table is read from
  its home device, the log records are applied (``redo_instr`` CPU),
  and the page is written back.  NVEM-resident partitions redo at NVEM
  speed; memory-resident partitions have no permanent device, so their
  redo charges CPU only (their content is rebuilt from the scanned
  log).

Down-time (crash to gate-reopen) is charged to the collector's outage
window; :class:`RecoveryBlock` turns it into the availability and MTTR
counters of ``Results.recovery``, and :class:`DegradedBlock` reports
the degraded windows of online redo and media rebuilds
(``Results.degraded``).

Simplifications, chosen to keep the device-level timing exact while
avoiding kernel surgery: background destages that were in flight at
the crash are treated as surviving (their destinations are
non-volatile), and a write-back counts as propagated from its start
(a crash mid-write-back under-counts redo by the in-flight writes).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.config import MEMORY, NVEM, UpdateStrategy
from repro.recovery.tracker import CrashSnapshot, RecoveryTracker
from repro.sim.core import Event

__all__ = ["CrashController", "DegradedBlock", "RecoveryBlock", "RedoGate",
           "RestartReplayer", "RestartStats", "degraded_block"]


class RecoveryBlock:
    """The ``Results.recovery`` block: crashes, checkpoints, MTTR and
    its breakdown, and availability over the measured window.

    Availability is charged from the collector's outage window, the
    union of down-intervals, so overlapping multi-node outages count
    the wall clock once.  MTTR averages the full crash-to-admission
    durations, including any part before the warm-up boundary.
    """

    def __init__(self, metrics):
        self.metrics = metrics
        self.reset()

    def reset(self) -> None:
        self.crashes = 0
        self.checkpoints = 0
        self.downtime_total = 0.0
        self.log_pages = 0
        self.redo_pages = 0
        self.log_scan_total = 0.0
        self.redo_total = 0.0

    def record_crash(self, downtime: float, stats: RestartStats,
                     outage_open: bool = True) -> None:
        """One crash/restart cycle finished after ``downtime`` seconds.

        Closes the outage interval unless ``outage_open=False``: online
        redo closes it itself when admission reopens, before the redo
        pass finishes.
        """
        if outage_open:
            self.metrics.outage.end()
        self.crashes += 1
        self.downtime_total += downtime
        self.log_pages += stats.log_pages
        self.redo_pages += stats.redo_pages
        self.log_scan_total += stats.log_scan_time
        self.redo_total += stats.redo_time

    def finalize(self) -> dict:
        metrics = self.metrics
        span = metrics.env.now - metrics.measure_start
        downtime = metrics.outage.total()
        availability = 1.0
        if span > 0:
            availability = min(1.0, max(0.0, 1.0 - downtime / span))
        return {
            "crashes": float(self.crashes),
            "checkpoints": float(self.checkpoints),
            "downtime": downtime,
            "availability": availability,
            "restart_time_mean": (
                self.downtime_total / self.crashes if self.crashes else 0.0
            ),
            "restart_log_scan_time": self.log_scan_total,
            "restart_redo_time": self.redo_total,
            "restart_log_pages": float(self.log_pages),
            "restart_redo_pages": float(self.redo_pages),
        }


class DegradedBlock:
    """The ``Results.degraded`` block: the degraded window and the
    commits delivered in it, transient-fault I/O retries, and media
    rebuilds (count, MTTR, page counts).

    Retries are the measured-window delta of the media state's own
    counter (``media_state`` is ``None`` without media faults).
    """

    def __init__(self, metrics, media_state):
        self.metrics = metrics
        self.media_state = media_state
        self.reset()

    def _retries(self) -> int:
        state = self.media_state
        return state.io_retries if state is not None else 0

    def reset(self) -> None:
        self.retry_base = self._retries()
        self.recoveries = 0
        self.mttr_total = 0.0
        self.mttr_max = 0.0
        self.restore_pages = 0
        self.redo_pages = 0
        self.log_pages = 0

    def record_media_recovery(self, duration: float, stats) -> None:
        """A lost device finished rebuilding; ``stats`` is a
        :class:`repro.recovery.media.MediaRecoveryStats`."""
        self.recoveries += 1
        self.mttr_total += duration
        if duration > self.mttr_max:
            self.mttr_max = duration
        self.restore_pages += stats.restore_pages
        self.redo_pages += stats.redo_pages
        self.log_pages += stats.log_pages

    def finalize(self) -> dict:
        window = self.metrics.degraded.total()
        commits = self.metrics.degraded_commits
        return {
            "degraded_window": window,
            "degraded_commits": float(commits),
            "degraded_tps": commits / window if window > 0 else 0.0,
            "io_retries": float(self._retries() - self.retry_base),
            "media_recoveries": float(self.recoveries),
            "media_mttr_mean": (
                self.mttr_total / self.recoveries if self.recoveries
                else 0.0
            ),
            "media_mttr_max": self.mttr_max,
            "media_restore_pages": float(self.restore_pages),
            "media_redo_pages": float(self.redo_pages),
            "media_log_pages": float(self.log_pages),
        }


def degraded_block(system) -> DegradedBlock:
    """``system``'s degraded block; media faults and online redo share
    the one instance."""
    return system.metrics.block(
        "degraded",
        lambda metrics: DegradedBlock(metrics, system.storage.media_state))


class RedoGate:
    """Per-page admission gate for online (ARIES-style) redo.

    While the redo pass runs, the buffer manager blocks any access to a
    page still in ``pending`` until :meth:`page_done` releases it;
    everything else proceeds at full speed.  Wait events are created
    lazily per blocked page, so unblocked traffic pays one set lookup.
    """

    __slots__ = ("env", "pending", "_events")

    def __init__(self, env, pending_keys):
        self.env = env
        self.pending = set(pending_keys)
        self._events = {}

    def wait(self, key) -> Generator:
        """Block until ``key`` has been redone."""
        while key in self.pending:
            event = self._events.get(key)
            if event is None:
                event = self._events[key] = Event(self.env)
            yield event

    def page_done(self, key) -> None:
        self.pending.discard(key)
        event = self._events.pop(key, None)
        if event is not None:
            event.succeed()

    def close(self) -> None:
        """Release every remaining page (end of the redo pass)."""
        for key in list(self.pending):
            self.page_done(key)


class RestartStats:
    """Timing breakdown of one simulated restart."""

    __slots__ = ("log_pages", "redo_pages", "log_scan_time", "redo_time")

    def __init__(self, log_pages: int = 0, redo_pages: int = 0,
                 log_scan_time: float = 0.0, redo_time: float = 0.0):
        self.log_pages = log_pages
        self.redo_pages = redo_pages
        self.log_scan_time = log_scan_time
        self.redo_time = redo_time

    @property
    def total(self) -> float:
        return self.log_scan_time + self.redo_time

    def summary(self) -> str:
        return (f"restart {self.total:8.2f} s "
                f"(log scan {self.log_scan_time:7.2f} s / "
                f"{self.log_pages} pages, "
                f"redo {self.redo_time:7.2f} s / "
                f"{self.redo_pages} pages)")


class RestartReplayer:
    """Replays crash recovery through the configured storage devices."""

    def __init__(self, system, tracker: RecoveryTracker):
        self.system = system
        self.env = system.env
        self.tracker = tracker

    def replay(self, snapshot: CrashSnapshot) -> Generator:
        """Run the restart; returns a :class:`RestartStats`."""
        stats = RestartStats()
        yield from self.scan(snapshot, stats)
        yield from self.redo(snapshot, stats)
        return stats

    def _span(self, name: str, start: float) -> None:
        tracer = getattr(self.system, "tracer", None)
        if tracer is not None:
            tracer.span(name, None, start, self.env.now)

    # -- log scan --------------------------------------------------------
    def _scan_pages(self, snapshot: CrashSnapshot) -> int:
        """How far back the log scan reaches.

        NOFORCE scans everything after the snapshot's scan-start LSN
        (the older of the last checkpoint record and the DPT's minimum
        recLSN).  FORCE only needs the commit-window tail — one log
        page per transaction that was admitted at the crash — because
        every committed update was already forced to the permanent
        database.
        """
        to_scan = snapshot.log_pages_to_scan
        cm = self.system.config.cm
        if cm.update_strategy is UpdateStrategy.FORCE:
            return min(to_scan, snapshot.in_flight + 1)
        return to_scan

    def scan(self, snapshot: CrashSnapshot,
             stats: RestartStats) -> Generator:
        """The log scan pass."""
        start = self.env.now
        system = self.system
        cm = system.config.cm
        pages = self._scan_pages(snapshot)
        first = snapshot.log_tail - pages + 1
        for page_no in range(first, snapshot.log_tail + 1):
            if system.storage.log_on_nvem:
                yield from system.cpu.execute_with_sync_access(
                    None, cm.instr_nvem,
                    system.storage.nvem_device.access("read"),
                )
            else:
                burst = system.cpu.execute_event(None, cm.instr_io,
                                                 exponential=False)
                if burst is not None:
                    yield burst
                yield from system.storage.read_log_from_unit(page_no)
            stats.log_pages += 1
            system.metrics.record_io("restart_log_read")
        stats.log_scan_time = self.env.now - start
        self._span("restart.scan", start)

    # -- redo ------------------------------------------------------------
    def _redo_one(self, key, cm, redo_instr: float) -> Generator:
        system = self.system
        pidx = key[0]
        part = system.config.partitions[pidx]
        if part.allocation == MEMORY:
            # No permanent device: the page is rebuilt in memory
            # from the already-scanned log records.
            burst = system.cpu.execute_event(None, redo_instr,
                                             exponential=False)
            if burst is not None:
                yield burst
        elif part.allocation == NVEM:
            yield from system.cpu.execute_with_sync_access(
                None, cm.instr_nvem,
                system.storage.nvem_device.access("read"),
            )
            burst = system.cpu.execute_event(None, redo_instr,
                                             exponential=False)
            if burst is not None:
                yield burst
            yield from system.cpu.execute_with_sync_access(
                None, cm.instr_nvem,
                system.storage.nvem_device.access("write"),
            )
            system.metrics.record_io("restart_redo_read")
            system.metrics.record_io("restart_redo_write")
        else:
            burst = system.cpu.execute_event(None, cm.instr_io,
                                             exponential=False)
            if burst is not None:
                yield burst
            yield from system.storage.read_page(pidx, part.name,
                                                key[1])
            burst = system.cpu.execute_event(None, redo_instr,
                                             exponential=False)
            if burst is not None:
                yield burst
            burst = system.cpu.execute_event(None, cm.instr_io,
                                             exponential=False)
            if burst is not None:
                yield burst
            yield from system.storage.write_page(pidx, part.name,
                                                 key[1])
            system.metrics.record_io("restart_redo_read")
            system.metrics.record_io("restart_redo_write")

    def redo(self, snapshot: CrashSnapshot, stats: RestartStats,
             gate: Optional[RedoGate] = None) -> Generator:
        """The redo pass.  With a ``gate`` (online redo, admission
        open) each page is released to waiting transactions the moment
        its records are re-applied."""
        start = self.env.now
        cm = self.system.config.cm
        redo_instr = self.system.config.recovery.redo_instr
        for key in snapshot.dirty_pages:
            yield from self._redo_one(key, cm, redo_instr)
            stats.redo_pages += 1
            if gate is not None:
                gate.page_done(key)
        stats.redo_time = self.env.now - start
        self._span("restart.redo", start)


class CrashController:
    """Crashes the CM on the configured deterministic schedule."""

    def __init__(self, system, tracker: RecoveryTracker,
                 checkpointer=None):
        self.system = system
        self.env = system.env
        self.tracker = tracker
        #: Told about crashes so an in-flight checkpoint dies with the
        #: CM instead of contending with the restart replay.
        self.checkpointer = checkpointer
        self.replayer = RestartReplayer(system, tracker)
        self.block = system.metrics.block("recovery", RecoveryBlock)
        #: Restart breakdowns, most recent last (introspection/tests).
        self.restarts = []

    def start(self) -> None:
        if self.system.config.recovery.crash_times:
            self.env.process(self._run())

    # -- internals -------------------------------------------------------
    def _run(self) -> Generator:
        for instant in self.system.config.recovery.crash_times:
            delay = instant - self.env.now
            if delay <= 0:
                # The scheduled crash fell inside a previous outage:
                # the module was already down, nothing extra fails.
                continue
            yield self.env.timeout(delay)
            yield from self._crash_and_restart()

    def _crash_and_restart(self) -> Generator:
        system = self.system
        crashed_at = self.env.now
        # 1. The gate shuts: nothing new is admitted until restart ends.
        system.metrics.outage.start()
        system.tm.take_offline()
        # 2. Volatile state is lost: in-flight transactions (and any
        #    checkpoint in progress) die, the buffer is discarded.
        #    Only *admitted* transactions count toward the FORCE
        #    commit-window — input-queue waiters wrote no log records.
        admitted = system.tm.active
        system.tm.interrupt_active("crash")
        if self.checkpointer is not None:
            self.checkpointer.on_crash()
        recovery_cfg = system.config.recovery
        extra_redo = ()
        if recovery_cfg.volatile_cache_loss:
            # Volatile disk-controller caches die with the power: their
            # contents are dropped (post-restart reads miss) and their
            # pages conservatively re-enter the redo set.
            extra_redo = system.bm.drop_volatile_caches()
        snapshot = self.tracker.on_crash(
            time=crashed_at,
            log_tail=system.storage.log_page_count,
            in_flight=admitted,
            extra_redo=extra_redo,
        )
        system.bm.crash_reset()
        # Let the interrupt carriers deliver so the victims unwind
        # (returning CPUs, withdrawing lock waits) before replay starts.
        yield self.env.timeout(0.0)
        if not recovery_cfg.online_redo:
            # 3. Restart replay through the real devices.
            stats = yield from self.replayer.replay(snapshot)
            self.restarts.append(stats)
            self.block.record_crash(self.env.now - crashed_at, stats)
            # 4. Reopen for business.
            system.tm.go_online()
            return
        # 3. Online redo: the log scan still runs offline, but admission
        #    reopens as soon as it completes — the redo pass runs with
        #    transactions in flight, gated per page.  Down-time is the
        #    crash-to-admission window only.
        stats = RestartStats()
        yield from self.replayer.scan(snapshot, stats)
        gate = RedoGate(self.env, snapshot.dirty_pages)
        system.bm.redo_gate = gate
        system.metrics.outage.end()
        downtime = self.env.now - crashed_at
        system.tm.go_online()
        system.metrics.degraded.start()
        try:
            yield from self.replayer.redo(snapshot, stats, gate)
        finally:
            system.bm.redo_gate = None
            gate.close()
            system.metrics.degraded.end()
        self.restarts.append(stats)
        self.block.record_crash(downtime, stats, outage_open=False)
