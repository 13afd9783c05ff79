"""Archive-based media recovery and dual-copy log resilvering (§4.4).

Crash recovery (:mod:`repro.recovery.crash`) assumes the permanent
database survives; this module covers the other failure class of
[HR83] §4.4 — **media failure**, where a device's permanent copy is
gone.  The model follows the classic archive-copy + log design:

* A background **archiver** (one per system, pure bookkeeping) takes an
  incremental online archive copy every ``MediaConfig.archive_interval``
  seconds: it advances the archive horizon LSN and forgets which pages
  were written since the previous copy.  Its cost is not charged — the
  paper's systems take archives during normal operation and the
  experiments vary the *age* of the archive, not its production cost.
* On a **device loss** the :class:`MediaRecoverer` rebuilds the device
  through the real device registry: Phase A restores every page of the
  device's partitions from the archive device in batched parallel
  streams; Phase B scans the log written since the archive horizon and
  re-applies the updates of pages written since that horizon.  Pages
  become readable one by one (per-page gating in
  :class:`~repro.storage.faults.MediaState`), so transactions keep
  running degraded instead of stalling for the full rebuild.
* A lost copy of a **mirrored NVEM log** is resilvered from the
  surviving copy; commits keep running on the single survivor in the
  meantime.  Loss of an *unmirrored* log copy (or of both copies, or of
  the disk log unit) is unrecoverable by design and raises
  :class:`~repro.storage.faults.MediaUnrecoverableError` — the model
  states the exposure instead of papering over it.

Everything is deterministic: fault instants come from the config
schedule, restore batches are enumerated in sorted order, and no step
draws from the RNG streams beyond the devices' own service draws.
"""

from __future__ import annotations

from typing import Generator, List, Set, Tuple

from repro.core.config import (
    LOG_COPY_MIRROR,
    LOG_COPY_PRIMARY,
    MEMORY,
    NVEM,
)
from repro.recovery.crash import degraded_block
from repro.sim.core import Event
from repro.storage.faults import MediaUnrecoverableError

__all__ = ["MediaManager", "MediaRecoverer", "MediaRecoveryStats",
           "MediaTracker"]

PageKey = Tuple[int, int]


class MediaRecoveryStats:
    """Breakdown of one media rebuild (device or log copy)."""

    __slots__ = ("device", "started", "finished", "restore_pages",
                 "restore_batches", "redo_pages", "log_pages",
                 "restore_time", "redo_time")

    def __init__(self, device: str, started: float):
        self.device = device
        self.started = started
        self.finished = 0.0
        #: Pages restored from the archive copy (Phase A).
        self.restore_pages = 0
        self.restore_batches = 0
        #: Pages re-applied from post-archive log records (Phase B).
        self.redo_pages = 0
        #: Log pages scanned (Phase B) / copied (log resilver).
        self.log_pages = 0
        self.restore_time = 0.0
        self.redo_time = 0.0

    @property
    def duration(self) -> float:
        return self.finished - self.started

    def summary(self) -> str:
        return (f"media rebuild {self.device}: {self.duration:8.2f} s "
                f"(archive restore {self.restore_pages} pages / "
                f"{self.restore_time:.2f} s, log redo {self.redo_pages} "
                f"pages + {self.log_pages} log pages / "
                f"{self.redo_time:.2f} s)")


class MediaTracker:
    """Archive horizon + written-page sets since the last archive copy.

    Pure state on the buffer manager's write path (one set-add per
    permanent-device write), so installing it never perturbs the event
    trajectory.  The per-device sets are exactly what Phase B of a
    rebuild must redo from the log: pages whose archive copy is stale.
    """

    __slots__ = ("archive_lsn", "archive_time", "archives_taken",
                 "_written")

    def __init__(self):
        #: Highest log page number covered by the archive copy.
        self.archive_lsn = 0
        self.archive_time = 0.0
        self.archives_taken = 0
        self._written = {}

    def note_write(self, device: str, key: PageKey) -> None:
        """A permanent-device page write began (hierarchy/bm hook)."""
        written = self._written.get(device)
        if written is None:
            written = self._written[device] = set()
        written.add(key)

    def written_for(self, device: str) -> Set[PageKey]:
        return self._written.get(device, set())

    def refresh_archive(self, lsn: int, time: float) -> None:
        """A new incremental archive copy completed: every page written
        before ``lsn`` is now covered, so the stale sets reset."""
        self.archive_lsn = lsn
        self.archive_time = time
        self.archives_taken += 1
        for written in self._written.values():
            written.clear()


class MediaRecoverer:
    """Rebuilds a lost device (or log copy) through the device registry."""

    def __init__(self, system):
        self.system = system
        self.env = system.env

    # -- helpers -----------------------------------------------------------
    def _cpu(self, instr: float) -> Generator:
        burst = self.system.cpu.execute_event(None, instr,
                                              exponential=False)
        if burst is not None:
            yield burst

    def _write_restored(self, device: str, key: PageKey) -> Generator:
        """Write one rebuilt page to the raw device behind the gate."""
        system = self.system
        cm = system.config.cm
        if device == NVEM:
            yield from system.cpu.execute_with_sync_access(
                None, cm.instr_nvem, system.storage.inner_nvem.access("write"))
        else:
            yield from self._cpu(cm.instr_io)
            yield from system.storage.inner_unit(device).write(key)

    def _read_restored(self, device: str, key: PageKey) -> Generator:
        system = self.system
        cm = system.config.cm
        if device == NVEM:
            yield from system.cpu.execute_with_sync_access(
                None, cm.instr_nvem, system.storage.inner_nvem.access("read"))
        else:
            yield from self._cpu(cm.instr_io)
            yield from system.storage.inner_unit(device).read(key)

    # -- device rebuild ----------------------------------------------------
    def recover_device(self, device: str,
                       stats: MediaRecoveryStats) -> Generator:
        """Archive restore (Phase A) + post-archive log redo (Phase B).

        The pending-redo set is snapshotted at entry: pages written to
        the device *after* the loss go through the gate's per-page
        availability check and land on already-restored media.
        """
        system = self.system
        state = system.storage.media_state
        tracker = system.storage.media_tracker
        cfg = system.config.media
        restored = state.begin_restore(device)
        # Pages whose archive copy is stale: they restore last, from the
        # log, after their base images come back from the archive.
        pending = set(tracker.written_for(device))
        scan_from = tracker.archive_lsn

        # Phase A: batched parallel restore from the archive device.
        phase_start = self.env.now
        batches = self._batches(device, cfg.archive_batch_pages)
        yield from self._run_restore_workers(
            device, batches, pending, restored, stats,
            max(1, cfg.archive_workers))
        stats.restore_time = self.env.now - phase_start

        # Phase B: scan the log since the archive horizon, then re-apply
        # the stale pages in deterministic order.
        phase_start = self.env.now
        yield from self._redo_from_log(device, scan_from, sorted(pending),
                                       stats)
        stats.redo_time = self.env.now - phase_start

        state.finish_restore(device)
        stats.finished = self.env.now
        tracer = getattr(system, "tracer", None)
        if tracer is not None:
            tracer.span("media.restore", None, stats.started,
                        self.env.now, device)
        system.metrics.record_io("media_rebuild_done")

    def _batches(self, device: str,
                 batch_pages: int) -> List[Tuple[int, int, int]]:
        """(partition index, first page, last page + 1) restore units for
        every partition allocated to ``device``, in deterministic order."""
        batches: List[Tuple[int, int, int]] = []
        for pidx, part in enumerate(self.system.config.partitions):
            if part.allocation != device:
                continue
            pages = part.num_pages
            for first in range(0, pages, batch_pages):
                batches.append((pidx, first,
                                min(first + batch_pages, pages)))
        return batches

    def _run_restore_workers(self, device: str, batches, pending,
                             restored, stats, workers: int) -> Generator:
        """Phase A engine: ``workers`` concurrent streams drain the batch
        list (archive read -> device write per batch)."""
        if not batches:
            return
        done = Event(self.env)
        remaining = [min(workers, len(batches))]
        cursor = [0]

        def worker() -> Generator:
            system = self.system
            cm = system.config.cm
            archive = system.storage.archive_device
            while cursor[0] < len(batches):
                index = cursor[0]
                cursor[0] = index + 1
                pidx, first, stop = batches[index]
                # One archive extent read + one device extent write,
                # with the usual per-I/O CPU overhead on each side.
                yield from self._cpu(cm.instr_io)
                yield from archive.read((pidx, first))
                yield from self._write_restored(device, (pidx, first))
                keys = [(pidx, page) for page in range(first, stop)]
                restored.update(
                    key for key in keys if key not in pending)
                system.storage.media_state.bump()
                stats.restore_pages += stop - first
                stats.restore_batches += 1
                system.metrics.record_io("media_restore_read")
                system.metrics.record_io("media_restore_write")
            remaining[0] -= 1
            if remaining[0] == 0:
                done.succeed()

        for _ in range(remaining[0]):
            self.env.process(worker())
        yield done

    def _redo_from_log(self, device: str, scan_from: int, pending,
                       stats) -> Generator:
        system = self.system
        state = system.storage.media_state
        cm = system.config.cm
        redo_instr = system.config.media.redo_instr
        # The log pages written since the archive copy hold every update
        # the archive missed; scan them through the normal log path.
        tail = system.storage.log_page_count
        for page_no in range(scan_from + 1, tail + 1):
            if system.storage.log_on_nvem:
                yield from system.cpu.execute_with_sync_access(
                    None, cm.instr_nvem,
                    system.storage.nvem_device.access("log"))
            else:
                yield from self._cpu(cm.instr_io)
                yield from system.storage.read_log_from_unit(page_no)
            stats.log_pages += 1
            system.metrics.record_io("media_log_read")
        # Re-apply each stale page: read the restored base image, apply
        # its log records, write it back current.
        for key in pending:
            yield from self._read_restored(device, key)
            yield from self._cpu(redo_instr)
            yield from self._write_restored(device, key)
            state.page_restored(device, key)
            stats.redo_pages += 1
            system.metrics.record_io("media_redo_read")
            system.metrics.record_io("media_redo_write")

    # -- log-copy resilver -------------------------------------------------
    def recover_log_copy(self, copy_index: int,
                         stats: MediaRecoveryStats) -> Generator:
        """Rebuild one copy of a mirrored NVEM log from the survivor.

        The resilver chases the tail: commits keep appending to the
        single surviving copy while pages are copied over (one survivor
        read + one restored-copy write each); once the copy has caught
        the tail, mirroring is re-enabled in the same instant — there is
        no yield between the catch-up check and the re-enable, so no
        append can slip through single-copy.  Log older than the archive
        horizon is not copied: no recovery path reads it any more (media
        redo scans from the horizon; the archiver never advances the
        horizon past records a rebuild could still need).
        """
        system = self.system
        state = system.storage.media_state
        cm = system.config.cm
        nvem = system.storage.inner_nvem
        copied = system.storage.media_tracker.archive_lsn
        while True:
            tail = system.storage.log_page_count
            if tail == copied:
                break
            for _page in range(copied + 1, tail + 1):
                yield from system.cpu.execute_with_sync_access(
                    None, cm.instr_nvem, nvem.access("log"))
                yield from system.cpu.execute_with_sync_access(
                    None, cm.instr_nvem, nvem.access("log"))
                stats.log_pages += 1
                system.metrics.record_io("media_resilver_copy")
            copied = tail
        state.lost_log_copies.discard(copy_index)
        stats.finished = self.env.now


class MediaManager:
    """Drives the fault schedule: arms losses, spawns rebuilds, keeps
    the archiver ticking, and feeds the degraded-mode metrics."""

    def __init__(self, system):
        self.system = system
        self.env = system.env
        self.config = system.config
        self.state = system.storage.media_state
        self.tracker = MediaTracker()
        self.recoverer = MediaRecoverer(system)
        #: Completed rebuild breakdowns, earliest first.
        self.recoveries: List[MediaRecoveryStats] = []
        self._started = False
        # The degraded block is emitted whenever the media subsystem is
        # on (all-zero for an empty schedule).
        self.block = degraded_block(system)
        self._loss_faults = sorted(
            (fault for fault in self.config.media.faults
             if fault.kind == "loss"),
            key=lambda fault: (fault.time, fault.device))
        if self._loss_faults:
            # Write tracking + archiver only matter when something can
            # actually be lost; otherwise the hot path stays untouched.
            system.storage.media_tracker = self.tracker

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._loss_faults:
            self.env.process(self._archiver())
            self.env.process(self._run())

    # -- internals ---------------------------------------------------------
    def _archiver(self) -> Generator:
        interval = self.config.media.archive_interval
        while True:
            yield self.env.timeout(interval)
            if self.state.lost or self.state.lost_log_copies:
                # An incremental copy cannot cover a device that is
                # mid-rebuild; skip the tick and retry next interval.
                continue
            self.tracker.refresh_archive(
                self.system.storage.log_page_count, self.env.now)

    def _run(self) -> Generator:
        for fault in self._loss_faults:
            delay = fault.time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply_loss(fault.device)

    def _apply_loss(self, device: str) -> None:
        degraded = self.system.metrics.degraded
        if device in (LOG_COPY_PRIMARY, LOG_COPY_MIRROR):
            copy_index = 0 if device == LOG_COPY_PRIMARY else 1
            if not self.config.recovery.log_mirror:
                raise MediaUnrecoverableError(
                    "log copy lost with mirroring off: the log has no "
                    "surviving copy (enable RecoveryConfig.log_mirror)")
            if self.state.lost_log_copies:
                raise MediaUnrecoverableError(
                    "both copies of the mirrored log are lost")
            self.state.lost_log_copies.add(copy_index)
            degraded.start()
            stats = MediaRecoveryStats(device, self.env.now)
            self.env.process(self._rebuild(
                self.recoverer.recover_log_copy(copy_index, stats), stats))
            return
        if device == self.config.log.device:
            raise MediaUnrecoverableError(
                f"log device {device!r} lost: a single-copy disk log "
                "has no media-recovery path")
        self.state.mark_lost(device)
        degraded.start()
        stats = MediaRecoveryStats(device, self.env.now)
        self.env.process(self._rebuild(
            self.recoverer.recover_device(device, stats), stats))

    def _rebuild(self, recovery: Generator,
                 stats: MediaRecoveryStats) -> Generator:
        """Run one rebuild to the end of its degraded window."""
        try:
            yield from recovery
        finally:
            self.system.metrics.degraded.end()
        self.block.record_media_recovery(stats.duration, stats)
        self.recoveries.append(stats)
