"""The fuzzy checkpointer: periodic checkpoint records + background flush.

NOFORCE needs "special checkpointing techniques" (§4.4) to bound redo
work after a crash.  :class:`Checkpointer` implements the classic fuzzy
scheme: every ``checkpoint_interval`` simulated seconds it

1. writes one checkpoint record through the *real* configured log
   device (NVEM, SSD, cached or plain disk — the same path transaction
   commits use), recording the resulting log page number as the
   checkpoint LSN a restart scans from; and
2. starts destaging the dirty page table in the background: a small
   pool of flush processes writes the snapshot's still-dirty pages to
   their non-volatile homes through the buffer manager's ordinary
   write-back path, charging real CPU and device time.

The checkpoint is *fuzzy*: transaction processing never stops, and a
page re-dirtied between snapshot and flush simply stays in the DPT for
the next round.  Under FORCE the DPT holds only in-flight transactions'
pages, so checkpoints are cheap and restart stays flat regardless of
the interval — the asymmetry §4.4 argues from.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.recovery.crash import RecoveryBlock
from repro.recovery.tracker import RecoveryTracker
from repro.sim import Interrupt

__all__ = ["Checkpointer"]

#: Background flush processes per checkpoint.  Sized so destage keeps
#: up with the Debit-Credit dirty-page production rate on Table 4.1
#: disks; the flush is bandwidth, not a tuning knob of the paper.
FLUSH_WORKERS = 8


class Checkpointer:
    """Interval-driven fuzzy checkpoints for one computing module."""

    def __init__(self, system, tracker: RecoveryTracker):
        self.system = system
        self.env = system.env
        self.tracker = tracker
        self.interval = system.config.recovery.checkpoint_interval
        self.flush = system.config.recovery.checkpoint_flush
        self.block = system.metrics.block("recovery", RecoveryBlock)
        self._ticker = None
        #: True while the ticker is inside _checkpoint (record write).
        self._in_checkpoint = False
        #: Live flush-worker processes, so a crash can kill them.
        self._flush_procs: list = []

    def start(self) -> None:
        self._ticker = self.env.process(self._run())

    def on_crash(self) -> None:
        """The CM failed: any checkpoint work in flight dies with it.

        A checkpoint record mid-write must not complete during the
        outage (it would advance the checkpoint LSN from a dead CM and
        contend with the restart replay), and flush workers stop — the
        buffer they were destaging no longer exists.
        """
        if self._in_checkpoint and self._ticker is not None and \
                not self._ticker.triggered:
            self._ticker.interrupt("crash")
        for proc in self._flush_procs:
            if not proc.triggered:
                proc.interrupt("crash")
        self._flush_procs.clear()

    # -- internals -------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            yield self.env.timeout(self.interval)
            if not self.system.tm.is_online:
                # The CM is down: a crashed module takes no checkpoints,
                # and the record would otherwise interleave with (and
                # inflate) the single-threaded restart replay.  The
                # next on-schedule tick checkpoints as usual.
                continue
            self._in_checkpoint = True
            try:
                yield from self._checkpoint()
            except Interrupt:
                # Crash mid-checkpoint: the record never completed; the
                # ticker resumes its cadence after the restart.
                pass
            finally:
                self._in_checkpoint = False

    def _checkpoint(self) -> Generator:
        """Write the checkpoint record; kick off the background flush."""
        bm = self.system.bm
        lsn = yield from bm.write_checkpoint_record()
        self.tracker.complete_checkpoint(lsn, self.env.now)
        self.block.checkpoints += 1
        if not self.flush:
            return
        candidates = self.tracker.flush_candidates()
        if not candidates:
            return
        # Workers from a previous round may still be draining (interval
        # shorter than the destage time): keep their handles so a crash
        # interrupts them too, and only prune the finished ones.
        self._flush_procs = [p for p in self._flush_procs
                             if not p.triggered]
        self._flush_procs.extend(
            self.env.process(
                self._flush_worker(candidates[worker::FLUSH_WORKERS])
            )
            for worker in range(min(FLUSH_WORKERS, len(candidates)))
        )

    def _flush_worker(self, keys: List[Tuple[int, int]]) -> Generator:
        """Destage one stripe of the checkpoint's DPT snapshot."""
        bm = self.system.bm
        try:
            for key in keys:
                entry = bm.mm.peek(key)
                if entry is None or not entry.dirty:
                    # Propagated since the snapshot (replacement, write
                    # buffer) or lost to a crash — nothing to destage.
                    continue
                part = bm.partitions[key[0]]
                yield from bm._write_back(None, key, part,
                                          replacement=False)
                self.system.metrics.record_io("checkpoint_flush")
        except Interrupt:
            return
