"""Simulated crash-recovery & availability subsystem (§4.4, [HR83]).

The paper argues nonvolatile extended storage pays off twice: in
normal-operation throughput *and* in recovery.  This package makes the
second half first-class simulation instead of a disconnected analytic
side-note: crashes, fuzzy checkpoints and restarts are events on the
same kernel, and restart I/O goes through the same device registry as
everything else (disk / SSD / NVEM / flash / battery-DRAM).

Components (all default-off; ``RecoveryConfig.enabled`` opts in):

* :class:`~repro.recovery.tracker.RecoveryTracker` — dirty page table +
  log-sequence tracking, fed by hooks in the buffer manager's
  write/log paths.
* :class:`~repro.recovery.checkpoint.Checkpointer` — interval-driven
  fuzzy checkpoints through the real log device, with background
  destage of the dirty page table.
* :class:`~repro.recovery.crash.CrashController` /
  :class:`~repro.recovery.crash.RestartReplayer` — deterministic fault
  injection, volatile-state loss, and a restart phase (log scan +
  redo reads/writes) replayed against the configured devices.
* :func:`~repro.recovery.analytic.matched_recovery_model` — derives the
  parameters of :class:`repro.analysis.recovery.RecoveryModel` from a
  ``SystemConfig`` so simulation and analysis can be cross-validated
  on matched configurations.

:class:`RecoveryManager` wires all of it onto a
:class:`~repro.core.model.TransactionSystem`.
"""

from __future__ import annotations

from repro.recovery.analytic import matched_recovery_model, page_time_estimates
from repro.recovery.checkpoint import Checkpointer
from repro.recovery.crash import (
    CrashController,
    RedoGate,
    RestartReplayer,
    RestartStats,
    degraded_block,
)
from repro.recovery.media import (
    MediaManager,
    MediaRecoverer,
    MediaRecoveryStats,
    MediaTracker,
)
from repro.recovery.tracker import CrashSnapshot, RecoveryTracker

__all__ = [
    "Checkpointer",
    "CrashController",
    "CrashSnapshot",
    "MediaManager",
    "MediaRecoverer",
    "MediaRecoveryStats",
    "MediaTracker",
    "RecoveryManager",
    "RecoveryTracker",
    "RedoGate",
    "RestartReplayer",
    "RestartStats",
    "matched_recovery_model",
    "page_time_estimates",
]


class RecoveryManager:
    """Installs and starts the recovery components for one system."""

    def __init__(self, system):
        self.system = system
        self.tracker = RecoveryTracker(
            now=lambda: system.env.now,
            log_tail=lambda: system.storage.log_page_count,
        )
        self.checkpointer = Checkpointer(system, self.tracker)
        self.crash_controller = CrashController(
            system, self.tracker, checkpointer=self.checkpointer)
        # Hook the buffer manager's dirty/clean transitions.
        system.bm.recovery_tracker = self.tracker
        if system.config.recovery.online_redo:
            # Online redo runs degraded windows even without media
            # faults, so its results carry the degraded block.
            degraded_block(system)
        self._started = False

    def start(self) -> None:
        """Spawn the checkpointer and fault-injector processes."""
        if self._started:
            return
        self._started = True
        self.checkpointer.start()
        self.crash_controller.start()
