"""Device-level media-fault injection (§4.4's media half).

Two deterministic fault kinds are scheduled per device through
:class:`~repro.core.config.MediaConfig`:

* **transient** — for a configured window the device returns I/O
  errors; the access path survives them with a deterministic
  retry/backoff loop (detection latency + exponential backoff, no RNG,
  no attempt cap: the window is finite, so retries always converge).
* **loss** — at an instant the device's media is gone.  Accesses block
  per page until the :class:`~repro.recovery.media.MediaRecoverer`
  rebuilds that page from the archive copy (plus a log scan for pages
  written since the archive horizon) through the real device registry.

The gates are installed by :class:`~repro.storage.hierarchy.
StorageSubsystem` **only around devices named in the fault schedule**;
every other device keeps its raw object.  On the success path a gated
access is a plain delegation — no extra events, no RNG draws — so a
media-enabled run with an empty schedule is bit-identical to a run
without the subsystem (property-tested).
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, Optional, Set, Tuple

from repro.core.config import MediaConfig
from repro.sim import Environment
from repro.sim.core import Event
from repro.storage.device import StorageDevice

__all__ = [
    "DeviceFaultGate",
    "MediaState",
    "MediaUnrecoverableError",
    "NVEMFaultGate",
]


class MediaUnrecoverableError(RuntimeError):
    """Media loss that no surviving copy can repair (e.g. an unmirrored
    log copy, or both copies of a mirrored log)."""


class MediaState:
    """Shared fault state: schedules, lost devices, restore progress.

    One instance per :class:`~repro.storage.hierarchy.StorageSubsystem`;
    the gates consult it on every access, the
    :class:`~repro.recovery.media.MediaManager` drives loss instants and
    restore progress through it.
    """

    def __init__(self, env: Environment, cfg: MediaConfig):
        self.env = env
        self.cfg = cfg
        #: device -> sorted transient windows [(start, end), ...]
        self._windows: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        #: device -> first scheduled loss instant
        self.loss_times: Dict[str, float] = {}
        for fault in cfg.faults:
            if fault.kind == "transient":
                windows = list(self._windows.get(fault.device, ()))
                windows.append((fault.time, fault.time + fault.duration))
                windows.sort()
                self._windows[fault.device] = tuple(windows)
            elif fault.device not in self.loss_times:
                self.loss_times[fault.device] = fault.time
        #: devices whose media is currently gone
        self.lost: Set[str] = set()
        #: lost log copies of a mirrored NVEM log (0 = primary, 1 = mirror)
        self.lost_log_copies: Set[int] = set()
        #: device -> keys already brought current by an in-flight rebuild
        self.restoring: Dict[str, Set[Hashable]] = {}
        #: retry counters (total and per device)
        self.io_retries = 0
        self.retries_by_device: Dict[str, int] = {}
        self._progress: Optional[Event] = None

    # -- schedule queries --------------------------------------------------
    def is_faulted(self, device: str) -> bool:
        """Does the schedule name this device at all (gate needed)?"""
        return device in self._windows or device in self.loss_times

    def windows_for(self, device: str) -> Tuple[Tuple[float, float], ...]:
        return self._windows.get(device, ())

    # -- availability ------------------------------------------------------
    def available(self, device: str, key: Hashable) -> bool:
        if device not in self.lost:
            return True
        restored = self.restoring.get(device)
        return restored is not None and key in restored

    def wait_available(self, device: str, key: Hashable) -> Generator:
        """Block until ``key`` on ``device`` is readable again."""
        while not self.available(device, key):
            event = self._progress
            if event is None:
                event = self._progress = Event(self.env)
            yield event

    def bump(self) -> None:
        """Wake every blocked access to re-check availability."""
        event = self._progress
        if event is not None:
            self._progress = None
            event.succeed()

    # -- fault lifecycle (driven by the MediaManager) ----------------------
    def mark_lost(self, device: str) -> None:
        self.lost.add(device)

    def begin_restore(self, device: str) -> Set[Hashable]:
        restored: Set[Hashable] = set()
        self.restoring[device] = restored
        return restored

    def page_restored(self, device: str, key: Hashable) -> None:
        self.restoring[device].add(key)
        self.bump()

    def finish_restore(self, device: str) -> None:
        self.lost.discard(device)
        self.restoring.pop(device, None)
        self.bump()

    # -- counters ----------------------------------------------------------
    def note_retry(self, device: str) -> None:
        self.io_retries += 1
        self.retries_by_device[device] = \
            self.retries_by_device.get(device, 0) + 1


class _RetryMixin:
    """Deterministic retry/backoff against a transient-fault schedule."""

    env: Environment
    name: str
    _state: MediaState
    _windows: Tuple[Tuple[float, float], ...]

    def _transient_end(self) -> Optional[float]:
        now = self.env.now
        for start, end in self._windows:
            if start <= now < end:
                return end
            if now < start:
                return None
        return None

    def _admit(self, key: Hashable,
               block_on_loss: bool = True) -> Generator:
        """Wait out loss windows and retry through transient windows.

        ``block_on_loss=False`` skips the loss waits: used by the NVEM
        gate, whose accesses run with a CPU held — the loss wait happens
        CPU-free at the buffer manager instead (see ``loss_wait``).
        """
        state = self._state
        if block_on_loss and self.name in state.lost:
            yield from state.wait_available(self.name, key)
        if not self._windows or self._transient_end() is None:
            return
        cfg = state.cfg
        backoff = cfg.retry_backoff
        while True:
            # One failed attempt: pay the detection latency, back off,
            # try again.  All delays are fixed config values — the RNG
            # streams are never touched.
            if cfg.error_latency > 0:
                yield self.env.timeout(cfg.error_latency)
            yield self.env.timeout(backoff)
            state.note_retry(self.name)
            backoff = min(backoff * cfg.retry_backoff_factor,
                          cfg.retry_backoff_max)
            if block_on_loss and self.name in state.lost:
                yield from state.wait_available(self.name, key)
            if self._transient_end() is None:
                return


class DeviceFaultGate(_RetryMixin, StorageDevice):
    """Fault gate around one registered disk-interface device."""

    def __init__(self, inner: StorageDevice, state: MediaState):
        self.inner = inner
        self.name = inner.name
        self.env = inner.env
        self._state = state
        self._windows = state.windows_for(inner.name)

    @property
    def cache(self):
        return self.inner.cache

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def loss_wait(self, key: Hashable) -> Generator:
        """CPU-free per-page loss wait for SYNC-mode callers, who would
        otherwise sit out the whole rebuild holding a CPU server."""
        if self.name in self._state.lost:
            yield from self._state.wait_available(self.name, key)

    def read(self, key: Hashable) -> Generator:
        yield from self._admit(key)
        result = yield from self.inner.read(key)
        return result

    def write(self, key: Hashable) -> Generator:
        yield from self._admit(key)
        result = yield from self.inner.write(key)
        return result

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def utilization_report(self) -> Dict[str, float]:
        return self.inner.utilization_report()


class NVEMFaultGate(_RetryMixin):
    """Fault gate around the NVEM device's ``access`` path.

    ``access`` carries no page key, so loss of the NVEM bank blocks
    database transfers coarsely until the rebuild completes.  Log
    transfers (``kind == "log"``) keep flowing: the two copies of an
    NVEM-resident log are separate logical fault targets
    (``"log:0"``/``"log:1"``) modelling independent banks, and their
    loss is handled at the log-write path itself.

    NVEM transfers run with a CPU held
    (:meth:`~repro.core.cpu.CPUPool.execute_with_sync_access`), so the
    loss block must NOT happen inside ``access`` — every blocked
    transfer would pin a CPU server for the whole rebuild and starve
    the rebuild's own CPU bursts into deadlock.  The buffer manager
    calls :meth:`loss_wait` CPU-free *before* acquiring the CPU;
    ``access`` itself only models the (short, finite) transient
    retries.  A transfer that passed the wait just before the loss
    instant completes against the bank — it was already queued there.
    """

    def __init__(self, inner, state: MediaState):
        self.inner = inner
        self.name = "nvem"
        self.env = inner.env
        self._state = state
        self._windows = state.windows_for("nvem")

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def loss_wait(self, kind: str = "access") -> Generator:
        if kind != "log" and self.name in self._state.lost:
            yield from self._state.wait_available(self.name, None)

    def access(self, kind: str = "access") -> Generator:
        if kind != "log":
            yield from self._admit(None, block_on_loss=False)
        yield from self.inner.access(kind)
