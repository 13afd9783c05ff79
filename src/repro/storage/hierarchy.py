"""Storage-hierarchy wiring: devices + partition/log allocation (Fig. 3.2).

:class:`StorageSubsystem` resolves every device of a
:class:`~repro.core.config.SystemConfig` through the device registry —
it holds no knowledge of concrete device classes — and resolves, per
partition, where its permanent pages live.  The buffer manager asks it
three questions:

* *Where is partition P?*  (memory-resident / NVEM-resident / unit U)
* *Read or write page X of P on its home device.*
* *Read or write the log.*

The software-managed intermediate levels (NVEM database cache, NVEM
write buffer) are the buffer manager's business (§3.2); the hierarchy
only covers the devices themselves, including the controller-managed
disk caches that are transparent to the DBMS (§3.3).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.config import (
    MEMORY,
    NVEM,
    DeviceSpec,
    SystemConfig,
)
from repro.sim import Environment, RandomStreams
from repro.storage.device import StorageDevice
from repro.storage.faults import DeviceFaultGate, MediaState, NVEMFaultGate
from repro.storage.registry import make_device

__all__ = ["StorageSubsystem"]

#: Synthetic latency result for memory-resident partitions.
LEVEL_MEMORY = "memory"
LEVEL_NVEM = "nvem"


class StorageSubsystem:
    """All external devices of one simulated transaction system."""

    def __init__(self, env: Environment, streams: RandomStreams,
                 config: SystemConfig):
        self.env = env
        self.config = config
        self.nvem_device = make_device(config.nvem_spec(), env, streams)
        self.units: Dict[str, StorageDevice] = {
            spec.name: make_device(spec, env, streams)
            for spec in config.device_specs()
        }
        #: Media-fault state and archive device (None when media is off).
        self.media_state: Optional[MediaState] = None
        self.archive_device: Optional[StorageDevice] = None
        #: Written-page tracker for archive-based media recovery, attached
        #: by the MediaManager (stays None otherwise).
        self.media_tracker = None
        if config.media.enabled:
            self.media_state = MediaState(env, config.media)
            # Gate only the devices the fault schedule names: every other
            # device keeps its raw object, so an empty schedule leaves
            # the run bit-identical to a media-disabled build.
            for name in list(self.units):
                if self.media_state.is_faulted(name):
                    self.units[name] = DeviceFaultGate(
                        self.units[name], self.media_state)
            if self.media_state.is_faulted(NVEM):
                self.nvem_device = NVEMFaultGate(
                    self.nvem_device, self.media_state)
            # The archive device exists only when a loss is actually
            # scheduled (or a spec explicitly given): an empty schedule
            # then differs from a media-disabled run by nothing at all.
            spec = config.media.archive_device
            if spec is None and any(fault.kind == "loss"
                                    for fault in config.media.faults):
                spec = DeviceSpec(
                    kind="regular", name="archive0",
                    params={"num_controllers": 2, "num_disks": 8,
                            "disk_delay": 0.005})
            if spec is not None:
                self.archive_device = make_device(spec, env, streams)
        #: partition name -> allocation target string
        self._alloc: Dict[str, str] = {
            part.name: part.allocation for part in config.partitions
        }
        # Residency is fixed at construction time, so the per-reference
        # queries below are set membership tests, not string compares.
        self._memory_resident = frozenset(
            name for name, target in self._alloc.items() if target == MEMORY
        )
        self._nvem_resident = frozenset(
            name for name, target in self._alloc.items() if target == NVEM
        )
        self._log_target = config.log.device
        #: Monotonic page number for the sequential log file.
        self._log_page = 0

    # -- allocation queries ------------------------------------------------
    def allocation_of(self, partition: str) -> str:
        return self._alloc[partition]

    def is_memory_resident(self, partition: str) -> bool:
        return partition in self._memory_resident

    def is_nvem_resident(self, partition: str) -> bool:
        return partition in self._nvem_resident

    def unit_of(self, partition: str) -> Optional[StorageDevice]:
        target = self._alloc[partition]
        if target in (MEMORY, NVEM):
            return None
        return self.units[target]

    @property
    def log_on_nvem(self) -> bool:
        return self._log_target == NVEM

    @property
    def log_unit(self) -> Optional[StorageDevice]:
        if self._log_target == NVEM:
            return None
        return self.units[self._log_target]

    def next_log_page(self) -> int:
        """Allocate the next page of the sequential log file."""
        self._log_page += 1
        return self._log_page

    @property
    def log_page_count(self) -> int:
        """Highest log page number written so far (the log tail LSN)."""
        return self._log_page

    # -- device access ------------------------------------------------------
    # The page and log I/O methods hand back the unit's own ``read`` /
    # ``write`` generator: one generator frame per I/O.  The guards run
    # at the call; the unit's body (its start time, its statistics) at
    # the first send.
    def read_page(self, partition_index: int, partition: str,
                  page_no: int) -> Generator:
        """Read a page from the partition's home device.

        Memory- and NVEM-resident partitions are handled by the buffer
        manager before this point; calling this for them is a logic
        error, guarded here to fail fast.
        """
        unit = self.unit_of(partition)
        if unit is None:
            raise RuntimeError(
                f"read_page called for resident partition {partition!r}"
            )
        return unit.read((partition_index, page_no))

    def write_page(self, partition_index: int, partition: str,
                   page_no: int) -> Generator:
        unit = self.unit_of(partition)
        if unit is None:
            raise RuntimeError(
                f"write_page called for resident partition {partition!r}"
            )
        key = (partition_index, page_no)
        if self.media_tracker is None:
            return unit.write(key)
        return self._tracked_write(unit, self._alloc[partition], key)

    def _tracked_write(self, unit: StorageDevice, device: str,
                       key) -> Generator:
        """A unit write noted in the media tracker at its first send —
        for a SYNC partition, after the CPU grant."""
        self.media_tracker.note_write(device, key)
        result = yield from unit.write(key)
        return result

    def inner_unit(self, name: str) -> StorageDevice:
        """The raw device behind ``name``, bypassing any fault gate (the
        media recoverer writes restored pages through this)."""
        unit = self.units[name]
        return getattr(unit, "inner", unit)

    @property
    def inner_nvem(self):
        """The raw NVEM device, bypassing any fault gate."""
        return getattr(self.nvem_device, "inner", self.nvem_device)

    def write_log_to_unit(self, page_no: int) -> Generator:
        """Write one log page to the log's disk unit."""
        unit = self.log_unit
        if unit is None:
            raise RuntimeError("log is NVEM-resident; no unit write")
        # Partition index -1 identifies the log file in page keys.
        return unit.write((-1, page_no))

    def read_log_from_unit(self, page_no: int) -> Generator:
        """Read one log page back (the restart replayer's log scan)."""
        unit = self.log_unit
        if unit is None:
            raise RuntimeError("log is NVEM-resident; no unit read")
        return unit.read((-1, page_no))

    # -- statistics ------------------------------------------------------
    def reset_stats(self) -> None:
        self.nvem_device.reset_stats()
        for unit in self.units.values():
            unit.reset_stats()
        if self.archive_device is not None:
            self.archive_device.reset_stats()

    def utilization_report(self) -> Dict[str, Dict[str, float]]:
        report: Dict[str, Dict[str, float]] = {
            "nvem": self.nvem_device.utilization_report(),
        }
        for name, unit in self.units.items():
            report[name] = unit.utilization_report()
        if self.archive_device is not None:
            report[self.archive_device.name] = \
                self.archive_device.utilization_report()
        return report
