"""The storage-device protocol and the semiconductor device models.

Everything behind the channel-oriented device interface of §3.3 — plain
disks, cached disks, SSDs, and the device models added beyond the
paper's menu — implements :class:`StorageDevice`: page-keyed ``read`` /
``write`` generators returning an :class:`IOResult`, plus statistics
hooks.  :class:`~repro.storage.hierarchy.StorageSubsystem` only ever
talks to this interface; concrete classes are resolved by kind through
:mod:`repro.storage.registry`.

Two device models extend the paper's menu:

* :class:`FlashSSDDevice` — a flash solid-state disk with *asymmetric*
  read/write latency (page reads are fast; programs are several times
  slower) and a fixed number of flash channels serving pages FIFO.
  The paper's "SSD" is DRAM-based (symmetric, controller-bound); flash
  is what replaced it, and the asymmetry shifts the FORCE/NOFORCE
  trade-off noticeably.
* :class:`BatteryDRAMDevice` — battery-backed DRAM behind the disk
  interface: symmetric accesses at near-memory speed, bounded only by
  the controller pool.  This models the "non-volatile semiconductor
  store as a disk" end point of §2's cost spectrum.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Generator, Hashable

from repro.sim import Environment, RandomStreams, Resource
from repro.sim.stats import CategoryCounter
from repro.storage.registry import register_device

__all__ = [
    "BatteryDRAMDevice",
    "FlashSSDDevice",
    "IOResult",
    "StorageDevice",
]

#: Service levels reported back to the buffer manager for statistics.
LEVEL_CACHE = "disk_cache"
LEVEL_DISK = "disk"
LEVEL_SSD = "ssd"
LEVEL_FLASH = "flash"
LEVEL_BATTERY_DRAM = "battery_dram"


class IOResult:
    """Outcome of one I/O against a storage device."""

    __slots__ = ("level", "latency")

    def __init__(self, level: str, latency: float):
        #: Where the I/O was satisfied ("disk", "disk_cache", "ssd", ...).
        self.level = level
        #: Elapsed simulated time for the synchronous part of the I/O.
        self.latency = latency


class StorageDevice(ABC):
    """Anything behind the disk interface of the storage hierarchy."""

    name: str
    #: Controller-managed cache policy, when the device has one (the
    #: buffer manager's prewarm path probes this on every device).
    cache = None

    @abstractmethod
    def read(self, key: Hashable) -> Generator:
        """Read one page; returns an :class:`IOResult`."""

    @abstractmethod
    def write(self, key: Hashable) -> Generator:
        """Write one page; returns an :class:`IOResult`."""

    @abstractmethod
    def reset_stats(self) -> None: ...

    @abstractmethod
    def utilization_report(self) -> Dict[str, float]:
        """Per-server-pool utilizations for the experiment reports."""


class _SemiconductorDevice(StorageDevice):
    """Shared plumbing: a controller pool plus a transmission delay."""

    def __init__(self, env: Environment, streams: RandomStreams, name: str,
                 num_controllers: int, controller_delay: float,
                 trans_delay: float):
        if num_controllers < 1:
            raise ValueError(f"device {name}: num_controllers must be >= 1")
        if controller_delay < 0 or trans_delay < 0:
            raise ValueError(f"device {name}: negative delay")
        self.env = env
        self.name = name
        self._streams = streams
        self.controller_delay = controller_delay
        self.trans_delay = trans_delay
        self.controllers = Resource(env, num_controllers,
                                    name=f"{name}.ctrl")
        self.stats = CategoryCounter()

    def _controller_time(self) -> float:
        return self.controller_delay

    def controller_utilization(self) -> float:
        return self.controllers.monitor.utilization(self.controllers.capacity)

    def reset_stats(self) -> None:
        self.stats.reset()
        self.controllers.monitor.reset()

    def utilization_report(self) -> Dict[str, float]:
        return {"controllers": self.controller_utilization()}


class FlashSSDDevice(_SemiconductorDevice):
    """Flash SSD: asymmetric page read/program times, FIFO channels.

    Default service times model a period-appropriate NAND device: a
    0.1 ms page read and a 0.5 ms page program behind 8 independent
    channels (pages striped by page number), with the same 1 ms
    controller / 0.4 ms transmission costs as the paper's disk units.
    """

    def __init__(self, env: Environment, streams: RandomStreams,
                 name: str = "flash0", num_controllers: int = 4,
                 controller_delay: float = 0.001,
                 trans_delay: float = 0.0004, num_channels: int = 8,
                 read_delay: float = 0.0001, write_delay: float = 0.0005):
        super().__init__(env, streams, name, num_controllers,
                         controller_delay, trans_delay)
        if num_channels < 1:
            raise ValueError(f"device {name}: num_channels must be >= 1")
        if read_delay < 0 or write_delay < 0:
            raise ValueError(f"device {name}: negative flash delay")
        self.read_delay = read_delay
        self.write_delay = write_delay
        self.channels = [
            Resource(env, 1, name=f"{name}.chan{i}")
            for i in range(num_channels)
        ]

    def _channel_for(self, key: Hashable) -> Resource:
        page_no = key[-1] if isinstance(key, tuple) else key
        return self.channels[int(page_no) % len(self.channels)]

    def _read_time(self) -> float:
        return self.read_delay

    def _write_time(self) -> float:
        return self.write_delay

    def read(self, key: Hashable) -> Generator:
        start = self.env.now
        self.stats.add("read")
        yield self.controllers.serve_event(self._controller_time)
        yield self._channel_for(key).serve_event(self._read_time)
        if self.trans_delay > 0:
            yield self.env.timeout(self.trans_delay)
        return IOResult(LEVEL_FLASH, self.env.now - start)

    def write(self, key: Hashable) -> Generator:
        start = self.env.now
        self.stats.add("write")
        yield self.controllers.serve_event(self._controller_time)
        if self.trans_delay > 0:
            yield self.env.timeout(self.trans_delay)
        yield self._channel_for(key).serve_event(self._write_time)
        return IOResult(LEVEL_FLASH, self.env.now - start)

    def mean_channel_utilization(self) -> float:
        total = sum(c.monitor.utilization(1) for c in self.channels)
        return total / len(self.channels)

    def reset_stats(self) -> None:
        super().reset_stats()
        for channel in self.channels:
            channel.monitor.reset()

    def utilization_report(self) -> Dict[str, float]:
        return {
            "controllers": self.controller_utilization(),
            "channels": self.mean_channel_utilization(),
        }


class BatteryDRAMDevice(_SemiconductorDevice):
    """Battery-backed DRAM behind the disk interface.

    Accesses are symmetric and near-instant (default 20 µs per page);
    throughput is bounded by the controller pool, like the paper's
    DRAM-based SSD but an order of magnitude faster per page.
    """

    def __init__(self, env: Environment, streams: RandomStreams,
                 name: str = "bbdram0", num_controllers: int = 4,
                 controller_delay: float = 0.0002,
                 trans_delay: float = 0.0004, access_delay: float = 0.00002):
        super().__init__(env, streams, name, num_controllers,
                         controller_delay, trans_delay)
        if access_delay < 0:
            raise ValueError(f"device {name}: negative access delay")
        self.access_delay = access_delay

    def _access(self, kind: str) -> Generator:
        start = self.env.now
        self.stats.add(kind)
        yield self.controllers.serve_event(self._controller_time)
        if self.access_delay > 0:
            yield self.env.timeout(self.access_delay)
        if self.trans_delay > 0:
            yield self.env.timeout(self.trans_delay)
        return IOResult(LEVEL_BATTERY_DRAM, self.env.now - start)

    def read(self, key: Hashable) -> Generator:
        return self._access("read")

    def write(self, key: Hashable) -> Generator:
        return self._access("write")


@register_device("flash_ssd")
def _make_flash_ssd(env, streams, spec) -> FlashSSDDevice:
    return FlashSSDDevice(env, streams, name=spec.name, **spec.params)


@register_device("battery_dram")
def _make_battery_dram(env, streams, spec) -> BatteryDRAMDevice:
    return BatteryDRAMDevice(env, streams, name=spec.name, **spec.params)
