"""Disk units: regular disks, cached disks and solid-state disks (§3.3).

A *disk unit* is anything behind the channel-oriented disk interface:

* ``REGULAR`` — controller + transmission + disk access for every I/O.
* ``VOLATILE_CACHE`` / ``NONVOLATILE_CACHE`` — a controller-managed
  cache (policies in :mod:`repro.storage.cache`) in front of the disks.
* ``SSD`` — all data in semiconductor memory: controller + transmission
  only.

Timing model (matching §4.1's "without queuing delays" arithmetic:
SSD/cache hit 1.4 ms = 1 ms controller + 0.4 ms transfer; disk
16.4 ms = + 15 ms disk access):

* The controller is a server pool (``NumControllers``) held for the
  controller service time; it disconnects during disk positioning.
* Each of the ``NumDisks`` disks is its own FIFO server; pages are
  spread uniformly by page number (striping, §3.3).
* Transmission is a pure delay (the paper assumes the channel subsystem
  is never the bottleneck).

Asynchronous cache-to-disk updates run as background processes inside
the unit (they model the disk controller's destage activity and consume
no host CPU).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Hashable

from repro.core.config import DiskUnitConfig, DiskUnitType, Distribution
from repro.sim import Environment, RandomStreams, Resource
from repro.sim.core import Event
from repro.sim.stats import CategoryCounter
from repro.storage.cache import CacheDecision, make_cache_policy
from repro.storage.device import (
    IOResult,
    LEVEL_CACHE,
    LEVEL_DISK,
    LEVEL_SSD,
    StorageDevice,
)
from repro.storage.registry import register_device

__all__ = ["DiskUnit", "IOResult"]


class DiskUnit(StorageDevice):
    """One disk unit with its controllers, disks and optional cache."""

    def __init__(self, env: Environment, streams: RandomStreams,
                 config: DiskUnitConfig):
        config.validate()
        self.env = env
        self.config = config
        self.name = config.name
        self._streams = streams
        self.controllers = Resource(
            env, config.num_controllers, name=f"{config.name}.ctrl"
        )
        if config.unit_type == DiskUnitType.SSD:
            self.disks: list = []
        else:
            self.disks = [
                Resource(env, 1, name=f"{config.name}.disk{i}")
                for i in range(config.num_disks)
            ]
        if config.unit_type in (DiskUnitType.VOLATILE_CACHE,
                                DiskUnitType.NONVOLATILE_CACHE):
            self.cache = make_cache_policy(
                config.cache_size,
                nonvolatile=config.unit_type == DiskUnitType.NONVOLATILE_CACHE,
                write_buffer_only=config.write_buffer_only,
                policy=config.cache_policy,
            )
        else:
            self.cache = None
        self.stats = CategoryCounter()
        #: Completion events of in-flight asynchronous destage writes;
        #: exposed so tests and drain logic can wait for quiescence.
        self._inflight: set = set()
        # Service-time draws and stage parameters, bound once: no I/O
        # builds a stream name or re-reads the configuration.
        self._controller_time = _service_draw(
            streams, f"{config.name}-ctrl", config.controller_delay,
            config.controller_distribution)
        self._disk_time = _service_draw(
            streams, f"{config.name}-disk", config.disk_delay,
            config.disk_distribution)
        self._stripe_stream = f"{config.name}-stripe"
        self._ssd = config.unit_type == DiskUnitType.SSD
        self._trans_delay = config.trans_delay

    def _disk_for(self, key: Hashable) -> Resource:
        """Select the disk server for an I/O (see config.striping)."""
        if len(self.disks) == 1:
            return self.disks[0]
        if self.config.striping == "random":
            index = self._streams.uniform_int(
                self._stripe_stream, 0, len(self.disks) - 1
            )
            return self.disks[index]
        if isinstance(key, tuple):
            page_no = key[-1]
        else:
            page_no = key
        return self.disks[int(page_no) % len(self.disks)]

    # -- background destage ------------------------------------------------------
    def _destage(self, key: Hashable, entry) -> Generator:
        """Asynchronous cache-to-disk update (controller destage)."""
        self.stats.add("destage_write")
        yield self._disk_for(key).serve_event(self._disk_time)
        self.cache.on_disk_write_complete(entry)

    def _spawn_destage(self, key: Hashable, entry) -> Event:
        proc = self.env.process(self._destage(key, entry))
        self._inflight.add(proc)
        proc.callbacks.append(self._inflight.discard)
        return proc

    def pending_destages(self) -> int:
        return len(self._inflight)

    def drain(self) -> Generator:
        """Wait until all in-flight destage writes have completed."""
        while self._inflight:
            yield next(iter(self._inflight))

    # -- public I/O API ------------------------------------------------------
    # Each stage is one yielded event: the controller and disk services
    # are fused resource cycles (``serve_event``; striping may draw
    # randomness, so the disk is selected before queueing and its
    # service time drawn after the grant), the transmission a timeout.
    def read(self, key: Hashable) -> Generator:
        """Read one page; returns an :class:`IOResult`."""
        env = self.env
        start = env.now
        self.stats.add("read")
        trans = self._trans_delay
        if self._ssd:
            yield self.controllers.serve_event(self._controller_time)
            if trans > 0:
                yield env.timeout(trans)
            return IOResult(LEVEL_SSD, env.now - start)

        cache = self.cache
        if cache is None:
            yield self.controllers.serve_event(self._controller_time)
            yield self._disk_for(key).serve_event(self._disk_time)
            if trans > 0:
                yield env.timeout(trans)
            return IOResult(LEVEL_DISK, env.now - start)

        decision: CacheDecision = cache.on_read(key)
        yield self.controllers.serve_event(self._controller_time)
        if decision.hit:
            if trans > 0:
                yield env.timeout(trans)
            return IOResult(LEVEL_CACHE, env.now - start)
        yield self._disk_for(key).serve_event(self._disk_time)
        cache.on_read_fill(key)
        if trans > 0:
            yield env.timeout(trans)
        return IOResult(LEVEL_DISK, env.now - start)

    def write(self, key: Hashable) -> Generator:
        """Write one page; returns an :class:`IOResult`.

        For non-volatile caches the result reports ``disk_cache`` when
        the write was absorbed (the disk copy is updated asynchronously
        by a destage process).
        """
        env = self.env
        start = env.now
        self.stats.add("write")
        trans = self._trans_delay
        if self._ssd:
            yield self.controllers.serve_event(self._controller_time)
            if trans > 0:
                yield env.timeout(trans)
            return IOResult(LEVEL_SSD, env.now - start)

        cache = self.cache
        if cache is None:
            yield self.controllers.serve_event(self._controller_time)
            if trans > 0:
                yield env.timeout(trans)
            yield self._disk_for(key).serve_event(self._disk_time)
            return IOResult(LEVEL_DISK, env.now - start)

        decision = cache.on_write(key)
        yield self.controllers.serve_event(self._controller_time)
        if trans > 0:
            yield env.timeout(trans)
        if decision.hit and not decision.needs_disk:
            if decision.async_disk_write:
                self._spawn_destage(key, decision.entry)
            return IOResult(LEVEL_CACHE, env.now - start)
        # Volatile cache, or a saturated non-volatile cache: synchronous
        # disk write.
        yield self._disk_for(key).serve_event(self._disk_time)
        return IOResult(LEVEL_DISK, env.now - start)

    # -- introspection ------------------------------------------------------
    def mean_disk_utilization(self) -> float:
        if not self.disks:
            return 0.0
        total = sum(d.monitor.utilization(1) for d in self.disks)
        return total / len(self.disks)

    def controller_utilization(self) -> float:
        return self.controllers.monitor.utilization(self.controllers.capacity)

    def utilization_report(self) -> Dict[str, float]:
        return {
            "controllers": self.controller_utilization(),
            "disks": self.mean_disk_utilization(),
        }

    def reset_stats(self) -> None:
        self.stats.reset()
        self.controllers.monitor.reset()
        for disk in self.disks:
            disk.monitor.reset()
        if self.cache is not None:
            self.cache.stats.reset()


def _service_draw(streams: RandomStreams, stream: str, delay: float,
                  distribution: Distribution) -> Callable[[], float]:
    """Zero-argument service-time draw for one stage of a unit."""
    if distribution is Distribution.EXPONENTIAL:
        return streams.exponential_draw(stream, delay)
    return lambda: delay


def _make_disk_unit(env: Environment, streams: RandomStreams,
                    spec) -> DiskUnit:
    """Device-registry factory for the four classic unit kinds.

    A spec either carries a ready :class:`DiskUnitConfig` under
    ``params["config"]`` (how :meth:`SystemConfig.device_specs` wraps the
    legacy table) or plain ``DiskUnitConfig`` field values.
    """
    config = spec.params.get("config")
    if config is None:
        params = dict(spec.params)
        params.setdefault("unit_type", DiskUnitType(spec.kind))
        config = DiskUnitConfig(name=spec.name, **params)
    return DiskUnit(env, streams, config)


for _kind in DiskUnitType:
    register_device(_kind.value, _make_disk_unit)
