"""Unit tests for disk units (repro.storage.disk) and NVEM device."""

import random

import pytest

from repro.core.config import (
    DiskUnitConfig,
    DiskUnitType,
    Distribution,
    NVEMConfig,
)
from repro.sim import Environment, RandomStreams
from repro.storage.device import IOResult, LEVEL_CACHE, LEVEL_DISK, LEVEL_SSD
from repro.storage.disk import DiskUnit
from repro.storage.nvem import NVEMDevice


def constant_unit(**overrides):
    """A unit with constant service times for exact latency checks."""
    params = dict(
        name="u0",
        unit_type=DiskUnitType.REGULAR,
        num_controllers=1,
        controller_delay=0.001,
        trans_delay=0.0004,
        num_disks=1,
        disk_delay=0.015,
        controller_distribution=Distribution.CONSTANT,
        disk_distribution=Distribution.CONSTANT,
        striping="page",  # deterministic page->disk mapping for tests
    )
    params.update(overrides)
    return DiskUnitConfig(**params)


def run_io(env, gen):
    """Drive one I/O generator to completion, returning its IOResult."""
    return env.run(until=env.process(gen))


class TestRegularDisk:
    def test_read_latency_composition(self):
        env = Environment()
        unit = DiskUnit(env, RandomStreams(1), constant_unit())
        result = run_io(env, unit.read((0, 7)))
        # 1 ms controller + 15 ms disk + 0.4 ms transfer = 16.4 ms (§4.1)
        assert result.latency == pytest.approx(0.0164)
        assert result.level == "disk"

    def test_write_latency_composition(self):
        env = Environment()
        unit = DiskUnit(env, RandomStreams(1), constant_unit())
        result = run_io(env, unit.write((0, 7)))
        assert result.latency == pytest.approx(0.0164)
        assert result.level == "disk"

    def test_disk_queueing_serializes(self):
        env = Environment()
        unit = DiskUnit(env, RandomStreams(1), constant_unit(num_controllers=4))
        done = []

        def io(env, tag):
            result = yield from unit.read((0, 4))  # same disk
            done.append((tag, env.now))

        env.process(io(env, "a"))
        env.process(io(env, "b"))
        env.run()
        # Second I/O waits for the disk (controller is parallel).
        assert done[0][1] == pytest.approx(0.0164)
        assert done[1][1] == pytest.approx(0.0164 + 0.015, abs=1e-3)

    def test_striping_parallelizes_across_disks(self):
        env = Environment()
        unit = DiskUnit(
            env, RandomStreams(1),
            constant_unit(num_disks=2, num_controllers=2),
        )
        done = []

        def io(env, page):
            yield from unit.read((0, page))
            done.append(env.now)

        env.process(io(env, 0))  # disk 0
        env.process(io(env, 1))  # disk 1
        env.run()
        assert done[0] == pytest.approx(0.0164)
        assert done[1] == pytest.approx(0.0164)

    def test_stats_counters(self):
        env = Environment()
        unit = DiskUnit(env, RandomStreams(1), constant_unit())
        run_io(env, unit.read((0, 1)))
        run_io(env, unit.write((0, 2)))
        assert unit.stats.get("read") == 1
        assert unit.stats.get("write") == 1

    def test_random_striping_spreads_hot_page(self):
        """Repeated I/O to one page uses all disks under random striping."""
        env = Environment()
        unit = DiskUnit(
            env, RandomStreams(1),
            constant_unit(num_disks=4, num_controllers=4,
                          striping="random"),
        )

        def io(env):
            for _ in range(40):
                yield from unit.write((0, 7))

        env.run(until=env.process(io(env)))
        used = sum(1 for d in unit.disks if d.monitor.completions > 0)
        assert used == 4

    def test_page_striping_pins_hot_page(self):
        env = Environment()
        unit = DiskUnit(
            env, RandomStreams(1),
            constant_unit(num_disks=4, num_controllers=4, striping="page"),
        )

        def io(env):
            for _ in range(10):
                yield from unit.write((0, 7))

        env.run(until=env.process(io(env)))
        used = [i for i, d in enumerate(unit.disks)
                if d.monitor.completions > 0]
        assert used == [3]  # page 7 mod 4


class TestSSD:
    def test_ssd_latency(self):
        env = Environment()
        unit = DiskUnit(
            env, RandomStreams(1),
            constant_unit(unit_type=DiskUnitType.SSD),
        )
        result = run_io(env, unit.read((0, 7)))
        # 1 ms controller + 0.4 ms transfer = 1.4 ms (§4.1)
        assert result.latency == pytest.approx(0.0014)
        assert result.level == "ssd"

    def test_ssd_write_same_latency(self):
        env = Environment()
        unit = DiskUnit(
            env, RandomStreams(1),
            constant_unit(unit_type=DiskUnitType.SSD),
        )
        result = run_io(env, unit.write((0, 7)))
        assert result.latency == pytest.approx(0.0014)


class TestVolatileCacheUnit:
    def make(self, env, cache_size=10):
        return DiskUnit(
            env, RandomStreams(1),
            constant_unit(unit_type=DiskUnitType.VOLATILE_CACHE,
                          cache_size=cache_size),
        )

    def test_read_miss_then_hit_latency(self):
        env = Environment()
        unit = self.make(env)
        miss = run_io(env, unit.read((0, 3)))
        hit = run_io(env, unit.read((0, 3)))
        assert miss.level == "disk"
        assert miss.latency == pytest.approx(0.0164)
        assert hit.level == "disk_cache"
        assert hit.latency == pytest.approx(0.0014)

    def test_write_goes_to_disk_even_on_hit(self):
        env = Environment()
        unit = self.make(env)
        run_io(env, unit.read((0, 3)))  # cache the page
        result = run_io(env, unit.write((0, 3)))
        assert result.level == "disk"
        assert result.latency == pytest.approx(0.0164)


class TestNonVolatileCacheUnit:
    def make(self, env, cache_size=2):
        return DiskUnit(
            env, RandomStreams(1),
            constant_unit(unit_type=DiskUnitType.NONVOLATILE_CACHE,
                          cache_size=cache_size),
        )

    def test_write_absorbed_fast(self):
        env = Environment()
        unit = self.make(env)
        result = run_io(env, unit.write((0, 3)))
        assert result.level == "disk_cache"
        assert result.latency == pytest.approx(0.0014)
        assert unit.pending_destages() == 1

    def test_destage_completes_in_background(self):
        env = Environment()
        unit = self.make(env)
        run_io(env, unit.write((0, 3)))
        env.run(until=1.0)
        assert unit.pending_destages() == 0
        assert unit.stats.get("destage_write") == 1

    def test_saturated_cache_writes_synchronously(self):
        env = Environment()
        unit = self.make(env, cache_size=1)

        def io(env):
            first = yield from unit.write((0, 1))
            # Immediately write another page: the only frame is dirty.
            second = yield from unit.write((0, 2))
            return first, second

        first, second = env.run(until=env.process(io(env)))
        assert first.level == "disk_cache"
        assert second.level == "disk"

    def test_read_hit_after_write(self):
        env = Environment()
        unit = self.make(env)
        run_io(env, unit.write((0, 3)))
        result = run_io(env, unit.read((0, 3)))
        assert result.level == "disk_cache"

    def test_drain_waits_for_destages(self):
        env = Environment()
        unit = self.make(env)

        def io(env):
            yield from unit.write((0, 3))
            yield from unit.drain()
            return env.now

        finished = env.run(until=env.process(io(env)))
        assert unit.pending_destages() == 0
        assert finished >= 0.015  # destage includes a 15 ms disk access


class _OracleDiskUnit(DiskUnit):
    """The unit as it was before its stages were flattened into single
    yielded events and its draws bound at construction: one
    sub-generator per stage and a stream looked up by name on every
    draw (bodies kept verbatim)."""

    def __init__(self, env, streams, config):
        super().__init__(env, streams, config)
        # Let the per-draw methods below replace the bound draws.
        del self._controller_time, self._disk_time

    def _controller_time(self) -> float:
        if self.config.controller_distribution is Distribution.EXPONENTIAL:
            return self._streams.exponential(
                f"{self.name}-ctrl", self.config.controller_delay
            )
        return self.config.controller_delay

    def _disk_time(self) -> float:
        if self.config.disk_distribution is Distribution.EXPONENTIAL:
            return self._streams.exponential(
                f"{self.name}-disk", self.config.disk_delay
            )
        return self.config.disk_delay

    def _controller_service(self):
        yield self.controllers.serve_event(self._controller_time)

    def _disk_service(self, key):
        yield self._disk_for(key).serve_event(self._disk_time)

    def _transmission(self):
        if self.config.trans_delay > 0:
            yield self.env.timeout(self.config.trans_delay)

    def _destage(self, key, entry):
        self.stats.add("destage_write")
        yield from self._disk_service(key)
        self.cache.on_disk_write_complete(entry)

    def read(self, key):
        start = self.env.now
        self.stats.add("read")
        if self.config.unit_type == DiskUnitType.SSD:
            yield from self._controller_service()
            yield from self._transmission()
            return IOResult(LEVEL_SSD, self.env.now - start)

        if self.cache is None:
            yield from self._controller_service()
            yield from self._disk_service(key)
            yield from self._transmission()
            return IOResult(LEVEL_DISK, self.env.now - start)

        decision = self.cache.on_read(key)
        yield from self._controller_service()
        if decision.hit:
            yield from self._transmission()
            return IOResult(LEVEL_CACHE, self.env.now - start)
        yield from self._disk_service(key)
        self.cache.on_read_fill(key)
        yield from self._transmission()
        return IOResult(LEVEL_DISK, self.env.now - start)

    def write(self, key):
        start = self.env.now
        self.stats.add("write")
        if self.config.unit_type == DiskUnitType.SSD:
            yield from self._controller_service()
            yield from self._transmission()
            return IOResult(LEVEL_SSD, self.env.now - start)

        if self.cache is None:
            yield from self._controller_service()
            yield from self._transmission()
            yield from self._disk_service(key)
            return IOResult(LEVEL_DISK, self.env.now - start)

        decision = self.cache.on_write(key)
        yield from self._controller_service()
        yield from self._transmission()
        if decision.hit and not decision.needs_disk:
            if decision.async_disk_write:
                self._spawn_destage(key, decision.entry)
            return IOResult(LEVEL_CACHE, self.env.now - start)
        yield from self._disk_service(key)
        return IOResult(LEVEL_DISK, self.env.now - start)


def _io_mix(unit_cls, unit_type, distribution, striping):
    """Four clients issuing a fixed pseudo-random mix of reads and
    writes against one unit; returns every ``(client, op, page, level,
    latency, finish)`` plus the unit's final statistics."""
    env = Environment()
    config = DiskUnitConfig(
        name="u0", unit_type=unit_type, num_controllers=2,
        controller_delay=0.001, trans_delay=0.0004, num_disks=3,
        disk_delay=0.015, controller_distribution=distribution,
        disk_distribution=distribution, cache_size=4, striping=striping,
    )
    unit = unit_cls(env, RandomStreams(9), config)
    script = random.Random(4)
    done = []

    def client(index):
        for _ in range(25):
            yield env.timeout(script.choice((0.0, 0.0005, 0.003, 0.02)))
            op = script.choice(("read", "read", "write"))
            page = (0, script.randrange(8))
            io = unit.read(page) if op == "read" else unit.write(page)
            result = yield from io
            done.append((index, op, page, result.level, result.latency,
                         env.now))

    for index in range(4):
        env.process(client(index))
    env.run()
    return done, dict(unit.stats.as_dict()), unit.utilization_report()


@pytest.mark.parametrize("unit_type", list(DiskUnitType))
@pytest.mark.parametrize("distribution", list(Distribution))
def test_flattened_stages_match_the_stage_generators(unit_type,
                                                     distribution):
    """Levels, latencies and completion instants are unchanged for SSD
    units, units without a cache and both kinds of cached unit, under
    constant and exponential service times."""
    striping = "random" if distribution is Distribution.EXPONENTIAL \
        else "page"
    new = _io_mix(DiskUnit, unit_type, distribution, striping)
    oracle = _io_mix(_OracleDiskUnit, unit_type, distribution, striping)
    assert new == oracle
    levels = {level for _, _, _, level, _, _ in new[0]}
    if unit_type is DiskUnitType.SSD:
        assert levels == {"ssd"}
    elif unit_type is DiskUnitType.REGULAR:
        assert levels == {"disk"}
    else:
        assert levels == {"disk", "disk_cache"}


class TestWriteBufferUnit:
    def make(self, env, cache_size=2):
        return DiskUnit(
            env, RandomStreams(1),
            constant_unit(unit_type=DiskUnitType.NONVOLATILE_CACHE,
                          cache_size=cache_size, write_buffer_only=True,
                          disk_delay=0.005),
        )

    def test_log_writes_absorbed_until_saturation(self):
        env = Environment()
        unit = self.make(env, cache_size=2)

        def io(env):
            results = []
            for page in range(3):
                result = yield from unit.write((-1, page))
                results.append(result.level)
            return results

        levels = env.run(until=env.process(io(env)))
        assert levels == ["disk_cache", "disk_cache", "disk"]

    def test_slots_freed_after_destage(self):
        env = Environment()
        unit = self.make(env, cache_size=1)

        def io(env):
            yield from unit.write((-1, 1))
            yield env.timeout(0.1)  # destage done
            result = yield from unit.write((-1, 2))
            return result

        result = env.run(until=env.process(io(env)))
        assert result.level == "disk_cache"


class TestNVEMDevice:
    def test_access_latency(self):
        env = Environment()
        device = NVEMDevice(env, RandomStreams(1), NVEMConfig(delay=50e-6))

        def io(env):
            yield from device.access("read")
            return env.now

        finished = env.run(until=env.process(io(env)))
        assert finished == pytest.approx(50e-6)

    def test_single_server_serializes(self):
        env = Environment()
        device = NVEMDevice(
            env, RandomStreams(1), NVEMConfig(num_servers=1, delay=50e-6)
        )
        done = []

        def io(env):
            yield from device.access()
            done.append(env.now)

        env.process(io(env))
        env.process(io(env))
        env.run()
        assert done[0] == pytest.approx(50e-6)
        assert done[1] == pytest.approx(100e-6)

    def test_multiple_servers_parallel(self):
        env = Environment()
        device = NVEMDevice(
            env, RandomStreams(1), NVEMConfig(num_servers=2, delay=50e-6)
        )
        done = []

        def io(env):
            yield from device.access()
            done.append(env.now)

        env.process(io(env))
        env.process(io(env))
        env.run()
        assert done == [pytest.approx(50e-6), pytest.approx(50e-6)]

    def test_stats_by_kind(self):
        env = Environment()
        device = NVEMDevice(env, RandomStreams(1), NVEMConfig())
        env.run(until=env.process(device.access("migrate")))
        env.run(until=env.process(device.access("migrate")))
        env.run(until=env.process(device.access("log")))
        assert device.stats.get("migrate") == 2
        assert device.stats.get("log") == 1
