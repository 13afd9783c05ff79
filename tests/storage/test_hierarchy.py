"""Unit tests for storage-hierarchy wiring (repro.storage.hierarchy)."""

import pytest

from repro.core.config import (
    CMConfig,
    DiskUnitConfig,
    DiskUnitType,
    LogAllocation,
    MEMORY,
    NVEM,
    NVEMConfig,
    PartitionConfig,
    SystemConfig,
)
from repro.sim import Environment, RandomStreams
from repro.storage.hierarchy import StorageSubsystem


def build(log_device="unit0"):
    config = SystemConfig(
        partitions=[
            PartitionConfig("on_disk", num_objects=100,
                            allocation="unit0"),
            PartitionConfig("on_ssd", num_objects=100,
                            allocation="ssd0"),
            PartitionConfig("in_nvem", num_objects=100, allocation=NVEM),
            PartitionConfig("in_memory", num_objects=100,
                            allocation=MEMORY),
        ],
        disk_units=[
            DiskUnitConfig(name="unit0", num_disks=2),
            DiskUnitConfig(name="ssd0", unit_type=DiskUnitType.SSD),
        ],
        nvem=NVEMConfig(),
        cm=CMConfig(),
        log=LogAllocation(device=log_device),
    )
    config.validate()
    env = Environment()
    return env, StorageSubsystem(env, RandomStreams(1), config)


class TestAllocationQueries:
    def test_allocation_of(self):
        _, storage = build()
        assert storage.allocation_of("on_disk") == "unit0"
        assert storage.allocation_of("in_nvem") == NVEM

    def test_residence_predicates(self):
        _, storage = build()
        assert storage.is_memory_resident("in_memory")
        assert not storage.is_memory_resident("on_disk")
        assert storage.is_nvem_resident("in_nvem")
        assert not storage.is_nvem_resident("on_ssd")

    def test_unit_of(self):
        _, storage = build()
        assert storage.unit_of("on_disk").name == "unit0"
        assert storage.unit_of("on_ssd").name == "ssd0"
        assert storage.unit_of("in_nvem") is None
        assert storage.unit_of("in_memory") is None

    def test_unknown_partition_raises(self):
        _, storage = build()
        with pytest.raises(KeyError):
            storage.allocation_of("ghost")


class TestLog:
    def test_log_unit_resolution(self):
        _, storage = build()
        assert not storage.log_on_nvem
        assert storage.log_unit.name == "unit0"

    def test_log_on_nvem(self):
        _, storage = build(log_device=NVEM)
        assert storage.log_on_nvem
        assert storage.log_unit is None

    def test_log_pages_monotonic(self):
        _, storage = build()
        pages = [storage.next_log_page() for _ in range(5)]
        assert pages == [1, 2, 3, 4, 5]

    def test_log_write_to_unit(self):
        env, storage = build()
        result = env.run(until=env.process(storage.write_log_to_unit(1)))
        assert result.level == "disk"

    def test_log_write_on_nvem_log_raises(self):
        env, storage = build(log_device=NVEM)
        with pytest.raises(RuntimeError):
            env.run(until=env.process(storage.write_log_to_unit(1)))


class TestPageIO:
    def test_read_routes_to_home_unit(self):
        env, storage = build()
        result = env.run(
            until=env.process(storage.read_page(0, "on_disk", 5))
        )
        assert result.level == "disk"
        assert storage.units["unit0"].stats.get("read") == 1

    def test_ssd_read(self):
        env, storage = build()
        result = env.run(
            until=env.process(storage.read_page(1, "on_ssd", 5))
        )
        assert result.level == "ssd"

    def test_resident_partition_io_rejected(self):
        env, storage = build()
        with pytest.raises(RuntimeError):
            env.run(until=env.process(storage.read_page(2, "in_nvem", 5)))
        with pytest.raises(RuntimeError):
            env.run(
                until=env.process(storage.write_page(3, "in_memory", 5))
            )


class TestPassThroughs:
    """The page and log methods hand back the unit's own generator; the
    resident-partition guard fires at the call, and a media-tracked
    write is noted when the unit write starts."""

    def test_resident_partition_read_raises_at_call(self):
        _, storage = build()
        with pytest.raises(RuntimeError):
            storage.read_page(2, "in_nvem", 5)
        with pytest.raises(RuntimeError):
            storage.write_page(3, "in_memory", 5)

    def test_nvem_log_unit_io_raises_at_call(self):
        _, storage = build(log_device=NVEM)
        with pytest.raises(RuntimeError):
            storage.write_log_to_unit(1)
        with pytest.raises(RuntimeError):
            storage.read_log_from_unit(1)

    def test_unit_body_runs_at_first_send(self):
        env, storage = build()
        unit = storage.units["unit0"]
        gen = storage.read_page(0, "on_disk", 5)
        assert unit.stats.get("read") == 0
        result = env.run(until=env.process(gen))
        assert unit.stats.get("read") == 1
        assert result.level == "disk"

    @pytest.mark.parametrize("sync", [False, True])
    def test_media_tracked_write_noted_when_the_write_starts(self, sync):
        from repro.core.cpu import CPUPool

        env, storage = build()
        noted = []

        class Recorder:
            def note_write(self, device, key):
                noted.append((env.now, device, key))

        storage.media_tracker = Recorder()
        cpu = CPUPool(env, RandomStreams(2), CMConfig(num_cpus=1,
                                                      mips=1.0))
        results = []

        def holder():
            # Holds the only CPU for one second (1M instructions).
            burst = cpu.execute_event(None, 1_000_000.0, exponential=False)
            yield burst

        def writer():
            gen = storage.write_page(0, "on_disk", 5)
            assert noted == []  # nothing noted at the call
            if sync:
                # SYNC partition: CPU grant at t=1, 0.5 s of overhead,
                # then the unit write starts with the CPU held.
                result = yield from cpu.execute_with_sync_access(
                    None, 500_000.0, gen)
            else:
                yield env.timeout(2.0)
                result = yield from gen
            results.append((env.now, result.level))

        env.process(holder())
        env.process(writer())
        env.run()
        start = 1.5 if sync else 2.0
        assert noted == [(start, "unit0", (0, 5))]
        assert results[0][1] == "disk"
        assert results[0][0] > start


class TestReporting:
    def test_utilization_report_structure(self):
        env, storage = build()
        env.run(until=env.process(storage.read_page(0, "on_disk", 5)))
        report = storage.utilization_report()
        assert "nvem" in report
        assert "unit0" in report
        assert 0.0 <= report["unit0"]["disks"] <= 1.0

    def test_reset_stats(self):
        env, storage = build()
        env.run(until=env.process(storage.read_page(0, "on_disk", 5)))
        storage.reset_stats()
        assert storage.units["unit0"].stats.total() == 0
