"""Unit tests for the buffer manager (repro.core.bm)."""

import pytest

from repro.core.bm import BufferManager
from repro.core.config import (
    CMConfig,
    DiskUnitConfig,
    DiskUnitType,
    LogAllocation,
    MEMORY,
    NVEM,
    NVEMCachingMode,
    NVEMConfig,
    PartitionConfig,
    SystemConfig,
    UpdateStrategy,
)
from repro.core.cpu import CPUPool
from repro.core.metrics import MetricsCollector
from repro.core.transaction import ObjectRef, Transaction
from repro.sim import Environment, RandomStreams
from repro.storage.hierarchy import StorageSubsystem

CTRL = 0.001
TRANS = 0.0004
DISK = 0.015


def build_system(buffer_size=4,
                 update_strategy=UpdateStrategy.NOFORCE,
                 nvem_caching=NVEMCachingMode.NONE,
                 nvem_cache_size=0,
                 nvem_write_buffer=False,
                 nvem_write_buffer_size=0,
                 allocation="db0",
                 log_device="log0",
                 log_nvem_wb=False,
                 unit_type=DiskUnitType.REGULAR,
                 cache_size=0,
                 **cm_overrides):
    partitions = [
        PartitionConfig("main", num_objects=10_000, block_factor=1,
                        allocation=allocation, nvem_caching=nvem_caching,
                        nvem_write_buffer=nvem_write_buffer),
        PartitionConfig("other", num_objects=10_000, block_factor=1,
                        allocation=allocation, nvem_caching=nvem_caching,
                        nvem_write_buffer=nvem_write_buffer),
    ]
    units = []
    if allocation == "db0" or log_device == "log0":
        units.append(DiskUnitConfig(
            name="db0", unit_type=unit_type, num_controllers=4,
            controller_delay=CTRL, trans_delay=TRANS,
            num_disks=8, disk_delay=DISK, cache_size=cache_size,
        ))
    if log_device == "log0" and not units:
        pass
    if log_device == "log0":
        log_target = "db0"
    else:
        log_target = log_device
    cm = CMConfig(buffer_size=buffer_size, update_strategy=update_strategy,
                  nvem_cache_size=nvem_cache_size,
                  nvem_write_buffer_size=nvem_write_buffer_size,
                  num_cpus=4, mips=50.0)
    for key, value in cm_overrides.items():
        setattr(cm, key, value)
    config = SystemConfig(
        partitions=partitions,
        disk_units=units,
        nvem=NVEMConfig(),
        cm=cm,
        log=LogAllocation(device=log_target, nvem_write_buffer=log_nvem_wb),
    )
    config.validate()
    env = Environment()
    streams = RandomStreams(3)
    metrics = MetricsCollector(env)
    storage = StorageSubsystem(env, streams, config)
    cpu = CPUPool(env, streams, config.cm)
    bm = BufferManager(env, streams, config, cpu, storage, metrics)
    return env, bm, metrics, storage


def ref(page, write=False, partition=0):
    return ObjectRef(partition, page, page, write)


def fix(env, bm, tx, reference):
    """Run one fix_page to completion and return the level."""
    return env.run(until=env.process(bm.fix_page(tx, reference)))


def make_tx(tx_id=1, update=True):
    """A bare transaction; ``is_update`` normally derives from the refs
    (empty here), so it is set explicitly for commit/logging tests."""
    tx = Transaction(tx_id, "t", [])
    tx.is_update = update
    return tx


class TestFixPage:
    def test_miss_then_hit(self):
        env, bm, metrics, _ = build_system()
        tx = make_tx()
        assert fix(env, bm, tx, ref(1)) == "disk"
        assert fix(env, bm, tx, ref(1)) == "main_memory"
        assert metrics.page_access.get("main_memory") == 1
        assert metrics.page_access.get("disk") == 1

    def test_miss_pays_io_latency(self):
        env, bm, _, _ = build_system()
        tx = make_tx()
        start = env.now
        fix(env, bm, tx, ref(1))
        # instr_io CPU (0.06 ms) + ctrl + disk + trans = ~16.46 ms
        assert env.now - start == pytest.approx(0.01646, abs=1e-4)

    def test_write_marks_dirty_and_tracks_modified(self):
        env, bm, _, _ = build_system()
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        assert (0, 1) in tx.modified_pages
        assert bm.mm.peek((0, 1)).dirty

    def test_read_does_not_mark_dirty(self):
        env, bm, _, _ = build_system()
        tx = make_tx()
        fix(env, bm, tx, ref(1))
        assert not bm.mm.peek((0, 1)).dirty
        assert not tx.modified_pages

    def test_memory_resident_access_is_free(self):
        env, bm, metrics, _ = build_system(allocation=MEMORY,
                                           log_device=NVEM)
        tx = make_tx()
        start = env.now
        level = fix(env, bm, tx, ref(1, write=True))
        assert level == "memory_resident"
        assert env.now == start  # no time passes
        assert not tx.modified_pages  # NOFORCE assumed for resident data
        assert len(bm.mm) == 0

    def test_nvem_resident_miss(self):
        env, bm, metrics, _ = build_system(allocation=NVEM,
                                           log_device=NVEM)
        tx = make_tx()
        level = fix(env, bm, tx, ref(1))
        assert level == "nvem"
        # instr_nvem (6 us) + 50 us NVEM access
        assert env.now == pytest.approx(56e-6, abs=5e-6)
        # Page is now buffered in main memory.
        assert fix(env, bm, tx, ref(1)) == "main_memory"

    def test_eviction_writes_back_dirty_page(self):
        env, bm, metrics, _ = build_system(buffer_size=2)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        fix(env, bm, tx, ref(3, write=True))  # evicts page 1 (dirty)
        assert (0, 1) not in bm.mm
        assert (0, 3) in bm.mm
        assert metrics.io_counts.get("db_write_sync") == 1

    def test_eviction_of_clean_page_is_silent(self):
        env, bm, metrics, _ = build_system(buffer_size=2)
        tx = make_tx()
        fix(env, bm, tx, ref(1))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))
        assert metrics.io_counts.get("db_write_sync") == 0
        assert metrics.io_counts.get("db_read") == 3

    def test_lru_eviction_order(self):
        env, bm, _, _ = build_system(buffer_size=2)
        tx = make_tx()
        fix(env, bm, tx, ref(1))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(1))  # promote page 1
        fix(env, bm, tx, ref(3))  # evicts page 2
        assert (0, 1) in bm.mm
        assert (0, 2) not in bm.mm

    def test_concurrent_miss_same_page_single_read(self):
        """TPSIM bookkeeping: one miss per page, concurrent access hits."""
        env, bm, metrics, _ = build_system()
        levels = []

        def proc(env, tx):
            level = yield from bm.fix_page(tx, ref(7))
            levels.append(level)

        env.process(proc(env, make_tx(1)))
        env.process(proc(env, make_tx(2)))
        env.run()
        assert sorted(levels) == ["disk", "main_memory"]
        assert metrics.io_counts.get("db_read") == 1


class TestCommitNoforce:
    def test_commit_writes_one_log_page(self):
        env, bm, metrics, _ = build_system()
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.get("log_disk") == 1
        # NOFORCE: the modified page stays dirty in the buffer.
        assert bm.mm.peek((0, 1)).dirty

    def test_read_only_tx_writes_no_log(self):
        env, bm, metrics, _ = build_system()
        tx = make_tx(update=False)
        fix(env, bm, tx, ref(1))
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.get("log_disk") == 0

    def test_logging_disabled(self):
        env, bm, metrics, _ = build_system(logging=False)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.total() == 1  # just the read


class TestCommitForce:
    def test_force_writes_modified_pages_and_keeps_them_clean(self):
        env, bm, metrics, _ = build_system(
            update_strategy=UpdateStrategy.FORCE
        )
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.get("db_write_sync") == 2
        assert metrics.io_counts.get("log_disk") == 1
        # Forced pages remain buffered, now clean.
        assert (0, 1) in bm.mm and not bm.mm.peek((0, 1)).dirty
        assert (0, 2) in bm.mm and not bm.mm.peek((0, 2)).dirty

    def test_force_skips_already_evicted_pages(self):
        env, bm, metrics, _ = build_system(
            buffer_size=2, update_strategy=UpdateStrategy.FORCE
        )
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        fix(env, bm, tx, ref(3, write=True))  # page 1 evicted + written
        env.run(until=env.process(bm.commit(tx)))
        # Page 1 was written at eviction; commit forces only 2 and 3.
        assert metrics.io_counts.get("db_write_sync") == 3


class TestNVEMCache:
    def build(self, mode=NVEMCachingMode.ALL, strategy=UpdateStrategy.NOFORCE,
              buffer_size=2, cache_size=4):
        return build_system(buffer_size=buffer_size,
                            update_strategy=strategy,
                            nvem_caching=mode,
                            nvem_cache_size=cache_size)

    def test_dirty_eviction_migrates_to_nvem(self):
        env, bm, metrics, _ = self.build()
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        fix(env, bm, tx, ref(3, write=True))
        # Page 1 migrated into NVEM; its asynchronous disk write was
        # started immediately (it completes within the 16.5 ms that the
        # page-3 read takes, so the entry is already clean here).
        assert (0, 1) in bm.nvem_cache
        env.run()
        assert not bm.nvem_cache.peek((0, 1)).dirty
        assert metrics.io_counts.get("db_write_async") == 1
        # No synchronous disk write was charged to the transaction.
        assert metrics.io_counts.get("db_write_sync") == 0

    def test_clean_eviction_migrates_under_all_mode(self):
        env, bm, _, _ = self.build(mode=NVEMCachingMode.ALL)
        tx = make_tx()
        fix(env, bm, tx, ref(1))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))
        assert (0, 1) in bm.nvem_cache
        assert not bm.nvem_cache.peek((0, 1)).dirty

    def test_clean_eviction_dropped_under_modified_mode(self):
        env, bm, _, _ = self.build(mode=NVEMCachingMode.MODIFIED)
        tx = make_tx()
        fix(env, bm, tx, ref(1))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))
        assert (0, 1) not in bm.nvem_cache

    def test_dirty_eviction_to_disk_under_unmodified_mode(self):
        env, bm, metrics, _ = self.build(mode=NVEMCachingMode.UNMODIFIED)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))
        assert (0, 1) not in bm.nvem_cache
        assert metrics.io_counts.get("db_write_sync") == 1

    def test_noforce_single_copy_invariant_on_nvem_hit(self):
        env, bm, metrics, _ = self.build()
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))  # page 1 -> NVEM
        assert (0, 1) in bm.nvem_cache
        level = fix(env, bm, tx, ref(1))  # NVEM hit -> back to MM
        assert level == "nvem_cache"
        assert (0, 1) in bm.mm
        assert (0, 1) not in bm.nvem_cache
        assert not bm.check_invariants()

    def test_force_keeps_nvem_copy_on_hit(self):
        env, bm, _, _ = self.build(strategy=UpdateStrategy.FORCE)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        env.run(until=env.process(bm.commit(tx)))  # forces page 1 to NVEM
        assert (0, 1) in bm.nvem_cache
        # Evict page 1 from MM (clean now, migrates under ALL).
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))
        # Re-read: NVEM hit, and FORCE keeps the NVEM copy (replication).
        level = fix(env, bm, tx, ref(1))
        assert level == "nvem_cache"
        assert (0, 1) in bm.nvem_cache

    def test_force_commit_writes_into_nvem(self):
        env, bm, metrics, _ = self.build(strategy=UpdateStrategy.FORCE)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        env.run(until=env.process(bm.commit(tx)))
        # Page forced to NVEM, still in MM: the double-caching effect.
        assert (0, 1) in bm.nvem_cache
        assert (0, 1) in bm.mm
        assert metrics.io_counts.get("nvem_cache_write") == 1

    def test_nvem_cache_eviction_prefers_clean(self):
        env, bm, _, _ = self.build(cache_size=2)
        tx = make_tx()
        # Fill NVEM cache with clean pages 1, 2 (read then evicted).
        for page in (1, 2, 3, 4):
            fix(env, bm, tx, ref(page))
        env.run()  # drain any async writes
        assert len(bm.nvem_cache) == 2  # pages 1 and 2
        # Evicting one more migrates page 3, displacing LRU clean page 1.
        fix(env, bm, tx, ref(5))
        assert (0, 1) not in bm.nvem_cache
        assert (0, 2) in bm.nvem_cache

    def test_combined_hit_ratio_equals_aggregate_buffer(self):
        """NOFORCE: MM+NVEM behave like one buffer of aggregate size."""
        env, bm, _, _ = self.build(buffer_size=2, cache_size=2)
        tx = make_tx()
        for page in (1, 2, 3, 4):
            fix(env, bm, tx, ref(page))
        # Aggregate LRU of size 4 holds pages 1..4: all should hit
        # (2 in MM, 2 in NVEM).
        levels = [fix(env, bm, tx, ref(p)) for p in (1, 2)]
        assert set(levels) <= {"main_memory", "nvem_cache"}


    def test_waiting_miss_takes_page_migrated_meanwhile(self):
        """Two transactions miss page 4 at t=0 and both decide to read
        it from disk.  The first fetches it; a later miss evicts it
        (clean) into the NVEM cache while the second still waits for a
        frame.  The second must then take the NVEM copy, not read the
        disk and leave the page in main memory and NVEM at once."""
        env, bm, metrics, _ = self.build(mode=NVEMCachingMode.UNMODIFIED,
                                         buffer_size=4, cache_size=1)
        accesses = [(13, True), (2, False), (1, False), (22, False),
                    (1, True), (4, False), (12, False), (4, False),
                    (16, False), (0, False), (2, False)]
        levels = {}

        def proc(tx_id, reference):
            tx = Transaction(tx_id, "t", [])
            levels[tx_id] = yield from bm.fix_page(tx, reference)

        for tx_id, (page, write) in enumerate(accesses, start=1):
            env.process(proc(tx_id, ref(page, write)))
        env.run()
        assert levels[8] == "disk"  # first miss on page 4
        assert levels[6] == "nvem_cache"  # waited, then took the NVEM copy
        assert metrics.io_counts.get("nvem_cache_read") == 1
        assert (0, 4) in bm.mm and (0, 4) not in bm.nvem_cache
        assert bm.check_invariants() == []


class TestNVEMWriteBuffer:
    def build(self, wb_size=2):
        return build_system(buffer_size=2, nvem_write_buffer=True,
                            nvem_write_buffer_size=wb_size)

    def test_write_back_absorbed(self):
        env, bm, metrics, _ = self.build()
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        start = env.now
        fix(env, bm, tx, ref(3, write=True))  # evict 1 -> NVEM WB
        assert metrics.io_counts.get("db_write_buffered") == 1
        # Eviction cost ~ NVEM speed, not disk speed: total under 18 ms
        # (the read itself is 16.5 ms).
        assert env.now - start < 0.018
        env.run()
        assert bm.write_buffer_pending() == 0
        assert metrics.io_counts.get("db_write_async") == 1

    def test_saturated_buffer_falls_through_to_disk(self):
        """With one slot, two simultaneous evictions cannot both be
        absorbed: the second write goes synchronously to disk."""
        env, bm, metrics, _ = self.build(wb_size=1)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))

        def misser(env, page):
            yield from bm.fix_page(make_tx(page), ref(page, write=True))

        env.process(misser(env, 3))  # evicts page 1 -> absorbed
        env.process(misser(env, 4))  # evicts page 2 -> slot busy
        env.run()
        assert metrics.io_counts.get("db_write_buffered") == 1
        assert metrics.io_counts.get("db_write_sync") == 1


class TestLogging:
    def test_log_to_nvem(self):
        env, bm, metrics, _ = build_system(log_device=NVEM)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        t0 = env.now
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.get("log_nvem") == 1
        assert env.now - t0 < 1e-3  # NVEM speed

    def test_log_nvem_write_buffer(self):
        env, bm, metrics, _ = build_system(log_nvem_wb=True,
                                           nvem_write_buffer_size=4)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        env.run(until=env.process(bm.commit(tx)))
        assert metrics.io_counts.get("log_buffered") == 1
        env.run()
        assert metrics.io_counts.get("log_async") == 1

    def test_log_pages_are_sequential(self):
        env, bm, _, storage = build_system()
        first = storage.next_log_page()
        second = storage.next_log_page()
        assert second == first + 1


class TestGroupCommit:
    def test_group_commit_batches_log_writes(self):
        env, bm, metrics, _ = build_system(group_commit_size=3,
                                           group_commit_timeout=0.1)
        done = []

        def committer(env, tx_id):
            tx = make_tx(tx_id)
            yield from bm.fix_page(tx, ref(tx_id, write=True))
            yield from bm.commit(tx)
            done.append(env.now)

        for tx_id in (1, 2, 3):
            env.process(committer(env, tx_id))
        env.run()
        assert len(done) == 3
        assert metrics.io_counts.get("group_commits") == 1
        assert metrics.io_counts.get("log_disk") == 1

    def test_group_commit_timeout_flushes_partial_group(self):
        env, bm, metrics, _ = build_system(group_commit_size=10,
                                           group_commit_timeout=0.01)
        def committer(env):
            tx = make_tx(1)
            yield from bm.fix_page(tx, ref(1, write=True))
            yield from bm.commit(tx)
            return env.now

        finished = env.run(until=env.process(committer(env)))
        assert metrics.io_counts.get("group_commits") == 1
        assert finished >= 0.01  # waited for the timeout


class TestAsyncReplacement:
    def test_async_replacement_frees_tx_from_write(self):
        env, bm, metrics, _ = build_system(buffer_size=2,
                                           async_replacement=True)
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2, write=True))
        t0 = env.now
        fix(env, bm, tx, ref(3, write=True))
        # Only the read is synchronous: ~16.5 ms, not ~33 ms.
        assert env.now - t0 < 0.020
        env.run()
        assert metrics.io_counts.get("db_write_async") >= 1


class TestDeferredPropagation:
    def test_dirty_page_in_nvem_has_no_pending_write(self):
        env, bm, metrics, _ = build_system(
            buffer_size=2, nvem_caching=NVEMCachingMode.ALL,
            nvem_cache_size=4, deferred_nvem_propagation=True,
        )
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))  # page 1 -> NVEM, dirty, deferred
        entry = bm.nvem_cache.peek((0, 1))
        assert entry.dirty
        assert entry.pending_write is None
        env.run()
        assert metrics.io_counts.get("db_write_async") == 0

    def test_deferred_dirty_page_carried_back_to_mm(self):
        env, bm, _, _ = build_system(
            buffer_size=2, nvem_caching=NVEMCachingMode.ALL,
            nvem_cache_size=4, deferred_nvem_propagation=True,
        )
        tx = make_tx()
        fix(env, bm, tx, ref(1, write=True))
        fix(env, bm, tx, ref(2))
        fix(env, bm, tx, ref(3))  # page 1 -> NVEM, dirty
        fix(env, bm, tx, ref(1))  # NVEM hit moves it back to MM
        # The modification must not be lost.
        assert bm.mm.peek((0, 1)).dirty


class TestPrewarm:
    def test_prewarm_fills_buffer_without_time(self):
        env, bm, _, _ = build_system(buffer_size=3)
        for page in (1, 2, 3, 4):
            bm.prewarm_reference(0, page, False)
        assert env.now == 0.0
        assert len(bm.mm) == 3
        assert (0, 1) not in bm.mm  # LRU displaced silently

    def test_prewarm_respects_force_cleanliness(self):
        env, bm, _, _ = build_system(update_strategy=UpdateStrategy.FORCE)
        bm.prewarm_reference(0, 1, True)
        assert not bm.mm.peek((0, 1)).dirty

    def test_prewarm_marks_dirty_under_noforce(self):
        env, bm, _, _ = build_system()
        bm.prewarm_reference(0, 1, True)
        assert bm.mm.peek((0, 1)).dirty

    def test_prewarm_populates_nvem_cache(self):
        env, bm, _, _ = build_system(buffer_size=2,
                                     nvem_caching=NVEMCachingMode.ALL,
                                     nvem_cache_size=4)
        for page in (1, 2, 3, 4):
            bm.prewarm_reference(0, page, False)
        assert len(bm.nvem_cache) == 2  # displaced pages 1 and 2
        assert not bm.check_invariants()

    def test_prewarm_populates_disk_cache(self):
        env, bm, _, storage = build_system(
            unit_type=DiskUnitType.VOLATILE_CACHE, cache_size=8,
            buffer_size=2,
        )
        for page in (1, 2, 3):
            bm.prewarm_reference(0, page, False)
        unit = storage.units["db0"]
        assert len(unit.cache.lru) == 3


class TestInvariants:
    def test_clean_system_has_no_violations(self):
        env, bm, _, _ = build_system()
        assert bm.check_invariants() == []

    def test_invariants_after_mixed_workload(self):
        env, bm, _, _ = build_system(buffer_size=3,
                                     nvem_caching=NVEMCachingMode.ALL,
                                     nvem_cache_size=3)
        tx = make_tx()
        for page in (1, 2, 3, 4, 5, 1, 2, 6, 3, 7):
            fix(env, bm, tx, ref(page, write=page % 2 == 0))
        env.run()
        assert bm.check_invariants() == []
