"""Property-based tests for buffer-manager invariants (hypothesis).

The buffer manager is driven with random access streams under random
configurations; after every simulated run the §3.2 invariants must
hold:

* frame counts never exceed capacities;
* NOFORCE: no page cached in both main memory and NVEM;
* the write-buffer occupancy is never negative;
* every page access is attributed to exactly one hierarchy level.
"""

from hypothesis import given, settings, strategies as st

from repro.core.bm import BufferManager
from repro.core.config import (
    MEMORY,
    NVEM,
    CMConfig,
    DiskUnitConfig,
    DiskUnitType,
    LogAllocation,
    NVEMCachingMode,
    NVEMConfig,
    PartitionConfig,
    PolicySpec,
    SystemConfig,
    UpdateStrategy,
)
from repro.core.cpu import CPUPool
from repro.core.metrics import MetricsCollector
from repro.core.transaction import ObjectRef, Transaction
from repro.distributed import DistributedConfig, DistributedSystem
from repro.sim import Environment, RandomStreams
from repro.storage.hierarchy import StorageSubsystem
from tests.core.test_bm import build_system


def drive(env, bm, accesses):
    """Run a stream of (page, is_write) accesses as one process each."""
    def tx_proc(tx, ref):
        yield from bm.fix_page(tx, ref)

    for i, (page, is_write) in enumerate(accesses):
        tx = Transaction(i + 1, "t", [])
        ref = ObjectRef(0, page, page, is_write)
        env.process(tx_proc(tx, ref))
    env.run()


access_stream = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=1, max_size=120,
)


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
)
@settings(max_examples=60, deadline=None)
def test_mm_buffer_invariants(accesses, buffer_size, strategy):
    env, bm, metrics, _ = build_system(buffer_size=buffer_size,
                                       update_strategy=strategy)
    drive(env, bm, accesses)
    assert bm.check_invariants() == []
    assert len(bm.mm) <= buffer_size
    # Every access was classified to a level.
    assert metrics.page_access.total() == len(accesses)


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=1, max_value=6),
    cache_size=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from([NVEMCachingMode.MODIFIED,
                          NVEMCachingMode.UNMODIFIED,
                          NVEMCachingMode.ALL]),
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
)
@settings(max_examples=60, deadline=None)
def test_nvem_cache_invariants(accesses, buffer_size, cache_size, mode,
                               strategy):
    env, bm, metrics, _ = build_system(
        buffer_size=buffer_size, update_strategy=strategy,
        nvem_caching=mode, nvem_cache_size=cache_size,
    )
    drive(env, bm, accesses)
    assert bm.check_invariants() == []
    assert len(bm.nvem_cache) <= cache_size
    if strategy is UpdateStrategy.NOFORCE:
        overlap = set(bm.mm.keys()) & set(bm.nvem_cache.keys())
        assert not overlap


@given(
    accesses=access_stream,
    wb_size=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_write_buffer_occupancy_never_negative(accesses, wb_size):
    env, bm, metrics, _ = build_system(
        buffer_size=2, nvem_write_buffer=True,
        nvem_write_buffer_size=wb_size,
    )
    drive(env, bm, accesses)
    assert bm.write_buffer_pending() == 0  # all drained at quiescence
    absorbed = metrics.io_counts.get("db_write_buffered")
    drained = metrics.io_counts.get("db_write_async")
    assert absorbed == drained


@given(
    accesses=access_stream,
    buffer_size=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_prewarm_then_run_consistent(accesses, buffer_size):
    """Prewarming must leave a state from which simulation is sound."""
    env, bm, metrics, _ = build_system(buffer_size=buffer_size)
    for page, is_write in accesses:
        bm.prewarm_reference(0, page, is_write)
    assert len(bm.mm) <= buffer_size
    drive(env, bm, accesses)
    assert bm.check_invariants() == []


@given(accesses=access_stream)
@settings(max_examples=30, deadline=None)
def test_force_leaves_no_dirty_pages_after_commits(accesses):
    """Under FORCE, committing every writer leaves a clean buffer."""
    env, bm, _, _ = build_system(buffer_size=16,
                                 update_strategy=UpdateStrategy.FORCE)

    def tx_proc(tx, refs):
        for ref in refs:
            yield from bm.fix_page(tx, ref)
        yield from bm.commit(tx)

    for i, (page, is_write) in enumerate(accesses):
        tx = Transaction(i + 1, "t", [])
        tx.is_update = is_write
        env.process(tx_proc(tx, [ObjectRef(0, page, page, is_write)]))
    env.run()
    dirty = [e.key for e in bm.mm.items_mru_to_lru() if e.dirty]
    assert dirty == []


# -- bulk prewarm equivalence -------------------------------------------------
#
# The oracle is the per-reference prewarm body the bulk
# ``BufferManager.prewarm`` replaced, kept verbatim (as functions of the
# buffer manager): the bulk loop must leave every cache level in exactly
# the state this one-reference-at-a-time replay leaves.


def reference_prewarm(bm, partition_index, page_no, is_write):
    if bm._part_mem_resident[partition_index]:
        return
    # Under FORCE, resident pages are clean at steady state (forced
    # at every commit); only NOFORCE leaves modifications in place.
    is_write = is_write and bm._noforce
    key = (partition_index, page_no)
    entry = bm.mm.get(key)
    if entry is not None:
        if is_write and not entry.dirty:
            entry.dirty = True
        return
    part = bm.partitions[partition_index]
    nvem_resident = bm.storage.is_nvem_resident(part.name)
    if not nvem_resident:
        if bm.nvem_cache is not None and \
                part.nvem_caching is not NVEMCachingMode.NONE and \
                key in bm.nvem_cache:
            bm.nvem_cache.get(key)  # touch
            if bm.cm.update_strategy is UpdateStrategy.NOFORCE:
                bm.nvem_cache.remove(key)
        else:
            unit = bm.storage.unit_of(part.name)
            if unit is not None and unit.cache is not None:
                decision = unit.cache.on_read(key)
                if not decision.hit:
                    unit.cache.on_read_fill(key)
    while len(bm.mm) >= bm.mm.capacity:
        victim = bm.mm.victim()
        reference_prewarm_displace(bm, victim)
        bm.mm.remove(victim.key)
    bm.mm.insert(key, dirty=is_write)


def reference_prewarm_displace(bm, victim):
    """Model the destination of a page displaced during prewarm."""
    vpart = bm.partitions[victim.key[0]]
    if bm.storage.is_nvem_resident(vpart.name):
        return
    if bm._migrates_to_nvem(vpart, dirty=victim.dirty):
        bm._prewarm_nvem_insert(victim.key)
        return
    if victim.dirty:
        unit = bm.storage.unit_of(vpart.name)
        if unit is not None and unit.cache is not None:
            decision = unit.cache.on_write(victim.key)
            # Treat the disk update as already complete.
            unit.cache.on_disk_write_complete(decision.entry)


def policy_state(policy):
    """Order, dirty bits and policy-specific recency state of a cache."""
    if policy is None:
        return None
    return (
        [(e.key, e.dirty, getattr(e, "referenced", None))
         for e in policy.entries()],
        list(getattr(policy, "_a1out", ())),  # 2Q ghost queue
    )


def cache_levels_state(bm):
    units = {}
    for name, unit in sorted(bm.storage.units.items()):
        cache = unit.cache
        if cache is None:
            continue
        lru = getattr(cache, "lru", None)
        units[name] = (policy_state(lru), getattr(cache, "pending", None),
                       cache.stats.as_dict())
    return policy_state(bm.mm), policy_state(bm.nvem_cache), units


CACHED_UNIT_TYPES = [DiskUnitType.REGULAR, DiskUnitType.VOLATILE_CACHE,
                     DiskUnitType.NONVOLATILE_CACHE]

# Four partitions: two on disk units (each with its own NVEM caching
# mode), one NVEM-resident and one memory-resident, so every branch of
# the per-partition plan is taken within one stream.
prewarm_refs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=30), st.booleans()),
    min_size=1, max_size=150,
)


def prewarm_config(buffer_size, nvem_size, modes, unit_types, cache_sizes,
                   strategy, policy):
    partitions = [
        PartitionConfig("a", num_objects=100, block_factor=1,
                        allocation="db0", nvem_caching=modes[0]),
        PartitionConfig("b", num_objects=100, block_factor=1,
                        allocation="db1", nvem_caching=modes[1]),
        PartitionConfig("n", num_objects=100, block_factor=1,
                        allocation=NVEM),
        PartitionConfig("m", num_objects=100, block_factor=1,
                        allocation=MEMORY),
    ]
    units = []
    for i, (mode, unit_type, size) in enumerate(
            zip(modes, unit_types, cache_sizes)):
        if mode is not NVEMCachingMode.NONE:
            # NVEM caching over a caching disk unit is rejected (fn. 4).
            unit_type = DiskUnitType.REGULAR
        units.append(DiskUnitConfig(
            name=f"db{i}", unit_type=unit_type,
            cache_size=0 if unit_type is DiskUnitType.REGULAR else size,
            cache_policy=PolicySpec(policy)))
    caching = any(m is not NVEMCachingMode.NONE for m in modes)
    cm = CMConfig(buffer_size=buffer_size, update_strategy=strategy,
                  nvem_cache_size=max(nvem_size, 1) if caching else nvem_size,
                  mm_policy=PolicySpec(policy),
                  nvem_policy=PolicySpec(policy))
    config = SystemConfig(partitions=partitions, disk_units=units,
                          nvem=NVEMConfig(), cm=cm,
                          log=LogAllocation(device=NVEM))
    config.validate()
    return config


def build_bm(config):
    env = Environment()
    streams = RandomStreams(3)
    storage = StorageSubsystem(env, streams, config)
    cpu = CPUPool(env, streams, config.cm)
    return BufferManager(env, streams, config, cpu, storage,
                         MetricsCollector(env))


prewarm_setups = dict(
    refs=prewarm_refs,
    buffer_size=st.integers(min_value=1, max_value=8),
    nvem_size=st.integers(min_value=0, max_value=6),
    modes=st.tuples(st.sampled_from(list(NVEMCachingMode)),
                    st.sampled_from(list(NVEMCachingMode))),
    unit_types=st.tuples(st.sampled_from(CACHED_UNIT_TYPES),
                         st.sampled_from(CACHED_UNIT_TYPES)),
    cache_sizes=st.tuples(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=1, max_value=6)),
    strategy=st.sampled_from([UpdateStrategy.NOFORCE,
                              UpdateStrategy.FORCE]),
    policy=st.sampled_from(["lru", "clock", "2q"]),
)


@given(**prewarm_setups)
@settings(max_examples=150, deadline=None)
def test_bulk_prewarm_matches_per_reference_replay(
        refs, buffer_size, nvem_size, modes, unit_types, cache_sizes,
        strategy, policy):
    config = prewarm_config(buffer_size, nvem_size, modes, unit_types,
                            cache_sizes, strategy, policy)
    bulk, oracle = build_bm(config), build_bm(config)
    bulk.prewarm(iter(refs))
    for partition_index, page_no, is_write in refs:
        reference_prewarm(oracle, partition_index, page_no, is_write)
    assert cache_levels_state(bulk) == cache_levels_state(oracle)
    # The one-reference entry point is the same replay.
    single = build_bm(config)
    for ref in refs:
        single.prewarm_reference(*ref)
    assert cache_levels_state(single) == cache_levels_state(oracle)


@given(**prewarm_setups, gem=st.sampled_from([0, 4]))
@settings(max_examples=40, deadline=None)
def test_distributed_fanout_prewarm_matches_per_reference_replay(
        refs, buffer_size, nvem_size, modes, unit_types, cache_sizes,
        strategy, policy, gem):
    """All nodes share one storage subsystem, so the fan-out must keep
    the reference-by-reference interleaving across nodes."""
    config = prewarm_config(buffer_size, nvem_size, modes, unit_types,
                            cache_sizes, strategy, policy)

    def build():
        return DistributedSystem(config, DistributedConfig(
            num_nodes=2, gem_capacity=gem), workload=None, seed=1)

    bulk, oracle = build(), build()
    bulk.bm.prewarm(iter(refs))
    for ref in refs:
        for node in oracle.nodes:
            reference_prewarm(node.bm, *ref)

    def state(system):
        gem_state = None
        if system.gem is not None:
            gem_state = (policy_state(system.gem.cache),
                         system.gem.stats.as_dict())
        return [cache_levels_state(n.bm) for n in system.nodes], gem_state

    assert state(bulk) == state(oracle)
