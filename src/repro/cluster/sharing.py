"""Data sharing: the cluster's shared-disk coupling ([Ra88]/[BHR91]).

With ``ClusterConfig(data_sharing=True)`` every node runs its own CPUs,
main-memory buffer and transaction manager over *one* storage
subsystem holding the whole database, instead of a shard of its own.
Concurrency and coherency control follow the data-sharing designs of
[Ra88]/[BHR91]:

* **Central locking**: node 0 hosts the one lock table; lock requests
  from other nodes pay a message round trip (:class:`CentralLocks`).
  Releases piggyback on the commit broadcast.  NVEM coupling makes the
  messages cheap ([Ra91]).
* **Global extended memory (GEM)**: an optional shared second-level
  page cache (:class:`GlobalExtendedMemory`).  Unlike the single-system
  NVEM cache of §3.2, which keeps one copy between main memory and
  NVEM, GEM keeps its copy when a node reads a page — the point is that
  *other* nodes hit it too.  Buffer misses probe GEM before disk; pages
  replaced from any node migrate into it (modified ones start an
  asynchronous disk write, like the single-system write path); at
  commit the new versions of modified pages are written to GEM, so
  other nodes always find the newest committed version.
* **Broadcast invalidation** keeps node buffers coherent: a commit
  sends one message per other node, which drops its stale copies.
  Without GEM the dropped page is re-read from disk on the next access.

The node components here are chosen once, when
:class:`~repro.cluster.node.ClusterNode` builds a node; nothing
branches on the coupling per transaction or per reference.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.bm import BufferManager
from repro.core.cc import LockMode
from repro.core.metrics import LEVEL_NVEM_CACHE
from repro.core.tm import TransactionManager
from repro.core.transaction import Transaction
from repro.sim import Environment
from repro.sim.stats import CategoryCounter
from repro.storage.policies import ReplacementPolicy
from repro.storage.registry import make_policy

__all__ = [
    "CentralLocks",
    "DataSharingTM",
    "GEMBufferManager",
    "GlobalExtendedMemory",
]


class GlobalExtendedMemory:
    """Shared NVEM page cache + write buffer for all nodes.

    ``device`` is the shared NVEM device (anything exposing the
    ``access(kind)`` generator); ``policy`` selects the replacement
    structure from the policy registry.
    """

    def __init__(self, env: Environment, device, capacity: int,
                 policy="lru"):
        if capacity < 1:
            raise ValueError("GEM needs capacity >= 1")
        self.env = env
        self.device = device
        self.cache: ReplacementPolicy = make_policy(policy, capacity)
        self.stats = CategoryCounter()

    def __len__(self) -> int:
        return len(self.cache)

    def __contains__(self, key) -> bool:
        return key in self.cache

    # -- state transitions (no simulated time) ---------------------------
    def probe(self, key) -> Optional[object]:
        """Look up a page for a node's buffer miss; copy stays in GEM."""
        entry = self.cache.get(key)
        self.stats.add("hit" if entry is not None else "miss")
        return entry

    def make_room(self) -> bool:
        """Drop the LRU clean entry; False if everything is in flight."""
        if not self.cache.is_full:
            return True
        victim = self.cache.victim(lambda e: not e.dirty)
        if victim is None:
            return False
        self.cache.remove(victim.key)
        self.stats.add("evict")
        return True

    def install(self, key, dirty: bool) -> Optional[object]:
        """Insert/refresh a page; returns the entry (None if no room)."""
        entry = self.cache.get(key)
        if entry is not None:
            entry.dirty = entry.dirty or dirty
            return entry
        if not self.make_room():
            self.stats.add("install_skipped")
            return None
        self.stats.add("install")
        return self.cache.insert(key, dirty=dirty)

    def invalidate(self, key) -> bool:
        """Drop a (stale) page version, e.g. on an aborted propagation."""
        if key in self.cache:
            entry = self.cache.peek(key)
            if not entry.dirty:
                self.cache.remove(key)
                self.stats.add("invalidate")
                return True
        return False

    def mark_clean(self, key, entry) -> None:
        """Disk copy is current (async write finished)."""
        current = self.cache.peek(key)
        if current is entry:
            entry.dirty = False
            entry.pending_write = None

    # -- timed access ------------------------------------------------------
    def access(self, kind: str) -> Generator:
        """One page transfer between a node and GEM."""
        result = yield from self.device.access(kind)
        return result


class GEMBufferManager(BufferManager):
    """A data-sharing node's buffer manager with GEM integration.

    Overrides the single-system NVEM-cache paths: misses probe the
    shared GEM (copies stay there — no single-copy rule across nodes),
    evictions migrate into GEM, and commit propagates modified pages to
    GEM so other nodes always find the latest committed version.
    """

    def __init__(self, *args, gem: Optional[GlobalExtendedMemory],
                 invalidations: CategoryCounter, **kwargs):
        super().__init__(*args, **kwargs)
        self.gem = gem
        self.invalidation_stats = invalidations
        #: The other nodes' buffer managers, on node 0 only: a central
        #: workload prewarms through node 0, and :meth:`prewarm` fans
        #: each reference out to them.
        self.peers = ()

    # -- fetch path ------------------------------------------------------
    def _claim_source(self, part, key):
        if self.gem is not None and not \
                self.storage.is_nvem_resident(part.name) and not \
                self.storage.is_memory_resident(part.name):
            if self.gem.probe(key) is not None:
                return LEVEL_NVEM_CACHE, False  # copy stays in GEM
        return super()._claim_source(part, key)

    # -- write/migration path -----------------------------------------------
    def _migrates_to_nvem(self, part, dirty: bool) -> bool:
        if self.gem is not None:
            return not self.storage.is_nvem_resident(part.name)
        return super()._migrates_to_nvem(part, dirty)

    def _gem_async_write(self, key, part, entry) -> Generator:
        burst = self.cpu.execute_event(None, self.cm.instr_io,
                                       exponential=False)
        if burst is not None:
            yield burst
        yield from self.storage.write_page(key[0], part.name, key[1])
        self.metrics.record_io("db_write_async")
        self.gem.mark_clean(key, entry)

    def _nvem_insert(self, tx, key, dirty: bool) -> Generator:
        if self.gem is None:
            yield from super()._nvem_insert(tx, key, dirty)
            return
        part = self.partitions[key[0]]
        entry = self.gem.install(key, dirty)
        if entry is None:
            # GEM saturated with in-flight pages: write through to disk.
            if dirty:
                yield from self._unit_write(tx, key, part)
            return
        if dirty and entry.pending_write is None:
            entry.pending_write = self.env.process(
                self._gem_async_write(key, part, entry)
            )
        yield from self.cpu.execute_with_sync_access(
            tx, self.cm.instr_nvem, self.gem.access("migrate"),
        )
        self.metrics.record_io("nvem_cache_write")

    # -- commit propagation ---------------------------------------------
    def propagate_commit(self, tx: Transaction) -> Generator:
        """Write committed page versions to GEM (update propagation)."""
        if self.gem is None:
            return
        for key in sorted(tx.modified_pages):
            part = self.partitions[key[0]]
            if self.storage.is_nvem_resident(part.name) or \
                    self.storage.is_memory_resident(part.name):
                continue
            mm_entry = self.mm.peek(key)
            if mm_entry is not None:
                mm_entry.dirty = False  # GEM now owns persistence
            yield from self._nvem_insert(tx, key, dirty=True)

    # -- warm start ------------------------------------------------------
    def prewarm(self, refs) -> None:
        """Bulk replay (see :meth:`BufferManager.prewarm`); on node 0
        each reference is replayed into the peers right after this
        buffer takes it.  That keeps the order reference by reference
        across the nodes, not node by node: the nodes share one
        storage subsystem and so its disk caches.  Hot pages end up
        replicated in every node buffer — the steady state of a
        data-sharing system where every node serves the same workload.
        """
        if self.peers:
            refs = _fan_out(refs, self.peers)
        super().prewarm(refs)

    def _prewarm_nvem_insert(self, key) -> None:
        if self.gem is None:
            super()._prewarm_nvem_insert(key)
            return
        self.gem.install(key, dirty=False)

    # -- coherency ------------------------------------------------------
    def invalidate_pages(self, keys) -> int:
        """Drop stale copies after another node's commit."""
        dropped = 0
        for key in keys:
            entry = self.mm.peek(key)
            if entry is not None and entry.fix_count == 0 and \
                    not entry.dirty and key not in self._evicting:
                self.mm.remove(key)
                dropped += 1
        if dropped:
            self.invalidation_stats.add("pages_dropped", dropped)
        return dropped


def _fan_out(refs, peers):
    """Yield ``refs`` to the bulk replay; each time it asks for the next
    reference, replay the previous one into ``peers``."""
    for ref in refs:
        yield ref
        one = (ref,)
        for bm in peers:
            bm.prewarm(one)


class CentralLocks:
    """A node's view of the lock table on node 0 (the lock node).

    Node 0 grants by plain call.  Another node's request pays a message
    round trip to node 0 inside :meth:`acquire` before the table sees
    it.  The view, not the shared table, emits the lock spans, so they
    carry the requesting node's tag.
    """

    def __init__(self, node, cluster):
        self.node = node
        self.cluster = cluster
        self.env = cluster.env
        self.table = cluster.locks
        self.remote = node.node_id != 0
        self.tracer = None

    def try_acquire(self, tx, resource_id, mode: LockMode) -> bool:
        return not self.remote and self.table.try_acquire(
            tx, resource_id, mode)

    def acquire(self, tx, resource_id, mode: LockMode) -> Generator:
        env = self.env
        tracer = self.tracer if tx.traced else None
        if self.remote:
            cluster = self.cluster
            t0 = env.now
            yield from cluster.bus.round_trip(
                tx, self.node.cpu, cluster.nodes[0].cpu,
                kind="lock_request")
            if tracer is not None and env.now > t0:
                tracer.span("lock.remote", tx.tx_id, t0, env.now)
        t0 = env.now
        outcome = yield from self.table.acquire(tx, resource_id, mode)
        if tracer is not None and env.now > t0:
            tracer.span("lock", tx.tx_id, t0, env.now)
        return outcome

    def release_all(self, tx) -> None:
        # Releases piggyback on the commit message; the CPU cost of that
        # message is charged in the commit broadcast, not here.
        self.table.release_all(tx)


class DataSharingTM(TransactionManager):
    """A data-sharing node's TM: commit also propagates the modified
    pages to GEM and broadcasts their invalidation, before the locks
    are released."""

    def __init__(self, node, cluster):
        super().__init__(cluster.env, node.config, node.cpu, node.locks,
                         node.bm, cluster.metrics, streams=cluster.streams)
        self.node = node
        self.cluster = cluster

    def _commit(self, tx: Transaction, tracer) -> Generator:
        yield from super()._commit(tx, tracer)
        env = self.env
        t0 = env.now
        yield from self.bm.propagate_commit(tx)
        if tracer is not None and env.now > t0:
            tracer.span("gem.propagate", tx.tx_id, t0, env.now)
        if tx.modified_pages:
            cluster = self.cluster
            t0 = env.now
            keys = list(tx.modified_pages)
            for node in cluster.nodes:
                if node is self.node:
                    continue
                yield from cluster.bus.one_way(tx, self.cpu, node.cpu,
                                               kind="invalidation")
                node.bm.invalidate_pages(keys)
            cluster.invalidation_stats.add("broadcasts")
            if tracer is not None and env.now > t0:
                tracer.span("invalidate", tx.tx_id, t0, env.now)
        return True
