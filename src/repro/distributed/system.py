"""A locally distributed, shared-disk transaction system.

``DistributedSystem`` couples N computing nodes — each with its own
CPUs, main-memory buffer and transaction manager — to one shared
storage subsystem.  Concurrency and coherency control follow the
data-sharing designs of [Ra88]/[BHR91]:

* **Central locking**: one node hosts the global lock manager; lock
  requests from other nodes pay a message round trip, releases one
  one-way message (both with CPU overhead on each end and coupling
  latency — NVEM coupling makes them cheap, [Ra91]).
* **Global extended memory (GEM)**: an optional shared second-level
  page cache.  Buffer misses probe GEM before disk; pages replaced
  from any node migrate into it; at commit the new versions of
  modified pages are written to GEM (update propagation at NVEM
  speed), and an invalidation broadcast removes stale copies from the
  other nodes' buffers.
* **Broadcast invalidation** keeps node buffers coherent; without GEM
  the invalidated page is re-read from disk on the next access.

Transactions are routed to nodes round-robin (or uniformly at random).
The public surface mirrors :class:`repro.core.model.TransactionSystem`
(``run``, ``snapshot``, a ``tm.submit`` router and a prewarm fan-out),
so every existing workload generator works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.bm import BufferManager
from repro.core.cc import LockManager, LockMode, LockOutcome
from repro.core.config import SystemConfig
from repro.core.cpu import CPUPool
from repro.core.metrics import (
    LEVEL_NVEM_CACHE,
    MetricsCollector,
    Results,
)
from repro.core.tm import TransactionManager
from repro.core.transaction import Transaction
from repro.distributed.gem import GlobalExtendedMemory
from repro.distributed.messages import CouplingConfig, MessageBus
from repro.sim import Environment, RandomStreams
from repro.sim.stats import CategoryCounter
from repro.storage.hierarchy import StorageSubsystem

__all__ = ["DistributedConfig", "DistributedSystem", "NodeResults"]


@dataclass
class DistributedConfig:
    """Parameters of the distributed extension."""

    num_nodes: int = 2
    coupling: CouplingConfig = field(
        default_factory=CouplingConfig.nvem_coupling
    )
    #: Shared GEM cache capacity in pages (0 disables GEM).
    gem_capacity: int = 0
    central_lock_node: int = 0
    #: "round_robin" or "random" transaction routing.
    routing: str = "round_robin"

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if not 0 <= self.central_lock_node < self.num_nodes:
            raise ValueError("central lock node out of range")
        if self.routing not in ("round_robin", "random"):
            raise ValueError(f"unknown routing {self.routing!r}")
        if self.gem_capacity < 0:
            raise ValueError("gem_capacity must be >= 0")
        self.coupling.validate()


@dataclass
class NodeResults:
    """Per-node share of the run."""

    node_id: int
    committed: int
    cpu_utilization: float


class _NodeBufferManager(BufferManager):
    """Per-node buffer manager with GEM integration.

    Overrides the single-system NVEM-cache paths: misses probe the
    shared GEM (copies stay there — no single-copy rule across nodes),
    evictions migrate into GEM, and commit propagates modified pages to
    GEM so other nodes always find the latest committed version.
    """

    def __init__(self, *args, gem: Optional[GlobalExtendedMemory],
                 node_id: int, invalidations: CategoryCounter, **kwargs):
        super().__init__(*args, **kwargs)
        self.gem = gem
        self.node_id = node_id
        self.invalidation_stats = invalidations

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


class _NodeLockManager:
    """Lock-manager stub charging message costs for remote requests."""

    def __init__(self, node_id: int, system: "DistributedSystem"):
        self.node_id = node_id
        self.system = system

    @property
    def _is_central(self) -> bool:
        return self.node_id == self.system.dconfig.central_lock_node

    def acquire(self, tx, resource_id, mode: LockMode) -> Generator:
        system = self.system
        if not self._is_central:
            yield from system.bus.round_trip(
                tx, system.nodes[self.node_id].cpu,
                system.nodes[system.dconfig.central_lock_node].cpu,
                kind="lock_request",
            )
        outcome = yield from system.locks.acquire(tx, resource_id, mode)
        return outcome

    def release_all(self, tx) -> None:
        # Releases piggyback on the commit message; the CPU cost of that
        # message is charged in the commit broadcast, not here.
        self.system.locks.release_all(tx)


class _Node:
    """One computing module of the distributed system."""

    def __init__(self, node_id: int, system: "DistributedSystem"):
        self.node_id = node_id
        config = system.config
        self.cpu = CPUPool(system.env, system.streams, config.cm)
        self.bm = _NodeBufferManager(
            system.env, system.streams, config, self.cpu,
            system.storage, system.metrics,
            gem=system.gem, node_id=node_id,
            invalidations=system.invalidation_stats,
        )
        self.locks = _NodeLockManager(node_id, system)
        self.tm = _DistributedTM(node_id, system, self)

    def invalidate(self, keys) -> int:
        return self.bm.invalidate_pages(keys)


class _DistributedTM(TransactionManager):
    """Per-node TM: commit additionally propagates + broadcasts."""

    def __init__(self, node_id: int, system: "DistributedSystem",
                 node: _Node):
        super().__init__(system.env, system.config, node.cpu,
                         node.locks, node.bm, system.metrics,
                         streams=system.streams)
        self.node_id = node_id
        self.system = system

    def _execute(self, tx: Transaction) -> Generator:
        # Identical control flow to the central TM, plus commit-time
        # GEM propagation and the invalidation broadcast (phase 1.5).
        from repro.core.config import CCMode

        while True:
            tx.start_time = self.env.now
            burst = self.cpu.execute_event(tx, self.cm.instr_bot)
            if burst is not None:
                yield burst
            aborted = False
            for ref in tx.refs:
                part = self.partitions[ref.partition_index]
                if part.cc_mode is not CCMode.NONE:
                    mode = LockMode.X if ref.is_write else LockMode.S
                    outcome = yield from self.locks.acquire(
                        tx, self._lock_id(ref.partition_index, part, ref),
                        mode,
                    )
                    if outcome is LockOutcome.DEADLOCK:
                        aborted = True
                        break
                burst = self.cpu.execute_event(tx, self.cm.instr_or)
                if burst is not None:
                    yield burst
                # Hot path: buffer hits complete synchronously (see the
                # central TM); only misses enter the generator.
                if self.bm.fix_page_fast(tx, ref) is None:
                    yield from self.bm.fix_page_miss(tx, ref)
            if not aborted:
                burst = self.cpu.execute_event(tx, self.cm.instr_eot)
                if burst is not None:
                    yield burst
                yield from self.bm.commit(tx)
                yield from self.bm.propagate_commit(tx)
                if tx.modified_pages:
                    yield from self.system.broadcast_invalidation(
                        tx, self.node_id
                    )
                self.locks.release_all(tx)
                self.metrics.record_commit(tx,
                                           self.env.now - tx.arrival_time)
                return
            self.locks.release_all(tx)
            self.metrics.record_abort(tx)
            tx.reset_for_restart()


class _Router:
    """Routes submitted transactions to node TMs (the system's `tm`)."""

    def __init__(self, system: "DistributedSystem"):
        self.system = system
        self._next = 0

    def submit(self, tx: Transaction) -> None:
        system = self.system
        if system.dconfig.routing == "random":
            index = system.streams.uniform_int(
                "dist-routing", 0, system.dconfig.num_nodes - 1
            )
        else:
            index = self._next
            self._next = (self._next + 1) % system.dconfig.num_nodes
        system.nodes[index].tm.submit(tx)

    @property
    def input_queue_length(self) -> int:
        return max(node.tm.input_queue_length
                   for node in self.system.nodes)

    @property
    def submitted(self) -> int:
        return sum(node.tm.submitted for node in self.system.nodes)


class _PrewarmFanout:
    """Replays prewarm references into every node's buffer.

    Hot pages end up replicated in all node buffers — the steady state
    of a data-sharing system where every node serves the same workload.
    """

    def __init__(self, system: "DistributedSystem"):
        self.system = system

    def prewarm(self, refs) -> None:
        first, *others = [node.bm for node in self.system.nodes]
        first.prewarm(self._fan_out(refs, others))

    @staticmethod
    def _fan_out(refs, others):
        """Feed ``refs`` to the first node's bulk replay; each time it
        asks for the next reference, replay the previous one into the
        other nodes.  That keeps the order reference by reference across
        the nodes, not node by node: the nodes share one storage
        subsystem and so its disk caches."""
        for ref in refs:
            yield ref
            one = (ref,)
            for bm in others:
                bm.prewarm(one)

    def prewarm_reference(self, partition_index: int, page_no: int,
                          is_write: bool) -> None:
        self.prewarm(((partition_index, page_no, is_write),))


class DistributedSystem:
    """N-node shared-disk transaction system with central locking."""

    def __init__(self, config: SystemConfig, dconfig: DistributedConfig,
                 workload, seed: Optional[int] = None):
        config.validate()
        dconfig.validate()
        self.config = config
        self.dconfig = dconfig
        self.env = Environment()
        self.streams = RandomStreams(seed if seed is not None
                                     else config.seed)
        self.metrics = MetricsCollector(self.env)
        self.storage = StorageSubsystem(self.env, self.streams, config)
        self.bus = MessageBus(self.env, dconfig.coupling)
        self.invalidation_stats = CategoryCounter()
        self.gem: Optional[GlobalExtendedMemory] = None
        if dconfig.gem_capacity > 0:
            self.gem = GlobalExtendedMemory(
                self.env, self.storage.nvem_device, dconfig.gem_capacity
            )
        self.locks = LockManager(self.env, self.metrics)
        self.nodes: List[_Node] = [
            _Node(i, self) for i in range(dconfig.num_nodes)
        ]
        self.tm = _Router(self)
        self.bm = _PrewarmFanout(self)
        self.workload = workload
        self._node_completed_base = [0] * dconfig.num_nodes
        self._started = False

    # -- coherency broadcast ------------------------------------------------
    def broadcast_invalidation(self, tx: Transaction,
                               from_node: int) -> Generator:
        """One message per remote node; stale copies are dropped."""
        keys = list(tx.modified_pages)
        sender = self.nodes[from_node]
        for node in self.nodes:
            if node.node_id == from_node:
                continue
            yield from self.bus.one_way(tx, sender.cpu, node.cpu,
                                        kind="invalidation")
            node.invalidate(keys)
        self.invalidation_stats.add("broadcasts")

    # -- lifecycle (mirrors TransactionSystem) -------------------------------
    def start_workload(self) -> None:
        if not self._started:
            prewarm = getattr(self.workload, "prewarm", None)
            if prewarm is not None:
                prewarm(self)
            self.workload.start(self)
            self._started = True

    def _reset_measurements(self) -> None:
        self.metrics.reset()
        for node in self.nodes:
            node.cpu.reset_stats()
        self.storage.reset_stats()
        self.bus.stats.reset()
        self.invalidation_stats.reset()
        # Post-warm-up baselines, so node_results reports only the
        # measurement window (committed-only, like the shared metrics).
        self._node_completed_base = [n.tm.completed for n in self.nodes]

    def run(self, warmup: float = 5.0, duration: float = 30.0,
            saturation_queue_limit: Optional[int] = None) -> Results:
        # Imported lazily: repro.cluster builds on the distributed
        # message layer, so a top-level import would be circular.
        from repro.cluster.runloop import measured_run

        return measured_run(
            self, warmup, duration, saturation_queue_limit,
            default_queue_limit=4 * self.config.cm.mpl,
        )

    def snapshot(self) -> Results:
        cpu_util = sum(n.cpu.utilization for n in self.nodes) / \
            len(self.nodes)
        return self.metrics.finalize(
            cpu_utilization=cpu_util,
            device_utilization=self.storage.utilization_report(),
        )

    def node_results(self) -> List[NodeResults]:
        """Per-node committed counts for the measurement window only.

        ``tm.completed`` is a lifetime counter that keeps growing
        through warm-up; reporting it raw would disagree with the
        committed-only shared metrics (which reset after warm-up), so
        each node's post-warm-up baseline is subtracted.
        """
        return [
            NodeResults(node_id=n.node_id,
                        committed=n.tm.completed -
                        self._node_completed_base[n.node_id],
                        cpu_utilization=n.cpu.utilization)
            for n in self.nodes
        ]

    def message_stats(self) -> Dict[str, int]:
        return self.bus.stats.as_dict()
