"""The multi-node system: N nodes, shared nothing or data sharing.

:class:`ClusterSystem` wires ``num_nodes`` per-node stacks
(:class:`~repro.cluster.node.ClusterNode`) onto one simulation
environment and routes every transaction to its home node (round-robin
for a transaction without one, as every central workload makes).  It
holds the state the nodes share: the **message bus** (send/receive CPU
bursts + wire latency, :class:`~repro.cluster.messages.MessageBus`),
and per coupling:

* **shared nothing** (2PC): the **GEM decision table** — commit
  decisions mirrored into global extended memory at decision-force
  time, which is what lets a survivor resolve a crashed coordinator's
  in-doubt participants (presumed abort for everything not in the
  table) — and the **pending-piece registry** the GEM failover walks;
* **data sharing**: the one storage subsystem, the lock table (on node
  0), the optional GEM page cache and the invalidation counters.

The public surface mirrors
:class:`~repro.core.model.TransactionSystem` (``run`` / ``snapshot`` /
``tm.submit``), so the experiment runner and exporters treat a cluster
point exactly like a central one — plus, when shared nothing, a
populated ``cluster`` block in its Results (nodes, $ cost, 2PC
counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.cost import cluster_cost
from repro.cluster.faults import ClusterFaultInjector
from repro.cluster.messages import MessageBus
from repro.cluster.node import ClusterNode
from repro.cluster.partition import PartitionMap
from repro.cluster.sharing import GlobalExtendedMemory
from repro.cluster.twopc import ClusterBlock, RemotePiece
from repro.core.cc import LockManager
from repro.core.metrics import MetricsCollector, Results
from repro.core.model import measured_run, observe
from repro.core.transaction import Transaction
from repro.sim import Environment, RandomStreams
from repro.sim.stats import CategoryCounter
from repro.storage.hierarchy import StorageSubsystem

__all__ = ["ClusterNodeResults", "ClusterRouter", "ClusterSystem"]


@dataclass
class ClusterNodeResults:
    """One node's share of the measurement window (committed only)."""

    node_id: int
    committed: int
    cpu_utilization: float


class ClusterRouter:
    """The system's ``tm``: submits to the home node, aggregates queues.

    A transaction without a home node (any central workload's) goes to
    the nodes round-robin."""

    def __init__(self, system: "ClusterSystem"):
        self.system = system
        self._next = 0

    def submit(self, tx: Transaction) -> None:
        nodes = self.system.nodes
        home = getattr(tx, "home_node", None)
        if home is None:
            home = self._next
            self._next = (home + 1) % len(nodes)
        nodes[home].tm.submit(tx)

    @property
    def input_queue_length(self) -> int:
        # The saturation guard trips on the *worst* node: one diverging
        # shard makes the whole cluster's response times unbounded.
        return max(node.tm.input_queue_length
                   for node in self.system.nodes)

    @property
    def submitted(self) -> int:
        return sum(node.tm.submitted for node in self.system.nodes)


class ClusterSystem:
    """N-node cluster: shared nothing with presumed-abort 2PC, or data
    sharing with central locking and GEM."""

    def __init__(self, config: ClusterConfig, workload,
                 seed: Optional[int] = None):
        config.validate()
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(seed if seed is not None
                                     else config.seed)
        self.metrics = MetricsCollector(self.env)
        self.partition_map = PartitionMap(config.num_nodes)
        self.bus = MessageBus(self.env, config.coupling)
        #: Data-sharing state (``None`` when shared nothing): the one
        #: storage subsystem, the lock table node 0 hosts and the
        #: optional GEM page cache.  Shared nothing instead has
        #: ``twopc``, the Results cluster block (nodes, $ cost, 2PC).
        self.storage = self.locks = self.gem = self.twopc = None
        self.invalidation_stats = CategoryCounter()
        if config.data_sharing:
            self.storage = StorageSubsystem(self.env, self.streams,
                                            config.node)
            if config.gem_capacity > 0:
                self.gem = GlobalExtendedMemory(
                    self.env, self.storage.nvem_device,
                    config.gem_capacity)
            self.locks = LockManager(self.env, self.metrics)
        else:
            self.twopc = self.metrics.block(
                "cluster",
                lambda _: ClusterBlock(config.num_nodes,
                                       cluster_cost(config)))
        # The tracer must exist before the nodes: each node wires a
        # per-node view (shared span buffer, node-tagged) into its own
        # components.
        observe(self, config.node.trace)
        self.nodes: List[ClusterNode] = [
            ClusterNode(i, self) for i in range(config.num_nodes)
        ]
        #: The distinct storage subsystems and lock tables, each storage
        #: with the prefix its device names carry in reports.
        if config.data_sharing:
            self.storages = [("", self.storage)]
            self.lock_tables = [self.locks]
            # A central workload prewarms through ``system.bm``: node
            # 0's buffer, which replays each reference into the others.
            self.bm = self.nodes[0].bm
            self.bm.peers = [node.bm for node in self.nodes[1:]]
        else:
            self.storages = [(f"n{node.node_id}:", node.storage)
                             for node in self.nodes]
            self.lock_tables = [node.locks for node in self.nodes]
        self.tm = ClusterRouter(self)
        self.faults = ClusterFaultInjector(self)
        #: GEM-mirrored commit decisions (tx_id -> True), written at
        #: decision-force time, dropped once every participant learned
        #: the outcome.
        self.decisions: Dict[int, bool] = {}
        #: Live distributed transactions: tx_id -> (home, pieces).
        self._pending: Dict[int, Tuple[int, List[RemotePiece]]] = {}
        self._branch_counter = 0
        self._node_completed_base = [0] * config.num_nodes
        self.workload = workload
        self._started = False

    # -- 2PC shared state ------------------------------------------------
    def next_branch_id(self) -> int:
        """Unique id for a branch transaction.  Negative, so branch ids
        can never collide with workload tx ids in a node's lock table."""
        self._branch_counter += 1
        return -self._branch_counter

    def register_pieces(self, tx, pieces: List[RemotePiece]) -> None:
        self._pending[tx.tx_id] = (tx.home_node, pieces)

    def clear_pieces(self, tx) -> None:
        self._pending.pop(tx.tx_id, None)
        self.decisions.pop(tx.tx_id, None)

    def record_decision(self, tx_id: int) -> None:
        """Mirror a forced commit decision into GEM."""
        self.decisions[tx_id] = True

    def resolve_in_doubt(self, node_id: int) -> None:
        """GEM failover for a crashed coordinator: every piece it left
        pending commits if its decision is mirrored, else aborts
        (presumed abort)."""
        orphaned = [tx_id for tx_id, (home, _) in self._pending.items()
                    if home == node_id]
        resolved = 0
        for tx_id in orphaned:
            _, pieces = self._pending.pop(tx_id)
            outcome = "commit" if self.decisions.pop(tx_id, False) \
                else "abort"
            for piece in pieces:
                if not piece.decision.triggered:
                    piece.decision.succeed(outcome)
                    resolved += 1
        if resolved:
            self.twopc.failover_resolved += resolved

    # -- lifecycle (mirrors TransactionSystem) ---------------------------
    def start_workload(self) -> None:
        if not self._started:
            prewarm = getattr(self.workload, "prewarm", None)
            if prewarm is not None:
                prewarm(self)
            self.faults.start()
            if self.telemetry is not None:
                self.telemetry.start()
            self.workload.start(self)
            self._started = True

    def _reset_measurements(self) -> None:
        self.metrics.reset()
        for node in self.nodes:
            node.cpu.reset_stats()
        for _, storage in self.storages:
            storage.reset_stats()
        self.bus.stats.reset()
        self.invalidation_stats.reset()
        self._node_completed_base = [node.tm.completed
                                     for node in self.nodes]

    def run(self, warmup: float = 5.0, duration: float = 30.0,
            saturation_queue_limit: Optional[int] = None) -> Results:
        return measured_run(
            self, warmup, duration, saturation_queue_limit,
            default_queue_limit=4 * self.config.node.cm.mpl,
        )

    def device_report(self) -> Dict[str, Dict[str, float]]:
        """Utilization report of every device, by prefixed name."""
        return {prefix + name: report
                for prefix, storage in self.storages
                for name, report in storage.utilization_report().items()}

    def snapshot(self) -> Results:
        cpu_util = sum(n.cpu.utilization for n in self.nodes) / \
            len(self.nodes)
        return self.metrics.finalize(
            cpu_utilization=cpu_util,
            device_utilization=self.device_report(),
        )

    def node_results(self) -> List[ClusterNodeResults]:
        """Per-node committed counts for the measurement window only
        (deltas against the post-warm-up baseline, matching the
        committed-only rule of the shared metrics)."""
        return [
            ClusterNodeResults(
                node_id=node.node_id,
                committed=node.tm.completed -
                self._node_completed_base[node.node_id],
                cpu_utilization=node.cpu.utilization,
            )
            for node in self.nodes
        ]

    def message_stats(self) -> Dict[str, int]:
        return self.bus.stats.as_dict()
