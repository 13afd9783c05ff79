"""One computing module of the cluster.

A node has its own CPU complex, buffer and transaction manager; which
storage and lock table it uses is the cluster's coupling, chosen once
here when the node is built:

* **shared nothing** (the default): a complete single-node TPSIM stack
  — its own device registry, lock table, buffer and 2PC transaction
  manager — sharing only the simulation clock, the random streams and
  the metrics collector with its siblings.  The sole inter-node
  channels are the message bus and the GEM-mirrored commit decisions.
* **data sharing** (``ClusterConfig.data_sharing``): the cluster's one
  storage subsystem, a view of node 0's lock table, a GEM-aware buffer
  and a TM that propagates commits to GEM and broadcasts invalidations
  (:mod:`repro.cluster.sharing`).

The node duck-types :class:`~repro.core.model.TransactionSystem`
closely enough (``env`` / ``config`` / ``cpu`` / ``storage`` / ``bm``
/ ``tm`` / ``metrics``) that the recovery subsystem's checkpointer and
restart replayer run against it unchanged — per-node crash recovery
reuses the exact machinery of the central case.
"""

from __future__ import annotations

from repro.cluster.sharing import (
    CentralLocks,
    DataSharingTM,
    GEMBufferManager,
)
from repro.cluster.twopc import ClusterTransactionManager
from repro.core.bm import BufferManager
from repro.core.cc import LockManager
from repro.core.cpu import CPUPool
from repro.recovery.checkpoint import Checkpointer
from repro.recovery.crash import RestartReplayer
from repro.recovery.tracker import RecoveryTracker
from repro.storage.hierarchy import StorageSubsystem

__all__ = ["ClusterNode"]


class ClusterNode:
    """Full per-node stack over one shard of the database."""

    def __init__(self, node_id: int, cluster):
        self.node_id = node_id
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config.node
        self.metrics = cluster.metrics
        self.streams = cluster.streams
        if cluster.config.data_sharing:
            self.storage = cluster.storage
            self.cpu = CPUPool(self.env, self.streams, self.config.cm)
            self.bm = GEMBufferManager(
                self.env, self.streams, self.config, self.cpu,
                self.storage, self.metrics, gem=cluster.gem,
                invalidations=cluster.invalidation_stats)
            self.locks = CentralLocks(self, cluster)
            self.tm = DataSharingTM(self, cluster)
        else:
            self.storage = StorageSubsystem(self.env, self.streams,
                                            self.config)
            self.cpu = CPUPool(self.env, self.streams, self.config.cm)
            self.locks = LockManager(self.env, self.metrics)
            self.bm = BufferManager(self.env, self.streams, self.config,
                                    self.cpu, self.storage, self.metrics)
            self.tm = ClusterTransactionManager(self, cluster)
        #: Node-tagged view of the cluster's shared tracer (``None``
        #: when tracing is off).  The restart replayer reads it off the
        #: node through the same duck-typed surface as the central case.
        self.tracer = None
        cluster_tracer = getattr(cluster, "tracer", None)
        if cluster_tracer is not None:
            view = cluster_tracer.for_node(node_id)
            self.tracer = view
            self.tm.tracer = view
            self.locks.tracer = view
            self.bm.tracer = view
        self.tracker = None
        self.checkpointer = None
        self.replayer = None

    def enable_recovery(self) -> None:
        """Wire per-node crash-recovery state (tracker, fuzzy
        checkpointer, restart replayer).  Called by the fault injector
        only when the cluster has a crash schedule — an unwired node
        skips all DPT bookkeeping on the hot path."""
        tracker = RecoveryTracker(
            now=lambda: self.env.now,
            log_tail=lambda: self.storage.log_page_count,
        )
        self.tracker = tracker
        self.bm.recovery_tracker = tracker
        self.checkpointer = Checkpointer(self, tracker)
        self.replayer = RestartReplayer(self, tracker)

    def start_recovery(self) -> None:
        if self.checkpointer is not None:
            self.checkpointer.start()
