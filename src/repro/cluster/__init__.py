"""Multi-node transaction processing (§2, §3, [Ra91]/[Ra92]).

The paper's TPSIM "supports centralized and distributed transaction
systems" (§3).  This package is the one multi-node stack, with two
couplings of ``num_nodes`` computing modules:

* **shared nothing** (the default).  The paper's workload-allocation
  argument assumes the Debit-Credit database can be sharded across
  loosely coupled computing modules, with distributed transactions
  committing via two-phase commit.  Each node is a complete
  single-node TPSIM stack (own devices, buffer, lock table, log) over
  a disjoint branch shard; presumed-abort 2PC forces its per-phase log
  records through each node's real log device; per-node crash
  injection comes with GEM failover for in-doubt pieces; and a
  price-performance model gives ``$/tps`` comparisons.
* **data sharing** (``ClusterConfig(data_sharing=True)``).  The
  paper's conclusions point at global extended memory for locally
  distributed systems ([BHR91], [Ra91]).  All nodes share one storage
  subsystem, node 0 hosts the lock table, an optional GEM holds
  globally shared pages, and commits broadcast invalidations
  (:mod:`repro.cluster.sharing`).

Inter-node messages (:mod:`repro.cluster.messages`) charge CPU on both
ends plus a coupling latency; NVEM coupling is fast.

Import note: this module stays import-light (config, messages,
partitioning, workload).  Build a runnable cluster through
:meth:`ClusterConfig.build_system` or import
:class:`repro.cluster.system.ClusterSystem` directly — the system
module pulls in the recovery layer.
"""

from repro.cluster.config import (
    DEFAULT_NODE_PRICE,
    ClusterConfig,
    cluster_config,
    node_scheme,
)
from repro.cluster.cost import cluster_cost, node_cost
from repro.cluster.messages import CouplingConfig, MessageBus
from repro.cluster.partition import PartitionMap
from repro.cluster.workload import ShardedDebitCreditWorkload

__all__ = [
    "DEFAULT_NODE_PRICE",
    "ClusterConfig",
    "CouplingConfig",
    "MessageBus",
    "PartitionMap",
    "ShardedDebitCreditWorkload",
    "cluster_config",
    "cluster_cost",
    "node_cost",
    "node_scheme",
]
