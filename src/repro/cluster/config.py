"""Configuration of a multi-node transaction cluster.

A cluster is ``num_nodes`` identical computing modules coupled one of
two ways:

* **shared nothing** (the default): each node runs the full
  single-node TPSIM stack (own CPUs, buffer, lock table, log and
  device registry) over its *own shard* of the Debit-Credit database:
  ``branches_per_node`` branches with their tellers, accounts and
  history per node.  Cross-node transactions (a home branch on one
  node updating an account on another) commit through presumed-abort
  two-phase commit, with prepare/decision log records forced through
  each node's real log device — so NVEM-vs-disk log placement moves
  commit latency exactly as in the paper's §4, just twice per
  distributed commit.
* **data sharing** (``data_sharing=True``): every node runs its own
  CPUs, buffer and TM over one shared storage subsystem built from the
  ``node`` template, which then describes the whole database; node 0
  hosts the lock table and ``gem_capacity`` sizes the optional global
  extended memory (:mod:`repro.cluster.sharing`).

:class:`ClusterConfig` is a plain dataclass, so the content-addressed
point cache fingerprints it field-by-field: changing ``num_nodes``
(or any other knob) changes the fingerprint and misses the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cluster.messages import CouplingConfig
from repro.core.config import (
    LogAllocation,
    NVEM,
    RecoveryConfig,
    SystemConfig,
    UpdateStrategy,
)
from repro.experiments.defaults import (
    StorageScheme,
    db_disk_unit,
    default_cm,
    default_nvem,
    log_disk_unit,
)
from repro.workload.debit_credit import build_debit_credit_partitions

__all__ = [
    "DEFAULT_NODE_PRICE",
    "ClusterConfig",
    "cluster_config",
    "node_scheme",
]

#: 1990 list price of one computing module (CPU complex, channels,
#: chassis) in dollars — the Gray/Levine price-performance papers put
#: a mid-range TP node at a few hundred thousand dollars; the storage
#: devices are priced separately from their allocations.
DEFAULT_NODE_PRICE = 250_000.0


@dataclass
class ClusterConfig:
    """Complete description of one simulated cluster."""

    #: Per-node system template; every node is built from this config
    #: (own storage, CPUs, buffer and lock table per node; under data
    #: sharing, the one shared storage holding the whole database).
    node: SystemConfig = field(default_factory=SystemConfig)
    num_nodes: int = 2
    #: Shard geometry (must match the template's partition sizes).
    branches_per_node: int = 25
    tellers_per_branch: int = 10
    accounts_per_branch: int = 2_000
    #: Inter-node message costs (send/receive CPU + wire latency).
    coupling: CouplingConfig = field(
        default_factory=CouplingConfig.nvem_coupling)
    #: Couple the nodes by data sharing over one shared storage
    #: subsystem instead of by sharding (shared nothing + 2PC).
    data_sharing: bool = False
    #: Shared GEM page cache capacity in pages under data sharing
    #: (0: no GEM).
    gem_capacity: int = 0
    #: Delay before GEM-mirrored commit decisions resolve the in-doubt
    #: participants of a crashed coordinator (failure detection plus
    #: GEM lookup; [Ra91]'s availability argument for global memory).
    gem_failover_delay: float = 0.25
    #: Deterministic node-crash schedule: ``(node_id, instant)`` pairs
    #: with strictly increasing instants.  Restarts are assumed not to
    #: overlap (one node down at a time), matching the single shared
    #: outage clock in the metrics.
    crash_schedule: Tuple[Tuple[int, float], ...] = ()
    #: Per-node fuzzy-checkpoint period (bounds restart redo work).
    checkpoint_interval: float = 10.0
    #: Dollars per computing module, for the $/tps cost model.
    node_price: float = DEFAULT_NODE_PRICE
    seed: int = 1

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if min(self.branches_per_node, self.tellers_per_branch,
               self.accounts_per_branch) < 1:
            raise ValueError("cluster shard geometry must be positive")
        if self.gem_failover_delay < 0:
            raise ValueError("gem_failover_delay must be >= 0")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.node_price < 0:
            raise ValueError("node_price must be >= 0")
        if self.gem_capacity < 0:
            raise ValueError("gem_capacity must be >= 0")
        if self.gem_capacity and not self.data_sharing:
            raise ValueError("gem_capacity needs data_sharing=True: a "
                             "shared-nothing cluster has no shared "
                             "page cache")
        # The cluster wires its own crash handling (crash_schedule) and
        # has no media-failure model: reject the node template's
        # single-system settings instead of silently ignoring them.
        if self.node.recovery.enabled:
            raise ValueError("node.recovery.enabled is not supported in "
                             "a cluster: schedule node crashes with "
                             "ClusterConfig.crash_schedule")
        if self.node.media.enabled:
            raise ValueError("node.media.enabled is not supported in a "
                             "cluster: no multi-node system models "
                             "media failures")
        self.coupling.validate()
        self.node.validate()
        if self.data_sharing:
            # The node template is the whole shared database, so there
            # is no shard geometry to check.
            if self.crash_schedule:
                raise ValueError("crash_schedule needs a shared-nothing "
                                 "cluster: data sharing has no "
                                 "shared-disk crash model")
            return
        account = self.node.partition("ACCOUNT")
        expected = self.branches_per_node * self.accounts_per_branch
        if account.num_objects != expected:
            raise ValueError(
                f"node template has {account.num_objects} accounts, "
                f"shard geometry implies {expected}"
            )
        previous = 0.0
        for node_id, instant in self.crash_schedule:
            if not 0 <= node_id < self.num_nodes:
                raise ValueError(f"crash schedule names node {node_id}, "
                                 f"cluster has {self.num_nodes}")
            if instant <= previous:
                raise ValueError(
                    "crash schedule instants must be strictly increasing"
                )
            previous = instant

    def failure_instants(self) -> List[Tuple[str, float]]:
        """``(what, instant)`` of every scheduled node crash."""
        return [(f"crash of node {node_id}", instant)
                for node_id, instant in self.crash_schedule]

    @property
    def total_branches(self) -> int:
        return self.branches_per_node * self.num_nodes

    def build_system(self, workload, seed: Optional[int] = None):
        """Build the runnable cluster (the experiment runner's hook:
        any config with a ``build_system`` method owns system
        construction for its sweep points)."""
        from repro.cluster.system import ClusterSystem

        return ClusterSystem(self, workload, seed=seed)


def node_scheme(log: str = "nvem") -> StorageScheme:
    """Storage allocation of one cluster node.

    Database partitions on plain disks (sized for a single shard, not
    the monolithic Table 4.1 arrays); the log either in NVEM
    (``log="nvem"``) or on a single log disk (``log="disk"``) — the
    two placements the 2PC experiments compare.
    """
    units = [
        db_disk_unit("db0", num_disks=16, num_controllers=4),
        db_disk_unit("bt0", num_disks=8, num_controllers=2),
    ]
    if log == "nvem":
        log_alloc = LogAllocation(device=NVEM)
    elif log == "disk":
        units.append(log_disk_unit("log0", num_disks=1))
        log_alloc = LogAllocation(device="log0")
    else:
        raise ValueError(f"unknown cluster log placement {log!r}")
    return StorageScheme(
        name=f"cluster-{log}-log",
        db_allocation="db0",
        bt_allocation="bt0",
        log=log_alloc,
        disk_units=units,
    )


def cluster_config(
    scheme: Optional[StorageScheme] = None,
    num_nodes: int = 2,
    branches_per_node: int = 25,
    tellers_per_branch: int = 10,
    accounts_per_branch: int = 2_000,
    update_strategy: UpdateStrategy = UpdateStrategy.NOFORCE,
    buffer_size: int = 400,
    mpl: int = 60,
    coupling: Optional[CouplingConfig] = None,
    gem_failover_delay: float = 0.25,
    crash_schedule: Tuple[Tuple[int, float], ...] = (),
    checkpoint_interval: float = 10.0,
    node_price: float = DEFAULT_NODE_PRICE,
    seed: int = 1,
) -> ClusterConfig:
    """Assemble a ClusterConfig (per-node SystemConfig + cluster knobs)."""
    if scheme is None:
        scheme = node_scheme()
    partitions = build_debit_credit_partitions(
        num_branches=branches_per_node,
        tellers_per_branch=tellers_per_branch,
        accounts_per_branch=accounts_per_branch,
        allocation=scheme.db_allocation,
        bt_allocation=scheme.bt_allocation,
        nvem_caching=scheme.nvem_caching,
        nvem_write_buffer=scheme.nvem_write_buffer,
    )
    cm = default_cm(update_strategy=update_strategy,
                    buffer_size=buffer_size)
    cm.mpl = mpl
    cm.nvem_cache_size = scheme.nvem_cache_size
    cm.nvem_write_buffer_size = scheme.nvem_write_buffer_size
    cm.mm_policy = scheme.mm_policy
    node = SystemConfig(
        partitions=partitions,
        disk_units=list(scheme.disk_units),
        devices=list(scheme.devices),
        nvem=default_nvem(),
        cm=cm,
        log=scheme.log,
        # enabled stays False: the cluster wires crash handling itself
        # (per-node checkpointer + fault injector), but the per-node
        # Checkpointer reads its period from here.
        recovery=RecoveryConfig(enabled=False,
                                checkpoint_interval=checkpoint_interval),
        seed=seed,
    )
    config = ClusterConfig(
        node=node,
        num_nodes=num_nodes,
        branches_per_node=branches_per_node,
        tellers_per_branch=tellers_per_branch,
        accounts_per_branch=accounts_per_branch,
        coupling=coupling if coupling is not None
        else CouplingConfig.nvem_coupling(),
        gem_failover_delay=gem_failover_delay,
        crash_schedule=tuple(crash_schedule),
        checkpoint_interval=checkpoint_interval,
        node_price=node_price,
        seed=seed,
    )
    config.validate()
    return config
