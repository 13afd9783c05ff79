"""Cluster experiments: throughput scaling and the cost of 2PC (§2, §4).

Two registered experiments connect the sharded multi-node subsystem
(:mod:`repro.cluster`) to the paper's workload-allocation argument —
horizontal growth only pays if node-crossing transactions stay cheap,
which is precisely what NVEM log placement buys when every distributed
commit forces *two* log records (prepare + decision):

* ``fig_scaling`` — throughput vs. node count at a fixed per-node
  arrival rate, for a purely partitionable workload (0% distributed)
  and a 15%-distributed workload under NVEM and disk log placement.
  Expected shape: the 0% curve scales linearly with nodes; the 2PC
  curves track it closely with an NVEM log but pay visible response
  time (and ``$/tps``) with a disk log, whose forced prepare/decision
  records serialize on one log disk per node.
* ``ablation_2pc_cost`` — commit-phase latency vs. distributed
  fraction on a fixed four-node cluster, NVEM vs. disk log: the 1PC
  baseline is the x=0 point, and the marginal cost of 2PC is the slope
  — milliseconds per forced-log round trip, dominated by log-device
  latency rather than message CPU.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster import cluster_config, node_scheme
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.runner import ExperimentResult

__all__ = ["CLUSTER_TPS_PER_NODE"]

#: Per-node arrival rate of the scaling experiment: total offered load
#: grows linearly with the node count, so ideal scaling is a straight
#: line through the origin.
CLUSTER_TPS_PER_NODE = 50.0

#: Distributed fraction of the node-crossing curves (the classic "15%
#: remote account" reading of Debit-Credit's K% rule under sharding).
DISTRIBUTED_FRACTION = 0.15

#: Node count of the 2PC-cost ablation.
ABLATION_NODES = 4


def _cluster_point(num_nodes: int, log: str,
                   distributed_fraction: float) -> Tuple:
    config = cluster_config(scheme=node_scheme(log=log),
                            num_nodes=num_nodes)
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=CLUSTER_TPS_PER_NODE,
        distributed_fraction=distributed_fraction,
    )
    return config, workload


# ---------------------------------------------------------------------------
# fig_scaling: throughput vs node count


def _scaling_curves() -> List[CurveSpec]:
    def curve(label, log, fraction):
        def build(x: float) -> Tuple:
            return _cluster_point(int(x), log, fraction)

        return CurveSpec(label=label, build=build)

    return [
        curve("0% distributed, NVEM log", "nvem", 0.0),
        curve("15% distributed, NVEM log", "nvem", DISTRIBUTED_FRACTION),
        curve("15% distributed, disk log", "disk", DISTRIBUTED_FRACTION),
    ]


def _scaling_render(result: ExperimentResult) -> str:
    lines = [result.to_table(metric=lambda r: r.throughput,
                             fmt="{:8.1f}")]
    for series in result.series:
        for point in series.points:
            r = point.results
            lines.append(
                f"  {series.label:26s} nodes={int(point.x)}: "
                f"{r.throughput:6.1f} TPS, "
                f"resp {r.response_time_ms:7.2f} ms, "
                f"commit phase {r.commit_phase_ms:6.3f} ms, "
                f"{r.dist_fraction * 100:5.1f} % distributed, "
                f"{r.dollars_per_tps:8,.0f} $/tps"
            )
    return "\n".join(lines)


@experiment("fig_scaling")
def scaling_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig_scaling",
        title="Cluster throughput scaling: node count x distributed "
              "fraction x log placement",
        x_label="nodes",
        y_label=f"throughput (TPS) at {CLUSTER_TPS_PER_NODE:g} "
                "TPS offered per node",
        curves=_scaling_curves(),
        profiles={
            "full": SweepProfile(xs=(1.0, 2.0, 4.0, 8.0), warmup=3.0,
                                 duration=10.0),
            "fast": SweepProfile(xs=(1.0, 2.0, 4.0), warmup=2.0,
                                 duration=6.0),
        },
        notes=(
            "expected: 0% distributed scales linearly with nodes; 15% "
            "2PC tracks it with an NVEM log but pays response time and "
            "$/tps with a disk log (two forced records per distributed "
            "commit on one log disk per node)",
            "a one-node cluster has no remote accounts: the 15% curves "
            "degenerate to purely local commits at x=1",
        ),
        metric=lambda r: r.throughput,
        metric_fmt="{:8.1f}",
        renderer=_scaling_render,
    )


# ---------------------------------------------------------------------------
# ablation_2pc_cost: commit-phase latency vs distributed fraction


def _twopc_curves() -> List[CurveSpec]:
    def curve(label, log):
        def build(fraction: float) -> Tuple:
            return _cluster_point(ABLATION_NODES, log, fraction)

        return CurveSpec(label=label, build=build)

    return [curve("NVEM log", "nvem"), curve("disk log", "disk")]


def _twopc_render(result: ExperimentResult) -> str:
    lines = [result.to_table(metric=lambda r: r.commit_phase_ms,
                             fmt="{:8.3f}")]
    for series in result.series:
        for point in series.points:
            r = point.results
            lines.append(
                f"  {series.label:9s} dist={point.x:4.2f}: "
                f"commit phase {r.commit_phase_ms:7.3f} ms, "
                f"in-doubt {r.in_doubt_time * 1000:7.3f} ms, "
                f"{r.throughput:6.1f} TPS, "
                f"resp {r.response_time_ms:7.2f} ms"
            )
    return "\n".join(lines)


@experiment("ablation_2pc_cost")
def twopc_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="ablation_2pc_cost",
        title=f"Commit cost of 2PC on {ABLATION_NODES} nodes: "
              "distributed fraction x log placement",
        x_label="distributed fraction",
        y_label="mean commit phase (ms)",
        curves=_twopc_curves(),
        profiles={
            "full": SweepProfile(xs=(0.0, 0.1, 0.25, 0.5), warmup=3.0,
                                 duration=10.0),
            "fast": SweepProfile(xs=(0.0, 0.25, 0.5), warmup=2.0,
                                 duration=6.0),
        },
        notes=(
            "expected: the x=0 point is the 1PC-local baseline; the "
            "commit phase grows with the distributed fraction and the "
            "NVEM log keeps the 2PC penalty near the message cost "
            "while the disk log pays two forced-record latencies",
        ),
        metric=lambda r: r.commit_phase_ms,
        metric_fmt="{:8.3f}",
        renderer=_twopc_render,
    )
