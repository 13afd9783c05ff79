#!/usr/bin/env python3
"""Distributed data sharing with global extended memory ([BHR91]/[Ra91]).

The paper's conclusions point at NVEM in *locally distributed*
systems: speeding up inter-system communication and holding globally
shared data. This example scales a shared-disk Debit-Credit system
from 1 to 4 computing nodes (4×50 MIPS each) and compares:

* no GEM vs a 2000-page global extended memory cache;
* NVEM coupling (~100 µs messages) vs LAN coupling (~1 ms).

Run with::

    python examples/distributed_study.py
"""

from repro import DebitCreditWorkload
from repro.cluster import ClusterConfig, CouplingConfig
from repro.cluster.system import ClusterSystem
from repro.experiments.defaults import debit_credit_config, disk_only

RATE_PER_NODE = 350.0


def measure(nodes, gem, coupling):
    # The shared disk subsystem must grow with the aggregate rate
    # ("sufficient disk servers to avoid bottlenecks", §4.2).
    scheme = disk_only()
    for unit in scheme.disk_units:
        unit.num_disks *= nodes
        unit.num_controllers *= nodes
    config = ClusterConfig(node=debit_credit_config(scheme),
                           num_nodes=nodes, data_sharing=True,
                           gem_capacity=gem, coupling=coupling)
    rate = RATE_PER_NODE * nodes
    system = ClusterSystem(
        config, DebitCreditWorkload(arrival_rate=rate), seed=5
    )
    results = system.run(warmup=3.0, duration=6.0)
    msgs = system.message_stats().get("messages", 0)
    return results, msgs / max(results.committed, 1)


def main() -> None:
    print(f"Debit-Credit, {RATE_PER_NODE:g} TPS per node, shared disks")
    print(f"{'nodes':>5} {'GEM':>6} {'coupling':>9} {'thr (TPS)':>10} "
          f"{'rt (ms)':>8} {'msgs/tx':>8}")
    print("-" * 52)
    for nodes in (1, 2, 4):
        for gem in (0, 2000):
            for coupling_name, coupling in (
                ("nvem", CouplingConfig.nvem_coupling()),
                ("lan", CouplingConfig.network_coupling()),
            ):
                if nodes == 1 and coupling_name == "lan":
                    continue  # no messages with a single node
                results, msgs_per_tx = measure(nodes, gem, coupling)
                marker = "*" if results.saturated else ""
                print(f"{nodes:>5} {gem:>6} {coupling_name:>9} "
                      f"{results.throughput:>9.0f}{marker} "
                      f"{results.response_time_ms:>8.1f} "
                      f"{msgs_per_tx:>8.1f}")
    print()
    print("observations: throughput scales with nodes (shared disks "
          "sized generously); GEM absorbs writes and adds a shared "
          "second-level cache; LAN coupling pays ~1 ms per message on "
          "every remote lock request, NVEM coupling makes the "
          "distribution overhead almost invisible [Ra91]")


if __name__ == "__main__":
    main()
