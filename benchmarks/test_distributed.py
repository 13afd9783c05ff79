"""Benchmark — distributed data-sharing extension ([BHR91]/[Ra91]).

Not a paper artifact (the paper evaluates the central case only) but
the extension its conclusions describe: node scaling with a global
extended memory and NVEM vs LAN coupling.
"""

from repro.cluster import ClusterConfig, CouplingConfig
from repro.cluster.system import ClusterSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.workload.debit_credit import DebitCreditWorkload


def run_point(nodes, gem, coupling):
    config = ClusterConfig(node=debit_credit_config(disk_only()),
                           num_nodes=nodes, data_sharing=True,
                           gem_capacity=gem, coupling=coupling)
    system = ClusterSystem(
        config, DebitCreditWorkload(arrival_rate=300.0 * nodes), seed=5,
    )
    return system.run(warmup=2.0, duration=4.0)


def test_distributed_scaling(once):
    def experiment():
        rows = []
        for nodes in (1, 2, 4):
            for gem in (0, 2000):
                results = run_point(nodes, gem,
                                    CouplingConfig.nvem_coupling())
                rows.append((nodes, gem, results))
        return rows

    rows = once(experiment)
    print()
    print(f"{'nodes':>5} {'GEM':>6} {'thr':>8} {'rt(ms)':>8}")
    for nodes, gem, r in rows:
        print(f"{nodes:>5} {gem:>6} {r.throughput:>8.0f} "
              f"{r.response_time_ms:>8.1f}")
    by_key = {(n, g): r for n, g, r in rows}
    # Scaling: 4 nodes carry 4x the rate without saturating.
    assert not by_key[(4, 2000)].saturated
    # GEM cuts response time at every node count.
    for nodes in (1, 2, 4):
        assert by_key[(nodes, 2000)].response_time_mean < \
            by_key[(nodes, 0)].response_time_mean


def test_coupling_comparison(once):
    def experiment():
        nvem = run_point(2, 2000, CouplingConfig.nvem_coupling())
        lan = run_point(2, 2000, CouplingConfig.network_coupling())
        return nvem, lan

    nvem, lan = once(experiment)
    print()
    print(f"nvem coupling: rt={nvem.response_time_ms:.1f} ms")
    print(f"lan  coupling: rt={lan.response_time_ms:.1f} ms")
    # [Ra91]: NVEM-based coupling makes distribution overhead small.
    assert nvem.response_time_mean < lan.response_time_mean
