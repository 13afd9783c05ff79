"""Data sharing as a coupling of the cluster
(``ClusterConfig(data_sharing=True)``).

Pins the trajectory of three data-sharing points (the oracle the
coupling must keep), and checks that tracing and telemetry are right
under data sharing: the phase spans tile every traced transaction, and
the gauges count the one shared lock table and storage once.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster import ClusterConfig, CouplingConfig
from repro.cluster.system import ClusterSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.experiments.export import results_to_dict
from repro.trace.summary import check_span_accounting
from repro.workload.debit_credit import DebitCreditWorkload

#: sha256 of json.dumps(results_to_dict(...), sort_keys=True,
#: separators=(",", ":")) per (nodes, GEM pages, coupling) point:
#: ``debit_credit_config(disk_only())``, 300 TPS per node, seed 5,
#: 2 s warm-up, 4 s measurement.
PINNED = {
    (1, 2000, "nvem"):
        "0707df3c2b9b3f963963f9f7c01fc0b9e245de066b4d9ee73faeee70b86cb693",
    (2, 2000, "nvem"):
        "dfa00e3f5471d425c582f1ae03093224c6d436801d5745fbcd935937069a8879",
    (4, 0, "lan"):
        "c45c75ba127a83b50da960f3b9a82be679e8d835aaf24e5d0929fd7ac3b1ddf8",
}

COUPLINGS = {"nvem": CouplingConfig.nvem_coupling,
             "lan": CouplingConfig.network_coupling}


def sharing_system(nodes, gem, coupling="nvem", rate_per_node=300.0,
                   seed=5, **trace):
    node = debit_credit_config(disk_only())
    if trace:
        node.trace = dataclasses.replace(node.trace, **trace)
    config = ClusterConfig(node=node, num_nodes=nodes, data_sharing=True,
                           gem_capacity=gem,
                           coupling=COUPLINGS[coupling]())
    return ClusterSystem(
        config, DebitCreditWorkload(arrival_rate=rate_per_node * nodes),
        seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize("point", sorted(PINNED))
def test_data_sharing_trajectory_is_pinned(point):
    system = sharing_system(*point)
    results = system.run(warmup=2.0, duration=4.0)
    payload = json.dumps(results_to_dict(results), sort_keys=True,
                         separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED[point]


class TestTracing:
    def _run(self, **trace):
        system = sharing_system(2, 2000, "lan", rate_per_node=200.0,
                                seed=3, **trace)
        return system, system.run(warmup=1.0, duration=2.0)

    def test_tracing_is_neutral(self):
        _, plain = self._run()
        system, traced = self._run(enabled=True)
        assert results_to_dict(traced) == results_to_dict(plain)
        assert system.tracer.spans

    def test_phase_spans_tile_every_transaction(self):
        """The remote lock round trip, the central lock wait, GEM
        propagation and the invalidation broadcast each lie inside a
        phase span, so the phases sum to the response time."""
        system, results = self._run(enabled=True)
        report = check_span_accounting(system.tracer.spans,
                                       system.tracer.measure_start,
                                       tolerance=1e-6)
        assert report["transactions"] > 0.9 * results.committed
        names = {span[0] for span in system.tracer.spans}
        assert {"lock.remote", "gem.propagate", "invalidate"} <= names
        # Spans carry the node the transaction runs on.
        assert {span[2] for span in system.tracer.spans} == {0, 1}


def test_telemetry_counts_shared_state_once():
    system = sharing_system(2, 2000, rate_per_node=200.0, seed=3,
                            telemetry_interval=0.5)
    results = system.run(warmup=1.0, duration=2.0)
    samples = results.timeseries
    assert len(samples) == 4
    # One shared storage: device names carry no node prefix.
    assert set(samples[-1]["util"]) == set(system.storage.units) | {"nvem"}
    assert all(sample["lock_queue"] >= 0 for sample in samples)
    assert samples[-1]["committed"] == results.committed
