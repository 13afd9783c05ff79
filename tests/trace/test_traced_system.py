"""End-to-end tracing against the real simulator.

The load-bearing invariant: tracing is a pure side channel.  A run with
``trace.enabled`` (any sampling rate, telemetry on or off) must produce
*bit-identical* Results to an untraced run of the same seed — the span
stream and gauges live outside the simulation state and the sampler
draws from its own RNG substream.
"""

import dataclasses

import pytest

from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.experiments.export import results_to_dict
from repro.trace import attribute, check_span_accounting
from repro.workload.debit_credit import DebitCreditWorkload


def _run(trace_kwargs=None, seed=5, rate=150.0, warmup=0.4, duration=1.2):
    config = debit_credit_config(disk_only())
    if trace_kwargs:
        config.trace = dataclasses.replace(config.trace, **trace_kwargs)
    config.validate()
    system = TransactionSystem(
        config, DebitCreditWorkload(arrival_rate=rate), seed=seed)
    results = system.run(warmup=warmup, duration=duration)
    return system, results


class TestSideChannelNeutrality:
    def test_tracing_does_not_change_results(self):
        _, plain = _run()
        system, traced = _run({"enabled": True})
        assert system.tracer is not None and system.tracer.spans
        assert results_to_dict(traced) == results_to_dict(plain)

    def test_sampling_does_not_change_results(self):
        _, plain = _run()
        system, sampled = _run({"enabled": True, "sample": 7})
        assert results_to_dict(sampled) == results_to_dict(plain)
        # Sampled runs trace a strict subset of transactions.
        full, _ = _run({"enabled": True})
        assert 0 < len(system.tracer.spans) < len(full.tracer.spans)

    def test_telemetry_does_not_change_core_results(self):
        _, plain = _run()
        _, sampled = _run({"enabled": True, "telemetry_interval": 0.25})
        payload = results_to_dict(sampled)
        series = payload.pop("timeseries")
        assert payload == results_to_dict(plain)
        assert series  # the side channel itself did record

    def test_latency_detail_only_adds_a_block(self):
        _, plain = _run()
        _, detailed = _run({"latency_detail": True})
        payload = results_to_dict(detailed)
        latency = payload.pop("latency")
        assert payload == results_to_dict(plain)
        assert latency["slo_ms"] == 1000.0


class TestSpanAccounting:
    def test_phase_spans_tile_response_time(self):
        system, results = _run({"enabled": True})
        report = check_span_accounting(system.tracer.spans,
                                       system.tracer.measure_start,
                                       tolerance=1e-9)
        assert report["transactions"] > 50
        summary = attribute(system.tracer.spans,
                            system.tracer.measure_start)
        assert summary["response_mean"] * 1e3 == \
            pytest.approx(results.response_time_ms, rel=0.15)
        # A disk run pays its commit in disk log forces.
        assert "log.force[log_disk]" in summary["details"]
        assert "io.read" in summary["details"]

    def test_warmup_spans_are_cleared_at_reset(self):
        system, _ = _run({"enabled": True})
        assert system.tracer.measure_start > 0.0
        assert all(s[3] >= 0.0 for s in system.tracer.spans)
        roots = [s for s in system.tracer.spans if s[0] == "tx"]
        assert roots
        # Only post-boundary arrivals are attributed.
        grouped = attribute(system.tracer.spans,
                            system.tracer.measure_start)
        assert grouped["traced_tx"] <= len(roots)


class TestLatencyDetail:
    def test_percentiles_are_ordered_and_exported(self):
        _, results = _run({"latency_detail": True})
        lat = results.latency
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        assert results.response_time_p50 == lat["p50"]
        assert results.response_time_p99 == lat["p99"]
        assert results.slo_attainment == lat["slo_attainment"]
        # A healthy 150 TPS disk system meets a 1 s SLO outright.
        assert lat["slo_attainment"] == 1.0

    def test_slo_threshold_is_configurable(self):
        _, results = _run({"latency_detail": True, "slo_ms": 1.0})
        # A 1 ms SLO is unmeetable on disk commits.
        assert results.latency["slo_ms"] == 1.0
        assert results.latency["slo_attainment"] < 0.5

    def test_coarse_fallbacks_without_latency_block(self):
        _, results = _run()
        assert results.latency is None
        assert results.response_time_p50 is None
        assert results.response_time_p99 is None
        assert results.slo_attainment is None


class TestTelemetry:
    def test_gauges_cover_the_measured_window(self):
        system, results = _run({"enabled": True,
                                "telemetry_interval": 0.2})
        series = results.timeseries
        assert len(series) >= 5
        times = [s["t"] for s in series]
        assert times == sorted(times)
        assert all(t >= system.tracer.measure_start for t in times)
        last = series[-1]
        assert last["committed"] == results.committed
        assert 0.0 <= last["mm_hit"] <= 1.0
        assert "db0" in last["util"]
        # Commit deltas over the window reconstruct the total.
        tps_sum = sum(s["tps"] for s in series) * 0.2
        assert tps_sum == pytest.approx(results.committed, rel=0.25)

    def test_sampler_rejects_nonpositive_interval(self):
        from repro.trace import TelemetrySampler

        with pytest.raises(ValueError):
            TelemetrySampler(object(), 0.0)


class TestClusterTracing:
    def _cluster(self, log="nvem", traced=True, seed=3):
        from repro.cluster import cluster_config, node_scheme
        from repro.cluster.workload import ShardedDebitCreditWorkload

        config = cluster_config(scheme=node_scheme(log=log), num_nodes=2)
        if traced:
            config.node.trace = dataclasses.replace(
                config.node.trace, enabled=True)
        workload = ShardedDebitCreditWorkload.for_cluster(
            config, arrival_rate_per_node=40.0, distributed_fraction=0.3)
        system = config.build_system(workload, seed=seed)
        results = system.run(warmup=0.5, duration=1.5)
        return system, results

    def test_cluster_tracing_is_neutral_too(self):
        _, plain = self._cluster(traced=False)
        system, traced = self._cluster(traced=True)
        assert results_to_dict(traced) == results_to_dict(plain)
        assert system.tracer.spans

    def test_nodes_share_one_span_buffer_with_tags(self):
        system, _ = self._cluster()
        assert all(node.tracer.spans is system.tracer.spans
                   for node in system.nodes)
        nodes_seen = {s[2] for s in system.tracer.spans}
        assert nodes_seen == {0, 1}
        check_span_accounting(system.tracer.spans,
                              system.tracer.measure_start,
                              tolerance=1e-9)

    def test_2pc_phases_and_piece_details_recorded(self):
        system, results = self._cluster()
        assert results.cluster["distributed_commits"] > 10
        names = {s[0] for s in system.tracer.spans}
        assert {"2pc.work", "2pc.prepare", "2pc.decision",
                "2pc.notify"} <= names
        assert {"piece.work", "piece.prepare", "piece.indoubt"} <= names
        # Branch transactions are keyed by their negative branch ids.
        piece_ids = {s[1] for s in system.tracer.spans
                     if s[0] == "piece.work"}
        assert piece_ids and all(tx < 0 for tx in piece_ids)
