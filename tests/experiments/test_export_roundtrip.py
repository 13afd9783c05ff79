"""Export round-trip tests: JSON/CSV for ExperimentResult, and a
registry-wide check that every registered experiment exports cleanly.

The registry-wide test monkeypatches the runner's point evaluation with
canned :class:`Results`, so every spec's ``build(x)`` factories run
(config construction + validation) without simulation cost.
"""

import csv
import json

import pytest

from repro.experiments import api
from repro.experiments.export import (
    CSV_FIELDS,
    experiment_from_dict,
    experiment_to_dict,
    read_json,
    results_from_dict,
    results_to_dict,
    write_csv,
    write_json,
)
from repro.experiments.runner import ExperimentResult, Series, SeriesPoint
from tests.experiments.test_harness import fake_results


def sample_experiment() -> ExperimentResult:
    result = ExperimentResult("FigX", "sample", "rate", "ms",
                              notes=["a note"])
    s1 = Series("alpha")
    s1.points = [SeriesPoint(100, fake_results(0.010)),
                 SeriesPoint(300, fake_results(0.020))]
    s2 = Series("beta")
    s2.points = [SeriesPoint(100, fake_results(0.050)),
                 SeriesPoint(300, fake_results(0.055, saturated=True))]
    result.series = [s1, s2]
    return result


def typed_results():
    r = fake_results(0.02)
    r.response_by_type = {"debit": 0.02, "query": 0.05}
    return r


class TestResultsRoundTrip:
    def test_results_round_trip_equal(self):
        original = typed_results()
        restored = results_from_dict(
            json.loads(json.dumps(results_to_dict(original)))
        )
        assert restored == original

    def test_response_by_type_preserved(self):
        payload = results_to_dict(typed_results())
        assert payload["response_by_type"] == {"debit": 0.02,
                                               "query": 0.05}

    def test_second_level_hit_by_tag_exported(self):
        payload = results_to_dict(fake_results())
        assert "second_level_hit_by_tag" in payload

    def test_recovery_block_absent_when_disabled(self):
        """Recovery-disabled exports carry no recovery key at all, so
        pinned outputs (the fig4_1 golden sha) are unchanged by the
        subsystem's existence."""
        payload = results_to_dict(fake_results())
        assert "recovery" not in payload

    def test_csv_rows_carry_recovery_columns(self):
        from repro.experiments.export import CSV_FIELDS, experiment_to_rows

        assert "availability" in CSV_FIELDS
        assert "restart_time_s" in CSV_FIELDS
        enabled = fake_results()
        enabled.recovery = {"availability": 0.8,
                            "restart_time_mean": 4.5}
        result = ExperimentResult(experiment_id="t", title="t",
                                  x_label="x", y_label="y")
        result.series = [Series(label="s",
                                points=[SeriesPoint(1, enabled),
                                        SeriesPoint(2, fake_results())])]
        rows = experiment_to_rows(result)
        assert rows[0]["availability"] == 0.8
        assert rows[0]["restart_time_s"] == 4.5
        # Recovery-disabled points report perfect uptime, not blanks.
        assert rows[1]["availability"] == 1.0
        assert rows[1]["restart_time_s"] == 0.0

    def test_cluster_block_absent_when_single_node(self):
        """Non-cluster exports carry no cluster key, so pinned outputs
        (the fig4_1 golden sha) are unchanged by the subsystem."""
        payload = results_to_dict(fake_results())
        assert "cluster" not in payload

    def test_csv_rows_carry_cluster_columns(self):
        from repro.experiments.export import experiment_to_rows

        for column in ("nodes", "dist_fraction", "commit_phase_ms",
                       "in_doubt_time", "dollars_per_tps"):
            assert column in CSV_FIELDS
        clustered = fake_results()  # committed=100, throughput=10
        clustered.cluster = {"nodes": 4.0, "cost_dollars": 2_000_000.0,
                             "local_commits": 80.0,
                             "distributed_commits": 20.0,
                             "commit_phase_total": 0.5,
                             "prepared_pieces": 20.0,
                             "in_doubt_total": 0.1,
                             "failover_resolved": 0.0}
        result = ExperimentResult(experiment_id="t", title="t",
                                  x_label="x", y_label="y")
        result.series = [Series(label="s",
                                points=[SeriesPoint(1, clustered),
                                        SeriesPoint(2, fake_results())])]
        rows = experiment_to_rows(result)
        assert rows[0]["nodes"] == 4
        assert rows[0]["dist_fraction"] == pytest.approx(0.2)
        assert rows[0]["commit_phase_ms"] == pytest.approx(5.0)
        assert rows[0]["in_doubt_time"] == pytest.approx(0.005)
        assert rows[0]["dollars_per_tps"] == pytest.approx(200_000.0)
        # Non-cluster points report single-node identities, not blanks.
        assert rows[1]["nodes"] == 1
        assert rows[1]["dist_fraction"] == 0.0
        assert rows[1]["commit_phase_ms"] == 0.0
        assert rows[1]["in_doubt_time"] == 0.0
        assert rows[1]["dollars_per_tps"] == 0.0

    def test_cluster_block_round_trips(self):
        original = fake_results()
        original.cluster = {"nodes": 2.0, "cost_dollars": 750_000.0,
                            "local_commits": 90.0,
                            "distributed_commits": 10.0,
                            "commit_phase_total": 0.2,
                            "prepared_pieces": 10.0,
                            "in_doubt_total": 0.05,
                            "failover_resolved": 1.0}
        restored = results_from_dict(
            json.loads(json.dumps(results_to_dict(original)))
        )
        assert restored == original
        assert restored.nodes == 2
        assert restored.dist_fraction == pytest.approx(0.1)

    def test_recovery_block_round_trips(self):
        original = fake_results()
        original.recovery = {"crashes": 1.0, "downtime": 12.5,
                             "availability": 0.75,
                             "restart_time_mean": 12.5}
        restored = results_from_dict(
            json.loads(json.dumps(results_to_dict(original)))
        )
        assert restored == original
        assert restored.availability == 0.75
        assert restored.restart_time_mean == 12.5

    def test_latency_and_timeseries_blocks_absent_by_default(self):
        """Tracing-off exports carry neither block, so pinned outputs
        (the fig4_1 golden sha) are unchanged by the observability
        layer's existence."""
        payload = results_to_dict(fake_results())
        assert "latency" not in payload
        assert "timeseries" not in payload

    def test_latency_and_timeseries_round_trip(self):
        original = fake_results(0.04)
        original.latency = {"p50": 0.03, "p95": 0.08, "p99": 0.12,
                            "slo_ms": 1000.0, "slo_attainment": 0.97}
        original.timeseries = [
            {"t": 1.0, "tps": 90.0, "committed": 90},
            {"t": 2.0, "tps": 110.0, "committed": 200},
        ]
        restored = results_from_dict(
            json.loads(json.dumps(results_to_dict(original)))
        )
        assert restored == original
        assert restored.response_time_p50 == 0.03
        assert restored.response_time_p99 == 0.12
        assert restored.slo_attainment == 0.97

    def test_csv_rows_carry_distribution_columns(self):
        from repro.experiments.export import experiment_to_rows

        for column in ("response_p50_ms", "response_p99_ms",
                       "slo_attainment"):
            assert column in CSV_FIELDS
        detailed = fake_results(0.04)
        detailed.latency = {"p50": 0.03, "p95": 0.08, "p99": 0.12,
                            "slo_ms": 1000.0, "slo_attainment": 0.97}
        result = ExperimentResult(experiment_id="t", title="t",
                                  x_label="x", y_label="y")
        result.series = [Series(label="s",
                                points=[SeriesPoint(1, detailed),
                                        SeriesPoint(2, fake_results(0.04))])]
        rows = experiment_to_rows(result)
        assert rows[0]["response_p50_ms"] == pytest.approx(30.0)
        assert rows[0]["response_p99_ms"] == pytest.approx(120.0)
        assert rows[0]["slo_attainment"] == 0.97
        # Without the latency block the columns fall back to the
        # summary statistics instead of blanks.
        assert rows[1]["response_p50_ms"] == pytest.approx(40.0)
        assert rows[1]["response_p99_ms"] == pytest.approx(80.0)
        assert rows[1]["slo_attainment"] == 1.0


def recovery_experiment() -> ExperimentResult:
    """A mixed experiment: one recovery-enabled point, one without."""
    enabled = fake_results(0.02)
    enabled.recovery = {"crashes": 2.0, "downtime": 7.5,
                        "availability": 0.925,
                        "restart_time_mean": 3.75}
    result = ExperimentResult("FigR", "restart", "interval", "s")
    result.series = [Series("disk", points=[SeriesPoint(5, enabled),
                                            SeriesPoint(10, fake_results())])]
    return result


class TestExperimentRoundTrip:
    def test_dict_round_trip_equal(self):
        original = sample_experiment()
        restored = experiment_from_dict(experiment_to_dict(original))
        assert restored == original

    def test_recovery_dict_round_trips_through_experiment_json(self):
        """The optional Results.recovery block survives the full
        experiment_to_dict -> JSON -> experiment_from_dict trip (the
        path every cached/exported fig_restart point takes)."""
        original = recovery_experiment()
        restored = experiment_from_dict(
            json.loads(json.dumps(experiment_to_dict(original)))
        )
        assert restored == original
        first, second = restored.series[0].points
        assert first.results.recovery == {"crashes": 2.0, "downtime": 7.5,
                                          "availability": 0.925,
                                          "restart_time_mean": 3.75}
        assert first.results.availability == 0.925
        assert second.results.recovery is None

    def test_recovery_dict_round_trips_through_files(self, tmp_path):
        original = recovery_experiment()
        json_path = str(tmp_path / "r.json")
        write_json(original, json_path)
        assert read_json(json_path) == original
        csv_path = str(tmp_path / "r.csv")
        write_csv(original, csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["availability"]) == 0.925
        assert float(rows[0]["restart_time_s"]) == 3.75
        # Recovery-disabled row: perfect uptime, zero restart.
        assert float(rows[1]["availability"]) == 1.0
        assert float(rows[1]["restart_time_s"]) == 0.0

    def test_json_file_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        original = sample_experiment()
        write_json(original, path)
        restored = read_json(path)
        assert restored == original
        # Saturation markers survive the trip.
        assert restored.series[1].points[1].saturated is True

    def test_json_saturated_point_markers(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(sample_experiment(), path)
        with open(path) as fh:
            payload = json.load(fh)
        beta = payload["series"][1]["points"]
        assert [p["saturated"] for p in beta] == [False, True]

    def test_csv_round_trip_fields(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(sample_experiment(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0]) == CSV_FIELDS
        assert float(rows[0]["response_time_ms"]) == pytest.approx(10.0)
        assert rows[-1]["saturated"] == "True"


class TestRegistryWideExport:
    @pytest.fixture
    def stub_evaluation(self, monkeypatch):
        """Replace simulation with canned results (build() still runs)."""
        monkeypatch.setattr(api, "_evaluate_point",
                            lambda task, *hooks: fake_results(0.02))

    def test_every_registered_experiment_exports_cleanly(
            self, tmp_path, stub_evaluation):
        runner = api.ExperimentRunner()
        for exp_id in api.experiment_ids():
            spec = api.get_experiment(exp_id)
            result = runner.run_one(spec, "fast")
            assert result.series, exp_id
            json_path = str(tmp_path / f"{exp_id}.json")
            csv_path = str(tmp_path / f"{exp_id}.csv")
            write_json(result, json_path)
            write_csv(result, csv_path)
            assert read_json(json_path) == result
            with open(csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and rows[0]["experiment"] == exp_id
            # The spec's own formatting also renders without error.
            assert spec.render(result)
