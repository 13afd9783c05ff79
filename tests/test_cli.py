"""Tests for the command-line interface (repro.cli)."""

import json
import os

import pytest

from repro.cli import main
from repro.experiments import api
from tests.experiments.conftest import make_tiny_spec


@pytest.fixture
def tiny_registered():
    spec = make_tiny_spec("_cli_tiny")
    api.register(spec.id, lambda: spec)
    yield spec
    api.unregister(spec.id)


def test_run_command(capsys):
    code = main(["run", "--scheme", "nvem", "--rate", "100",
                 "--duration", "2", "--warmup", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "throughput" in out
    assert "scheme=nvem" in out


def test_run_force_flag(capsys):
    code = main(["run", "--scheme", "nvem", "--rate", "50",
                 "--duration", "2", "--warmup", "1", "--force"])
    assert code == 0
    assert "strategy=force" in capsys.readouterr().out


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "punchcards"])


def test_trace_gen_and_run(tmp_path, capsys):
    path = str(tmp_path / "t.trace")
    code = main(["trace-gen", "--out", path, "--transactions", "200",
                 "--accesses", "4000", "--seed", "9"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out

    code = main(["trace-run", "--trace", path, "--kind", "nvem-resident",
                 "--mm", "200", "--rate", "40", "--duration", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "normalized response" in out


class TestTraceCommand:
    def test_trace_run_export_summary(self, tiny_registered, tmp_path,
                                      capsys):
        trace_path = str(tmp_path / "tiny.trace.jsonl")
        code = main(["trace", "run", tiny_registered.id,
                     "--out", trace_path, "--profile", "full",
                     "--summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(trace_path)
        assert "span(s)" in out
        assert "traced tx" in out and "residual" in out

        code = main(["trace", "summary", trace_path, "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace of {tiny_registered.id}" in out
        assert "phase" in out and "share" in out

        code = main(["trace", "export", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "perfetto" in out
        perfetto_path = trace_path + ".perfetto.json"
        assert os.path.exists(perfetto_path)
        payload = json.load(open(perfetto_path))
        assert payload["traceEvents"]

    def test_trace_run_rejects_unknown_experiment(self, capsys):
        code = main(["trace", "run", "_no_such_figure"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_run_rejects_bad_sample(self, tiny_registered, capsys):
        code = main(["trace", "run", tiny_registered.id,
                     "--sample", "0"])
        assert code == 2
        assert "--sample" in capsys.readouterr().err

    def test_trace_tools_reject_missing_file(self, tmp_path, capsys):
        for sub in ("summary", "export"):
            code = main(["trace", sub, str(tmp_path / "absent.jsonl")])
            assert code == 2
            assert "no trace at" in capsys.readouterr().err


def test_registry_listing(capsys):
    code = main(["registry"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flash_ssd" in out and "battery_dram" in out
    assert "clock" in out and "2q" in out


def test_run_with_mm_policy_and_new_scheme(capsys):
    code = main(["run", "--scheme", "battery-dram", "--rate", "50",
                 "--duration", "1", "--warmup", "0.5",
                 "--mm-policy", "clock"])
    out = capsys.readouterr().out
    assert code == 0
    assert "battery_dram" in out


def test_bench_listing_includes_the_measured_window(capsys):
    code = main(["bench", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "prewarm_trace" in out and "trace_measure" in out


def test_bench_prepare_step_runs_before_every_timed_call():
    from repro.bench import bench_trace_measure, timed_ms

    calls = []

    def work():
        calls.append("run")
        return 1

    work.prepare = lambda: calls.append("prepare")
    assert timed_ms(work) >= 0.0
    timed_ms(work)
    assert calls == ["prepare", "run", "prepare", "run"]
    assert callable(bench_trace_measure.prepare)


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestExperimentList:
    def test_lists_registered_ids_and_titles(self, capsys):
        code = main(["experiment", "list"])
        out = capsys.readouterr().out
        assert code == 0
        for exp_id in ("fig4_1", "fig4_8", "table4_2",
                       "ablation_group_commit"):
            assert exp_id in out
        assert "log file allocation" in out

    def test_includes_user_registered_specs(self, tiny_registered,
                                            capsys):
        main(["experiment", "list"])
        assert "_cli_tiny" in capsys.readouterr().out


class TestExperimentRun:
    def test_run_one(self, tiny_registered, capsys):
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tiny registry test experiment" in out

    def test_parallel_honored_with_fast_profile(self, tiny_registered,
                                                capsys):
        """--parallel + --profile fast runs (no silent ignore)."""
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", "--parallel", "--workers", "2"])
        assert code == 0
        assert "tiny registry test experiment" in capsys.readouterr().out

    def test_exports_json_and_csv(self, tiny_registered, tmp_path,
                                  capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", "--json", "--csv",
                     "--out", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        json_path = os.path.join(out_dir, "_cli_tiny.json")
        csv_path = os.path.join(out_dir, "_cli_tiny.csv")
        assert os.path.exists(json_path) and os.path.exists(csv_path)
        assert f"wrote {json_path}" in out
        with open(json_path) as fh:
            assert json.load(fh)["experiment_id"] == "_cli_tiny"

    def test_export_without_out_dir_rejected(self, tiny_registered,
                                             capsys):
        code = main(["experiment", "run", "_cli_tiny", "--json"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_id_rejected_with_listing(self, capsys):
        code = main(["experiment", "run", "fig9_9"])
        err = capsys.readouterr().err
        assert code == 2
        assert "fig9_9" in err and "fig4_1" in err

    def test_ids_and_all_conflict(self, capsys):
        code = main(["experiment", "run", "fig4_1", "--all"])
        assert code == 2

    def test_no_ids_rejected(self, capsys):
        code = main(["experiment", "run"])
        assert code == 2

    def test_invalid_workers_rejected(self, tiny_registered, capsys):
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_duplicate_ids_run_once(self, tiny_registered, capsys):
        code = main(["experiment", "run", "_cli_tiny", "_cli_tiny",
                     "--profile", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("tiny registry test experiment") == 1


class TestExperimentSeedOverride:
    def _run(self, capsys, *extra):
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_same_seed_reproduces_output(self, tiny_registered, capsys):
        first = self._run(capsys, "--seed", "7")
        second = self._run(capsys, "--seed", "7")
        assert first == second

    def test_seed_changes_trajectory(self, tiny_registered, capsys):
        default = self._run(capsys)
        reseeded = self._run(capsys, "--seed", "7")
        assert default != reseeded

    def test_default_matches_spec_seed(self, tiny_registered, capsys):
        """No --seed keeps the spec's own base seed (the historical
        behaviour every pinned output relies on)."""
        spec_seed = tiny_registered.seed
        explicit = self._run(capsys, "--seed", str(spec_seed))
        default = self._run(capsys)
        assert explicit == default


class TestExperimentCacheFlags:
    def _run(self, capsys, *extra):
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", *extra])
        assert code == 0
        return capsys.readouterr()

    def test_cache_cold_then_warm(self, tiny_registered, tmp_path,
                                  capsys):
        cache = str(tmp_path / "cache")
        cold = self._run(capsys, "--cache", "--cache-dir", cache)
        assert "miss(es)" in cold.err
        assert "0 hit(s)" in cold.err
        warm = self._run(capsys, "--cache", "--cache-dir", cache)
        assert "100.0% hit rate" in warm.err
        assert warm.out == cold.out

    def test_cache_dir_implies_cache(self, tiny_registered, tmp_path,
                                     capsys):
        cache = str(tmp_path / "cache")
        first = self._run(capsys, "--cache-dir", cache)
        assert "cache:" in first.err
        assert os.path.isdir(os.path.join(cache, "points"))

    def test_no_cache_conflicts_with_cache(self, tiny_registered,
                                           capsys):
        code = main(["experiment", "run", "_cli_tiny",
                     "--profile", "fast", "--cache", "--no-cache"])
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_no_cache_overrides_env_default(self, tiny_registered,
                                            tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = self._run(capsys, "--no-cache")
        assert "cache:" not in out.err
        assert not os.path.exists(str(tmp_path / "cache"))

    def test_cache_stats_file(self, tiny_registered, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        stats_path = str(tmp_path / "stats.json")
        self._run(capsys, "--cache", "--cache-dir", cache,
                  "--cache-stats", stats_path)
        with open(stats_path) as fh:
            stats = json.load(fh)
        assert stats["total"] > 0
        assert stats["hits"] == 0
        assert stats["misses"] >= 1

    def test_resume_reports_resumed_points(self, tiny_registered,
                                           tmp_path, capsys):
        cache = str(tmp_path / "cache")
        first = self._run(capsys, "--cache", "--cache-dir", cache)
        # The resume overlay is consulted before the point store, so
        # the rerun reports resumed points rather than cache hits.
        resumed = self._run(capsys, "--resume", "--cache-dir", cache)
        assert "2 resumed" in resumed.err
        assert resumed.out == first.out

    def test_explicit_journal_path(self, tiny_registered, tmp_path,
                                   capsys):
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "my-run.jsonl")
        run = self._run(capsys, "--cache", "--cache-dir", cache,
                        "--journal", journal)
        assert os.path.exists(journal)
        assert f"journal: {journal}" in run.err


class TestCacheCommand:
    def warmed_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["experiment", "run", "_cli_tiny", "--profile",
                     "fast", "--cache", "--cache-dir", cache]) == 0
        capsys.readouterr()
        return cache

    def test_stats(self, tiny_registered, tmp_path, capsys):
        cache = self.warmed_cache(tmp_path, capsys)
        code = main(["cache", "--cache-dir", cache, "stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries    : 1" in out

    def test_stats_json(self, tiny_registered, tmp_path, capsys):
        cache = self.warmed_cache(tmp_path, capsys)
        code = main(["cache", "--cache-dir", cache, "stats", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["entries"] == 1

    def test_gc_and_clear(self, tiny_registered, tmp_path, capsys):
        cache = self.warmed_cache(tmp_path, capsys)
        code = main(["cache", "--cache-dir", cache, "gc",
                     "--max-age-days", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kept 1" in out
        code = main(["cache", "--cache-dir", cache, "clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed 1" in out

    def test_stats_on_empty_cache(self, tmp_path, capsys):
        code = main(["cache", "--cache-dir",
                     str(tmp_path / "nothing"), "stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries    : 0" in out


class TestWatchCommand:
    def test_watch_once_after_run(self, tiny_registered, tmp_path,
                                  capsys):
        cache = str(tmp_path / "cache")
        assert main(["experiment", "run", "_cli_tiny", "--profile",
                     "fast", "--cache", "--cache-dir", cache]) == 0
        capsys.readouterr()
        code = main(["watch", "--once", "--cache-dir", cache])
        out = capsys.readouterr().out
        assert code == 0  # run finished -> exit 0
        assert "_cli_tiny" in out
        assert "run finished" in out

    def test_watch_no_journal(self, tmp_path, capsys):
        code = main(["watch", "--once", "--cache-dir",
                     str(tmp_path / "empty")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no run journals" in captured.err


class TestRecoveryCommand:
    def test_runs_and_compares_with_analytic_model(self, capsys):
        code = main(["recovery", "--rate", "20", "--interval", "4",
                     "--duration", "14", "--warmup", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "availability" in out
        assert "simulated restart" in out
        assert "analytic  restart" in out
        assert "simulated/analytic ratio" in out

    def test_force_strategy(self, capsys):
        code = main(["recovery", "--rate", "20", "--interval", "4",
                     "--duration", "14", "--warmup", "1", "--force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=force" in out

    def test_crash_inside_warmup_rejected(self, capsys):
        code = main(["recovery", "--crash-at", "1", "--warmup", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "warmup" in err

    def test_nonpositive_crash_at_rejected_cleanly(self, capsys):
        code = main(["recovery", "--crash-at", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--crash-at" in err

    def test_nonpositive_interval_rejected_cleanly(self, capsys):
        code = main(["recovery", "--interval", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--interval" in err
