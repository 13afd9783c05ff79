"""Cached ExperimentRunner tests: the cache must change cost, never
output.

The contract under test: a cache-enabled run — cold, warm, resumed, or
deduplicated — exports byte-for-byte the same JSON as the plain
historical runner, and the run statistics prove where each point came
from (a warm rerun is 100% hits, a seed override is 0% hits, identical
curves deduplicate instead of double-simulating).
"""

import json
import warnings

import pytest

from repro.experiments import api
from repro.experiments.api import ExperimentRunner
from repro.experiments.export import experiment_to_dict
from repro.experiments.store import ResultStore
from repro.experiments.trace_setup import (
    trace_config,
    trace_for,
    trace_workload,
)
from repro.workload.debit_credit import DebitCreditWorkload
from tests.experiments.conftest import make_tiny_spec, tiny_config


def canonical(result) -> str:
    return json.dumps(experiment_to_dict(result), sort_keys=True,
                      separators=(",", ":"))


def run_with(store, spec, **kwargs):
    runner = ExperimentRunner(store=store, **kwargs)
    result = runner.run_one(spec, profile="fast")
    return runner, canonical(result)


class TestByteIdenticalOutput:
    def test_cold_warm_and_uncached_identical(self, tiny_spec, tmp_path):
        _, plain = run_with(None, tiny_spec)
        store = ResultStore(str(tmp_path))
        cold_runner, cold = run_with(store, tiny_spec)
        warm_runner, warm = run_with(store, tiny_spec)
        assert plain == cold == warm
        assert cold_runner.last_stats.hits == 0
        assert warm_runner.last_stats.hits == warm_runner.last_stats.total
        assert warm_runner.last_stats.misses == 0

    def test_full_profile_two_point_curves_identical(self, tiny_spec,
                                                     tmp_path):
        """Multi-point curves exercise per-point seeds + truncation."""
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(store=store)
        cold = canonical(runner.run_one(tiny_spec, profile="full"))
        warm = canonical(runner.run_one(tiny_spec, profile="full"))
        plain = canonical(ExperimentRunner().run_one(tiny_spec,
                                                     profile="full"))
        assert cold == warm == plain


class TestRunStats:
    def test_warm_rerun_is_all_hits(self, tiny_spec, tmp_path):
        store = ResultStore(str(tmp_path))
        run_with(store, tiny_spec)
        runner, _ = run_with(store, tiny_spec)
        stats = runner.last_stats
        assert stats.total > 0
        assert stats.hits == stats.total
        assert stats.misses == stats.resumed == stats.deduped == 0
        assert stats.hit_rate == 1.0

    def test_identical_curves_deduplicate(self, tiny_spec, tmp_path):
        """tiny_spec's alpha/beta curves share build(x): one simulation,
        two filled points, counted as dedup — not as store hits."""
        store = ResultStore(str(tmp_path))
        runner, _ = run_with(store, tiny_spec)
        stats = runner.last_stats
        assert stats.total == 2
        assert stats.misses == 1
        assert stats.deduped == 1
        assert stats.hits == 0

    def test_stats_serialize(self, tiny_spec, tmp_path):
        runner, _ = run_with(ResultStore(str(tmp_path)), tiny_spec)
        payload = runner.last_stats.to_dict()
        assert payload["total"] == 2
        assert 0.0 <= payload["hit_rate"] <= 1.0
        json.dumps(payload)


class TestSeedOverride:
    def test_seed_override_never_hits_default_seed_cache(self, tiny_spec,
                                                         tmp_path):
        """Regression: --seed N is part of the cache key.  A store
        warmed by a default-seed run must contribute zero hits to a
        seed-overridden run, and the two outputs must differ."""
        store = ResultStore(str(tmp_path))
        _, default_out = run_with(store, tiny_spec)
        runner7, out7 = run_with(store, tiny_spec, seed=7)
        assert runner7.last_stats.hits == 0
        assert runner7.last_stats.misses >= 1
        assert out7 != default_out
        # And the seed-7 cache is itself warm + reproducible now.
        rerun7, out7_again = run_with(store, tiny_spec, seed=7)
        assert rerun7.last_stats.hits == rerun7.last_stats.total
        assert out7_again == out7


class TestUncacheable:
    def test_unfingerprintable_workload_recomputed_with_one_warning(
            self, tmp_path):
        class OpaqueWorkload:
            """No fingerprint_data, and a public callable attribute."""

            def __init__(self, rate):
                self.rate = rate
                self.hook = lambda: None
                self._inner = DebitCreditWorkload(
                    arrival_rate=rate, num_branches=20,
                    accounts_per_branch=1000)

            def start(self, system):
                self._inner.start(system)

        def build(rate):
            return tiny_config(), OpaqueWorkload(rate)

        tiny = make_tiny_spec("_opaque")
        spec = api.ExperimentSpec(
            id=tiny.id, title=tiny.title, x_label=tiny.x_label,
            y_label=tiny.y_label,
            curves=[api.CurveSpec(label="opaque", build=build)],
            profiles=tiny.profiles,
        )
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(store=store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = canonical(runner.run_one(spec, profile="fast"))
        assert runner.last_stats.uncacheable == runner.last_stats.total
        assert runner.last_stats.hits == 0
        relevant = [w for w in caught
                    if "not cacheable" in str(w.message)]
        assert len(relevant) == 1  # one warning, not one per point
        assert store.stats()["entries"] == 0
        # Recomputation is still deterministic (and warns again).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            second = canonical(runner.run_one(spec, profile="fast"))
        assert second == first
        assert runner.last_stats.uncacheable == runner.last_stats.total


def trace_point_spec() -> api.ExperimentSpec:
    """One fig4_6 trace point: an NVEM second-level cache, MM=250."""
    def build(mm):
        trace = trace_for(True)
        return trace_config(trace, "nvem", int(mm)), trace_workload(trace)

    profile = api.SweepProfile(xs=(250.0,), warmup=1.0, duration=2.0)
    return api.ExperimentSpec(
        id="_trace_point", title="one trace point",
        x_label="MM buffer (pages)", y_label="mean response time (ms)",
        curves=[api.CurveSpec(label="NVEM cache 2000", build=build)],
        profiles={"full": profile, "fast": profile})


class TestTracePointRoundTrip:
    def test_trace_point_served_from_store(self, tmp_path):
        """A trace-workload point fingerprints (trace content and replay
        parameters), is stored cold and served warm, byte-identical to
        an uncached run."""
        spec = trace_point_spec()
        _, plain = run_with(None, spec)
        store = ResultStore(str(tmp_path))
        cold_runner, cold = run_with(store, spec)
        warm_runner, warm = run_with(store, spec)
        assert plain == cold == warm
        assert cold_runner.last_stats.misses == 1
        assert cold_runner.last_stats.uncacheable == 0
        assert warm_runner.last_stats.hits == warm_runner.last_stats.total == 1


class TestDirectPathUntouched:
    def test_no_cache_flags_use_direct_path(self, tiny_spec, monkeypatch,
                                            tmp_path):
        """Without store/journal/resume (the null case) a run never
        fingerprints a point, writes no file and keeps no stats."""
        import repro.core.fingerprint as fingerprint

        def refuse(*args, **kwargs):
            raise AssertionError("the null case must not fingerprint")

        monkeypatch.setattr(fingerprint, "point_fingerprint", refuse)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        runner = ExperimentRunner()
        result = runner.run_one(tiny_spec, profile="fast")
        assert all(series.points for series in result.series)
        assert runner.last_stats is None
        assert runner.last_journal_path is None
        assert list(tmp_path.iterdir()) == []
