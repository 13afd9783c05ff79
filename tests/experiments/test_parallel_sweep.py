"""Tests for parallel sweep evaluation through ExperimentRunner's pool."""

import dataclasses
import json
from concurrent.futures import Future

import pytest

from repro.experiments import api
from repro.experiments.export import experiment_to_dict
from repro.experiments.runner import point_seed
from repro.experiments.store import ResultStore
from tests.experiments.conftest import make_tiny_spec, tiny_build


def one_curve_spec(xs, build=tiny_build, warmup=0.5, duration=1.0):
    """A one-curve ad-hoc spec whose ``full`` profile sweeps ``xs``."""
    spec = make_tiny_spec("_sweep", xs=tuple(xs))
    profile = api.SweepProfile(xs=tuple(xs), warmup=warmup,
                               duration=duration)
    return dataclasses.replace(
        spec, curves=[api.CurveSpec(label="s", build=build)],
        profiles={"full": profile, "fast": profile})


def run_curve(spec, **runner_kwargs):
    return api.ExperimentRunner(**runner_kwargs).run_one(spec).series[0]


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [point_seed(1, i) for i in range(10)]
        assert seeds == [point_seed(1, i) for i in range(10)]
        assert len(set(seeds)) == 10

    def test_varies_with_base_seed(self):
        assert point_seed(1, 0) != point_seed(2, 0)


class TestParallelSweep:
    XS = [20, 40, 60]

    def test_parallel_matches_serial_byte_identically(self):
        spec = one_curve_spec(self.XS)
        serial = run_curve(spec)
        parallel = run_curve(spec, parallel=True, max_workers=2)
        assert [p.x for p in serial.points] == \
            [p.x for p in parallel.points]
        for sp, pp in zip(serial.points, parallel.points):
            assert sp.results == pp.results

    def test_unpicklable_workload_degrades_to_serial(self):
        def build_unpicklable(rate):
            config, workload = tiny_build(rate)
            workload.hook = lambda: None  # closures cannot be pickled
            return config, workload

        spec = one_curve_spec([20, 30], build_unpicklable,
                              warmup=0.2, duration=0.5)
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            series = run_curve(spec, parallel=True, max_workers=2)
        assert [p.x for p in series.points] == [20, 30]
        reference = run_curve(one_curve_spec([20, 30], warmup=0.2,
                                             duration=0.5))
        for got, want in zip(series.points, reference.points):
            assert got.results == want.results

    def test_parallel_truncates_at_saturation_like_serial(self):
        spec = one_curve_spec([20, 100_000, 200_000], warmup=0.2)
        serial = run_curve(spec)
        parallel = run_curve(spec, parallel=True, max_workers=2)
        assert [p.x for p in serial.points] == \
            [p.x for p in parallel.points]
        assert 200_000 not in [p.x for p in parallel.points]

    def test_single_point_skips_worker_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single point must not start a pool")

        monkeypatch.setattr(api, "ProcessPoolExecutor", no_pool)
        series = run_curve(one_curve_spec([20], warmup=0.2, duration=0.5),
                           parallel=True)
        assert len(series.points) == 1


class InlinePool:
    """Stands in for the process pool: runs each submitted task here,
    so evaluations stay countable in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestEvaluationOrder:
    """A serial run without store or journal stops simulating a curve
    at its first saturated point; parallel and store runs evaluate
    every planned point up front.  All give the same output."""

    XS = (20, 100_000, 200_000)

    @pytest.fixture
    def spec(self):
        return one_curve_spec(self.XS, warmup=0.2, duration=0.5)

    @staticmethod
    def count_evaluations(monkeypatch):
        calls = []
        evaluate = api._evaluate_point

        def counting(task, *hooks):
            calls.append(task[0])
            return evaluate(task, *hooks)

        monkeypatch.setattr(api, "_evaluate_point", counting)
        return calls

    @staticmethod
    def canonical(result):
        return json.dumps(experiment_to_dict(result), sort_keys=True)

    def test_serial_run_is_lazy(self, spec):
        observed = []
        runner = api.ExperimentRunner(
            observe=lambda task, system, results: observed.append(task[0]))
        result = runner.run_one(spec)
        assert observed == [20, 100_000]
        assert result.series[0].xs() == [20, 100_000]

    def test_parallel_and_store_runs_are_eager(self, spec, monkeypatch,
                                               tmp_path):
        serial = self.canonical(api.ExperimentRunner().run_one(spec))
        parallel = self.canonical(
            api.ExperimentRunner(parallel=True, max_workers=2).run_one(spec))

        calls = self.count_evaluations(monkeypatch)
        monkeypatch.setattr(api, "ProcessPoolExecutor", InlinePool)
        api.ExperimentRunner(parallel=True, max_workers=2).run_one(spec)
        assert sorted(calls) == list(self.XS)

        calls.clear()
        runner = api.ExperimentRunner(store=ResultStore(str(tmp_path)))
        stored = self.canonical(runner.run_one(spec))
        assert calls == list(self.XS)
        assert runner.last_stats.misses == len(self.XS)

        assert serial == parallel == stored
