"""Tests for the experiment API: specs, registry, figure-wide runner."""

import dataclasses

import pytest

from repro.core.model import TransactionSystem
from repro.experiments import api
from repro.experiments.runner import ExperimentResult, point_seed
from tests.experiments.conftest import make_tiny_spec, tiny_build

BUILTIN_IDS = [
    "fig4_1", "fig4_2", "fig4_3", "fig4_4", "fig4_5", "fig4_6",
    "fig4_7", "fig4_8", "table4_2", "ablation_group_commit",
    "ablation_async_replacement", "ablation_deferred_propagation",
    "ablation_migration_modes",
]


class TestRegistry:
    def test_all_builtin_experiments_registered(self):
        ids = api.experiment_ids()
        for exp_id in BUILTIN_IDS:
            assert exp_id in ids

    def test_get_experiment_resolves_and_caches(self):
        spec = api.get_experiment("fig4_1")
        assert spec.id == "fig4_1"
        assert api.get_experiment("fig4_1") is spec

    def test_unknown_id_raises_with_listing(self):
        with pytest.raises(KeyError, match="fig4_1"):
            api.get_experiment("fig9_9")

    def test_duplicate_registration_rejected(self, tiny_spec):
        with pytest.raises(ValueError, match="already registered"):
            api.register(tiny_spec.id, lambda: tiny_spec)

    def test_mismatched_spec_id_rejected(self):
        api.register("_wrong_id", lambda: make_tiny_spec("_other"))
        try:
            with pytest.raises(ValueError, match="_wrong_id"):
                api.get_experiment("_wrong_id")
        finally:
            api.unregister("_wrong_id")

    def test_decorator_registers(self):
        @api.experiment("_decorated")
        def factory():
            return make_tiny_spec("_decorated")

        try:
            assert api.get_experiment("_decorated").id == "_decorated"
        finally:
            api.unregister("_decorated")


class TestSpec:
    def test_missing_profile_rejected(self):
        with pytest.raises(ValueError, match="fast"):
            api.ExperimentSpec(
                id="x", title="t", x_label="x", y_label="y", curves=[],
                profiles={"full": api.SweepProfile(xs=(1.0,))},
            )

    def test_unknown_profile_name(self, tiny_spec):
        with pytest.raises(KeyError, match="warp"):
            tiny_spec.profile("warp")

    def test_curves_may_depend_on_profile(self):
        def curves(profile):
            n = 1 if profile == "fast" else 3
            return [api.CurveSpec(label=f"c{i}", build=tiny_build)
                    for i in range(n)]

        spec = make_tiny_spec("_dynamic")
        spec.curves = curves
        assert len(spec.curves_for("fast")) == 1
        assert len(spec.curves_for("full")) == 3

    def test_default_render_uses_metric(self):
        spec = make_tiny_spec("_fmt")
        spec.metric = lambda r: r.throughput
        spec.metric_fmt = "{:8.1f}"
        result = ExperimentResult("_fmt", "t", "x", "y")
        assert "(y = y)" in spec.render(result)

    def test_custom_renderer_wins(self):
        spec = make_tiny_spec("_render")
        spec.renderer = lambda result: f"custom:{result.experiment_id}"
        assert spec.render(ExperimentResult("_render", "t", "x", "y")) \
            == "custom:_render"


class TestRunner:
    def test_serial_run_shape(self, tiny_spec):
        result = api.ExperimentRunner().run_one(tiny_spec.id, "full")
        assert result.experiment_id == tiny_spec.id
        assert [s.label for s in result.series] == ["alpha", "beta"]
        assert all(s.xs() == [20.0, 40.0] for s in result.series)

    def test_parallel_matches_serial_byte_identically(self, tiny_spec):
        serial = api.ExperimentRunner().run_one(tiny_spec, "full")
        parallel = api.ExperimentRunner(
            parallel=True, max_workers=2).run_one(tiny_spec, "full")
        assert len(serial.series) == len(parallel.series)
        for ss, ps in zip(serial.series, parallel.series):
            assert ss.xs() == ps.xs()
            for sp, pp in zip(ss.points, ps.points):
                assert sp.results == pp.results

    def test_figure_wide_queue_spans_experiments(self, tiny_spec):
        """run() schedules several experiments through one pool and
        returns them keyed by id, identical to the serial path."""
        other = make_tiny_spec("_tiny2")
        serial = api.ExperimentRunner().run([tiny_spec, other], "fast")
        parallel = api.ExperimentRunner(parallel=True, max_workers=2).run(
            [tiny_spec, other], "fast")
        assert list(serial) == [tiny_spec.id, "_tiny2"]
        assert list(parallel) == [tiny_spec.id, "_tiny2"]
        for exp_id in serial:
            for ss, ps in zip(serial[exp_id].series,
                              parallel[exp_id].series):
                for sp, pp in zip(ss.points, ps.points):
                    assert sp.results == pp.results

    def test_point_seeds_match_legacy_sweep(self, tiny_spec):
        """Point i of a curve is the system built from the curve's
        inputs with seed ``point_seed(spec.seed, i)``, run for the
        profile's window: the runner adds nothing of its own."""
        result = api.ExperimentRunner().run_one(tiny_spec, "full")
        profile = tiny_spec.profile("full")
        points = result.series[0].points
        assert [p.x for p in points] == list(profile.xs)
        for i, point in enumerate(points):
            config, workload = tiny_build(point.x)
            system = TransactionSystem(
                config, workload, seed=point_seed(tiny_spec.seed, i))
            expected = system.run(warmup=profile.warmup,
                                  duration=profile.duration)
            assert point.results == expected

    def test_truncation_post_hoc(self):
        """Parallel evaluation truncates each curve at its first
        saturated point, like the serial early-stop."""
        spec = make_tiny_spec("_sat", xs=(20.0, 100_000.0, 200_000.0))
        serial = api.ExperimentRunner().run_one(spec, "full")
        parallel = api.ExperimentRunner(
            parallel=True, max_workers=2).run_one(spec, "full")
        for series in (serial.series[0], parallel.series[0]):
            assert 200_000.0 not in series.xs()
        assert serial.series[0].xs() == parallel.series[0].xs()

    def test_no_truncation_when_disabled(self):
        spec = make_tiny_spec("_nosat", xs=(20.0, 100_000.0))
        spec.truncate_on_saturation = False
        result = api.ExperimentRunner().run_one(spec, "full")
        assert result.series[0].xs() == [20.0, 100_000.0]

    def test_duration_override(self, tiny_spec):
        """A profile replaced with a shorter duration runs that long."""
        fast = dataclasses.replace(tiny_spec.profile("fast"), duration=0.3)
        spec = dataclasses.replace(tiny_spec, profiles={
            "fast": fast, "full": tiny_spec.profile("full")})
        result = api.ExperimentRunner().run_one(spec, "fast")
        point = result.series[0].points[0]
        assert point.results.simulated_time == pytest.approx(0.3, abs=0.2)

    def test_seed_spreads_across_points(self):
        assert point_seed(1, 0) != point_seed(1, 1)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            api.ExperimentRunner(parallel=True, max_workers=0)

    def test_failed_builtin_load_is_retried(self, monkeypatch):
        """A failed discovery pass must not cache a partial registry."""
        import repro.experiments.api as api_mod

        monkeypatch.setattr(api_mod, "_BUILTINS_STATE", "unloaded")

        def boom(name):
            raise ImportError("transient")

        with monkeypatch.context() as m:
            m.setattr(api_mod.importlib, "import_module", boom)
            with pytest.raises(ImportError):
                api_mod.load_builtin_specs()
        assert api_mod._BUILTINS_STATE == "unloaded"
        api_mod.load_builtin_specs()  # real imports succeed now
        assert api_mod._BUILTINS_STATE == "loaded"


class TestNoHardcodedExperimentImports:
    """Guard: the CLI and report_all resolve experiments only through
    the registry — no figure/table module is imported by name."""

    MODULE_NAMES = {"fig4_1", "fig4_2", "fig4_3", "fig4_4", "fig4_5",
                    "fig4_6", "fig4_7", "fig4_8", "table4_2", "ablations"}

    @staticmethod
    def _source(module):
        import importlib.util

        spec = importlib.util.find_spec(module)
        with open(spec.origin, encoding="utf-8") as fh:
            return fh.read()

    @classmethod
    def _imported_names(cls, module):
        import ast

        names = set()
        for node in ast.walk(ast.parse(cls._source(module))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    names.update(node.module.split("."))
                for alias in node.names:
                    names.add(alias.name)
        return names

    @pytest.mark.parametrize("module", ["repro.cli",
                                        "repro.experiments.report_all"])
    def test_no_experiment_module_imported_by_name(self, module):
        offending = self._imported_names(module) & self.MODULE_NAMES
        assert not offending, \
            f"{module} imports experiment module(s) by name: {offending}"

    def test_cli_does_not_sniff_signatures(self):
        source = self._source("repro.cli")
        assert "importlib" not in source
        assert "inspect.signature" not in source
