"""Tests for the experiment harness and experiment configurations."""

import dataclasses

import pytest

from repro.core.config import (
    CMConfig,
    DiskUnitType,
    LogAllocation,
    NVEM,
    NVEMConfig,
    PartitionConfig,
    SystemConfig,
    UpdateStrategy,
)
from repro.core.metrics import Results
from repro.experiments import api, runner
from repro.experiments.defaults import (
    db_disk_unit,
    debit_credit_config,
    default_cm,
    disk_only,
    disk_with_nv_cache_write_buffer,
    memory_resident,
    nvem_resident,
    nvem_write_buffer,
    second_level_cache_scheme,
    ssd_resident,
)
from repro.workload.debit_credit import DebitCreditWorkload


def fake_results(rt=0.05, saturated=False, committed=100):
    return Results(
        simulated_time=10.0, committed=committed, aborted=0,
        page_accesses=400, throughput=committed / 10.0,
        response_time_mean=rt, response_time_p95=rt * 2,
        response_time_max=rt * 3, response_by_type={},
        composition={}, hit_ratios={}, mm_hit_by_tag={},
        second_level_hit_by_tag={}, io_per_tx={}, lock_stats={},
        cpu_utilization=0.5, device_utilization={},
        saturated=saturated,
    )


class TestSeriesAndTables:
    def test_series_accessors(self):
        series = runner.Series("test")
        series.points.append(runner.SeriesPoint(10, fake_results(0.02)))
        series.points.append(runner.SeriesPoint(20, fake_results(0.04)))
        assert series.xs() == [10, 20]
        assert series.response_times_ms() == [pytest.approx(20),
                                              pytest.approx(40)]

    def test_table_rendering(self):
        result = runner.ExperimentResult(
            experiment_id="T", title="test", x_label="x", y_label="ms",
        )
        s1 = runner.Series("alpha")
        s1.points.append(runner.SeriesPoint(10, fake_results(0.02)))
        s2 = runner.Series("beta")
        s2.points.append(runner.SeriesPoint(10, fake_results(0.04,
                                                             saturated=True)))
        result.series = [s1, s2]
        result.notes.append("a note")
        table = result.to_table()
        assert "alpha" in table and "beta" in table
        assert "20.00" in table
        assert "40.00*" in table  # saturation marker
        assert "note: a note" in table

    def test_table_missing_points_dashed(self):
        result = runner.ExperimentResult("T", "t", "x", "y")
        s1 = runner.Series("a")
        s1.points.append(runner.SeriesPoint(10, fake_results()))
        s2 = runner.Series("b")
        s2.points.append(runner.SeriesPoint(20, fake_results()))
        result.series = [s1, s2]
        table = result.to_table()
        assert "-" in table

    def test_series_by_label(self):
        result = runner.ExperimentResult("T", "t", "x", "y")
        result.series.append(runner.Series("found"))
        assert result.series_by_label("found").label == "found"
        with pytest.raises(KeyError):
            result.series_by_label("missing")

    def test_sweep_stops_at_saturation(self):
        """The runner must truncate a curve at its first saturated point."""
        def build(rate):
            config = SystemConfig(
                partitions=[PartitionConfig("p", num_objects=100,
                                            block_factor=10,
                                            allocation=NVEM)],
                disk_units=[],
                nvem=NVEMConfig(),
                cm=CMConfig(mpl=2, buffer_size=16),
                log=LogAllocation(device=NVEM),
            )
            return config, DebitCreditWorkloadStub(rate)

        class DebitCreditWorkloadStub:
            def __init__(self, rate):
                self.rate = rate

            def start(self, system):
                from repro.core.transaction import ObjectRef, Transaction
                from repro.workload.base import PoissonArrivals

                def factory(n):
                    return Transaction(n, "t",
                                       [ObjectRef(0, n % 100, (n % 100) // 10,
                                                  True)])
                PoissonArrivals(self.rate, factory).start(system)

        profile = api.SweepProfile(xs=(50, 100_000, 200_000), warmup=0.2,
                                   duration=2.0)
        spec = api.ExperimentSpec(
            id="_saturation", title="t", x_label="x", y_label="y",
            curves=[api.CurveSpec(label="s", build=build)],
            profiles={"fast": profile, "full": profile})
        xs = api.ExperimentRunner().run_one(spec).series[0].xs()
        assert 50 in xs
        assert 200_000 not in xs  # curve truncated at saturation


class TestDefaultSchemes:
    def test_default_cm_matches_table_4_1(self):
        cm = default_cm()
        assert cm.num_cpus == 4
        assert cm.mips == 50.0
        assert cm.instr_bot == 40_000
        assert cm.instr_or == 40_000
        assert cm.instr_eot == 50_000
        assert cm.instr_io == 3_000
        assert cm.instr_nvem == 300
        assert cm.buffer_size == 2000
        # 250k instructions/tx at 200 MIPS -> 800 TPS theoretical max.
        per_tx = cm.instr_bot + 4 * cm.instr_or + cm.instr_eot
        assert per_tx == 250_000

    def test_all_schemes_validate(self):
        for scheme_fn in (disk_only, disk_with_nv_cache_write_buffer,
                          nvem_write_buffer, ssd_resident, nvem_resident,
                          memory_resident):
            config = debit_credit_config(scheme_fn())
            config.validate()

    def test_second_level_schemes_validate(self):
        for kind in ("none", "volatile", "nonvolatile", "write-buffer",
                     "nvem"):
            config = debit_credit_config(
                second_level_cache_scheme(kind, 1000)
            )
            config.validate()

    def test_second_level_unknown_kind(self):
        with pytest.raises(ValueError):
            second_level_cache_scheme("quantum", 1000)

    def test_cache_schemes_share_one_cache(self):
        """§4.5: the second-level cache is shared by all partitions."""
        config = debit_credit_config(
            second_level_cache_scheme("volatile", 1000)
        )
        cached_units = [u for u in config.disk_units
                        if u.unit_type == DiskUnitType.VOLATILE_CACHE]
        assert len(cached_units) == 1
        allocations = {p.allocation for p in config.partitions}
        assert allocations == {cached_units[0].name}

    def test_force_config(self):
        config = debit_credit_config(disk_only(),
                                     update_strategy=UpdateStrategy.FORCE)
        assert config.cm.update_strategy is UpdateStrategy.FORCE

    def test_table_4_1_device_timings(self):
        unit = db_disk_unit("x")
        assert unit.controller_delay == pytest.approx(0.001)
        assert unit.trans_delay == pytest.approx(0.0004)
        assert unit.disk_delay == pytest.approx(0.015)


class TestExperimentModules:
    """Each experiment module must build valid configurations."""

    def test_fig4_1_alternatives(self):
        from repro.experiments import fig4_1
        for label, scheme_fn in fig4_1.ALTERNATIVES:
            config = debit_credit_config(scheme_fn())
            config.validate()

    def test_fig4_8_configs(self):
        from repro.core.config import CCMode
        from repro.experiments.fig4_8 import ALLOCATIONS, build_config
        for _, small, large, log_dev in ALLOCATIONS:
            for cc_mode in (CCMode.PAGE, CCMode.OBJECT):
                build_config(small, large, log_dev, cc_mode, 100.0)

    def test_trace_setup_configs(self):
        from repro.experiments.trace_setup import trace_config, trace_for
        trace = trace_for(fast=True)
        for kind in ("none", "volatile", "nonvolatile", "nvem", "ssd",
                     "nvem-resident"):
            trace_config(trace, kind, 500).validate()

    def test_trace_setup_unknown_kind(self):
        from repro.experiments.trace_setup import trace_config, trace_for
        with pytest.raises(ValueError):
            trace_config(trace_for(fast=True), "tape", 500)

    def test_fig4_1_fast_run_has_expected_shape(self):
        spec = api.get_experiment("fig4_1")
        fast = dataclasses.replace(spec.profile("fast"), duration=3.0)
        spec = dataclasses.replace(spec, profiles={"fast": fast,
                                                   "full": fast})
        result = api.ExperimentRunner().run_one(spec, "fast")
        assert len(result.series) == 4
        single_disk = result.series_by_label("log on single disk")
        nvem_log = result.series_by_label("log in NVEM")
        # The single log disk cannot carry 500 TPS; NVEM can.
        assert max(single_disk.xs()) < 500 or \
            single_disk.points[-1].saturated
        assert 500 in nvem_log.xs()
        assert not nvem_log.points[-1].saturated
