"""Union accounting for the collector's outage and degraded windows.

Overlapping down-intervals (two nodes down at once, a media rebuild
spanning a crash) must charge the wall-clock once — availability can
never go negative because two outages overlapped.
"""

import pytest

from repro.core.metrics import MetricsCollector
from repro.recovery.crash import RecoveryBlock, RestartStats
from repro.sim import Environment


def outage_start(m):
    m.outage.start()


def outage_end(m):
    m.outage.end()


def degraded_start(m):
    m.degraded.start()


def degraded_end(m):
    m.degraded.end()


def record_crash(*args, **kwargs):
    return lambda m: m.block("recovery", RecoveryBlock).record_crash(
        *args, **kwargs)


def run_script(steps):
    """Drive a collector through ``(at, call)`` steps; returns it."""
    env = Environment()
    metrics = MetricsCollector(env)

    def driver():
        for at, call in steps:
            delay = at - env.now
            if delay > 0:
                yield env.timeout(delay)
            call(metrics)

    env.process(driver())
    env.run()
    return metrics


class TestOutageUnion:
    def test_overlapping_outages_charge_once(self):
        metrics = run_script([
            (1.0, outage_start),
            (2.0, outage_start),
            (3.0, outage_end),
            (4.0, outage_end),
        ])
        assert metrics.outage.total() == pytest.approx(3.0)

    def test_nested_outage_charges_outer_interval(self):
        metrics = run_script([
            (1.0, outage_start),
            (2.0, outage_start),
            (3.0, outage_end),
            (5.0, outage_end),
        ])
        assert metrics.outage.total() == pytest.approx(4.0)

    def test_disjoint_outages_sum(self):
        metrics = run_script([
            (1.0, outage_start),
            (2.0, outage_end),
            (3.0, outage_start),
            (4.0, outage_end),
        ])
        assert metrics.outage.total() == pytest.approx(2.0)

    def test_outage_spanning_measure_start_is_clipped(self):
        """The warm-up reset lands mid-outage: only the part inside the
        measured window is charged."""
        metrics = run_script([
            (1.0, outage_start),
            (2.0, MetricsCollector.reset),
            (5.0, outage_end),
        ])
        assert metrics.measure_start == pytest.approx(2.0)
        assert metrics.outage.total() == pytest.approx(3.0)

    def test_unmatched_end_is_harmless(self):
        metrics = run_script([
            (1.0, outage_end),
            (2.0, outage_start),
            (3.0, outage_end),
        ])
        assert metrics.outage.total() == pytest.approx(1.0)


class TestRecordCrash:
    def test_record_crash_closes_the_open_outage(self):
        stats = RestartStats(log_pages=7, redo_pages=5,
                             log_scan_time=0.5, redo_time=1.5)
        metrics = run_script([
            (1.0, outage_start),
            (4.0, record_crash(3.0, stats)),
        ])
        assert metrics.outage.total() == pytest.approx(3.0)
        block = metrics.blocks["recovery"]
        assert block.downtime_total == pytest.approx(3.0)
        assert block.crashes == 1
        assert block.redo_pages == 5

    def test_outage_open_false_leaves_union_clock_alone(self):
        """Online redo closes its outage at admission, long before the
        crash is recorded: record_crash must not close it again."""
        stats = RestartStats()
        metrics = run_script([
            (1.0, outage_start),
            (2.0, outage_end),
            (6.0, record_crash(1.0, stats, outage_open=False)),
        ])
        # Union charged at t=2; the later record does not extend it.
        assert metrics.outage.total() == pytest.approx(1.0)
        assert metrics.blocks["recovery"].downtime_total == \
            pytest.approx(1.0)


class TestDegradedUnion:
    def test_overlapping_degraded_windows_charge_once(self):
        """A media rebuild overlapping an online-redo pass degrades the
        system once, not twice."""
        metrics = run_script([
            (1.0, degraded_start),
            (2.0, degraded_start),
            (4.0, degraded_end),
            (6.0, degraded_end),
        ])
        assert metrics.degraded.total() == pytest.approx(5.0)

    def test_degraded_clipped_to_measured_window(self):
        metrics = run_script([
            (1.0, degraded_start),
            (3.0, MetricsCollector.reset),
            (7.0, degraded_end),
        ])
        assert metrics.degraded.total() == pytest.approx(4.0)
