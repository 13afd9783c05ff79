"""Unit tests for metrics collection (repro.core.metrics)."""

import pytest

from repro.core.metrics import MetricsCollector, Results
from repro.core.transaction import Transaction
from repro.recovery.crash import RecoveryBlock
from repro.sim import Environment


def make_tx(tx_id=1, tx_type="t"):
    return Transaction(tx_id, tx_type, [])


class TestCollector:
    def test_commit_accumulates_response(self):
        env = Environment()
        m = MetricsCollector(env)
        m.record_commit(make_tx(), 0.05)
        m.record_commit(make_tx(2), 0.15)
        assert m.committed == 2
        assert m.response.mean() == pytest.approx(0.10)

    def test_by_type_responses(self):
        env = Environment()
        m = MetricsCollector(env)
        m.record_commit(make_tx(1, "a"), 0.1)
        m.record_commit(make_tx(2, "b"), 0.3)
        assert m.response_by_type["a"].mean() == pytest.approx(0.1)
        assert m.response_by_type["b"].mean() == pytest.approx(0.3)

    def test_composition_sums_transaction_timers(self):
        env = Environment()
        m = MetricsCollector(env)
        tx = make_tx()
        tx.wait_cpu = 0.01
        tx.service_cpu = 0.02
        tx.wait_lock = 0.03
        m.record_commit(tx, 0.06)
        assert m.composition_totals["cpu_wait"] == pytest.approx(0.01)
        assert m.composition_totals["cpu_service"] == pytest.approx(0.02)
        assert m.composition_totals["lock_wait"] == pytest.approx(0.03)

    def test_reset_clears_everything(self):
        env = Environment()
        m = MetricsCollector(env)
        m.record_commit(make_tx(), 0.05)
        m.record_page_access("p", "disk")
        m.record_io("db_read")
        m.record_deadlock()
        m.reset()
        assert m.committed == 0
        assert m.page_access.total() == 0
        assert m.io_counts.total() == 0
        assert m.lock_counts.total() == 0

    def test_page_access_by_tag(self):
        env = Environment()
        m = MetricsCollector(env)
        m.record_page_access("ACCOUNT", "disk")
        m.record_page_access("ACCOUNT", "main_memory")
        m.record_page_access("BRANCH", "main_memory")
        assert m.page_access_by_tag["ACCOUNT"].total() == 2
        assert m.page_access_by_tag["BRANCH"].get("main_memory") == 1


class TestFinalize:
    def run_scenario(self):
        env = Environment()
        m = MetricsCollector(env)

        def proc(env):
            yield env.timeout(10.0)

        env.process(proc(env))
        tx = make_tx()
        tx.wait_sync_io = 0.01
        m.record_commit(tx, 0.1)
        m.record_commit(make_tx(2), 0.2)
        for _ in range(6):
            m.record_page_access("p", "main_memory")
        for _ in range(2):
            m.record_page_access("p", "disk")
        m.record_io("db_read")
        m.record_io("db_read")
        m.record_lock_request(True)
        m.record_lock_request(False)
        m.record_lock_wait(0.5)
        env.run()
        return m.finalize(cpu_utilization=0.5, device_utilization={})

    def test_throughput(self):
        results = self.run_scenario()
        assert results.throughput == pytest.approx(0.2)

    def test_hit_ratios(self):
        results = self.run_scenario()
        assert results.hit_ratio("main_memory") == pytest.approx(0.75)
        assert results.hit_ratio("disk") == pytest.approx(0.25)
        assert results.hit_ratio("nvem_cache") == 0.0

    def test_io_per_tx(self):
        results = self.run_scenario()
        assert results.io_per_tx["db_read"] == pytest.approx(1.0)

    def test_lock_stats(self):
        results = self.run_scenario()
        assert results.lock_stats["requests_per_tx"] == pytest.approx(1.0)
        assert results.lock_stats["conflict_ratio"] == pytest.approx(0.5)
        assert results.lock_stats["mean_lock_wait"] == pytest.approx(0.5)

    def test_response_time_ms(self):
        results = self.run_scenario()
        assert results.response_time_ms == pytest.approx(150.0)

    def test_normalized_response_time(self):
        results = self.run_scenario()
        # 0.3 s total response over 8 accesses, scaled to 4 accesses.
        assert results.normalized_response_time(4) == pytest.approx(0.15)

    def test_normalized_response_no_accesses(self):
        env = Environment()
        m = MetricsCollector(env)
        results = m.finalize(0.0, {})
        assert results.normalized_response_time(10) == 0.0

    def test_summary_renders(self):
        results = self.run_scenario()
        text = results.summary()
        assert "throughput" in text
        assert "hit ratios" in text

    def test_summary_marks_saturation(self):
        results = self.run_scenario()
        results.saturated = True
        assert "saturated" in results.summary()


class _FakeRestartStats:
    def __init__(self, log_pages=10, redo_pages=20,
                 log_scan=1.0, redo=2.0):
        self.log_pages = log_pages
        self.redo_pages = redo_pages
        self.log_scan_time = log_scan
        self.redo_time = redo


class TestRecoveryCounters:
    def test_no_block_unless_enabled(self):
        env = Environment()
        m = MetricsCollector(env)
        assert m.finalize(0.0, {}).recovery is None

    def test_enabled_but_crash_free_reports_full_availability(self):
        env = Environment()
        m = MetricsCollector(env)
        m.block("recovery", RecoveryBlock)
        env.run(until=10.0)
        rec = m.finalize(0.0, {}).recovery
        assert rec["crashes"] == 0.0
        assert rec["availability"] == 1.0
        assert rec["restart_time_mean"] == 0.0

    def test_crash_accumulates_downtime_and_breakdown(self):
        env = Environment()
        m = MetricsCollector(env)
        block = m.block("recovery", RecoveryBlock)
        block.checkpoints += 1
        env.run(until=4.0)
        m.outage.start()
        env.run(until=7.0)
        block.record_crash(3.0, _FakeRestartStats())
        env.run(until=10.0)
        rec = m.finalize(0.0, {}).recovery
        assert rec["crashes"] == 1.0
        assert rec["checkpoints"] == 1.0
        assert rec["downtime"] == pytest.approx(3.0)
        assert rec["availability"] == pytest.approx(0.7)
        assert rec["restart_time_mean"] == pytest.approx(3.0)
        assert rec["restart_log_pages"] == 10.0
        assert rec["restart_redo_pages"] == 20.0
        assert rec["restart_log_scan_time"] == pytest.approx(1.0)
        assert rec["restart_redo_time"] == pytest.approx(2.0)

    def test_open_outage_charged_and_clipped_to_window(self):
        env = Environment()
        m = MetricsCollector(env)
        m.block("recovery", RecoveryBlock)
        env.run(until=4.0)
        m.reset()  # warm-up boundary at t=4
        env.run(until=6.0)
        m.outage.start()
        env.run(until=10.0)
        rec = m.finalize(0.0, {}).recovery
        assert rec["crashes"] == 0.0
        assert rec["downtime"] == pytest.approx(4.0)
        assert rec["availability"] == pytest.approx(1.0 - 4.0 / 6.0)

    def test_restart_spanning_warmup_clips_availability_not_mttr(self):
        """A restart that began before the warm-up boundary charges
        only its in-window part to availability, while MTTR reports
        the true restart duration."""
        env = Environment()
        m = MetricsCollector(env)
        block = m.block("recovery", RecoveryBlock)
        env.run(until=8.0)
        m.outage.start()
        env.run(until=10.0)
        m.reset()  # warm-up boundary at t=10, restart still running
        env.run(until=13.0)
        block.record_crash(5.0, _FakeRestartStats())
        env.run(until=20.0)
        rec = m.finalize(0.0, {}).recovery
        # Only t=10..13 of the 5 s restart fell inside the window.
        assert rec["downtime"] == pytest.approx(3.0)
        assert rec["availability"] == pytest.approx(0.7)
        assert rec["restart_time_mean"] == pytest.approx(5.0)

    def test_reset_clears_recovery_counters(self):
        env = Environment()
        m = MetricsCollector(env)
        block = m.block("recovery", RecoveryBlock)
        block.checkpoints += 1
        m.outage.start()
        block.record_crash(3.0, _FakeRestartStats())
        m.reset()
        env.run(until=10.0)
        rec = m.finalize(0.0, {}).recovery
        assert rec["crashes"] == 0.0
        assert rec["downtime"] == 0.0
        assert rec["availability"] == 1.0

    def test_summary_includes_availability_line(self):
        env = Environment()
        m = MetricsCollector(env)
        block = m.block("recovery", RecoveryBlock)
        m.outage.start()
        block.record_crash(2.0, _FakeRestartStats())
        env.run(until=10.0)
        text = m.finalize(0.0, {}).summary()
        assert "availability" in text
        assert "MTTR" in text
