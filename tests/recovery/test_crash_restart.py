"""Crash/restart tests: fault semantics, availability accounting, and
the simulated-vs-analytic cross-validation on a matched configuration."""

import pytest

from repro.core.config import UpdateStrategy
from repro.recovery import matched_recovery_model

from tests.recovery.conftest import (
    debit_credit_system,
    matched_synthetic_system,
)

#: Documented tolerance of the simulation ↔ analytic cross-validation.
#: The analytic model works from the *expected* exposure (half a
#: checkpoint interval at the nominal update rate); the simulation sees
#: the realized Poisson arrivals, in-flight transactions at the crash
#: boundary, and the replayer's per-page CPU charges.  On the matched
#: configuration (uniform distinct pages, zero propagated fraction,
#: crash exactly half an interval after a checkpoint) the deterministic
#: run lands within ~10%; 25% gives headroom for parameter tweaks
#: without hiding order-of-magnitude modeling errors.
CROSS_VALIDATION_REL_TOL = 0.25


class TestCrashSemantics:
    def test_crash_aborts_in_flight_and_clears_buffer(self):
        system = debit_credit_system(rate=40.0, interval=4.0,
                                     crash_times=(6.0,), prewarm=False)
        system.start_workload()
        system.env.run(until=5.99)
        assert len(system.bm.mm) > 0
        system.env.run(until=6.01)
        # The volatile buffer died with the CM; the restart replay is
        # in progress, nothing is executing, and the admission gate
        # holds any post-crash arrivals.
        assert system.tm.active == 0
        assert len(system.bm.mm) == 0
        assert system.tm._offline_gate is not None
        # The restart is still running.
        assert system.metrics.blocks["recovery"].crashes == 0

    def test_restart_reopens_admission_and_records_crash(self):
        system = debit_credit_system(rate=40.0, interval=4.0,
                                     crash_times=(6.0,), prewarm=False)
        results = system.run(warmup=0.0, duration=40.0)
        rec = results.recovery
        assert rec["crashes"] == 1.0
        assert rec["restart_time_mean"] > 0
        assert rec["availability"] < 1.0
        assert rec["restart_log_pages"] > 0
        assert rec["restart_redo_pages"] > 0
        # The system kept committing after the restart: delivered
        # throughput is positive and the gate reopened.
        assert results.committed > 0
        assert system.tm._offline_gate is None
        stats = system.recovery.crash_controller.restarts[0]
        assert stats.total == pytest.approx(rec["restart_time_mean"])
        assert stats.log_scan_time + stats.redo_time == \
            pytest.approx(stats.total)

    def test_crash_during_outage_is_skipped(self):
        """A crash instant inside a previous restart does not double-
        fail the module (the controller coalesces it)."""
        system = debit_credit_system(rate=40.0, interval=4.0,
                                     crash_times=(6.0, 6.5),
                                     prewarm=False)
        results = system.run(warmup=0.0, duration=40.0)
        assert results.recovery["crashes"] == 1.0

    def test_open_outage_charged_to_availability(self):
        """A window that ends mid-restart still reports the downtime."""
        system = debit_credit_system(rate=40.0, interval=4.0,
                                     crash_times=(6.0,), prewarm=False)
        results = system.run(warmup=0.0, duration=7.0)
        rec = results.recovery
        assert rec["crashes"] == 0.0  # the restart never finished
        assert rec["downtime"] == pytest.approx(1.0, rel=0.01)
        assert rec["availability"] == pytest.approx(6.0 / 7.0, rel=0.01)

    def test_disabled_recovery_reports_no_block(self):
        """With recovery off (the default) Results carries no recovery
        block and the availability accessors report perfect uptime."""
        from repro.core.model import TransactionSystem
        from repro.experiments.defaults import (
            debit_credit_config,
            disk_only,
        )
        from repro.workload.debit_credit import DebitCreditWorkload

        config = debit_credit_config(disk_only())
        assert not config.recovery.enabled
        system = TransactionSystem(
            config, DebitCreditWorkload(arrival_rate=40.0), seed=1)
        assert system.recovery is None
        results = system.run(warmup=0.0, duration=2.0)
        assert results.recovery is None
        assert results.availability == 1.0
        assert results.restart_time_mean == 0.0


class TestCrashKillsBackgroundWork:
    def test_pending_group_commit_flush_dies_with_the_cm(self):
        """A group-commit batch open at the crash must not write its
        log page during the outage: its members all aborted, and the
        restart replay is supposed to own the devices."""
        system = debit_credit_system(rate=20.0, interval=5.0,
                                     crash_times=(2.0,), prewarm=False)
        system.config.cm.group_commit_size = 50   # never fills at 20 TPS
        system.config.cm.group_commit_timeout = 3.0
        system.start_workload()
        system.env.run(until=1.9)
        batch = system.bm._group
        assert batch is not None  # a batch is open
        # The crash at t=2 interrupts the batch's flush process; its
        # timeout instant (batch creation + 3 s) falls inside the
        # restart (which ends ~4.6 s), so while the CM is down no
        # group-commit log write may occur.
        system.env.run(until=4.5)
        assert not system.tm.is_online  # restart still in progress
        assert batch.flush_proc.triggered  # the ghost was reaped...
        assert system.metrics.io_counts.get("group_commits") == 0
        # ...and after the restart, the released backlog group-commits
        # normally again (fresh batch, not the dead one).
        system.env.run(until=8.0)
        assert system.metrics.io_counts.get("group_commits") > 0
        assert system.bm._group is not batch

    def test_checkpoint_flush_workers_stop_at_the_crash(self):
        """Flush workers — including ones left over from an earlier
        checkpoint round — record no destage I/O during the outage."""
        system = debit_credit_system(rate=100.0, interval=1.0,
                                     crash_times=(3.5,), prewarm=False)
        system.start_workload()
        system.env.run(until=3.6)
        assert not system.tm.is_online  # restart in progress
        flushed_at_crash = system.metrics.io_counts.get(
            "checkpoint_flush")
        system.env.run(until=5.0)
        if not system.tm.is_online:
            assert system.metrics.io_counts.get("checkpoint_flush") == \
                flushed_at_crash


class TestStrategyAndPlacement:
    def test_force_restart_much_smaller_than_noforce(self):
        noforce = debit_credit_system(rate=40.0, interval=6.0,
                                      crash_times=(9.0,), prewarm=False)
        nf = noforce.run(warmup=0.0, duration=40.0)
        force = debit_credit_system(rate=40.0, interval=6.0,
                                    strategy=UpdateStrategy.FORCE,
                                    crash_times=(9.0,), prewarm=False)
        fo = force.run(warmup=0.0, duration=40.0)
        assert fo.recovery["restart_time_mean"] < \
            0.2 * nf.recovery["restart_time_mean"]
        # FORCE scans only the commit-window tail, not the whole
        # checkpoint exposure.
        assert fo.recovery["restart_log_pages"] < \
            0.5 * nf.recovery["restart_log_pages"]


class TestCrossValidation:
    def test_simulated_restart_matches_analytic_model(self):
        """Simulated restart ≈ RecoveryModel on a matched config.

        Crash at 15 s with checkpoints every 10 s: exposure is exactly
        half an interval — the analytic model's expectation.  The
        uniform 3-page update transactions give ~3 distinct modified
        pages per transaction, and the oversized buffer avoids
        replacement, so already_propagated_fraction is 0.
        """
        rate = 50.0
        system = matched_synthetic_system(rate=rate, interval=10.0,
                                          crash_at=15.0)
        system.run(warmup=0.0, duration=45.0)
        stats = system.recovery.crash_controller.restarts[0]

        model = matched_recovery_model(
            system.config, update_tps=rate,
            pages_modified_per_tx=3.0,
            already_propagated_fraction=0.0,
        )
        estimate = model.estimate(UpdateStrategy.NOFORCE)
        assert stats.total == pytest.approx(
            estimate.total, rel=CROSS_VALIDATION_REL_TOL)
        assert stats.log_scan_time == pytest.approx(
            estimate.log_scan_time, rel=CROSS_VALIDATION_REL_TOL)
        assert stats.redo_time == pytest.approx(
            estimate.redo_read_time + estimate.redo_write_time,
            rel=CROSS_VALIDATION_REL_TOL)

    def test_matched_model_force_estimate_is_flat_and_tiny(self):
        system = matched_synthetic_system()
        model = matched_recovery_model(system.config, update_tps=50.0)
        short = model.estimate(UpdateStrategy.FORCE)
        model.checkpoint_interval = 1000.0
        long = model.estimate(UpdateStrategy.FORCE)
        assert short.total == pytest.approx(long.total)
        assert short.total < 1.0
