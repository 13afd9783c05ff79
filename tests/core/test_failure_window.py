"""The run-window rule of ``measured_run``.

A scheduled crash or media loss must fall inside the measured window:
one at or before the end of the warm-up is rejected before the
workload starts.  Transient faults may fall anywhere, warm-up included.
"""

import pytest

from repro.cluster import cluster_config, node_scheme
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.core.config import DeviceFault
from repro.core.model import check_run_window
from tests.recovery.conftest import (
    debit_credit_system,
    media_synthetic_config,
    media_synthetic_system,
)


@pytest.mark.parametrize("crash_at", [1.0, 2.0])
def test_transaction_system_rejects_crash_in_warmup(crash_at):
    system = debit_credit_system(crash_times=(crash_at,))
    with pytest.raises(ValueError, match=(
            rf"crash at {crash_at:g} s <= end of warmup 2 s")):
        system.run(warmup=2.0, duration=4.0)
    assert not system._started and system.env.now == 0.0


@pytest.mark.parametrize("lose_at", [0.5, 1.0])
def test_transaction_system_rejects_media_loss_in_warmup(lose_at):
    system = media_synthetic_system(
        faults=(DeviceFault(device="db0", time=lose_at, kind="loss"),))
    with pytest.raises(ValueError, match="loss of db0 must fall inside"):
        system.run(warmup=1.0, duration=2.0)
    assert not system._started


def test_cluster_system_rejects_crash_in_warmup():
    config = cluster_config(scheme=node_scheme(), num_nodes=2,
                            crash_schedule=((1, 1.0),))
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=20.0)
    system = config.build_system(workload, seed=1)
    with pytest.raises(ValueError, match="crash of node 1 must fall"):
        system.run(warmup=1.0, duration=2.0)
    assert not system._started


def test_transient_fault_in_warmup_still_runs():
    system = media_synthetic_system(faults=(DeviceFault(
        device="db0", time=0.5, kind="transient", duration=0.2),))
    results = system.run(warmup=1.0, duration=2.0)
    assert results.committed > 0


def test_window_starts_at_the_current_instant():
    config = media_synthetic_config(
        faults=(DeviceFault(device="db0", time=3.5, kind="loss"),))
    check_run_window(config, 0.0, 3.0, 1.0)
    with pytest.raises(ValueError, match="end of warmup 4 s"):
        check_run_window(config, 1.0, 3.0, 1.0)


def test_crash_times_of_a_disabled_recovery_never_fire():
    system = debit_credit_system(crash_times=(1.0,))
    system.config.recovery.enabled = False
    assert system.config.failure_instants() == []
