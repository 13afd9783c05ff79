"""Property test: span accounting holds across seeds, rates and
schemes.

For any traced run, a committed transaction's phase spans must be
mutually non-overlapping and sum (within float tolerance) to its
measured arrival-to-commit response time.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import TransactionSystem
from repro.experiments.defaults import (
    debit_credit_config,
    disk_only,
    nvem_resident,
)
from repro.trace import check_span_accounting
from repro.workload.debit_credit import DebitCreditWorkload

SCHEMES = {"disk": disk_only, "nvem": nvem_resident}


def _traced_run(scheme: str, rate: float, seed: int):
    config = debit_credit_config(SCHEMES[scheme]())
    config.trace = dataclasses.replace(config.trace, enabled=True)
    system = TransactionSystem(
        config, DebitCreditWorkload(arrival_rate=rate), seed=seed)
    results = system.run(warmup=0.3, duration=0.8)
    return system, results


# The ``[heap]`` id names the event structure the traced runs dispatch on.
@pytest.mark.parametrize((), [pytest.param(id="heap")])
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    rate=st.sampled_from([60.0, 150.0, 300.0]),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=6, deadline=None)
def test_phase_spans_tile_response_time(scheme, rate, seed):
    system, results = _traced_run(scheme, rate, seed)
    report = check_span_accounting(system.tracer.spans,
                                   system.tracer.measure_start,
                                   tolerance=1e-9)
    # Spans exist whenever anything committed inside the window.
    if results.committed:
        roots = [s for s in system.tracer.spans if s[0] == "tx"]
        assert len(roots) >= report["transactions"]
    assert report["max_residual"] <= 1e-9
