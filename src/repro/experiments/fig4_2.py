"""Figure 4.2 — impact of database allocation (Debit-Credit, NOFORCE).

Six alternatives for allocating database partitions and the log:

1. everything on plain disks;
2. disks with non-volatile caches used as write buffers;
3. plain disks with a write buffer in NVEM;
4. everything on solid-state disks;
5. everything NVEM-resident;
6. database main-memory-resident, log on disk.

Expected shape (paper): disk slowest; the two write-buffer variants cut
response times roughly in half (the NVEM write buffer marginally
better); SSD and NVEM-resident are fastest; memory-resident sits above
NVEM-resident by exactly the log-disk latency, and overtakes SSD only
near CPU saturation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.defaults import (
    debit_credit_config,
    disk_only,
    disk_with_nv_cache_write_buffer,
    memory_resident,
    nvem_resident,
    nvem_write_buffer,
    ssd_resident,
)
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["ALTERNATIVES", "spec"]

RATES = [10, 100, 200, 300, 400, 500, 600, 700]
FAST_RATES = [100, 500]

ALTERNATIVES = [
    ("disk", disk_only),
    ("disk cache WB", disk_with_nv_cache_write_buffer),
    ("NVEM WB", nvem_write_buffer),
    ("SSD", ssd_resident),
    ("NVEM-resident", nvem_resident),
    ("memory+log disk", memory_resident),
]


def _curves() -> List[CurveSpec]:
    def curve(label, scheme_fn):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(scheme_fn())
            workload = DebitCreditWorkload(arrival_rate=rate)
            return config, workload

        return CurveSpec(label=label, build=build)

    return [curve(label, scheme_fn) for label, scheme_fn in ALTERNATIVES]


@experiment("fig4_2")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_2",
        title="Impact of database allocation (Debit-Credit, NOFORCE)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms); * = saturated",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(RATES), warmup=3.0, duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_RATES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: disk > write-buffer variants (factor ~2) > memory "
            "> SSD > NVEM; memory = NVEM + one 6.4 ms log I/O",
        ),
    )
