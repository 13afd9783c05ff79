"""Figure 4.6 — impact of the main-memory buffer size for the
real-life (trace) workload.

The main-memory buffer varies from 100 to 2000 pages; second-level
caches (volatile disk cache, non-volatile disk cache, NVEM cache) have
a fixed 2000-page size.  Complete database allocations to SSD and NVEM
are included for reference.  Response times are normalized to the
paper's "artificial transaction performing the average number of
database accesses".

Expected shape (paper): growing the MM buffer helps most when it is the
only cache; with any second-level cache, good response times are
reached already at small MM sizes.  Volatile and non-volatile disk
caches achieve nearly identical hit ratios on this read-dominated load
(non-volatile slightly faster thanks to buffered log writes); NVEM
caching stays ahead because it avoids double caching (it receives all
pages replaced from main memory, not just modified ones).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.runner import ExperimentResult
from repro.experiments.trace_setup import (
    ARRIVAL_RATE,
    MEAN_TX_SIZE,
    trace_config,
    trace_for,
    trace_workload,
)

__all__ = ["CONFIGURATIONS", "normalized_table", "spec"]

MM_SIZES = [100, 250, 500, 1000, 2000]
FAST_MM_SIZES = [250, 1000]
SECOND_LEVEL = 2000

CONFIGURATIONS = [
    ("MM caching only", "none"),
    ("vol. disk cache 2000", "volatile"),
    ("nv disk cache 2000", "nonvolatile"),
    ("NVEM cache 2000", "nvem"),
    ("SSD", "ssd"),
    ("NVEM-resident", "nvem-resident"),
]


def _curves(profile: str) -> List[CurveSpec]:
    trace = trace_for(profile == "fast")

    def curve(label, kind):
        def build(mm: float) -> Tuple:
            config = trace_config(trace, kind, int(mm),
                                  second_level=SECOND_LEVEL)
            return config, trace_workload(trace)

        return CurveSpec(label=label, build=build)

    return [curve(label, kind) for label, kind in CONFIGURATIONS]


def normalized_table(result: ExperimentResult) -> str:
    return result.to_table(
        metric=lambda r: r.normalized_response_time(MEAN_TX_SIZE) * 1000,
        fmt="{:8.1f}",
    )


@experiment("fig4_6")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_6",
        title="Impact of MM buffer size for the real-life workload "
              f"({ARRIVAL_RATE:g} TPS, 2nd-level={SECOND_LEVEL})",
        x_label="MM buffer (pages)",
        y_label=f"normalized response time (ms, {MEAN_TX_SIZE:g}-access "
                "tx)",
        curves=_curves,
        profiles={
            "full": SweepProfile(xs=tuple(MM_SIZES), warmup=4.0,
                                 duration=45.0),
            "fast": SweepProfile(xs=tuple(FAST_MM_SIZES), warmup=4.0,
                                 duration=15.0),
        },
        notes=(
            "expected: 2nd-level caches flatten the MM-size curve; "
            "volatile ~= non-volatile hit ratios (read-dominated); NVEM "
            "cache best",
        ),
        metric=lambda r: r.normalized_response_time(MEAN_TX_SIZE) * 1000,
        metric_fmt="{:8.1f}",
    )
