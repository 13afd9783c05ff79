"""Figure 4.7 — impact of the second-level buffer size for the
real-life (trace) workload.

The main-memory buffer is fixed at 1000 pages; the second-level cache
varies from 0 (main-memory caching only) to 5000 pages for a volatile
disk cache, a non-volatile disk cache and an NVEM cache.

Expected shape (paper): small disk caches achieve little because the
hottest pages are double-cached in main memory; hit ratios (and
response-time gains) appear as the cache grows beyond the MM buffer.
Volatile and non-volatile disk caches perform nearly identically for
this read-dominated load; the NVEM cache is the most effective at every
size.
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

__all__ = ["KINDS", "normalized_table", "spec"]

CACHE_SIZES = [0, 1000, 2000, 3000, 5000]
FAST_CACHE_SIZES = [0, 2000]
MM_BUFFER = 1000

KINDS = [
    ("vol. disk cache", "volatile"),
    ("nv disk cache", "nonvolatile"),
    ("NVEM cache", "nvem"),
]


def _curves(profile: str) -> List[CurveSpec]:
    trace = trace_for(profile == "fast")

    def curve(label, kind):
        def build(size: float) -> Tuple:
            actual_kind = "none" if size == 0 else kind
            config = trace_config(trace, actual_kind, MM_BUFFER,
                                  second_level=max(int(size), 1))
            return config, trace_workload(trace)

        return CurveSpec(label=label, build=build)

    return [curve(label, kind) for label, kind in KINDS]


def normalized_table(result: ExperimentResult) -> str:
    return result.to_table(
        metric=lambda r: r.normalized_response_time(MEAN_TX_SIZE) * 1000,
        fmt="{:8.1f}",
    )


@experiment("fig4_7")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_7",
        title="Impact of 2nd-level buffer size for the real-life "
              f"workload (MM={MM_BUFFER}, {ARRIVAL_RATE:g} TPS)",
        x_label="2nd-level cache (pages)",
        y_label=f"normalized response time (ms, {MEAN_TX_SIZE:g}-access "
                "tx)",
        curves=_curves,
        profiles={
            "full": SweepProfile(xs=tuple(CACHE_SIZES), warmup=4.0,
                                 duration=45.0),
            "fast": SweepProfile(xs=tuple(FAST_CACHE_SIZES), warmup=4.0,
                                 duration=15.0),
        },
        notes=(
            "expected: gains appear once the cache exceeds the "
            "1000-page MM buffer; NVEM most effective; volatile ~= "
            "non-volatile",
        ),
        metric=lambda r: r.normalized_response_time(MEAN_TX_SIZE) * 1000,
        metric_fmt="{:8.1f}",
    )
