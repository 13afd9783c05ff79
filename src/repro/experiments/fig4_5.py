"""Figure 4.5 — impact of the second-level buffer size
(Debit-Credit, NOFORCE, 500 TPS, main-memory buffer 500 pages).

The second-level cache size varies from 200 to 5000 pages for a
volatile disk cache, a non-volatile disk cache and an NVEM cache.  The
figure has two panels: (a) response times and (b) the hit ratio the
second-level cache adds on top of the ~59.5% main-memory hit ratio.

Expected shape (paper): NVEM caching is best at every size; volatile
disk caches achieve nothing until they exceed the main-memory buffer
size (double caching); non-volatile caches sit in between, their
response advantage coming mostly from write absorption.
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
    second_level_cache_scheme,
)
from repro.experiments.runner import ExperimentResult
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["KINDS", "hit_table", "spec"]

CACHE_SIZES = [200, 500, 1000, 2000, 5000]
FAST_CACHE_SIZES = [500, 2000]
MM_BUFFER = 500
ARRIVAL_RATE = 500.0

KINDS = [
    ("vol. disk cache", "volatile"),
    ("nv disk cache", "nonvolatile"),
    ("NVEM buffer", "nvem"),
]


def _curves() -> List[CurveSpec]:
    def curve(label, kind):
        def build(size: float) -> Tuple:
            config = debit_credit_config(
                second_level_cache_scheme(kind, int(size)),
                buffer_size=MM_BUFFER,
            )
            workload = DebitCreditWorkload(arrival_rate=ARRIVAL_RATE)
            return config, workload

        return CurveSpec(label=label, build=build)

    return [curve(label, kind) for label, kind in KINDS]


def hit_table(result: ExperimentResult) -> str:
    """Panel (b): hit ratio added by the second-level cache."""
    return result.to_table(
        metric=lambda r: (r.hit_ratio("nvem_cache")
                          + r.hit_ratio("disk_cache")) * 100,
        fmt="{:8.1f}",
    )


def _render(result: ExperimentResult) -> str:
    """Both panels: response times and second-level hit ratios."""
    return result.to_table() + "\n\n" + hit_table(result)


@experiment("fig4_5")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_5",
        title="Impact of 2nd-level buffer size "
              f"(NOFORCE, 500 TPS, MM={MM_BUFFER})",
        x_label="2nd-level cache (pages)",
        y_label="mean response time (ms); panel (b) = added hit ratio",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(CACHE_SIZES), warmup=3.0,
                                 duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_CACHE_SIZES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: NVEM best throughout; volatile cache useless "
            "until its size exceeds the 500-page MM buffer",
        ),
        renderer=_render,
    )
