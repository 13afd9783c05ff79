"""Table 4.2 — main memory and second-level cache hit ratios (%).

Part (a) uses NOFORCE, part (b) FORCE; main-memory buffer sizes 200 to
2000 pages against a volatile disk cache (1000), a non-volatile disk
cache (1000) and NVEM caches (1000, and 500 for NOFORCE).

Expected values (paper):

========================  =====  =====  =====  =====
(a) NOFORCE               200    500    1000   2000
========================  =====  =====  =====  =====
main memory               53.7   59.6   66.7   72.5
vol. disk cache 1000      12.8    5.6   0      0
nv disk cache 1000        13.0    7.4   3.8    0.8
NVEM cache 1000           14.8   11.0   5.7    1.1
NVEM cache 500             9.2    7.1   3.9    0.8
========================  =====  =====  =====  =====

========================  =====  =====  =====  =====
(b) FORCE                 200    500    1000   2000
========================  =====  =====  =====  =====
main memory               53.7   59.6   66.7   72.5
vol. disk cache 1000      12.4    6.9   0.1    0
nv disk cache 1000        12.8    7.0   0.1    0
NVEM cache 1000           13.1    7.2   3.4    0.6
========================  =====  =====  =====  =====
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import UpdateStrategy
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

__all__ = ["HitRatioTable", "hit_tables", "spec"]

BUFFER_SIZES = [200, 500, 1000, 2000]
FAST_BUFFER_SIZES = [200, 1000]
ARRIVAL_RATE = 500.0

#: (part, strategy, row label, cache kind, cache size); series labels
#: are "<STRATEGY>: <row label>".
ROWS = [
    ("a", UpdateStrategy.NOFORCE, "vol. disk cache 1000", "volatile", 1000),
    ("a", UpdateStrategy.NOFORCE, "nv disk cache 1000", "nonvolatile", 1000),
    ("a", UpdateStrategy.NOFORCE, "NVEM cache 1000", "nvem", 1000),
    ("a", UpdateStrategy.NOFORCE, "NVEM cache 500", "nvem", 500),
    ("b", UpdateStrategy.FORCE, "vol. disk cache 1000", "volatile", 1000),
    ("b", UpdateStrategy.FORCE, "nv disk cache 1000", "nonvolatile", 1000),
    ("b", UpdateStrategy.FORCE, "NVEM cache 1000", "nvem", 1000),
]


@dataclass
class HitRatioTable:
    """Measured reproduction of Table 4.2 (one update strategy)."""

    strategy: str
    buffer_sizes: List[int]
    #: row label -> {mm size -> (mm hit %, 2nd-level hit %)}
    cells: Dict[str, Dict[int, Tuple[float, float]]] = field(
        default_factory=dict
    )

    def to_table(self) -> str:
        header = f"{'':24s}" + "".join(
            f" {size:>12d}" for size in self.buffer_sizes
        )
        lines = [
            f"Table 4.2 ({self.strategy}): hit ratios (%) — "
            "mm / 2nd-level",
            header,
            "-" * len(header),
        ]
        first_row = next(iter(self.cells.values()), {})
        mm_cells = "".join(
            f" {first_row.get(size, (0.0, 0.0))[0]:>12.1f}"
            for size in self.buffer_sizes
        )
        lines.append(f"{'main memory':24s}" + mm_cells)
        for label, row in self.cells.items():
            cells = "".join(
                f" {row.get(size, (0.0, 0.0))[1]:>12.1f}"
                for size in self.buffer_sizes
            )
            lines.append(f"{label:24s}" + cells)
        return "\n".join(lines)


def _curves() -> List[CurveSpec]:
    def curve(strategy, label, kind, size):
        def build(mm: float) -> Tuple:
            config = debit_credit_config(
                second_level_cache_scheme(kind, size),
                update_strategy=strategy,
                buffer_size=int(mm),
            )
            workload = DebitCreditWorkload(arrival_rate=ARRIVAL_RATE)
            return config, workload

        return CurveSpec(
            label=f"{strategy.value.upper()}: {label}", build=build,
        )

    return [curve(strategy, label, kind, size)
            for _, strategy, label, kind, size in ROWS]


def hit_tables(result: ExperimentResult) -> Dict[str, HitRatioTable]:
    """Rebuild both halves of Table 4.2 from the uniform result."""
    tables: Dict[str, HitRatioTable] = {}
    for part, strategy in (("a", UpdateStrategy.NOFORCE),
                           ("b", UpdateStrategy.FORCE)):
        prefix = f"{strategy.value.upper()}: "
        table = HitRatioTable(strategy=strategy.value.upper(),
                              buffer_sizes=[])
        sizes: List[int] = []
        for series in result.series:
            if not series.label.startswith(prefix):
                continue
            row: Dict[int, Tuple[float, float]] = {}
            for point in series.points:
                mm = int(point.x)
                if mm not in sizes:
                    sizes.append(mm)
                r = point.results
                row[mm] = (
                    r.hit_ratio("main_memory") * 100,
                    (r.hit_ratio("nvem_cache")
                     + r.hit_ratio("disk_cache")) * 100,
                )
            table.cells[series.label[len(prefix):]] = row
        table.buffer_sizes = sorted(sizes)
        tables[part] = table
    return tables


def _render(result: ExperimentResult) -> str:
    tables = hit_tables(result)
    return tables["a"].to_table() + "\n\n" + tables["b"].to_table()


@experiment("table4_2")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="table4_2",
        title="MM and 2nd-level cache hit ratios "
              f"(Debit-Credit, {ARRIVAL_RATE:g} TPS)",
        x_label="MM buffer (pages)",
        y_label="2nd-level hit ratio (%)",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(BUFFER_SIZES), warmup=3.0,
                                 duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_BUFFER_SIZES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: NVEM cache best 2nd-level hit ratios under "
            "NOFORCE; FORCE lowers them; volatile ~ nonvolatile under "
            "FORCE",
        ),
        metric=lambda r: (r.hit_ratio("nvem_cache")
                          + r.hit_ratio("disk_cache")) * 100,
        metric_fmt="{:8.1f}",
        renderer=_render,
        # Hit-ratio tables report every cell; curves are not truncated.
        truncate_on_saturation=False,
    )
