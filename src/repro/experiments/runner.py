"""Experiment harness primitives: result containers and point evaluation.

This module holds the layer *below* the declarative experiment API of
:mod:`repro.experiments.api`:

* :class:`ExperimentResult` / :class:`Series` / :class:`SeriesPoint` —
  the result containers every registered experiment produces, plus the
  aligned ASCII table renderer.
* :func:`point_seed` — the deterministic per-point seed derivation,
  which is what makes serial, parallel and cache-served outputs
  byte-identical.
* :func:`_evaluate_point` — the one function that builds and runs a
  sweep point's system from a picklable task ``(x, config, workload,
  warmup, duration, seed)``; module-level so pool workers can call it.

Figure modules register
:class:`~repro.experiments.api.ExperimentSpec` factories under stable
ids (``@experiment("fig4_1")``); the
:class:`~repro.experiments.api.ExperimentRunner` evaluates them, in
process or through its process pool, and is the only caller of
:func:`_evaluate_point`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import Results
from repro.core.model import TransactionSystem

__all__ = ["ExperimentResult", "Series", "SeriesPoint", "point_seed"]


@dataclass
class SeriesPoint:
    """One (x, results) sample of a sweep."""

    x: float
    results: Results

    @property
    def response_ms(self) -> float:
        return self.results.response_time_ms

    @property
    def saturated(self) -> bool:
        return self.results.saturated


@dataclass
class Series:
    """One labelled curve of an experiment."""

    label: str
    points: List[SeriesPoint] = field(default_factory=list)

    def xs(self) -> List[float]:
        return [p.x for p in self.points]

    def values(self, metric: Callable[[Results], float]) -> List[float]:
        return [metric(p.results) for p in self.points]

    def response_times_ms(self) -> List[float]:
        return [p.response_ms for p in self.points]


@dataclass
class ExperimentResult:
    """All series of one figure/table, plus presentation metadata."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r}")

    def to_table(self, metric: Optional[Callable[[Results], float]] = None,
                 fmt: str = "{:8.2f}") -> str:
        """Render the experiment as an aligned ASCII table.

        Saturated points are suffixed with ``*`` (the paper stops
        plotting curves at their saturation point).
        """
        if metric is None:
            metric = lambda r: r.response_time_ms  # noqa: E731
        xs: List[float] = []
        for s in self.series:
            for p in s.points:
                if p.x not in xs:
                    xs.append(p.x)
        xs.sort()
        label_width = max(12, *(len(s.label) + 1 for s in self.series)) \
            if self.series else 12
        header = f"{self.x_label:>{label_width}} |" + "".join(
            f" {s.label:>14}" for s in self.series
        )
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"(y = {self.y_label})",
            header,
            "-" * len(header),
        ]
        by_series: List[Dict[float, SeriesPoint]] = [
            {p.x: p for p in s.points} for s in self.series
        ]
        for x in xs:
            cells = []
            for points in by_series:
                point = points.get(x)
                if point is None:
                    cells.append(f" {'-':>14}")
                else:
                    value = fmt.format(metric(point.results))
                    marker = "*" if point.saturated else " "
                    cells.append(f" {value + marker:>14}")
            lines.append(f"{x:>{label_width}g} |" + "".join(cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Modulus of the per-point seed space (31-bit, any PRNG accepts it).
_SEED_SPACE = 2 ** 31 - 1
#: Golden-ratio increment spreading consecutive point seeds apart.
_SEED_STRIDE = 0x9E3779B1


def point_seed(seed: int, index: int) -> int:
    """Deterministic seed for sweep point ``index`` of a base ``seed``.

    Pure arithmetic (no ``hash()``), so the value is identical across
    worker processes, interpreter restarts and platforms.
    """
    return (seed * 1_000_003 + (index + 1) * _SEED_STRIDE) % _SEED_SPACE


def _evaluate_point(task: Tuple, configure: Optional[Callable] = None,
                    observe: Optional[Callable] = None) -> Results:
    """Build and run one sweep point's system.

    ``configure(config)`` returns the config actually built and
    ``observe(task, system, results)`` sees the live system after the
    run (the runner's in-process hooks; pool workers get neither).

    Cyclic GC stays off for the point; teardown drops the system and
    collects generation 0, then generation 1 (what closing leftover
    generators resurrects).  The caller's GC state is restored.
    """
    x, config, workload, warmup, duration, seed = task
    if configure is not None:
        config = configure(config)
    enabled = gc.isenabled()
    gc.disable()
    try:
        builder = getattr(config, "build_system", None)
        if builder is not None:
            # Configs owning system construction (e.g. ClusterConfig)
            # build their own runnable system for the point.
            system = builder(workload, seed=seed)
        else:
            system = TransactionSystem(config, workload, seed=seed)
        results = system.run(warmup=warmup, duration=duration)
        if observe is not None:
            observe(task, system, results)
        return results
    finally:
        system = None
        gc.collect(0)
        gc.collect(1)
        if enabled:
            gc.enable()


def _append_point(series: Series, x: float, results: Results) -> bool:
    """Add one evaluated point; True when the curve ends (saturation)."""
    if results.saturated and results.committed == 0:
        # Beyond saturation nothing completes inside the window;
        # there is no meaningful response time to report.
        return True
    series.points.append(SeriesPoint(x=x, results=results))
    return results.saturated
