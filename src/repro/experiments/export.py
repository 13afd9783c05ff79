"""Export experiment results to CSV and JSON (and read them back).

Downstream analysis (spreadsheets, notebooks, gnuplot) wants flat data,
not ASCII tables:

* :func:`results_to_dict` / :func:`results_from_dict` — one run's
  :class:`Results` as plain dicts, and back.
* :func:`experiment_to_rows` / :func:`write_csv` — long-format rows
  (experiment, series, x, metrics...) for a whole sweep.
* :func:`write_json` / :func:`read_json` — the full experiment,
  metadata included; ``read_json`` round-trips a written file back
  into an equal :class:`ExperimentResult`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.core.metrics import Results
from repro.experiments.runner import ExperimentResult, Series, SeriesPoint

__all__ = [
    "experiment_from_dict",
    "experiment_to_dict",
    "experiment_to_rows",
    "read_json",
    "results_from_dict",
    "results_to_dict",
    "write_csv",
    "write_json",
]


def results_to_dict(results: Results) -> Dict:
    """Flatten one run's Results into JSON-serializable dicts.

    A block field that is ``None`` (the run had no such subsystem) is
    left out, so exports (and the pinned fig4_1 golden checksum) of
    runs without a subsystem are unchanged by its existence.
    """
    return {key: value for key, value in asdict(results).items()
            if value is not None}


def results_from_dict(payload: Dict) -> Results:
    """Inverse of :func:`results_to_dict`."""
    return Results(**payload)


#: Flat columns exported per sweep point.  ``availability`` and
#: ``restart_time_s`` report 1.0 / 0.0 for recovery-disabled runs; the
#: degraded-mode columns report 0.0 for media-disabled runs; the
#: cluster columns report single-node identities (nodes=1, fractions
#: and durations 0) for non-cluster runs; the distribution columns
#: (p50/p99/SLO) are blank when the run recorded no latency block.
CSV_FIELDS = [
    "experiment", "series", "x", "response_time_ms", "response_p95_ms",
    "throughput_tps", "committed", "aborted", "cpu_utilization",
    "mm_hit", "nvem_cache_hit", "disk_cache_hit", "saturated",
    "availability", "restart_time_s",
    "degraded_tps", "media_mttr_s", "io_retries",
    "nodes", "dist_fraction", "commit_phase_ms", "in_doubt_time",
    "dollars_per_tps",
    "response_p50_ms", "response_p99_ms", "slo_attainment",
]


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1000.0


def experiment_to_rows(result: ExperimentResult) -> List[Dict]:
    """Long-format rows: one per (series, x) sweep point."""
    rows = []
    for series in result.series:
        for point in series.points:
            r = point.results
            rows.append({
                "experiment": result.experiment_id,
                "series": series.label,
                "x": point.x,
                "response_time_ms": r.response_time_ms,
                "response_p95_ms": r.response_time_p95 * 1000.0,
                "throughput_tps": r.throughput,
                "committed": r.committed,
                "aborted": r.aborted,
                "cpu_utilization": r.cpu_utilization,
                "mm_hit": r.hit_ratio("main_memory")
                + r.hit_ratio("memory_resident"),
                "nvem_cache_hit": r.hit_ratio("nvem_cache"),
                "disk_cache_hit": r.hit_ratio("disk_cache"),
                "saturated": r.saturated,
                "availability": r.availability,
                "restart_time_s": r.restart_time_mean,
                "degraded_tps": r.degraded_tps,
                "media_mttr_s": r.media_mttr_mean,
                "io_retries": r.io_retries,
                "nodes": r.nodes,
                "dist_fraction": r.dist_fraction,
                "commit_phase_ms": r.commit_phase_ms,
                "in_doubt_time": r.in_doubt_time,
                "dollars_per_tps": r.dollars_per_tps,
                "response_p50_ms": _ms(r.response_time_p50),
                "response_p99_ms": _ms(r.response_time_p99),
                "slo_attainment": r.slo_attainment,
            })
    return rows


def write_csv(result: ExperimentResult, path: str) -> None:
    """Write the sweep as CSV (columns: :data:`CSV_FIELDS`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in experiment_to_rows(result):
            writer.writerow(row)


def experiment_to_dict(result: ExperimentResult) -> Dict:
    """The full experiment (metadata + per-point Results) as dicts."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "y_label": result.y_label,
        "notes": list(result.notes),
        "series": [
            {
                "label": series.label,
                "points": [
                    {"x": point.x,
                     "saturated": point.saturated,
                     "results": results_to_dict(point.results)}
                    for point in series.points
                ],
            }
            for series in result.series
        ],
    }


def experiment_from_dict(payload: Dict) -> ExperimentResult:
    """Inverse of :func:`experiment_to_dict`."""
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        y_label=payload["y_label"],
        notes=list(payload.get("notes", [])),
        series=[
            Series(
                label=series["label"],
                points=[
                    SeriesPoint(x=point["x"],
                                results=results_from_dict(point["results"]))
                    for point in series["points"]
                ],
            )
            for series in payload.get("series", [])
        ],
    )


def write_json(result: ExperimentResult, path: str) -> None:
    """Write the full experiment (metadata + per-point Results)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(experiment_to_dict(result), fh, indent=2)


def read_json(path: str) -> ExperimentResult:
    """Load an experiment written by :func:`write_json`."""
    with open(path, encoding="utf-8") as fh:
        return experiment_from_dict(json.load(fh))
