"""Trace serialization: JSONL span streams and Perfetto conversion.

The on-disk format is line-delimited JSON (``repro-trace/1``):

* one ``{"type": "header", ...}`` line — experiment id, profile,
  sampling rate, seed;
* one ``{"type": "point", "point": i, ...}`` line per sweep point —
  series label, x value, warm-up boundary, measured response time,
  span-drop counter;
* ``{"type": "span", "point": i, "name", "tx", "node", "t0", "t1",
  "attrs"}`` lines for every recorded span of that point (``attrs``
  omitted when empty, ``tx`` is ``null`` for system spans such as
  restart replay).

:func:`write_perfetto` converts a stream to the Chrome/Perfetto
``trace_event`` JSON format — complete ``"X"`` events with
microsecond timestamps, one process per sweep point and one thread
per transaction — loadable directly in https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

__all__ = [
    "SCHEMA",
    "read_trace",
    "validate_record",
    "write_perfetto",
    "write_trace",
]

SCHEMA = "repro-trace/1"

#: Required keys per record type (the CI smoke validates against this).
_REQUIRED = {
    "header": ("schema", "experiment", "profile", "sample", "seed"),
    "point": ("point", "series", "x", "measure_start", "response_ms",
              "committed", "dropped"),
    "span": ("point", "name", "tx", "node", "t0", "t1"),
}


def validate_record(record: Dict) -> None:
    """Raise ``ValueError`` unless ``record`` is schema-conformant."""
    kind = record.get("type")
    required = _REQUIRED.get(kind)
    if required is None:
        raise ValueError(f"unknown trace record type {kind!r}")
    missing = [key for key in required if key not in record]
    if missing:
        raise ValueError(f"{kind} record missing {missing}")
    if kind == "header" and record["schema"] != SCHEMA:
        raise ValueError(f"unsupported trace schema {record['schema']!r}")
    if kind == "span" and not record["t1"] >= record["t0"]:
        raise ValueError(
            f"span {record['name']!r} ends before it starts "
            f"({record['t0']} > {record['t1']})"
        )


def span_record(point: int, span) -> Dict:
    """One tracer span tuple as its JSONL record."""
    name, tx_id, node, t0, t1, attrs = span
    record = {"type": "span", "point": point, "name": name, "tx": tx_id,
              "node": node, "t0": t0, "t1": t1}
    if attrs is not None:
        record["attrs"] = attrs
    return record


def write_trace(path: str, header: Dict, points: Iterable[Dict]) -> int:
    """Write a full trace stream; returns the number of span lines.

    ``points`` yields dicts with the point metadata plus a ``spans``
    list of tracer tuples (the metadata keys land in the point record).
    Missing parent directories are created.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        head = {"type": "header", "schema": SCHEMA}
        head.update(header)
        fh.write(json.dumps(head) + "\n")
        for meta in points:
            spans = meta.pop("spans")
            record = {"type": "point"}
            record.update(meta)
            fh.write(json.dumps(record) + "\n")
            index = record["point"]
            for span in spans:
                fh.write(json.dumps(span_record(index, span)) + "\n")
                written += 1
    return written


def read_trace(path: str, validate: bool = False):
    """Load a JSONL trace: ``(header, points, spans_by_point)``."""
    header: Optional[Dict] = None
    points: List[Dict] = []
    spans: Dict[int, List[Dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if validate:
                validate_record(record)
            kind = record.get("type")
            if kind == "header":
                header = record
            elif kind == "point":
                points.append(record)
                spans.setdefault(record["point"], [])
            elif kind == "span":
                spans.setdefault(record["point"], []).append(record)
    if header is None:
        raise ValueError(f"{path}: no trace header record")
    return header, points, spans


def write_perfetto(trace_path: str, out_path: str) -> int:
    """Convert a JSONL trace to Perfetto ``trace_event`` JSON.

    Returns the number of events written.  Timestamps are simulation
    microseconds; each sweep point becomes a process (named after its
    series and x value), each transaction a thread, so the per-phase
    spans of one transaction stack on its own track.
    """
    header, points, spans = read_trace(trace_path)
    events = []
    for point in points:
        pid = point["point"]
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"{header['experiment']} "
                             f"{point['series']} x={point['x']}"},
        })
        for record in spans.get(pid, ()):
            tx = record["tx"]
            event = {
                "ph": "X",
                "name": record["name"],
                "cat": "repro",
                "pid": pid,
                "tid": tx if tx is not None else 0,
                "ts": record["t0"] * 1e6,
                "dur": (record["t1"] - record["t0"]) * 1e6,
            }
            args = {"node": record["node"]}
            if "attrs" in record:
                args["attrs"] = record["attrs"]
            event["args"] = args
            events.append(event)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA,
                      "experiment": header["experiment"]},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(events)
