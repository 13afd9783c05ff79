"""Phase attribution: where a traced transaction's time went.

The TM's phase spans tile a committed transaction's whole
arrival-to-commit interval (see :mod:`repro.trace.tracer`), so summing
them per phase and dividing by the traced-commit count yields a
latency-attribution table whose rows *must* add up to the traced mean
response time — any residual beyond float noise means an instrumented
segment is missing.  :func:`check_span_accounting` asserts exactly
that (plus per-resource non-overlap), and is what the property test
and the CI trace smoke call.

Attribution only trusts root (``tx``) spans starting at or after the
warm-up boundary: earlier arrivals had part of their children cleared
with the warm-up spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.tracer import PHASE_SPANS, ROOT_SPAN

__all__ = [
    "attribute",
    "check_span_accounting",
    "per_tx_spans",
    "render_attribution",
]

#: Display order of the attribution rows (phases not listed sort last).
_PHASE_ORDER = ["queue", "cpu.bot", "lock.remote", "lock", "cpu.ref",
                "fix", "cpu.eot", "2pc.work", "2pc.prepare",
                "2pc.decision", "2pc.notify", "commit", "gem.propagate",
                "invalidate", "backoff"]


def _fields(span) -> Tuple[str, Optional[int], int, float, float, object]:
    """Normalize a span (tracer tuple or JSONL dict) to a tuple."""
    if isinstance(span, dict):
        return (span["name"], span["tx"], span["node"], span["t0"],
                span["t1"], span.get("attrs"))
    return span


def per_tx_spans(spans: Iterable,
                 measure_start: float = 0.0) -> Dict[int, Dict]:
    """Group spans by transaction for every trusted root span.

    Returns ``tx_id -> {"root": (t0, t1), "phases": [(name, t0, t1)],
    "details": [(name, t0, t1, attrs)]}``.
    """
    normalized = [_fields(span) for span in spans]
    out: Dict[int, Dict] = {}
    for name, tx_id, _node, t0, t1, _attrs in normalized:
        if name == ROOT_SPAN and tx_id is not None and t0 >= measure_start:
            out[tx_id] = {"root": (t0, t1), "phases": [], "details": []}
    for name, tx_id, _node, t0, t1, attrs in normalized:
        entry = out.get(tx_id)
        if entry is None or name == ROOT_SPAN:
            continue
        if name in PHASE_SPANS:
            entry["phases"].append((name, t0, t1))
        else:
            entry["details"].append((name, t0, t1, attrs))
    return out


def attribute(spans: Iterable, measure_start: float = 0.0) -> Dict:
    """The per-phase latency-attribution summary of one sweep point.

    ``phases`` maps phase name to mean seconds per traced committed
    transaction; their sum plus ``residual`` equals ``response_mean``
    (the traced transactions' mean response time) by construction.
    ``details`` aggregates the nested diagnostic spans, with log
    forces split by placement (``log.force[log_nvem]`` vs
    ``log.force[log_disk]`` is the §4 NVEM-vs-disk commit gap).
    """
    grouped = per_tx_spans(spans, measure_start)
    n = len(grouped)
    phase_totals: Dict[str, float] = {}
    detail: Dict[str, Dict[str, float]] = {}
    response_total = 0.0
    for entry in grouped.values():
        t0, t1 = entry["root"]
        response_total += t1 - t0
        for name, p0, p1 in entry["phases"]:
            phase_totals[name] = phase_totals.get(name, 0.0) + (p1 - p0)
        for name, d0, d1, attrs in entry["details"]:
            key = name
            if name == "log.force" and isinstance(attrs, str):
                key = f"log.force[{attrs}]"
            bucket = detail.get(key)
            if bucket is None:
                bucket = detail[key] = {"count": 0.0, "total": 0.0}
            bucket["count"] += 1
            bucket["total"] += d1 - d0
    response_mean = response_total / n if n else 0.0
    phases = {name: total / n for name, total in phase_totals.items()} \
        if n else {}
    residual = response_mean - sum(phases.values())
    for bucket in detail.values():
        bucket["mean"] = (bucket["total"] / bucket["count"]
                          if bucket["count"] else 0.0)
    return {
        "traced_tx": n,
        "response_mean": response_mean,
        "phases": phases,
        "residual": residual,
        "details": detail,
    }


def check_span_accounting(spans: Iterable, measure_start: float = 0.0,
                          tolerance: float = 1e-9) -> Dict:
    """Verify the two span invariants over every trusted transaction.

    1. Phase spans of one transaction never overlap each other.
    2. Their durations sum to the root span's duration within
       ``tolerance`` seconds.

    Returns ``{"transactions", "max_residual", "overlaps"}``; raises
    ``AssertionError`` on any violation (so it doubles as a CI gate).
    """
    grouped = per_tx_spans(spans, measure_start)
    max_residual = 0.0
    overlaps: List[Tuple[int, str, str]] = []
    for tx_id, entry in grouped.items():
        t0, t1 = entry["root"]
        ordered = sorted(entry["phases"], key=lambda s: (s[1], s[2]))
        child_sum = 0.0
        prev_name, prev_end = None, t0 - tolerance
        for name, p0, p1 in ordered:
            child_sum += p1 - p0
            if p0 < prev_end - tolerance:
                overlaps.append((tx_id, prev_name, name))
            prev_name, prev_end = name, p1
            if p0 < t0 - tolerance or p1 > t1 + tolerance:
                overlaps.append((tx_id, ROOT_SPAN, name))
        residual = abs((t1 - t0) - child_sum)
        if residual > max_residual:
            max_residual = residual
    assert not overlaps, f"overlapping phase spans: {overlaps[:5]}"
    assert max_residual <= tolerance, (
        f"phase spans do not sum to response time "
        f"(max residual {max_residual:.3e} s > {tolerance:.1e} s)"
    )
    return {"transactions": len(grouped), "max_residual": max_residual,
            "overlaps": overlaps}


def render_attribution(label: str, summary: Dict,
                       measured_ms: Optional[float] = None) -> str:
    """Human-readable attribution table for one sweep point."""
    lines = [f"{label}: {summary['traced_tx']} traced tx, "
             f"mean response {summary['response_mean'] * 1e3:.3f} ms"
             + (f" (measured {measured_ms:.3f} ms)"
                if measured_ms is not None else "")]
    phases = summary["phases"]
    total = summary["response_mean"]
    ordered = sorted(
        phases.items(),
        key=lambda item: (_PHASE_ORDER.index(item[0])
                          if item[0] in _PHASE_ORDER
                          else len(_PHASE_ORDER), item[0]),
    )
    lines.append(f"  {'phase':<14} {'ms/tx':>10} {'share':>8}")
    for name, seconds in ordered:
        share = seconds / total * 100.0 if total else 0.0
        lines.append(f"  {name:<14} {seconds * 1e3:>10.4f} {share:>7.1f}%")
    lines.append(f"  {'residual':<14} {summary['residual'] * 1e3:>10.4f}")
    lines.append(f"  {'sum':<14} {total * 1e3:>10.4f}")
    details = summary["details"]
    if details:
        lines.append(f"  {'detail':<22} {'count':>7} {'mean ms':>9}")
        for name in sorted(details):
            bucket = details[name]
            lines.append(f"  {name:<22} {int(bucket['count']):>7} "
                         f"{bucket['mean'] * 1e3:>9.4f}")
    return "\n".join(lines)
