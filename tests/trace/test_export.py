"""JSONL trace serialization and Perfetto conversion tests."""

import json

import pytest

from repro.trace import SCHEMA, read_trace, validate_record, write_perfetto
from repro.trace.export import span_record, write_trace

HEADER = {"experiment": "fig_x", "profile": "fast", "sample": 1, "seed": 1}

#: Two points: one committed transaction each, plus a system span.
POINTS = [
    {"point": 0, "series": "alpha", "x": 50.0, "measure_start": 1.0,
     "response_ms": 20.0, "committed": 1, "dropped": 0,
     "spans": [("tx", 7, 0, 1.0, 1.02, None),
               ("fix", 7, 0, 1.0, 1.015, None),
               ("commit", 7, 0, 1.015, 1.02, None),
               ("log.force", 7, 0, 1.016, 1.019, "log_disk")]},
    {"point": 1, "series": "alpha", "x": 100.0, "measure_start": 1.0,
     "response_ms": 30.0, "committed": 1, "dropped": 2,
     "spans": [("restart.scan", None, 0, 2.0, 2.5, None)]},
]


def _write(tmp_path):
    path = str(tmp_path / "t.jsonl")
    count = write_trace(path, dict(HEADER),
                        [dict(p, spans=list(p["spans"])) for p in POINTS])
    return path, count


class TestJsonlRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path, count = _write(tmp_path)
        assert count == 5
        header, points, spans = read_trace(path, validate=True)
        assert header["schema"] == SCHEMA
        assert header["experiment"] == "fig_x"
        assert [p["x"] for p in points] == [50.0, 100.0]
        assert [s["name"] for s in spans[0]] == ["tx", "fix", "commit",
                                                 "log.force"]
        assert spans[0][3]["attrs"] == "log_disk"
        # System spans serialize tx as null.
        assert spans[1][0]["tx"] is None

    def test_missing_output_directory_is_created(self, tmp_path):
        path = str(tmp_path / "artifacts" / "t.jsonl")
        assert write_trace(path, dict(HEADER), []) == 0
        header, points, _ = read_trace(path, validate=True)
        assert header["experiment"] == "fig_x" and points == []

    def test_every_line_is_valid_json(self, tmp_path):
        path, _ = _write(tmp_path)
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            validate_record(record)
        assert records[0]["type"] == "header"

    def test_headerless_file_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "point", "point": 0}) + "\n")
        with pytest.raises(ValueError, match="no trace header"):
            read_trace(path)

    def test_attrs_omitted_when_empty(self):
        record = span_record(0, ("fix", 1, 0, 0.0, 1.0, None))
        assert "attrs" not in record
        record = span_record(0, ("io.read", 1, 0, 0.0, 1.0, "disk"))
        assert record["attrs"] == "disk"


class TestValidateRecord:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record"):
            validate_record({"type": "frobnicate"})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            validate_record({"type": "span", "point": 0, "name": "fix"})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            validate_record({"type": "header", "schema": "repro-trace/99",
                             "experiment": "e", "profile": "fast",
                             "sample": 1, "seed": 1})

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            validate_record({"type": "span", "point": 0, "name": "fix",
                             "tx": 1, "node": 0, "t0": 2.0, "t1": 1.0})


class TestPerfetto:
    def test_conversion_structure(self, tmp_path):
        path, _ = _write(tmp_path)
        out = str(tmp_path / "t.perfetto.json")
        events = write_perfetto(path, out)
        # 5 span events + 2 process-name metadata events.
        assert events == 7
        payload = json.load(open(out))
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["experiment"] == "fig_x"
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == \
            {"fig_x alpha x=50.0", "fig_x alpha x=100.0"}
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        tx_root = next(e for e in slices if e["name"] == "tx")
        assert tx_root["pid"] == 0 and tx_root["tid"] == 7
        assert tx_root["ts"] == pytest.approx(1.0e6)
        assert tx_root["dur"] == pytest.approx(0.02e6)
        force = next(e for e in slices if e["name"] == "log.force")
        assert force["args"]["attrs"] == "log_disk"
        # System spans land on thread 0 of their point's process.
        scan = next(e for e in slices if e["name"] == "restart.scan")
        assert scan["pid"] == 1 and scan["tid"] == 0
