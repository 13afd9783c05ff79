"""Smoke test of the benchmark command at tiny simulated lengths.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

For every workload, one ``--trace 1`` command must print every
end-to-end and per-layer metric by name with its unit, end with the
JSON result line, and pass the output check at the default seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_command_prints_every_metric_and_passes_the_check(workload):
    lines = _run(workload, trace=1).strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    text = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in text.splitlines()), metric["name"]
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == per_layer
    shares = [m["value"] for name, m in result["metrics"].items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)


def test_untraced_run_reports_the_end_to_end_metrics():
    result = json.loads(_run("cluster_2pc", trace=0).strip()
                        .splitlines()[-1])
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
