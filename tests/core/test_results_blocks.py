"""Pinned payloads of the optional ``Results`` blocks.

The fig4_1 golden checksum and the perfbench digests pin the core
payload and the ``recovery``/``cluster`` blocks, but no registered
experiment emits ``latency`` or ``timeseries`` and none pins a
``degraded`` block.  These three points do: each digest is the sha256
of the canonical JSON export, so any change in what a block counts,
when it resets, or how it is exported shows up here.
"""

import dataclasses
import hashlib
import json

from repro.core.config import DeviceFault
from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.experiments.export import results_to_dict
from repro.workload.debit_credit import DebitCreditWorkload
from tests.recovery.conftest import media_synthetic_system


def _digest(results) -> str:
    text = json.dumps(results_to_dict(results), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _debit_credit(seed, rate, **overrides):
    config = debit_credit_config(disk_only())
    for section, values in overrides.items():
        setattr(config, section,
                dataclasses.replace(getattr(config, section), **values))
    config.validate()
    return TransactionSystem(config, DebitCreditWorkload(rate), seed=seed)


def online_redo_point():
    """Recovery, degraded and timeseries blocks: one crash with online
    redo, so the window holds an outage and a degraded redo pass."""
    system = _debit_credit(
        1, 50.0,
        recovery={"enabled": True, "checkpoint_interval": 4.0,
                  "crash_times": (6.0,), "online_redo": True},
        trace={"telemetry_interval": 0.5})
    return system.run(warmup=2.0, duration=20.0)


def media_point():
    """Degraded block: one device rebuild plus a transient log fault."""
    system = media_synthetic_system(
        seed=3, faults=(DeviceFault("db0", 6.0, "loss"),
                        DeviceFault("log0", 3.0, "transient",
                                    duration=1.0)))
    return system.run(warmup=2.0, duration=16.0)


def latency_point():
    """Latency and timeseries blocks on a traced run."""
    system = _debit_credit(
        5, 150.0,
        trace={"enabled": True, "latency_detail": True,
               "telemetry_interval": 0.25})
    return system.run(warmup=0.4, duration=1.2)


class TestBlockDigests:
    def test_online_redo_blocks(self):
        results = online_redo_point()
        assert results.recovery["crashes"] == 1.0
        assert results.latency is None
        assert results.degraded["degraded_commits"] == 303.0
        assert any(s["outage"] for s in results.timeseries)
        assert any(s["degraded"] for s in results.timeseries)
        assert _digest(results) == (
            "657263a43ecc854d42fe98ab49cd0a9fab1b6b2b57d0eea4c8d0278bbb37e1ae")

    def test_media_block(self):
        results = media_point()
        assert results.degraded["media_recoveries"] == 1.0
        assert results.degraded["io_retries"] == 448.0
        assert results.recovery is None and results.timeseries is None
        assert _digest(results) == (
            "1de8bf947a96d40fe56cfdafd82e378c7b3a31c60ec673cab33e3e84940e7586")

    def test_latency_and_timeseries_blocks(self):
        results = latency_point()
        assert results.latency is not None
        assert results.timeseries
        assert _digest(results) == (
            "3bf4cee34e377535a6c928c9001ac5b4faeea148ea950d7169dd8996d08266a5")

