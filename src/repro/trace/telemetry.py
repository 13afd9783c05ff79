"""Simulation-time telemetry: periodic gauge samples during a run.

:class:`TelemetrySampler` is an ordinary simulation process that wakes
every ``interval`` simulated seconds and appends one gauge record to a
bounded in-memory series — commits/TPS, buffer hit ratio, lock-queue
depth, input-queue length, CPU and device utilization, and whether the
system is currently in an outage or degraded window.  The sampler is
the collector's ``timeseries`` block: it resets at the warm-up
boundary, and its finalized series lands in ``Results.timeseries``
(and from there in the JSON export and the run journal, where
``repro watch`` can sparkline it).  :class:`LatencyBlock` is the
``latency`` block.

The sampler only *reads* state — it draws no random variates and
mutates nothing — so enabling it does not change what the simulation
computes; it does add one pending timeout to the event heap, which
is why it stays off by default and outside the golden-checksum runs.

It duck-types over both :class:`~repro.core.model.TransactionSystem`
and :class:`~repro.cluster.system.ClusterSystem` (the latter exposes
``nodes``; gauges are then aggregated across its lock tables and
storage subsystems, which data-sharing nodes share).
"""

from __future__ import annotations

from typing import Dict, Generator, List

__all__ = ["LatencyBlock", "TelemetrySampler"]


class LatencyBlock:
    """The ``Results.latency`` block: response-time percentiles and the
    share of commits inside the collector's SLO threshold."""

    def __init__(self, metrics):
        self.metrics = metrics

    def reset(self) -> None:
        """Nothing of its own: it reads the collector's counters."""

    def finalize(self) -> Dict[str, float]:
        metrics = self.metrics
        response = metrics.response
        return {
            "p50": response.percentile(50),
            "p95": response.percentile(95),
            "p99": response.percentile(99),
            "slo_ms": metrics.slo_threshold * 1000.0,
            "slo_attainment": (
                metrics.slo_ok / metrics.committed
                if metrics.committed else 1.0
            ),
        }


class TelemetrySampler:
    """Periodic gauge sampling over one (possibly multi-node) system."""

    def __init__(self, system, interval: float, max_samples: int = 10_000):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.system = system
        self.interval = interval
        self.max_samples = max_samples
        self.samples: List[Dict] = []
        self.dropped = 0
        self._prev_committed = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        self.system.env.process(self._run())

    def reset(self) -> None:
        """Warm-up boundary: the series describes the measured window."""
        self.samples.clear()
        self.dropped = 0
        self._prev_committed = self.system.metrics.committed

    def finalize(self) -> List[Dict]:
        return list(self.samples)

    # -- sampling ---------------------------------------------------------
    def _nodes(self):
        return getattr(self.system, "nodes", None)

    def _gauges(self) -> Dict:
        system = self.system
        env = system.env
        metrics = system.metrics
        committed = metrics.committed
        tps = (committed - self._prev_committed) / self.interval
        self._prev_committed = committed
        access = metrics.page_access
        total = access.total()
        mm_hit = 0.0
        if total:
            mm_hit = (access.get("main_memory")
                      + access.get("memory_resident")) / total
        nodes = self._nodes()
        if nodes is None:
            lock_queue = system.locks.waiting_count()
            cpu_util = system.cpu.utilization
            util = {
                name: max(report.values()) if report else 0.0
                for name, report in
                system.storage.utilization_report().items()
            }
        else:
            lock_queue = sum(table.waiting_count()
                             for table in system.lock_tables)
            cpu_util = sum(n.cpu.utilization for n in nodes) / len(nodes)
            util = {name: max(report.values()) if report else 0.0
                    for name, report in system.device_report().items()}
        return {
            "t": env.now,
            "tps": tps,
            "committed": committed,
            "aborted": metrics.aborted,
            "lock_queue": lock_queue,
            "input_queue": system.tm.input_queue_length,
            "mm_hit": mm_hit,
            "cpu_util": cpu_util,
            "util": util,
            "outage": 1 if metrics.outage.open else 0,
            "degraded": 1 if metrics.degraded.open else 0,
        }

    def _run(self) -> Generator:
        env = self.system.env
        while True:
            yield env.timeout(self.interval)
            if len(self.samples) < self.max_samples:
                self.samples.append(self._gauges())
            else:
                self.dropped += 1
