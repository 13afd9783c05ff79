"""Top-level wiring: SOURCE + CM + devices = a runnable system (Fig. 3.1).

:class:`TransactionSystem` instantiates every component of TPSIM's
central configuration from a :class:`~repro.core.config.SystemConfig`
and a workload (any object implementing the
:class:`~repro.workload.base.Workload` protocol), runs warm-up and
measurement phases, and produces a :class:`~repro.core.metrics.Results`
snapshot.

A saturation guard samples the TM input queue during measurement: an
open system driven beyond capacity grows its queue without bound; such
runs are marked ``saturated`` (the paper simply does not plot those
points, e.g. the single-log-disk curve in Fig. 4.1 ends near 200 TPS).
That discipline is :func:`measured_run`, which the multi-node
:class:`~repro.cluster.system.ClusterSystem` runs too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bm import BufferManager
from repro.core.cc import LockManager
from repro.core.config import SystemConfig
from repro.core.cpu import CPUPool
from repro.core.metrics import MetricsCollector, Results
from repro.core.tm import TransactionManager
from repro.sim import Environment, RandomStreams
from repro.storage.hierarchy import StorageSubsystem

__all__ = ["TransactionSystem", "measured_run"]

#: Queue samples per measurement window (one per slice).
SLICES = 20


def measured_run(system, warmup: float, duration: float,
                 saturation_queue_limit: Optional[int],
                 default_queue_limit: int) -> Results:
    """The measurement discipline of every results-producing system.

    Warm up, reset the collectors, then advance the clock in
    :data:`SLICES` slices, sampling the input queue each slice.  Once
    the queue exceeds ``saturation_queue_limit`` (default
    ``default_queue_limit``) the run is flagged saturated and
    measurement stops early: response times of a diverging open system
    are unbounded anyway.  The host system supplies ``start_workload``
    / ``_reset_measurements`` / ``snapshot`` plus an admission queue
    via ``tm.input_queue_length``.
    """
    if warmup < 0 or duration <= 0:
        raise ValueError("warmup must be >= 0 and duration > 0")
    if saturation_queue_limit is None:
        saturation_queue_limit = default_queue_limit
    system.start_workload()
    env = system.env
    if warmup > 0:
        env.run(until=env.now + warmup)
    system._reset_measurements()

    end_time = env.now + duration
    slice_len = duration / SLICES
    for _ in range(SLICES):
        env.run(until=min(env.now + slice_len, end_time))
        queue = system.tm.input_queue_length
        system.metrics.note_input_queue(queue)
        if queue > saturation_queue_limit:
            system.metrics.saturated = True
            break
    return system.snapshot()


class TransactionSystem:
    """One centrally organized transaction system (the paper's CM case)."""

    def __init__(self, config: SystemConfig, workload,
                 seed: Optional[int] = None,
                 victim_policy: str = "requester"):
        config.validate()
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(seed if seed is not None else config.seed)
        self.metrics = MetricsCollector(self.env)
        self.storage = StorageSubsystem(self.env, self.streams, config)
        self.cpu = CPUPool(self.env, self.streams, config.cm)
        self.locks = LockManager(self.env, self.metrics,
                                 victim_policy=victim_policy)
        self.bm = BufferManager(self.env, self.streams, config, self.cpu,
                                self.storage, self.metrics)
        self.tm = TransactionManager(self.env, config, self.cpu, self.locks,
                                     self.bm, self.metrics,
                                     streams=self.streams)
        self.recovery = None
        if config.recovery.enabled:
            # Imported lazily: repro.recovery builds on the core layer.
            from repro.recovery import RecoveryManager

            self.recovery = RecoveryManager(self)
        self.media = None
        if config.media.enabled:
            from repro.recovery.media import MediaManager

            self.media = MediaManager(self)
        self.tracer = None
        self.telemetry = None
        trace_cfg = config.trace
        if trace_cfg.enabled:
            # Imported lazily: repro.trace builds on the core layer.
            from repro.trace.tracer import Tracer

            self.tracer = Tracer(self.env, streams=self.streams,
                                 sample=trace_cfg.sample,
                                 max_spans=trace_cfg.max_spans)
            # Components hold the tracer directly; metrics.reset()
            # clears it at the warm-up boundary.
            self.tm.tracer = self.tracer
            self.locks.tracer = self.tracer
            self.bm.tracer = self.tracer
            self.metrics.tracer = self.tracer
        if trace_cfg.latency_detail:
            self.metrics.latency_detail = True
            self.metrics.slo_threshold = trace_cfg.slo_ms / 1000.0
        if trace_cfg.telemetry_interval > 0:
            from repro.trace.telemetry import TelemetrySampler

            self.telemetry = TelemetrySampler(
                self, trace_cfg.telemetry_interval,
                max_samples=trace_cfg.telemetry_max_samples)
            self.metrics.telemetry = self.telemetry
        self.workload = workload
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start_workload(self) -> None:
        if not self._started:
            prewarm = getattr(self.workload, "prewarm", None)
            if prewarm is not None:
                prewarm(self)
            if self.recovery is not None:
                self.recovery.start()
            if self.media is not None:
                self.media.start()
            if self.telemetry is not None:
                self.telemetry.start()
            self.workload.start(self)
            self._started = True

    def _reset_measurements(self) -> None:
        self.metrics.reset()
        self.cpu.reset_stats()
        self.storage.reset_stats()

    def run(self, warmup: float = 5.0, duration: float = 30.0,
            saturation_queue_limit: Optional[int] = None) -> Results:
        """Warm up, measure, and summarize (see :func:`measured_run`);
        ``saturation_queue_limit`` defaults to ``4 * MPL``."""
        return measured_run(self, warmup, duration, saturation_queue_limit,
                            default_queue_limit=4 * self.config.cm.mpl)

    def snapshot(self) -> Results:
        """Freeze current measurements into a Results record."""
        return self.metrics.finalize(
            cpu_utilization=self.cpu.utilization,
            device_utilization=self.storage.utilization_report(),
        )
