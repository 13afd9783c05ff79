"""The non-volatile extended memory (NVEM) device.

NVEM (§2, §3.3) is page-addressable semiconductor memory accessed by
special machine instructions: transfers are performed by the CPU itself,
so an NVEM access keeps the accessing CPU busy (the caller models that —
see :mod:`repro.core.cpu`).  The device itself is a small server pool
(``NumNVEMservers``) with a per-page service time (``NVEMdelay``,
50 µs per 4 KB page in the paper's Table 4.1).
"""

from __future__ import annotations

from typing import Generator

from repro.core.config import Distribution, NVEMConfig
from repro.sim import Environment, RandomStreams, Resource
from repro.sim.stats import CategoryCounter
from repro.storage.registry import register_device

__all__ = ["NVEMDevice"]


class NVEMDevice:
    """Server pool for page transfers between main memory and NVEM."""

    def __init__(self, env: Environment, streams: RandomStreams,
                 config: NVEMConfig):
        config.validate()
        self.env = env
        self.config = config
        self.servers = Resource(env, config.num_servers, name="nvem")
        self.stats = CategoryCounter()
        #: Per-page service-time draw, bound once.
        delay = config.delay
        self._service_time = (
            streams.exponential_draw("nvem-service", delay)
            if config.distribution is Distribution.EXPONENTIAL
            else lambda: delay)

    def access(self, kind: str = "access") -> Generator:
        """One page transfer; yields until the transfer completes.

        ``kind`` tags the access for statistics (read / write / migrate /
        log).  The caller decides whether the CPU is held meanwhile.
        """
        self.stats.add(kind)
        yield self.servers.serve_event(self._service_time)

    @property
    def utilization(self) -> float:
        return self.servers.monitor.utilization(self.servers.capacity)

    def utilization_report(self) -> dict:
        return {"servers": self.utilization}

    def reset_stats(self) -> None:
        self.stats.reset()
        self.servers.monitor.reset()


@register_device("nvem")
def _make_nvem(env: Environment, streams: RandomStreams,
               spec) -> NVEMDevice:
    config = spec.params.get("config")
    if config is None:
        config = NVEMConfig(**spec.params)
    return NVEMDevice(env, streams, config)
