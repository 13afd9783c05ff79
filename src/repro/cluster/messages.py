"""Inter-node messages of the multi-node cluster.

A message costs CPU instructions on the sender and the receiver plus a
coupling latency.  Two presets reflect [Ra91]'s argument:

* :meth:`CouplingConfig.nvem_coupling` — message exchange through
  shared non-volatile extended memory: ~100 µs latency and short
  pathlengths (no protocol stack).
* :meth:`CouplingConfig.network_coupling` — a conventional local
  network: ~1 ms latency and several thousand instructions per send
  and receive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.cpu import CPUPool
from repro.core.transaction import Transaction
from repro.sim import Environment
from repro.sim.stats import CategoryCounter

__all__ = ["CouplingConfig", "MessageBus"]


@dataclass
class CouplingConfig:
    """Cost model for one inter-node message."""

    instr_send: float = 2_000
    instr_receive: float = 2_000
    latency: float = 100e-6

    @classmethod
    def nvem_coupling(cls) -> "CouplingConfig":
        """Message exchange via shared NVEM ([Ra91])."""
        return cls(instr_send=2_000, instr_receive=2_000, latency=100e-6)

    @classmethod
    def network_coupling(cls) -> "CouplingConfig":
        """Conventional LAN messages with protocol overhead."""
        return cls(instr_send=8_000, instr_receive=8_000, latency=1e-3)

    def validate(self) -> None:
        if self.instr_send < 0 or self.instr_receive < 0:
            raise ValueError("message instruction counts must be >= 0")
        if self.latency < 0:
            raise ValueError("message latency must be >= 0")


class MessageBus:
    """Delivers messages between nodes, charging both CPUs."""

    def __init__(self, env: Environment, config: CouplingConfig):
        config.validate()
        self.env = env
        self.config = config
        self.stats = CategoryCounter()

    def round_trip(self, tx: Optional[Transaction],
                   sender_cpu: CPUPool, receiver_cpu: CPUPool,
                   kind: str = "rpc") -> Generator:
        """A request/response exchange (e.g. a remote lock request).

        Send overhead on the requester, latency, receive + send on the
        responder, latency back, receive on the requester.
        """
        self.stats.add(kind)
        self.stats.add("messages", 2)
        burst = sender_cpu.execute_event(tx, self.config.instr_send,
                                         exponential=False)
        if burst is not None:
            yield burst
        yield self.env.timeout(self.config.latency)
        burst = receiver_cpu.execute_event(None, self.config.instr_receive
                                           + self.config.instr_send,
                                           exponential=False)
        if burst is not None:
            yield burst
        yield self.env.timeout(self.config.latency)
        burst = sender_cpu.execute_event(tx, self.config.instr_receive,
                                         exponential=False)
        if burst is not None:
            yield burst

    def one_way(self, tx: Optional[Transaction], sender_cpu: CPUPool,
                receiver_cpu: CPUPool, kind: str = "notify") -> Generator:
        """A single message (e.g. a broadcast invalidation)."""
        self.stats.add(kind)
        self.stats.add("messages", 1)
        burst = sender_cpu.execute_event(tx, self.config.instr_send,
                                         exponential=False)
        if burst is not None:
            yield burst
        yield self.env.timeout(self.config.latency)
        burst = receiver_cpu.execute_event(None, self.config.instr_receive,
                                           exponential=False)
        if burst is not None:
            yield burst
