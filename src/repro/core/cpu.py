"""CPU servers with the synchronous-access interface (§3.2).

CPU requests are served by ``NumCPU`` identical processors.  Service
demands are instruction counts converted via the MIPS rate; BOT/OR/EOT
demands are exponentially distributed over their configured means, I/O
and NVEM overheads are fixed.

The paper required "a special CPU interface to keep the CPU busy until
after an access has been completed" for synchronous device accesses:
:meth:`CPUPool.execute_with_sync_access` acquires a CPU, spends the
instruction overhead, then *keeps the CPU occupied* while the device
access generator runs, exactly modelling an ES-style synchronous page
move where a process switch would cost more than the transfer.
"""

from __future__ import annotations

from math import log as _log
from typing import Generator, Optional

from repro.core.config import CMConfig
from repro.core.transaction import Transaction
from repro.sim import Environment, RandomStreams, Resource
from repro.sim.core import _PENDING, _TRIGGERED, Event, Timeout

__all__ = ["CPUPool"]


class _CPUBurst(Timeout):
    """A fused CPU burst: grant wait + instruction timeout + release as
    one kernel event (the CPU analogue of the resource layer's
    ``_ServiceEvent``; see that class for the lifecycle contract).

    Unlike generic resource service, the instruction draw happens at
    *creation* (before the request), matching the order the generator
    version established; accounting stays exact — ``wait_cpu`` is
    charged at grant dispatch, ``service_cpu`` only once the burst
    completed, neither on interrupt.  An immediately granted burst holds
    its CPU as a :meth:`~repro.sim.Resource.claim` (``_request`` is
    None).
    """

    __slots__ = ("_cpus", "_request", "_tx", "_service", "_queued_at")

    def _on_grant(self, request) -> None:
        """CPU-grant callback: charge the queueing wait and schedule
        the burst completion (no-op if the claim was withdrawn)."""
        if request.cancelled:
            return
        env = self.env
        tx = self._tx
        if tx is not None:
            tx.wait_cpu += env._now - self._queued_at
        self._state = _TRIGGERED
        env._insert(env._now + self._service, self)

    def _finish(self, event: Event) -> None:
        """Own completion callback (runs before the waiter's resume)."""
        tx = self._tx
        if tx is not None:
            tx.service_cpu += self._service
        request = self._request
        if request is None:
            self._cpus.release_claim()
        else:
            self._cpus.release(request)

    def _finalize(self, carrier: Event) -> None:
        """Interrupt-delivery finalizer: give back the held CPU."""
        request = self._request
        if request is None:
            self._cpus.release_claim()
        else:
            self._cpus.cancel(request)

    def _abandoned(self):
        if self._state == _PENDING:
            # Still queued for a CPU: withdraw the claim.
            request = self._request
            callbacks = request.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._on_grant)
                except ValueError:  # pragma: no cover - already granted
                    pass
            self._cpus.cancel(request)
            Event._abandoned(request)
            return None
        # Burst in flight: drop the completion event and return the CPU
        # at interrupt delivery (the generator version's ``except``
        # clause timing); service_cpu is deliberately not charged.
        try:
            self.callbacks.remove(self._finish)
        except ValueError:  # pragma: no cover - defensive
            pass
        Event._abandoned(self)
        return self._finalize


class CPUPool:
    """The computing module's processors.

    The execution primitives fuse "acquire + instruction timeout" into a
    single scheduled wake-up when the CPU grant is immediate (the
    resource layer's uncontended fast path): the burst then costs one
    heap event — the service timeout — and a zero-instruction burst on
    an idle CPU costs none at all.  Accounting stays exact either way:
    an immediately granted request reports ``wait_cpu == 0.0`` exactly,
    and ``service_cpu`` is charged only once the burst completed.
    """

    def __init__(self, env: Environment, streams: RandomStreams,
                 config: CMConfig):
        self.env = env
        self.config = config
        self.cpus = Resource(env, config.num_cpus, name="cpu")
        #: The ``cpu-service`` stream and the MIPS rate, bound once.
        self._random = streams.stream("cpu-service").random
        self._ips = config.instructions_per_second

    # -- service-time draws --------------------------------------------------
    def _service_seconds(self, mean_instructions: float,
                         exponential: bool) -> float:
        """Seconds of one burst: the float operations of
        ``RandomStreams.exponential("cpu-service", mean)`` followed by
        ``CMConfig.cpu_seconds``, with the stream and rate pre-bound."""
        if mean_instructions <= 0:
            return 0.0
        if exponential:
            return (-_log(1.0 - self._random()) / (1.0 / mean_instructions)
                    / self._ips)
        return mean_instructions / self._ips

    # -- execution primitives ------------------------------------------------
    def execute_event(self, tx: Optional[Transaction],
                      mean_instructions: float,
                      exponential: bool = True) -> Optional[Event]:
        """Acquire a CPU, burn the instructions, release — fused into a
        single yieldable event (see :class:`_CPUBurst`).

        Returns None when the burst completes synchronously (immediate
        grant, zero-service draw); otherwise the caller must yield the
        returned event.  Interrupt-safe: tearing down the waiting
        process withdraws or returns the CPU claim instead of leaking
        it.
        """
        service = self._service_seconds(mean_instructions, exponential)
        env = self.env
        cpus = self.cpus
        if cpus.claim():
            # Immediate grant; wait_cpu stays exactly 0.0.
            if service <= 0:
                cpus.release_claim()
                return None
            ev = _CPUBurst.__new__(_CPUBurst)
            ev.env = env
            ev._ok = True
            ev._value = None
            ev._defused = False
            ev.delay = service
            ev._cpus = cpus
            ev._request = None
            ev._tx = tx
            ev._service = service
            ev._queued_at = 0.0
            ev._state = _TRIGGERED
            ev.callbacks = [ev._finish]
            if env._pending == 0 and env._solo is None and env._solo_on:
                env._solo = ev
                env._solo_at = env._now + service
            else:
                env._insert(env._now + service, ev)
            return ev
        request = cpus.request()
        queued_at = env._now
        if service <= 0:
            # Zero-service burst behind a queue: piggyback on the grant
            # event itself — charge the wait and release at grant
            # dispatch, just before the waiter's resume runs.
            def _zero_finish(req, tx=tx, cpus=cpus, queued_at=queued_at):
                if req.cancelled:
                    return
                if tx is not None:
                    tx.wait_cpu += req.env._now - queued_at
                cpus.release(req)

            request.callbacks.append(_zero_finish)
            return request
        ev = _CPUBurst.__new__(_CPUBurst)
        ev.env = env
        ev._ok = True
        ev._value = None
        ev._defused = False
        ev.delay = service
        ev._cpus = cpus
        ev._request = request
        ev._tx = tx
        ev._service = service
        ev._queued_at = queued_at
        ev._state = _PENDING
        ev.callbacks = [ev._finish]
        request.callbacks.append(ev._on_grant)
        return ev

    def execute(self, tx: Optional[Transaction], mean_instructions: float,
                exponential: bool = True) -> Generator:
        """Generator form of :meth:`execute_event` (compatibility shim
        for ``yield from`` call sites; hot paths yield the event)."""
        ev = self.execute_event(tx, mean_instructions, exponential)
        if ev is not None:
            yield ev

    def execute_with_sync_access(self, tx: Optional[Transaction],
                                 mean_instructions: float,
                                 access: Generator,
                                 exponential: bool = False) -> Generator:
        """Instruction overhead plus a device access with the CPU held.

        Used for NVEM accesses (and any partition configured with
        ``AccessMode.SYNC``): the CPU is not released during the page
        transfer, so device queueing directly consumes CPU capacity.
        """
        service = self._service_seconds(mean_instructions, exponential)
        cpus = self.cpus
        if cpus.claim():
            # Immediate grant: skip the grant wait, keep the CPU held
            # through the device access exactly as in the general path.
            try:
                if service > 0:
                    yield self.env.timeout(service)
                if tx is not None:
                    tx.service_cpu += service
                access_start = self.env.now
                result = yield from access
                if tx is not None:
                    tx.wait_nvem += self.env.now - access_start
            except BaseException:
                cpus.release_claim()
                raise
            cpus.release_claim()
            return result
        request = cpus.request()
        queued_at = self.env.now
        try:
            yield request
            if tx is not None:
                tx.wait_cpu += self.env.now - queued_at
            if service > 0:
                yield self.env.timeout(service)
            if tx is not None:
                tx.service_cpu += service
            access_start = self.env.now
            result = yield from access
            if tx is not None:
                tx.wait_nvem += self.env.now - access_start
        except BaseException:
            cpus.cancel(request)
            raise
        cpus.release(request)
        return result

    # -- introspection ------------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.cpus.monitor.utilization(self.cpus.capacity)

    def reset_stats(self) -> None:
        self.cpus.monitor.reset()
