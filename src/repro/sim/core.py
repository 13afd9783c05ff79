"""Core of the discrete-event simulation kernel.

This module implements the event loop, events, timeouts, generator-based
processes, process interruption and condition events.  It plays the role
the DeNet runtime played for the original TPSIM: everything else in the
reproduction (CPUs, disks, lock queues, buffer managers) is expressed as
processes that yield events produced here.

Design notes
------------
* Events are ordered by ``(time, sequence)``; the sequence number makes
  simultaneous events FIFO and the simulation fully deterministic for a
  fixed seed.  The *structure* holding that order is pluggable
  (:mod:`repro.sim.scheduler`): a calendar queue with batched
  same-instant dispatch by default, the classic binary heap as the
  verification backend (``Environment(scheduler="heap")`` or
  ``REPRO_SCHEDULER=heap``).  Both produce bit-identical dispatch
  order; a tracing mode records ``(time, seq)`` per dispatch so the
  equivalence is testable.
* All scheduling funnels through one choke point,
  :meth:`Environment._insert`, which assigns the strictly monotone
  sequence number and feeds the active scheduler.
* A :class:`Process` wraps a Python generator.  The generator yields
  :class:`Event` objects; the process resumes when the yielded event is
  processed.  ``yield from`` composes sub-operations naturally, which is
  how transaction code in :mod:`repro.core.tm` stays readable.
* A process may be interrupted (:meth:`Process.interrupt`): the victim's
  current wait is cancelled and an :class:`Interrupt` exception is thrown
  into its generator.  TPSIM uses this for transaction aborts initiated
  by deadlock victims other than the requester (an extension; the paper's
  base policy aborts the requester itself).

Hot path
--------
Replaying one paper figure means millions of ``yield env.timeout(...)``
round trips, so that path is specialized end to end:

* **Solo slot**: a timeout created while *nothing else is pending* is
  parked in ``env._solo`` without touching the scheduler at all.  When
  the owning process yields it (and nobody else subscribed),
  :meth:`Process._resume` fires it inline — the clock jumps to its due
  time and the generator continues without a structure insert, a pop,
  or a callback list.  This is order-exact: with an empty structure the
  solo event would have been the very next dispatch, and dropping its
  structure round trip shifts later sequence numbers uniformly, which
  cannot reorder any tie.  The slot is *flushed* into the scheduler
  (assigning its sequence number at the position it would have held)
  the moment anything else schedules, subscribes, cancels, or the run
  loop needs it.
* **Timeout pooling**: a dispatched :class:`Timeout` that the kernel
  can *prove* it solely owns (``sys.getrefcount == 2`` at the recycle
  point: the dispatch local plus the call argument) is recycled through
  a one-slot pool (``env._tcache``) instead of being reallocated —
  event construction, not heap arithmetic, dominates the kernel's
  per-event cost.  An object with any outside reference is marked
  processed normally, so user-held timeouts observe the documented
  lifecycle.
* :meth:`Environment.run` delegates to scheduler-owned dispatch loops
  with all lookups bound to locals; this is the hottest code in the
  package.
* Yielding an *already-processed* event feeds its value straight back
  into the generator without suspending — no structure traffic, no
  callback list.  The resource layer relies on this for uncontended
  grants (:meth:`repro.sim.resources.Resource.request` returns a
  processed request when a unit is free), which is why ``_resume``
  loops rather than recursing: a chain of immediate grants runs as one
  step.

Cancellation
------------
Interrupting a process abandons the event it was waiting for.  The
kernel tells the event via :meth:`Event._abandoned` (resources override
it to withdraw queued requests) and, when nobody else is subscribed,
marks the event *cancelled*.  Cancelled events are dropped when they
surface in dispatch order without running callbacks, and when they
outnumber live events the structure is compacted so interrupted waits
do not accumulate (for the calendar queue the sweep also deletes
buckets left empty).  An event collected by compaction is treated as
already fired; a waiter that subscribes to a cancelled event before
compaction revives it in place and is woken at the originally scheduled
time.  Contract: once an event has been abandoned by *all* of its
waiters, a later subscriber is only guaranteed to be woken *no later
than* the scheduled time — whether it sees the original instant or an
immediate delivery depends on whether compaction has collected the
event.  Code that shares one wait event across processes and interrupts
some of them must not rely on the distinction (nothing in this
repository does).

:meth:`Event._abandoned` may return a *finalizer*: a one-argument
callable that :meth:`Process.interrupt` runs at interrupt *delivery*
(just before the Interrupt is thrown into the victim).  The resource
layer's fused service events use this to release a held unit at exactly
the instant the old generator-based ``serve`` released it from its
``except`` clause.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.sim import scheduler as _schedmod
from repro.sim.scheduler import (
    _CANCELLED,
    _INF,
    _PENDING,
    _PROCESSED,
    _TRIGGERED,
    make_scheduler,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, unhandled failure, ...)."""


class Interrupt(Exception):
    """Thrown into a process that has been interrupted.

    ``cause`` carries an arbitrary, caller-supplied reason (for TPSIM it
    is typically the aborting transaction or a string tag).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    Events start *pending*, become *triggered* when given a value via
    :meth:`succeed` / :meth:`fail` (which schedules them), and are
    *processed* once the event loop has run their callbacks.
    """

    __slots__ = ("env", "callbacks", "_state", "_ok", "_value", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._state = _PENDING
        self._ok = True
        self._value: Any = None
        self._defused = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to succeed with ``value`` (now)."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fail with ``exception`` (now)."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- cancellation ----------------------------------------------------
    def _abandoned(self):
        """Hook: an interrupted process stopped waiting for this event.

        The base behaviour marks an already-scheduled event with no
        remaining subscribers as cancelled so the event loop can drop it.
        Failed events are left alone: their unhandled-failure propagation
        must still run.  Subclasses with external bookkeeping (resource
        requests, store getters, fused service events) override this to
        withdraw themselves.

        May return a one-argument finalizer to be run at interrupt
        *delivery* time (see the module docstring); the base hook
        returns None.
        """
        if self._state == _TRIGGERED and self._ok and not self.callbacks:
            self._state = _CANCELLED
            self.env._note_cancelled(self)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered",
                 _CANCELLED: "cancelled", _PROCESSED: "processed"}[self._state]
        return f"<{type(self).__name__} {state} at t={self.env.now:g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    The common construction path is :meth:`Environment.timeout`, which
    bypasses this ``__init__`` chain entirely; direct construction is
    kept for compatibility.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay)


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        env.schedule(self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The process succeeds with the generator's return value, or fails with
    the exception that escaped it.  Other processes may therefore wait
    for a process simply by yielding it.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        #: The bound resume callback, created once: appending
        #: ``self._resume`` would allocate a fresh bound method per wait.
        self._resume_cb = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._state == _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (or None)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self._state != _PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        target = self._target
        if target is None:
            raise SimulationError("cannot interrupt a process mid-step")
        callbacks = target.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        # Let the abandoned wait clean up after itself: resource requests
        # withdraw from their queue, scheduled waits are marked cancelled.
        # A returned finalizer (fused service events release their unit
        # this way) runs at delivery, just before the Interrupt lands.
        finalizer = target._abandoned()
        # Deliver the interrupt via an immediate, already-failed event.
        carrier = Event(self.env)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier._defused = True
        if finalizer is not None:
            carrier.callbacks.append(finalizer)
        carrier.callbacks.append(self._resume_cb)
        self.env.schedule(carrier)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        The loop carries ``(ok, value)`` locals instead of the event
        object itself so pooled Timeouts are not kept alive by a stale
        reference (the recycle gate proves sole ownership by refcount)
        and the dominant solo/pool cycle touches as few attributes as
        possible — this loop is the single hottest code in the package.
        """
        env = self.env
        generator = self._generator
        send = generator.send
        resume = self._resume_cb
        limit = env._limit
        grc = _schedmod._getrefcount
        timeout_t = Timeout
        triggered = _TRIGGERED
        processed = _PROCESSED
        self._target = None
        ok = event._ok
        value = event._value
        if not ok:
            event._defused = True
        event = None
        while True:
            try:
                if ok:
                    next_event = send(value)
                else:
                    next_event = generator.throw(value)
                    ok = True
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            # Solo short circuit: the yielded event is the parked solo
            # event (nothing else pending anywhere), so it is provably
            # the next dispatch — fire it inline and keep the generator
            # running.  The clock jumps straight to its due time.
            if next_event is env._solo and next_event is not None:
                when = env._solo_at
                if when <= limit:
                    env._now = when
                    env._solo = None
                    cbs = next_event.callbacks
                    value = next_event._value
                    if not cbs:
                        if (type(next_event) is timeout_t
                                and grc(next_event) == 2):
                            # Kernel-owned plain timeout: recycle it as
                            # is (still _TRIGGERED, empty callbacks) —
                            # unobservable without an outside reference.
                            # Overwriting an occupied one-slot cache
                            # merely abandons the older object.
                            env._tcache = next_event
                        else:
                            next_event._state = processed
                            next_event.callbacks = None
                    else:
                        # Pre-seeded internal callbacks (fused service
                        # events): run them now, in dispatch order —
                        # this resume loop *is* the final callback.
                        next_event._state = processed
                        next_event.callbacks = None
                        for cb in cbs:
                            cb(next_event)
                    next_event = None
                    continue

            # Fast path: a freshly scheduled timeout (the dominant wait).
            if type(next_event) is timeout_t:
                if next_event._state == triggered:
                    next_event.callbacks.append(resume)
                    self._target = next_event
                    return
            elif not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            state = next_event._state
            if state == processed or next_event.callbacks is None:
                # Already over: feed its outcome straight back in.
                ok = next_event._ok
                value = next_event._value
                if not ok:
                    next_event._defused = True
                next_event = None
                continue
            if state == _CANCELLED:
                env._revive(next_event)
            next_event.callbacks.append(resume)
            self._target = next_event
            return


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_outstanding")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._outstanding = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events belong to different environments")
            if ev._state == _PROCESSED or ev.callbacks is None:
                self._observe(ev)
            else:
                if ev._state == _CANCELLED:
                    env._revive(ev)
                self._outstanding += 1
                ev.callbacks.append(self._observe)
        if self._state == _PENDING:
            self._check_initial()

    def _check_initial(self) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> dict:
        return {
            i: ev._value
            for i, ev in enumerate(self._events)
            if ev._state == _PROCESSED and ev._ok
        }


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check_initial(self) -> None:
        if self._outstanding == 0:
            self.succeed(self._collect_values())

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Fires as soon as one constituent event has fired."""

    __slots__ = ()

    def _check_initial(self) -> None:
        for ev in self._events:
            if ev._state == _PROCESSED:
                self.succeed(self._collect_values())
                return
        if not self._events:
            self.succeed({})

    def _observe(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect_values())


class Environment:
    """The event loop: owns simulated time and the pending-event order.

    The ordering structure itself is pluggable: ``scheduler`` may be
    ``"calendar"`` (default — calendar queue with batched same-instant
    dispatch), ``"heap"`` (the verification backend), a scheduler class
    or a ready instance.  When ``scheduler`` is None the
    ``REPRO_SCHEDULER`` environment variable picks the backend.

    ``trace=True`` enables dispatch-order recording (``env.trace`` grows
    one ``(time, seq)`` pair per live dispatch) and disables the solo
    short circuit so every event flows through the structure — the
    scheduler-equivalence oracle compares these traces across backends.
    """

    __slots__ = ("_now", "_seq", "_active", "_sched", "_solo", "_solo_at",
                 "_solo_on", "_tcache", "_pending", "_limit")

    def __init__(self, initial_time: float = 0.0,
                 scheduler: "str | type | object | None" = None,
                 trace: bool = False):
        self._now = float(initial_time)
        self._seq = 0
        self._active = True
        self._sched = make_scheduler(scheduler)
        #: A triggered timeout parked outside the structure (see module
        #: docstring).  Invariant: ``_solo is not None`` implies the
        #: structure is empty (``_pending == 0``).
        self._solo: Optional[Event] = None
        self._solo_at = 0.0
        self._solo_on = not trace
        #: One-slot recycled-Timeout pool.  Invariant: a cached object
        #: is _TRIGGERED with an empty callbacks list, _ok, not defused.
        self._tcache: Optional[Timeout] = None
        #: Number of entries in the scheduler structure (cancelled ones
        #: included; the solo slot excluded).
        self._pending = 0
        #: Time ceiling of the active ``run(until=<float>)``, +inf
        #: otherwise; bounds the solo inline fire.
        self._limit = _INF
        if trace:
            self._sched.enable_trace()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduler(self):
        """The active scheduler backend instance."""
        return self._sched

    @property
    def trace(self) -> Optional[list]:
        """Recorded ``(time, seq)`` dispatch order (None unless tracing)."""
        return self._sched.trace

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create and schedule a timeout (inlined hot path)."""
        if delay < 0.0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        ev = self._tcache
        if ev is not None:
            self._tcache = None
            ev.delay = delay
            ev._value = value
        else:
            ev = Timeout.__new__(Timeout)
            ev.env = self
            ev.callbacks = []
            ev._state = _TRIGGERED
            ev._ok = True
            ev._value = value
            ev._defused = False
            ev.delay = delay
        if self._pending == 0 and self._solo is None and self._solo_on:
            self._solo = ev
            self._solo_at = self._now + delay
            return ev
        # _insert, inlined (this is the hottest scheduling call site).
        if self._solo is not None:
            self._flush()
        seq = self._seq + 1
        self._seq = seq
        self._pending += 1
        self._sched.insert(self._now + delay, seq, ev)
        return ev

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule a triggered event ``delay`` from now."""
        if event._state != _PENDING:
            raise SimulationError("event already scheduled")
        event._state = _TRIGGERED
        # _insert, inlined (hot: every process wake-up passes through).
        if self._solo is not None:
            self._flush()
        seq = self._seq + 1
        self._seq = seq
        self._pending += 1
        self._sched.insert(self._now + delay, seq, event)

    def _insert(self, when: float, event: Event) -> None:
        """The scheduling choke point: assign the next sequence number
        and hand the entry to the active scheduler.  Flushes the solo
        slot first so its sequence number lands exactly where its
        structure insert would have.

        ``timeout()`` and ``schedule()`` inline this exact body (they
        are the two hottest call sites); any change here must be
        mirrored there.  ``test_seq_strictly_monotone_across_both_paths``
        pins the shared contract."""
        if self._solo is not None:
            self._flush()
        seq = self._seq + 1
        self._seq = seq
        self._pending += 1
        self._sched.insert(when, seq, event)

    def _flush(self) -> None:
        """Move the parked solo event into the scheduler structure."""
        solo = self._solo
        if solo is not None:
            self._solo = None
            seq = self._seq + 1
            self._seq = seq
            self._pending += 1
            self._sched.insert(self._solo_at, seq, solo)

    def _note_cancelled(self, event: Event) -> None:
        """Account a newly cancelled scheduled event.

        A cancelled solo event is flushed into the structure first so
        revive and compaction see it exactly like any other entry.
        """
        if event is self._solo:
            self._flush()
        self._sched.note_cancelled(self)

    def _revive(self, event: Event) -> None:
        """Re-subscribe path: a cancelled (still structure-resident)
        event gained a new waiter, so it must be delivered after all."""
        event._state = _TRIGGERED
        self._sched._ncancelled -= 1

    def peek(self) -> float:
        """Time of the next event, or +inf if none is scheduled."""
        if self._solo is not None:
            return self._solo_at
        return self._sched.peek()

    def step(self) -> None:
        """Process exactly one event (cancelled events count as no-ops)."""
        if self._solo is not None:
            self._flush()
        event = self._sched.pop_one(self)
        self._pending -= 1
        if event._state == _CANCELLED:
            self._sched._ncancelled -= 1
            event._state = _PROCESSED
            event.callbacks = None
            return
        callbacks = event.callbacks
        event.callbacks = None
        event._state = _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until a time, until an event fires, or until empty.

        * ``until`` float: run all events up to and including that time,
          then set ``now`` to it.
        * ``until`` Event: run until that event is processed and return
          its value (raising if it failed).
        * ``until`` None: run until no events remain.

        All three modes delegate to dispatch loops owned by the active
        scheduler, with locals bound outside the loop; this is the
        hottest code in the package.
        """
        sched = self._sched

        if until is None:
            self._limit = _INF
            return sched.run_all(self)

        if isinstance(until, Event):
            sentinel = until
            if sentinel._state == _PROCESSED:
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            finished: list = []
            if sentinel.callbacks is None:  # pragma: no cover - safety
                raise SimulationError("cannot wait on this event")
            if sentinel._state == _CANCELLED:
                self._revive(sentinel)
            sentinel.callbacks.append(lambda ev: finished.append(ev))
            self._limit = _INF
            sched.run_event(self, finished)
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"cannot run to {horizon!r}: time is already {self._now!r}"
            )
        self._limit = horizon
        try:
            sched.run_horizon(self, horizon)
        finally:
            self._limit = _INF
        self._now = horizon
        return None


# Give the scheduler dispatch loops the concrete Timeout type for the
# object-pool gate without a circular import.
_schedmod._Timeout = Timeout
