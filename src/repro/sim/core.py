"""Core of the discrete-event simulation kernel.

This module implements the event loop, events, timeouts, generator-based
processes, process interruption and condition events.  It plays the role
the DeNet runtime played for the original TPSIM: everything else in the
reproduction (CPUs, disks, lock queues, buffer managers) is expressed as
processes that yield events produced here.

Design notes
------------
* Events are ordered by ``(time, sequence)`` in one binary heap of
  ``(time, seq, event)`` tuples owned by :class:`Environment`; the
  sequence number makes simultaneous events FIFO and the simulation
  fully deterministic for a fixed seed.  ``Environment(trace=True)``
  records ``(time, seq)`` per live dispatch, so that order is directly
  testable.
* All scheduling funnels through one choke point,
  :meth:`Environment._insert`, which assigns the strictly monotone
  sequence number and pushes the entry onto the heap.
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
round trips, so that path is kept short:

* **Timeout pooling**: a dispatched :class:`Timeout` that the kernel
  can *prove* it solely owns (``sys.getrefcount == 2`` at the recycle
  point: the dispatch local plus the call argument) is recycled through
  a one-slot pool (``env._tcache``) instead of being reallocated —
  event construction, not heap arithmetic, dominates the kernel's
  per-event cost.  An object with any outside reference is marked
  processed normally, so user-held timeouts observe the documented
  lifecycle.
* :meth:`Environment.run` is one dispatch loop with all lookups bound
  to locals; it runs to a time horizon (``+inf`` when draining) or
  until an awaited event fires.  This is the hottest code in the
  package.
* Yielding an *already-processed* event feeds its value straight back
  into the generator without suspending — no heap traffic, no
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
outnumber live events (at least ``_COMPACT_MIN`` of them and half of
all pending entries) the heap is compacted so interrupted waits do not
accumulate.  An event collected by compaction is treated as
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

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Generator, Iterable, Optional

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

# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled, value fixed
_CANCELLED = 2  # scheduled but abandoned: dropped unless re-subscribed
_PROCESSED = 3  # callbacks have run

#: Cancelled heap entries before a compaction sweep is considered.
_COMPACT_MIN = 64

_INF = float("inf")


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
            self.env._note_cancelled()
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
        reference (the recycle gate proves sole ownership by refcount);
        this loop is the single hottest code in the package.
        """
        env = self.env
        generator = self._generator
        send = generator.send
        resume = self._resume_cb
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
                self._resume_cb = None
                env.schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._resume_cb = None
                env.schedule(self)
                return

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
                self._resume_cb = None
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
    """The event loop: owns simulated time and the pending-event heap.

    ``trace=True`` enables dispatch-order recording: ``env.trace`` grows
    one ``(time, seq)`` pair per live dispatch.
    """

    __slots__ = ("_now", "_seq", "_heap", "_ncancelled", "_trace",
                 "_tcache")

    def __init__(self, initial_time: float = 0.0, trace: bool = False):
        self._now = float(initial_time)
        self._seq = 0
        #: ``(time, seq, event)`` entries, cancelled ones included.
        #: Compaction rewrites this list in place: the run loop and
        #: the resource layer hold references to it.
        self._heap: list = []
        #: Cancelled entries still in the heap.
        self._ncancelled = 0
        self._trace: Optional[list] = [] if trace else None
        #: One-slot recycled-Timeout pool.  Invariant: a cached object
        #: is _TRIGGERED with an empty callbacks list, _ok, not defused.
        self._tcache: Optional[Timeout] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def trace(self) -> Optional[list]:
        """Recorded ``(time, seq)`` dispatch order (None unless tracing)."""
        return self._trace

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
        # _insert, inlined (this is the hottest scheduling call site).
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self._now + delay, seq, ev))
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
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self._now + delay, seq, event))

    def _insert(self, when: float, event: Event) -> None:
        """The scheduling choke point: assign the next sequence number
        and push the entry onto the heap.

        ``timeout()`` and ``schedule()`` inline this exact body (they
        are the two hottest call sites); any change here must be
        mirrored there.  ``test_seq_strictly_monotone_across_both_paths``
        pins the shared contract."""
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, seq, event))

    def _note_cancelled(self) -> None:
        """Account one newly cancelled heap entry; compact when dominant.

        Compaction removes cancelled entries outright so that mass
        interruption (e.g. aborting a wave of blocked transactions)
        does not leave the heap dragging thousands of dead waits.
        Collected events are marked processed: anyone who later waits
        on one gets its value immediately, as for any past event.
        """
        n = self._ncancelled + 1
        self._ncancelled = n
        heap = self._heap
        if n >= _COMPACT_MIN and 2 * n >= len(heap):
            alive = []
            for entry in heap:
                ev = entry[2]
                if ev._state == _CANCELLED:
                    ev._state = _PROCESSED
                    ev.callbacks = None
                else:
                    alive.append(entry)
            heap[:] = alive
            heapify(heap)
            self._ncancelled = 0

    def _revive(self, event: Event) -> None:
        """Re-subscribe path: a cancelled (still heap-resident) event
        gained a new waiter, so it must be delivered after all."""
        event._state = _TRIGGERED
        self._ncancelled -= 1

    def peek(self) -> float:
        """Time of the next event, or +inf if none is scheduled."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until a time, until an event fires, or until empty.

        * ``until`` float: run all events up to and including that time,
          then set ``now`` to it.
        * ``until`` Event: run until that event is processed and return
          its value (raising if it failed, and raising
          :class:`SimulationError` if the heap drains first).
        * ``until`` None: run until no events remain.

        All three modes share one dispatch loop, which stops at the
        horizon (``+inf`` unless ``until`` is a time) or once the
        awaited event has fired.
        """
        horizon = _INF
        finished: "list | tuple" = ()
        sentinel = None
        if isinstance(until, Event):
            sentinel = until
            if sentinel._state == _PROCESSED:
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            if sentinel.callbacks is None:  # pragma: no cover - safety
                raise SimulationError("cannot wait on this event")
            if sentinel._state == _CANCELLED:
                self._revive(sentinel)
            finished = []
            sentinel.callbacks.append(finished.append)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"cannot run to {horizon!r}: time is already {self._now!r}"
                )

        heap = self._heap
        pop = heappop
        tr = self._trace
        grc = getrefcount
        timeout_cls = Timeout
        while heap and heap[0][0] <= horizon:
            when, seq, event = pop(heap)
            self._now = when
            if event._state == _CANCELLED:
                self._ncancelled -= 1
                event._state = _PROCESSED
                event.callbacks = None
                continue
            if tr is not None:
                tr.append((when, seq))
            callbacks = event.callbacks
            event.callbacks = None
            event._state = _PROCESSED
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
            if (type(event) is timeout_cls and self._tcache is None
                    and grc(event) == 2):
                # Only the kernel still references this timeout: recycle
                # it through the one-slot object pool.
                event._state = _TRIGGERED
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None
                self._tcache = event
            if finished:
                break

        if sentinel is not None:
            if not finished:
                raise SimulationError(
                    "event loop ran dry before the awaited event fired"
                )
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value
        if until is not None:
            self._now = horizon
        return None
