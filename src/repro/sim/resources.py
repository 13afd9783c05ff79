"""Queueing resources for the simulation kernel.

TPSIM models every service station — CPUs, NVEM servers, disk
controllers, disk servers, multiprogramming slots — as a resource with a
fixed capacity and a FIFO (or priority) wait queue.  This module
provides those stations plus a :class:`Store` (producer/consumer queue,
used for the transaction input queue) and per-resource monitoring of
utilization and queue lengths.

Cancellation discipline: a withdrawn request (explicit :meth:`Resource.cancel`
or a process interrupt, which reaches :meth:`Request._abandoned` through
the kernel) is purged *eagerly* — removed from the FIFO queue, or
excluded from the priority queue's live count with periodic heap
compaction.  Queue-length statistics therefore never count cancelled
waiters, and the grant path stays O(log n) without lazy-deletion scans.

Uncontended fast path: when a unit is free (which for a consistent
resource implies an empty wait queue) *and no other event is pending at
the current instant*, :meth:`Resource.request` claims the unit
immediately and returns an *already-processed* request — the kernel
consumes such an event synchronously at the ``yield`` with no heap
insertion and no grant round trip.  The same-instant guard is what
keeps the simulation trajectory bit-identical: with nothing else
scheduled at ``now``, the zero-delay grant event would have been the
very next event popped, so skipping it runs the requester at exactly
the same point in the global ``(time, seq)`` dispatch order (dropping
the grant entry shifts every later sequence number uniformly, which
cannot reorder any tie).  With another event pending at ``now`` the
grant is scheduled on the heap as before, deferring the requester
behind that event exactly as it always was.

:meth:`Resource.claim` is the same grant without the request object:
it takes a unit only in exactly the situation where :meth:`request`
would have returned an already-processed request, and reports whether
it did.  Hot paths (the fused service events below and the CPU bursts
of :mod:`repro.core.cpu`) try it first, hold the unit as a bare count,
and return it with :meth:`Resource.release_claim`; only a contended or
deferred grant builds a :class:`Request`.

Fast-granted requests behave exactly like heap-granted ones afterwards:
:meth:`Resource.release` returns the unit, :meth:`Resource.cancel` (and
the interrupt machinery that funnels into it) treats the
granted-but-abandoned claim as a release, and utilization statistics
see the same busy transition at the same simulated time.

Usage pattern (inside a process generator)::

    req = cpu.request()
    yield req
    yield env.timeout(service_time)
    cpu.release(req)
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Generator, Optional

from repro.sim.core import (
    _PENDING,
    _PROCESSED,
    _TRIGGERED,
    Environment,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.stats import TimeWeighted

__all__ = ["PriorityResource", "Resource", "ResourceMonitor", "Store"]


class ResourceMonitor:
    """Time-weighted utilization / queue statistics for one resource."""

    __slots__ = ("busy", "queue", "requests", "completions")

    def __init__(self, env: Environment, capacity: int):
        self.busy = TimeWeighted(env)
        self.queue = TimeWeighted(env)
        self.requests = 0
        self.completions = 0

    def utilization(self, capacity: int) -> float:
        """Mean busy servers divided by capacity."""
        if capacity <= 0:
            return 0.0
        return self.busy.mean() / capacity

    def mean_queue_length(self) -> float:
        return self.queue.mean()

    def reset(self) -> None:
        """Restart statistics (warm-up boundary); keeps current levels."""
        self.busy.reset()
        self.queue.reset()
        self.requests = 0
        self.completions = 0


class Request(Event):
    """A pending or granted claim on a resource."""

    __slots__ = ("resource", "priority", "key", "cancelled")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.key: Any = None
        self.cancelled = False

    def _abandoned(self):
        """Kernel hook: the requesting process was interrupted.

        Withdraw the claim so a dead process is never granted a unit
        (queued request) and never leaks one (granted-but-undelivered
        request, which :meth:`Resource.cancel` turns into a release).
        """
        self.resource.cancel(self)
        Event._abandoned(self)
        return None


class _ServiceEvent(Timeout):
    """A fused acquire→hold→release cycle as one kernel event.

    ``yield resource.serve_event(draw)`` is the hot-path equivalent of
    ``yield from resource.serve(draw)``: one event object replaces the
    sub-generator, its grant round trip, and the separate service
    timeout, while reproducing the exact ``(time, seq)`` dispatch order
    and RNG draw positions of the generator version.

    Lifecycle:

    * uncontended grant — the unit is taken with :meth:`Resource.claim`
      (``_request`` stays None) and the event is created already
      *triggered* at ``now + draw()`` with a pre-seeded ``_finish``
      callback that releases the unit when the kernel dispatches it
      (parked in the environment's solo slot when nothing else is
      pending at all);
    * deferred or queued grant — stays *pending* with ``_on_grant``
      subscribed to the request; the service time is drawn at grant
      dispatch, exactly where the generator version drew it;
    * interrupt — the kernel's ``_abandoned`` hook withdraws a queued
      request immediately, while a granted-and-running service returns
      a finalizer that releases the unit at interrupt *delivery*,
      matching the generator version's ``except`` clause timing.

    A Timeout subclass so the kernel treats a scheduled instance like
    any other timed event; the exact-type gate on the object pool keeps
    it from ever being recycled as a plain timeout.
    """

    __slots__ = ("_resource", "_request", "_draw")

    def _on_grant(self, request: "Request") -> None:
        """Request-grant callback: draw the service time and schedule
        the completion (the grant was withdrawn if ``cancelled``)."""
        if request.cancelled:
            return
        delay = self._draw()
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.delay = delay
        self._state = _TRIGGERED
        env = self.env
        env._insert(env._now + delay, self)

    def _finish(self, event: Event) -> None:
        """Own completion callback (runs before the waiter's resume)."""
        request = self._request
        if request is None:
            self._resource.release_claim()
        else:
            self._resource.release(request)

    def _finalize(self, carrier: Event) -> None:
        """Interrupt-delivery finalizer: give back the held unit."""
        request = self._request
        if request is None:
            self._resource.release_claim()
        else:
            self._resource.cancel(request)

    def _abandoned(self):
        if self._state == _PENDING:
            # Still waiting for the grant: withdraw from the queue (or
            # turn an undelivered deferred grant into a release).
            request = self._request
            callbacks = request.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._on_grant)
                except ValueError:  # pragma: no cover - already granted
                    pass
            self._resource.cancel(request)
            Event._abandoned(request)
            return None
        # Unit held, completion scheduled: drop the completion event and
        # release the unit at interrupt delivery — the same instant the
        # generator version's ``except`` clause released it.
        try:
            self.callbacks.remove(self._finish)
        except ValueError:  # pragma: no cover - defensive
            pass
        Event._abandoned(self)
        return self._finalize


class Resource:
    """A server pool with ``capacity`` units and a FIFO wait queue.

    Cancelled waiters are marked and skipped on grant (amortized O(1));
    an exact live count keeps :meth:`queue_length` and the queue
    statistics O(1), and the backlog is compacted in one sweep once
    cancelled entries outnumber live ones, so mass interruption of a
    long queue costs O(n) total rather than O(n^2).
    """

    __slots__ = ("env", "capacity", "name", "users", "_waiters", "_live",
                 "monitor", "_pending_at")

    #: Backlog size below which compaction is not worth the sweep.
    _COMPACT_MIN = 32

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: int = 0
        self._waiters: deque = deque()
        self._live = 0
        self.monitor = ResourceMonitor(env, capacity)
        #: The scheduler's same-instant probe, bound once (the
        #: environment never swaps its scheduler).
        self._pending_at = env._sched.pending_at

    # -- queue discipline hooks (overridden by PriorityResource) ---------
    def _enqueue(self, request: Request) -> None:
        self._waiters.append(request)
        self._live += 1

    def _dequeue(self) -> Optional[Request]:
        waiters = self._waiters
        while waiters:
            request = waiters.popleft()
            if not request.cancelled:
                self._live -= 1
                return request
        return None

    def _purge(self, request: Request) -> None:
        """Account a cancelled request; compact when cancelled dominate."""
        self._live -= 1
        waiters = self._waiters
        if len(waiters) >= self._COMPACT_MIN and 2 * self._live <= len(waiters):
            alive = [r for r in waiters if not r.cancelled]
            waiters.clear()
            waiters.extend(alive)

    def _queue_len(self) -> int:
        return self._live

    # -- public API ------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim one unit; the returned event fires when granted.

        With a free unit and no other event pending at the current
        instant (:meth:`claim` succeeds), the returned request is
        already *processed* (``callbacks is None``): the grant costs no
        heap insertion and the requester resumes synchronously at the
        ``yield``.  See the module docstring for why the same-instant
        guard keeps the ``(time, seq)`` dispatch order bit-identical.
        """
        env = self.env
        if self.claim():
            # Synchronous grant: skip the Event.__init__ chain and the
            # succeed/schedule/step round trip entirely.
            request = Request.__new__(Request)
            request.env = env
            request.callbacks = None
            request._state = _PROCESSED
            request._ok = True
            request._defused = False
            request.resource = self
            request.priority = priority
            request.key = None
            request.cancelled = False
            request._value = request
            return request
        monitor = self.monitor
        monitor.requests += 1
        if self.users < self.capacity:
            # Another event is pending at this very instant: take the
            # unit now but defer the grant behind that event via the
            # scheduler, exactly as before.
            self.users += 1
            monitor.busy.record(self.users)
            request = Request(self, priority)
            request.succeed(request)
            return request
        request = Request(self, priority)
        self._enqueue(request)
        monitor.queue.record(self._queue_len())
        return request

    def claim(self) -> bool:
        """Take one unit without a :class:`Request`, if uncontended.

        Succeeds when a unit is free and nothing (cancelled entries
        included) is due at the current instant — exactly when
        :meth:`request` grants synchronously, with the same accounting;
        otherwise changes nothing and returns False, and the caller
        falls back to :meth:`request`.  A claimed unit is returned with
        :meth:`release_claim`.
        """
        users = self.users
        if users >= self.capacity:
            return False
        env = self.env
        now = env._now
        if env._solo is not None:
            if env._solo_at <= now:
                return False
        elif env._pending and self._pending_at(now):
            return False
        users += 1
        self.users = users
        monitor = self.monitor
        monitor.requests += 1
        busy = monitor.busy
        busy._area += busy._level * (now - busy._last)
        busy._last = now
        busy._level = users
        return True

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request (e.g. on interrupt)."""
        if request.cancelled:
            return
        if request._state >= _TRIGGERED:
            # Already granted: treat as release.
            self.release(request)
            return
        request.cancelled = True
        self._purge(request)
        self.monitor.queue.record(self._queue_len())

    def release(self, request: Request) -> None:
        """Return one unit and grant the next waiter, if any."""
        if request._state < _TRIGGERED:
            raise SimulationError("releasing a request that was never granted")
        if request.cancelled:
            raise SimulationError("releasing a cancelled request")
        request.cancelled = True  # guard against double release
        self.release_claim()

    def release_claim(self) -> None:
        """Return one held unit (taken by :meth:`claim`, or the unit of
        a request :meth:`release` has checked) and grant the next
        waiter, if any."""
        monitor = self.monitor
        monitor.completions += 1
        nxt = self._dequeue() if self._live else None
        if nxt is not None:
            monitor.queue.record(self._queue_len())
            nxt.succeed(nxt)
            return
        users = self.users - 1
        self.users = users
        busy = monitor.busy
        now = self.env._now
        busy._area += busy._level * (now - busy._last)
        busy._last = now
        busy._level = users

    def serve_event(self, draw_delay) -> Event:
        """Acquire one unit, hold it for a drawn service time, release —
        fused into a single yieldable event (see :class:`_ServiceEvent`).

        ``draw_delay`` is a zero-argument callable evaluated *after* the
        grant: service-time draw order relative to the queueing wait is
        part of the simulation's determinism contract, so it must not
        move to call time.  The cycle is interrupt-safe — if the waiting
        process is torn down, the claim is cancelled (withdrawing a
        queued request, releasing a held one) instead of leaking a
        capacity unit.
        """
        env = self.env
        ev = _ServiceEvent.__new__(_ServiceEvent)
        ev.env = env
        ev._ok = True
        ev._value = None
        ev._defused = False
        ev._resource = self
        if self.claim():
            # Uncontended grant: draw now (the same RNG position the
            # generator version drew at) and schedule completion.
            ev._request = None
            delay = draw_delay()
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay!r}")
            ev.delay = delay
            ev._draw = None
            ev._state = _TRIGGERED
            ev.callbacks = [ev._finish]
            if env._pending == 0 and env._solo is None and env._solo_on:
                env._solo = ev
                env._solo_at = env._now + delay
            else:
                env._insert(env._now + delay, ev)
            return ev
        # Deferred or queued grant: draw at grant dispatch.
        request = self.request()
        ev._request = request
        ev.delay = 0.0
        ev._draw = draw_delay
        ev._state = _PENDING
        ev.callbacks = [ev._finish]
        request.callbacks.append(ev._on_grant)
        return ev

    def serve(self, draw_delay) -> Generator:
        """Generator form of :meth:`serve_event` (compatibility shim for
        ``yield from`` call sites; hot paths yield the event directly)."""
        yield self.serve_event(draw_delay)

    @property
    def queue_length(self) -> int:
        """Number of live (non-cancelled) requests currently waiting."""
        return self._queue_len()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"{self.users}/{self.capacity} busy, "
                f"{self._queue_len()} queued>")


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value first.

    Ties are FIFO (stable via a sequence number).  Cancellation follows
    the same mark-and-compact scheme as the base class, adapted to the
    heap (which cannot drop an arbitrary entry in O(log n)).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._heap: list = []
        self._seq = 0

    def _enqueue(self, request: Request) -> None:
        self._seq += 1
        request.key = (request.priority, self._seq)
        heappush(self._heap, (request.key, request))
        self._live += 1

    def _dequeue(self) -> Optional[Request]:
        heap = self._heap
        while heap:
            _, request = heappop(heap)
            if not request.cancelled:
                self._live -= 1
                return request
        return None

    def _purge(self, request: Request) -> None:
        self._live -= 1
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and 2 * self._live <= len(heap):
            heap[:] = [e for e in heap if not e[1].cancelled]
            heapify(heap)


class _StoreGet(Event):
    """A pending ``get`` on a :class:`Store`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store

    def _abandoned(self) -> None:
        """Kernel hook: the getter was interrupted — leave the queue so a
        later ``put`` does not hand its item to a dead process."""
        try:
            self.store._getters.remove(self)
        except ValueError:  # pragma: no cover - already served
            pass
        Event._abandoned(self)


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    Used for the transaction input queue of the transaction manager:
    the SOURCE ``put``s arrivals; MPL slots ``get`` them.
    """

    __slots__ = ("env", "name", "_items", "_getters", "monitor")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()
        self.monitor = ResourceMonitor(env, 1)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes one blocked getter if present."""
        self.monitor.requests += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                self.monitor.completions += 1
                return
        self._items.append(item)
        self.monitor.queue.record(len(self._items))

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = _StoreGet(self)
        if self._items:
            item = self._items.popleft()
            self.monitor.queue.record(len(self._items))
            self.monitor.completions += 1
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
