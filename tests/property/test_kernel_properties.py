"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource
from repro.storage.cache import NonVolatileCachePolicy, VolatileCachePolicy


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_time_is_monotonic(delays):
    """Event processing never moves the clock backwards."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(st.floats(min_value=0.001, max_value=5.0,
                            allow_nan=False),
                  min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_resource_conservation(capacity, jobs):
    """Work conservation: busy servers never exceed capacity and total
    busy time equals total service demand."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_users = [0]

    def job(env, service):
        req = resource.request()
        yield req
        max_users[0] = max(max_users[0], resource.users)
        yield env.timeout(service)
        resource.release(req)

    for service in jobs:
        env.process(job(env, service))
    env.run()
    assert max_users[0] <= capacity
    assert resource.users == 0
    assert resource.monitor.busy.integral() == \
        _approx(sum(jobs))


def _approx(value):
    import pytest
    return pytest.approx(value, rel=1e-9)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(st.floats(min_value=0.001, max_value=5.0,
                            allow_nan=False),
                  min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_fifo_resource_completion_order_single_server(capacity, jobs):
    """With capacity 1 and simultaneous arrival, completion order is
    submission order (FIFO)."""
    if capacity != 1:
        return
    env = Environment()
    resource = Resource(env, capacity=1)
    completions = []

    def job(env, index, service):
        req = resource.request()
        yield req
        yield env.timeout(service)
        resource.release(req)
        completions.append(index)

    for i, service in enumerate(jobs):
        env.process(job(env, i, service))
    env.run()
    assert completions == list(range(len(jobs)))


cache_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "complete"]),
              st.integers(min_value=0, max_value=15)),
    max_size=200,
)


@given(capacity=st.integers(min_value=1, max_value=8), ops=cache_ops)
@settings(max_examples=100, deadline=None)
def test_volatile_cache_policy_bounded(capacity, ops):
    cache = VolatileCachePolicy(capacity)
    for op, key in ops:
        if op == "read":
            decision = cache.on_read(key)
            if not decision.hit:
                cache.on_read_fill(key)
        elif op == "write":
            decision = cache.on_write(key)
            # Volatile caches never absorb writes.
            assert decision.needs_disk
        assert len(cache) <= capacity


@given(capacity=st.integers(min_value=1, max_value=8), ops=cache_ops)
@settings(max_examples=100, deadline=None)
def test_nonvolatile_cache_policy_invariants(capacity, ops):
    cache = NonVolatileCachePolicy(capacity)
    pending = []
    for op, key in ops:
        if op == "read":
            decision = cache.on_read(key)
            if not decision.hit:
                cache.on_read_fill(key)
        elif op == "write":
            decision = cache.on_write(key)
            if decision.async_disk_write:
                pending.append(decision.entry)
            # Either absorbed by the cache or sent to disk, never both.
            assert decision.hit != decision.needs_disk
        elif op == "complete" and pending:
            cache.on_disk_write_complete(pending.pop(0))
        assert len(cache) <= capacity
        assert cache.dirty_count() <= len(cache)
    # Completing everything leaves no dirty pages.
    while pending:
        cache.on_disk_write_complete(pending.pop(0))
    assert cache.dirty_count() == 0


# ---------------------------------------------------------------------------
# Uncontended claims versus the Request-based grant they replace.
#
# The oracle below keeps the Request-only resource verbatim: every grant,
# including an uncontended one, builds a Request, and the CPU primitives
# test ``request.callbacks is None`` to take their immediate branch.  The
# one edit is ``_pending_now(env)`` for the environment method of the
# same body.  Runs of the same generated job mix under both must agree
# event for event.

from repro.core.config import CMConfig
from repro.core.cpu import CPUPool, _CPUBurst
from repro.core.transaction import Transaction
from repro.sim import Interrupt, RandomStreams
from repro.sim.core import _PENDING, _PROCESSED, _TRIGGERED, SimulationError
from repro.sim.resources import Request, _ServiceEvent


def _pending_now(env):
    """True if any entry (cancelled included) is due at this very
    instant — the resource layer's uncontended fast-grant guard."""
    heap = env._heap
    return bool(heap) and heap[0][0] <= env._now


class _OracleResource(Resource):
    __slots__ = ()

    def claim(self):  # pragma: no cover - the oracle never claims
        raise AssertionError("the oracle grants through request() only")

    def request(self, priority: int = 0) -> Request:
        self.monitor.requests += 1
        env = self.env
        if self.users < self.capacity:
            self.users += 1
            self.monitor.busy.record(self.users)
            if not _pending_now(env):
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
            request = Request(self, priority)
            request.succeed(request)
            return request
        request = Request(self, priority)
        self._enqueue(request)
        self.monitor.queue.record(self._queue_len())
        return request

    def cancel(self, request: Request) -> None:
        if request.cancelled:
            return
        if request.triggered:
            self.release(request)
            return
        request.cancelled = True
        self._purge(request)
        self.monitor.queue.record(self._queue_len())

    def release(self, request: Request) -> None:
        if not request.triggered:
            raise SimulationError("releasing a request that was never granted")
        if request.cancelled:
            raise SimulationError("releasing a cancelled request")
        request.cancelled = True
        self.monitor.completions += 1
        nxt = self._dequeue()
        if nxt is not None:
            self.monitor.queue.record(self._queue_len())
            nxt.succeed(nxt)
        else:
            self.users -= 1
            self.monitor.busy.record(self.users)

    def serve_event(self, draw_delay):
        env = self.env
        request = self.request()
        ev = _ServiceEvent.__new__(_ServiceEvent)
        ev.env = env
        ev._ok = True
        ev._value = None
        ev._defused = False
        ev._resource = self
        ev._request = request
        if request.callbacks is None:
            delay = draw_delay()
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay!r}")
            ev.delay = delay
            ev._draw = None
            ev._state = _TRIGGERED
            ev.callbacks = [ev._finish]
            env._insert(env._now + delay, ev)
            return ev
        ev.delay = 0.0
        ev._draw = draw_delay
        ev._state = _PENDING
        ev.callbacks = [ev._finish]
        request.callbacks.append(ev._on_grant)
        return ev


class _OracleCPUPool(CPUPool):
    def __init__(self, env, streams, config):
        super().__init__(env, streams, config)
        self._streams = streams
        self.cpus = _OracleResource(env, config.num_cpus, name="cpu")

    def _service_seconds(self, mean_instructions, exponential):
        if mean_instructions <= 0:
            return 0.0
        if exponential:
            instructions = self._streams.exponential(
                "cpu-service", mean_instructions
            )
        else:
            instructions = mean_instructions
        return self.config.cpu_seconds(instructions)

    def execute_event(self, tx, mean_instructions, exponential=True):
        service = self._service_seconds(mean_instructions, exponential)
        env = self.env
        cpus = self.cpus
        request = cpus.request()
        if request.callbacks is None:
            if service <= 0:
                cpus.release(request)
                return None
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
            ev._queued_at = 0.0
            ev._state = _TRIGGERED
            ev.callbacks = [ev._finish]
            env._insert(env._now + service, ev)
            return ev
        queued_at = env._now
        if service <= 0:
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

    def execute_with_sync_access(self, tx, mean_instructions, access,
                                 exponential=False):
        service = self._service_seconds(mean_instructions, exponential)
        cpus = self.cpus
        request = cpus.request()
        if request.callbacks is None:
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
                cpus.cancel(request)
                raise
            cpus.release(request)
            return result
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


#: Instants on a coarse grid, so arrivals, completions and interrupts
#: coincide often (same-instant grants are where claim and request
#: could part ways).
_grid = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)

_claim_jobs = st.lists(
    st.tuples(
        st.sampled_from(["burst", "zero-burst", "sync", "serve", "draw",
                         "request"]),
        _grid,                                   # start
        st.integers(min_value=1, max_value=8),   # service, grid steps
        st.one_of(st.none(), _grid.map(lambda t: t + 0.125),
                  _grid.filter(lambda t: t > 0)),  # interrupt instant
    ),
    min_size=1, max_size=25,
)


def _run_claim_mix(jobs, cpus, dev_capacity, oracle, trace):
    env = Environment(trace=trace)
    streams = RandomStreams(5)
    config = CMConfig(num_cpus=cpus, mips=1.0)
    pool = (_OracleCPUPool if oracle else CPUPool)(env, streams, config)
    dev = (_OracleResource if oracle else Resource)(env, dev_capacity)
    draw = (lambda: streams.exponential("dev", 0.5)) if oracle \
        else streams.exponential_draw("dev", 0.5)
    log = []
    txs = []

    def job(index, kind, start, steps):
        tx = Transaction(index, kind, [])
        txs.append(tx)
        service = steps * 0.25
        req = None
        try:
            yield env.timeout(start)
            if kind == "burst":
                burst = pool.execute_event(tx, steps * 250_000.0)
                if burst is not None:
                    yield burst
            elif kind == "zero-burst":
                burst = pool.execute_event(tx, 0.0)
                if burst is not None:
                    yield burst
            elif kind == "sync":
                def access():
                    yield dev.serve_event(lambda: service)
                    return "done"

                got = yield from pool.execute_with_sync_access(
                    tx, steps * 125_000.0, access())
                assert got == "done"
            elif kind == "serve":
                yield dev.serve_event(lambda: service)
            elif kind == "draw":
                yield dev.serve_event(draw)
            else:
                req = dev.request()
                yield req
                yield env.timeout(service)
                dev.release(req)
            log.append((index, "done", env.now))
        except Interrupt:
            if req is not None:
                dev.cancel(req)
            log.append((index, "interrupted", env.now))

    def attacker(victim, at):
        yield env.timeout(at)
        if victim.is_alive and victim.target is not None:
            victim.interrupt("test")

    for index, (kind, start, steps, interrupt_at) in enumerate(jobs):
        victim = env.process(job(index, kind, start, steps))
        if interrupt_at is not None:
            env.process(attacker(victim, interrupt_at))
    env.run()
    resources = (pool.cpus, dev)
    return {
        "trace": env.trace,
        "log": log,
        "now": env.now,
        "users": [r.users for r in resources],
        "counts": [(r.monitor.requests, r.monitor.completions)
                   for r in resources],
        "busy": [r.monitor.busy.integral() for r in resources],
        "queue": [r.monitor.queue.integral() for r in resources],
        "accounting": [(tx.wait_cpu, tx.service_cpu, tx.wait_nvem)
                       for tx in txs],
    }


@given(jobs=_claim_jobs, cpus=st.integers(min_value=1, max_value=3),
       dev_capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_claim_path_matches_request_oracle(jobs, cpus, dev_capacity):
    """Claims and the Request-based grants they replace dispatch the
    same ``(time, seq)`` order, with identical resource statistics,
    with and without dispatch tracing."""
    for trace in (True, False):
        new = _run_claim_mix(jobs, cpus, dev_capacity, False, trace)
        oracle = _run_claim_mix(jobs, cpus, dev_capacity, True, trace)
        assert new == oracle
        assert new["users"] == [0, 0]
        if trace:
            assert len(new["trace"]) > 0
