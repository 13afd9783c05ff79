"""Event-heap tests: sequence monotonicity, cancellation/compaction,
same-instant FIFO order, the one dispatch loop behind every ``run``
mode, and timeout pooling.

The dispatch contract is the ``(time, seq)`` order of the environment's
binary heap.  ``Environment(trace=True)`` records exactly that order,
which makes the contract directly checkable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.core import Timeout

# The binary heap is the only event structure.  Tests of its dispatch
# contract carry a ``[heap]`` id naming the structure they exercise.
ON_HEAP = pytest.mark.parametrize((), [pytest.param(id="heap")])


# ---------------------------------------------------------------------------
# _seq strictly monotone across both scheduling paths
# ---------------------------------------------------------------------------

@ON_HEAP
def test_seq_strictly_monotone_across_both_paths():
    """``Environment.schedule`` (explicit events) and the inlined
    ``timeout`` insert share one ``_insert`` choke point; the sequence
    counter must advance strictly monotonically over any interleaving
    of the two paths."""
    env = Environment(trace=True)
    rng = random.Random(42)
    seq_after = []
    for _ in range(300):
        if rng.random() < 0.5:
            env.timeout(rng.random() * 5.0)
        else:
            env.event().succeed(None)  # goes through schedule()
        seq_after.append(env._seq)
    # One fresh, strictly larger sequence number per scheduling call.
    assert seq_after == list(range(1, 301))
    env.run()
    # Dispatch consumed each entry exactly once, in (time, seq) order.
    tr = env.trace
    assert sorted(seq for _, seq in tr) == list(range(1, 301))
    assert tr == sorted(tr)


# ---------------------------------------------------------------------------
# Cancellation / compaction
# ---------------------------------------------------------------------------

@ON_HEAP
def test_ninety_percent_cancelled_dispatches_survivors_in_order():
    """A heap that is 90% cancelled must still dispatch the surviving
    10% in exact (time, seq) order."""
    env = Environment(trace=True)
    rng = random.Random(7)

    def waiter(env, delay):
        try:
            yield env.timeout(delay)
        except Interrupt:
            pass

    procs = []
    for i in range(400):
        delay = rng.choice([1.0, 2.0, 2.0, 3.0, 1.0 + rng.random() * 3.0])
        procs.append((env.process(waiter(env, delay)), i))
    # Interrupt 90% of them at t=0.5 (before any timeout fires).
    doomed = set(idx for _, idx in procs if idx % 10 != 0)

    def attacker(env):
        yield env.timeout(0.5)
        for p, idx in procs:
            if idx in doomed and p.is_alive:
                p.interrupt()

    env.process(attacker(env))
    env.run()
    for p, idx in procs:
        assert not p.is_alive
    # The trace records every live dispatch as (time, seq): it must be
    # sorted under exactly the (time, seq) ordering contract.
    tr = env.trace
    assert tr == sorted(tr)


@ON_HEAP
def test_compaction_preserves_revived_events():
    """An event cancelled and then re-awaited (revived) must still fire
    at its original time even though compaction ran in between."""
    env = Environment()
    shared = env.timeout(50.0, value="late")

    def victim(env):
        try:
            yield shared
        except Interrupt:
            pass

    v = env.process(victim(env))
    fired = []

    def attacker(env):
        yield env.timeout(1.0)
        v.interrupt()
        # shared is now cancelled; re-subscribe before compaction.
        value = yield shared
        fired.append((env.now, value))

    env.process(attacker(env))
    env.run()
    assert fired == [(50.0, "late")]


# ---------------------------------------------------------------------------
# Same-instant cohort semantics
# ---------------------------------------------------------------------------

@ON_HEAP
def test_same_instant_cohort_fifo():
    """All events at one timestamp dispatch in creation (seq) order,
    including events appended to the instant *while it is draining*."""
    env = Environment()
    order = []

    def job(env, tag):
        yield env.timeout(1.0)
        order.append(tag)
        if tag < 3:
            # Schedule another zero-delay event at the same instant.
            env.process(tail(env, tag))

    def tail(env, tag):
        yield env.timeout(0.0)
        order.append(("tail", tag))

    for tag in range(5):
        env.process(job(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4, ("tail", 0), ("tail", 1), ("tail", 2)]


@ON_HEAP
def test_run_until_event_mid_cohort_then_resume():
    """run(until=event) may stop in the middle of a same-instant cohort;
    a subsequent run must finish the rest of the cohort in order."""
    env = Environment()
    order = []

    def make(tag):
        ev = env.event()
        ev._ok = True
        ev.callbacks.append(lambda e, t=tag: order.append(t))
        env.schedule(ev, 1.0)
        return ev

    for tag in range(3):
        make(tag)
    sentinel = env.timeout(1.0)
    for tag in range(3, 6):
        make(tag)
    env.run(until=sentinel)
    # Stopped mid-cohort: 3..5 share the instant but have larger seqs.
    assert order == [0, 1, 2]
    assert env.peek() == 1.0
    env.run()
    assert order == [0, 1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# One dispatch loop behind every run mode (hypothesis property test)
# ---------------------------------------------------------------------------

_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["spawn", "interrupt", "chain", "burst"]),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False,
                  allow_infinity=False, width=32),
    ),
    min_size=1,
    max_size=40,
)

#: Due after every action of a workload: 40 driver steps of at most
#: 2.0 each, plus a chained wait of at most 16.
_LAST_AT = 1000.0


def _drive(actions, mode):
    """Run one deterministic workload built from ``actions`` with the
    run mode ``mode`` and return the full (time, seq) dispatch trace,
    an observable event log and the final clock."""
    env = Environment(trace=True)
    log = []
    procs = {}
    # Scheduled first in every mode, so the traces stay comparable; it
    # is the last event to fire.
    last = env.timeout(_LAST_AT, value="last")

    def sleeper(env, key, delay):
        try:
            yield env.timeout(delay)
            log.append(("woke", key, env.now))
        except Interrupt:
            log.append(("interrupted", key, env.now))

    def chained(env, key, delay):
        # Two sequential waits; same-instant when delay == 0.
        try:
            yield env.timeout(delay)
            yield env.timeout(delay)
            log.append(("chained", key, env.now))
        except Interrupt:
            log.append(("interrupted", key, env.now))

    def burst(env, key, delay):
        # A fan-out of simultaneous events.
        try:
            for i in range(3):
                env.process(sleeper(env, (key, i), delay))
            yield env.timeout(delay)
            log.append(("burst", key, env.now))
        except Interrupt:
            log.append(("interrupted", key, env.now))

    def driver(env):
        for kind, slot, delay in actions:
            if kind == "spawn":
                procs[slot] = env.process(sleeper(env, slot, delay))
            elif kind == "chain":
                procs[slot] = env.process(chained(env, slot, delay))
            elif kind == "burst":
                procs[slot] = env.process(burst(env, slot, delay))
            elif kind == "interrupt":
                p = procs.get(slot)
                if p is not None and p.is_alive:
                    p.interrupt()
            yield env.timeout(delay * 0.25)

    env.process(driver(env))
    if mode == "drain":
        assert env.run() is None
    elif mode == "horizon":
        assert env.run(until=2 * _LAST_AT) is None
    elif mode == "last-event":
        assert env.run(until=last) == "last"
        assert env.peek() == float("inf")
    else:
        with pytest.raises(SimulationError, match="ran dry"):
            env.run(until=env.event())
    return list(env.trace), log, env.now


@settings(max_examples=60, deadline=None)
@given(actions=_ACTIONS)
def test_run_modes_share_one_dispatch_order(actions):
    """``run()``, ``run(until=T)`` past the last event and
    ``run(until=<last event>)`` record identical (time, seq) traces; an
    awaited event that never fires still drains the heap and raises."""
    trace, log, now = _drive(actions, "drain")
    assert trace == sorted(trace)
    assert trace[-1][0] == now == _LAST_AT
    assert _drive(actions, "horizon") == (trace, log, 2 * _LAST_AT)
    assert _drive(actions, "last-event") == (trace, log, _LAST_AT)
    assert _drive(actions, "never-fired") == (trace, log, _LAST_AT)


# ---------------------------------------------------------------------------
# Timeout pooling safety
# ---------------------------------------------------------------------------

@ON_HEAP
def test_pooling_never_recycles_a_referenced_timeout():
    """A timeout the user still holds must keep its documented final
    state (processed, value intact) instead of being recycled."""
    env = Environment()
    held = []

    def proc(env):
        for i in range(50):
            t = env.timeout(1.0, value=i)
            held.append(t)
            got = yield t
            assert got == i

    env.process(proc(env))
    env.run()
    assert all(t.processed for t in held)
    assert [t.value for t in held] == list(range(50))
    assert len(set(map(id, held))) == 50  # no aliasing of held objects


@ON_HEAP
def test_pooled_timeouts_are_fresh_per_wait():
    """Anonymous timeouts may be recycled internally, but each wait
    observes its own delay and value."""
    env = Environment()
    seen = []

    def proc(env):
        for i in range(100):
            got = yield env.timeout(0.5, value=i * 2)
            seen.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert seen == [(0.5 * (i + 1), i * 2) for i in range(100)]


def test_pool_is_type_exact():
    """Timeout subclasses (fused service events) must never enter the
    one-slot pool: a later env.timeout() would hand back the subclass."""
    from repro.sim.resources import Resource

    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        yield res.serve_event(lambda: 1.0)
        t = env.timeout(1.0)
        assert type(t) is Timeout
        yield t

    env.process(proc(env))
    env.run()
    assert env.now == 2.0
