"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_time():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [3.5]


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_zero_timeout_runs_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_are_deterministic():
    env = Environment()
    order = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, "first", 2.0))
    env.process(proc(env, "second", 2.0))
    env.run()
    assert order == ["first", "second"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_run_until_event_never_fires_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_process_waits_for_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(3.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(3.0, "done")]


def test_process_return_value_via_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return {"answer": 7}

    assert env.run(until=env.process(proc(env))) == {"answer": 7}


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(4.0, "open")]


def test_event_double_succeed_raises():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_failure_raises_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_waiting_on_already_processed_event():
    env = Environment()
    log = []

    def proc(env):
        done = env.timeout(0.0, value="early")
        yield env.timeout(5.0)
        # `done` processed long ago; waiting must return immediately.
        value = yield done
        log.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert log == [(5.0, "early")]


def test_interrupt_during_timeout():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def attacker(env, target):
        yield env.timeout(2.0)
        target.interrupt(cause="deadlock")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [("interrupted", 2.0, "deadlock")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [6.0]


def test_is_alive_reflects_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_all_of_waits_for_everything():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        results = yield AllOf(env, [t1, t2])
        log.append((env.now, sorted(results.values())))

    env.process(proc(env))
    env.run()
    assert log == [(3.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    log = []

    def proc(env):
        yield AllOf(env, [])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(9.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        log.append((env.now, list(results.values())))

    env.process(proc(env))
    env.run(until=20.0)
    assert log == [(1.0, ["fast"])]


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_heap_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_nested_yield_from_composition():
    env = Environment()
    log = []

    def inner(env):
        yield env.timeout(2.0)
        return "inner-result"

    def outer(env):
        value = yield from inner(env)
        log.append((env.now, value))
        yield env.timeout(1.0)
        log.append(env.now)

    env.process(outer(env))
    env.run()
    assert log == [(2.0, "inner-result"), 3.0]


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


# -- Environment.run edge cases ------------------------------------------


def test_simultaneous_events_exactly_at_float_horizon():
    env = Environment()
    log = []

    def proc(env, tag):
        yield env.timeout(2.5)
        log.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run(until=2.5)
    assert log == ["a", "b", "c"]
    assert env.now == 2.5


def test_zero_delay_chain_spawned_at_horizon_still_runs():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2.5)
        yield env.timeout(0.0)  # lands exactly on the horizon
        log.append(env.now)

    env.process(proc(env))
    env.run(until=2.5)
    assert log == [2.5]


def test_run_until_event_that_fails_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("kaboom")

    with pytest.raises(KeyError, match="kaboom"):
        env.run(until=env.process(proc(env)))


def test_run_until_failed_and_processed_event_raises():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("late"))
    gate.defuse()
    env.run()  # processes the failed (defused) event
    with pytest.raises(RuntimeError, match="late"):
        env.run(until=gate)


def test_fifo_of_same_time_events_across_fast_path():
    """Timeouts (fast path) and plain events (generic path) landing at
    the same instant must still dispatch in creation order."""
    env = Environment()
    order = []

    def waiter(env, ev, tag):
        yield ev
        order.append(tag)

    def sleeper(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    e1 = env.event()
    env.process(waiter(env, e1, "event-1"))
    env.process(sleeper(env, "timeout-1"))
    e2 = env.event()
    env.process(waiter(env, e2, "event-2"))
    env.process(sleeper(env, "timeout-2"))

    def trigger(env):
        yield env.timeout(1.0)
        # succeed() schedules at the current instant, after the
        # already-scheduled timeouts.
        e1.succeed()
        e2.succeed()

    env.process(trigger(env))
    env.run()
    assert order == ["timeout-1", "timeout-2", "event-1", "event-2"]


# -- cancellation-aware scheduling ---------------------------------------


def test_interrupted_timeout_is_dropped_from_dispatch():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass

    def attacker(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    # The abandoned timeout surfaced at t=100 as a no-op; no crash, no
    # resurrection of the victim.
    assert not target.is_alive


def test_mass_interrupt_compacts_heap():
    env = Environment()
    victims = []

    def victim(env):
        try:
            yield env.timeout(1_000_000.0)
        except Interrupt:
            pass

    def attacker(env):
        yield env.timeout(1.0)
        for v in victims:
            v.interrupt()

    victims = [env.process(victim(env)) for _ in range(500)]
    env.process(attacker(env))
    env.run(until=2.0)
    # All 500 far-future waits were cancelled; compaction must have
    # removed nearly all of them instead of dragging them to t=1e6.
    assert len(env._heap) < 250
    # Whatever survived compaction is dropped as a no-op at dispatch
    # (the clock still advances past it, as for any empty event).
    env.run()
    assert all(not v.is_alive for v in victims)


def test_cancelled_event_revived_by_new_waiter():
    """B subscribing to a timeout abandoned by interrupted A still
    wakes at the timeout's scheduled instant."""
    env = Environment()
    shared = env.timeout(10.0)
    log = []

    def a(env):
        try:
            yield shared
        except Interrupt:
            log.append(("a-interrupted", env.now))

    def b(env):
        yield env.timeout(1.0)
        yield shared
        log.append(("b-woke", env.now))

    def attacker(env, target):
        yield env.timeout(0.5)
        target.interrupt()

    pa = env.process(a(env))
    env.process(b(env))
    env.process(attacker(env, pa))
    env.run()
    assert log == [("a-interrupted", 0.5), ("b-woke", 10.0)]


def test_compacted_event_behaves_as_already_fired():
    """An abandoned wait collected by heap compaction delivers its value
    immediately to any later waiter (same contract as any past event)."""
    env = Environment()
    abandoned = []

    def victim(env, t):
        try:
            yield t
        except Interrupt:
            pass

    def attacker(env, targets):
        yield env.timeout(1.0)
        for v in targets:
            v.interrupt()

    timeouts = [env.timeout(1_000_000.0, value=i) for i in range(200)]
    targets = [env.process(victim(env, t)) for t in timeouts]
    env.process(attacker(env, targets))
    env.run(until=2.0)

    got = []

    def late_waiter(env):
        value = yield timeouts[0]
        got.append((env.now, value))

    env.process(late_waiter(env))
    env.run(until=3.0)
    assert got == [(2.0, 0)]
    assert not abandoned  # silence unused-var linters


def test_failed_event_with_no_waiters_still_raises_after_interrupt():
    """Cancellation must never swallow unhandled failure propagation:
    only successful events are dropped."""
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        raise RuntimeError("child failed")

    def parent(env, target):
        try:
            yield target
        except Interrupt:
            pass

    def attacker(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.process(attacker(env, p))
    with pytest.raises(RuntimeError, match="child failed"):
        env.run()


def test_abandoning_scheduled_failure_does_not_cancel_it():
    """Interrupting the only waiter of an already-scheduled *failed*
    event must not mark it cancelled: its unhandled-failure raise from
    the event loop still has to happen."""
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        raise RuntimeError("child failed")

    def parent(env, target):
        try:
            yield target
        except Interrupt:
            pass

    def attacker(env, target):
        # Fires at the same instant the child fails, but *after* the
        # child's completion event is scheduled and *before* it is
        # processed — the abandoned event is triggered-but-unprocessed.
        yield env.timeout(2.0)
        target.interrupt()

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.process(attacker(env, p))
    with pytest.raises(RuntimeError, match="child failed"):
        env.run()


def test_interrupt_uses_single_bound_callback():
    """The cached resume callback must be the object sitting in the
    target's callback list, or interrupt() could not detach it."""
    env = Environment()

    def victim(env):
        yield env.timeout(50.0)

    p = env.process(victim(env))
    env.run(until=1.0)
    target = p.target
    assert target is not None
    assert p._resume_cb in target.callbacks
    p.interrupt()
    assert p._resume_cb not in target.callbacks
    with pytest.raises(Interrupt):
        env.run()
