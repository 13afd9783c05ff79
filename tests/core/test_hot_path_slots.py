"""Guard: per-reference hot-path objects must not carry ``__dict__``.

Every object on this list is allocated per page reference, per I/O or
per event — millions of times per figure.  A ``__dict__`` on any of
them (e.g. from dropping ``__slots__`` in a subclass, or adding a
mixin without slots) costs memory and attribute-lookup time on the
exact paths PR 2/PR 4 optimized; this test makes such a regression
loud.
"""

import pytest

from repro.core.config import CMConfig, DiskUnitConfig
from repro.core.transaction import ObjectRef, Transaction
from repro.sim import Environment, RandomStreams, Resource, Store
from repro.sim.core import Event, Process, Timeout
from repro.sim.resources import Request
from repro.sim.stats import Accumulator, CategoryCounter, TimeWeighted
from repro.storage.cache import CacheDecision
from repro.storage.device import IOResult
from repro.storage.lru import LRUCache, LRUEntry
from repro.storage.policies import CacheEntry, ClockPolicy, TwoQPolicy


def assert_slotted(obj):
    assert not hasattr(obj, "__dict__"), (
        f"{type(obj).__qualname__} instances carry a __dict__; "
        "hot-path classes must declare __slots__ in every class of "
        "their MRO"
    )


def test_kernel_event_objects_have_no_dict():
    env = Environment()
    assert_slotted(env)
    assert_slotted(Event(env))
    assert_slotted(env.timeout(1.0))        # inlined fast constructor
    assert_slotted(Timeout(env, 1.0))       # compatibility constructor

    def gen(env):
        yield env.timeout(1.0)

    assert_slotted(env.process(gen(env)))
    assert isinstance(env.process(gen(env)), Process)


def test_resource_requests_have_no_dict():
    env = Environment()
    res = Resource(env, capacity=1)
    fast = res.request()                    # synchronous fast grant
    assert fast.processed
    assert_slotted(fast)
    queued = res.request()                  # FIFO-queued request
    assert not queued.triggered
    assert_slotted(queued)
    assert isinstance(fast, Request) and isinstance(queued, Request)
    assert_slotted(res)
    assert_slotted(res.monitor)
    store = Store(env)
    assert_slotted(store.get())             # _StoreGet


def test_claimed_service_events_have_no_dict():
    """The fused CPU burst and resource service event built on the
    uncontended claim path hold their unit without a Request."""
    from repro.core.cpu import CPUPool, _CPUBurst
    from repro.sim.resources import _ServiceEvent

    env = Environment()
    pool = CPUPool(env, RandomStreams(1), CMConfig(num_cpus=1))
    burst = pool.execute_event(None, 1000.0)
    assert isinstance(burst, _CPUBurst)
    assert_slotted(burst)
    assert burst._request is None
    queued = pool.execute_event(None, 1000.0)   # the one CPU is busy
    assert_slotted(queued)
    assert isinstance(queued._request, Request)

    res = Resource(env, capacity=1)
    served = res.serve_event(lambda: 1.0)
    assert isinstance(served, _ServiceEvent)
    assert_slotted(served)
    assert served._request is None
    waiting = res.serve_event(lambda: 1.0)
    assert_slotted(waiting)
    assert isinstance(waiting._request, Request)
    env.run()
    assert pool.cpus.users == 0 and res.users == 0


def test_transaction_records_have_no_dict():
    ref = ObjectRef(0, 1, 2, True, tag="ACCOUNT")
    assert_slotted(ref)
    assert_slotted(Transaction(1, "t", [ref]))


def test_policy_entries_have_no_dict():
    lru = LRUCache(4)
    assert_slotted(lru.insert((0, 1)))
    assert isinstance(lru.insert((0, 2)), LRUEntry)
    assert_slotted(ClockPolicy(4).insert((0, 1)))
    assert_slotted(TwoQPolicy(4).insert((0, 1)))
    assert_slotted(CacheEntry((0, 1)))


def test_io_records_have_no_dict():
    assert_slotted(IOResult("disk", 0.016))
    assert_slotted(CacheDecision(hit=True, needs_disk=False))


def test_statistics_objects_have_no_dict():
    env = Environment()
    assert_slotted(Accumulator(reservoir=8))
    assert_slotted(TimeWeighted(env))
    assert_slotted(CategoryCounter())


def test_lock_waiter_has_no_dict():
    from repro.core.cc import _Lock, _Waiter

    env = Environment()
    tx = Transaction(1, "t", [])
    assert_slotted(_Waiter(tx, 0, Event(env), False))
    assert_slotted(_Lock())


def test_configs_are_allowed_a_dict():
    """Sanity check of the guard itself: per-system configuration
    objects are *not* hot-path and legitimately carry a __dict__."""
    assert hasattr(CMConfig(), "__dict__") or True  # dataclass may slot
    with pytest.raises(AssertionError):
        class Unslotted:
            pass

        assert_slotted(Unslotted())


def test_disk_unit_config_smoke():
    # Exercise one registry config to keep the import graph honest.
    cfg = DiskUnitConfig(name="u0")
    assert cfg.name == "u0"
