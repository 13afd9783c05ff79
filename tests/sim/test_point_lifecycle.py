"""The point lifecycle: transient simulation objects die by reference
counting, and cyclic GC stays off inside a sweep point.

Two kernel self-references used to make every transaction's objects
cyclic garbage: a process's resume callback (a bound method of the
process) and a granted request's value (the request itself).  Both are
dropped when they end, so a finished run leaves nothing for the cyclic
collector while its system is still referenced.  The matrix below runs
each subsystem combination with GC disabled and asserts exactly that.

``_evaluate_point`` relies on it: it keeps cyclic GC off for build,
prewarm, warm-up, measure and ``observe``, then drops the system and
collects generations 0 and 1, which frees the leftover graph without
scanning the long-lived heap.  Generation 1 holds what the collector
resurrects while closing the generators suspended at the horizon:
their ``finally`` clauses release units and so schedule grants.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.cluster import cluster_config, node_scheme
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.core.config import DeviceFault
from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.experiments.runner import _evaluate_point
from repro.experiments.trace_setup import (
    trace_config,
    trace_for,
    trace_workload,
)
from repro.sim import Environment
from repro.storage.lru import LRUCache
from repro.storage.policies import ClockPolicy
from repro.workload.debit_credit import DebitCreditWorkload
from tests.cluster.test_data_sharing import sharing_system
from tests.core.test_results_blocks import _debit_credit
from tests.recovery.conftest import media_synthetic_system


def _central():
    return TransactionSystem(debit_credit_config(disk_only()),
                             DebitCreditWorkload(200.0), seed=1)


def _online_redo():
    return _debit_credit(
        1, 50.0,
        recovery={"enabled": True, "checkpoint_interval": 1.0,
                  "crash_times": (2.0,), "online_redo": True},
        trace={"telemetry_interval": 0.5})


def _media():
    return media_synthetic_system(
        seed=3, faults=(DeviceFault("db0", 2.0, "loss"),
                        DeviceFault("log0", 1.5, "transient",
                                    duration=1.0)))


def _traced():
    return _debit_credit(
        5, 150.0,
        trace={"enabled": True, "latency_detail": True,
               "telemetry_interval": 0.25})


def _cluster_2pc():
    config = cluster_config(node_scheme(log="disk"), num_nodes=4,
                            crash_schedule=((1, 3.0),))
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=30.0, distributed_fraction=0.5)
    return config.build_system(workload, seed=1)


def _trace_point(kind):
    def build():
        trace = trace_for(True)
        return TransactionSystem(trace_config(trace, kind, 250),
                                 trace_workload(trace), seed=1)
    return build


CASES = {
    "central": _central,
    "online_redo": _online_redo,
    "media": _media,
    "traced": _traced,
    "sharing_2_gem": lambda: sharing_system(2, 2000),
    "sharing_4_lan": lambda: sharing_system(4, 0, "lan"),
    "cluster_2pc_crash": _cluster_2pc,
    "trace_none": _trace_point("none"),
    "trace_nvem": _trace_point("nvem"),
}


@pytest.fixture
def gc_restored():
    """Restore the collector's state, debug flags and threshold."""
    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.set_threshold(*threshold)
        if enabled:
            gc.enable()
        else:
            gc.disable()


def _collect_all():
    """Start clean.  An earlier test's dead system may take two passes:
    closing its suspended generators runs ``finally`` clauses that
    schedule events, which keeps part of the graph for one more pass."""
    while gc.collect():
        pass


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_no_cyclic_garbage(case, gc_restored):
    trace_for(True)  # the cached trace is built outside the window
    _collect_all()
    gc.disable()
    system = CASES[case]()
    system.run(warmup=1.0, duration=4.0)
    # The system is still referenced: only garbage is collected.
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = gc.collect()
    leaked = Counter(type(obj).__name__ for obj in gc.garbage)
    assert found == 0, f"cyclic garbage: {leaked.most_common(8)}"
    assert system.env.now == 5.0


@pytest.mark.parametrize("policy", [LRUCache, ClockPolicy])
def test_clear_unlinks_entries(policy, gc_restored):
    """A crash empties the buffer with ``clear()``: the dropped entries
    must not stay linked to each other as cyclic garbage."""
    _collect_all()
    gc.disable()
    cache = policy(8)
    entries = [cache.insert(page) for page in range(8)]
    cache.clear()
    assert len(cache) == 0
    assert all(e._prev is None and e._next is None for e in entries)
    del entries
    assert gc.collect() == 0


def _task(config=None, rate=200.0):
    config = debit_credit_config(disk_only()) if config is None else config
    return (rate, config, DebitCreditWorkload(rate), 0.5, 1.0, 1)


class _Collections:
    """Records every collection's generation through ``gc.callbacks``."""

    def __init__(self):
        self.generations = []

    def __call__(self, phase, info):
        if phase == "start":
            self.generations.append(info["generation"])

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class _RaisingConfig:
    def build_system(self, workload, seed):
        raise RuntimeError("build failed")


class TestEvaluatePointLifecycle:
    def test_system_freed_when_point_returns(self, gc_restored):
        refs = []

        def observe(task, system, results):
            refs.extend((weakref.ref(system), weakref.ref(system.bm)))

        results = _evaluate_point(_task(), observe=observe)
        assert results.committed > 0
        assert len(refs) == 2
        assert all(ref() is None for ref in refs)

    def test_cluster_system_freed_when_point_returns(self, gc_restored):
        config = cluster_config(node_scheme(log="disk"), num_nodes=2,
                                crash_schedule=((1, 0.8),))
        workload = ShardedDebitCreditWorkload.for_cluster(
            config, arrival_rate_per_node=30.0, distributed_fraction=0.5)
        refs = []

        def observe(task, system, results):
            refs.append(weakref.ref(system))
            refs.extend(weakref.ref(node.bm) for node in system.nodes)

        _evaluate_point((2.0, config, workload, 0.5, 1.0, 1),
                        observe=observe)
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)

    def test_no_collection_inside_point(self, gc_restored):
        task = _task()
        gc.enable()
        seen = []

        def observe(task, system, results):
            seen.append(list(collections.generations))

        with _Collections() as collections:
            _evaluate_point(task, observe=observe)
        # Nothing ran inside the point; teardown ran one young pass and
        # one generation-1 pass.
        assert seen == [[]]
        assert collections.generations == [0, 1]

    def test_saturated_point_leaves_nothing_behind(self, gc_restored):
        """At 500 TPS on a single log disk the MPL queue is full at the
        horizon.  Closing the in-flight lifecycles releases their slots,
        which grants (schedules) the next waiters and resurrects part of
        the dead graph once; teardown must still free all of it."""
        task = _task(debit_credit_config(disk_only(log_disks=1)), 500.0)
        _collect_all()
        _evaluate_point(task)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage)
        assert found == 0, f"left behind: {leaked.most_common(8)}"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_gc_state_restored(self, enabled, gc_restored):
        (gc.enable if enabled else gc.disable)()
        states = []
        _evaluate_point(
            _task(), observe=lambda *args: states.append(gc.isenabled()))
        assert states == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_gc_state_restored_when_build_raises(self, enabled,
                                                        gc_restored):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="build failed"):
            _evaluate_point(_task(config=_RaisingConfig()))
        assert gc.isenabled() is enabled


def _pool_hits(gc_on):
    env = Environment()
    hits = []
    held = []

    def chain(delay, keep):
        for i in range(300):
            hits.append(env._tcache is not None)
            ev = env.timeout(delay)
            if keep and i % 3 == 0:
                held.append(ev)
            yield ev

    if gc_on:
        gc.enable()
        gc.set_threshold(1)  # collect on nearly every allocation
    else:
        gc.disable()
    env.process(chain(1.0, False))
    env.process(chain(1.5, True))
    env.run()
    return hits


def test_timeout_pool_gate_is_gc_independent(gc_restored):
    """The pool recycles a timeout only when ``sys.getrefcount`` proves
    the kernel owns it alone; that proof must not depend on the
    collector, so a fixed chain hits the pool identically with GC off
    as with GC collecting constantly."""
    off = _pool_hits(gc_on=False)
    on = _pool_hits(gc_on=True)
    assert off == on
    assert 0 < sum(off) < len(off)
