"""Per-layer ledger: a phase split timed at public boundaries and a
profiler-based self-time / cross-layer-call split by ``repro`` layer.

Both are installed from the benchmark's own files around an unmodified
program: :class:`PhaseClock` wraps a handful of public methods for the
duration of a run, :func:`layer_split` groups a :mod:`cProfile` profile
by the module that defines each function.
"""

from __future__ import annotations

import cProfile
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import repro

#: The ``repro`` layers, plus ``stdlib`` (the standard library and
#: builtins) and ``bench`` (this benchmark's own harness code).
LAYERS = (
    "sim", "sim.rng", "workload", "core.tm", "core.cpu", "core.cc",
    "core.bm", "core.metrics", "core.other", "storage", "cluster",
    "recovery", "experiments", "trace", "stdlib", "bench",
)

_CORE = {"tm.py": "core.tm", "cpu.py": "core.cpu", "cc.py": "core.cc",
         "bm.py": "core.bm", "metrics.py": "core.metrics"}
_PACKAGES = {"workload": "workload", "storage": "storage",
             "cluster": "cluster", "distributed": "cluster",
             "recovery": "recovery", "experiments": "experiments",
             "trace": "trace"}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer of the module defined in ``filename``."""
    path = os.path.abspath(filename) if filename != "~" else filename
    if path.startswith(_BENCH_DIR):
        return "bench"
    if not path.startswith(_REPRO_DIR):
        return "stdlib"
    package, _, module = path[len(_REPRO_DIR):].replace(os.sep, "/") \
        .partition("/")
    if package == "sim":
        return "sim.rng" if module == "rng.py" else "sim"
    if package == "core":
        return _CORE.get(module, "core.other")
    # Top-level modules (cli, bench, __init__) and the analytic models.
    return _PACKAGES.get(package, "core.other")


def layer_split(profile: cProfile.Profile
                ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds, calls entering from another layer)`` per layer."""
    profile.create_stats()
    self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
    layers: Dict[str, str] = {}

    def cached_layer(filename: str) -> str:
        layer = layers.get(filename)
        if layer is None:
            layer = layers[filename] = layer_of(filename)
        return layer

    for func, (_cc, _nc, tt, _ct, callers) in profile.stats.items():
        layer = cached_layer(func[0])
        self_s[layer] += tt
        for caller, edge in callers.items():
            if cached_layer(caller[0]) != layer:
                calls[layer] += edge[0]
    return self_s, calls


class PhaseClock:
    """Host time of each point's build, prewarm, warm-up and measure.

    Boundaries: system construction (``__init__``), the workload's
    ``prewarm``, ``MetricsCollector.reset`` (the warm-up/measure
    boundary) and the end of ``run``.
    """

    def __init__(self) -> None:
        self.points: List[Dict[str, float]] = []

    @contextmanager
    def installed(self):
        from repro.cluster.system import ClusterSystem
        from repro.cluster.workload import ShardedDebitCreditWorkload
        from repro.core.metrics import MetricsCollector
        from repro.core.model import TransactionSystem
        from repro.workload.debit_credit import DebitCreditWorkload
        from repro.workload.trace import TraceWorkload

        hooks = [(cls, "__init__", self._build)
                 for cls in (TransactionSystem, ClusterSystem)]
        hooks += [(cls, "run", self._run)
                  for cls in (TransactionSystem, ClusterSystem)]
        hooks += [(cls, "prewarm", self._prewarm)
                  for cls in (DebitCreditWorkload, TraceWorkload,
                              ShardedDebitCreditWorkload)]
        hooks.append((MetricsCollector, "reset", self._reset))
        saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in hooks]
        for cls, name, wrap in hooks:
            setattr(cls, name, wrap(cls.__dict__[name]))
        try:
            yield self
        finally:
            for cls, name, original in saved:
                setattr(cls, name, original)

    def _timed(self, start: str, end: str, func):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.points[-1][start] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.points[-1][end] = clock()

        return wrapper

    def _build(self, func):
        timed = self._timed("build0", "build1", func)

        def wrapper(*args, **kwargs):
            self.points.append({})
            timed(*args, **kwargs)

        return wrapper

    def _run(self, func):
        timed = self._timed("run0", "run1", func)

        def wrapper(system, *args, **kwargs):
            results = timed(system, *args, **kwargs)
            # Prewarm takes no simulated time: the clock reads warm-up
            # plus the measured window.
            self.points[-1]["sim"] = system.env.now
            return results

        return wrapper

    def _prewarm(self, func):
        return self._timed("prewarm0", "prewarm1", func)

    def _reset(self, func):
        def wrapper(collector):
            self.points[-1].setdefault("reset", time.perf_counter())
            return func(collector)

        return wrapper

    def split(self) -> List[Dict[str, float]]:
        """Per evaluated point: build/prewarm/warmup/measure host
        seconds and ``sim``, the simulated seconds it covered."""
        out = []
        for p in self.points:
            prewarm = p.get("prewarm1", 0.0) - p.get("prewarm0", 0.0)
            out.append({
                "build": p["build1"] - p["build0"],
                "prewarm": prewarm,
                "warmup": p["reset"] - p["run0"] - prewarm,
                "measure": p["run1"] - p["reset"],
                "sim": p["sim"],
            })
        return out
