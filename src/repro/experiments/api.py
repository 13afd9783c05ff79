"""Declarative experiment API: specs, a registry and a figure-wide runner.

The paper's contribution is a *family* of comparable experiments run
under one simulator (Figs. 4.1–4.8, Table 4.2, the ablations).  This
module makes that family first-class:

* :class:`ExperimentSpec` — a declarative description of one figure or
  table: identity, axes, the list of :class:`CurveSpec` factories that
  produce ``(config, workload)`` pairs, ``fast``/``full``
  :class:`SweepProfile`\\ s, expected-shape notes and output formatting.
* :func:`experiment` — a decorator registering a spec factory under a
  stable id (``@experiment("fig4_1")``).  The CLI, ``report_all``,
  exports and the benchmarks all resolve experiments through this
  registry; nothing imports figure modules by name.
* :class:`ExperimentRunner` — evaluates one or many experiments, and
  is the only way a sweep point is evaluated.  In parallel mode it
  schedules *all points of all curves of all selected experiments*
  through a single work queue, so ``--all --parallel`` saturates every
  core across figure boundaries instead of parallelizing one series at
  a time.  Given a :class:`~repro.experiments.store.ResultStore` it
  becomes incremental: points are fingerprinted, served from the
  content-addressed cache when their inputs are unchanged, streamed
  into a per-run checkpoint journal (:mod:`~repro.experiments.journal`)
  as they complete, and resumable after interruption (``resume=True``).

Determinism: every point gets its :func:`~repro.experiments.runner.point_seed`
from the base seed and its index, whichever way it is evaluated, and
saturation truncation is applied post-hoc per curve, so serial,
parallel and cache-served runs produce byte-identical
:class:`ExperimentResult`\\ s.
"""

from __future__ import annotations

import importlib
import os
import pickle
import pkgutil
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.metrics import Results
from repro.experiments.runner import (
    ExperimentResult,
    Series,
    SeriesPoint,
    _append_point,
    _evaluate_point,
    point_seed,
)

__all__ = [
    "CurveSpec",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunStats",
    "SweepProfile",
    "all_experiments",
    "experiment",
    "experiment_ids",
    "get_experiment",
    "load_builtin_specs",
    "register",
    "unregister",
]

#: Profile names every spec must provide.
PROFILES = ("fast", "full")


@dataclass(frozen=True)
class SweepProfile:
    """One resolution of a sweep: the x values and run lengths."""

    xs: Tuple[float, ...]
    warmup: float = 3.0
    duration: float = 8.0


@dataclass(frozen=True)
class CurveSpec:
    """One labelled curve: ``build(x) -> (config, workload)``.

    ``build`` is a plain data-producing callable — it runs in the
    driving process for every point; only the resulting
    ``(config, workload)`` pair (picklable data) is shipped to worker
    processes.
    """

    label: str
    build: Callable[[float], Tuple]


#: Curves may depend on the profile (e.g. the trace experiments use a
#: shorter synthetic trace under ``fast``), so a spec can hold either a
#: static list or a factory taking the profile name.
CurveSource = Union[Sequence[CurveSpec], Callable[[str], Sequence[CurveSpec]]]


@dataclass
class ExperimentSpec:
    """Declarative description of one figure/table experiment."""

    id: str
    title: str
    x_label: str
    y_label: str
    curves: CurveSource
    profiles: Mapping[str, SweepProfile]
    notes: Tuple[str, ...] = ()
    #: Table-cell metric (default: mean response time in ms).
    metric: Optional[Callable[[Results], float]] = None
    metric_fmt: str = "{:8.2f}"
    #: Full custom renderer; overrides ``metric``/``metric_fmt``.
    renderer: Optional[Callable[[ExperimentResult], str]] = None
    #: End each curve at its first saturated point (the paper stops
    #: plotting there).  Hit-ratio tables keep every cell instead.
    truncate_on_saturation: bool = True
    seed: int = 1

    def __post_init__(self) -> None:
        missing = [name for name in PROFILES if name not in self.profiles]
        if missing:
            raise ValueError(
                f"experiment {self.id!r} lacks sweep profile(s): {missing}"
            )

    def profile(self, name: str) -> SweepProfile:
        try:
            return self.profiles[name]
        except KeyError:
            raise KeyError(
                f"experiment {self.id!r} has no profile {name!r} "
                f"(available: {sorted(self.profiles)})"
            ) from None

    def curves_for(self, profile_name: str) -> List[CurveSpec]:
        source = self.curves
        if callable(source):
            source = source(profile_name)
        return list(source)

    def render(self, result: ExperimentResult) -> str:
        """Format a result the way this experiment is reported."""
        if self.renderer is not None:
            return self.renderer(result)
        return result.to_table(metric=self.metric, fmt=self.metric_fmt)


# ---------------------------------------------------------------------------
# Registry


#: Registration order is preserved; ids are unique.
_FACTORIES: Dict[str, Callable[[], ExperimentSpec]] = {}
_SPECS: Dict[str, ExperimentSpec] = {}
#: "unloaded" -> "loading" (re-entrancy guard) -> "loaded"; a failed
#: import resets to "unloaded" so the next call retries instead of
#: serving a half-populated registry.
_BUILTINS_STATE = "unloaded"


def register(exp_id: str, factory: Callable[[], ExperimentSpec]) -> None:
    """Register ``factory`` (returning an :class:`ExperimentSpec`) as
    ``exp_id``.  Usually used through the :func:`experiment` decorator."""
    if exp_id in _FACTORIES:
        raise ValueError(f"experiment id {exp_id!r} is already registered")
    _FACTORIES[exp_id] = factory


def unregister(exp_id: str) -> None:
    """Remove a registered experiment (tests and interactive use)."""
    _FACTORIES.pop(exp_id, None)
    _SPECS.pop(exp_id, None)


def experiment(exp_id: str):
    """Decorator: register the decorated zero-argument spec factory.

    ::

        @experiment("fig4_1")
        def spec() -> ExperimentSpec:
            return ExperimentSpec(id="fig4_1", ...)
    """

    def decorate(factory: Callable[[], ExperimentSpec]):
        register(exp_id, factory)
        return factory

    return decorate


def load_builtin_specs() -> None:
    """Import every module of :mod:`repro.experiments` once, so their
    ``@experiment`` registrations run.

    Discovery goes through :mod:`pkgutil`, so no experiment module is
    ever named outside this package — adding a figure module is enough
    to make it appear in the CLI, ``report_all`` and the exports.
    """
    global _BUILTINS_STATE
    if _BUILTINS_STATE != "unloaded":
        return
    _BUILTINS_STATE = "loading"
    import repro.experiments as package

    try:
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            importlib.import_module(f"{package.__name__}.{info.name}")
    except BaseException:
        _BUILTINS_STATE = "unloaded"
        raise
    _BUILTINS_STATE = "loaded"


def get_experiment(exp_id: str) -> ExperimentSpec:
    """Resolve an id to its (cached) :class:`ExperimentSpec`."""
    load_builtin_specs()
    spec = _SPECS.get(exp_id)
    if spec is not None:
        return spec
    factory = _FACTORIES.get(exp_id)
    if factory is None:
        raise KeyError(
            f"unknown experiment {exp_id!r} "
            f"(registered: {', '.join(experiment_ids())})"
        )
    spec = factory()
    if spec.id != exp_id:
        raise ValueError(
            f"spec factory registered as {exp_id!r} produced a spec "
            f"with id {spec.id!r}"
        )
    _SPECS[exp_id] = spec
    return spec


def experiment_ids() -> List[str]:
    """All registered ids, in registration order."""
    load_builtin_specs()
    return list(_FACTORIES)


def all_experiments() -> List[ExperimentSpec]:
    return [get_experiment(exp_id) for exp_id in experiment_ids()]


# ---------------------------------------------------------------------------
# Runner


@dataclass
class _Plan:
    """One experiment materialized for a profile."""

    spec: ExperimentSpec
    result: ExperimentResult
    #: curve index -> the curve's points, in x order.
    points: List[List["_PointTask"]] = field(default_factory=list)


@dataclass
class RunStats:
    """Cache accounting of one :meth:`ExperimentRunner.run`.

    ``hits`` came from the content-addressed store, ``resumed`` from the
    run's own checkpoint journal, ``misses`` were computed (and written
    back), ``uncacheable`` points carried inputs that cannot be
    fingerprinted and are always recomputed.  A warm re-run of an
    unchanged sweep therefore shows ``hits == total, misses == 0``.
    """

    total: int = 0
    hits: int = 0
    misses: int = 0
    resumed: int = 0
    #: Points sharing a fingerprint with another point of the same run:
    #: evaluated once, filled from the sibling (not a store hit).
    deduped: int = 0
    uncacheable: int = 0
    elapsed_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> Dict:
        return {
            "total": self.total, "hits": self.hits,
            "misses": self.misses, "resumed": self.resumed,
            "deduped": self.deduped,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hit_rate,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class _PointTask:
    """One sweep point with provenance, fingerprint and lifecycle."""

    task: Tuple
    plan: _Plan
    curve_index: int
    point_index: int
    fingerprint: Optional[str] = None
    results: Optional[Results] = None
    #: "computed" | "cache" | "resume" (dedup siblings stay "computed").
    source: str = "computed"
    #: Other points of this run with the same fingerprint: evaluated
    #: once, filled together (identical inputs give identical results).
    dups: List["_PointTask"] = field(default_factory=list)


class ExperimentRunner:
    """Evaluate registered experiments serially or figure-wide parallel.

    :meth:`run` is the only way a sweep point is evaluated.  Parallel
    mode flattens the points of every selected curve of every selected
    experiment into one task list evaluated by a single process pool —
    long figures and short figures share the same queue, so cores never
    idle while one slow series finishes.  Saturation truncation happens
    post-hoc per curve, making the output byte-identical to a serial
    run (which stops evaluating a curve at its first saturated point).

    With a ``store`` (and/or a ``journal``) the runner becomes
    *incremental and resumable*: every point is fingerprinted
    (:func:`repro.core.fingerprint.point_fingerprint`), looked up in
    the content-addressed store before being scheduled, streamed into
    both the store and a per-run checkpoint journal as it completes,
    and — under ``resume=True`` — reloaded from an interrupted run's
    journal instead of recomputed.  Cached results are byte-identical
    to recomputation (the golden-checksum tests pin this), so caching
    can never change a figure, only its cost.  Cache-enabled runs
    evaluate all planned points eagerly (like ``parallel``), relying on
    the same post-hoc truncation for identical output.
    """

    def __init__(self, parallel: bool = False,
                 max_workers: Optional[int] = None,
                 seed: Optional[int] = None,
                 store: Optional[object] = None,
                 journal: Union[bool, str] = False,
                 resume: bool = False,
                 configure: Optional[Callable] = None,
                 observe: Optional[Callable] = None):
        """``seed`` overrides every spec's base seed (each sweep point
        still gets its own :func:`point_seed` derived from it), so one
        CLI flag reruns any experiment — crash schedules included — on
        a different deterministic trajectory.

        ``store`` is a :class:`repro.experiments.store.ResultStore` (or
        None for no caching).  ``journal`` is ``True`` for an
        auto-named checkpoint journal under the cache's ``runs/``
        directory, or an explicit path; ``resume=True`` implies a
        journal and reloads completed points from a matching one.

        ``configure`` and ``observe`` are the side-channel hooks used
        by traced runs (:mod:`repro.trace.run`): ``configure(config)``
        returns the config actually built for each point,
        ``observe(task, system, results)`` sees the live system after
        its point evaluated.  Hooks keep the plan, seeds and truncation
        identical to a plain run but require a serial run without
        caching — they are incompatible with ``parallel``, ``store``,
        ``journal`` and ``resume`` (systems do not cross process or
        cache boundaries).
        """
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if (configure is not None or observe is not None) and (
                parallel or store is not None or journal or resume):
            raise ValueError(
                "configure/observe hooks require the direct serial "
                "path (no parallel, store, journal or resume)"
            )
        self.parallel = parallel
        self.max_workers = max_workers
        self.seed = seed
        self.store = store
        self.journal = journal
        self.resume = resume
        self.configure = configure
        self.observe = observe
        #: Cache accounting of the most recent :meth:`run` (None until
        #: a cache- or journal-enabled run happened).
        self.last_stats: Optional[RunStats] = None
        #: Journal file written by the most recent :meth:`run`.
        self.last_journal_path: Optional[str] = None

    # -- public API --------------------------------------------------------
    def run_one(self, spec: Union[str, ExperimentSpec],
                profile: str = "full") -> ExperimentResult:
        spec = self._resolve(spec)
        return self.run([spec], profile=profile)[spec.id]

    def run(self, specs: Iterable[Union[str, ExperimentSpec]],
            profile: str = "full") -> Dict[str, ExperimentResult]:
        """Run experiments; returns ``{id: ExperimentResult}`` in input
        order.

        Plan every point, resolve each from the resume journal, then
        the store, then by simulation, record what was computed into
        the store and journal, and collect the curves.  Without store,
        journal or resume (the null case) nothing is fingerprinted or
        written and :attr:`last_stats` stays ``None``; a serial null
        run is lazy and stops evaluating a curve at its first saturated
        point.  Every other run evaluates all planned points up front.
        """
        t_start = time.perf_counter()
        plans = [self._plan(self._resolve(s), profile) for s in specs]
        entries = [entry for plan in plans for curve in plan.points
                   for entry in curve]
        stats = journal = None
        if self.store is not None or self.journal or self.resume:
            stats = RunStats(total=len(entries))
            journal = self._resolve_stored(plans, entries, profile, stats)

        def complete(entry: _PointTask, results: Results) -> None:
            entry.results = results
            if stats is not None:
                stats.misses += 1
            if self.store is not None and entry.fingerprint is not None:
                self.store.put(entry.fingerprint, results)
            if journal is not None:
                journal.record_point(self._journal_record(entry))
            for dup in entry.dups:
                dup.results = results
                stats.deduped += 1
                if journal is not None:
                    journal.record_point(self._journal_record(dup))

        if stats is not None or self.parallel:
            try:
                self._evaluate_pending(entries, complete)
            finally:
                if stats is not None:
                    stats.elapsed_s = time.perf_counter() - t_start
                    self.last_stats = stats
                    if journal is not None:
                        journal.finish(stats.to_dict())
        for plan in plans:
            self._collect(plan, complete)
        return {plan.spec.id: plan.result for plan in plans}

    # -- cached / journaled resolution ------------------------------------
    def _resolve_stored(self, plans: List[_Plan],
                        entries: List[_PointTask], profile: str,
                        stats: RunStats):
        """Fingerprint every point and fill those the resume journal or
        the store already hold; returns the started journal (or None)."""
        from repro.core.fingerprint import (
            FingerprintError,
            code_version_salt,
            fingerprint,
            point_fingerprint,
        )
        from repro.experiments.export import results_from_dict

        warned_uncacheable = False
        for entry in entries:
            _x, config, workload, warmup, duration, seed = entry.task
            try:
                entry.fingerprint = point_fingerprint(
                    config, workload, warmup, duration, seed)
            except FingerprintError as exc:
                stats.uncacheable += 1
                if not warned_uncacheable:
                    warnings.warn(
                        f"sweep point is not cacheable and will always "
                        f"be recomputed: {exc}", RuntimeWarning,
                        stacklevel=4,
                    )
                    warned_uncacheable = True

        salt = code_version_salt()
        ids = [plan.spec.id for plan in plans]
        run_key = fingerprint({
            "journal_schema": 1,
            "ids": ids,
            "profile": profile,
            "seed": self.seed,
            "salt": salt,
        })
        journal = self._open_journal(run_key)

        # Resume overlay: completed points of an interrupted run with
        # the SAME run key (same ids/profile/seed/code).
        overlay: Dict[str, Results] = {}
        append = False
        if journal is not None and self.resume:
            view = journal.load_for_resume(run_key)
            if view is not None:
                append = True
                for record in view.points:
                    fp = record.get("fingerprint")
                    if not fp:
                        continue
                    try:
                        overlay[fp] = results_from_dict(record["results"])
                    except (KeyError, TypeError):
                        continue

        for entry in entries:
            fp = entry.fingerprint
            if fp is None:
                continue
            if fp in overlay:
                entry.results = overlay[fp]
                entry.source = "resume"
                stats.resumed += 1
            elif self.store is not None:
                cached = self.store.get(fp)
                if cached is not None:
                    entry.results = cached
                    entry.source = "cache"
                    stats.hits += 1

        if journal is not None:
            journal.start({
                "run_key": run_key,
                "ids": ids,
                "profile": profile,
                "seed": self.seed,
                "salt": salt,
                "parallel": self.parallel,
                "total_points": len(entries),
                "per_experiment": {
                    plan.spec.id: sum(len(c) for c in plan.points)
                    for plan in plans
                },
            }, append=append)
            # A fresh journal records store hits up front, so it is a
            # complete checkpoint on its own; on resume-append the
            # resumed points are already in the file.
            for entry in entries:
                if entry.results is not None and entry.source == "cache":
                    journal.record_point(self._journal_record(entry))
        return journal

    def _open_journal(self, run_key: str):
        from repro.experiments.journal import RunJournal

        if not self.journal and not self.resume:
            return None
        if isinstance(self.journal, str):
            path = self.journal
        else:
            if self.store is not None:
                runs_dir = self.store.runs_dir
            else:
                from pathlib import Path

                from repro.experiments.store import default_cache_dir

                runs_dir = Path(default_cache_dir()) / "runs"
            path = str(runs_dir / f"{run_key[:16]}.jsonl")
        self.last_journal_path = path
        return RunJournal(path)

    def _journal_record(self, entry: _PointTask) -> Dict:
        from repro.experiments.export import results_to_dict

        results = entry.results
        return {
            "t": time.time(),
            "experiment": entry.plan.spec.id,
            "series": entry.plan.result.series[entry.curve_index].label,
            "x": entry.task[0],
            "curve": entry.curve_index,
            "index": entry.point_index,
            "fingerprint": entry.fingerprint,
            "source": entry.source,
            "response_ms": results.response_time_ms,
            "throughput": results.throughput,
            "saturated": results.saturated,
            "results": results_to_dict(results),
        }

    # -- evaluation --------------------------------------------------------
    def _evaluate_pending(self, entries: List[_PointTask],
                          complete: Callable[[_PointTask, Results], None]
                          ) -> None:
        """Evaluate every entry still owed a result, once per distinct
        fingerprint (identical inputs are deterministic duplicates),
        calling ``complete`` as each one finishes (streaming: the
        journal and store see points the moment they exist, which is
        what makes interruption cheap and ``repro watch`` live).

        This owns the one process pool.  When no pool can be used
        (restricted sandbox, dead children, unpicklable workload) the
        unfinished points are evaluated serially, so a genuine
        simulation error re-raises with a clean single-process
        traceback.
        """
        primaries: Dict[str, _PointTask] = {}
        pending: List[_PointTask] = []
        for entry in entries:
            if entry.results is not None:
                continue
            fp = entry.fingerprint
            if fp is not None and fp in primaries:
                primaries[fp].dups.append(entry)
            else:
                if fp is not None:
                    primaries[fp] = entry
                pending.append(entry)

        if self.parallel and len(pending) > 1:
            workers = self.max_workers or min(len(pending),
                                              os.cpu_count() or 1)
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {pool.submit(_evaluate_point, e.task): e
                               for e in pending}
                    for future in as_completed(futures):
                        complete(futures[future], future.result())
            except (OSError, pickle.PicklingError, AttributeError,
                    TypeError, BrokenProcessPool) as exc:
                warnings.warn(
                    f"parallel run fell back to serial evaluation: "
                    f"{exc!r}", RuntimeWarning, stacklevel=4,
                )
            pending = [e for e in pending if e.results is None]
        for entry in pending:
            complete(entry, _evaluate_point(entry.task, self.configure,
                                                 self.observe))

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _resolve(spec: Union[str, ExperimentSpec]) -> ExperimentSpec:
        if isinstance(spec, ExperimentSpec):
            return spec
        return get_experiment(spec)

    def _plan(self, spec: ExperimentSpec, profile_name: str) -> _Plan:
        prof = spec.profile(profile_name)
        base_seed = self.seed if self.seed is not None else spec.seed
        result = ExperimentResult(
            experiment_id=spec.id,
            title=spec.title,
            x_label=spec.x_label,
            y_label=spec.y_label,
            notes=list(spec.notes),
        )
        plan = _Plan(spec=spec, result=result)
        for ci, curve in enumerate(spec.curves_for(profile_name)):
            result.series.append(Series(label=curve.label))
            plan.points.append([
                _PointTask((x, *curve.build(x), prof.warmup, prof.duration,
                            point_seed(base_seed, i)), plan, ci, i)
                for i, x in enumerate(prof.xs)
            ])
        return plan

    def _collect(self, plan: _Plan,
                 complete: Callable[[_PointTask, Results], None]) -> None:
        """Fill ``plan.result`` from its points, in x order.

        A point still owed a result (a lazy serial run) is evaluated
        here, so a truncating curve stops simulating at its first
        saturated point; points evaluated up front beyond that point
        are simply discarded (post-hoc truncation).  Both give the
        same series.
        """
        truncate = plan.spec.truncate_on_saturation
        for series, curve in zip(plan.result.series, plan.points):
            for entry in curve:
                if entry.results is None:
                    complete(entry, _evaluate_point(entry.task, self.configure,
                                                 self.observe))
                x, results = entry.task[0], entry.results
                if truncate:
                    if _append_point(series, x, results):
                        break
                else:
                    series.points.append(SeriesPoint(x=x,
                                                     results=results))
