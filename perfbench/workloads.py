"""The benchmark's three workloads and the output check of their points.

Every workload is a sweep of one or more points evaluated serially by
:class:`repro.experiments.api.ExperimentRunner` (no pool, no point
cache, no journal), so the benchmark times exactly the path a paper
reproducer waits for.  ``--seed`` is the runner's base seed, and
through :func:`repro.experiments.runner.point_seed` every point's
system seed: arrivals, routing, service times and crash-time state all
follow it.  The default seed reproduces the registered experiments:
``fig4_1_sweep`` is the ``fig4_1`` fast profile and ``trace_replay`` is
four points of the ``fig4_6`` fast profile, point for point.

The trace of ``trace_replay`` is the registered fast trace (generator
seed 42) at every ``--seed``: it stands for the paper's one recorded
trace.  Another generator seed changes the replayed work itself (the
accesses of the replayed window vary by an interquartile 12% over
seeds), which would make host time a property of the seed.

The output check: at the default seed every point's canonical
``results_to_dict`` JSON must hash to the digest recorded in
``digests.json`` (and the whole ``fig4_1`` sweep to its pinned golden
sha256).  At any other seed the invariants of :func:`check_point` hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Tuple

from repro.cluster import cluster_config, node_scheme
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.experiments.api import (
    CurveSpec,
    ExperimentRunner,
    ExperimentSpec,
    SweepProfile,
    get_experiment,
)
from repro.experiments.export import experiment_to_dict, results_to_dict
from repro.experiments.trace_setup import (
    trace_config,
    trace_for,
    trace_workload,
)

#: Reproduces the registered experiments' seeds (every spec's seed is 1).
DEFAULT_SEED = 1

#: The workloads; BENCHMARK.json and README.md say why each was chosen.
NAMES = ("fig4_1_sweep", "trace_replay", "cluster_2pc")

#: Simulated warm-up and measure seconds of every point under --smoke.
SMOKE_WARMUP, SMOKE_DURATION = 0.2, 0.4

# trace_replay: two fig4_6 configurations at two main-memory sizes.
TRACE_CURVES = (("MM caching only", "none"), ("NVEM cache 2000", "nvem"))
TRACE_MM_SIZES = (250.0, 1000.0)
TRACE_SECOND_LEVEL = 2000
#: Generator seed of the registered traces (``trace_for``'s default).
TRACE_SEED = 42

# cluster_2pc: one point; node 1 crashes halfway through measurement.
CLUSTER_NODES = 4
CLUSTER_RATE_PER_NODE = 30.0
CLUSTER_DISTRIBUTED = 0.5
CLUSTER_WARMUP = 3.0
CLUSTER_DURATION = 18.0


def _profiles(profile: SweepProfile) -> Dict[str, SweepProfile]:
    return {"fast": profile, "full": profile}


def _scaled(profile: SweepProfile, smoke: bool) -> SweepProfile:
    if not smoke:
        return profile
    return SweepProfile(xs=profile.xs, warmup=SMOKE_WARMUP,
                        duration=SMOKE_DURATION)


def fig4_1_spec(smoke: bool) -> ExperimentSpec:
    spec = get_experiment("fig4_1")
    return dataclasses.replace(
        spec, profiles=_profiles(_scaled(spec.profile("fast"), smoke)))


def trace_spec(trace, smoke: bool) -> ExperimentSpec:
    registered = get_experiment("fig4_6").profile("fast")

    def curve(label: str, kind: str) -> CurveSpec:
        def build(mm: float) -> Tuple:
            config = trace_config(trace, kind, int(mm),
                                  second_level=TRACE_SECOND_LEVEL)
            return config, trace_workload(trace)

        return CurveSpec(label=label, build=build)

    profile = SweepProfile(xs=TRACE_MM_SIZES, warmup=registered.warmup,
                           duration=registered.duration)
    return ExperimentSpec(
        id="trace_replay", title="fig4_6 trace points",
        x_label="MM buffer (pages)", y_label="mean response time (ms)",
        curves=[curve(label, kind) for label, kind in TRACE_CURVES],
        profiles=_profiles(_scaled(profile, smoke)),
    )


def cluster_spec(smoke: bool) -> ExperimentSpec:
    profile = _scaled(SweepProfile(xs=(float(CLUSTER_NODES),),
                                   warmup=CLUSTER_WARMUP,
                                   duration=CLUSTER_DURATION), smoke)
    crash_at = profile.warmup + profile.duration / 2

    def build(nodes: float) -> Tuple:
        config = cluster_config(node_scheme(log="disk"),
                                num_nodes=int(nodes),
                                crash_schedule=((1, crash_at),))
        workload = ShardedDebitCreditWorkload.for_cluster(
            config, arrival_rate_per_node=CLUSTER_RATE_PER_NODE,
            distributed_fraction=CLUSTER_DISTRIBUTED)
        return config, workload

    return ExperimentSpec(
        id="cluster_2pc", title="4-node 2PC cluster with a node crash",
        x_label="nodes", y_label="mean response time (ms)",
        curves=[CurveSpec(label="disk log, 50% distributed", build=build)],
        profiles=_profiles(profile),
    )


def run_workload(name: str, seed: int, smoke: bool = False):
    """Run one workload once; returns its ExperimentResult."""
    if name == "fig4_1_sweep":
        spec = fig4_1_spec(smoke)
    elif name == "trace_replay":
        # Uncached: every run pays generation, as a fresh process does.
        trace = trace_for.__wrapped__(True, TRACE_SEED)
        spec = trace_spec(trace, smoke)
    elif name == "cluster_2pc":
        spec = cluster_spec(smoke)
    else:
        raise KeyError(f"unknown workload {name!r} "
                       f"(known: {', '.join(NAMES)})")
    return ExperimentRunner(seed=seed).run_one(spec, profile="fast")


# ---------------------------------------------------------------------------
# Output check


def digest(payload) -> str:
    """sha256 of the canonical JSON form used by the golden tests."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def point_key(label: str, x: float) -> str:
    return f"{label}@{x:g}"


def points_of(result) -> List[Tuple[str, object]]:
    """``(key, Results)`` for every point the sweep kept, in order."""
    return [(point_key(series.label, point.x), point.results)
            for series in result.series for point in series.points]


def record(result) -> Dict:
    """The digests.json entry for one workload at the default seed."""
    return {
        "sweep": digest(experiment_to_dict(result)),
        "points": {key: {"sha256": digest(results_to_dict(results)),
                         "saturated": results.saturated}
                   for key, results in points_of(result)},
    }


def check_point(key: str, results, seed: int, expected: Dict) -> List[str]:
    """Problems with one point (empty when it passes).

    ``expected`` is the workload's digests.json entry for the run's
    scale, recorded at the default seed.
    """
    recorded = expected["points"].get(key)
    if seed == DEFAULT_SEED:
        if recorded is None:
            return [f"{key}: not a point of the recorded sweep"]
        if digest(results_to_dict(results)) != recorded["sha256"]:
            return [f"{key}: output digest differs from the recorded one"]
        return []
    problems = []
    if results.committed <= 0:
        problems.append(f"{key}: nothing committed")
    parts = sum(results.composition.values())
    if parts > results.response_time_mean * (1 + 1e-9) + 1e-12:
        problems.append(f"{key}: response-time components sum to {parts} "
                        f"> mean {results.response_time_mean}")
    if recorded is not None and not recorded["saturated"] \
            and results.saturated:
        problems.append(f"{key}: saturated, unlike the default seed")
    return problems


def check_sweep(result, seed: int, expected: Dict) -> List[str]:
    """Sweep-level check: the whole export's digest at the default seed
    (for fig4_1 this is the golden sha256 pinned by the test suite)."""
    if seed == DEFAULT_SEED and \
            digest(experiment_to_dict(result)) != expected["sweep"]:
        return ["sweep digest differs from the recorded one"]
    return []
