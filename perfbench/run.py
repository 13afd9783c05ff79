"""End-to-end benchmark of the simulator, with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4_1_sweep --seed 1 \\
        --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) back to back for about
``--seconds`` host seconds, serially in this one process, and reports
medians over those repeats.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` spends part of the time untraced (phase split,
model counts, and the end-to-end metrics again) and the rest under
:mod:`cProfile` (per-layer self time and calls), and reports the
per-layer metrics; it prints every metric of both kinds.
Human-readable lines come first; the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count sweep points over all repeats; a point
fails when it raises or fails the output check.  ``--smoke`` runs tiny
simulated lengths (checked against their own recorded digests).
``--record`` rewrites ``digests.json`` at the default seed, which is
only right after an intended change of simulated behaviour.  Exits 2
without a result when the simulator sources (``src/repro``) are not
beside this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Metric -> unit, as in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "tx_per_wall_s": "tx/s",
    "sim_s_per_wall_s": "sim_s/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
#: ``inputs`` runs from the call to the first system build: trace
#: generation (trace_replay) and the sweep plan's configs and workloads.
PHASES = ("inputs", "build", "prewarm", "warmup", "measure")
MODEL = {
    "model.committed": "count",
    "model.aborted": "count",
    "model.page_accesses": "count",
    "core.bm.mm_hit_ratio": "frac",
    "storage.second_level_hit_ratio": "frac",
    "storage.io_per_tx": "io/tx",
    "core.cc.lock_waits_per_tx": "waits/tx",
    "core.cpu.utilization": "frac",
    "cluster.distributed_commits": "count",
    "cluster.in_doubt_s": "sim_s",
    "recovery.restart_s": "sim_s",
}
#: Share of ``--seconds`` a ``--trace 1`` run spends untraced.
UNTRACED_SHARE = 0.4


def per_layer_units(layers) -> dict:
    units = {f"phase.{phase}_s": "s" for phase in PHASES}
    units["core.bm.refs_per_wall_s"] = "1/s"
    units["bench.trace_overhead"] = "ratio"
    for layer in layers:
        units[f"{layer}.self_share"] = "frac"
        units[f"{layer}.calls"] = "count"
    units.update(MODEL)
    return units


class Repeat:
    """One run of the workload: host times, outputs, check outcome."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.phase = dict.fromkeys(PHASES, 0.0)
        self.sim = 0.0          # simulated seconds, all evaluated points
        self.evaluated = 0      # points simulated, truncated ones too
        self.points = []        # (key, Results) the sweep kept
        self.digests = {}
        self.failed_keys = set()
        self.problems = []
        self.raised = False
        self.sweep_failed = False

    @property
    def setup(self) -> float:
        return sum(self.phase[p] for p in ("inputs", "build", "prewarm"))

    @property
    def attempted(self) -> int:
        return max(self.evaluated, 1)

    @property
    def failed(self) -> int:
        if self.raised or self.sweep_failed:
            return self.attempted
        return len(self.failed_keys)

    @property
    def committed(self) -> int:
        return sum(results.committed for _, results in self.points)

    @property
    def page_accesses(self) -> int:
        return sum(results.page_accesses for _, results in self.points)


def run_repeat(name, seed, smoke, expected, reference, profile=None):
    """Run the workload once and check its output.

    ``reference`` holds the point digests of this run's first repeat
    (empty before it): every repeat of one seed must reproduce them.
    """
    import ledger
    import workloads
    from repro.experiments.export import results_to_dict

    rep = Repeat()
    clock = ledger.PhaseClock()
    result = None
    with clock.installed():
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = workloads.run_workload(name, seed, smoke)
        except Exception as exc:  # reported as failed points, not fatal
            rep.raised = True
            rep.problems.append(f"run raised {type(exc).__name__}: {exc}")
        finally:
            if profile is not None:
                profile.disable()
            rep.wall = time.perf_counter() - t0
    rep.evaluated = len(clock.points)
    if result is None:
        return rep
    rep.phase["inputs"] = clock.points[0]["build0"] - t0
    for point in clock.split():
        rep.sim += point.pop("sim")
        for phase, seconds in point.items():
            rep.phase[phase] += seconds
    for problem in workloads.check_sweep(result, seed, expected):
        rep.sweep_failed = True
        rep.problems.append(problem)
    rep.points = workloads.points_of(result)
    for key, results in rep.points:
        rep.digests[key] = workloads.digest(results_to_dict(results))
        problems = workloads.check_point(key, results, seed, expected)
        if reference and reference.get(key) != rep.digests[key]:
            problems.append(f"{key}: output differs from the first repeat")
        if problems:
            rep.failed_keys.add(key)
            rep.problems += problems
    return rep


def measure(name, seed, smoke, expected, budget, reference=None,
            profile=None):
    """Repeat the workload (at least once) while another repeat is
    expected to fit in ``budget`` host seconds."""
    start = time.perf_counter()
    repeats = []
    while True:
        rep = run_repeat(name, seed, smoke, expected, reference, profile)
        repeats.append(rep)
        if not reference:
            reference = rep.digests
        elapsed = time.perf_counter() - start
        if elapsed * (len(repeats) + 1) / len(repeats) > budget:
            return repeats


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(repeats, peak_rss_mb: float) -> dict:
    ok = [rep for rep in repeats if not rep.raised] or repeats
    attempted = sum(rep.attempted for rep in repeats)
    failed = sum(rep.failed for rep in repeats)
    return {
        "wall_s": _median(rep.wall for rep in ok),
        "setup_s": _median(rep.setup for rep in ok),
        "tx_per_wall_s": _median(
            _ratio(rep.committed, rep.phase["measure"]) for rep in ok),
        "sim_s_per_wall_s": _median(
            _ratio(rep.sim, rep.phase["warmup"] + rep.phase["measure"])
            for rep in ok),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


def model_counts(points) -> dict:
    """Simulated statistics of one repeat, aggregated over its points."""
    results = [r for _, r in points]
    accesses = sum(r.page_accesses for r in results)
    committed = sum(r.committed for r in results)

    def per_access(levels):
        return _ratio(sum(sum(r.hit_ratio(level) for level in levels)
                          * r.page_accesses for r in results), accesses)

    def per_tx(value):
        return _ratio(sum(value(r) * r.committed for r in results),
                      committed)

    clusters = [r.cluster for r in results if r.cluster is not None]
    restarts = [r.restart_time_mean for r in results
                if r.recovery is not None and r.recovery.get("crashes")]
    return {
        "model.committed": committed,
        "model.aborted": sum(r.aborted for r in results),
        "model.page_accesses": accesses,
        "core.bm.mm_hit_ratio": per_access(("main_memory",
                                            "memory_resident")),
        "storage.second_level_hit_ratio": per_access(("nvem_cache",
                                                      "disk_cache")),
        "storage.io_per_tx": per_tx(lambda r: sum(r.io_per_tx.values())),
        "core.cc.lock_waits_per_tx": per_tx(
            lambda r: r.lock_stats["conflict_ratio"]
            * r.lock_stats["requests_per_tx"]),
        "core.cpu.utilization": _median(r.cpu_utilization
                                        for r in results),
        "cluster.distributed_commits": int(sum(
            c["distributed_commits"] for c in clusters)),
        "cluster.in_doubt_s": _ratio(
            sum(c["in_doubt_total"] for c in clusters),
            sum(c["prepared_pieces"] for c in clusters)),
        "recovery.restart_s": _median(restarts),
    }


def per_layer(untraced, traced, profile) -> dict:
    import ledger

    metrics = {f"phase.{phase}_s": _median(rep.phase[phase]
                                           for rep in untraced)
               for phase in PHASES}
    metrics["core.bm.refs_per_wall_s"] = _median(
        _ratio(rep.page_accesses, rep.phase["measure"]) for rep in untraced)
    metrics["bench.trace_overhead"] = _ratio(
        _median(rep.wall for rep in traced),
        _median(rep.wall for rep in untraced))
    self_s, calls = ledger.layer_split(profile)
    total = sum(self_s.values())
    for layer in ledger.LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(self_s[layer], total)
        metrics[f"{layer}.calls"] = round(calls[layer] / len(traced))
    metrics.update(model_counts(untraced[0].points))
    return metrics


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_digests(workloads) -> None:
    """Rewrite digests.json from the default seed, both scales."""
    table = {}
    for name in workloads.NAMES:
        table[name] = {}
        for scale in ("full", "smoke"):
            result = workloads.run_workload(name, workloads.DEFAULT_SEED,
                                            smoke=scale == "smoke")
            table[name][scale] = workloads.record(result)
            print(f"{name} {scale}: sweep {table[name][scale]['sweep']}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _show(metrics, units) -> None:
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny simulated lengths (smoke test)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json at the default seed")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import workloads

    if args.record:
        record_digests(workloads)
        return 0
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        recorded = json.loads(DIGESTS.read_text())[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no recorded digests for {args.workload}: {exc}",
              file=sys.stderr)
        return 2
    expected = recorded["smoke" if args.smoke else "full"]

    start = time.perf_counter()
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    untraced = measure(args.workload, args.seed, args.smoke, expected,
                       budget)
    e2e = end_to_end(untraced, peak_rss_mb())
    repeats = list(untraced)
    traced = []
    if args.trace:
        profile = cProfile.Profile()
        traced = measure(args.workload, args.seed, args.smoke, expected,
                         args.seconds - (time.perf_counter() - start),
                         reference=untraced[0].digests, profile=profile)
        repeats += traced

    attempted = sum(rep.attempted for rep in repeats)
    failed = sum(rep.failed for rep in repeats)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"# environment: nproc={os.cpu_count()} python="
          f"{platform.python_version()} single process, serial "
          f"ExperimentRunner (no --parallel, no pool), no point cache "
          f"or journal writes")
    print(f"# repeats: {len(untraced)} untraced, {len(traced)} traced; "
          f"points attempted {attempted}, failed {failed}")
    for rep in repeats:
        for problem in rep.problems[:10]:
            print(f"# FAIL {problem}")
    print("end-to-end (untraced medians):")
    _show(e2e, END_TO_END)
    metrics = e2e
    if args.trace:
        import ledger

        units = per_layer_units(ledger.LAYERS)
        metrics = per_layer(untraced, traced, profile)
        print("per-layer:")
        _show(metrics, units)
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
