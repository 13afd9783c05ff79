"""Command-line interface: run simulations and experiments from a shell.

Examples::

    python -m repro run --scheme nvem --rate 300 --duration 10
    python -m repro run --scheme disk --force --buffer-size 500
    python -m repro experiment list
    python -m repro experiment run fig4_1 --profile fast
    python -m repro experiment run --all --profile fast --parallel \\
        --json --csv --out artifacts/
    python -m repro experiment run --all --profile full --cache --resume
    python -m repro watch
    python -m repro cache stats
    python -m repro trace run fig4_1 --profile fast --summary
    python -m repro trace export fig4_1.trace.jsonl
    python -m repro trace summary fig4_1.trace.jsonl
    python -m repro trace-gen --out workload.trace --transactions 2000
    python -m repro trace-run --trace workload.trace --kind nvem --mm 500
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest
from typing import List, Optional

from repro.core.config import DeviceFault, PolicySpec, UpdateStrategy
from repro.core.model import check_run_window
from repro.experiments import api
from repro.experiments.defaults import (
    battery_dram_resident,
    debit_credit_config,
    disk_only,
    disk_with_nv_cache_write_buffer,
    flash_resident,
    memory_resident,
    nvem_resident,
    nvem_write_buffer,
    ssd_resident,
)
from repro.experiments.runner import _evaluate_point
from repro.storage.registry import device_kinds, policy_kinds
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["main"]

SCHEMES = {
    "disk": disk_only,
    "disk-cache-wb": disk_with_nv_cache_write_buffer,
    "nvem-wb": nvem_write_buffer,
    "ssd": ssd_resident,
    "flash": flash_resident,
    "battery-dram": battery_dram_resident,
    "nvem": nvem_resident,
    "memory": memory_resident,
}

#: Policy choices come from the registry, so user-registered kinds
#: (imported before main() runs) are accepted by --mm-policy too.
POLICIES = tuple(policy_kinds())


#: --duration/--warmup help of ``run`` and ``cluster``.
_WINDOW_HELP = ("measured simulated seconds (default: 10)",
                "warm-up simulated seconds (default: 3)")


def _add_point_options(parser, rate: float, duration: Optional[float],
                       warmup: Optional[float] = None, helps=()) -> None:
    """Add the one-off commands' shared --rate, --duration, --warmup
    (unless ``warmup`` is None) and --seed, with per-command defaults
    and ``helps`` texts in that order."""
    options = {"--rate": rate, "--duration": duration}
    if warmup is not None:
        options["--warmup"] = warmup
    for (flag, default), text in zip_longest(options.items(), helps):
        parser.add_argument(flag, type=float, default=default, help=text)
    parser.add_argument("--seed", type=int, default=1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPSIM reproduction: extended storage architectures "
                    "for transaction processing (Rahm, 1991/92)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one Debit-Credit simulation")
    run.add_argument("--scheme", choices=sorted(SCHEMES), default="disk",
                     help="storage allocation (default: disk)")
    _add_point_options(run, 300.0, 10.0, 3.0, (
        "arrival rate in TPS (default: 300)", *_WINDOW_HELP))
    run.add_argument("--buffer-size", type=int, default=2000,
                     help="main-memory buffer frames (default: 2000)")
    run.add_argument("--force", action="store_true",
                     help="use the FORCE update strategy")
    run.add_argument("--mm-policy", choices=POLICIES, default="lru",
                     help="main-memory buffer replacement policy "
                          "(default: lru, as in the paper)")

    exp = sub.add_parser(
        "experiment",
        help="list or regenerate the paper's figures/tables",
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    exp_sub.add_parser("list", help="list registered experiments")

    exp_run = exp_sub.add_parser(
        "run", help="run one or more registered experiments")
    exp_run.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (see 'experiment list')")
    exp_run.add_argument("--all", action="store_true",
                         help="run every registered experiment")
    exp_run.add_argument("--profile", choices=("fast", "full"),
                         default="full",
                         help="sweep resolution (default: full)")
    exp_run.add_argument("--parallel", action="store_true",
                         help="schedule all points of all curves of all "
                              "selected experiments across one worker "
                              "pool (deterministic: identical output "
                              "to a serial run)")
    exp_run.add_argument("--workers", type=int, default=None,
                         metavar="N",
                         help="worker process count (implies --parallel; "
                              "default: CPU count)")
    exp_run.add_argument("--json", action="store_true",
                         help="write <out>/<id>.json per experiment")
    exp_run.add_argument("--csv", action="store_true",
                         help="write <out>/<id>.csv per experiment")
    exp_run.add_argument("--out", metavar="DIR", default=None,
                         help="output directory for --json/--csv")
    exp_run.add_argument("--seed", type=int, default=None, metavar="N",
                         help="override every spec's base seed (per-point "
                              "seeds still derive deterministically), so "
                              "sweeps and crash schedules are reproducible "
                              "from the command line")
    exp_run.add_argument("--cache", action="store_true",
                         help="serve unchanged points from the "
                              "content-addressed result cache and store "
                              "fresh ones (byte-identical to recomputing; "
                              "REPRO_CACHE=1 makes this the default)")
    exp_run.add_argument("--no-cache", action="store_true",
                         help="disable the result cache even if "
                              "REPRO_CACHE/--cache-dir enable it")
    exp_run.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache root (implies --cache; default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    exp_run.add_argument("--resume", action="store_true",
                         help="reload completed points from this run's "
                              "checkpoint journal (an interrupted run "
                              "continues where it left off)")
    exp_run.add_argument("--journal", metavar="PATH", default=None,
                         help="checkpoint-journal path (default: auto "
                              "under <cache>/runs/ whenever caching or "
                              "--resume is active)")
    exp_run.add_argument("--cache-stats", metavar="PATH", default=None,
                         help="write run cache statistics (hits/misses/"
                              "elapsed) as JSON to PATH")

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain the content-addressed result cache",
    )
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, size and session traffic")
    cache_stats.add_argument("--json", action="store_true",
                             help="print machine-readable JSON")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict old entries and/or cap the cache size")
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          help="drop entries older than this many days")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          help="evict oldest-first until the cache fits")
    cache_sub.add_parser("clear", help="remove every cached point result")

    watch = sub.add_parser(
        "watch",
        help="tail an in-flight experiment run's checkpoint journal and "
             "render live per-figure progress",
    )
    watch.add_argument("journal", nargs="?", default=None, metavar="JOURNAL",
                       help="journal file to follow (default: the run "
                            "most recently started under <cache>/runs/)")
    watch.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache root to look for journals in")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds (default: 1)")
    watch.add_argument("--once", action="store_true",
                       help="render one frame and exit (scripting/CI)")

    rec = sub.add_parser(
        "recovery",
        help="crash one Debit-Credit run and compare the simulated "
             "restart with the analytic RecoveryModel",
    )
    rec.add_argument("--scheme", choices=sorted(SCHEMES), default="disk",
                     help="storage allocation (default: disk)")
    _add_point_options(rec, 50.0, None, 2.0, (
        "arrival rate in TPS (default: 50)",
        "measured simulated seconds (default: sized to cover crash + "
        "restart)"))
    rec.add_argument("--interval", type=float, default=8.0,
                     help="fuzzy-checkpoint interval in s (default: 8)")
    rec.add_argument("--crash-at", type=float, default=None,
                     help="crash instant in s (default: 1.5 * interval, "
                          "i.e. half an interval after a checkpoint — "
                          "the analytic model's expected exposure)")
    rec.add_argument("--force", action="store_true",
                     help="use the FORCE update strategy")
    rec.add_argument("--media", action="store_true",
                     help="media-failure mode: lose a device mid-run and "
                          "rebuild it from the archive copy + log scan "
                          "while transactions keep running degraded")
    rec.add_argument("--lose", default="db0", metavar="DEVICE",
                     help="device lost in --media mode: a unit name, "
                          "'nvem', or a mirrored log copy 'log:0'/'log:1' "
                          "(default: db0)")
    rec.add_argument("--lose-at", type=float, default=8.0,
                     help="loss instant in s for --media (default: 8)")
    rec.add_argument("--archive-interval", type=float, default=6.0,
                     help="incremental-archive period in s for --media "
                          "(default: 6)")
    rec.add_argument("--mirror", action="store_true",
                     help="dual-copy NVEM log mirroring (requires an "
                          "NVEM log placement, e.g. --scheme nvem)")

    clu = sub.add_parser(
        "cluster",
        help="run one sharded multi-node Debit-Credit simulation with "
             "two-phase commit (optionally crashing a node)",
    )
    clu.add_argument("--nodes", type=int, default=4,
                     help="number of computing modules (default: 4)")
    clu.add_argument("--log", choices=("nvem", "disk"), default="nvem",
                     help="per-node log placement (default: nvem)")
    _add_point_options(clu, 50.0, 10.0, 3.0, (
        "arrival rate per node in TPS (default: 50)", *_WINDOW_HELP))
    clu.add_argument("--dist", type=float, default=0.15,
                     help="fraction of transactions touching a remote "
                          "account, committed via 2PC (default: 0.15)")
    clu.add_argument("--mpl", type=int, default=60,
                     help="multiprogramming level per node (default: 60)")
    clu.add_argument("--crash-at", type=float, default=None,
                     help="crash a node at this simulated instant "
                          "(in-doubt pieces resolve via GEM failover)")
    clu.add_argument("--crash-node", type=int, default=0,
                     help="node crashed by --crash-at (default: 0)")
    clu.add_argument("--failover-delay", type=float, default=0.25,
                     help="GEM failover delay in s (default: 0.25)")
    clu.add_argument("--interval", type=float, default=10.0,
                     help="per-node fuzzy-checkpoint interval in s "
                          "(default: 10)")

    sub.add_parser("registry",
                   help="list registered device kinds and replacement "
                        "policies")

    bench = sub.add_parser(
        "bench",
        help="time (or profile) the kernel benchmark workloads",
    )
    bench.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                       help="workload names (default: all; see --list)")
    bench.add_argument("--list", action="store_true",
                       help="list available workloads and exit")
    bench.add_argument("--repeats", type=int, default=3,
                       help="runs per workload; the minimum is reported "
                            "(default: 3)")
    bench.add_argument("--profile", metavar="PSTATS",
                       help="run under cProfile, write the pstats dump "
                            "to this path and print the top 25 "
                            "cumulative entries to stderr")

    trace = sub.add_parser(
        "trace",
        help="transaction-level tracing: record, export and summarize "
             "span traces of a registered experiment",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run", help="re-run one experiment with span tracing on and "
                    "write a JSONL trace (results are byte-identical "
                    "to the untraced run)")
    trace_run.add_argument("id", metavar="ID",
                           help="experiment id (see 'experiment list')")
    trace_run.add_argument("--out", metavar="PATH", default=None,
                           help="trace output path "
                                "(default: <id>.trace.jsonl)")
    trace_run.add_argument("--profile", choices=("fast", "full"),
                           default="fast",
                           help="sweep resolution (default: fast)")
    trace_run.add_argument("--sample", type=int, default=1, metavar="N",
                           help="trace every Nth transaction "
                                "(default: 1 = all)")
    trace_run.add_argument("--seed", type=int, default=None, metavar="N",
                           help="override the spec's base seed")
    trace_run.add_argument("--telemetry", type=float, default=0.0,
                           metavar="SECONDS",
                           help="also sample time-series gauges every "
                                "SECONDS of simulated time (default: off)")
    trace_run.add_argument("--summary", action="store_true",
                           help="print per-point latency attribution "
                                "after the run")

    trace_export = trace_sub.add_parser(
        "export", help="convert a JSONL trace to Chrome/Perfetto "
                       "trace-event JSON (open in ui.perfetto.dev)")
    trace_export.add_argument("trace", metavar="TRACE",
                              help="JSONL trace written by 'trace run'")
    trace_export.add_argument("--out", metavar="PATH", default=None,
                              help="output path "
                                   "(default: <trace>.perfetto.json)")

    trace_summary = trace_sub.add_parser(
        "summary", help="per-phase latency attribution tables from a "
                        "JSONL trace (phases sum to the measured "
                        "response time)")
    trace_summary.add_argument("trace", metavar="TRACE",
                               help="JSONL trace written by 'trace run'")
    trace_summary.add_argument("--validate", action="store_true",
                               help="schema-check every record while "
                                    "reading")

    gen = sub.add_parser("trace-gen",
                         help="generate a synthetic real-life trace")
    gen.add_argument("--out", required=True, help="output trace file")
    gen.add_argument("--transactions", type=int, default=2000)
    gen.add_argument("--accesses", type=int, default=120_000)
    gen.add_argument("--seed", type=int, default=42)

    trun = sub.add_parser("trace-run",
                          help="replay a trace file against a storage "
                               "configuration")
    trun.add_argument("--trace", required=True, help="trace file path")
    trun.add_argument("--kind", default="none",
                      choices=("none", "volatile", "nonvolatile", "nvem",
                               "ssd", "nvem-resident"))
    trun.add_argument("--mm", type=int, default=1000,
                      help="main-memory buffer frames (default: 1000)")
    trun.add_argument("--second", type=int, default=2000,
                      help="second-level cache pages (default: 2000)")
    _add_point_options(trun, 25.0, 30.0)
    return parser


def _one_off(build):
    """The command that runs ``build(args)``'s ``(header, (config,
    workload, warmup, duration, seed), observe)`` through the
    sweep-point path: it prints the header, the summary and the extras
    of ``observe(system, results)``, which may return the exit code.
    A ``ValueError`` while building or validating exits 2; one raised
    by the simulation keeps its traceback."""
    def command(args) -> int:
        try:
            header, task, observe = build(args)
            config, _, warmup, duration, _ = task
            config.validate()
            check_run_window(config, 0.0, warmup, duration)
        except ValueError as exc:
            print(f"error: {exc} (repro {' '.join(args.argv)})",
                  file=sys.stderr)
            return 2
        codes = []

        def report(_task, system, results) -> None:
            print(header)
            print(results.summary())
            codes.append(observe(system, results) if observe else 0)

        _evaluate_point((None,) + task, observe=report)
        return codes[0] or 0
    return command


def _debit_credit(args, duration: Optional[float] = None, **overrides):
    """The Debit-Credit task of ``--scheme``/``--force``/``--rate``;
    ``duration`` stands in for an unset ``--duration``."""
    strategy = UpdateStrategy.FORCE if args.force else \
        UpdateStrategy.NOFORCE
    config = debit_credit_config(SCHEMES[args.scheme](),
                                 update_strategy=strategy, **overrides)
    return (config, DebitCreditWorkload(arrival_rate=args.rate), args.warmup,
            duration if args.duration is None else args.duration, args.seed)


@_one_off
def _cmd_run(args):
    """Run one Debit-Credit simulation."""
    task = _debit_credit(args, buffer_size=args.buffer_size)
    task[0].cm.mm_policy = PolicySpec(kind=args.mm_policy)
    return (f"scheme={args.scheme} "
            f"strategy={task[0].cm.update_strategy.value} "
            f"rate={args.rate:g} TPS"), task, None


def _cmd_experiment_list(args) -> int:
    ids = api.experiment_ids()
    width = max(len(exp_id) for exp_id in ids)
    for exp_id in ids:
        spec = api.get_experiment(exp_id)
        print(f"{exp_id:<{width}}  {spec.title}")
    return 0


def _cmd_experiment_run(args) -> int:
    known = api.experiment_ids()
    if args.all:
        if args.ids:
            print("error: give experiment ids or --all, not both",
                  file=sys.stderr)
            return 2
        ids = known
    else:
        if not args.ids:
            print("error: no experiment ids given "
                  "(try 'repro experiment list' or --all)",
                  file=sys.stderr)
            return 2
        unknown = [i for i in args.ids if i not in known]
        if unknown:
            print(f"error: unknown experiment(s): {', '.join(unknown)}\n"
                  f"registered: {', '.join(known)}", file=sys.stderr)
            return 2
        ids = list(dict.fromkeys(args.ids))  # dedup, order preserved
    if (args.json or args.csv) and not args.out:
        print("error: --json/--csv need --out DIR", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.cache and args.no_cache:
        print("error: --cache and --no-cache conflict", file=sys.stderr)
        return 2

    env_cache = os.environ.get("REPRO_CACHE", "").lower() in \
        ("1", "true", "yes", "on")
    cache_enabled = (args.cache or args.resume or env_cache
                     or args.cache_dir is not None) and not args.no_cache
    store = None
    if cache_enabled:
        from repro.experiments.store import ResultStore

        store = ResultStore(args.cache_dir)
    # A journal is kept whenever it has a consumer: an explicit path,
    # a --resume, or an active cache (so `repro watch` always works).
    journal = args.journal if args.journal is not None else \
        bool(cache_enabled or args.resume)

    parallel = args.parallel or args.workers is not None
    runner = api.ExperimentRunner(parallel=parallel,
                                  max_workers=args.workers,
                                  seed=args.seed,
                                  store=store,
                                  journal=journal,
                                  resume=args.resume)
    results = runner.run(ids, profile=args.profile)

    exported = []
    if args.out and (args.json or args.csv):
        os.makedirs(args.out, exist_ok=True)
    for exp_id, result in results.items():
        spec = api.get_experiment(exp_id)
        print(spec.render(result))
        print()
        if args.json:
            from repro.experiments.export import write_json

            path = os.path.join(args.out, f"{exp_id}.json")
            write_json(result, path)
            exported.append(path)
        if args.csv:
            from repro.experiments.export import write_csv

            path = os.path.join(args.out, f"{exp_id}.csv")
            write_csv(result, path)
            exported.append(path)
    for path in exported:
        print(f"wrote {path}")

    stats = runner.last_stats
    if stats is not None:
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.resumed} resumed, {stats.deduped} deduped "
              f"({stats.hit_rate * 100:.1f}% hit rate, "
              f"{stats.elapsed_s:.2f} s)", file=sys.stderr)
        if runner.last_journal_path:
            print(f"journal: {runner.last_journal_path}", file=sys.stderr)
    if args.cache_stats:
        import json as _json

        payload = stats.to_dict() if stats is not None else {}
        with open(args.cache_stats, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_experiment(args) -> int:
    handlers = {
        "list": _cmd_experiment_list,
        "run": _cmd_experiment_run,
    }
    return handlers[args.exp_command](args)


def _cmd_cache(args) -> int:
    """Inspect or maintain the content-addressed result cache."""
    import json as _json

    from repro.experiments.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(_json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"cache root : {stats['root']}")
            print(f"entries    : {stats['entries']}")
            print(f"size       : {stats['bytes'] / 1e6:.2f} MB")
        return 0
    if args.cache_command == "gc":
        if args.max_age_days is None and args.max_bytes is None:
            print("error: gc needs --max-age-days and/or --max-bytes",
                  file=sys.stderr)
            return 2
        report = store.gc(max_age_days=args.max_age_days,
                          max_bytes=args.max_bytes)
        print(f"removed {report['removed']} entries "
              f"({report['freed_bytes'] / 1e6:.2f} MB); "
              f"kept {report['kept']}")
        return 0
    removed = store.clear()
    print(f"removed {removed} cached point(s) from {store.root}")
    return 0


def _cmd_watch(args) -> int:
    """Follow an in-flight run's journal with live progress."""
    from repro.experiments.journal import find_latest_journal
    from repro.experiments.store import ResultStore
    from repro.experiments.watch import watch

    path = args.journal
    if path is None:
        runs_dir = str(ResultStore(args.cache_dir).runs_dir)
        path = find_latest_journal(runs_dir)
        if path is None:
            print(f"error: no run journals under {runs_dir} "
                  "(start one with 'repro experiment run --cache ...')",
                  file=sys.stderr)
            return 2
    elif not os.path.exists(path):
        print(f"error: no journal at {path}", file=sys.stderr)
        return 2
    try:
        return watch(path, interval=args.interval, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 130


def _cmd_recovery_media(args):
    """Lose a device mid-run and rebuild it through the real devices."""
    task = _debit_credit(args, max(40.0, 4.0 * args.lose_at))
    media = task[0].media
    media.enabled = True
    media.faults = (DeviceFault(device=args.lose, time=args.lose_at),)
    media.archive_interval = args.archive_interval
    # Coarser restore extents keep the multi-million-page rebuild
    # inside a short smoke window without changing its shape.
    media.archive_batch_pages = 4096
    task[0].recovery.log_mirror = args.mirror

    def observe(system, results) -> int:
        for stats in system.media.recoveries:
            print(stats.summary())
        if not system.media.recoveries or results.media_mttr_mean <= 0:
            print("error: no media recovery completed inside the window "
                  "(raise --duration)", file=sys.stderr)
            return 1
        return 0

    return (f"scheme={args.scheme} rate={args.rate:g} TPS "
            f"lose {args.lose} at {args.lose_at:g} s "
            f"(archive every {args.archive_interval:g} s"
            f"{', mirrored log' if args.mirror else ''})"), task, observe


@_one_off
def _cmd_recovery(args):
    """Run one crashed simulation and the analytic model side by side."""
    from repro.recovery import matched_recovery_model

    if args.media:
        return _cmd_recovery_media(args)
    crash_at = args.crash_at if args.crash_at is not None \
        else 1.5 * args.interval
    # Generous default: the window must contain the crash and the full
    # restart, or no crash completes inside measurement.
    task = _debit_credit(args, max(20.0, 4.0 * crash_at))
    config = task[0]
    config.recovery.enabled = True
    config.recovery.checkpoint_interval = args.interval
    config.recovery.crash_times = (crash_at,)
    strategy = config.cm.update_strategy

    def observe(system, results) -> None:
        restarts = system.recovery.crash_controller.restarts
        for stats in restarts:
            print("simulated " + stats.summary())
        estimate = matched_recovery_model(
            config, update_tps=args.rate).estimate(strategy)
        print("analytic  " + estimate.summary()
              + f"  [{strategy.value}, matched devices]")
        if restarts and estimate.total > 0:
            print(f"simulated/analytic ratio: "
                  f"{restarts[-1].total / estimate.total:.2f} (the "
                  f"analytic model assumes 3 distinct pages per update "
                  f"tx and 50% already propagated; the simulation "
                  f"measures both)")

    return (f"scheme={args.scheme} strategy={strategy.value} "
            f"rate={args.rate:g} TPS interval={args.interval:g} s "
            f"crash at {crash_at:g} s"), task, observe


@_one_off
def _cmd_cluster(args):
    """Run one cluster simulation and report the 2PC/cost numbers."""
    from repro.cluster import cluster_config, node_scheme
    from repro.cluster.workload import ShardedDebitCreditWorkload

    config = cluster_config(
        scheme=node_scheme(log=args.log),
        num_nodes=args.nodes,
        mpl=args.mpl,
        gem_failover_delay=args.failover_delay,
        crash_schedule=() if args.crash_at is None
        else ((args.crash_node, args.crash_at),),
        checkpoint_interval=args.interval,
        seed=args.seed,
    )
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=args.rate,
        distributed_fraction=args.dist,
    )

    def observe(system, results) -> None:
        for share in system.node_results():
            print(f"  node {share.node_id}: {share.committed} committed, "
                  f"cpu {share.cpu_utilization * 100:5.1f} %")
        messages = system.message_stats()
        if messages.get("messages"):
            pairs = ", ".join(f"{kind}={count}" for kind, count in
                              sorted(messages.items())
                              if kind != "messages")
            print(f"  messages: {messages['messages']} ({pairs})")
        for node_id, stats in system.faults.restarts:
            print(f"  node {node_id} " + stats.summary())

    return (f"nodes={args.nodes} log={args.log} rate={args.rate:g} "
            f"TPS/node dist={args.dist:g}"), \
        (config, workload, args.warmup, args.duration, args.seed), observe


def _cmd_trace(args) -> int:
    """Record, export or summarize transaction-level span traces."""
    if args.trace_command == "run":
        from repro.trace import run_traced

        if args.id not in api.experiment_ids():
            print(f"error: unknown experiment {args.id!r} "
                  "(try 'repro experiment list')", file=sys.stderr)
            return 2
        if args.sample < 1:
            print(f"error: --sample must be >= 1, got {args.sample}",
                  file=sys.stderr)
            return 2
        out = args.out or f"{args.id}.trace.jsonl"
        result, header, points = run_traced(
            args.id, out, profile=args.profile, sample=args.sample,
            seed=args.seed, telemetry=args.telemetry,
        )
        spans = sum(len(p["spans"]) for p in points)
        dropped = sum(p["dropped"] for p in points)
        print(f"wrote {out}: {len(points)} point(s), {spans} span(s)"
              + (f", {dropped} dropped (raise max_spans)" if dropped
                 else ""))
        if args.summary:
            from repro.trace import attribute, render_attribution

            for point in points:
                summary = attribute(point["spans"],
                                    point["measure_start"])
                label = (f"{header['experiment']} {point['series']} "
                         f"x={point['x']:g}")
                print()
                print(render_attribution(label, summary,
                                         measured_ms=point["response_ms"]))
        return 0
    if args.trace_command == "export":
        from repro.trace import write_perfetto

        if not os.path.exists(args.trace):
            print(f"error: no trace at {args.trace}", file=sys.stderr)
            return 2
        out = args.out or f"{args.trace}.perfetto.json"
        events = write_perfetto(args.trace, out)
        print(f"wrote {out}: {events} trace event(s) "
              "(open in ui.perfetto.dev)")
        return 0
    from repro.trace import read_trace, render_attribution, trace_points

    if not os.path.exists(args.trace):
        print(f"error: no trace at {args.trace}", file=sys.stderr)
        return 2
    header, _, _ = read_trace(args.trace)
    print(f"trace of {header['experiment']} "
          f"(profile={header['profile']}, sample=1/{header['sample']}, "
          f"seed={header['seed']})")
    for point, summary in trace_points(args.trace,
                                       validate=args.validate):
        label = (f"{point['series']} x={point['x']:g}")
        print()
        print(render_attribution(label, summary,
                                 measured_ms=point["response_ms"]))
    return 0


def _cmd_trace_gen(args) -> int:
    from repro.workload.trace import write_trace
    from repro.workload.tracegen import RealWorkloadProfile, generate_trace

    profile = RealWorkloadProfile(
        num_transactions=args.transactions,
        target_accesses=args.accesses,
        adhoc_count=1 if args.transactions >= 500 else 0,
        adhoc_accesses=min(11_200, max(1000, args.accesses // 20)),
    )
    trace = generate_trace(profile, seed=args.seed)
    write_trace(trace, args.out)
    print(f"wrote {args.out}: {len(trace)} transactions, "
          f"{trace.num_accesses} accesses, "
          f"{trace.write_fraction * 100:.2f}% writes, "
          f"{trace.distinct_pages} distinct pages")
    return 0


@_one_off
def _cmd_trace_run(args):
    """Replay a trace file against a storage configuration."""
    from repro.experiments.trace_setup import trace_config, trace_workload
    from repro.workload.trace import read_trace

    trace = read_trace(args.trace)
    config = trace_config(trace, args.kind, args.mm,
                          second_level=args.second, seed=args.seed)
    mean_size = trace.mean_tx_size

    def observe(system, results) -> None:
        print(f"normalized response ({mean_size:.1f}-access tx): "
              f"{results.normalized_response_time(mean_size) * 1000:.1f}"
              " ms")

    return (f"trace={args.trace} kind={args.kind} mm={args.mm} "
            f"second={args.second}"), \
        (config, trace_workload(trace, args.rate), 4.0, args.duration,
         args.seed), observe


def _cmd_registry(args) -> int:
    print("device kinds       :", ", ".join(device_kinds()))
    print("replacement policies:", ", ".join(policy_kinds()))
    return 0


def _cmd_bench(args) -> int:
    """Time or profile kernel workloads (same code the tracked
    ``benchmarks/kernel_bench.py`` harness runs)."""
    from repro.bench import WORKLOADS, timed_ms

    if args.list:
        width = max(len(name) for name in WORKLOADS)
        for name, (_fn, desc) in WORKLOADS.items():
            print(f"{name:<{width}}  {desc}")
        return 0
    names = args.workloads or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)} "
              f"(try 'repro bench --list')", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        for name in names:
            fn = WORKLOADS[name][0]
            prepare = getattr(fn, "prepare", None)
            timed_ms(fn)  # warm-up outside the profile (imports, caches)
            for _ in range(args.repeats):
                if prepare is not None:
                    prepare()  # untimed setup stays out of the profile
                profiler.enable()
                fn()
                profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"wrote cProfile dump to {args.profile} "
              f"(inspect with: python -m pstats {args.profile})",
              file=sys.stderr)
        return 0

    width = max(len(name) for name in names)
    for name in names:
        fn, desc = WORKLOADS[name]
        timed_ms(fn)  # warm-up
        best = min(
            timed_ms(fn) for _ in range(args.repeats)
        )
        print(f"{name:<{width}}  {best:9.2f} ms  {desc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.argv = argv
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "cache": _cmd_cache,
        "watch": _cmd_watch,
        "recovery": _cmd_recovery,
        "cluster": _cmd_cluster,
        "registry": _cmd_registry,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "trace-gen": _cmd_trace_gen,
        "trace-run": _cmd_trace_run,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
