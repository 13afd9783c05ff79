#!/usr/bin/env python
"""A/B the end-to-end benchmark: a base revision against this tree.

Usage (from the repository root)::

    python3 benchmarks/ab.py --base HEAD~1 --pairs 10 --seconds 40 \\
        --seed 101 [--workload fig4_1_sweep ...]

Exports the committed files of ``--base`` (``git archive``) into a
temporary directory and, per workload of ``BENCHMARK.json``, runs
``--pairs`` interleaved pairs of ``perfbench/run.py --workload W
--seconds S --trace 0 --seed K``: one run on the base tree, one on this
working tree, alternating which side runs first.  Pair ``i`` runs seed
``K + i`` on both sides.  Each side runs its own ``perfbench`` against
its own ``src``.

For every end-to-end metric it prints the medians of both sides, the
base's quartiles, the pairs the change won, the change of the median
relative to the base, whether that exceeds the base's interquartile
range, and whether it is worse than the metric's ``BENCHMARK.json``
bound.  A run that exits non-zero or reports ``correct: false`` is
listed and loses its pair.  The last block is the same table as
Markdown rows for the README optimisation history.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def export_tree(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree: Path, workload: str, seconds: float, seed: int):
    """One ``perfbench/run.py`` run; its JSON summary, or None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", f"{seconds:g}",
         "--trace", "0", "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = None
    if proc.returncode != 0 or summary is None or not summary["correct"]:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        print(f"  FAIL {workload} seed={seed} {tree}: exit "
              f"{proc.returncode}; {' | '.join(tail)}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in summary["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(runs, metric: dict) -> dict:
    """Medians, base quartiles and pairs won for one metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(b[name], c[name]) for b, c in runs
             if b is not None and c is not None]
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    won = sum(1 for b, c in pairs if (c < b if lower else c > b))
    if not pairs:
        return {"name": name, "pairs": 0}
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    rel = (mc - mb) / mb if mb else 0.0
    worse = rel if lower else -rel
    return {"name": name, "pairs": len(runs), "won": won,
            "base": mb, "q1": q1, "q3": q3, "change": mc, "rel": rel,
            "beyond_iqr": abs(mc - mb) > q3 - q1,
            "over_bound": worse > metric["bound"]}


def report(workload: str, rows) -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<17} {'base':>10} {'[q1-q3]':>21} {'change':>10} "
          f"{'rel':>8} {'won':>6}  >IQR  bound")
    for r in rows:
        if "base" not in r:
            print(f"  {r['name']:<17} no complete pair")
            continue
        print(f"  {r['name']:<17} {r['base']:>10.4g} "
              f"[{r['q1']:>9.4g}-{r['q3']:<9.4g}] {r['change']:>10.4g} "
              f"{r['rel']:>+8.1%} {r['won']:>3}/{r['pairs']:<2}  "
              f"{'yes' if r['beyond_iqr'] else 'no ':<4}  "
              f"{'WORSE' if r['over_bound'] else 'ok'}")


def markdown(results) -> None:
    print("\n| workload | metric | base (q1-q3) | change | pairs won |")
    print("|---|---|---|---|---|")
    for workload, rows in results:
        for r in rows:
            if "base" not in r:
                continue
            print(f"| `{workload}` | `{r['name']}` | {r['base']:.4g} "
                  f"({r['q1']:.4g}-{r['q3']:.4g}) | {r['change']:.4g}, "
                  f"{r['rel']:+.1%} | {r['won']}/{r['pairs']} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (pair i: seed + i)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    results = []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        export_tree(args.base, trees["base"])
        print(f"# ab: base={args.base} change={ROOT} pairs={args.pairs} "
              f"seconds={args.seconds:g} seeds={args.seed}-"
              f"{args.seed + args.pairs - 1} python="
              f"{sys.version.split()[0]} nproc={os.cpu_count()}")
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {side: run_side(trees[side], workload, args.seconds,
                                      seed) for side in order}
                runs.append((got["base"], got["change"]))
                print(f"  {workload} pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            rows = [compare(runs, m) for m in bench["end_to_end"]]
            report(workload, rows)
            results.append((workload, rows))
    markdown(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
