#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, for perf claims.

    python3 tools/alternate_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD SEED N [--seconds S]

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts, at paths of
equal length: the path's length alone moves ``peak_rss_mb``, so a warning
goes to stderr when the resolved paths differ in length. Each of the N
pairs runs ``perfbench/run.py --workload WORKLOAD --seed SEED --trace 0`` in
both, one after the other; odd pairs run the parent first and even pairs
the change first, so a drift of the host's speed falls on both sides.
WORKLOAD ``all`` runs the N pairs of every workload of this checkout's
``BENCHMARK.json`` in turn, and prints one block per workload. The last
stdout line of every run is its JSON summary. Each run's metrics go to
stderr as it finishes; stdout gets a block per workload with one line per
end-to-end metric of ``BENCHMARK.json``:

    metric  parent median [parent q1–q3]  ->  change median  ±x.x%  wins k/N

The percentage is the change's median against the parent's. A pair is a
win when the change's value is better in the metric's direction. A gain is
shown when the change wins nearly every pair and its median beats the
parent's by more than the parent's interquartile range. A line ends in
``past bound`` when the change's median is worse than the parent's by more
than the metric's ``bound`` in ``BENCHMARK.json``, taken as a fraction of
the parent's median: a regression the benchmark's own check would refuse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _metrics(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """Run one benchmark in `root` and return its end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark failed in {root} (exit {proc.returncode}):\n{proc.stderr}")
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        sys.exit(f"benchmark in {root} reported failing ops:\n{proc.stderr}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def median_change(parent: float, change: float, better: str, bound: float
                  ) -> tuple[float | None, bool]:
    """(change's median against the parent's, in percent, or None for a
    parent median of 0; whether it is worse, in the direction `better`,
    by more than `bound` times the parent's median)."""
    percent = None if parent == 0 else 100 * (change - parent) / abs(parent)
    worse = parent - change if better == "higher" else change - parent
    return percent, worse > bound * abs(parent)


def workloads_named(name: str, bench: dict) -> list[str]:
    """The workloads WORKLOAD stands for: those of `bench` (the parsed
    ``BENCHMARK.json``), in its order, for ``all``; else `name` alone."""
    return [w["name"] for w in bench["workloads"]] if name == "all" else [name]


def _pairs(args, workload: str) -> dict[str, list[dict[str, float]]]:
    """The metrics of N alternating pairs of runs of one workload."""
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for k in range(args.n):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            m = _metrics(getattr(args, side), workload, args.seed, args.seconds)
            runs[side].append(m)
            print(f"{workload} pair {k + 1} {side}: "
                  + " ".join(f"{name}={value:.4g}" for name, value in m.items()),
                  file=sys.stderr, flush=True)
    return runs


def _block(bench: dict, workload: str, seed: int, runs: dict) -> None:
    """Print one workload's line per end-to-end metric."""
    n = len(runs["parent"])
    print(f"{workload} seed {seed}, {n} alternating pairs")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        q1, q3 = _quartiles(parent)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        percent, past = median_change(p_med, c_med, metric["better"], metric["bound"])
        shown = "n/a" if percent is None else f"{percent:+.1f}%"
        print(f"  {name:18s} {p_med:10.4g} [{q1:.4g}–{q3:.4g}]"
              f"  ->  {c_med:10.4g}  {shown:>7s}  wins {wins}/{n}"
              + ("  past bound" if past else ""), flush=True)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    parent, change = str(args.parent.resolve()), str(args.change.resolve())
    if len(parent) != len(change):
        # the checkout path's length alone moves peak_rss_mb by tenths of a MB
        print(f"warning: checkout paths differ in length ({len(parent)} and {len(change)}"
              " characters), which moves peak_rss_mb", file=sys.stderr)
    if args.n < 1:
        parser.error("N must be at least 1")
    for workload in workloads_named(args.workload, bench):
        _block(bench, workload, args.seed, _pairs(args, workload))
    return 0


if __name__ == "__main__":
    from report_digests import exit_with  # beside this script, so on sys.path

    exit_with(main, sys.argv[1:])
