#!/usr/bin/env python3
"""Import CPU of two source trees, in alternating fresh processes.

    python3 tools/import_cpu.py PARENT_SRC CHANGE_SRC N

PARENT_SRC and CHANGE_SRC are ``src`` directories (each holding the
``chabauty_lab`` package). Each of the N rounds runs
``python -c "import chabauty_lab.cli"`` once per tree, in a fresh process
with that tree alone on ``PYTHONPATH``; odd rounds run the parent first and
even rounds the change first, so a drift of the host's speed falls on both
sides. A process's time is its CPU time (user + system, from
``resource.getrusage(RUSAGE_CHILDREN)``). The output is the setting of
``PYTHONDONTWRITEBYTECODE``, which decides whether every process compiles
the package afresh or reads a bytecode cache, and per tree the median and
the interquartile range of its N times, in milliseconds:

    PYTHONDONTWRITEBYTECODE=1
    parent  median 104.3 ms  IQR 101.2–109.2 ms  (n = 41)
    change  median 104.5 ms  IQR 100.7–115.0 ms  (n = 41)

These are the figures to set beside the benchmark's ``setup_s``, whose
set-up children each import the package.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_cpu(src: Path) -> float:
    """CPU seconds of one fresh process that imports the package from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    before = _child_cpu()
    done = subprocess.run([sys.executable, "-c", "import chabauty_lab.cli"], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"import failed with PYTHONPATH={src}:\n{done.stderr}")
    return _child_cpu() - before


def _line(side: str, times: list[float]) -> str:
    ms = [1000 * t for t in times]
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return (f"{side}  median {statistics.median(ms):.1f} ms  IQR {q1:.1f}–{q3:.1f} ms"
            f"  (n = {len(ms)})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("n", type=int)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for k in range(args.n):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            times[side].append(import_cpu(getattr(args, side)))
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    for side, values in times.items():
        print(_line(side, values))
    return 0


if __name__ == "__main__":
    from report_digests import exit_with  # beside this script, so on sys.path

    exit_with(main, sys.argv[1:])
