#!/usr/bin/env python3
"""CPU time and peak memory of a benchmark workload, per op kind, for one
source tree.

    python3 tools/op_times.py SRC WORKLOAD SEED N

SRC is the ``src`` directory of a checkout (``src`` for this one). The ops
come from ``perfbench/workloads.make_ops`` of this checkout. Each op kind
gets one fresh child process, so that one kind's memory stays out of the
next kind's peak. The child writes the kind's documents as
``report_digests.py`` writes them, then runs the kind's ops, in workload
order, N times over through SRC's ``chabauty_lab.cli.main`` (output
discarded, no ``--out``), timing each call in process CPU time. One line
per kind is printed, in order of the kind's first op::

    kind ops cpu_ms peak_rss_mb

``cpu_ms`` is the sum over the kind's ops of each op's least time over the
N passes, and ``peak_rss_mb`` is the child's ``ru_maxrss``. Compare two
trees by running both in one session: the host's speed drifts between
sessions.

With a fifth argument KIND the script is that child: it prints the kind's
per-pass times and its peak RSS as one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from report_digests import exit_with, op_documents, run_quietly, workloads  # noqa: E402


def least_total(passes: list[list[float]]) -> tuple[int, float]:
    """(op count, sum over the ops of each op's least time), from passes
    that each list one time per op, the ops in one order."""
    return len(passes[0]), sum(map(min, zip(*passes)))


def _child(src: str, workload: str, seed: int, n: int, kind: str) -> None:
    ops = [op for op in workloads.make_ops(workload, seed) if op["kind"] == kind]
    sys.path.insert(0, src)
    import chabauty_lab.cli as cli

    passes = []
    with op_documents(workload, seed, ops):
        for _ in range(n):
            times = []
            for op in ops:
                start = time.process_time()
                run_quietly(cli, op["argv"])
                times.append((time.process_time() - start) * 1000)
            passes.append(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": passes, "peak_rss_mb": rss_mb}))


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or not argv[3].isdigit() or int(argv[3]) < 1:
        print("usage: op_times.py SRC WORKLOAD SEED N (N >= 1)", file=sys.stderr)
        return 2
    src, workload, seed, n = str(Path(argv[0]).resolve()), argv[1], int(argv[2]), int(argv[3])
    os.environ.pop("CHABAUTY_LAB_BUDGET", None)
    if len(argv) == 5:
        _child(src, workload, seed, n, argv[4])
        return 0
    kinds = [op["kind"] for op in workloads.make_ops(workload, seed)]
    for kind in dict.fromkeys(kinds):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), src, workload, str(seed), str(n), kind],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"child for {kind} failed (exit {done.returncode}):\n{done.stderr}")
        child = json.loads(done.stdout.splitlines()[-1])
        count, cpu_ms = least_total(child["passes"])
        print(kind, count, f"{cpu_ms:.1f}", f"{child['peak_rss_mb']:.1f}")
    return 0


if __name__ == "__main__":
    exit_with(main, sys.argv[1:])
