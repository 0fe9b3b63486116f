#!/usr/bin/env python3
"""Time each README command-line example and each acceptance criterion on
its own, and write the figures to ``BENCH_examples.json``.

    python3 tools/bench_examples.py [--runs N] [--example COMMAND ...]
                                    [--criteria LIST] [--out PATH]

The examples are read from the ``sh`` block of the README's "Command line"
section: its ``cat > FILE <<'EOF'`` documents are written into a temporary
directory, which is the working directory of every run, and each
``chabauty-lab ARGS`` line runs N times (default 5) as ``python -m
chabauty_lab.cli ARGS`` in a fresh process, with this checkout's ``src``
first on ``PYTHONPATH`` and ``CHABAUTY_LAB_BUDGET`` unset. Each example gets
the median and the p90 (nearest rank) of its wall time and of its child
CPU time (user + system, from ``resource.getrusage(RUSAGE_CHILDREN)``), and
the exit code of its runs. ``--example COMMAND`` (repeatable) keeps only the
examples whose ARGS are COMMAND, as written in the README.

The full ``suite`` example, the whole battery, is not run as a process: each
acceptance criterion runs alone instead, once, in this process, through
``acceptance.run_all([n])``, and gets its wall time, its CPU time and
whether it passed. ``--criteria`` takes a comma-separated list of criteria
(default: all of them; an empty string runs none).

The JSON document also records the commit of the checkout, whether ``src``
differs from it, the Python version and whether ``PYTHONDONTWRITEBYTECODE``
was set (a bytecode cache shortens every fresh process's import).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROG = "chabauty-lab"


def readme_examples(readme: str) -> tuple[dict[str, str], list[str]]:
    """(documents by file name, example commands without the program name)
    of the first ``sh`` block after the README's "## Command line"."""
    section = readme[readme.index("## Command line"):]
    block = section[section.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    documents = {
        name: body
        for name, body in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.M | re.S)
    }
    commands = [line[len(PROG) + 1:] for line in block.splitlines() if line.startswith(PROG + " ")]
    return documents, commands


def is_full_suite(command: str) -> bool:
    """Whether the example runs the whole battery: ``suite`` without
    ``--only``. Its criteria are timed one by one instead."""
    argv = shlex.split(command)
    return argv[0] == "suite" and "--only" not in argv


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile of `values` by nearest rank: the ⌈q·n⌉-th smallest."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def spread(values: list[float]) -> dict[str, float]:
    return {"median": round(statistics.median(values), 4),
            "p90": round(nearest_rank(values, 0.9), 4)}


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_example(command: str, runs: int, cwd: str, env: dict) -> dict:
    """Run one example `runs` times in fresh processes."""
    argv = [sys.executable, "-m", "chabauty_lab.cli", *shlex.split(command)]
    walls, cpus, codes = [], [], set()
    for _ in range(runs):
        cpu0, wall0 = _child_cpu(), time.perf_counter()
        done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - wall0)
        cpus.append(_child_cpu() - cpu0)
        codes.add(done.returncode)
    return {"command": f"{PROG} {command}", "exit": sorted(codes),
            "wall_s": spread(walls), "child_cpu_s": spread(cpus)}


def time_criterion(acceptance, number: int) -> dict:
    """Run one acceptance criterion alone, in this process."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    (result,) = acceptance.run_all([number])
    return {"criterion": number, "passed": result.passed,
            "wall_s": round(time.perf_counter() - wall0, 4),
            "cpu_s": round(time.process_time() - cpu0, 4)}


def _numbers(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--example", action="append", metavar="COMMAND")
    parser.add_argument("--criteria", type=_numbers, default=None, metavar="LIST")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_examples.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    documents, commands = readme_examples((ROOT / "README.md").read_text(encoding="utf-8"))
    commands = [c for c in commands if not is_full_suite(c)]
    if args.example:
        unknown = sorted(set(args.example) - set(commands))
        if unknown:
            parser.error(f"not a README example: {unknown}")
        commands = [c for c in commands if c in args.example]
    sys.path.insert(0, str(SRC))
    from chabauty_lab import acceptance

    criteria = sorted(acceptance._CRITERIA) if args.criteria is None else args.criteria
    env = dict(os.environ)
    env.pop("CHABAUTY_LAB_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    examples = []
    with tempfile.TemporaryDirectory() as work:
        for name, body in documents.items():
            Path(work, name).write_text(body, encoding="utf-8")
        for command in commands:
            examples.append(time_example(command, args.runs, work, env))
            print(json.dumps(examples[-1]), file=sys.stderr, flush=True)
    rows = []
    for number in criteria:
        rows.append(time_criterion(acceptance, number))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    commit = _git("rev-parse", "HEAD")
    report = {
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "src_modified": _git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "python": platform.python_version(),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "runs": args.runs,
        "examples": examples,
        "criteria": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
