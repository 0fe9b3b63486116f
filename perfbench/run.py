#!/usr/bin/env python3
"""The chabauty-lab benchmark: seeded CLI documents run in-process.

Run from the root of a checkout (stdlib only; the package is imported from
``src/``)::

    python3 perfbench/run.py --workload trace-distance --seed 1 --seconds 12 --trace 0

One run of one workload takes three kinds of process:

1. set-up, ``SETUP_REPEATS`` times: a fresh interpreter imports
   ``chabauty_lab.cli``, generates the seed's documents and writes them under
   ``.perfbench_work/<workload>/s<seed>/``; ``setup_s`` is the median of
   their CPU times;
2. the measured process, which alone imports the package and runs the op
   list through ``chabauty_lab.cli.main`` one op at a time (closed loop, one
   client, one thread). ``--trace 0`` times passes until ``--seconds`` have
   elapsed, at least ``MIN_PASSES``; ``--trace 1`` runs a pass, then one
   untraced pass and one with the wrappers of :mod:`tracing` installed. The
   first pass saves every report, after each op's clock has stopped. Its
   ``ru_maxrss`` is ``peak_rss_mb``;
3. this process, which checks every saved report from outside the program
   (:mod:`checks`) and prints the metrics.

Every report of a later pass must be byte-identical to the first. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the per-op record (exit code, stdout SHA-256, failed
checks, latencies) goes to ``run-trace<0|1>.json`` beside the documents.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
# Nominal CPU seconds of one reference chunk: the speed all times are scaled to.
REFERENCE_CHUNK_S = 0.004
# A walk over a table that stays in cache: a table large enough to miss in
# L3 made the chunk twice as slow as the ops under memory contention.
_REF_TABLE = {i: (i * 7919 + 13) % 10007 for i in range(10007)}


def _reference_chunk() -> float:
    """CPU seconds of a fixed pure-Python loop of the kind of work the
    program does: dict lookups, small tuples hashed into a set, integer
    arithmetic."""
    t0 = time.process_time()
    v = acc = 0
    seen = set()
    for i in range(20_000):
        v = _REF_TABLE[v]
        acc += v & 7
        if i % 4 == 0:
            seen.add((v, acc & 255))
    return time.process_time() - t0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _spawn(role: str, args) -> None:
    subprocess.run([sys.executable, str(Path(__file__)), "--role", role,
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
                   check=True, cwd=ROOT)


# ── set-up ───────────────────────────────────────────────────────────────────


def _import_package():
    """Import the program from the checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import chabauty_lab.cli  # noqa: F401

    return sys.modules["chabauty_lab"]


def _setup(workload: str, seed: int) -> None:
    """Set-up child: import the CLI, generate and write the documents."""
    _import_package()
    ops = workloads.make_ops(workload, seed)
    directory = Path(workloads.op_dir(workload, seed))
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op["doc"] is not None:
            Path(op["path"]).write_text(checks.doc_text(op["doc"]), encoding="utf-8")
    (directory / "ops.json").write_text(json.dumps(ops), encoding="utf-8")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _timed_setups(args) -> list[float]:
    """CPU seconds of each set-up child (interpreter start-up included),
    scaled by reference chunks run just before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref = sum(_reference_chunk() for _ in range(10))
        before = _children_cpu()
        _spawn("setup", args)
        cpu = _children_cpu() - before
        ref += sum(_reference_chunk() for _ in range(10))
        times.append(cpu * 20 * REFERENCE_CHUNK_S / ref)
    return times


# ── the measured process ─────────────────────────────────────────────────────


def _call(cli, argv):
    """One op: (exit code or exception text, CPU seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    text = out.getvalue()
    return code, time.process_time() - t0, text


def _measure(args) -> None:
    directory = Path(workloads.op_dir(args.workload, args.seed))
    ops = [(op["id"], op["argv"]) for op in
           json.loads((directory / "ops.json").read_text(encoding="utf-8"))]
    package = _import_package()
    cli = package.cli
    out_dir = directory / "out"
    out_dir.mkdir(exist_ok=True)
    records: list[dict] = []

    def one_pass(tracer=None):
        """Raw CPU seconds per op, and per op the speed factor from the
        reference chunks run just before and just after it: the host's speed
        changes within a second, so only adjacent chunks track it. The first
        pass saves every report (after its clock stops); later passes
        compare theirs with it."""
        raw, chunks = [], [_reference_chunk()]
        for i, (op_id, argv) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            code, dt, text = _call(cli, argv)
            chunks.append(_reference_chunk())
            raw.append(dt)
            if i == len(records):
                (out_dir / f"{op_id}.json").write_text(text, encoding="utf-8")
                records.append({"id": op_id, "exit": code, "sha256": _sha(text),
                                "bytes": len(text.encode("utf-8")), "differs": 0,
                                "latencies_s": []})
            elif code != records[i]["exit"] or _sha(text) != records[i]["sha256"]:
                records[i]["differs"] += 1
        return raw, [2 * REFERENCE_CHUNK_S / (a + b) for a, b in zip(chunks, chunks[1:])]

    result = {"budget": package.budgets.current().as_dict(), "speed_factors": [],
              "passes": 0, "wall_s": 0.0, "layer_metrics": None}
    if args.trace == 0:
        while result["passes"] < MIN_PASSES or result["wall_s"] < args.seconds:
            t0 = time.perf_counter()
            raw, factors = one_pass()
            result["wall_s"] += time.perf_counter() - t0
            result["passes"] += 1
            result["speed_factors"].append(statistics.mean(factors))
            for rec, dt, factor in zip(records, raw, factors):
                rec["latencies_s"].append(dt * factor)
    else:
        import tracing

        one_pass()
        untraced = sum(map(operator.mul, *one_pass()))
        recorder = tracing.install(package)
        try:
            traced = sum(map(operator.mul, *one_pass(recorder)))
        finally:
            recorder.uninstall()
        result["passes"] = 1
        recorder.write(str(directory / "spans.json"))
        result["layer_metrics"] = tracing.layer_metrics(
            recorder, sum(r["bytes"] for r in records), traced / untraced)
        result["self_over_total"] = [name for name, s in recorder.span_stats().items()
                                     if s["self_s"] > s["total_s"] + 1e-9]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = records
    (directory / f"measure-trace{args.trace}.json").write_text(json.dumps(result),
                                                                encoding="utf-8")


# ── the checking process ─────────────────────────────────────────────────────


def _percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(samples, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "chabauty_lab" / "cli.py").is_file():
        print(f"error: no chabauty_lab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # reports must not depend on the caller's environment
    os.environ.pop("CHABAUTY_LAB_BUDGET", None)
    if args.role == "setup":
        _setup(args.workload, args.seed)
        return 0
    if args.role == "measure":
        _measure(args)
        return 0

    setup_times = _timed_setups(args)
    _spawn("measure", args)
    directory = Path(workloads.op_dir(args.workload, args.seed))
    ops = json.loads((directory / "ops.json").read_text(encoding="utf-8"))
    measured = json.loads((directory / f"measure-trace{args.trace}.json")
                          .read_text(encoding="utf-8"))
    records = measured["records"]
    for op, rec in zip(ops, records):
        rec.update(kind=op["kind"], argv=op["argv"])
        code = rec["exit"]
        text = (directory / "out" / f"{op['id']}.json").read_text(encoding="utf-8")
        rec["failed_checks"] = ([code] if isinstance(code, str) else
                                checks.check(op, code, text, measured["budget"]))
        if rec["differs"]:
            rec["failed_checks"].append(f"report differed in {rec['differs']} later passes")
    if args.trace == 1 and measured["self_over_total"]:
        records[0]["failed_checks"].append(
            f"self_s exceeds total_s for {measured['self_over_total']}")

    passes = measured["passes"]
    failed_ops = [r for r in records if r["failed_checks"]]
    attempted = len(ops) * passes
    failed = len(failed_ops) * passes
    if args.trace == 0:
        # The batch time is the sum of per-op medians over the passes, so a
        # burst of host noise in one pass does not move it.
        batch_s = sum(statistics.median(r["latencies_s"]) for r in records)
        flat = [t for r in records for t in r["latencies_s"]]
        metrics = {
            "throughput_ops_s": {"value": len(ops) / batch_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(flat) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": _percentile(flat, 90) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    else:
        metrics = measured["layer_metrics"]
    run_record = dict(measured, workload=args.workload, seed=args.seed, trace=args.trace,
                      ops=len(ops), samples=attempted if args.trace == 0 else 0,
                      setup_s=setup_times, metrics=metrics)
    (directory / f"run-trace{args.trace}.json").write_text(json.dumps(run_record, indent=1),
                                                           encoding="utf-8")
    for op, r in zip(ops, records):
        if r["failed_checks"]:
            print(f"FAILED op {r['id']} {op['kind']} {' '.join(op['argv'])}: "
                  + "; ".join(map(str, r["failed_checks"])), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {passes} passes, "
          f"{run_record['samples']} timed samples, {len(failed_ops)} failing ops")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed_ops, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
