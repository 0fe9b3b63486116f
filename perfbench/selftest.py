#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of chabauty-lab).

Run from the root of a checkout::

    python3 perfbench/selftest.py          # about four minutes

* one seed always yields the same op list, in any interpreter;
* a second seed yields a different list, and a full run of it has no
  failing op (``ok_ratio`` 1, i.e. a fail ratio of 0);
* every op kind of each workload appears in its list;
* the verdict checks reject a report that has been tampered with;
* in a traced run no span's ``self_s`` exceeds its ``total_s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

KINDS = {
    "trace-distance": {"pair-equal", "pair-near", "sequence", "witness-free"},
    "fold-build": {"fold-random", "fold-closure"},
    "conjugator-search": {"transit-random", "transit-obstruction"},
    "coset-lattice": {"zd-enumerate", "zd-doc", "witness-lattice", "pair-lattice",
                      "schreier-z", "schreier-z2", "schreier-cyclic", "schreier-sym",
                      "schreier-free", "folner"},
}


def _run(workload, seed, trace=0, seconds=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OpLists(unittest.TestCase):
    def test_same_seed_same_list_across_interpreters(self):
        code = ("import json, sys; sys.path.insert(0, 'perfbench'); import workloads; "
                "print(json.dumps({w: workloads.make_ops(w, 7) for w in workloads.WORKLOADS}))")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, cwd=ROOT, env=env, check=True).stdout)
        self.assertEqual(outs[0], outs[1])

    def test_second_seed_differs_and_kinds_present(self):
        for workload, kinds in KINDS.items():
            first, second = workloads.make_ops(workload, 1), workloads.make_ops(workload, 2)
            self.assertNotEqual([op["doc"] for op in first], [op["doc"] for op in second])
            self.assertGreaterEqual(len(first), 100, workload)
            self.assertEqual({op["kind"] for op in first}, kinds, workload)
            self.assertEqual(sorted(op["kind"] for op in first),
                             sorted(op["kind"] for op in second), workload)


class Verdicts(unittest.TestCase):
    def test_tampered_reports_are_rejected(self):
        sys.path.insert(0, str(run.SRC))
        from chabauty_lab import budgets, cli

        budget = budgets.current().as_dict()
        os.chdir(ROOT)
        for workload in KINDS:
            ops = workloads.make_ops(workload, 3)
            seen = set()
            for op in ops:
                if op["kind"] in seen:
                    continue
                seen.add(op["kind"])
                if op["doc"] is not None:
                    Path(op["path"]).parent.mkdir(parents=True, exist_ok=True)
                    Path(op["path"]).write_text(checks.doc_text(op["doc"]), encoding="utf-8")
                code, _, text = run._call(cli, op["argv"])
                self.assertEqual(checks.check(op, code, text, budget), [], op["kind"])
                report = json.loads(text)
                leaf = _first_scalar(report["result"])
                _tamper(report["result"], leaf)
                bad = json.dumps(report)
                self.assertNotEqual(checks.check(op, code, bad, budget), [],
                                    f"{op['kind']}: tampered {leaf} accepted")


def _first_scalar(obj, path=()):
    """Path of the first integer or boolean leaf (depth first, sorted keys)."""
    items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            found = _first_scalar(value, path + (key,))
            if found is not None:
                return found
        elif isinstance(value, (bool, int)):
            return path + (key,)
    return None


def _tamper(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    value = obj[path[-1]]
    obj[path[-1]] = (not value) if isinstance(value, bool) else value + 1


class Runs(unittest.TestCase):
    def test_second_seed_runs_clean(self):
        for workload in KINDS:
            result = _run(workload, 2)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0, workload)

    def test_self_time_within_total(self):
        result = _run("conjugator-search", 2, trace=1)
        self.assertTrue(result["correct"])
        spans = json.loads((ROOT / workloads.op_dir("conjugator-search", 2) / "spans.json")
                           .read_text(encoding="utf-8"))["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(spans, child):
            self.assertLessEqual(covered, end - start + 1e-9, name)
        metrics = result["metrics"]
        for key, value in metrics.items():
            if key.endswith(".self_s"):
                total = metrics.get(key[: -len("self_s")] + "total_s")
                if total is not None:
                    self.assertLessEqual(value["value"], total["value"] + 1e-9, key)


if __name__ == "__main__":
    unittest.main()
