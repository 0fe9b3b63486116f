"""The tools that claims about a change rest on: per-op report digests of a
source tree (``tools/report_digests.py``), alternating benchmark pairs of
two checkouts (``tools/alternate_pairs.py``), per-kind CPU times
(``tools/op_times.py``), the timings of the README examples and the
acceptance criteria (``tools/bench_examples.py``) and the import CPU of two
source trees (``tools/import_cpu.py``)."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_report_digests_print_one_line_per_op_and_repeat(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    runs = [_tool("tools/report_digests.py", "src", "coset-lattice", "11") for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split(" ") for line in runs[0].stdout.splitlines()]
    ops = workloads.make_ops("coset-lattice", 11)
    assert [line[0] for line in lines] == [op["id"] for op in ops]
    no_files = hashlib.sha256().hexdigest()
    assert [line[1] for line in lines] == [op["kind"] for op in ops]
    for _, _, code, stdout_digest, files_digest in lines:
        assert code in {"0", "2", "3", "4"}
        assert re.fullmatch("[0-9a-f]{64}", stdout_digest)
        assert re.fullmatch("[0-9a-f]{64}", files_digest)
        # a report on stdout is also written under --out, with its artifacts
        assert (files_digest == no_files) == (code in {"2", "3"})


@pytest.mark.parametrize("tool, passes", [("report_digests.py", ()), ("op_times.py", ("1",))])
def test_tools_exit_quietly_when_stdout_closes_early(tool, passes):
    """A reader that stops early, as ``| head -1`` does, ends the tool with
    exit 1 and nothing on stderr, not a BrokenPipeError traceback."""
    proc = subprocess.Popen(
        [sys.executable, f"tools/{tool}", "src", "coset-lattice", "11", *passes],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=300), err) == (1, "")


def test_alternate_pairs_refuses_zero_pairs_before_running():
    done = _tool("tools/alternate_pairs.py", ".", ".", "coset-lattice", "11", "0")
    assert done.returncode == 2
    assert "N must be at least 1" in done.stderr
    assert done.stdout == "" and "pair 1" not in done.stderr


def test_import_cpu_times_one_process_per_tree_and_refuses_zero():
    """N = 1 prints the bytecode setting and one line per tree; N = 0 is
    refused before any process runs."""
    done = _tool("tools/import_cpu.py", "src", "src", "1")
    assert done.returncode == 0, done.stderr
    setting, parent, change = done.stdout.splitlines()
    assert setting.startswith("PYTHONDONTWRITEBYTECODE=")
    for side, line in (("parent", parent), ("change", change)):
        m = re.fullmatch(side + r"  median (\S+) ms  IQR (\S+)–(\S+) ms  \(n = 1\)", line)
        assert m and 0 < float(m[1]) == float(m[2]) == float(m[3])
    done = _tool("tools/import_cpu.py", "src", "src", "0")
    assert done.returncode == 2 and "N must be at least 1" in done.stderr
    assert done.stdout == ""


def test_alternate_pairs_warns_about_unequal_checkout_paths(tmp_path):
    """peak_rss_mb moves with the length of the checkout's path, so pairs
    from paths of unequal length are flagged, before N is checked."""
    longer = tmp_path / ("x" * len(str(ROOT)))
    longer.mkdir()
    done = _tool("tools/alternate_pairs.py", ".", str(longer), "coset-lattice", "11", "0")
    assert done.returncode == 2
    warnings = [line for line in done.stderr.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "differ in length" in warnings[0]
    same = _tool("tools/alternate_pairs.py", ".", ".", "coset-lattice", "11", "0")
    assert "warning:" not in same.stderr


def _tool_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _alternate_pairs():
    return _tool_module("alternate_pairs")


def test_median_change_marks_only_regressions_past_the_bound():
    """The percentage is signed by value, and `past bound` needs a change
    worse in the metric's direction by more than bound × the parent's
    median; exactly the bound is not past it."""
    median_change = _alternate_pairs().median_change
    assert median_change(400.0, 500.0, "higher", 0.25) == (25.0, False)
    assert median_change(400.0, 300.0, "higher", 0.25) == (-25.0, False)
    assert median_change(400.0, 299.0, "higher", 0.25) == (-25.25, True)
    assert median_change(2.0, 2.5, "lower", 0.25) == (25.0, False)
    assert median_change(2.0, 2.6, "lower", 0.25)[1]
    assert median_change(2.0, 1.0, "lower", 0.25) == (-50.0, False)
    assert median_change(30.0, 33.1, "lower", 0.1)[1]
    assert not median_change(30.0, 32.9, "lower", 0.1)[1]
    # a parent median of 0 has no percentage; any worsening is past the bound
    assert median_change(0.0, 0.0, "lower", 0.25) == (None, False)
    assert median_change(0.0, 0.5, "lower", 0.25) == (None, True)
    assert median_change(0.0, 0.5, "higher", 0.25) == (None, False)


def test_all_stands_for_every_benchmark_workload_in_order():
    """``all`` expands to the workloads of BENCHMARK.json, in its order, one
    block each; any other name is run alone (the benchmark refuses names
    it does not know)."""
    workloads_named = _alternate_pairs().workloads_named
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    assert workloads_named("all", bench) == names
    assert len(names) == 4 and len(set(names)) == 4
    assert workloads_named("fold-build", bench) == ["fold-build"]
    toy = {"workloads": [{"name": "b"}, {"name": "a"}]}
    assert workloads_named("all", toy) == ["b", "a"]
    assert workloads_named("c", toy) == ["c"]


def test_least_total_sums_each_ops_least_time(monkeypatch):
    """Each op counts with its least time over the passes, whichever pass
    that was, and the count is the number of ops, not of passes."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tools extend it
    least_total = _tool_module("op_times").least_total
    assert least_total([[3.0, 1.0, 2.0], [1.0, 5.0, 4.0]]) == (3, 1.0 + 1.0 + 2.0)
    assert least_total([[2.5, 7.0]]) == (2, 9.5)
    assert least_total([[4.0], [2.0], [3.0]]) == (1, 2.0)


def test_bench_examples_writes_one_row_per_example_and_criterion(tmp_path):
    """One README example at N = 1 and one criterion, into a JSON document
    of the documented shape."""
    out = tmp_path / "BENCH_examples.json"
    done = _tool("tools/bench_examples.py", "--runs", "1", "--criteria", "2",
                 "--example", "chabauty pair.json --radius 8", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"commit", "src_modified", "python", "pythondontwritebytecode",
                           "runs", "examples", "criteria"}
    assert report["runs"] == 1 and isinstance(report["pythondontwritebytecode"], bool)
    (example,) = report["examples"]
    assert example["command"] == "chabauty-lab chabauty pair.json --radius 8"
    assert example["exit"] == [0]
    for key in ("wall_s", "child_cpu_s"):
        assert set(example[key]) == {"median", "p90"}
        assert 0 < example[key]["median"] <= example[key]["p90"]
    (criterion,) = report["criteria"]
    assert criterion["criterion"] == 2 and criterion["passed"] is True
    assert criterion["wall_s"] > 0 and criterion["cpu_s"] > 0


def test_bench_examples_reads_the_readme_and_times_the_battery_by_criterion():
    tool = _tool_module("bench_examples")
    documents, commands = tool.readme_examples((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {"even.json", "pair.json", "ker.json", "a.json"} <= set(documents)
    assert json.loads(documents["a.json"])["generators"] == ["a"]
    assert "witness a.json --radius 8 --out results/" in commands
    assert [c for c in commands if tool.is_full_suite(c)] == ["suite --out results/"]
    assert tool.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0
    assert tool.nearest_rank([float(i) for i in range(1, 11)], 0.9) == 9.0
    assert tool.nearest_rank([5.0], 0.9) == 5.0
