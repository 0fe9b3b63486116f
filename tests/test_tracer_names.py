"""The benchmark's per-layer tracer (``perfbench/tracing.py``) wraps package
functions and methods it looks up by name. Renaming or deleting one of them
breaks ``perfbench/run.py --trace 1`` with an AttributeError; this test
breaks first."""

import importlib.util
from pathlib import Path

import pytest

import chabauty_lab
import chabauty_lab.cli  # noqa: F401  (imports every traced module)
from chabauty_lab import stallings

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    join = stallings.join
    try:
        recorder = tracing.install(chabauty_lab)
    except (AttributeError, KeyError) as exc:  # a lost function / a lost method
        pytest.fail(f"the tracer patches a name the package no longer has: {exc!r}")
    assert stallings.join is not join
    recorder.uninstall()
    assert stallings.join is join
    assert not hasattr(stallings.StallingsGraph.basis, "__wrapped__")
