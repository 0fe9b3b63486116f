#!/usr/bin/env python3
"""Per-op report digests of benchmark workloads, for one source tree.

    python3 tools/report_digests.py SRC WORKLOAD SEED

SRC is the ``src`` directory of a checkout (``src`` for this one). WORKLOAD
is a workload name or ``all``; SEED is a seed or a comma-separated list of
seeds. The ops come from ``perfbench/workloads.make_ops`` of this checkout,
and their documents are written as the benchmark's set-up writes them, at
the same relative paths, inside a temporary directory. Every op then runs
through SRC's ``chabauty_lab.cli.main`` in one process, with ``--out
out/OP_ID`` appended (a relative path, so the provenance in the report does
not depend on the temporary directory), and one line per op is printed:
``op_id kind exit stdout_sha256 files_sha256``, where ``kind`` is the op's
kind in the workload (``schreier-z2``, ``fold-random``, ...), so that a
named report change can be read off a diff by kind. The first digest is
that of the op's stdout; the second is that of the files the op wrote
under its ``--out`` directory (report, summary, DOT and CSV artifacts), taken over
their (relative name, bytes) pairs in name order, and is the digest of no
pairs when the op wrote none. With more than one (workload, seed) block,
each block opens with a ``# workload seed`` line.

Two source trees give the same reports and exit codes on a workload iff
their outputs are equal::

    diff <(python3 tools/report_digests.py ../parent/src all 11,7) \\
         <(python3 tools/report_digests.py src all 11,7)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402


def run_quietly(cli, argv: list[str]) -> tuple[object, str]:
    """(exit code, stdout) of `cli.main(argv)`, its stderr discarded."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


def exit_with(main, argv: list[str]) -> None:
    """``sys.exit(main(argv))``, but a stdout closed early (as by ``| head
    -1``) ends the run quietly with exit 1 instead of a BrokenPipeError
    traceback."""
    try:
        code = main(argv)
        sys.stdout.flush()  # a close after the last print shows here
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


@contextlib.contextmanager
def op_documents(workload: str, seed: int, ops: list[dict]):
    """Work in a temporary directory that holds the documents of `ops`,
    written as the benchmark's set-up writes them, at the same relative
    paths."""
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path(workloads.op_dir(workload, seed)).mkdir(parents=True)
            for op in ops:
                if op["doc"] is not None:
                    Path(op["path"]).write_text(checks.doc_text(op["doc"]), encoding="utf-8")
            yield
        finally:
            os.chdir(ROOT)


def _digests(cli, workload: str, seed: int) -> None:
    ops = workloads.make_ops(workload, seed)
    with op_documents(workload, seed, ops):
        for op in ops:
            out_dir = Path("out", op["id"])
            code, text = run_quietly(cli, [*op["argv"], "--out", str(out_dir)])
            print(op["id"], op["kind"], code, hashlib.sha256(text.encode("utf-8")).hexdigest(),
                  _files_digest(out_dir))
            shutil.rmtree(out_dir, ignore_errors=True)


def _files_digest(directory: Path) -> str:
    """sha256 over the (relative name, bytes) pairs of the files under
    `directory`, in name order; each name and each content is preceded by
    its length, so no two lists of pairs hash alike."""
    digest = hashlib.sha256()
    files = sorted(p for p in directory.rglob("*") if p.is_file()) if directory.is_dir() else []
    for path in files:
        for part in (path.relative_to(directory).as_posix().encode("utf-8"), path.read_bytes()):
            digest.update(b"%d:" % len(part) + part)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: report_digests.py SRC WORKLOAD|all SEED[,SEED...]", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    names = sorted(workloads.WORKLOADS) if argv[1] == "all" else [argv[1]]
    blocks = [(name, int(seed)) for name in names for seed in argv[2].split(",")]
    os.environ.pop("CHABAUTY_LAB_BUDGET", None)
    sys.path.insert(0, str(src))
    import chabauty_lab.cli as cli

    for workload, seed in blocks:
        if len(blocks) > 1:
            print("#", workload, seed)
        _digests(cli, workload, seed)
    return 0


if __name__ == "__main__":
    exit_with(main, sys.argv[1:])
