"""Command-line interface.

Subcommands:

* ``stallings`` — core-graph computations for a finitely generated subgroup
  (normal form, membership, intersection, conjugation, completion);
* ``chabauty`` — distances between two subgroups, or a convergence
  certificate for a sequence against its limit;
* ``zd`` — lattice subgroups: normal form and invariants, or how many
  subgroups there are of each bounded index (``--enumerate``);
* ``schreier`` — coset geometry: the Schreier ball, ends estimates, the
  line probe, and fiber diameters over an intermediate subgroup;
* ``witness`` — convergence witness sequences: nonisolation terms for a
  free-group subgroup, coordinate-direction terms for a lattice subgroup;
* ``transit`` — topological-transitivity moves on clopen pairs, including
  the paired demo and the deliberately obstructed task;
* ``folner`` — exact Folner-ratio checks inside a homomorphism kernel;
* ``suite`` — the standing acceptance battery.

Every run prints exactly one JSON document to stdout — byte-identical
across reruns of the same input (sorted keys, no timestamps) — and a short
human summary to stderr.  ``--out DIR`` additionally writes ``report.json``,
``summary.md``, and the command's tabular/graph artifacts into DIR; each
command hands its artifacts over as renderers, called only then.

Exit codes: 0 success; 2 malformed input, context mismatch, invalid task,
or an --out path that cannot be written; 3 budget exceeded; 4 verified
negative outcome (a search that provably exhausted its budget, a Folner set
failing its tolerance, a non-converging sequence, a failing acceptance
criterion).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Any, Iterable

from . import __version__, specio
from .budgets import Budget, current, decode_json
from .chabauty import certify_bounds, distance_up_to
from .dynamics import (
    folner_transfer_check,
    interval_folner_demo,
    multi_transitivity_move,
    obstruction_task,
)
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
    SearchFailure,
)
from .schreier import build as schreier_build
from .schreier import ends_profile, fiber_diameters, qi_to_line_probe
from .stallings import conjugate_subgroup, hall_completion, intersect
from .words import format_word
from .zdlattice import HnfSubgroup, cb_erasing_rank, count_by_index, witness_sequence
from .dynamics import nonisolation_witness


# ── plumbing ─────────────────────────────────────────────────────────────────


def _load_spec(path: str) -> tuple[Any, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInputError(f"cannot read spec file {path}: {exc}") from exc
    return decode_json(data, path)


def _budget_from_args(args: argparse.Namespace) -> Budget:
    overrides = {}
    if getattr(args, "budget_vertices", None) is not None:
        overrides["vertex_cap"] = args.budget_vertices
        overrides["schreier_vertex_cap"] = args.budget_vertices
    if getattr(args, "budget_length", None) is not None:
        overrides["conjugator_len_cap"] = args.budget_length
    return current(overrides)


def _check_out(out_dir: str) -> None:
    """Refuse, creating nothing, an --out path whose nearest existing
    ancestor (or itself) is not a writable directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise MalformedInputError(f"--out {out_dir}: {path} is not a writable directory")


def _write_out(out_dir: str, report_text: str, summary: list[str], artifacts: dict):
    """Write the report, the summary and each artifact; `artifacts` maps a
    file name to a zero-argument renderer, called only here."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_text)
    with open(os.path.join(out_dir, "summary.md"), "w", encoding="utf-8") as fh:
        fh.write(specio.summary_text("chabauty-lab report", summary))
    for name, render in artifacts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(render())


# ── subcommands ──────────────────────────────────────────────────────────────


def cmd_stallings(args, budget: Budget):
    doc, raw = _load_spec(args.spec)
    H = specio.generated_subgroup_from_json(
        doc, "the stallings document", budget, free=True
    ).finalize()
    ctx = H.ctx
    result: dict[str, Any] = {"subgroup": specio.json_of_graph(H)}
    summary = [
        f"core graph: {H.nverts} vertices, {H.nedges} edges, rank {H.rank()}, "
        f"index {H.index() if H.index() is not None else 'infinite'}"
    ]
    if "queries" in doc:
        words = specio.words_from_json(doc["queries"], ctx, "queries")
        keys = [specio.json_of_word(w, ctx) for w in words]
        result["membership"] = {k: H.contains(w) for k, w in zip(keys, words)}
        inside = sum(result["membership"][k] for k in keys)  # each query counts
        summary.append(f"membership: {inside}/{len(words)} queried words inside")
    if "intersect_with" in doc:
        K = specio.generated_subgroup_from_json(
            doc["intersect_with"], "intersect_with", budget, free=True
        )
        M = intersect(H, K, budget)
        result["intersection"] = specio.json_of_graph(M)
        summary.append(f"intersection rank {M.rank()}")
    if "conjugate_by" in doc:
        g = specio.word_from_json(doc["conjugate_by"], ctx)
        C = conjugate_subgroup(H, g, budget)
        result["conjugate"] = specio.json_of_graph(C)
        summary.append(f"conjugate by {format_word(g)}: rank {C.rank()}")
    if "completion_radius" in doc:
        n = doc["completion_radius"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedInputError("completion_radius must be a positive integer")
        K = hall_completion(H, n, budget)
        result["completion"] = specio.json_of_graph(K)
        result["completion"]["agreement_radius"] = n
        summary.append(f"completion at radius {n}: index {K.index()}")
    artifacts = {"core.dot": lambda: specio.dot_of_graph(H)}
    return result, summary, artifacts, False, raw


def cmd_chabauty(args, budget: Budget):
    doc, raw = _load_spec(args.spec)
    radius = args.radius
    if not isinstance(doc, dict):
        raise MalformedInputError("chabauty expects a JSON object")
    if "pair" in doc:
        pair = doc["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedInputError("pair must hold exactly two subgroup documents")
        _check_printable_radius(radius)
        H = specio.folded_subgroup_from_json(pair[0], budget)
        K = specio.folded_subgroup_from_json(pair[1], budget)
        bound = distance_up_to(H, K, radius, budget)
        ctx = H.ctx
        result = {
            "radius": radius,
            "distance": specio.json_of_distance(bound, ctx),
        }
        summary = [
            f"distance at radius {radius}: {bound.kind} 2^-{bound.exponent}"
            + (
                f" (witness {specio.json_of_word(bound.witness, ctx)})"
                if bound.witness is not None
                else ""
            )
        ]
        return result, summary, {}, False, raw
    if "sequence" not in doc or "limit" not in doc:
        raise MalformedInputError("chabauty expects either 'pair' or 'sequence'+'limit'")
    if not isinstance(doc["sequence"], list):
        raise MalformedInputError("sequence must be a list of subgroup documents")
    terms = [specio.subgroup_from_json(d, budget) for d in doc["sequence"]]
    limit = specio.subgroup_from_json(doc["limit"], budget)
    if not terms:
        raise MalformedInputError("sequence must be nonempty")
    cert, rows = _convergence(terms, limit, radius, budget)
    result = {
        "radius": radius,
        "certification": specio.json_of_certification(cert, limit.ctx),
        "terms": rows_to_json(rows),
    }
    summary = [
        f"certification at radius {radius}: {cert.kind}"
        + (f" from n0 = {cert.n0}" if cert.n0 is not None else "")
    ]
    return result, summary, _convergence_artifacts(rows), not cert.certified(), raw


def _check_printable_radius(radius: int) -> None:
    """Refuse a radius whose distance could not be printed: the value
    2^-(radius + 1) is written as a fraction, and its denominator may have
    at most `sys.get_int_max_str_digits()` decimal digits (0: no limit).
    10^D is no power of two, so 2^n has more than D digits iff n is at
    least the bit length of 10^D. That power takes tens of µs, so it is
    taken only past n = 3D: 2^(3D) = 8^D has at most D digits."""
    digits = sys.get_int_max_str_digits()
    n = radius + 1
    if digits and n > 3 * digits and n >= (10**digits).bit_length():
        raise MalformedInputError(
            f"radius {radius} is too large: the distance 2^-{n} "
            f"would print more than {digits} digits"
        )


def _convergence(terms, limit, radius: int, budget: Budget):
    """Certification and per-term rows (n, distance exponent, nontrivial),
    both from one distance per term."""
    bounds = [distance_up_to(term, limit, radius, budget) for term in terms]
    rows = [
        (n, bound.exponent, term != limit)
        for n, (term, bound) in enumerate(zip(terms, bounds), start=1)
    ]
    return certify_bounds(bounds, radius), rows


def _convergence_artifacts(rows) -> dict:
    return {
        "convergence.csv": lambda: specio.csv_text(
            ["n", "distance_exponent", "nontrivial"], rows
        )
    }


def rows_to_json(rows):
    return [
        {"n": n, "distance_exponent": e, "nontrivial": bool(flag)}
        for n, e, flag in rows
    ]


def cmd_zd(args, budget: Budget):
    if args.enumerate:
        dim, max_index = args.enumerate
        counts = count_by_index(dim, max_index, budget)

        def counts_csv() -> str:
            rows = list(counts.items())
            header = ["index", "count"]
            if dim == 2:
                header.append("divisor_sum")
                sigma = [0] * (max_index + 1)
                for a in range(1, max_index + 1):
                    for n in range(a, max_index + 1, a):
                        sigma[n] += a
                rows = [(n, c, sigma[n]) for n, c in rows]
            return specio.csv_text(header, rows)

        result = {
            "dimension": dim,
            "max_index": max_index,
            "counts": {str(n): c for n, c in counts.items()},
            "total": sum(counts.values()),
        }
        summary = [
            f"Z^{dim} subgroups of index <= {max_index}: {sum(counts.values())} total"
        ]
        artifacts = {"counts.csv": counts_csv}
        return result, summary, artifacts, False, None
    if not args.spec:
        raise MalformedInputError("zd needs a spec file or --enumerate DIM MAXINDEX")
    doc, raw = _load_spec(args.spec)
    H = specio.generated_subgroup_from_json(doc, "the zd document", budget)
    if not isinstance(H, HnfSubgroup):
        raise MalformedInputError("zd expects a lattice subgroup document")
    _check_printable_lattice([H.index() or 0, *(x for row in H.rows for x in row)])
    result = {
        "rows": [list(r) for r in H.rows],
        "rank": H.rank,
        "index": H.index(),
        "erasing_rank": cb_erasing_rank(H),
    }
    summary = [
        f"Z^{H.dim} subgroup: rank {H.rank}, "
        f"index {H.index() if H.index() is not None else 'infinite'}, "
        f"erasing rank {cb_erasing_rank(H)}"
    ]
    if "queries" in doc:
        words = specio.words_from_json(doc["queries"], H.ctx, "queries")
        result["membership"] = {str(list(v)): H.contains(v) for v in words}
    return result, summary, {}, False, raw


def _check_printable_lattice(numbers: Iterable[int]) -> None:
    """Refuse a lattice report whose HNF rows or index, given as `numbers`,
    could not be printed: each may have at most
    `sys.get_int_max_str_digits()` digits (0: no limit)."""
    digits = sys.get_int_max_str_digits()
    if any(specio.exceeds_digits(x, digits) for x in numbers):
        raise MalformedInputError(
            f"the lattice is too large to print: its HNF rows or index "
            f"hold an integer of more than {digits} digits"
        )


def cmd_schreier(args, budget: Budget):
    doc, raw = _load_spec(args.spec)
    sub_doc = doc["subgroup"] if isinstance(doc, dict) and "subgroup" in doc else doc
    H = specio.subgroup_from_json(sub_doc, budget)
    radius = args.radius
    S = schreier_build(H, radius, budget)
    profile = ends_profile(S)
    # a complete ball's profile stops at its depth, past which no end lies
    ends = [(r, profile[r] if r < len(profile) else 0) for r in range(1, min(6, radius - 1) + 1)]
    result: dict[str, Any] = {
        "radius": radius,
        "graph": specio.json_of_schreier(S),
        "ends": [list(e) for e in ends],
    }
    summary = [
        f"Schreier ball radius {radius}: {S.nverts} vertices, "
        f"complete {S.is_complete()}, ends window {[e for _, e in ends]}"
    ]
    if radius >= 8:
        probe = qi_to_line_probe(S, profile)
        result["line_probe"] = dataclasses.asdict(probe)
        summary.append(f"line probe: {probe.verdict} ({probe.reason})")
    if isinstance(doc, dict) and "over" in doc:
        K = specio.subgroup_from_json(doc["over"], budget)
        reports = fiber_diameters(S, K)
        result["fibers"] = specio.json_of_fibers(reports, H.ctx)
        summary.append(
            "fiber diameters: "
            + ", ".join(str(r.diameter) + ("+" if r.lower_bound else "") for r in reports)
        )
    artifacts = {
        "schreier.dot": lambda: specio.dot_of_schreier(S),
        "spheres.csv": lambda: specio.csv_text(
            ["r", "sphere_size"], list(enumerate(S.sphere_sizes()))
        ),
    }
    return result, summary, artifacts, False, raw


def cmd_witness(args, budget: Budget):
    doc, raw = _load_spec(args.spec)
    H = specio.generated_subgroup_from_json(doc, "the witness document", budget)
    radius = args.radius
    if H.ctx.kind == "free":
        H = H.finalize()  # printed, and compared with every term
        witness = nonisolation_witness(H, radius, budget)
        terms = [t.term for t in witness.terms]
        result: dict[str, Any] = {"witness": specio.json_of_nonisolation(witness)}
    else:
        seq = witness_sequence(H, radius, budget)
        terms = list(seq.terms)
        # the report prints the rows of H and of every term, not their index
        _check_printable_lattice(x for L in (H, *terms) for row in L.rows for x in row)
        result = {"witness": specio.json_of_witness_sequence(seq)}
    cert, rows = _convergence(terms, H, radius, budget)
    result["radius"] = radius
    result["certification"] = specio.json_of_certification(cert, H.ctx)
    result["terms"] = rows_to_json(rows)
    summary = [
        f"{len(terms)} terms, certification {cert.kind}"
        + (f" from n0 = {cert.n0}" if cert.n0 is not None else ""),
        f"nontrivial terms: {sum(1 for _, _, f in rows if f)}/{len(rows)}",
    ]
    return result, summary, _convergence_artifacts(rows), not cert.certified(), raw


# Two pairs in F₂: move 𝒱({a}, {b}) into 𝒱({ab}, {ba}) and 𝒱({b}, {a}) into
# 𝒱({ba}, {ab}) with one conjugator.
_PAIRED_DEMO = {
    "context": {"kind": "free", "rank": 2},
    "pairs": [
        {"source": {"ins": [x], "outs": [y]}, "target": {"ins": [x + y], "outs": [y + x]},
         "source_witness": [x], "target_witness": [x + y]}
        for x, y in (("a", "b"), ("b", "a"))
    ],
}


def cmd_transit(args, budget: Budget):
    if args.demo:
        raw = None
        if args.demo == "paired":
            task = specio.task_from_json(_PAIRED_DEMO, budget)
        else:
            # The obstruction exhibit defeats its own embedded budget by
            # construction; outside budget flags must not enlarge the search.
            task = obstruction_task()
    else:
        if not args.spec:
            raise MalformedInputError("transit needs a spec file or --demo")
        doc, raw = _load_spec(args.spec)
        task = specio.task_from_json(doc, budget)
    result: dict[str, Any] = {"task": specio.json_of_task(task)}
    try:
        cert = multi_transitivity_move(task)
    except SearchFailure as exc:
        progress = dict(exc.progress)
        if isinstance(progress.get("best_candidate"), tuple):
            progress["best_candidate"] = format_word(progress["best_candidate"])
        result["failure"] = {"message": str(exc), "progress": progress}
        summary = [
            f"verified failure after {progress.get('candidates_tried')} candidates: {exc}"
        ]
        return result, summary, {}, True, raw
    result["certificate"] = specio.json_of_move(cert, task.ctx)
    summary = [
        f"move found: conjugator {format_word(cert.conjugator) or '1'} "
        f"after {cert.candidates_tried} candidates, re-verified {cert.reverified}"
    ]
    return result, summary, {}, False, raw


def cmd_folner(args, budget: Budget):
    if args.demo:
        raw = None
        H0, sets, elements, tolerances = interval_folner_demo([2, 3, 4, 5])
        ctx = H0.ctx
    else:
        if not args.spec:
            raise MalformedInputError("folner needs a spec file or --demo")
        doc, raw = _load_spec(args.spec)
        if not isinstance(doc, dict):
            raise MalformedInputError("folner expects a JSON object")
        H0 = specio.subgroup_from_json(doc.get("subgroup", doc), budget)
        ctx = H0.ctx
        if ctx.kind != "free":
            raise MalformedInputError("folner takes a free-group subgroup document")
        if "sets" not in doc or "elements" not in doc:
            raise MalformedInputError("folner spec needs 'sets' and 'elements'")
        if not isinstance(doc["sets"], list):
            raise MalformedInputError("folner 'sets' must be a list of word lists")
        sets = [
            specio.words_from_json(s, ctx, f"set {i + 1}")
            for i, s in enumerate(doc["sets"])
        ]
        elements = specio.words_from_json(doc["elements"], ctx, "elements")
        tolerances = None
        if "tolerances" in doc:
            tolerances = specio.fractions_from_json(
                doc["tolerances"], "tolerances", sys.get_int_max_str_digits()
            )
    report = folner_transfer_check(H0, sets, elements, tolerances)
    result = {"folner": specio.json_of_folner(report, ctx)}
    ok = report.ok()
    summary = [
        f"{len(report.sets)} candidate sets, "
        + ("all within tolerance" if ok else "tolerance exceeded")
    ]

    def ratios_csv() -> str:
        rows = [
            (i, srep.size, specio.json_of_word(g, ctx), str(ratio), str(srep.tolerance), srep.ok)
            for i, srep in enumerate(report.sets, start=1)
            for g, ratio in srep.ratios
        ]
        return specio.csv_text(["set", "size", "element", "ratio", "tolerance", "ok"], rows)

    artifacts = {"ratios.csv": ratios_csv}
    return result, summary, artifacts, not ok, raw


def cmd_suite(args, budget: Budget):
    from . import acceptance  # the battery is read by this command alone

    numbers = None
    if args.only:
        try:
            numbers = [int(x) for x in args.only.split(",") if x.strip()]
        except ValueError as exc:
            raise MalformedInputError(f"--only wants comma-separated integers: {exc}")
    results = acceptance.run_all(numbers)
    result = {
        "results": [dataclasses.asdict(r) for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    summary = [r.line() for r in results]
    rows = [
        (r.number, "PASS" if r.passed else "FAIL", r.title, r.detail) for r in results
    ]
    artifacts = {
        "matrix.csv": lambda: specio.csv_text(
            ["criterion", "status", "title", "detail"], rows
        )
    }
    return result, summary, artifacts, any(not r.passed for r in results), None


# ── argument parsing and entry point ─────────────────────────────────────────


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    one: it holds no per-call state (budgets are read per call)."""
    parser = argparse.ArgumentParser(
        prog="chabauty-lab",
        description="desk-scale experiments in the Chabauty space of a countable group",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--radius", type=int, default=8, help="ball radius (default 8)")
    common.add_argument("--out", metavar="DIR", help="also write report and artifacts here")
    common.add_argument("--budget-vertices", type=int, metavar="N",
                        help="cap graph/coset constructions at N vertices "
                             "and lattice ball listings at N points")
    common.add_argument("--budget-length", type=int, metavar="N",
                        help="cap searched conjugator length at N")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stallings", parents=[common], help="core graphs for free-group subgroups")
    p.add_argument("spec", help="subgroup JSON document")
    p.set_defaults(func=cmd_stallings)

    p = sub.add_parser("chabauty", parents=[common], help="distances and convergence certificates")
    p.add_argument("spec", help="JSON with 'pair' or 'sequence'+'limit'")
    p.set_defaults(func=cmd_chabauty)

    p = sub.add_parser("zd", parents=[common], help="lattice subgroups and subgroup counts")
    p.add_argument("spec", nargs="?", help="lattice subgroup JSON document")
    p.add_argument("--enumerate", nargs=2, type=int, metavar=("DIM", "MAXINDEX"),
                   help="count the subgroups of Z^DIM of each index <= MAXINDEX")
    p.set_defaults(func=cmd_zd)

    p = sub.add_parser("schreier", parents=[common], help="coset geometry of a subgroup")
    p.add_argument("spec", help="subgroup JSON document (optionally {'subgroup':…, 'over':…})")
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("witness", parents=[common], help="convergence witness sequences")
    p.add_argument("spec", help="subgroup JSON document (free generators or lattice)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("transit", parents=[common], help="topological-transitivity moves")
    p.add_argument("spec", nargs="?", help="task JSON document")
    p.add_argument("--demo", choices=["paired", "obstruction"],
                   help="run a built-in task instead of a spec file")
    p.set_defaults(func=cmd_transit)

    p = sub.add_parser("folner", parents=[common], help="exact Folner-ratio checks")
    p.add_argument("spec", nargs="?", help="JSON with 'subgroup', 'sets', 'elements'")
    p.add_argument("--demo", action="store_true", help="run the interval demo (i = 2..5)")
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("suite", parents=[common], help="run the acceptance battery")
    p.add_argument("--only", metavar="N,N,…", help="run only these criteria")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command_line = ["chabauty-lab"] + (list(argv) if argv is not None else sys.argv[1:])
    try:
        if args.out:
            _check_out(args.out)
        budget = _budget_from_args(args)
        result, summary, artifacts, failed, raw = args.func(args, budget)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (MalformedInputError, ContextMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "provenance": specio.provenance(command_line, raw, budget),
        "command": args.command,
        "result": result,
    }
    text = specio.canonical_json(report)
    sys.stdout.write(text)
    for line in summary:
        print(line, file=sys.stderr)
    if args.out:
        try:
            _write_out(args.out, text, summary, artifacts)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
