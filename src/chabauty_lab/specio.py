"""JSON experiment input parsing and deterministic report serialization.

Experiment inputs arrive as JSON documents.  Every document is validated
completely before any computation starts, so malformed input never aborts
a half-finished run; validation failures raise
:class:`~chabauty_lab.errors.MalformedInputError` (or a subclass) with a
message naming the offending field.

Serializers are value-stable: the same input produces byte-identical
output (sorted keys, no timestamps, fractions as strings), which keeps
reruns diffable.  Provenance headers carry the tool version, the command
line, a SHA-256 digest of the input document, and the budget in force.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from typing import Any, Sequence

from . import __version__
from .budgets import Budget, current
from .chabauty import Certification, ClopenSet, DistanceBound, clopen
from .dynamics import (
    FolnerReport,
    FreeProductCertificate,
    MoveCertificate,
    NonisolationWitness,
    TransitivityTask,
    VarietySequence,
    make_task,
)
from .errors import MalformedInputError
from .schreier import FiberReport, ProbeReport, SchreierGraph
from .stallings import HomSubgroup, StallingsGraph, Target, from_generators
from .words import (
    GroupContext,
    Word,
    format_word,
    free_group,
    lattice,
    parse_word,
)
from .zdlattice import HnfSubgroup, WitnessSequence, hnf_from_generators

TOOL_NAME = "chabauty-lab"


# ── canonical JSON and hashing ────────────────────────────────────────────────


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def provenance(command: Sequence[str], spec_text: str | None, budget: Budget) -> dict:
    """Deterministic report header: tool, version, command, input digest, budget."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": list(command),
        "input_sha256": sha256_of(spec_text) if spec_text is not None else None,
        "budget": budget.as_dict(),
    }


# ── input parsing ─────────────────────────────────────────────────────────────


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise MalformedInputError(f"{where} is missing the {key!r} field")
    return obj[key]


def context_from_json(obj: Any) -> GroupContext:
    kind = _require(obj, "kind", "context")
    if isinstance(obj, dict) and "rank" not in obj and "dim" in obj:
        rank = obj["dim"]  # natural synonym for lattice contexts
    else:
        rank = _require(obj, "rank", "context")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise MalformedInputError("context rank must be a positive integer")
    if kind == "free":
        return free_group(rank)
    if kind == "lattice":
        return lattice(rank)
    raise MalformedInputError(f"unknown context kind {kind!r}")


def word_from_json(obj: Any, ctx: GroupContext) -> Word:
    """A free-group word as a text string ('abA'), or a lattice vector."""
    if ctx.kind == "free":
        if not isinstance(obj, str):
            raise MalformedInputError(f"expected a word string, got {obj!r}")
        return parse_word(obj, ctx)
    if not isinstance(obj, list) or not all(isinstance(x, int) for x in obj):
        raise MalformedInputError(f"expected an integer vector, got {obj!r}")
    if len(obj) != ctx.rank:
        raise MalformedInputError(
            f"vector {obj!r} has length {len(obj)}, context wants {ctx.rank}"
        )
    return tuple(obj)


def json_of_word(w: Word, ctx: GroupContext) -> Any:
    return format_word(w) if ctx.kind == "free" else list(w)


def _ints(obj: Any, where: str) -> list[int]:
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise MalformedInputError(f"{where} must be a list of integers, got {obj!r}")
    return obj


def _int_tuples(obj: Any, where: str) -> list[tuple[int, ...]]:
    if not isinstance(obj, list):
        raise MalformedInputError(f"{where} must be a list, got {obj!r}")
    return [tuple(_ints(v, f"each of the {where}")) for v in obj]


def _hom_from_json(ctx: GroupContext, obj: Any) -> HomSubgroup:
    tgt = _require(obj, "target", "hom")
    kind = _require(tgt, "kind", "hom target")
    param = _require(tgt, "param", "hom target")
    target = Target(kind, param)
    images = _require(obj, "images", "hom")
    accepted = _require(obj, "accepted", "hom")
    if kind == "lattice":
        if accepted != "zero":
            gens = _require(accepted, "generators", "hom accepted")
            accepted = hnf_from_generators(param, _int_tuples(gens, "accepted generators"))
        images = _int_tuples(images, "image vectors")
    elif kind == "cyclic":
        images = _ints(images, "cyclic images")
        accepted = _ints(accepted, "accepted residues")
    else:
        images = _int_tuples(images, "image permutations")
        accepted = _int_tuples(accepted, "accepted permutations")
    return HomSubgroup(ctx, target, images, accepted)


def subgroup_from_json(obj: Any, budget: Budget | None = None):
    """A subgroup document: generator-defined or homomorphism-defined.

    ``{"context": C, "generators": [...]}`` builds a folded core graph (free
    contexts, within `budget`) or an HNF row span (lattice contexts).
    ``{"context": C, "hom": {...}}`` builds a preimage subgroup φ⁻¹(A).
    """
    ctx = context_from_json(_require(obj, "context", "subgroup"))
    if "hom" in obj:
        return _hom_from_json(ctx, obj["hom"])
    gens_json = _require(obj, "generators", "subgroup")
    if not isinstance(gens_json, list):
        raise MalformedInputError("subgroup generators must be a list")
    gens = [word_from_json(g, ctx) for g in gens_json]
    if ctx.kind == "free":
        return from_generators(ctx, gens, budget)
    return hnf_from_generators(ctx.rank, gens)


def json_of_subgroup(H) -> dict:
    if isinstance(H, StallingsGraph):
        return {
            "context": {"kind": "free", "rank": H.ctx.rank},
            "generators": [format_word(w) for w in H.basis()],
        }
    if isinstance(H, HnfSubgroup):
        return {
            "context": {"kind": "lattice", "rank": H.dim},
            "generators": [list(r) for r in H.rows],
        }
    if isinstance(H, HomSubgroup):
        t = H.target
        if t.kind == "lattice":
            acc: Any = (
                "zero"
                if H.accepted.rank == 0
                else {"generators": [list(r) for r in H.accepted.rows]}
            )
            images: Any = [list(v) for v in H.images]
        elif t.kind == "cyclic":
            acc = sorted(H.accepted)
            images = list(H.images)
        else:
            acc = sorted(list(p) for p in H.accepted)
            images = [list(p) for p in H.images]
        return {
            "context": {"kind": "free", "rank": H.ctx.rank},
            "hom": {
                "target": {"kind": t.kind, "param": t.param},
                "images": images,
                "accepted": acc,
            },
        }
    raise MalformedInputError(f"cannot serialize {type(H).__name__}")


def clopen_from_json(obj: Any, ctx: GroupContext) -> ClopenSet:
    ins = [word_from_json(w, ctx) for w in _require(obj, "ins", "clopen set")]
    outs = [word_from_json(w, ctx) for w in _require(obj, "outs", "clopen set")]
    return clopen(ins, outs)


def json_of_clopen(V: ClopenSet, ctx: GroupContext) -> dict:
    return {
        "ins": [json_of_word(w, ctx) for w in V.ins],
        "outs": [json_of_word(w, ctx) for w in V.outs],
    }


def _witness_from_json(obj: Any, ctx: GroupContext) -> StallingsGraph:
    """A witness subgroup: either a generator list or a subgroup document."""
    if isinstance(obj, list):
        return from_generators(ctx, [word_from_json(w, ctx) for w in obj])
    H = subgroup_from_json(obj)
    if not isinstance(H, StallingsGraph):
        raise MalformedInputError("task witnesses must be finitely generated")
    return H


def task_from_json(obj: Any, default_budget: Budget | None = None) -> TransitivityTask:
    """A multi-transitivity task document.

    ``{"context": C, "pairs": [{"source": V, "target": W, "source_witness":
    [...], "target_witness": [...]}, ...], "budget": {...}?}``

    A document without a "budget" key gets `default_budget` (the caller's
    ambient budget); an explicit "budget" object always wins.
    """
    ctx = context_from_json(_require(obj, "context", "task"))
    if ctx.kind != "free":
        raise MalformedInputError("transitivity tasks live in free groups")
    pairs_json = _require(obj, "pairs", "task")
    if not isinstance(pairs_json, list) or not pairs_json:
        raise MalformedInputError("task needs a nonempty list of pairs")
    pairs = []
    for i, p in enumerate(pairs_json):
        where = f"task pair {i + 1}"
        pairs.append(
            (
                clopen_from_json(_require(p, "source", where), ctx),
                clopen_from_json(_require(p, "target", where), ctx),
                _witness_from_json(_require(p, "source_witness", where), ctx),
                _witness_from_json(_require(p, "target_witness", where), ctx),
            )
        )
    if obj.get("budget") is not None:
        budget = budget_from_json(obj["budget"])
    else:
        budget = default_budget if default_budget is not None else current()
    return make_task(ctx, pairs, budget)


def json_of_task(task: TransitivityTask) -> dict:
    ctx = task.ctx
    return {
        "context": {"kind": "free", "rank": ctx.rank},
        "pairs": [
            {
                "source": json_of_clopen(s, ctx),
                "target": json_of_clopen(t, ctx),
                "source_witness": [format_word(w) for w in sw.basis()],
                "target_witness": [format_word(w) for w in tw.basis()],
            }
            for s, t, sw, tw in zip(
                task.sources, task.targets, task.source_witnesses, task.target_witnesses
            )
        ],
        "budget": task.budget.as_dict(),
    }


def budget_from_json(obj: Any) -> Budget:
    if obj is None:
        return current()
    if not isinstance(obj, dict):
        raise MalformedInputError("budget must be a JSON object")
    return current(overrides=obj)


def words_from_json(objs: Any, ctx: GroupContext, where: str) -> list[Word]:
    if not isinstance(objs, list):
        raise MalformedInputError(f"{where} must be a list of words")
    return [word_from_json(w, ctx) for w in objs]


def fractions_from_json(objs: Any, where: str) -> list[Fraction]:
    """Exact fractions written as strings ("1/3") or integers."""
    if not isinstance(objs, list) or not all(
        isinstance(q, (str, int)) and not isinstance(q, bool) for q in objs
    ):
        raise MalformedInputError(f"{where} must be a list of fraction strings")
    try:
        return [Fraction(q) for q in objs]
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"{where}: {exc}") from exc


# ── certificate and report serialization ─────────────────────────────────────


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def json_of_graph(G: StallingsGraph) -> dict:
    """Structural form: canonical vertex count plus one edge table per letter."""
    return {
        "vertices": G.nverts,
        "rank": G.rank(),
        "index": G.index(),
        "edges": [
            {str(g + 1): {str(u): v for u, v in sorted(G.succ[g].items())}}
            for g in range(G.ctx.rank)
        ],
        "basis": [format_word(w) for w in G.basis()],
    }


def json_of_distance(b: DistanceBound, ctx: GroupContext) -> dict:
    return {
        "kind": b.kind,
        "exponent": b.exponent,
        "value": _frac(b.value),
        "witness": None if b.witness is None else json_of_word(b.witness, ctx),
    }


def json_of_certification(c: Certification, ctx: GroupContext) -> dict:
    return {
        "kind": c.kind,
        "radius": c.radius,
        "n0": c.n0,
        "index": c.index,
        "witness": None if c.witness is None else json_of_word(c.witness, ctx),
    }


def json_of_move(cert: MoveCertificate, ctx: GroupContext) -> dict:
    return {
        "conjugator": format_word(cert.conjugator),
        "candidate": format_word(cert.candidate),
        "candidates_tried": cert.candidates_tried,
        "reverified": cert.reverified,
        "pairs": [
            {
                "delta_basis": [format_word(w) for w in p.delta.basis()],
                "freeness": p.freeness,
                "source_check": p.source_check,
                "target_check": p.target_check,
            }
            for p in cert.pairs
        ],
    }


def json_of_free_product(c: FreeProductCertificate) -> dict:
    return {
        "kind": c.kind,
        "reason": c.reason,
        "witness": None if c.witness is None else format_word(c.witness),
        "ranks": None if c.ranks is None else list(c.ranks),
        "join_rank": c.join.rank(),
    }


def json_of_nonisolation(w: NonisolationWitness) -> dict:
    return {
        "subgroup": [format_word(x) for x in w.subgroup.basis()],
        "terms": [
            {
                "n": t.n,
                "adjoined": format_word(t.adjoined),
                "completion_index": t.completion.index(),
                "term_rank": t.term.rank(),
                "term_index": t.term.index(),
            }
            for t in w.terms
        ],
    }


def json_of_witness_sequence(ws: WitnessSequence) -> dict:
    return {
        "subgroup": [list(r) for r in ws.subgroup.rows],
        "direction": list(ws.direction),
        "terms": [[list(r) for r in t.rows] for t in ws.terms],
    }


def json_of_fibers(reports: Sequence[FiberReport], ctx: GroupContext) -> list:
    return [
        {
            "representative": json_of_word(r.representative, ctx),
            "size": r.size,
            "diameter": r.diameter,
            "lower_bound": r.lower_bound,
        }
        for r in reports
    ]


def json_of_probe(p: ProbeReport) -> dict:
    return {
        "verdict": p.verdict,
        "reason": p.reason,
        "sphere_sizes": list(p.sphere_sizes),
        "ends_window": [list(x) for x in p.ends_window],
        "complete": p.complete,
    }


def json_of_schreier(S: SchreierGraph) -> dict:
    return {
        "vertices": S.nverts,
        "edges": S.nedges,
        "complete": S.is_complete(),
        "sphere_sizes": S.sphere_sizes(),
        "frontier": len(S.frontier),
    }


def json_of_folner(rep: FolnerReport, ctx: GroupContext) -> dict:
    return {
        "ok": rep.ok(),
        "sets": [
            {
                "size": s.size,
                "distinct": s.distinct,
                "collision": None
                if s.collision is None
                else [json_of_word(w, ctx) for w in s.collision],
                "tolerance": _frac(s.tolerance),
                "ratios": [
                    {"element": json_of_word(g, ctx), "ratio": _frac(q)}
                    for g, q in s.ratios
                ],
                "ok": s.ok,
            }
            for s in rep.sets
        ],
    }


def json_of_variety(seq: VarietySequence) -> dict:
    return {
        "limit_basis": [format_word(w) for w in seq.limit.basis()],
        "indices": list(seq.indices),
        "term_ranks": [t.rank() for t in seq.terms],
    }


# ── tabular and text artifacts ────────────────────────────────────────────────


def csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def summary_text(title: str, lines: Sequence[str]) -> str:
    body = "\n".join(f"- {line}" for line in lines)
    return f"# {title}\n\n{body}\n"
