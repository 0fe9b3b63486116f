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
import operator
from fractions import Fraction
from typing import Any, Sequence

from . import __version__
from .budgets import Budget, current
from .chabauty import Certification, ClopenSet, DistanceBound, clopen
from .dynamics import (
    FolnerReport,
    MoveCertificate,
    NonisolationWitness,
    TransitivityTask,
    make_task,
)
from .errors import MalformedInputError
from .schreier import FiberReport, SchreierGraph
from .stallings import StallingsGraph, Target, _Builder, fold, preimage
from .words import (
    _CHAR_OF_LETTER,
    GroupContext,
    Word,
    format_word,
    parse_word,
)
from .zdlattice import HnfSubgroup, WitnessSequence, hnf_from_generators

TOOL_NAME = "chabauty-lab"


# ── canonical JSON and hashing ────────────────────────────────────────────────


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline.

    Reports are exact, so the encoder takes only what they hold: dicts
    with str keys, lists, tuples, `str`, `int`, `bool`, `None` and
    :class:`EdgeTable` leaves; anything else (a float, a key that is not
    a str, a value of a scalar's subclass) raises `TypeError`. The text is
    byte-identical to ``json.dumps(obj, sort_keys=True, indent=2) +
    "\\n"``, an :class:`EdgeTable` leaf rendering as its dict form would.
    With ``indent`` set, ``json`` runs its pure-Python generator encoder;
    this direct recursion does the same work with one call per container
    instead of a generator per value.
    """
    return _encode(obj, "\n") + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
# Dispatch on the exact type: bool is an int subclass, yet prints true/false.
_SCALAR_TEXT = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}
_KEY = operator.itemgetter(0)


def _encode(o: Any, newline: str) -> str:
    """JSON text of `o`; `newline` is "\\n" plus the indent of o's first line."""
    text_of = _SCALAR_TEXT.get(type(o))
    if text_of is not None:
        return text_of(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        get = _SCALAR_TEXT.get
        parts = [
            text_of(v) if (text_of := get(type(v))) is not None else _encode(v, inner)
            for v in o
        ]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        get = _SCALAR_TEXT.get
        parts = [
            _ESCAPE(k)  # a key that is not a str raises TypeError here
            + ": "
            + (text_of(v) if (text_of := get(type(v))) is not None else _encode(v, inner))
            for k, v in sorted(o.items(), key=_KEY)
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if type(o) is EdgeTable:
        return o.render(newline)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class EdgeTable:
    """One letter's edge table of a core graph, as a report leaf that
    `canonical_json` writes directly.

    Its JSON text is that of :meth:`as_dict`, the table keyed by decimal
    vertex strings, written straight from the int-keyed table: each edge
    gives one ``"u": v`` entry, and the entries are sorted as text. Keys
    are distinct and ``"`` sorts below every digit, so this is the str-key
    order ("10" < "2"), whichever vertices the table holds.
    """

    __slots__ = ("succ",)

    def __init__(self, succ: dict[int, int]):
        self.succ = succ

    def as_dict(self) -> dict[str, int]:
        return {str(u): v for u, v in sorted(self.succ.items())}

    def render(self, newline: str) -> str:
        """The text at the indent of `newline`, as `_encode` takes it."""
        if not self.succ:
            return "{}"
        inner = newline + "  "
        entries = sorted([f'"{u}": {v}' for u, v in self.succ.items()])
        return "{" + inner + ("," + inner).join(entries) + newline + "}"


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


def context_from_json(obj: Any, budget: Budget | None = None) -> GroupContext:
    """A group context; a free rank or lattice dimension above `vertex_cap`
    raises before anything allocates per generator or coordinate."""
    kind = _require(obj, "kind", "context")
    if isinstance(obj, dict) and "rank" not in obj and "dim" in obj:
        rank = obj["dim"]  # natural synonym for lattice contexts
    else:
        rank = _require(obj, "rank", "context")
    ctx = GroupContext(kind, rank)
    budget = budget or current()
    if rank > budget.vertex_cap:
        raise budget.exceeded("vertex_cap", f"{kind} rank (vertex_cap)", rank)
    return ctx


def word_from_json(obj: Any, ctx: GroupContext) -> Word:
    """A free-group word as a text string ('abA'), or a lattice vector."""
    if ctx.kind == "free":
        if not isinstance(obj, str):
            raise MalformedInputError(f"expected a word string, got {obj!r}")
        return parse_word(obj, ctx)
    _ints(obj, "a lattice vector")
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


def _hom_from_json(ctx: GroupContext, obj: Any, budget: Budget | None):
    tgt = _require(obj, "target", "hom")
    kind = _require(tgt, "kind", "hom target")
    param = _require(tgt, "param", "hom target")
    target = Target(kind, param)
    images = _require(obj, "images", "hom")
    accepted = _require(obj, "accepted", "hom")
    if kind == "lattice":
        budget = budget or current()
        if param > budget.vertex_cap:
            raise budget.exceeded("vertex_cap", "lattice target dimension (vertex_cap)", param)
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
    return preimage(ctx, target, images, accepted, budget)


def folded_subgroup_from_json(obj: Any, budget: Budget | None = None):
    """A subgroup document as a membership automaton, for a subgroup that is
    walked and never printed: generator-defined or homomorphism-defined.

    ``{"context": C, "generators": [...]}`` builds the folded builder of
    the generators (free contexts, within `budget`; `stallings.fold`), whose
    words `parse_word` has already reduced and checked, or an HNF row span
    (lattice contexts). ``{"context": C, "hom": {...}}`` builds the
    preimage φ⁻¹(A) in `stallings.preimage`'s one form (within `budget`):
    the covering of the rose at finite index, so it equals the core graph
    of any generator document of the same subgroup, and otherwise the
    trivial subgroup of F₁ or a :class:`HomSubgroup` ab⁻¹(L).
    """
    ctx = context_from_json(_require(obj, "context", "subgroup"), budget)
    if "hom" in obj:
        return _hom_from_json(ctx, obj["hom"], budget)
    gens_json = _require(obj, "generators", "subgroup")
    if not isinstance(gens_json, list):
        raise MalformedInputError("subgroup generators must be a list")
    gens = [word_from_json(g, ctx) for g in gens_json]
    if ctx.kind == "free":
        return fold(ctx, gens, budget or current())
    return hnf_from_generators(ctx.rank, gens)


def subgroup_from_json(obj: Any, budget: Budget | None = None):
    """A subgroup document in canonical form, for a subgroup that is printed
    or compared: `folded_subgroup_from_json`, its builder finalized."""
    H = folded_subgroup_from_json(obj, budget)
    return H.finalize() if isinstance(H, _Builder) else H


def generated_subgroup_from_json(
    obj: Any, where: str, budget: Budget | None = None, free: bool = False
) -> _Builder | HnfSubgroup:
    """A generator-defined subgroup document (of a free group if `free`), for
    the places that take no homomorphism documents, as
    `folded_subgroup_from_json` reads it: a free group's subgroup is a
    folded builder, which a caller that prints it finalizes. The "hom" key
    is refused before parsing, so the refusal does not depend on what the
    homomorphism describes: a finite target's preimage would parse to a
    Stallings graph."""
    if isinstance(obj, dict) and "hom" in obj:
        raise MalformedInputError(f"{where} must be generator-defined, not a homomorphism")
    H = folded_subgroup_from_json(obj, budget)
    if free and H.ctx.kind != "free":
        raise MalformedInputError(f"{where} must be a free-group subgroup")
    return H


def clopen_from_json(obj: Any, ctx: GroupContext) -> ClopenSet:
    ins = words_from_json(_require(obj, "ins", "clopen set"), ctx, "clopen ins")
    outs = words_from_json(_require(obj, "outs", "clopen set"), ctx, "clopen outs")
    return clopen(ins, outs)


def json_of_clopen(V: ClopenSet, ctx: GroupContext) -> dict:
    return {
        "ins": [json_of_word(w, ctx) for w in V.ins],
        "outs": [json_of_word(w, ctx) for w in V.outs],
    }


def _witness_from_json(obj: Any, ctx: GroupContext, budget: Budget) -> StallingsGraph:
    """A witness subgroup: either a generator list or a subgroup document."""
    if isinstance(obj, list):
        H = fold(ctx, [word_from_json(w, ctx) for w in obj], budget)
    else:
        H = generated_subgroup_from_json(obj, "a task witness", budget, free=True)
    return H.finalize()  # printed in the report


def _clopen_key(obj: Any) -> tuple | None:
    """The word lists of a clopen document whose words are all strings, as a
    key under which its parse can be shared; None for any other document."""
    if not isinstance(obj, dict):
        return None
    ins, outs = obj.get("ins"), obj.get("outs")
    if not (isinstance(ins, list) and isinstance(outs, list)):
        return None
    if not all(isinstance(w, str) for w in (*ins, *outs)):
        return None
    return tuple(ins), tuple(outs)


def task_from_json(obj: Any, default_budget: Budget | None = None) -> TransitivityTask:
    """A multi-transitivity task document.

    ``{"context": C, "pairs": [{"source": V, "target": W, "source_witness":
    [...], "target_witness": [...]}, ...], "budget": {...}?}``

    A document without a "budget" key gets `default_budget` (the caller's
    ambient budget); an explicit "budget" object always wins, for the
    witnesses' folds as for the search. A clopen document whose word lists
    equal those of one already read is parsed once.
    """
    ctx_json = _require(obj, "context", "task")
    if obj.get("budget") is not None:
        budget = budget_from_json(obj["budget"])
    else:
        budget = default_budget if default_budget is not None else current()
    ctx = context_from_json(ctx_json, budget)
    if ctx.kind != "free":
        raise MalformedInputError("transitivity tasks live in free groups")
    pairs_json = _require(obj, "pairs", "task")
    if not isinstance(pairs_json, list) or not pairs_json:
        raise MalformedInputError("task needs a nonempty list of pairs")
    parsed: dict[tuple, ClopenSet] = {}

    def clopen_set(V: Any) -> ClopenSet:
        key = _clopen_key(V)
        if key is None:
            return clopen_from_json(V, ctx)
        if key not in parsed:
            parsed[key] = clopen_from_json(V, ctx)
        return parsed[key]

    pairs = []
    for i, p in enumerate(pairs_json):
        where = f"task pair {i + 1}"
        pairs.append(
            (
                clopen_set(_require(p, "source", where)),
                clopen_set(_require(p, "target", where)),
                _witness_from_json(_require(p, "source_witness", where), ctx, budget),
                _witness_from_json(_require(p, "target_witness", where), ctx, budget),
            )
        )
    return make_task(ctx, pairs, budget)


def json_of_task(task: TransitivityTask) -> dict:
    """The task document; a clopen set that several pairs share (one object)
    is rendered once and its dict appears in each place."""
    ctx = task.ctx
    rendered: dict[int, dict] = {}

    def clopen_json(V: ClopenSet) -> dict:
        if id(V) not in rendered:
            rendered[id(V)] = json_of_clopen(V, ctx)
        return rendered[id(V)]

    return {
        "context": {"kind": "free", "rank": ctx.rank},
        "pairs": [
            {
                "source": clopen_json(s),
                "target": clopen_json(t),
                "source_witness": sw.basis_text(),
                "target_witness": tw.basis_text(),
            }
            for s, t, sw, tw in zip(
                task.sources, task.targets, task.source_witnesses, task.target_witnesses
            )
        ],
        "budget": task.budget.as_dict(),
    }


def budget_from_json(obj: Any) -> Budget:
    if not isinstance(obj, dict):
        raise MalformedInputError("budget must be a JSON object")
    return current(overrides=obj)


def words_from_json(objs: Any, ctx: GroupContext, where: str) -> list[Word]:
    if not isinstance(objs, list):
        raise MalformedInputError(f"{where} must be a list of words")
    return [word_from_json(w, ctx) for w in objs]


def fractions_from_json(objs: Any, where: str, digits: int) -> list[Fraction]:
    """Exact fractions written as strings ("1/3", "0.25", "1e-3") or
    integers, whose numerators and denominators print with at most
    `digits` digits (0: no limit).

    `Fraction` builds 10^|e| for an exponent e, so e is read first, and
    |e| > 3·digits is refused: a nonzero mantissa, whose two digit runs
    `Fraction` reads as ints of at most `digits` digits each, would print
    with more than `digits` digits (a zero written so is refused too)."""
    if not isinstance(objs, list) or not all(
        isinstance(q, (str, int)) and not isinstance(q, bool) for q in objs
    ):
        raise MalformedInputError(f"{where} must be a list of fraction strings")
    out = []
    for k, q in enumerate(objs, start=1):
        if digits and isinstance(q, str):
            _, marker, exponent = q.lower().rpartition("e")
            try:
                huge = bool(marker) and abs(int(exponent)) > 3 * digits
            except ValueError:
                huge = False  # not an exponent: Fraction refuses it below
            if huge:
                raise MalformedInputError(
                    f"{where}: item {k} has an exponent larger than {3 * digits}"
                )
        try:
            q = Fraction(q)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
        if exceeds_digits(q.numerator, digits) or exceeds_digits(q.denominator, digits):
            raise MalformedInputError(f"{where}: item {k} would print more than {digits} digits")
        out.append(q)
    return out


def exceeds_digits(x: int, digits: int) -> bool:
    """Whether |x| has more than `digits` decimal digits (0: no limit), told
    without writing x: 2^(3·digits) = 8^digits is below 10^digits, so only
    an x of more than 3·digits bits is compared with 10^digits."""
    return digits > 0 and x.bit_length() > 3 * digits and abs(x) >= 10**digits


# ── certificate and report serialization ─────────────────────────────────────


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def json_of_graph(G: StallingsGraph) -> dict:
    """Structural form: canonical vertex count plus one edge table per letter
    (an :class:`EdgeTable` leaf, which `canonical_json` writes directly)."""
    return {
        "vertices": G.nverts,
        "rank": G.rank(),
        "index": G.index(),
        "edges": [{str(g): EdgeTable(G.edges[g])} for g in range(1, G.ctx.rank + 1)],
        "basis": G.basis_text(),
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
                "delta_basis": p.delta.basis_text(),
                "freeness": p.freeness,
                "source_check": p.source_check,
                "target_check": p.target_check,
            }
            for p in cert.pairs
        ],
    }


def json_of_nonisolation(w: NonisolationWitness) -> dict:
    return {
        "subgroup": w.subgroup.basis_text(),
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


# ── tabular and text artifacts ────────────────────────────────────────────────


def csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()


def dot_of_graph(G: StallingsGraph) -> str:
    vertex_attrs = ["shape=doublecircle"] + ["shape=circle"] * (G.nverts - 1)
    return _dot("stallings", vertex_attrs, G.edges[: G.ctx.rank + 1])


def dot_of_schreier(S: SchreierGraph) -> str:
    """Each vertex goes by its number, the trivial coset doublecircled and
    the frontier gray; the BFS tree's edges spell the representatives."""
    return _dot("schreier", [
        ("shape=circle" if v else "shape=doublecircle") + (", color=gray" if v in S.frontier else "")
        for v in range(S.nverts)
    ], S.edges)


def _dot_letter(x: int) -> str:
    """A letter in DOT labels: its character up to z, then x27 and its
    inverse X27, x28 and X28, …"""
    return _CHAR_OF_LETTER.get(x) or (f"x{x}" if x > 0 else f"X{-x}")


def _dot(name: str, vertex_attrs: Sequence[str], edges: Sequence[dict]) -> str:
    """Graphviz text: one line per vertex with its attributes, and one edge
    per entry of the forward tables `edges` (edges[g] for each generator g,
    edges[0] empty) labelled by its letter."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines += [f"  {v} [{attrs}];" for v, attrs in enumerate(vertex_attrs)]
    for g, table in enumerate(edges):
        label = _dot_letter(g)
        lines += [f'  {u} -> {v} [label="{label}"];' for u, v in sorted(table.items())]
    return "\n".join(lines) + "\n}\n"


def summary_text(title: str, lines: Sequence[str]) -> str:
    body = "\n".join(f"- {line}" for line in lines)
    return f"# {title}\n\n{body}\n"
