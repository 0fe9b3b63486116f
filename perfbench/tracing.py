"""Per-layer tracing installed from outside the program.

:func:`install` wraps the functions each layer exports and returns a
:class:`Recorder`; :func:`Recorder.uninstall` puts the originals back.
Modules bind names at import (``from .words import iter_ball``), so every
wrapper is installed into each ``chabauty_lab.*`` namespace that holds the
original object, and methods are wrapped on their class.

Two kinds of wrapper:

* spans (name, start, end, parent span, op id) around calls made a few
  thousand times per run at most; ``self_s`` is derived from them;
* bare counters around calls made up to millions of times per run
  (membership tests, coset keys, the words ``iter_ball`` yields), where a
  span would cost more than the call it measures.

Spans stay in memory until :meth:`Recorder.write`.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import sys
import time

_PARSE = "specio.parse"
_SERIALIZE = "specio.serialize"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.ball_words_by_span: collections.Counter = collections.Counter()
        self.op_id = None
        self._restore: list[tuple] = []

    # ── wrappers ─────────────────────────────────────────────────────────

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span. `before(args)` may replace the positional args;
        `after(args, result, exc)` records counts from the outcome."""
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in (_PARSE, _SERIALIZE) and any(spans[i][0] == name for i in stack):
                return fn(*args, **kwargs)  # nested parse/serialize: one span
            if before is not None:
                args = before(args)
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(entry)
            result = exc = None
            entry[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                entry[2] = clock()
                stack.pop()
                if after is not None:
                    after(args, result, exc)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_iter(self, name, fn):
        """Count calls and yielded items of a generator function; items are
        also credited to the span open when iteration started."""
        counts, stack, by_span = self.counts, self.stack, self.ball_words_by_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            owner = stack[-1] if stack else -1
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name + ".items"] += n
                by_span[owner] += n

        return wrapper

    # ── installation ─────────────────────────────────────────────────────

    def patch_function(self, module, attr, wrapper_of):
        """Replace `module.attr` by its wrapper in every package namespace."""
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("chabauty_lab"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

    # ── derived per-layer metrics ────────────────────────────────────────

    def span_stats(self):
        """Per span name: calls, total_s (outermost spans of that name only,
        so recursion is not double counted) and self_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["total_s"] += end - start
        return stats


def _l1_ball_size(dim: int, radius: int) -> int:
    """|{v in Z^d : |v|_1 <= r}| = Σ_k 2^k C(d, k) C(r, k)."""
    return sum(2 ** k * math.comb(dim, k) * math.comb(radius, k) for k in range(min(dim, radius) + 1))


def install(package) -> Recorder:
    """Wrap every traced layer function of the imported package."""
    cli, specio, words, stallings = package.cli, package.specio, package.words, package.stallings
    chabauty, zdlattice, schreier = package.chabauty, package.zdlattice, package.schreier
    dynamics, errors = package.dynamics, package.errors
    rec = Recorder()
    c = rec.counts

    def span(module, attr, name, before=None, after=None):
        rec.patch_function(module, attr, lambda fn: rec.span(name, fn, before, after))

    def count(module, attr, name):
        rec.patch_function(module, attr, lambda fn: rec.counter(name, fn))

    # words: counters only (the ball is consumed lazily by its callers)
    rec.patch_function(words, "iter_ball", lambda fn: rec.counting_iter("words.iter_ball", fn))
    rec.patch_function(words, "iter_lattice_ball",
                       lambda fn: rec.counting_iter("words.iter_lattice_ball", fn))

    def graded_after(args, result, exc):
        c["words.graded_ball.words"] += len(result) if result is not None else 0

    span(words, "graded_ball", "words.graded_ball", after=graded_after)

    # chabauty
    span(chabauty, "distance_up_to", "chabauty.distance_up_to")
    span(chabauty, "certify_convergence", "chabauty.certify_convergence")
    count(chabauty, "trace", "chabauty.trace.calls")
    count(chabauty, "in_clopen", "chabauty.in_clopen.calls")

    # stallings
    def gens_before(args):
        args = list(args)
        args[1] = [tuple(w) for w in args[1]]
        c["stallings.from_generators.letters_in"] += sum(map(len, args[1]))
        return tuple(args)

    def vertices(key):
        def after(args, result, exc):
            if result is not None:
                c[key] += result.nverts
        return after

    span(stallings, "from_generators", "stallings.from_generators", gens_before,
         vertices("stallings.from_generators.vertices_out"))
    span(stallings, "join", "stallings.join")
    span(stallings, "intersect", "stallings.intersect",
         after=vertices("stallings.intersect.vertices_out"))
    span(stallings, "conjugate_subgroup", "stallings.conjugate_subgroup")
    span(stallings, "hall_completion", "stallings.hall_completion",
         after=vertices("stallings.hall_completion.vertices_out"))
    count(stallings, "_complete", "stallings.hall_completion.attempts")
    rec.patch_method(stallings.StallingsGraph, "basis",
                     lambda fn: rec.span("stallings.basis", fn))
    rec.patch_method(stallings.StallingsGraph, "contains",
                     lambda fn: rec.counter("stallings.contains.calls", fn))
    rec.patch_method(stallings.HomSubgroup, "contains",
                     lambda fn: rec.counter("stallings.hom_contains.calls", fn))
    rec.patch_method(stallings.HomSubgroup, "coset_key",
                     lambda fn: rec.counter("stallings.coset_key.calls", fn))

    # zdlattice
    span(zdlattice, "hnf_from_generators", "zdlattice.hnf_from_generators")

    def ball_after(args, result, exc):
        H, radius = args[0], args[1]
        if result is not None and H.rank:
            c["zdlattice.members_in_ball.points"] += _l1_ball_size(H.dim, radius)
            c["zdlattice.members_in_ball.hits"] += len(result)

    span(zdlattice, "members_in_ball", "zdlattice.members_in_ball", after=ball_after)

    def enum_after(args, result, exc):
        if result is not None:
            c["zdlattice.enumerate_by_index.subgroups"] += sum(map(len, result.values()))

    span(zdlattice, "enumerate_by_index", "zdlattice.enumerate_by_index", after=enum_after)
    span(zdlattice, "witness_sequence", "zdlattice.witness_sequence")
    rec.patch_method(zdlattice.HnfSubgroup, "contains",
                     lambda fn: rec.counter("zdlattice.contains.calls", fn))

    # schreier
    span(schreier, "build", "schreier.build", after=vertices("schreier.build.vertices"))
    span(schreier, "ends_estimate", "schreier.ends_estimate")
    span(schreier, "fiber_diameters", "schreier.fiber_diameters")
    span(schreier, "qi_to_line_probe", "schreier.qi_to_line_probe")

    # dynamics
    def move_after(args, result, exc):
        if result is not None:
            c["dynamics.multi_transitivity_move.candidates"] += result.candidates_tried
            c["dynamics.move.found"] += 1
        elif isinstance(exc, errors.SearchFailure):
            c["dynamics.multi_transitivity_move.candidates"] += exc.progress["candidates_tried"]

    span(dynamics, "multi_transitivity_move", "dynamics.multi_transitivity_move", after=move_after)
    span(dynamics, "nonisolation_witness", "dynamics.nonisolation_witness")
    count(dynamics, "free_product_certify", "dynamics.free_product_certify.calls")
    span(dynamics, "folner_transfer_check", "dynamics.folner_transfer_check")

    # specio: parsing (file read, JSON decode, document validation) and
    # serialization (report objects and the canonical JSON text)
    span(cli, "_load_spec", _PARSE)
    for attr in ("subgroup_from_json", "task_from_json", "words_from_json"):
        span(specio, attr, _PARSE)
    for attr in sorted(vars(specio)):
        if attr.startswith("json_of_") or attr in ("canonical_json", "csv_text"):
            span(specio, attr, _SERIALIZE)

    # cli
    def main_after(args, result, exc):
        key = {0: "cli.exit_0", 4: "cli.exit_4"}.get(result, "cli.exit_other")
        c[key] += 1

    span(cli, "main", "cli.main", after=main_after)
    rec.patch_method(errors.BudgetExceededError, "__init__",
                     lambda fn: rec.counter("budgets.exceeded", fn))
    return rec


# name -> (unit, derivation from (span stats, counts, recorder))
def layer_metrics(rec: Recorder, report_bytes: int, overhead: float) -> dict:
    st, c = rec.span_stats(), rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def s(name, field):
        return st[name][field] if name in st else (0.0 if field != "calls" else 0)

    dist_spans = [i for i, sp in enumerate(rec.spans) if sp[0] == "chabauty.distance_up_to"]
    dist_words = sum(rec.ball_words_by_span[i] for i in dist_spans)
    m = {
        "words.iter_ball.calls": (c["words.iter_ball.calls"], "count"),
        "words.iter_ball.words": (c["words.iter_ball.items"], "count"),
        "words.iter_lattice_ball.points": (c["words.iter_lattice_ball.items"], "count"),
        "words.graded_ball.words": (c["words.graded_ball.words"], "count"),
        "chabauty.distance_up_to.words_per_call":
            (ratio(dist_words, s("chabauty.distance_up_to", "calls")), "words/call"),
        "chabauty.certify_convergence.calls": (s("chabauty.certify_convergence", "calls"), "count"),
        "chabauty.certify_convergence.total_s": (s("chabauty.certify_convergence", "total_s"), "s"),
        "chabauty.trace.calls": (c["chabauty.trace.calls"], "count"),
        "chabauty.in_clopen.calls": (c["chabauty.in_clopen.calls"], "count"),
        "stallings.from_generators.letters_in": (c["stallings.from_generators.letters_in"], "count"),
        "stallings.from_generators.vertices_out":
            (c["stallings.from_generators.vertices_out"], "count"),
        "stallings.fold.shrink_ratio": (ratio(c["stallings.from_generators.vertices_out"],
                                              c["stallings.from_generators.letters_in"]), "ratio"),
        "stallings.intersect.vertices_out": (c["stallings.intersect.vertices_out"], "count"),
        "stallings.hall_completion.vertices_out":
            (c["stallings.hall_completion.vertices_out"], "count"),
        "stallings.hall_completion.attempts_per_call":
            (ratio(c["stallings.hall_completion.attempts"],
                   s("stallings.hall_completion", "calls")), "ratio"),
        "stallings.contains.calls": (c["stallings.contains.calls"], "count"),
        "stallings.hom_contains.calls": (c["stallings.hom_contains.calls"], "count"),
        "stallings.coset_key.calls": (c["stallings.coset_key.calls"], "count"),
        "zdlattice.members_in_ball.points": (c["zdlattice.members_in_ball.points"], "count"),
        "zdlattice.members_in_ball.hit_ratio":
            (ratio(c["zdlattice.members_in_ball.hits"], c["zdlattice.members_in_ball.points"]),
             "ratio"),
        "zdlattice.enumerate_by_index.subgroups":
            (c["zdlattice.enumerate_by_index.subgroups"], "count"),
        "zdlattice.contains.calls": (c["zdlattice.contains.calls"], "count"),
        "schreier.build.vertices": (c["schreier.build.vertices"], "count"),
        "dynamics.multi_transitivity_move.candidates":
            (c["dynamics.multi_transitivity_move.candidates"], "count"),
        "dynamics.move.success_ratio": (ratio(c["dynamics.move.found"],
                                              c["dynamics.multi_transitivity_move.candidates"]),
                                        "ratio"),
        "dynamics.free_product_certify.calls": (c["dynamics.free_product_certify.calls"], "count"),
        "specio.report_bytes": (report_bytes, "bytes"),
        "cli.exit_0": (c["cli.exit_0"], "count"),
        "cli.exit_4": (c["cli.exit_4"], "count"),
        "cli.exit_other": (c["cli.exit_other"], "count"),
        "budgets.exceeded": (c["budgets.exceeded"], "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            m[f"{name}.{field}"] = (s(name, field), "count" if field == "calls" else "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


# span name -> the span-derived fields reported for it
SPAN_FIELDS = {
    "chabauty.distance_up_to": ("calls", "total_s", "self_s"),
    "stallings.from_generators": ("calls", "total_s", "self_s"),
    "stallings.join": ("calls", "total_s"),
    "stallings.intersect": ("calls", "total_s"),
    "stallings.conjugate_subgroup": ("calls", "total_s"),
    "stallings.basis": ("calls", "total_s"),
    "stallings.hall_completion": ("calls", "total_s"),
    "zdlattice.hnf_from_generators": ("calls", "total_s"),
    "zdlattice.members_in_ball": ("calls", "total_s"),
    "zdlattice.enumerate_by_index": ("calls", "total_s"),
    "zdlattice.witness_sequence": ("calls", "total_s"),
    "schreier.build": ("calls", "total_s", "self_s"),
    "schreier.ends_estimate": ("calls", "total_s"),
    "schreier.fiber_diameters": ("total_s",),
    "schreier.qi_to_line_probe": ("total_s",),
    "dynamics.multi_transitivity_move": ("calls", "total_s", "self_s"),
    "dynamics.nonisolation_witness": ("calls", "total_s"),
    "dynamics.folner_transfer_check": ("total_s",),
    "specio.parse": ("calls", "total_s"),
    "specio.serialize": ("total_s",),
    "cli.main": ("self_s",),
}
