"""JSON document round trips for subgroups, tasks, and reports."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chabauty_lab import specio
from chabauty_lab.cli import main
from chabauty_lab.errors import MalformedInputError
from chabauty_lab.stallings import (
    Target,
    from_generators,
    hall_completion,
    kernel,
    preimage,
    trivial_subgroup,
)
from chabauty_lab.words import GroupContext, format_word, free_group, parse_word, reduce_word
from chabauty_lab.zdlattice import hnf_from_generators

F2 = free_group(2)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = specio.canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert specio.canonical_json({"a": 1}) == specio.canonical_json({"a": 1})


def json_dumps_oracle(obj):
    """The text canonical_json must reproduce, byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


json_strings = st.text() | st.text(alphabet='a"\\/\n\t\x00\x1f\x7fé€😀\u2028', max_size=8)
# the values an exact report holds: no float, no key but a str
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda n: st.sampled_from([n, -n]))
    | json_strings
)


def json_containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(json_strings, children, max_size=5)
    )


json_trees = st.recursive(json_scalars, json_containers, max_leaves=30)


@given(json_trees)
@settings(max_examples=250, deadline=None)
def test_canonical_json_matches_json_dumps(obj):
    assert specio.canonical_json(obj) == json_dumps_oracle(obj)


class _Text(str):
    pass


class _Count(int):
    pass


@pytest.mark.parametrize(
    "leaf",
    [0.5, -0.0, math.nan, math.inf, {1: 0}, {None: 0}, {True: 0}, {0.5: 0}, {(1, 2): 0},
     _Text("v"), _Count(3)],
    ids=["float", "negative zero", "nan", "inf", "int key", "None key", "bool key",
         "float key", "tuple key", "str subclass", "int subclass"],
)
def test_canonical_json_refuses_what_no_report_holds(leaf):
    """Reports are exact: a float, a key that is not a str or a value of a
    scalar's subclass raises, at the top and deep in a report alike."""
    for obj in (leaf, {"result": [{"value": leaf}]}):
        with pytest.raises(TypeError):
            specio.canonical_json(obj)


def test_canonical_json_rejects_what_json_dumps_rejects():
    for obj in [[object()], {"a": {1, 2}}]:
        with pytest.raises(TypeError) as ours:
            specio.canonical_json(obj)
        with pytest.raises(TypeError) as theirs:
            json_dumps_oracle(obj)
        assert str(ours.value) == str(theirs.value)


_F2_CTX = {"kind": "free", "rank": 2}
_KER_Z = {
    "context": _F2_CTX,
    "hom": {"target": {"kind": "lattice", "param": 1}, "images": [[1], [0]], "accepted": "zero"},
}


def _ker_mod_4(accepted):
    return {
        "context": _F2_CTX,
        "hom": {"target": {"kind": "cyclic", "param": 4}, "images": [1, 0], "accepted": accepted},
    }


# The README's command-line examples (the full battery as its `--only 2,8`
# run) and one document per subcommand from the command-line tests.
_REPORT_DOCS = {
    "even.json": {"context": _F2_CTX, "generators": ["aa", "b", "abA"],
                  "queries": ["a", "aa", "bab"], "completion_radius": 3},
    "pair.json": {"pair": [{"context": _F2_CTX, "generators": ["a"]},
                           {"context": _F2_CTX, "generators": ["a", "bbaBB"]}]},
    "ker.json": _KER_Z,
    "a.json": {"context": _F2_CTX, "generators": ["a"]},
    "ops.json": {"context": _F2_CTX, "generators": ["ab", "ba"],
                 "intersect_with": {"context": _F2_CTX, "generators": ["a", "b"]},
                 "conjugate_by": "aB"},
    "seq.json": {"sequence": [{"context": _F2_CTX, "generators": ["a", "bbb"]},
                              {"context": _F2_CTX, "generators": ["a"]}],
                 "limit": {"context": _F2_CTX, "generators": ["a"]}},
    "latpair.json": {"pair": [{"context": {"kind": "lattice", "dim": 2}, "generators": [[1, 3]]},
                              {"context": {"kind": "lattice", "dim": 2}, "generators": [[2, 0]]}]},
    "lat.json": {"context": {"kind": "lattice", "dim": 2}, "generators": [[1, 3]],
                 "queries": [[2, 6], [1, 0]]},
    "fibers.json": {"subgroup": _ker_mod_4([0]), "over": _ker_mod_4([0, 2])},
    "task.json": {"context": _F2_CTX, "pairs": [{
        "source": {"ins": ["abab"], "outs": []}, "target": {"ins": ["BABA"], "outs": []},
        "source_witness": ["abab"], "target_witness": ["BABA"]}]},
    "folner.json": {"subgroup": _KER_Z, "sets": [["", "a", "A"]], "elements": ["a"],
                    "tolerances": ["1/100"]},
}
_REPORT_RUNS = [
    ["stallings", "even.json"],
    ["chabauty", "pair.json", "--radius", "8"],
    ["zd", "--enumerate", "2", "12"],
    ["schreier", "ker.json", "--radius", "10"],
    ["witness", "a.json", "--radius", "8"],
    ["transit", "--demo", "paired"],
    ["transit", "--demo", "obstruction"],
    ["folner", "--demo"],
    ["suite", "--only", "2,8"],
    ["stallings", "ops.json"],
    ["chabauty", "seq.json", "--radius", "4"],
    ["chabauty", "latpair.json", "--radius", "4"],
    ["zd", "lat.json"],
    ["schreier", "fibers.json", "--radius", "8"],
    ["witness", "lat.json", "--radius", "8"],
    ["transit", "task.json", "--budget-length", "1"],
    ["folner", "folner.json"],
]


def report_oracle(obj):
    """json_dumps_oracle with each edge-table leaf written as its dict form."""
    return json.dumps(obj, sort_keys=True, indent=2, default=specio.EdgeTable.as_dict) + "\n"


def test_canonical_json_matches_json_dumps_on_every_report_kind(tmp_path, monkeypatch, capsys):
    encode = specio.canonical_json
    reports = []

    def checked(obj):
        text = encode(obj)
        assert text == report_oracle(obj)
        reports.append(obj)
        return text

    monkeypatch.setattr(specio, "canonical_json", checked)
    monkeypatch.chdir(tmp_path)
    for name, doc in _REPORT_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for argv in _REPORT_RUNS:
        assert main(argv) in (0, 4), argv
        assert capsys.readouterr().out == report_oracle(reports[-1])
    assert len(reports) == len(_REPORT_RUNS)
    kinds = {key for report in reports for key in report["result"]}
    for key in ("subgroup", "membership", "completion", "intersection", "conjugate",
                "distance", "certification", "terms", "counts", "graph", "ends",
                "line_probe", "fibers", "witness", "certificate", "failure", "folner",
                "results", "rows"):
        assert key in kinds, key


F3 = free_group(3)


def _small_graphs(ctx):
    """Core graphs of a few short words: partial tables, or the trivial graph."""
    letters = st.sampled_from([x for g in range(1, ctx.rank + 1) for x in (g, -g)])
    words = st.lists(letters, max_size=6).map(reduce_word)
    return st.lists(words, max_size=3).map(lambda ws: from_generators(ctx, ws))


def _cycles(ctx, min_size):
    """⟨w⟩ for a positive word w with one b: w is no proper power, so its core
    graph is a cycle of |w| ≥ min_size vertices, with partial tables."""
    others = st.sampled_from([g for g in range(1, ctx.rank + 1) if g != 2])
    return st.lists(others, min_size=min_size - 1, max_size=min_size + 30).map(
        lambda xs: from_generators(ctx, [(*xs, 2)])
    )


def _cyclic_coverings(ctx, m):
    """The covering of ker(F → Z/m, a ↦ 1, others anywhere): m vertices."""
    others = st.lists(st.integers(0, m - 1), min_size=ctx.rank - 1, max_size=ctx.rank - 1)
    return others.map(lambda imgs: preimage(ctx, Target("cyclic", m), [1, *imgs], [0]))


def _permutation_coverings(ctx):
    perms = st.lists(st.permutations(range(5)), min_size=ctx.rank, max_size=ctx.rank)
    return perms.map(
        lambda imgs: preimage(ctx, Target("permutation", 5), imgs, [tuple(range(5))])
    )


core_graphs = st.one_of(
    [
        strategy
        for ctx in (F2, F3)
        for strategy in (
            _small_graphs(ctx),
            st.tuples(_small_graphs(ctx), st.integers(1, 3)).map(
                lambda hn: hall_completion(*hn)
            ),
            _cycles(ctx, 10),
            _cycles(ctx, 100),
            st.integers(1, 12).flatmap(lambda m, ctx=ctx: _cyclic_coverings(ctx, m)),
            _cyclic_coverings(ctx, 100),
            _permutation_coverings(ctx),
        )
    ]
)


@given(core_graphs)
@example(trivial_subgroup(F3))
@example(from_generators(F2, [(1,) * 11 + (2,)]))  # "10" < "2"
@example(from_generators(F2, [(1,) * 111 + (2,)]))  # "100" < "11"
@settings(max_examples=120, deadline=None)
def test_edge_table_leaf_renders_as_its_dict_form(G):
    edges = specio.json_of_graph(G)["edges"]
    for g, table in enumerate(edges):
        leaf = table[str(g + 1)]
        assert leaf.succ is G.edges[g + 1]
        for indent in (0, 2, 6):
            newline = "\n" + " " * indent
            text = json.dumps(leaf.as_dict(), sort_keys=True, indent=2)
            assert leaf.render(newline) == text.replace("\n", newline)
    assert specio.canonical_json({"edges": edges}) == report_oracle({"edges": edges})


def test_free_subgroup_round_trip():
    H = from_generators(F2, [parse_word("abab", F2), parse_word("bbA", F2)])
    doc = {"context": {"kind": "free", "rank": 2}, "generators": ["abab", "bbA"]}
    assert specio.subgroup_from_json(doc) == H


letters = st.sampled_from([1, -1, 2, -2])
gen_words = st.lists(letters, min_size=1, max_size=5).map(reduce_word)


@given(st.lists(gen_words, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_free_subgroup_round_trip_property(gs):
    H = from_generators(F2, gs)
    for words in (gs, H.basis()):
        doc = {"context": {"kind": "free", "rank": 2}, "generators": [format_word(x) for x in words]}
        assert specio.subgroup_from_json(doc) == H


def test_lattice_subgroup_round_trip():
    H = hnf_from_generators(3, [(2, 0, 1), (0, 3, 0)])
    doc = {"context": {"kind": "lattice", "rank": 3}, "generators": [[2, 0, 1], [0, 3, 0]]}
    assert specio.subgroup_from_json(doc) == H


def test_hom_subgroup_round_trip():
    ker = kernel(F2, Target("lattice", 2), [(1, 0), (0, 1)])
    doc = {
        "context": {"kind": "free", "rank": 2},
        "hom": {"target": {"kind": "lattice", "param": 2},
                "images": [[1, 0], [0, 1]], "accepted": "zero"},
    }
    assert specio.subgroup_from_json(doc) == ker
    # the images swapped and negated: the same subgroup, ab⁻¹(0)
    doc["hom"]["images"] = [[0, -1], [-1, 0]]
    assert specio.subgroup_from_json(doc) == ker


def test_one_finite_index_subgroup_from_every_kind_of_document():
    """⟨aa, b, abA⟩ compares equal, with equal hashes, whether a generator,
    a cyclic or a lattice document describes it."""
    free2 = {"kind": "free", "rank": 2}
    docs = [
        {"context": free2, "generators": ["aa", "b", "abA"]},
        {"context": free2, "hom": {"target": {"kind": "cyclic", "param": 2},
                                   "images": [1, 0], "accepted": [0]}},
        {"context": free2, "hom": {"target": {"kind": "lattice", "param": 1},
                                   "images": [[1], [0]], "accepted": {"generators": [[2]]}}},
        {"context": free2, "hom": {"target": {"kind": "lattice", "param": 2},
                                   "images": [[1, 3], [0, 2]],
                                   "accepted": {"generators": [[2, 0], [0, 1]]}}},
    ]
    even = from_generators(F2, [parse_word(t, F2) for t in ("aa", "b", "abA")])
    for doc in docs:
        H = specio.subgroup_from_json(doc)
        assert H == even and hash(H) == hash(even)
    assert preimage(F2, Target("lattice", 1), [(1,), (0,)], hnf_from_generators(1, [(2,)])) == even


def test_permutation_hom_round_trip():
    doc = {
        "context": {"kind": "free", "rank": 2},
        "hom": {"target": {"kind": "permutation", "param": 2},
                "images": [[1, 0], [0, 1]], "accepted": [[0, 1]]},
    }
    sub = specio.subgroup_from_json(doc)
    assert sub == preimage(F2, Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)])
    # the finite target parses to the covering: equal to the generator document
    assert sub == from_generators(F2, [parse_word(t, F2) for t in ("aa", "b", "abA")])


def test_word_parsing_rejects_wrong_shape():
    with pytest.raises(MalformedInputError):
        specio.word_from_json(["a"], F2)  # list given to a free context
    from chabauty_lab.words import lattice

    with pytest.raises(MalformedInputError):
        specio.word_from_json([1, 2, 3], lattice(2))  # wrong dimension


@pytest.mark.parametrize("kind", ["free", "lattice"])
def test_bool_rank_is_rejected(kind):
    with pytest.raises(MalformedInputError):
        specio.context_from_json({"kind": kind, "rank": True})
    with pytest.raises(MalformedInputError):
        specio.subgroup_from_json(
            {"context": {"kind": kind, "dim": True}, "generators": []}
        )
    with pytest.raises(MalformedInputError):
        GroupContext(kind, True)


def test_csv_text_quotes_and_terminates():
    text = specio.csv_text(["x", "note"], [(1, "plain"), (2, "has, comma")])
    lines = text.splitlines()
    assert lines[0] == "x,note"
    assert lines[2] == '2,"has, comma"'
    assert text.endswith("\n")


def _two_pair_task(source_a, source_b):
    pair = {"target": {"ins": ["ab"], "outs": ["ba"]},
            "source_witness": ["ab"], "target_witness": ["ab"]}
    return {"context": {"kind": "free", "rank": 2},
            "pairs": [{**pair, "source": source_a}, {**pair, "source": source_b}]}


def test_a_repeated_clopen_document_is_parsed_once(monkeypatch):
    """Equal word lists share one ClopenSet; the equal target sets too."""
    parsed = []
    clopen_from_json = specio.clopen_from_json
    monkeypatch.setattr(specio, "clopen_from_json",
                        lambda obj, ctx: parsed.append(obj) or clopen_from_json(obj, ctx))
    source = {"ins": ["ab"], "outs": ["b", "a"]}
    task = specio.task_from_json(_two_pair_task(source, dict(source)))
    assert task.sources[0] is task.sources[1]
    assert task.targets[0] is task.targets[1]
    assert len(parsed) == 2
    # the same words in another order are a separate document, with an
    # equal parse
    task = specio.task_from_json(_two_pair_task(source, {"ins": ["ab"], "outs": ["a", "b"]}))
    assert task.sources[0] is not task.sources[1]
    assert task.sources[0] == task.sources[1]


@pytest.mark.parametrize("bad, message", [
    ({"ins": ["ab"], "outs": ["b", 7]}, "expected a word string, got 7"),
    ({"ins": ["ab"], "outs": "ba"}, "clopen outs must be a list of words"),
    ({"ins": ["ab"], "outs": ["bx"]}, None),
])
def test_a_repeated_malformed_clopen_document_keeps_its_error(bad, message):
    """Documents that cannot be shared, or fail to parse, are read as
    before: each exit-2 message is that of the single document."""
    with pytest.raises(MalformedInputError) as alone:
        specio.task_from_json(_two_pair_task({"ins": ["ab"], "outs": ["b"]}, bad))
    with pytest.raises(MalformedInputError) as twice:
        specio.task_from_json(_two_pair_task(bad, dict(bad)))
    assert str(alone.value) == str(twice.value)
    if message is not None:
        assert message in str(alone.value)


# ── DOT artifacts ─────────────────────────────────────────────────────────────

# Texts written by the two graph classes' own DOT writers before the one
# writer replaced them; the Schreier vertices go by their numbers.
_GOLDEN_CORE_A2_B_ABA = (
    'digraph stallings {\n  rankdir=LR;\n  0 [shape=doublecircle];\n  1 [shape=circle];\n'
    '  0 -> 1 [label="a"];\n  1 -> 0 [label="a"];\n  0 -> 0 [label="b"];\n'
    '  1 -> 1 [label="b"];\n}\n'
)
_GOLDEN_SCHREIER_A2_B_ABA = (
    'digraph schreier {\n  rankdir=LR;\n  0 [shape=doublecircle];\n  1 [shape=circle];\n'
    '  0 -> 1 [label="a"];\n  1 -> 0 [label="a"];\n  0 -> 0 [label="b"];\n'
    '  1 -> 1 [label="b"];\n}\n'
)
_GOLDEN_SCHREIER_KER_R3 = (
    'digraph schreier {\n  rankdir=LR;\n  0 [shape=doublecircle];\n'
    '  1 [shape=circle];\n  2 [shape=circle];\n  3 [shape=circle];\n  4 [shape=circle];\n'
    '  5 [shape=circle, color=gray];\n  6 [shape=circle, color=gray];\n'
    '  0 -> 1 [label="a"];\n  1 -> 3 [label="a"];\n  2 -> 0 [label="a"];\n'
    '  3 -> 5 [label="a"];\n  4 -> 2 [label="a"];\n  6 -> 4 [label="a"];\n'
    '  0 -> 0 [label="b"];\n  1 -> 1 [label="b"];\n  2 -> 2 [label="b"];\n'
    '  3 -> 3 [label="b"];\n  4 -> 4 [label="b"];\n  5 -> 5 [label="b"];\n'
    '  6 -> 6 [label="b"];\n}\n'
)
_GOLDEN_CORE_RANK_27 = (
    'digraph stallings {\n  rankdir=LR;\n  0 [shape=doublecircle];\n  1 [shape=circle];\n'
    '  0 -> 0 [label="a"];\n  0 -> 1 [label="x27"];\n  1 -> 0 [label="x27"];\n}\n'
)


def test_dot_artifacts_match_their_golden_text():
    from chabauty_lab.schreier import build

    H = from_generators(F2, [parse_word(w, F2) for w in ("aa", "b", "abA")])
    assert specio.dot_of_graph(H) == _GOLDEN_CORE_A2_B_ABA
    assert specio.dot_of_schreier(build(H, 2)) == _GOLDEN_SCHREIER_A2_B_ABA
    ker = kernel(F2, Target("lattice", 1), [(1,), (0,)])
    assert specio.dot_of_schreier(build(ker, 3)) == _GOLDEN_SCHREIER_KER_R3
    G = from_generators(free_group(27), [(27, 27), (1,)])
    assert specio.dot_of_graph(G) == _GOLDEN_CORE_RANK_27


def test_schreier_dot_spells_every_representative():
    """rep(v) reads off schreier.dot: v's BFS parent p is its least-numbered
    neighbour, and rep(v) is rep(p) and the first letter, in the order a, A,
    b, B, …, that takes p to v (x for an edge p -> v labelled x, x⁻¹ for an
    edge v -> p labelled x)."""
    import re

    from chabauty_lab.schreier import build

    F27 = free_group(27)
    for H, radius in (
        (from_generators(F2, [parse_word(w, F2) for w in ("aa", "b", "abA")]), 2),
        (from_generators(F2, [parse_word("abA", F2)]), 3),
        (kernel(F2, Target("lattice", 1), [(1,), (0,)]), 3),
        (from_generators(F27, [(27, 1)]), 1),
    ):
        S = build(H, radius)
        letter_of = {specio._dot_letter(g): g for g in range(1, S.ctx.rank + 1)}
        edges = re.findall(r'(\d+) -> (\d+) \[label="(\w+)"\]', specio.dot_of_schreier(S))
        reps = {0: ()}
        for v in range(1, S.nverts):
            steps = [(int(u), letter_of[x]) for u, w, x in edges if int(w) == v]
            steps += [(int(w), -letter_of[x]) for u, w, x in edges if int(u) == v]
            p = min(u for u, _ in steps)
            x = min((x for u, x in steps if u == p), key=lambda x: (abs(x), x < 0))
            reps[v] = reps[p] + (x,)
        assert reps == {v: S.rep(v) for v in range(S.nverts)}


def test_cli_writes_the_golden_dot_artifacts(capsys, tmp_path):
    ker = {"context": {"kind": "free", "rank": 2},
           "hom": {"target": {"kind": "lattice", "param": 1}, "images": [[1], [0]],
                   "accepted": "zero"}}
    H = {"context": {"kind": "free", "rank": 2}, "generators": ["aa", "b", "abA"]}
    for name, doc, argv, artifact, golden in (
        ("ker", ker, ["schreier", "--radius", "3"], "schreier.dot", _GOLDEN_SCHREIER_KER_R3),
        ("h", H, ["schreier", "--radius", "2"], "schreier.dot", _GOLDEN_SCHREIER_A2_B_ABA),
        ("h", H, ["stallings"], "core.dot", _GOLDEN_CORE_A2_B_ABA),
    ):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / f"out-{argv[0]}-{name}"
        assert main([*argv, str(spec), "--out", str(out)]) == 0
        assert (out / artifact).read_text(encoding="utf-8") == golden
    capsys.readouterr()
