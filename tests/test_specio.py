"""JSON document round trips for subgroups, tasks, and reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_lab import specio
from chabauty_lab.errors import MalformedInputError
from chabauty_lab.stallings import HomSubgroup, Target, from_generators, kernel
from chabauty_lab.words import GroupContext, free_group, parse_word, reduce_word
from chabauty_lab.zdlattice import hnf_from_generators

F2 = free_group(2)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = specio.canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert specio.canonical_json({"a": 1}) == specio.canonical_json({"a": 1})


def test_free_subgroup_round_trip():
    H = from_generators(F2, [parse_word("abab", F2), parse_word("bbA", F2)])
    doc = specio.json_of_subgroup(H)
    assert specio.subgroup_from_json(doc) == H


letters = st.sampled_from([1, -1, 2, -2])
gen_words = st.lists(letters, min_size=1, max_size=5).map(reduce_word)


@given(st.lists(gen_words, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_free_subgroup_round_trip_property(gs):
    H = from_generators(F2, gs)
    assert specio.subgroup_from_json(specio.json_of_subgroup(H)) == H


def test_lattice_subgroup_round_trip():
    H = hnf_from_generators(3, [(2, 0, 1), (0, 3, 0)])
    doc = specio.json_of_subgroup(H)
    assert specio.subgroup_from_json(doc) == H


def test_hom_subgroup_round_trip():
    ker = kernel(F2, Target("lattice", 2), [(1, 0), (0, 1)])
    doc = specio.json_of_subgroup(ker)
    assert specio.subgroup_from_json(doc) == ker
    even = HomSubgroup(
        F2,
        Target("lattice", 1),
        [(1,), (0,)],
        hnf_from_generators(1, [(2,)]),
    )
    assert specio.subgroup_from_json(specio.json_of_subgroup(even)) == even


def test_permutation_hom_round_trip():
    sub = HomSubgroup(F2, Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)])
    assert specio.subgroup_from_json(specio.json_of_subgroup(sub)) == sub


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
