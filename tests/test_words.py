"""Word arithmetic and canonically ordered balls.

Expected constants below were computed independently: ball sizes from the
closed form 1 + 2r·((2r-1)^L - 1)/(2r-2), orderings by hand from the
(length, letter-lex) rule with a < a⁻¹ < b < b⁻¹.
"""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chabauty_lab.errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
)
from chabauty_lab.words import (
    IDENTITY,
    ball,
    check_word,
    ball_size,
    conjugate,
    format_word,
    free_group,
    graded_ball,
    graded_length,
    invert,
    iter_lattice_ball,
    lattice,
    multiply,
    parse_word,
    power,
    reduce_word,
    sorted_words,
    word_key,
)

F2 = free_group(2)

letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, max_size=10).map(tuple)
reduced_words = raw_words.map(reduce_word)


# ── parsing and formatting ───────────────────────────────────────────────────


def test_parse_basic():
    assert parse_word("abA", F2) == (1, 2, -1)
    assert parse_word("", F2) == IDENTITY
    assert parse_word("aA", F2) == IDENTITY  # parsing reduces


def test_parse_rejects_out_of_range():
    with pytest.raises(MalformedInputError):
        parse_word("abc", F2)  # c needs rank 3
    with pytest.raises(MalformedInputError):
        parse_word("a!b", F2)


def test_format_inverse_case():
    assert format_word((1, -2, 1)) == "aBa"
    assert format_word(IDENTITY) == ""


@given(reduced_words)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w), F2) == w


# The per-letter loops parse_word and format_word ran before their tables,
# kept as the oracles of the table-driven versions.


def parse_word_oracle(text, ctx=None):
    if not isinstance(text, str):
        raise MalformedInputError(f"expected a word string, got {type(text).__name__}")
    letters = []
    for ch in text:
        if ch in string.ascii_lowercase:
            letters.append(string.ascii_lowercase.index(ch) + 1)
        elif ch in string.ascii_uppercase:
            letters.append(-(string.ascii_uppercase.index(ch) + 1))
        else:
            raise MalformedInputError(f"bad character {ch!r} in word {text!r}")
    w = reduce_word(letters)
    if ctx is not None:
        check_word(w, ctx)
    return w


def format_word_oracle(w):
    out = []
    for x in w:
        i = abs(x) - 1
        if i >= 26:
            raise MalformedInputError("text form supports at most 26 generators")
        out.append(string.ascii_lowercase[i] if x > 0 else string.ascii_uppercase[i])
    return "".join(out)


def outcome(fn, *args):
    """A call's value, or the message of the MalformedInputError it raised."""
    try:
        return "value", fn(*args)
    except MalformedInputError as exc:
        return "error", str(exc)


ranks = st.integers(min_value=1, max_value=26)


def letters_of_rank(rank):
    return st.integers(min_value=1, max_value=rank).flatmap(lambda i: st.sampled_from([i, -i]))


words_with_rank = ranks.flatmap(
    lambda r: st.tuples(st.just(r), st.lists(letters_of_rank(r), max_size=30).map(tuple))
)


@given(words_with_rank)
@settings(max_examples=300)
def test_word_text_matches_the_per_letter_oracles(rank_and_letters):
    rank, letters = rank_and_letters
    ctx = free_group(rank)
    text = format_word(letters)
    assert text == format_word_oracle(letters)
    w = parse_word(text, ctx)
    assert w == parse_word_oracle(text, ctx) == reduce_word(letters)
    assert parse_word(format_word(w), ctx) == w
    assert format_word(w) == format_word_oracle(w)


@given(
    st.text(alphabet=string.ascii_letters + "1 !é_\n", max_size=20),
    st.sampled_from([None, 1, 2, 5, 26]),
)
@example("ab1A", 2)
@example("aZz", 2)  # reduces to "a": the rank is checked after reduction
@example("abc", 2)
@settings(max_examples=300)
def test_parse_word_errors_match_the_oracle(text, rank):
    ctx = None if rank is None else free_group(rank)
    assert outcome(parse_word, text, ctx) == outcome(parse_word_oracle, text, ctx)


@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 27, 0, True, 1.0]), max_size=8),
    st.sampled_from([None, 1, 2, 3]),
)
@example([3, 1, -3], 2)  # an out-of-rank letter that survives
@example([3, -3, 1], 2)  # an out-of-rank pair that cancels
@example([3, 0], 2)  # the zero is reported, though the 3 comes first
@settings(max_examples=300)
def test_reduce_word_with_context_matches_reduce_then_check(letters, rank):
    ctx = None if rank is None else free_group(rank)

    def reduce_then_check(ls, ctx):
        w = reduce_word(ls)
        return w if ctx is None else check_word(w, ctx)

    assert outcome(reduce_word, letters, ctx) == outcome(reduce_then_check, letters, ctx)


def test_reduce_word_checks_the_context_kind_first():
    with pytest.raises(ContextMismatchError):
        reduce_word([0], lattice(2))
    with pytest.raises(ContextMismatchError):
        parse_word("ab", lattice(2))


def test_word_text_error_messages():
    assert outcome(parse_word, "ab1A") == ("error", "bad character '1' in word 'ab1A'")
    assert outcome(parse_word, 5) == ("error", "expected a word string, got int")
    for letter in (27, -27, 40):
        assert outcome(format_word, (1, letter)) == outcome(format_word_oracle, (1, letter))
        assert outcome(format_word, (letter,))[0] == "error"
    assert format_word(tuple(range(1, 27))) == string.ascii_lowercase
    assert format_word(tuple(range(-1, -27, -1))) == string.ascii_uppercase


# ── group laws (the reduction is the normal form of F_2) ─────────────────────


@given(raw_words)
def test_reduce_idempotent(w):
    assert reduce_word(reduce_word(w)) == reduce_word(w)


@given(raw_words)
def test_no_adjacent_cancellation_after_reduce(w):
    r = reduce_word(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))


@given(reduced_words)
def test_inverse_law(w):
    assert multiply(w, invert(w)) == IDENTITY
    assert multiply(invert(w), w) == IDENTITY


@given(reduced_words, reduced_words, reduced_words)
@settings(max_examples=60)
def test_associativity(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(reduced_words, st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_multiply(w, n):
    expected = IDENTITY
    for _ in range(abs(n)):
        expected = multiply(expected, w if n > 0 else invert(w))
    assert power(w, n) == expected


def test_conjugate():
    # the convention is g·w·g⁻¹
    assert conjugate((1,), (2,)) == (2, 1, -2)
    assert conjugate((1,), (1,)) == (1,)


# ── canonical ball enumeration ───────────────────────────────────────────────


def test_ball_radius_two_prefix_and_size():
    B = ball(F2, 2)
    assert B[:5] == [(), (1,), (-1,), (2,), (-2,)]
    assert len(B) == 17  # 1 + 4 + 12


def test_ball_is_canonically_sorted_and_reduced():
    B = ball(F2, 3)
    assert B == sorted_words(B)
    assert all(reduce_word(w) == w for w in B)
    assert len(set(B)) == len(B)


@pytest.mark.parametrize("rank", [1, 2, 3, 27])
def test_context_letters_are_the_canonical_letter_order(rank):
    """`letters` lists every letter once, in `word_key` order: a, A, b, B, …"""
    ctx = free_group(rank)
    assert ctx.letters == tuple(x for g in range(1, rank + 1) for x in (g, -g))
    assert list(ctx.letters) == sorted(ctx.letters, key=lambda x: word_key((x,)))
    assert ctx.letters is ctx.letters  # built once
    assert [w[0] for w in ball(ctx, 1)[1:]] == list(ctx.letters)


def test_ball_size_closed_form():
    # 1 + 2r((2r-1)^L - 1)/(2r-2) for r = 2: 1 + 2(3^L - 1)
    for L in range(6):
        assert ball_size(2, L) == 1 + 2 * (3**L - 1)
    assert len(ball(F2, 4)) == ball_size(2, 4)


def test_ball_respects_budget_cap():
    with pytest.raises(BudgetExceededError):
        ball(F2, 99)


def test_lattice_ball_is_l1_ball():
    pts = list(iter_lattice_ball(2, 1))
    assert len(pts) == 5  # origin plus the four unit vectors
    assert (0, 0) in pts and (1, 0) in pts and (0, -1) in pts
    assert (1, -1) not in pts  # L¹ norm 2
    # |{v : |v|_1 <= n}| = 2n² + 2n + 1 in Z²
    assert len(list(iter_lattice_ball(2, 2))) == 13


def test_word_key_orders_by_length_then_letters():
    ws = [(2,), (1, 1), (-1,), (1,)]
    assert sorted(ws, key=word_key) == [(1,), (-1,), (2,), (1, 1)]


# ── graded filtration (for the free variety) ─────────────────────────────────


def test_graded_length_weights_letters_by_generator_index():
    assert graded_length((1, 2)) == 3  # weight(a) + weight(b) = 1 + 2
    assert graded_length((5,)) == 5
    assert graded_length(IDENTITY) == 0


def test_graded_ball_small():
    B = graded_ball(2)
    assert IDENTITY in B and (1,) in B and (2,) in B and (1, 1) in B
    assert all(graded_length(w) <= 2 for w in B)
    assert (3,) not in B
