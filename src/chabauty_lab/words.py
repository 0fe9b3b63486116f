"""Reduced words in free groups, and the enumeration orders everything else
relies on.

A word is a tuple of nonzero ints: letter ``+i`` is the i-th generator
(1-based), ``-i`` its inverse. Text form uses ``a b c ...`` for generators and
``A B C ...`` for inverses, so ``"abA"`` is a·b·a⁻¹. The empty tuple is the
identity.

Canonical order, used for every enumeration, trace, and search in the package:
words are compared by length first, then letter-by-letter with the letter
order a < a⁻¹ < b < b⁻¹ < ··· . Determinism everywhere downstream (folding
names, trace members, search transcripts) reduces to this single definition.

The module also provides the two other ambient enumerations: L¹ balls of Z^d
(ordered by norm, then lexicographically), and graded balls of F_∞ where the
i-th generator has weight i (so balls are finite even with infinitely many
generators available).
"""

from __future__ import annotations

import itertools
import string
from typing import Iterable, Iterator

from .budgets import Budget, current
from .errors import BudgetExceededError, ContextMismatchError, MalformedInputError

Word = tuple[int, ...]
Vector = tuple[int, ...]

IDENTITY: Word = ()


# ── ambient group contexts ───────────────────────────────────────────────────


class GroupContext:
    """Ambient group: free of finite rank, or the lattice Z^d.

    Two contexts are interchangeable only if equal; operations that combine
    subgroups check this and raise ContextMismatchError otherwise.
    """

    __slots__ = ("kind", "rank")

    def __init__(self, kind: str, rank: int):
        if kind not in ("free", "lattice"):
            raise MalformedInputError(f"unknown context kind {kind!r}")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise MalformedInputError("rank/dim must be a positive integer")
        self.kind = kind
        self.rank = rank

    def __eq__(self, other):
        return (
            isinstance(other, GroupContext)
            and self.kind == other.kind
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        if self.kind == "free":
            return f"FreeGroup({self.rank})"
        return f"Lattice(Z^{self.rank})"


def free_group(rank: int) -> GroupContext:
    return GroupContext("free", rank)


def lattice(dim: int) -> GroupContext:
    return GroupContext("lattice", dim)


def require_same_context(a: GroupContext, b: GroupContext, op: str) -> None:
    if a != b:
        raise ContextMismatchError(f"{op}: contexts differ ({a!r} vs {b!r})")


# ── free reduction and group operations ──────────────────────────────────────


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce: cancel adjacent x·x⁻¹ pairs until none remain.

    One stack pass suffices — a new cancellation can only appear at the top of
    the stack, so every letter is pushed/popped at most once.
    """
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise MalformedInputError(f"letters must be nonzero integers, got {x!r}")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def multiply(u: Word, v: Word) -> Word:
    """Product of two *reduced* words; cancellation only happens at the seam."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def conjugate(w: Word, g: Word) -> Word:
    """g·w·g⁻¹ (reduced)."""
    return multiply(multiply(g, w), invert(g))


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(invert(w), -n)
    out: Word = IDENTITY
    for _ in range(n):
        out = multiply(out, w)
    return out


# ── canonical order ──────────────────────────────────────────────────────────


def word_key(w: Word):
    """Shortlex key: length, then letters ranked a < A < b < B < … (letter x
    has rank 2x − 1 if x > 0, and 2|x| if x < 0)."""
    return (len(w), tuple([2 * x - 1 if x > 0 else -2 * x for x in w]))


def sorted_words(ws: Iterable[Word]) -> list[Word]:
    return sorted(ws, key=word_key)


# ── text form ────────────────────────────────────────────────────────────────

_LOWER = string.ascii_lowercase
_UPPER = string.ascii_uppercase


def parse_word(text: str, ctx: GroupContext | None = None) -> Word:
    """Parse ``"abA"`` → (1, 2, -1), validating letters against ctx when given."""
    if not isinstance(text, str):
        raise MalformedInputError(f"expected a word string, got {type(text).__name__}")
    letters = []
    for ch in text:
        if ch in _LOWER:
            letters.append(_LOWER.index(ch) + 1)
        elif ch in _UPPER:
            letters.append(-(_UPPER.index(ch) + 1))
        else:
            raise MalformedInputError(f"bad character {ch!r} in word {text!r}")
    w = reduce_word(letters)
    if ctx is not None:
        check_word(w, ctx)
    return w


def format_word(w: Word) -> str:
    """Inverse of parse_word; the identity prints as the empty string."""
    out = []
    for x in w:
        i = abs(x) - 1
        if i >= 26:
            raise MalformedInputError("text form supports at most 26 generators")
        out.append(_LOWER[i] if x > 0 else _UPPER[i])
    return "".join(out)


def check_word(w: Word, ctx: GroupContext) -> Word:
    if ctx.kind != "free":
        raise ContextMismatchError("words live in free-group contexts")
    for x in w:
        if not isinstance(x, int) or x == 0 or abs(x) > ctx.rank:
            raise MalformedInputError(
                f"letter {x!r} outside rank-{ctx.rank} free group"
            )
    return w


# ── ball enumerations ────────────────────────────────────────────────────────


def iter_ball(rank: int, radius: int, budget: Budget | None = None) -> Iterator[Word]:
    """All reduced words of length ≤ radius in canonical order.

    Breadth-first: each sphere is produced by extending the previous one with
    every non-cancelling letter in letter order, which yields the canonical
    (length, lex) order without sorting.
    """
    budget = budget or current()
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    if radius > budget.ball_radius_cap:
        raise BudgetExceededError("ball radius", budget.ball_radius_cap, radius)
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    yield IDENTITY
    sphere: list[Word] = [IDENTITY]
    for _ in range(radius):
        nxt: list[Word] = []
        for w in sphere:
            last = w[-1] if w else 0
            for x in letters:
                if x != -last:
                    nw = w + (x,)
                    nxt.append(nw)
                    yield nw
        sphere = nxt


def ball(ctx: GroupContext, radius: int, budget: Budget | None = None) -> list:
    """Ordered ball: reduced words (free) or L¹-ball vectors (lattice)."""
    if ctx.kind == "free":
        return list(iter_ball(ctx.rank, radius, budget))
    return list(iter_lattice_ball(ctx.rank, radius))


def ball_size(rank: int, radius: int) -> int:
    """|B(1)| = 1 + Σ_{k=1..L} 2r·(2r−1)^{k−1} — the sphere recursion in closed form."""
    total = 1
    for k in range(1, radius + 1):
        total += 2 * rank * (2 * rank - 1) ** (k - 1)
    return total


def iter_lattice_ball(dim: int, radius: int) -> Iterator[Vector]:
    """Vectors of Z^d with L¹ norm ≤ radius, by norm then lexicographically."""
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    for n in range(radius + 1):
        shell: list[Vector] = []
        for mags in _compositions(n, dim):
            signs = [(1, -1) if m else (1,) for m in mags]
            for sgn in itertools.product(*signs):
                shell.append(tuple(s * m for s, m in zip(sgn, mags)))
        shell.sort()
        yield from shell


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of given length summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


# ── graded balls of F_∞ ──────────────────────────────────────────────────────


def graded_length(w: Word) -> int:
    """Weight of a word when generator i carries weight i (so only finitely
    many reduced words exist below any given weight, even over F_∞)."""
    return sum(abs(x) for x in w)


def graded_ball(radius: int) -> list[Word]:
    """Reduced words of graded length ≤ radius, in (weight, length, lex) order."""
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    out: list[Word] = []

    def grow(w: Word, weight: int):
        out.append(w)
        last = w[-1] if w else 0
        for i in range(1, radius - weight + 1):
            for x in (i, -i):
                if x != -last:
                    grow(w + (x,), weight + i)

    grow(IDENTITY, 0)
    out.sort(key=lambda w: (graded_length(w), *word_key(w)))
    return out
