"""Truncated Chabauty metric: traces, clopen sets, distances, certification.

The Chabauty topology on the space of subgroups of a countable group is
metrized (after fixing the word/norm filtration) by d(H, K) = 2^(−ρ) where ρ
is the smallest radius at which the traces H ∩ B(ρ) and K ∩ B(ρ) differ. At
any finite working radius L the computable quantity is the truncation: either
the exact distance (when a distinguishing element of size ≤ L exists) or the
upper bound 2^(−(L+1)).

A subgroup here is anything *membership-capable*: it carries a `.ctx`
(ambient group) and a `.contains(element)` predicate. Stallings graphs,
homomorphism-defined subgroups, and HNF sublattices all qualify, so the same
trace/distance/certification code serves F_r and Z^d.

Subgroups of free groups are moreover membership automata (`start`,
`step(state, letter)`, `accepting(state)`), so their distances come from a
breadth-first search over product states instead of a scan of the word ball:
the cost is bounded by the number of reachable state pairs, not by the
exponentially many words. Z^d distances scan the L¹ ball.

Convergence certificates are decidable statements about finite sequences:
`certify_convergence` reports the least index from which every term agrees
with the limit on the radius-L ball, or a concrete distinguishing witness if
the agreement never settles. It is read off the per-term distances.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence

from . import zdlattice
from .budgets import Budget, current
from .errors import MalformedInputError
from .words import (
    GroupContext,
    Word,
    iter_ball,
    require_same_context,
    sorted_words,
)


# ── traces ───────────────────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class SubgroupTrace:
    """H ∩ B(radius), members in canonical order.

    Contains the identity and is closed under inversion within the ball —
    both inherited from H being a subgroup and balls being symmetric.
    """

    ctx: GroupContext
    radius: int
    members: tuple


def trace(H, radius: int, budget: Budget | None = None) -> SubgroupTrace:
    """The trace of a membership-capable subgroup on the ball of the given
    radius, in canonical enumeration order."""
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    ctx = H.ctx
    if ctx.kind == "free":
        members = tuple(x for x in iter_ball(ctx.rank, radius, budget) if H.contains(x))
    else:
        members = tuple(zdlattice.members_in_ball(H, radius, budget))
    return SubgroupTrace(ctx, radius, members)


# ── clopen sets ──────────────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class ClopenSet:
    """𝒱(ins, outs) = {H : ins ⊆ H, H ∩ outs = ∅} — the basic clopen sets of
    the Chabauty topology. Its words are canonicalized at construction:
    `ins` and `outs` are sorted by `word_key` and deduplicated.

    `trivially_empty` flags ins ∩ outs ≠ ∅ at construction (no subgroup can
    both contain and avoid an element). The set can be empty for deeper
    reasons — exactly when ⟨ins⟩ meets outs — which `in_clopen` callers check
    where it matters (task validation).
    """

    ins: tuple
    outs: tuple
    trivially_empty: bool = dataclasses.field(init=False)
    # The out-words in plain tuple order, so that words sharing a prefix sit
    # together, and each one's longest common prefix with its predecessor:
    # what `_meets` walks.
    outs_lex: tuple = dataclasses.field(init=False, repr=False, compare=False)
    outs_lcp: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ins, outs = set(self.ins), set(self.outs)
        object.__setattr__(self, "ins", tuple(sorted_words(ins)))
        object.__setattr__(self, "outs", tuple(sorted_words(outs)))
        object.__setattr__(self, "trivially_empty", bool(ins & outs))
        lex = sorted(self.outs)
        object.__setattr__(self, "outs_lex", tuple(lex))
        object.__setattr__(
            self,
            "outs_lcp",
            tuple(_common_prefix(u, v) for u, v in zip([()] + lex, lex)),
        )


def _common_prefix(u: Word, v: Word) -> int:
    n = 0
    while n < len(u) and n < len(v) and u[n] == v[n]:
        n += 1
    return n


clopen = ClopenSet


def in_clopen(H, V: ClopenSet) -> bool:
    """H ∈ 𝒱(ins, outs), for H a membership automaton over a free group."""
    return all(H.contains(w) for w in V.ins) and not _meets(H, V)


def _meets(H, V: ClopenSet) -> bool:
    """Whether H contains some out-word of V, in one pass of H's automaton
    over the out-words in tuple order.

    `states[k]` is the state after the first k letters of the last walked
    word, and each word resumes from its common prefix with its predecessor.
    If the last walk left the automaton after `reach` letters, a word whose
    common prefix exceeds `reach` has the failing letter in the same place
    and is skipped; the next word's common prefix with a skipped word is
    also its common prefix with the last walked word.
    """
    step, accepting = H.step, H.accepting
    states = [H.start]
    reach = 0
    for w, lcp in zip(V.outs_lex, V.outs_lcp):
        if lcp > reach:
            continue
        del states[lcp + 1:]
        s = states[lcp]
        for x in w[lcp:]:
            s = step(s, x)
            if s is None:
                break
            states.append(s)
        reach = len(states) - 1
        if reach == len(w) and accepting(s):
            return True
    return False


# ── truncated distance ───────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class DistanceBound:
    """Result of a radius-L distance computation. kind = "exact": the traces
    first differ at `exponent` ≤ L and `witness` is the canonically-least
    distinguishing element; kind = "at_most": agreement through L, so the
    distance is ≤ 2^(−(L+1)) = 2^(−exponent)."""

    kind: str
    exponent: int
    witness: object | None = None

    @property
    def value(self) -> Fraction:
        return Fraction(1, 2 ** self.exponent)


def distance_up_to(H, K, radius: int, budget: Budget | None = None) -> DistanceBound:
    """Truncated Chabauty distance: the canonically-least element of the ball
    on which H and K disagree, found by product-automaton BFS in free groups
    and by comparing the canonically ordered lattice balls in Z^d."""
    require_same_context(H.ctx, K.ctx, "distance")
    if H.ctx.kind == "free":
        return _product_distance(H, K, radius, budget or current())
    x = zdlattice.first_difference_in_ball(H, K, radius, budget)
    if x is None:
        return DistanceBound("at_most", radius + 1)
    return DistanceBound("exact", sum(abs(c) for c in x), x)


def _product_distance(H, K, radius: int, budget: Budget) -> DistanceBound:
    """BFS over product states (u|⊥, v|⊥, last letter), one level per word
    length.

    Each level extends the previous frontier in canonical letter order, so it
    lists its words in canonical order; keeping only the first word to reach
    each state keeps the canonically-least witness, because any word through
    an already-reached state has a smaller twin that ends in the same state.
    A state where both walks have left their automata (⊥, ⊥) can never
    separate H from K and is dropped. The search stops at the radius or once a
    level adds no new state, and it never visits more states than the ball
    has words. The states are kept in one list in the order they are
    reached, each with the index of the state it was reached from; the
    witness is read back along those links once it is found.

    One budget rule holds for every pair at every radius: after each level,
    the states reached answer to `vertex_cap`. Two core graphs have at most
    (|V_H|+1)(|V_K|+1)·2r states, and a HomSubgroup ab⁻¹(L)'s states are
    the residues of ab(w) modulo L, polynomially many in the radius (a
    lattice preimage of finite index is a covering).
    """
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    letters = H.ctx.letters
    h_step, k_step = H.step, K.step
    h_accepting, k_accepting = H.accepting, K.accepting
    states = [(H.start, K.start, 0)]
    back = [-1]  # back[i]: the index of the state states[i] was reached from
    seen = set(states)
    begin = 0  # the current level is states[begin:]
    for length in range(1, radius + 1):
        end = len(states)
        for i in range(begin, end):
            u, v, last = states[i]
            for x in letters:
                if x == -last:
                    continue
                a = None if u is None else h_step(u, x)
                b = None if v is None else k_step(v, x)
                if a is None and b is None:
                    continue
                state = (a, b, x)
                if state in seen:
                    continue
                seen.add(state)
                if (a is not None and h_accepting(a)) != (
                    b is not None and k_accepting(b)
                ):
                    witness = [x]
                    while i:
                        witness.append(states[i][2])
                        i = back[i]
                    return DistanceBound("exact", length, tuple(reversed(witness)))
                states.append(state)
                back.append(i)
        if len(states) == end:
            break
        if len(seen) > budget.vertex_cap:
            raise budget.exceeded("vertex_cap", "graph vertices", len(seen))
        begin = end
    return DistanceBound("at_most", radius + 1)


# ── convergence certification ────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class Certification:
    """kind = "certified": every term from n0 (1-based) on agrees with the
    limit on B(radius). kind = "fails": the disagreement reaches the final
    term; `index` is the start of that final disagreeing run and `witness`
    the canonically-least element distinguishing term `index` from the limit."""

    kind: str
    radius: int
    n0: int | None = None
    witness: object | None = None
    index: int | None = None

    def certified(self) -> bool:
        return self.kind == "certified"


def certify_convergence(
    seq: Sequence, limit, radius: int, budget: Budget | None = None
) -> Certification:
    """Decide, on the radius-L ball, whether the tail of `seq` has settled on
    the limit."""
    return certify_bounds(
        [distance_up_to(term, limit, radius, budget) for term in seq], radius
    )


def certify_bounds(bounds: Sequence[DistanceBound], radius: int) -> Certification:
    """Certification from per-term distances to the limit at one radius: a
    term agrees with the limit on B(radius) iff its bound is "at_most"."""
    if not bounds:
        raise MalformedInputError("cannot certify an empty sequence")
    agree = [b.kind == "at_most" for b in bounds]
    if agree[-1]:
        n0 = len(agree)
        while n0 > 1 and agree[n0 - 2]:
            n0 -= 1
        return Certification("certified", radius, n0=n0)
    start = len(agree)
    while start > 1 and not agree[start - 2]:
        start -= 1
    return Certification(
        "fails", radius, witness=bounds[start - 1].witness, index=start
    )
