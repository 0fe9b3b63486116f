"""The ball metric on subgroup space: traces, distances, certificates.

d(H, K) = 2^(-n) where n is the least word length at which the subgroups
disagree. A radius-L scan either finds that least length exactly (kind
"exact") or proves d ≤ 2^-(L+1) (kind "at_most"). Frozen fixtures:

* ⟨a⟩ and ⟨a, b²ab⁻²⟩ first disagree at b²ab⁻² (length 5): d = 2^-5.
* ⟨a, bⁿ⟩ → ⟨a⟩: at radius 6, terms n ≥ 7 are indistinguishable, so the
  tail is certified from n₀ = 7.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chabauty_lab.budgets import Budget
from chabauty_lab.chabauty import (
    Certification,
    ClopenSet,
    DistanceBound,
    _meets,
    certify_convergence,
    clopen,
    distance_up_to,
    in_clopen,
    trace,
)
from chabauty_lab.errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
)
from chabauty_lab.specio import json_of_clopen
from chabauty_lab.stallings import (
    HomSubgroup,
    StallingsGraph,
    Target,
    _traces_agree,
    coset_automaton,
    from_generators,
    hall_completion,
    preimage,
)
from chabauty_lab.words import (
    ball,
    free_group,
    iter_ball,
    iter_lattice_ball,
    parse_word,
    reduce_word,
)
from chabauty_lab.zdlattice import hnf_from_generators
from hom_oracle import lattice_documents, lattice_forms

F2 = free_group(2)


def w(t):
    return parse_word(t, F2)


def gens(*texts):
    return from_generators(F2, [w(t) for t in texts])


# ── traces ───────────────────────────────────────────────────────────────────


def test_trace_of_cyclic_subgroup():
    t = trace(gens("a"), 2)
    # members come back in canonical (length, letter-lex) order
    assert t.members == ((), (1,), (-1,), (1, 1), (-1, -1))
    assert t.radius == 2
    assert (1,) in t.members and (2,) not in t.members


def test_trace_respects_radius_monotonicity():
    H = gens("ab", "ba")
    t3, t5 = trace(H, 3), trace(H, 5)
    assert set(t3.members) <= set(t5.members)
    assert all(len(v) <= 3 for v in t3.members)


def test_lattice_trace():
    L = hnf_from_generators(2, [(2, 0), (0, 2)])
    t = trace(L, 2)
    assert (0, 0) in t.members and (2, 0) in t.members
    assert (1, 0) not in t.members and (1, 1) not in t.members


# ── distances ────────────────────────────────────────────────────────────────


def test_distance_exact_with_witness():
    b = distance_up_to(gens("a"), gens("a", "bbaBB"), 8)
    assert b.kind == "exact"
    assert b.exponent == 5
    assert b.witness == w("bbaBB")
    assert b.value == Fraction(1, 32)


def test_distance_of_equal_subgroups_is_upper_bound():
    H = gens("ab")
    b = distance_up_to(H, H, 8)
    assert b.kind == "at_most"
    assert b.exponent == 9
    assert b.witness is None


def test_distance_is_symmetric():
    H, K = gens("a"), gens("aa", "b")
    assert distance_up_to(H, K, 6) == distance_up_to(K, H, 6)


def test_distance_identity_always_agrees():
    # every subgroup contains the identity, so distance witnesses are nontrivial
    b = distance_up_to(gens("a"), gens("b"), 6)
    assert b.kind == "exact" and b.exponent == 1
    assert b.witness in ((1,), (-1,), (2,), (-2,))


def test_distance_context_mismatch():
    with pytest.raises(ContextMismatchError):
        distance_up_to(gens("a"), hnf_from_generators(1, [(1,)]), 4)


words_6 = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5).map(
    reduce_word
)
subgroups = st.lists(words_6, min_size=1, max_size=3).map(
    lambda gs: from_generators(F2, gs)
)


@given(subgroups, subgroups, subgroups)
@settings(max_examples=30, deadline=None)
def test_ultrametric_triangle_inequality(A, B, C):
    """d(A,C) ≥ min(d(A,B), d(B,C)) in exponent form: the first disagreement
    of A and C happens no earlier than the earlier of the two pairwise ones."""
    r = 5
    ab = distance_up_to(A, B, r).exponent
    bc = distance_up_to(B, C, r).exponent
    ac = distance_up_to(A, C, r).exponent
    assert ac >= min(ab, bc)


@given(subgroups)
@settings(max_examples=30, deadline=None)
def test_self_distance_is_never_exact(H):
    assert distance_up_to(H, H, 4).kind == "at_most"


def test_distance_radius_guards():
    H = gens("a")
    with pytest.raises(MalformedInputError):
        distance_up_to(H, H, -1)
    # distances do not read ball_radius_cap: past it, core graphs and lattice
    # preimages alike search on, and their states answer to vertex_cap
    assert distance_up_to(H, H, 13) == DistanceBound("at_most", 14)
    ker_z = preimage(F2, Target("lattice", 1), [(1,), (0,)], "zero")
    assert distance_up_to(ker_z, H, 13) == DistanceBound("exact", 1, (1,))
    assert distance_up_to(ker_z, ker_z, 13) == DistanceBound("at_most", 14)
    assert distance_up_to(ker_z, ker_z, 13, Budget(ball_radius_cap=1)) == DistanceBound(
        "at_most", 14
    )
    with pytest.raises(BudgetExceededError) as info:
        distance_up_to(ker_z, ker_z, 13, Budget(vertex_cap=20))
    assert (info.value.what, info.value.limit) == ("graph vertices", 20)


# ── the product search against the ball-scan oracle ──────────────────────────


def ball_scan_distance(H, K, radius):
    """The definition: scan the ball in canonical order for the first word on
    which the two subgroups disagree."""
    for x in iter_ball(H.ctx.rank, radius):
        if H.contains(x) != K.contains(x):
            return DistanceBound("exact", len(x), x)
    return DistanceBound("at_most", radius + 1)


def letters(rank):
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def free_subgroups(rank):
    word = st.lists(st.sampled_from(letters(rank)), min_size=1, max_size=6).map(reduce_word)
    return st.lists(word, min_size=1, max_size=3).map(
        lambda gs: from_generators(free_group(rank), gs)
    )


def _permutations(n):
    return st.permutations(list(range(n))).map(tuple)


def _closure(n, gens):
    """The subgroup of Sym(n) generated by `gens` (right action tuples)."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return sorted(group)


@st.composite
def hom_subgroups(draw, rank, kinds=("cyclic", "permutation", "lattice")):
    """φ⁻¹(A) for a random φ into Z/m, Sym(n) or Z^k, in `preimage`'s form:
    a covering at finite index, else the trivial subgroup of F₁ or a
    HomSubgroup."""
    ctx = free_group(rank)
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        m = draw(st.integers(1, 6))
        images = draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank))
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        accepted = sorted({(d * k) % m for k in range(m)})
        return preimage(ctx, Target("cyclic", m), images, accepted)
    if kind == "permutation":
        n = draw(st.integers(1, 3))
        images = draw(st.lists(_permutations(n), min_size=rank, max_size=rank))
        sub_gens = draw(st.lists(_permutations(n), max_size=1))
        return preimage(ctx, Target("permutation", n), images, _closure(n, sub_gens))
    return lattice_forms(draw(lattice_documents(rank, bound=2)))[0]


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda r: st.tuples(
            lattice_documents(r, bound=2),
            st.lists(st.sampled_from(letters(r)), max_size=8),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_hom_automaton_follows_the_homomorphism(case):
    """Stepping a lattice preimage of infinite index through a word reaches
    the residue of its abelianization modulo L, which is its coset key and
    decides its membership as the homomorphism does, and x·x⁻¹ acts
    trivially: the ball-scan oracle cannot see a wrong inverse step, since
    it reads membership off the same step. (Finite-index preimages are
    coverings, checked against the homomorphism in test_schreier.)"""
    doc, word = case
    H, oracle = lattice_forms(doc)
    assume(isinstance(H, HomSubgroup))
    word = tuple(word)
    state = H.start
    for x in word:
        state = H.step(state, x)
    ab = [sum((x == g) - (x == -g) for x in word) for g in range(1, H.ctx.rank + 1)]
    assert state == H.coset_key(word) == H.lattice.residue(ab)
    assert H.accepting(state) == H.contains(word) == oracle.contains(word)
    for x in range(1, H.ctx.rank + 1):
        assert H.step(H.step(H.start, x), -x) == H.step(H.step(H.start, -x), x) == H.start
    assert H.accepting(H.start)


@st.composite
def free_pairs(draw):
    """(H, K, radius): Stallings×Stallings, H×hall_completion(H, n),
    Stallings×preimage or preimage×preimage, in F₂ up to radius 8
    and in F₃ up to radius 5."""
    rank = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(0, 8 if rank == 2 else 5))
    shape = draw(st.sampled_from(["graphs", "completion", "hom", "homs"]))
    H = draw(hom_subgroups(rank) if shape == "homs" else free_subgroups(rank))
    if shape == "graphs":
        K = draw(free_subgroups(rank))
    elif shape == "completion":
        K = hall_completion(H, draw(st.integers(0, 4)))
    else:
        K = draw(hom_subgroups(rank))
    return (K, H, radius) if draw(st.booleans()) else (H, K, radius)


@given(free_pairs())
# a disagreement at length 1, one at length exactly the radius (the witness
# is read back along three links), and an equal pair written two ways
@example((gens("a"), gens("b"), 5))
@example((gens("abAb"), gens(), 4))
@example((gens("a", "bab", "bAb"), gens("bAb", "a", "baaab", "bab"), 8))
@settings(max_examples=200, deadline=None)
def test_product_search_matches_ball_scan(pair):
    H, K, radius = pair
    assert distance_up_to(H, K, radius) == ball_scan_distance(H, K, radius)


# ── the completion check: coset pairs to half the radius ─────────────────────


@st.composite
def half_radius_operands(draw, rank):
    """A core graph, a Hall completion of one, or a lattice preimage."""
    kind = draw(st.sampled_from(["graph", "completion", "lattice"]))
    if kind == "lattice":
        return draw(hom_subgroups(rank, kinds=("lattice",)))
    H = draw(free_subgroups(rank))
    if kind == "completion":
        H = hall_completion(H, draw(st.integers(0, 4 if rank == 2 else 2)))
    return H


@st.composite
def half_radius_pairs(draw):
    """(H, K, radius) over F₂ or F₃ with radius 0..9: two operands drawn
    apart, or a core graph and one of its completions, which agree up to
    the completion's radius."""
    rank = draw(st.sampled_from([2, 3]))
    H = draw(half_radius_operands(rank))
    if isinstance(H, StallingsGraph) and draw(st.booleans()):
        K = hall_completion(H, draw(st.integers(0, 5 if rank == 2 else 3)))
    else:
        K = draw(half_radius_operands(rank))
    return H, K, draw(st.integers(0, 9))


@given(half_radius_pairs())
# the trivial subgroup against ⟨aba⟩ and ⟨abAB⟩, told apart at lengths 3 and
# 4: at radius 3 aba needs the outer ring, and abAB must not pair the ring
# with itself; a word in one side only is seen by one of the two maps
@example((gens(), gens("aba"), 2))
@example((gens(), gens("aba"), 3))
@example((gens(), gens("abAB"), 3))
@example((gens(), gens("abAB"), 4))
@settings(max_examples=200, deadline=None)
def test_half_radius_check_matches_product_search(pair):
    """The completion check on the two coset automata agrees with the
    product search over B(radius), in both argument orders."""
    H, K, radius = pair
    try:
        expected = distance_up_to(H, K, radius).kind == "at_most"
    except BudgetExceededError:
        assume(False)
    for A, B in ((H, K), (K, H)):
        assert _traces_agree(H.ctx, coset_automaton(A), coset_automaton(B), radius, Budget()) == expected


def image_state_distance(H, K, radius):
    """The product search as it ran on two lattice preimages when their
    states were running images: each side (an `ImageHomSubgroup`) steps
    φ(prefix) in Z^k unreduced and accepts it iff it lies in A, with no
    budget."""
    moves = [{x: S.image((x,)) for x in letters(S.ctx.rank)} for S in (H, K)]
    start = (H.start, K.start, 0)
    seen = {start}
    frontier = [(start, ())]
    for length in range(1, radius + 1):
        nxt = []
        for (u, v, last), word in frontier:
            for x in letters(H.ctx.rank):
                if x == -last:
                    continue
                a = tuple(map(add, u, moves[0][x]))
                b = tuple(map(add, v, moves[1][x]))
                state = (a, b, x)
                if state in seen:
                    continue
                seen.add(state)
                wx = word + (x,)
                if H.accepted.contains(a) != K.accepted.contains(b):
                    return DistanceBound("exact", length, wx)
                nxt.append((state, wx))
        frontier = nxt
    return DistanceBound("at_most", radius + 1)


@st.composite
def lattice_preimage_pairs(draw):
    """(H, K, radius): two lattice documents over F₂ or F₃, unrelated, or
    with the same φ and accepted lattices A ≤ A' (so they may agree far out),
    or equal, with radius ≤ 12."""
    rank = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(0, 12))
    H = draw(lattice_documents(rank, bound=2))
    shape = draw(st.sampled_from(["unrelated", "coarser", "equal"]))
    if shape == "unrelated":
        K = draw(lattice_documents(rank, bound=2))
    else:
        ctx, images, gens = H
        k = len(images[0])
        vec = st.lists(st.integers(-6, 6), min_size=k, max_size=k).map(tuple)
        extra = draw(st.lists(vec, max_size=1)) if shape == "coarser" else []
        K = (ctx, images, gens + extra)
    return (K, H, radius) if draw(st.booleans()) else (H, K, radius)


@given(lattice_preimage_pairs())
@settings(max_examples=150, deadline=None)
def test_residue_states_match_the_image_state_search(pair):
    """Merging prefixes by their class, a residue of ab(prefix) mod L or a
    covering's vertex, keeps each level's first word per state, so the
    distance and its canonically-least witness are those of the search over
    unreduced images of the documents."""
    H, K, radius = pair
    (H, H_images), (K, K_images) = lattice_forms(H), lattice_forms(K)
    assert distance_up_to(H, K, radius) == image_state_distance(H_images, K_images, radius)


def test_commutator_subgroup_past_the_radius_cap():
    """[F₂, F₂] = ker(F₂ → Z²), described with the images swapped: equal
    subgroups, so the search runs to the radius. Its states are the images in
    the L¹ ball with a last letter, about 8ℓ² by length ℓ: under the default
    vertex_cap at radius 48, and over a cap of 1,000 by radius 20."""
    H = preimage(F2, Target("lattice", 2), [(1, 0), (0, 1)], "zero")
    K = preimage(F2, Target("lattice", 2), [(0, 1), (1, 0)], "zero")
    assert distance_up_to(H, K, 48) == DistanceBound("at_most", 49)
    with pytest.raises(BudgetExceededError):
        distance_up_to(H, K, 20, Budget(vertex_cap=1000))


# ── core-graph pairs past the radius cap ──────────────────────────────────────


@st.composite
def core_graph_pairs(draw):
    """(H, K): two folded core graphs over F₂ or F₃, unrelated, a subgroup
    and one of its Hall completions (they agree on a ball), or equal ones
    built by another route."""
    rank = draw(st.sampled_from([2, 3]))
    H = draw(free_subgroups(rank))
    shape = draw(st.sampled_from(["graphs", "completion", "equal"]))
    if shape == "graphs":
        K = draw(free_subgroups(rank))
    elif shape == "completion":
        K = hall_completion(H, draw(st.integers(0, 5 if rank == 2 else 3)))
    else:
        K = from_generators(H.ctx, list(reversed(H.basis())))
    return (K, H) if draw(st.booleans()) else (H, K)


@given(core_graph_pairs())
@example((from_generators(F2, [(1,) * 20]), from_generators(F2, [(1,) * 40])))  # a²⁰
@settings(max_examples=120, deadline=None)
def test_core_graph_pairs_past_the_radius_cap(pair):
    """A search run far past the saturation bound (|V_H|+1)(|V_K|+1)·2r
    separates H from K iff they differ; the radius-13 and -40 searches are its
    truncations, the radius-12 search agrees wherever it finds a witness, and
    short witnesses are the ball scan's."""
    H, K = pair
    full = distance_up_to(H, K, 10**6)
    assert (full.kind == "at_most") == (H == K)
    for radius in (13, 40):
        if full.kind == "exact" and full.exponent <= radius:
            assert distance_up_to(H, K, radius) == full
        else:
            assert distance_up_to(H, K, radius) == DistanceBound("at_most", radius + 1)
    if full.kind == "at_most":
        assert full.exponent == 10**6 + 1
        return
    capped = distance_up_to(H, K, 12)
    if capped.kind == "exact":
        assert capped == full
    if len(full.witness) <= 8:
        assert full == ball_scan_distance(H, K, len(full.witness))


def test_coprime_cyclic_kernels_part_at_a60_under_the_vertex_cap():
    """ker(F₂ → Z/60) and ker(F₂ → Z/61), a ↦ 1, b ↦ 0, first differ at a⁶⁰.
    Their search charges the states it reaches to vertex_cap, about 8 more
    per length, so 100 of them run out at length 14."""
    Z60 = preimage(F2, Target("cyclic", 60), [1, 0], [0])
    Z61 = preimage(F2, Target("cyclic", 61), [1, 0], [0])
    assert distance_up_to(Z60, Z61, 100) == DistanceBound("exact", 60, (1,) * 60)
    with pytest.raises(BudgetExceededError) as info:
        distance_up_to(Z60, Z61, 100, Budget(vertex_cap=100))
    assert (info.value.what, info.value.limit) == ("graph vertices", 100)


# ── clopen sets ──────────────────────────────────────────────────────────────


def test_clopen_membership():
    V = clopen([w("a")], [w("b")])
    assert in_clopen(gens("a"), V)
    assert not in_clopen(gens("a", "b"), V)  # contains b
    assert not in_clopen(gens("aa"), V)  # misses a


def test_clopen_detects_trivial_emptiness():
    V = clopen([w("a")], [w("a")])
    assert V.trivially_empty
    V2 = clopen([w("aa")], [w("a"), w("b")])
    assert not V2.trivially_empty
    assert in_clopen(gens("aa"), V2)


def test_clopen_whole_group_in_ins_only():
    V = clopen([w("abAB")], [])
    assert in_clopen(gens("a", "b"), V)


def scan_in_clopen(H, V):
    """The definition: test every in-word and every out-word separately."""
    return all(H.contains(x) for x in V.ins) and not any(H.contains(x) for x in V.outs)


@st.composite
def prefix_sharing_words(draw, rank, H):
    """Reduced words grown from a few stems (basis words of H among them, so
    that some land in H): heavy prefix sharing, words that are prefixes of
    other drawn words, and at times the empty word."""
    letter = st.sampled_from(letters(rank))
    stem = st.lists(letter, max_size=4).map(tuple)
    if isinstance(H, StallingsGraph) and not H.is_trivial():
        stem = st.one_of(stem, st.sampled_from(H.basis()))
    stems = draw(st.lists(stem, min_size=1, max_size=3))
    words = set()
    for _ in range(draw(st.integers(0, 12))):
        tail = tuple(draw(st.lists(letter, max_size=4)))
        word = reduce_word(draw(st.sampled_from(stems)) + tail)
        words.add(word)
        words.add(word[: draw(st.integers(1, max(1, len(word))))])
    words.discard(())
    if draw(st.integers(0, 4)) == 3:
        words.add(())
    return sorted(words)


@st.composite
def clopen_cases(draw):
    """(H, V): Stallings graphs over F₂ and F₃, or homomorphism preimages
    with cyclic, permutation and lattice targets; ins empty or a few short
    words, outs prefix-sharing."""
    rank = draw(st.sampled_from([2, 3]))
    H = draw(st.one_of(free_subgroups(rank), hom_subgroups(rank)))
    letter = st.sampled_from(letters(rank))
    ins = draw(st.lists(st.lists(letter, max_size=3).map(reduce_word), max_size=2))
    return H, clopen(ins, draw(prefix_sharing_words(rank, H)))


@given(clopen_cases())
@settings(max_examples=400, deadline=None)
def test_clopen_walk_matches_scan(case):
    H, V = case
    assert _meets(H, V) == any(H.contains(x) for x in V.outs)
    assert in_clopen(H, V) == scan_in_clopen(H, V)


def test_walk_resumes_below_the_depth_where_it_died():
    # In ⟨ab⟩ (0 -a-> 1 -b-> 0) the walk of aab dies after one letter; aabb
    # shares that failing letter and is skipped; ab shares only "a" with it
    # and must resume from the state after "a", where it closes.
    H = gens("ab")
    V = ClopenSet((), (w("aab"), w("aabb"), w("ab")))
    assert V.outs_lex == (w("aab"), w("aabb"), w("ab"))
    assert V.outs_lcp == (0, 3, 1)
    assert _meets(H, V) and not in_clopen(H, V)
    assert not _meets(H, ClopenSet((), (w("aab"), w("aabb"))))


def test_walk_fields_leave_clopen_identity_unchanged():
    V = clopen([w("a")], [w("b"), w("aa"), w("aB")])
    # canonical (length, letter-lex) order for outs; plain tuple order for the walk
    assert V.outs == (w("b"), w("aa"), w("aB"))
    assert V.outs_lex == (w("aB"), w("aa"), w("b"))
    assert V.outs_lcp == (0, 1, 0)
    assert V == ClopenSet(V.ins, V.outs)
    assert hash(V) == hash((V.ins, V.outs, V.trivially_empty))
    assert repr(V) == f"ClopenSet(ins={V.ins!r}, outs={V.outs!r}, trivially_empty=False)"
    assert json_of_clopen(V, F2) == {"ins": ["a"], "outs": ["b", "aa", "aB"]}


# ── convergence certificates ─────────────────────────────────────────────────


def test_certified_tail_bn_to_a():
    seq = [gens("a", "b" * n) for n in range(1, 11)]
    cert = certify_convergence(seq, gens("a"), 6)
    assert cert.certified()
    assert cert.kind == "certified"
    assert cert.n0 == 7
    assert cert.index is None and cert.witness is None


def test_refuted_constant_sequence():
    # the constant sequence at F₂ does not converge to ⟨a⟩: every term
    # contains b, and the refutation pins the witness and the term index
    seq = [gens("a", "b")] * 4
    cert = certify_convergence(seq, gens("a"), 1)
    assert not cert.certified()
    assert cert.kind == "fails"
    assert cert.witness == (2,)
    assert cert.index == 1


def test_certification_needs_terms():
    with pytest.raises(MalformedInputError):
        certify_convergence([], gens("a"), 3)


def test_certified_radius_monotone_n0():
    """Raising the radius can only push the certified tail further out."""
    seq = [gens("a", "b" * n) for n in range(1, 13)]
    H = gens("a")
    n0s = [certify_convergence(seq, H, r).n0 for r in (2, 4, 6)]
    assert n0s == sorted(n0s)
    assert all(certify_convergence(seq, H, r).certified() for r in (2, 4, 6))


def trace_certification(seq, limit, radius):
    """The trace-based definition: term n agrees iff its trace on B(radius)
    equals the limit's; the witness is the least element of the symmetric
    difference at the start of the final disagreeing run."""
    target = set(trace(limit, radius).members)
    traces = [set(trace(t, radius).members) for t in seq]
    agree = [t == target for t in traces]
    if agree[-1]:
        n0 = len(seq)
        while n0 > 1 and agree[n0 - 2]:
            n0 -= 1
        return Certification("certified", radius, n0=n0)
    start = len(seq)
    while start > 1 and not agree[start - 2]:
        start -= 1
    diff = traces[start - 1] ^ target
    witness = next(x for x in ball(limit.ctx, radius) if x in diff)
    return Certification("fails", radius, witness=witness, index=start)


@st.composite
def free_sequences(draw):
    """A limit in F₂ and terms mixing completions of it (which agree with it
    on growing balls), random subgroups, and homomorphism preimages."""
    limit = draw(free_subgroups(2))
    terms = draw(
        st.lists(
            st.one_of(
                st.integers(0, 6).map(lambda n: hall_completion(limit, n)),
                free_subgroups(2),
                hom_subgroups(2),
                st.just(limit),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return terms, limit, draw(st.integers(1, 6))


# entries past the int64 range catch ball membership in fixed-width integers
LATTICE_ENTRIES = st.one_of(
    st.integers(-3, 3), st.sampled_from([2**62, -(2**62), 2**70, -(2**70)])
)


def lattice_subgroups(d):
    vec = st.lists(LATTICE_ENTRIES, min_size=d, max_size=d).map(tuple)
    return st.lists(vec, max_size=3).map(lambda gs: hnf_from_generators(d, gs))


@st.composite
def lattice_sequences(draw):
    d = draw(st.integers(1, 4))
    limit = draw(lattice_subgroups(d))
    terms = draw(st.lists(lattice_subgroups(d), min_size=1, max_size=5))
    return terms, limit, draw(st.integers(1, 6))


@given(st.one_of(free_sequences(), lattice_sequences()))
@settings(max_examples=80, deadline=None)
def test_certification_matches_trace_definition(case):
    seq, limit, radius = case
    assert certify_convergence(seq, limit, radius) == trace_certification(
        seq, limit, radius
    )


@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(lattice_subgroups(d), lattice_subgroups(d))),
    st.integers(0, 7),
    st.integers(0, 7),
)
# both balls hold a vector where they part, and K's is the lesser
@example((hnf_from_generators(2, [(0, 1)]), hnf_from_generators(2, [(1, 0)])), 1, 3)
@settings(max_examples=80, deadline=None)
def test_lattice_distance_matches_ball_scan(pair, r, r2):
    H, K = pair
    # the same subgroups at r, r2, r: a ball kept from an earlier radius must
    # not leak into a later answer
    for radius in (r, r2, r):
        expected = DistanceBound("at_most", radius + 1)
        for x in iter_lattice_ball(H.dim, radius):
            if H.contains(x) != K.contains(x):
                expected = DistanceBound("exact", sum(map(abs, x)), x)
                break
        assert distance_up_to(H, K, radius) == expected
