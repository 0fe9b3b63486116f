"""Folded core graphs: membership, rank, index, and the subgroup operations.

The hand-checked fixtures:

* H = ⟨a², b, aba⁻¹⟩ is the even-a-exponent subgroup of F₂ — index 2,
  rank 3 (Nielsen-Schreier: 2·(2−1)+1), core on 2 vertices with all 4
  generator edges present at each (it is a covering of the rose).
* ⟨a, bab⟩ folds to a 3-vertex core that is not a covering (infinite index).
* ⟨a²⟩ ∩ ⟨a³⟩ = ⟨a⁶⟩ (intersection of subgroups of ⟨a⟩ ≅ Z).
* b·⟨a⟩·b⁻¹ = ⟨bab⁻¹⟩.

The worklist fold is checked against the full-rebuild edge-set fold it
replaced (`_oracle_core`), `basis` against the path-tuple construction, the
speller that reads the recorded BFS tree against the BFS speller it replaced,
the layered completion against the heap-ordered one it replaced, and the
ordered walk that reads the witness candidates off a completion's tables
against `basis_outside`, which ranks every basis key.
"""

import functools
import heapq
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chabauty_lab import stallings
from chabauty_lab.budgets import Budget
from chabauty_lab.chabauty import _meets, clopen, distance_up_to, in_clopen
from chabauty_lab.errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
)
from chabauty_lab.stallings import (
    BASEPOINT,
    HomSubgroup,
    StallingsGraph,
    Target,
    basis_outside,
    conjugate_subgroup,
    coset_automaton,
    fold,
    from_generators,
    hall_completion,
    intersect,
    join,
    kernel,
    preimage,
    trivial_subgroup,
    wedge_conjugate,
)
from chabauty_lab.words import (
    _CHAR_OF_LETTER,
    IDENTITY,
    ball,
    conjugate,
    format_word,
    free_group,
    graded_ball,
    invert,
    multiply,
    parse_word,
    reduce_word,
    word_key,
)
from hom_oracle import ImageHomSubgroup, cyclic_covering, lattice_documents, lattice_forms

F2 = free_group(2)
F3 = free_group(3)


def w(text):
    return parse_word(text, F2)


def gens(*texts):
    return from_generators(F2, [w(t) for t in texts])


def whole_group(ctx):
    """The rose: one vertex and a loop per generator."""
    return StallingsGraph(ctx, 1, ({}, *({0: 0} for _ in range(ctx.rank))), ([0], [0]))


def _laid_out(succ, pred):
    """Tables of the generators and of their inverses, one per generator in
    order, laid out as `StallingsGraph.edges`: ({}, gen 1, …, gen r,
    gen r⁻¹, …, gen 1⁻¹)."""
    return [{}, *succ, *reversed(pred)]


# ── folding and structure ────────────────────────────────────────────────────


def test_even_subgroup_core():
    H = gens("aa", "b", "abA")
    assert H.nverts == 2
    assert H.nedges == 4
    assert H.rank() == 3
    assert H.index() == 2
    assert H.is_covering()


def test_even_subgroup_membership_is_exponent_parity():
    H = gens("aa", "b", "abA")
    for v in ball(F2, 4):
        a_exp = sum(1 for x in v if x == 1) - sum(1 for x in v if x == -1)
        assert H.contains(v) == (a_exp % 2 == 0)


def test_infinite_index_core():
    H = gens("a", "bab")
    assert H.nverts == 3
    assert H.rank() == 2
    assert H.index() is None
    assert not H.is_covering()


def test_trivial_and_whole():
    T = trivial_subgroup(F2)
    assert T.nverts == 1 and T.rank() == 0 and T.index() is None
    assert T.is_trivial()
    W = whole_group(F2)
    assert W.nverts == 1 and W.rank() == 2 and W.index() == 1
    assert W.contains(w("abAB"))


def test_a_graph_is_built_with_its_tree():
    """No graph exists without the BFS tree its basis and witness code read:
    the constructor requires it, and `trivial_subgroup` records the root's:
    parent 0, and no letter reaches it."""
    with pytest.raises(TypeError):
        StallingsGraph(F2, 1, ({}, {0: 0}, {0: 0}))
    T = trivial_subgroup(F2)
    assert T.tree == ([0], [0])
    assert T.edges == ({},) * 5


def test_generators_always_contained():
    H = gens("abab", "bbA")
    assert H.contains(w("abab"))
    assert H.contains(w("bbA"))
    assert H.contains(multiply(w("abab"), invert(w("bbA"))))


def test_basis_regenerates_same_subgroup():
    H = gens("aab", "aba", "abb")
    K = from_generators(F2, H.basis())
    assert K == H
    assert len(H.basis()) == H.rank()


def test_identity_generators_ignored():
    assert gens("", "a") == gens("a")


def test_context_mismatch_rejected():
    H = gens("a")
    K = from_generators(F3, [parse_word("c", F3)])
    with pytest.raises(ContextMismatchError):
        intersect(H, K)


letters = st.sampled_from([1, -1, 2, -2])
gen_words = st.lists(letters, min_size=1, max_size=6).map(reduce_word)
gen_lists = st.lists(gen_words, min_size=1, max_size=4)


@given(gen_lists, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_folding_is_order_and_duplicate_independent(gs, rng):
    """The folded core is canonical: permuting the generating set, repeating
    a generator, or replacing one by its inverse never changes the graph."""
    H = from_generators(F2, gs)
    shuffled = list(gs)
    rng.shuffle(shuffled)
    assert from_generators(F2, shuffled) == H
    assert from_generators(F2, shuffled + [gs[0]]) == H
    assert from_generators(F2, [invert(gs[0])] + list(gs[1:])) == H


@given(gen_lists)
@settings(max_examples=40, deadline=None)
def test_membership_closed_under_product_and_inverse(gs):
    H = from_generators(F2, gs)
    x = multiply(gs[0], invert(gs[-1]))
    assert H.contains(x)
    assert H.contains(invert(x))


# ── operations ───────────────────────────────────────────────────────────────


def test_intersection_of_powers():
    M = intersect(gens("aa"), gens("aaa"))
    assert M.basis() == [w("aaaaaa")]


def test_intersection_with_whole_group():
    H = gens("ab", "ba")
    assert intersect(H, whole_group(F2)) == H


def test_join_recovers_whole_group():
    assert join(gens("a"), gens("b")) == whole_group(F2)


def test_conjugate_cyclic():
    C = conjugate_subgroup(gens("a"), w("b"))
    assert C.basis() == [w("baB")]


def test_conjugate_round_trip():
    H = gens("ab", "aab")
    g = w("bbA")
    K = conjugate_subgroup(conjugate_subgroup(H, g), invert(g))
    assert K == H


def test_equal_subgroups_hash_equal_by_any_route():
    H, g = gens("ab", "aab"), w("bbA")
    E = gens("aa", "b", "abA")  # a covering: conjugation only moves the basepoint
    routes = [
        [H, gens("aab", "ab"), gens("ab", "aab", "abaab", "BA")],
        [gens("ab", "bA"), join(gens("ab"), gens("bA")), join(gens("bA"), [w("ab")])],
        [H, conjugate_subgroup(conjugate_subgroup(H, g), invert(g))],
        [E, conjugate_subgroup(conjugate_subgroup(E, w("ab")), w("BA"))],
    ]
    for graphs in routes:
        assert all(G == graphs[0] for G in graphs)
        hashes = [hash(G) for G in graphs]
        assert len(set(hashes)) == 1
        assert len(set(graphs)) == 1
        assert [hash(G) for G in graphs] == hashes  # stable on repeated calls
    assert len({H, gens("aab", "ab"), E}) == 2


def test_conjugation_preserves_index_and_rank():
    H = gens("aa", "b", "abA")
    C = conjugate_subgroup(H, w("ab"))
    assert C.index() == H.index()
    assert C.rank() == H.rank()
    # normality fails in general, but membership must transport:
    # x ∈ H  ⟺  g·x·g⁻¹ ∈ g·H·g⁻¹
    for x in ("aa", "b", "ba"):
        moved = multiply(multiply(w("ab"), w(x)), invert(w("ab")))
        assert C.contains(moved) == H.contains(w(x))


# ── completions ──────────────────────────────────────────────────────────────


def test_completion_of_trivial_subgroup():
    K = hall_completion(trivial_subgroup(F2), 3)
    assert K.is_covering()
    assert K.index() == K.nverts == 53
    # nothing of length <= 3 sneaks in: the trace is still trivial
    assert all(not K.contains(v) for v in ball(F2, 3) if v != ())
    assert _shortest_element(K) == (1, 1, 1, 1, -2, -1, -1)


def _shortest_element(H):
    """The shortest nontrivial element of H as the product search finds it:
    the first word on which H and the trivial subgroup disagree. A nontrivial
    core graph on n vertices has a reduced basepoint loop of length < 2n."""
    return distance_up_to(H, trivial_subgroup(H.ctx), 2 * H.nverts).witness


def test_completion_contains_subgroup_and_agrees_on_ball():
    H = gens("a", "bab")
    K = hall_completion(H, 4)
    assert K.index() is not None
    for x in H.basis():
        assert K.contains(x)
    for v in ball(F2, 4):
        assert K.contains(v) == H.contains(v)


def test_completion_of_covering_is_itself():
    H = gens("aa", "b", "abA")
    assert hall_completion(H, 5) == H


# ── homomorphism-defined subgroups ───────────────────────────────────────────


def test_kernel_to_z_membership_is_zero_exponent_sum():
    ker = kernel(F2, Target("lattice", 1), [(1,), (0,)])
    assert ker.contains(w("b"))
    assert ker.contains(w("abA"))
    assert not ker.contains(w("a"))
    # infinitely many cosets: aⁿ all land in different ones
    keys = {ker.coset_key(parse_word("a" * n, F2)) for n in range(10)}
    assert len(keys) == 10


def test_preimage_of_even_lattice_is_its_covering():
    from chabauty_lab.zdlattice import hnf_from_generators

    even = preimage(F2, Target("lattice", 1), [(1,), (0,)], hnf_from_generators(1, [(2,)]))
    assert even.contains(w("aa")) and even.contains(w("b"))
    assert not even.contains(w("a"))
    assert even.is_covering() and even.index() == 2
    assert len({even.walk(BASEPOINT, v) for v in ball(F2, 3)}) == 2


def test_cyclic_target_kernel():
    # a, b both map to 1 mod 3: membership is exponent-sum ≡ 0 (mod 3)
    ker = kernel(F2, Target("cyclic", 3), [1, 1])
    assert ker.contains(w("aaa")) and ker.contains(w("aB"))
    assert not ker.contains(w("ab"))
    assert ker.index() == 3
    assert len({ker.walk(BASEPOINT, v) for v in ball(F2, 3)}) == 3


def _outcome(build, *args):
    """What build(*args) returns, or the class and message of what it raised."""
    try:
        return build(*args)
    except (MalformedInputError, BudgetExceededError) as exc:
        return type(exc), str(exc)


@st.composite
def _cyclic_documents(draw):
    """(ctx, m, images, accepted): accepted is dZ/m for a divisor d of m, or
    any set of residues, which the two refusals read."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12) | st.sampled_from([2**64, 3 * 10**30]))
    images = draw(st.lists(st.integers(-30, 30) | st.just(5**40), min_size=r, max_size=r))
    if draw(st.booleans()):
        d = draw(st.sampled_from([d for d in range(1, 13) if m % d == 0]))
        accepted = list(range(0, m, d)) if m // d <= 12 else []
    else:
        accepted = draw(st.lists(st.integers(-12, 12), max_size=4))
    return free_group(r), m, images, accepted


@given(_cyclic_documents())
@example((F2, 60, [1, 0], [0]))
@example((F2, 6, [1, 2], [0, 2]))
@settings(max_examples=120, deadline=None)
def test_cyclic_targets_take_the_lattice_route_to_the_old_covering(doc):
    """Z/m with A = dZ/m goes through the lattice Z with dZ, yet builds the
    graph of the old coset BFS over residues mod d (`cyclic_covering`), and
    refuses, with its messages, an empty or non-subgroup accepted set."""
    ctx, m, images, accepted = doc
    new = _outcome(preimage, ctx, Target("cyclic", m), images, accepted, Budget())
    old = _outcome(cyclic_covering, ctx, m, images, accepted)
    assert new == old


def test_permutation_target_kernel():
    # a ↦ the swap, b ↦ identity on two points; accepted = {identity}
    sub = preimage(F2, Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)])
    assert sub.contains(w("aa")) and sub.contains(w("b"))
    assert not sub.contains(w("a"))
    assert sub.index() == 2
    assert len({sub.walk(BASEPOINT, v) for v in ball(F2, 3)}) == 2


def test_permutation_accepted_must_be_subgroup():
    with pytest.raises(MalformedInputError):
        preimage(
            F2,
            Target("permutation", 2),
            [(1, 0), (0, 1)],
            [(1, 0)],  # not closed: misses the identity
        )


def test_target_kind_is_one_of_three():
    with pytest.raises(MalformedInputError, match="unknown target kind 'free'"):
        Target("free", 2)


@pytest.mark.parametrize(
    "accepted, message",
    [
        # a 3-cycle without its inverse
        ([(0, 1, 2), (1, 2, 0)], "accepted permutations not inverse-closed"),
        # two transpositions, each its own inverse, whose product is a 3-cycle
        ([(0, 1, 2), (1, 0, 2), (0, 2, 1)], "accepted permutations not closed"),
    ],
)
def test_permutation_accepted_must_be_closed(accepted, message):
    with pytest.raises(MalformedInputError, match=message):
        preimage(F2, Target("permutation", 3), [(1, 2, 0), (1, 0, 2)], accepted)


def test_finite_targets_give_the_canonical_covering():
    """ker(F₂ → Z/2, a ↦ 1), its Sym(2) twin, and the preimage of 2Z under
    F₂ → Z, a ↦ 1 (or a ↦ −3) are the folded graph of ⟨aa, b, abA⟩: equal,
    with equal hashes."""
    from chabauty_lab.zdlattice import hnf_from_generators

    even = gens("aa", "b", "abA")
    cyclic = kernel(F2, Target("cyclic", 2), [1, 0])
    swap = preimage(F2, Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)])
    two_z = hnf_from_generators(1, [(2,)])
    lattice = preimage(F2, Target("lattice", 1), [(1,), (0,)], two_z)
    odd = preimage(F2, Target("lattice", 1), [(-3,), (4,)], two_z)
    for H in (cyclic, swap, lattice, odd):
        assert isinstance(H, StallingsGraph) and H.is_covering()
        assert H == even and hash(H) == hash(even)
    # accepting a larger subgroup merges cosets: Z/4 with A = {0, 2} is Z/2
    assert preimage(F2, Target("cyclic", 4), [1, 0], [0, 2]) == even


def test_preimage_checks_source_images_and_accepted_lattice_for_every_target():
    """One check of the source context and of the image count serves every
    target kind, with the same messages; a lattice target's A must be an
    HnfSubgroup of the target's dimension (or "zero")."""
    from chabauty_lab.words import lattice
    from chabauty_lab.zdlattice import hnf_from_generators

    for target, images, accepted in (
        (Target("cyclic", 2), [1, 0], [0]),
        (Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)]),
        (Target("lattice", 1), [(1,), (0,)], "zero"),
    ):
        with pytest.raises(ContextMismatchError, match="^homomorphism sources are free groups$"):
            preimage(lattice(2), target, images, accepted)
        with pytest.raises(MalformedInputError, match="^need 2 generator images, got 1$"):
            preimage(F2, target, images[:1], accepted)
        with pytest.raises(MalformedInputError, match="^need 3 generator images, got 2$"):
            preimage(F3, target, images, accepted)
        assert not preimage(F2, target, images, accepted).contains(w("a"))
    even_plane = hnf_from_generators(2, [(2, 0)])
    with pytest.raises(MalformedInputError, match="^accepted sublattice has wrong dimension$"):
        preimage(F2, Target("lattice", 1), [(1,), (0,)], even_plane)
    with pytest.raises(MalformedInputError, match="^lattice targets accept an HnfSubgroup"):
        preimage(F2, Target("lattice", 1), [(1,), (0,)], [(2,)])
    assert isinstance(kernel(F2, Target("lattice", 1), [(1,), (0,)]), HomSubgroup)


@pytest.mark.parametrize("kind", ["cyclic", "lattice", "permutation"])
def test_boolean_target_parameter_is_rejected(kind):
    with pytest.raises(MalformedInputError):
        Target(kind, True)


def test_permutation_coset_space_is_bounded_by_the_vertex_cap():
    # Sym(5) is generated by a 5-cycle and a transposition: 120 cosets
    sym5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    assert kernel(F2, Target("permutation", 5), sym5, Budget(vertex_cap=120)).nverts == 120
    with pytest.raises(BudgetExceededError):
        kernel(F2, Target("permutation", 5), sym5, Budget(vertex_cap=119))


def test_hom_subgroup_trace_matches_direct_check():
    ker = kernel(F2, Target("cyclic", 2), [1, 0])
    for v in ball(F2, 4):
        a_exp = sum(1 for x in v if x == 1) - sum(1 for x in v if x == -1)
        assert ker.contains(v) == (a_exp % 2 == 0)


# ── the full-rebuild fold and the path-tuple basis, kept as oracles ─────────


def _oracle_core(ctx, nverts, edges):
    """Core graph of the connected component of vertex 0 in the graph on
    0..nverts-1 with edges (u, gen0, v): fold by rebuilding the whole edge
    set until no two equally-labelled edges share a source or a target, trim
    non-basepoint vertices of degree <= 1 (a loop counts 2), canonicalize."""
    parent = list(range(nverts))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = set(edges)
    changed = True
    while changed:
        changed = False
        edges = {(find(u), g, find(v)) for u, g, v in edges}
        by_src, by_dst = {}, {}
        for u, g, v in edges:
            for key, end, table in (((u, g), v, by_src), ((g, v), u, by_dst)):
                other = table.setdefault(key, end)
                if find(other) != find(end):
                    parent[max(find(other), find(end))] = min(find(other), find(end))
                    changed = True
    base = find(0)
    seen, stack = {base}, [base]
    while stack:
        x = stack.pop()
        for u, _, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
    edges = {e for e in edges if e[0] in seen}
    while True:
        degree = {v: 0 for v in seen}
        for u, _, v in edges:
            degree[u] += 1
            degree[v] += 1
        dead = {v for v, d in degree.items() if v != base and d <= 1}
        if not dead:
            break
        seen -= dead
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}
    succ = [{} for _ in range(ctx.rank)]
    pred = [{} for _ in range(ctx.rank)]
    for u, g, v in edges:
        succ[g][u] = v
        pred[g][v] = u
    return stallings._canonical(ctx, seen, _laid_out(succ, pred), base)


def _loop_edges(words, first):
    """Edges of basepoint loops spelling `words`, new vertices from `first`;
    returns (edges, next free vertex)."""
    edges, nxt = [], first
    for word in words:
        chain = [0] + list(range(nxt, nxt + len(word) - 1)) + [0]
        nxt += max(len(word) - 1, 0)
        for k, x in enumerate(word):
            u, v = chain[k], chain[k + 1]
            edges.append((u, x - 1, v) if x > 0 else (v, -x - 1, u))
    return edges, nxt


def _graph_edges(H, image):
    return [(image(u), g, image(v)) for g in range(H.ctx.rank) for u, v in H.edges[g + 1].items()]


def _old_word_key(word):
    return (len(word), tuple((abs(x), 0 if x > 0 else 1) for x in word))


def _oracle_basis(H):
    """Free basis from one tree path tuple per vertex."""
    path, tree, order = {BASEPOINT: ()}, set(), [BASEPOINT]
    for u in order:
        for g in range(H.ctx.rank):
            v = H.edges[g + 1].get(u)
            if v is not None and v not in path:
                path[v] = path[u] + (g + 1,)
                tree.add((u, g))
                order.append(v)
            v = H.edges[-g - 1].get(u)
            if v is not None and v not in path:
                path[v] = path[u] + (-(g + 1),)
                tree.add((v, g))
                order.append(v)
    out = [
        multiply(multiply(path[u], (g + 1,)), invert(path[v]))
        for g in range(H.ctx.rank)
        for u, v in H.edges[g + 1].items()
        if (u, g) not in tree
    ]
    return sorted(out, key=_old_word_key)


@st.composite
def word_lists(draw, max_words=4, max_len=7):
    rank = draw(st.sampled_from([2, 3]))
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=max_len).map(lambda ls: reduce_word(tuple(ls)))
    return free_group(rank), draw(st.lists(word, max_size=max_words))


def _suffix_automaton(H):
    """The coset automaton that numbered hung vertices replaced: the state is
    (v, s), v where the longest prefix that stays in the core ends and s the
    rest of the word, which each step copies."""

    def step(state, letter):
        v, s = state
        if s:
            return (v, s[:-1]) if s[-1] == -letter else (v, s + (letter,))
        u = H.step(v, letter)
        return (v, (letter,)) if u is None else (u, IDENTITY)

    return (BASEPOINT, IDENTITY), step


@given(word_lists(max_words=3), st.sampled_from([None, 1, 2]),
       st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12), max_size=6))
@example((F2, []), None, [[1, 2, -2, 2, 2, -1, -2], [-1, -2, 1, 1]])  # the trivial subgroup
@example((F2, [(1, 1), (2,)]), 1, [[1, 2, -1, 1, 1]])  # a covering: no hung vertex
@settings(max_examples=150, deadline=None)
def test_coset_states_match_the_suffix_oracle(drawn, completion_radius, sequences):
    """Two prefixes of letter sequences, reduced or not, reach equal coset
    states iff they reach equal (core vertex, suffix) states; every state is
    a vertex or an (int, letter) pair, never a word."""
    ctx, words = drawn
    H = from_generators(ctx, words)
    if completion_radius is not None:
        H = hall_completion(H, completion_radius)
    sequences = [s for s in sequences if all(abs(x) <= ctx.rank for x in s)]
    sequences += [reduce_word(tuple(s)) for s in sequences]
    (start, step), (oracle_start, oracle_step) = coset_automaton(H), _suffix_automaton(H)
    pairs = {(start, oracle_start)}
    for s in sequences:
        state, oracle = start, oracle_start
        for x in s:
            state, oracle = step(state, x), oracle_step(oracle, x)
            pairs.add((state, oracle))
    assert len({q for q, _ in pairs}) == len(pairs) == len({o for _, o in pairs})
    for q, _ in pairs:
        assert type(q) is int or (len(q) == 2 and 0 < abs(q[1]) <= ctx.rank)


def _oracle_from_generators(ctx, words):
    words = [x for x in words if x]
    edges, nxt = _loop_edges(words, 1)
    return _oracle_core(ctx, nxt, edges)


@given(word_lists())
@example((F2, [(-2, -1, 2), (-1,)]))  # BAb after A: the middle's last edge clashes
@settings(max_examples=150, deadline=None)
def test_fold_matches_full_rebuild_oracle(drawn):
    ctx, words = drawn
    assert from_generators(ctx, words) == _oracle_from_generators(ctx, words)


@given(word_lists(max_words=3, max_len=5), st.sampled_from([1, 2]))
@example((F3, [(1, 2, 3, -1, -2, -3), (1, 1, 3, 2)]), 2)  # a rank-3 closure
@settings(max_examples=40, deadline=None)
def test_fold_of_normal_closure_matches_oracle(drawn, radius):
    """{w·r·w⁻¹ : |w| <= radius}: many long loops that collapse heavily."""
    ctx, relators = drawn
    words = [conjugate(r, c) for r in relators for c in ball(ctx, radius)]
    H = from_generators(ctx, words)
    assert H == _oracle_from_generators(ctx, words)


@given(word_lists(max_words=3), st.data())
@settings(max_examples=60, deadline=None)
def test_join_matches_oracle(drawn, data):
    ctx, words = drawn
    other = data.draw(st.lists(st.sampled_from(words), max_size=2) if words else st.just([]))
    H = from_generators(ctx, words[:2])
    K = from_generators(ctx, words[2:] + other)
    edges = _graph_edges(H, lambda v: v)
    edges += _graph_edges(K, lambda v: 0 if v == BASEPOINT else H.nverts + v - 1)
    assert join(H, K) == _oracle_core(ctx, H.nverts + K.nverts - 1, edges)
    loops, nxt = _loop_edges([x for x in other if x], H.nverts)
    assert join(H, other) == _oracle_core(ctx, nxt, _graph_edges(H, lambda v: v) + loops)


@given(word_lists(), st.data())
@settings(max_examples=80, deadline=None)
def test_conjugate_subgroup_matches_oracle(drawn, data):
    ctx, words = drawn
    H = from_generators(ctx, words)
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    g = reduce_word(tuple(data.draw(st.lists(letter, min_size=1, max_size=6))))
    assume(g and not H.is_covering() and not H.is_trivial())
    assert conjugate_subgroup(H, g) == _oracle_conjugate(H, g)


def _oracle_conjugate(H, g):
    """g·H·g⁻¹ by the oracle fold: a tail 0 → 1 → … → |g| spelling g, H hung
    at |g| (its old basepoint)."""
    edges = [(k, x - 1, k + 1) if x > 0 else (k + 1, -x - 1, k) for k, x in enumerate(g)]
    edges += _graph_edges(H, lambda v: len(g) + v)
    return _oracle_core(H.ctx, len(g) + H.nverts, edges)


def test_conjugation_can_move_the_basepoint_into_the_core():
    """b⁻¹·⟨bab⁻¹⟩·b = ⟨a⟩: the tail B reads wholly into the core, so the
    new basepoint is identified with a vertex of H."""
    H = gens("baB")
    assert conjugate_subgroup(H, w("B")) == gens("a") == _oracle_conjugate(H, w("B"))
    # tails read wholly (B, AB, Ba) or in part (aaB, BBa) into ⟨a, bab⟩
    H = gens("a", "bab")
    for g in ("B", "AB", "aaB", "Ba", "BBa"):
        assert conjugate_subgroup(H, w(g)) == _oracle_conjugate(H, w(g))


def test_join_of_words_read_inside_h_only_merges():
    """Words that read wholly inside H add no vertex: attaching each one is a
    single identification of two vertices of H. A prefix of a generator
    reads from the basepoint, and still does after earlier identifications."""
    H = gens("aab", "bAbb", "abba")
    words = [w("aa"), w("bAb"), w("ab"), w("abb")]
    for k in range(1, len(words) + 1):
        builder = stallings._Builder(F2, Budget(), H)
        for x in words[:k]:
            builder.add_path(x)
        assert len(builder.parent) == H.nverts
        loops, nxt = _loop_edges(words[:k], H.nverts)
        oracle = _oracle_core(F2, nxt, _graph_edges(H, lambda v: v) + loops)
        assert builder.finalize() == join(H, words[:k]) == oracle


@given(word_lists(max_words=3), st.data())
@example((F2, [(1, 2, 1)]), None)  # w reads wholly into H: x merges into it
@settings(max_examples=150, deadline=None)
def test_wedge_conjugate_has_the_membership_of_the_join(drawn, data):
    """The unfinalized wedge accepts what join(H, w·K·w⁻¹) accepts, on random
    words and on the generators w·b·w⁻¹ and the basis of H, and charges
    n_H + n_K + |w| − 1 vertices."""
    ctx, words = drawn
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=6).map(lambda ls: reduce_word(tuple(ls)))
    if data is None:  # the explicit example: ⟨aba⟩ wedge ⟨a⟩ at ab
        H, K, g = from_generators(ctx, words), gens("a"), w("ab")
    else:
        H = from_generators(ctx, data.draw(st.lists(word, max_size=3)))
        K = from_generators(ctx, words)
        g = data.draw(word)
    wedge = wedge_conjugate(H, K, g)
    delta = join(H, conjugate_subgroup(K, g))
    assert wedge.created == H.nverts + K.nverts + len(g) - 1
    probes = [conjugate(b, g) for b in K.basis()] + H.basis()
    probes += [multiply(x, y) for x in probes[:3] for y in probes[:3]]
    # proper prefixes: walks that stay in the graph and end off the basepoint
    probes += [x[:k] for x in probes for k in range(1, len(x))]
    if data is not None:
        probes += data.draw(st.lists(word, max_size=20))
    for x in probes:
        assert wedge.contains(x) == delta.contains(x)
    members = [x for x in probes if delta.contains(x)]
    for V in (clopen(probes[:2], probes[2:]),
              clopen(members[:2], [x for x in probes if x not in members])):
        assert _meets(wedge, V) == _meets(delta, V)
        assert in_clopen(wedge, V) == in_clopen(delta, V)


@given(word_lists(max_words=3), word_lists(max_words=3))
@settings(max_examples=60, deadline=None)
def test_intersect_matches_oracle(drawn_h, drawn_k):
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H, K = from_generators(ctx, words_h), from_generators(ctx, words_k)
    # the full product graph on all vertex pairs; the oracle keeps the
    # component of (basepoint, basepoint) = 0
    pair = lambda a, b: a * K.nverts + b
    edges = [
        (pair(a, b), g, pair(c, d))
        for g in range(ctx.rank)
        for a, c in H.edges[g + 1].items()
        for b, d in K.edges[g + 1].items()
    ]
    assert intersect(H, K) == _oracle_core(ctx, H.nverts * K.nverts, edges)


@given(word_lists(max_words=5, max_len=9))
@settings(max_examples=100, deadline=None)
def test_basis_matches_path_tuple_oracle(drawn):
    ctx, words = drawn
    H = from_generators(ctx, words)
    assert H.basis() == _oracle_basis(H)


def test_basis_of_completions_matches_path_tuple_oracle():
    for text in ("a", "ab", "aBAb", "aab"):
        K = hall_completion(gens(text), 4)
        assert K.basis() == _oracle_basis(K)


def _oracle_shortest_nontrivial(H):
    """Shortest nontrivial element of H, or None for the trivial subgroup.

    BFS over non-backtracking walk states (vertex, incoming letter): in a
    folded graph these are exactly the reduced words readable from the
    basepoint, so the first closed walk found is the canonically-least
    nontrivial element.
    """
    if H.is_trivial():
        return None
    letters = [x for i in range(1, H.ctx.rank + 1) for x in (i, -i)]
    start = (BASEPOINT, 0)
    parents = {start: (start, 0)}
    queue = [start]
    while queue:
        nxt = []
        for state in queue:
            v, last = state
            for x in letters:
                if x == -last:
                    continue
                u = H.step(v, x)
                if u is None:
                    continue
                if u == BASEPOINT:
                    word = [x]
                    cur = state
                    while cur != start:
                        cur, y = parents[cur]
                        word.append(y)
                    return tuple(reversed(word))
                if (u, x) not in parents:
                    parents[(u, x)] = (state, x)
                    nxt.append((u, x))
        queue = nxt
    return None


@given(word_lists(max_words=4, max_len=9), st.sampled_from([None, 0, 2, 4]))
@example((F2, [(1,) * 20]), None)  # a²⁰: longer than the radius cap
@example((F2, []), 3)  # the trivial subgroup's completion, as above
@settings(max_examples=150, deadline=None)
def test_shortest_element_matches_walk_state_oracle(drawn, completion_radius):
    ctx, words = drawn
    H = from_generators(ctx, words)
    if completion_radius is not None:
        H = hall_completion(H, completion_radius)
    assert _shortest_element(H) == _oracle_shortest_nontrivial(H)


@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 7, -7]), max_size=6)))
@settings(max_examples=100, deadline=None)
def test_word_key_order_matches_letter_pairs(raw):
    ws = [tuple(x) for x in raw]
    assert sorted(ws, key=word_key) == sorted(ws, key=_old_word_key)


def test_graded_ball_order_matches_letter_pairs():
    ws = graded_ball(6)
    assert ws == sorted(ws, key=lambda x: (sum(map(abs, x)), *_old_word_key(x)))


# ── vertex_cap binds on the vertices a construction creates ─────────────────


def _cap(n):
    return Budget().replace(vertex_cap=n)


@pytest.mark.parametrize(
    "build, created",
    [
        # 1 + Σ(|w| − 1) loop vertices, though the fold leaves 2
        (lambda b: from_generators(F2, [w("aaaa"), w("aa")], b), 5),
        # wedge: 1 + (3 − 1) + (2 − 1)
        (lambda b: join(gens("a", "bab"), gens("aa", "b", "abA"), b), 4),
        # the same wedge with the larger graph second, which then seeds it
        pytest.param(
            lambda b: join(gens("aa", "b", "abA"), gens("a", "bab"), b), 4,
            id="join-larger-second-4",
        ),
        # wedge with loops: 1 + (3 − 1) + (4 − 1)
        (lambda b: join(gens("a", "bab"), [w("baBA")], b), 6),
        # tail of |g| edges: |g| + 3 vertices, folding back onto ⟨a, bab⟩
        (lambda b: conjugate_subgroup(gens("a", "bab"), w("aaB"), b), 6),
    ],
)
def test_vertex_cap_binds_at_the_created_count(build, created):
    build(_cap(created))
    with pytest.raises(BudgetExceededError):
        build(_cap(created - 1))


# ── the text basis, spelled without words ───────────────────────────────────


@given(word_lists(max_words=5, max_len=9), st.sampled_from([None, 1, 3]))
@example((F2, [(1, 2, -1), (2, 2)]), 2)
@settings(max_examples=100, deadline=None)
def test_basis_text_matches_formatted_basis(drawn, completion_radius):
    ctx, words = drawn
    G = from_generators(ctx, words)
    if completion_radius is not None:
        G = hall_completion(G, completion_radius)
    assert G.basis_text() == [format_word(x) for x in G.basis()]


def test_basis_text_of_completions_matches_formatted_basis():
    for text in ("a", "ab", "aBAb", "aab"):
        K = hall_completion(gens(text), 4)
        assert K.basis_text() == [format_word(x) for x in K.basis()]


def test_basis_text_beyond_26_generators_takes_the_word_route():
    F27 = free_group(27)
    G = from_generators(F27, [(1,), (2, 3, -2)])
    assert G.basis_text() == [format_word(x) for x in G.basis()] == ["a", "bcB"]
    G = from_generators(F27, [(1,), (2, 27, -2)])
    for spell in (G.basis_text, lambda: [format_word(x) for x in G.basis()]):
        with pytest.raises(MalformedInputError, match="at most 26 generators"):
            spell()


# ── joins are symmetric; intersections against the old product loop ────────


@given(word_lists(max_words=3), word_lists(max_words=3))
@settings(max_examples=60, deadline=None)
def test_join_is_symmetric(drawn_h, drawn_k):
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H, K = from_generators(ctx, words_h), from_generators(ctx, words_k)
    assert join(H, K) == join(K, H)


@given(word_lists(max_words=3), word_lists(max_words=3), st.booleans(), st.booleans())
@example((F2, [(1, 1), (2,)]), (F2, [(1, 1, 1), (2, 2)]), False, False)
@settings(max_examples=80, deadline=None)
def test_untrimmed_intersection_is_canonical_as_numbered(drawn_h, drawn_k, cover_h, cover_k):
    """When the trim removes nothing, intersect returns the product tables as
    numbered; they must equal their own _canonical renumbering."""
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H, K = from_generators(ctx, words_h), from_generators(ctx, words_k)
    # coverings have untrimmed products, so both cases are drawn often
    H = hall_completion(H, 1) if cover_h else H
    K = hall_completion(K, 1) if cover_k else K
    n, edges = _product(H, K, Budget())
    untrimmed = not stallings._trim(set(range(n)), [dict(t) for t in edges], BASEPOINT)
    assume(untrimmed)
    canonical = stallings._canonical(ctx, range(n), edges, BASEPOINT)
    assert canonical.edges == tuple(edges)
    assert intersect(H, K) == canonical


@given(word_lists(max_words=3), word_lists(max_words=3), st.booleans(), st.booleans())
# the product has 10 states, of which the trim keeps 8
@example((F2, [(1, 2), (1, 2, -1, -2)]), (F2, [(2, 1, 2), (1, 1)]), False, False)
@settings(max_examples=80, deadline=None)
def test_intersection_matches_the_product_loop(drawn_h, drawn_k, cover_h, cover_k):
    """intersect's shared BFS against the product loop it replaced: the
    product's own numbering when nothing is trimmed, and otherwise the
    trimmed product renumbered by `_canonical`, which the compaction of the
    product's own numbering must equal, recorded tree included."""
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H, K = from_generators(ctx, words_h), from_generators(ctx, words_k)
    H = hall_completion(H, 1) if cover_h else H
    K = hall_completion(K, 1) if cover_k else K
    n, edges = _product(H, K, Budget())
    live = set(range(n))
    trimmed = stallings._trim(live, edges, BASEPOINT)
    expected = stallings._canonical(ctx, live, edges, BASEPOINT)
    if not trimmed:  # the product's own numbering is canonical
        assert expected.edges == tuple(edges)
    got = intersect(H, K)
    assert got == expected and got.tree == expected.tree


@pytest.mark.parametrize(
    "h, k, complete",
    [
        (("a", "bab"), ("aa", "b", "abA"), False),
        (("ab", "ba"), ("aab", "bA"), False),
        (("a", "bab"), ("aa", "b", "abA"), True),
        (("abAB",), ("aab", "bbA"), True),
        (("aaa", "b"), ("aa", "bb", "ab"), False),
    ],
)
def test_intersection_cap_is_the_product_loops(h, k, complete):
    """With N product states, intersect and the old product loop both
    succeed at vertex_cap = N and both raise at N − 1."""
    H, K = gens(*h), gens(*k)
    if complete:
        H, K = hall_completion(H, 2), hall_completion(K, 2)
    n = _product(H, K, Budget())[0]
    assert n > 1
    for build in (intersect, _product):
        build(H, K, _cap(n))
        with pytest.raises(BudgetExceededError, match="graph vertices"):
            build(H, K, _cap(n - 1))


@pytest.mark.parametrize(
    "target, images, accepted, cosets",
    [
        (Target("cyclic", 7), [3, 0], [0], 7),
        (Target("cyclic", 18), [1, 2], [0, 9], 9),
        (Target("permutation", 3), [(1, 2, 0), (1, 0, 2)], [(0, 1, 2)], 6),
        (
            Target("permutation", 4),
            [(1, 2, 3, 0), (1, 0, 2, 3)],
            [(0, 1, 2, 3), (1, 0, 2, 3)],
            12,
        ),
    ],
)
def test_preimage_cap_is_its_coset_count(target, images, accepted, cosets):
    assert preimage(F2, target, images, accepted, _cap(cosets)).nverts == cosets
    with pytest.raises(BudgetExceededError, match="graph vertices"):
        preimage(F2, target, images, accepted, _cap(cosets - 1))


def test_lattice_route_charges_its_image_rows_first():
    """Lattice and cyclic targets charge r·(k + r) entries of `vertex_cap`
    before the coset count: Z/6 with A = {0, 3} has 3 cosets, yet needs a
    cap of 2·(1 + 2) = 6. Permutation targets charge only their cosets."""
    Z6 = (F2, Target("cyclic", 6), [1, 2], [0, 3])
    assert preimage(*Z6, _cap(6)).nverts == 3
    with pytest.raises(BudgetExceededError, match="^preimage lattice entries") as info:
        preimage(*Z6, _cap(5))
    assert (info.value.field, info.value.reached) == ("vertex_cap", 6)
    F3_to_Z2 = (F3, Target("lattice", 2), [(1, 0), (0, 1), (1, 1)], "zero")
    assert isinstance(preimage(*F3_to_Z2, _cap(15)), HomSubgroup)
    with pytest.raises(BudgetExceededError, match="^preimage lattice entries"):
        preimage(*F3_to_Z2, _cap(14))


def _product(H, K, budget):
    """(n, edges) of the fibre product's component of (basepoint,
    basepoint), its vertices numbered by BFS in canonical letter order and
    its tables laid out as `StallingsGraph.edges`: the product loop
    `intersect` ran before the shared BFS, kept as its oracle."""
    r = H.ctx.rank
    start = (BASEPOINT, BASEPOINT)
    number = {start: 0}
    order = [start]
    edges = [dict() for _ in range(2 * r + 1)]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for g in range(1, r + 1):
            for x in (g, -g):
                a = H.edges[x].get(u[0])
                b = K.edges[x].get(u[1])
                if a is None or b is None:
                    continue
                v = (a, b)
                if v not in number:
                    if len(number) >= budget.vertex_cap:
                        raise BudgetExceededError("graph vertices", budget.vertex_cap)
                    number[v] = len(order)
                    order.append(v)
                edges[x][number[u]] = number[v]
                edges[-x][number[v]] = number[u]
    return len(order), edges


# ── every constructor returns its graph numbered as _canonical numbers it ───
# The speller and _complete read the BFS tree off the vertex order.


def _assert_canonically_numbered(G):
    canonical = stallings._canonical(G.ctx, range(G.nverts), G.edges, BASEPOINT)
    assert canonical.edges == G.edges
    assert canonical == G
    # the tree a constructor recorded is the one `_canonical` records
    assert G.tree == canonical.tree == _oracle_tree(G)


def _oracle_tree(G):
    """(parent, letter) read off a canonically numbered graph: scanning the
    vertices in order, an edge reaches a new vertex iff it reaches vertex
    number len(parent)."""
    parent, letter = [0], [0]
    for u in range(G.nverts):
        for g in range(1, G.ctx.rank + 1):
            for x in (g, -g):
                if G.edges[x].get(u) == len(parent):
                    parent.append(u)
                    letter.append(x)
    return parent, letter


def _cover(H):
    return hall_completion(H, 1)


_CONSTRUCTIONS = {
    "from_generators": lambda H, K, g: H,
    "join": lambda H, K, g: join(H, K),
    "intersect": lambda H, K, g: intersect(H, K),
    # the product of two coverings is never trimmed
    "intersect-coverings": lambda H, K, g: intersect(_cover(H), _cover(K)),
    "conjugate-core": lambda H, K, g: conjugate_subgroup(H, g),
    # a covering's conjugate only moves the basepoint
    "conjugate-covering": lambda H, K, g: conjugate_subgroup(_cover(H), g),
    "hall_completion": lambda H, K, g: hall_completion(H, 2),
    "trivial_subgroup": lambda H, K, g: trivial_subgroup(H.ctx),
}


@pytest.mark.parametrize("construction", list(_CONSTRUCTIONS))
@given(word_lists(max_words=3), word_lists(max_words=3), st.data())
@settings(max_examples=40, deadline=None)
def test_constructors_number_canonically(construction, drawn_h, drawn_k, data):
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H, K = from_generators(ctx, words_h), from_generators(ctx, words_k)
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    g = reduce_word(tuple(data.draw(st.lists(letter, max_size=5))))
    _assert_canonically_numbered(_CONSTRUCTIONS[construction](H, K, g))


@st.composite
def _finite_preimages(draw):
    """φ⁻¹(A) for φ from F₂ or F₃ to Z/m (m ≤ 8), A = dZ/m, or to Sym(n)
    (n ≤ 4), A the cyclic group of a random permutation."""
    ctx = free_group(draw(st.sampled_from([2, 3])))
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        images = draw(st.lists(st.integers(0, m - 1), min_size=ctx.rank, max_size=ctx.rank))
        return preimage(ctx, Target("cyclic", m), images, list(range(0, m, d)))
    n = draw(st.integers(1, 4))
    perm = st.permutations(list(range(n))).map(tuple)
    images = draw(st.lists(perm, min_size=ctx.rank, max_size=ctx.rank))
    p = draw(perm)
    identity = tuple(range(n))
    accepted, q = [identity], p
    while q != identity:
        accepted.append(q)
        q = tuple(p[i] for i in q)
    return preimage(ctx, Target("permutation", n), images, accepted)


@given(_finite_preimages())
@settings(max_examples=80, deadline=None)
def test_finite_preimages_number_canonically(G):
    _assert_canonically_numbered(G)


# ── every constructor keeps one table per letter and a tree of letters ──────

def _completed(H, L):
    """`_complete`'s K as a graph: in build numbering with the tree it
    gives, or numbered by `_canonical` when it gives none."""
    nverts, edges, tree = stallings._complete(H, L, Budget())
    if tree is None:
        return stallings._canonical(H.ctx, range(nverts), edges, BASEPOINT)
    return StallingsGraph(H.ctx, nverts, edges[: H.ctx.rank + 1], tree)


_BUILT = {
    **_CONSTRUCTIONS,
    "wedge_conjugate": lambda H, K, g: wedge_conjugate(H, K, g).finalize(),
    # a completion left in build numbering, with the tree `_complete` gives
    "complete-as-built": lambda H, K, g: H if H.is_covering() else _completed(H, 2),
}


@st.composite
def _built_graphs(draw, kind):
    if kind == "preimage":
        return draw(_finite_preimages())
    ctx, words_h = draw(word_lists(max_words=3))
    H = from_generators(ctx, words_h)
    K = from_generators(ctx, draw(_words_over(ctx)))
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    return _BUILT[kind](H, K, reduce_word(tuple(draw(st.lists(letter, max_size=5)))))


@pytest.mark.parametrize("kind", [*_BUILT, "preimage"])
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_every_constructor_keeps_tables_by_letter_and_a_tree_of_letters(kind, data):
    """2r + 1 tables, the table of x⁻¹ the inverse of the table of x, and a
    tree (parent, letter) in which each parent precedes its child and the
    child's letter leads from the parent to the child."""
    G = data.draw(_built_graphs(kind))
    r = G.ctx.rank
    assert len(G.edges) == 2 * r + 1 and G.edges[0] == {}
    for g in range(1, r + 1):
        for x in (g, -g):
            assert G.edges[-x] == {v: u for u, v in G.edges[x].items()}
    parent, letter = G.tree
    assert len(parent) == len(letter) == G.nverts
    assert (parent[0], letter[0]) == (0, 0)
    for v in range(1, G.nverts):
        assert parent[v] < v and G.edges[letter[v]][parent[v]] == v


# ── the layered completion against the heap-ordered one it replaced ─────────


def _oracle_complete(H, L, budget):
    """Hall completion grown from a heap of (distance, vertex): core
    distances by a frontier BFS, then every vertex closer than L popped in
    (distance, id) order, a new vertex hung on each missing edge."""
    r = H.ctx.rank
    succ = [dict(H.edges[g]) for g in range(1, r + 1)]
    pred = [dict(H.edges[-g]) for g in range(1, r + 1)]
    nverts = H.nverts
    dist = {BASEPOINT: 0}
    frontier = [BASEPOINT]
    while frontier:
        nxt = []
        for u in frontier:
            for g in range(r):
                for table in (succ[g], pred[g]):
                    v = table.get(u)
                    if v is not None and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
        frontier = nxt
    heap = [(d, v) for v, d in dist.items()]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d >= L:
            continue
        for g in range(r):
            if u not in succ[g]:
                if nverts >= budget.vertex_cap:
                    raise BudgetExceededError("completion vertices", budget.vertex_cap)
                v = nverts
                nverts += 1
                succ[g][u] = v
                pred[g][v] = u
                dist[v] = d + 1
                heapq.heappush(heap, (d + 1, v))
            if u not in pred[g]:
                if nverts >= budget.vertex_cap:
                    raise BudgetExceededError("completion vertices", budget.vertex_cap)
                v = nverts
                nverts += 1
                pred[g][u] = v
                succ[g][v] = u
                dist[v] = d + 1
                heapq.heappush(heap, (d + 1, v))
    for g in range(r):
        sources = [v for v in range(nverts) if v not in succ[g]]
        targets = [v for v in range(nverts) if v not in pred[g]]
        for u, v in zip(sources, targets):
            succ[g][u] = v
            pred[g][v] = u
    return stallings._canonical(H.ctx, range(nverts), _laid_out(succ, pred), BASEPOINT)


@st.composite
def completion_inputs(draw):
    """A core graph over F₂ or F₃ (a fold, an intersection of two folds, or
    the trivial subgroup) and a radius L in 0..6."""
    ctx, words = draw(word_lists(max_words=3, max_len=6))
    kind = draw(st.sampled_from(["fold", "intersect", "trivial"]))
    if kind == "trivial":
        H = trivial_subgroup(ctx)
    else:
        H = from_generators(ctx, words)
    if kind == "intersect":
        letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
        word = st.lists(letter, max_size=6).map(lambda ls: reduce_word(tuple(ls)))
        H = intersect(H, from_generators(ctx, draw(st.lists(word, max_size=3))))
    return H, draw(st.integers(0, 6))


def _renumbered(ctx, completed):
    """`_complete`'s (nverts, edges, tree), numbered by `_canonical`."""
    nverts, edges, _ = completed
    return stallings._canonical(ctx, range(nverts), edges, BASEPOINT)


def _completion_outcome(complete, H, L, cap):
    try:
        return complete(H, L, _cap(cap))
    except BudgetExceededError as exc:
        return exc.what


@given(completion_inputs(), st.floats(0, 1))
@example((trivial_subgroup(F3), 6), 0.5)
@example((from_generators(F2, [(1, 2, -1)]), 0), 0.0)
# a core that reaches past L, so vertices of the core beyond L are matched
@example((from_generators(F2, [(1, 1, 1, 1, 1, 2)]), 1), 0.5)
# no vertex closer than L lacks an edge, so only the check can raise
@example((gens("aaa", "b", "Aba"), 1), 0.0)
@settings(max_examples=80, deadline=None)
def test_layered_completion_matches_heap_oracle(drawn, cap_fraction):
    """Equal graphs, and under the same vertex_cap the same raise: the
    cap-th created vertex is the first refused by both. `_complete` then
    checks K against H, which fits every cap that K fits and may raise
    under a smaller one."""
    H, L = drawn
    K = _oracle_complete(H, L, Budget())
    assert _renumbered(H.ctx, stallings._complete(H, L, Budget())) == K
    n = K.nverts  # the completion keeps every vertex it creates
    for cap in {n, n - 1, max(1, round(n * cap_fraction))}:
        layered = _completion_outcome(
            lambda *a: _renumbered(H.ctx, stallings._complete(*a)), H, L, cap
        )
        oracle = _completion_outcome(_oracle_complete, H, L, cap)
        if layered == "graph vertices":  # the check, after a growth that fit
            assert cap < n and oracle == K
        else:
            assert layered == oracle
        assert (layered == "completion vertices") == (cap < n and n > H.nverts)


def _tree_words(G):
    """The tree word of each vertex, read down G's recorded tree, which
    must list every parent before its child."""
    parent, letter = G.tree
    words = [()]
    for v in range(1, G.nverts):
        assert parent[v] < v
        words.append(words[parent[v]] + (letter[v],))
    return words


@given(completion_inputs())
@example((from_generators(F2, [(1, 1, 1, 1, 1, 2)]), 1))  # a core past L
@example((from_generators(F2, [(1, 2, -1)]), 0))
@example((trivial_subgroup(F3), 0))
@settings(max_examples=80, deadline=None)
def test_completion_as_built_reads_as_the_canonical_one(drawn):
    """`_complete` gives K's tree iff H's core lies within L, and K in its
    build numbering with that tree is the canonical completion renumbered:
    the tree is the canonical tree, vertex for vertex through the tree
    words, and its basis and the candidates outside H are the canonical
    completion's."""
    H, L = drawn
    nverts, edges, tree = stallings._complete(H, L, Budget())
    C = _oracle_complete(H, L, Budget())
    assert _renumbered(H.ctx, (nverts, edges, tree)) == C
    assert (tree is None) == (max(map(len, _tree_words(H))) > L)
    if tree is None:
        return
    K = StallingsGraph(H.ctx, nverts, edges[: H.ctx.rank + 1], tree)
    canonical_words = _tree_words(C)
    for word in _tree_words(K):
        assert canonical_words[C.walk(BASEPOINT, word)] == word
    assert (K.basis(), K.basis_text()) == (C.basis(), C.basis_text())
    for cap in (1, 2, 20, 10**6):
        assert basis_outside(K, H, cap) == basis_outside(C, H, cap)


@functools.cache
def _deep_core():
    """The a-cycle of length 2,100 with a b-loop at every vertex but the one
    opposite the basepoint: a core of depth 1,050, whose completion at
    L = 1,052 has a tree deeper than Python recurses."""
    n = 2100
    succ = [{i: (i + 1) % n for i in range(n)}, {i: i for i in range(n) if i != n // 2}]
    pred = [{v: u for u, v in s.items()} for s in succ]
    return stallings._canonical(F2, range(n), _laid_out(succ, pred), BASEPOINT)


@given(completion_inputs(), st.sampled_from([1, 2, 20, 10**6]))
@example((trivial_subgroup(F3), 6), 20)
@example((gens("a"), 0), 10**6)  # words of length 1, all loops at the basepoint
# the core vertex 2 at depth 1 has all its edges, so no matching edge leaves it
@example((gens("aaa", "b", "Aba"), 1), 10**6)
@example((from_generators(free_group(27), [(1,), (2, 27, -2)]), 1), 2)
@settings(max_examples=150, deadline=None)
def test_walk_outside_matches_basis_outside(drawn, cap):
    """On every completion that `_complete` gives with its tree, the
    ordered walk of its tables that stops at the cap reads the first `cap`
    candidates that ranking every basis key outside H reads."""
    H, L = drawn
    nverts, edges, tree = stallings._complete(H, L, Budget())
    assume(tree is not None)
    K = StallingsGraph(H.ctx, nverts, edges[: H.ctx.rank + 1], tree)
    assert stallings._walk_outside(edges, tree, H, cap) == basis_outside(K, H, cap)


def test_walk_outside_of_a_tree_deeper_than_the_recursion_limit():
    H = _deep_core()
    nverts, edges, tree = stallings._complete(H, 1052, Budget())
    assert tree is not None and nverts == H.nverts + 8
    K = StallingsGraph(F2, nverts, edges[:3], tree)
    words = stallings._walk_outside(edges, tree, H, 3)
    assert [len(x) for x in words] == [2 * 1052 + 1] * 3
    assert words == basis_outside(K, H, 3)


@given(completion_inputs(), st.sampled_from([1, 2, 20, 10**6]))
@example((from_generators(F2, [(1, 1, 1, 1, 1, 2)]), 1), 10**6)  # a core past L
@example((from_generators(F2, [(1, 1, 1, 1, 1, 2)]), 1), 2)
@example((_deep_core(), 1052), 3)
@settings(max_examples=100, deadline=None)
def test_witness_candidates_read_the_canonical_completion(drawn, cap):
    """`_witness_candidates`, whichever route reads K, gives the index of
    `hall_completion(H, L)` and the first `cap` words of its basis outside
    H, each word walked through H."""
    H, L = drawn
    assume(not H.is_covering())
    K = hall_completion(H, L)
    expected = (K.index(), [x for x in K.basis() if not H.contains(x)][:cap])
    assert stallings._witness_candidates(H, L, cap, Budget()) == expected


def test_hall_completion_completes_once(monkeypatch):
    calls, complete = [], stallings._complete

    def counting(H, L, budget):
        calls.append(L)
        return complete(H, L, budget)

    monkeypatch.setattr(stallings, "_complete", counting)
    for H, L in ((gens("a", "bab"), 4), (trivial_subgroup(F3), 2), (gens("aBAb"), 0)):
        calls.clear()
        K = hall_completion(H, L)
        assert calls == [L]
        assert K.is_covering() and all(K.contains(x) for x in H.basis())


@given(completion_inputs())
@settings(max_examples=80, deadline=None)
def test_completion_check_fits_every_completion_that_fits(drawn):
    """The check meets one coset pair per vertex of H's Schreier ball of
    radius ⌈L/2⌉ (K ≥ H, so Hu = Hv forces Ku = Kv), and K holds the ball
    of radius L: a vertex_cap that K fits, the check fits too."""
    H, L = drawn
    K = hall_completion(H, L)
    assert hall_completion(H, L, _cap(K.nverts)) == K


@pytest.mark.parametrize("texts, radius, nverts", [(("a",), 1, 3), (("AA", "AbaBA"), 4, 100)])
def test_completion_under_its_own_vertex_count(texts, radius, nverts):
    """Under vertex_cap = |K|, the product search over B(radius) that checked
    completions raises, as these completions once did (exit 3 in the CLI);
    the half-radius check returns K. One vertex fewer stops the completion
    itself."""
    H = gens(*texts)
    K = hall_completion(H, radius)
    assert K.nverts == nverts
    with pytest.raises(BudgetExceededError, match="graph vertices"):
        distance_up_to(H, K, radius, _cap(nverts))
    assert hall_completion(H, radius, _cap(nverts)) == K
    with pytest.raises(BudgetExceededError, match="completion vertices"):
        hall_completion(H, radius, _cap(nverts - 1))


# ── the word route past 26 generators ───────────────────────────────────────

F27 = free_group(27)


def _words27(max_words, max_len):
    letter = st.sampled_from([1, 2, 26, 27]).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=max_len).map(lambda ls: reduce_word(tuple(ls)))
    return st.lists(word, max_size=max_words)


@given(_words27(4, 6), _words27(2, 5), st.booleans(), st.sampled_from([1, 2, 20, 10**6]))
@example([(1,), (2, 27, -2)], [], True, 20)
@example([(1,), (2, 26, -2)], [(27,)], False, 2)
@settings(max_examples=40, deadline=None)
def test_word_route_beyond_26_generators(words, extra, complete, cap):
    """Past the text form's 26 letters the basis and the witness candidates
    are spelled as words, and `basis_text` raises iff a basis word holds
    generator 27."""
    H = from_generators(F27, words)
    K = hall_completion(H, 1) if complete else join(H, extra)
    for G in (H, K):
        basis = G.basis()
        assert basis == _oracle_basis(G)
        if any(abs(x) == 27 for word in basis for x in word):
            with pytest.raises(MalformedInputError, match="at most 26 generators"):
                G.basis_text()
        else:
            assert G.basis_text() == [format_word(x) for x in basis]
    assert basis_outside(K, H, cap) == [x for x in K.basis() if not H.contains(x)][:cap]


# ── the speller reads the recorded tree; the BFS speller it replaced ────────


def _oracle_spelled_basis(G, H, text):
    """G's basis without the words in H, spelled along a BFS of G in vertex
    order that stores each vertex's tree word and that word's inverse and
    probes every table for unvisited vertices: the speller before the BFS
    tree was recorded."""
    r = G.ctx.rank
    spell = _CHAR_OF_LETTER.__getitem__ if text else lambda x: (x,)
    chars = [(spell(g + 1), spell(-g - 1)) for g in range(r)]
    succ = [G.edges[g] for g in range(1, r + 1)]
    pred = [G.edges[-g] for g in range(1, r + 1)]
    if H is None:
        h_succ = h_pred = [{}] * r
    else:
        h_succ = [H.edges[g] for g in range(1, r + 1)]
        h_pred = [H.edges[-g] for g in range(1, r + 1)]
    fwd, inv, hs = [None] * G.nverts, [None] * G.nverts, [None] * G.nverts
    fwd[BASEPOINT] = inv[BASEPOINT] = "" if text else IDENTITY
    hs[BASEPOINT] = BASEPOINT
    tree = [set() for _ in range(r)]  # sources of tree edges
    for u in range(G.nverts):
        fu, iu, hu = fwd[u], inv[u], hs[u]
        for g, (out_ch, in_ch) in enumerate(chars):
            v = succ[g].get(u)
            if v is not None and fwd[v] is None:
                fwd[v], inv[v], hs[v] = fu + out_ch, in_ch + iu, h_succ[g].get(hu)
                tree[g].add(u)
            v = pred[g].get(u)
            if v is not None and fwd[v] is None:
                fwd[v], inv[v], hs[v] = fu + in_ch, out_ch + iu, h_pred[g].get(hu)
                tree[g].add(v)
    out = []
    for g, (out_ch, _) in enumerate(chars):
        for u, v in succ[g].items():
            if u not in tree[g]:
                h = h_succ[g].get(hs[u])
                if h is None or h != hs[v]:
                    out.append(fwd[u] + out_ch + inv[v])
    out.sort(key=(lambda t: word_key(parse_word(t))) if text else word_key)
    return out


def _words_over(ctx, max_words=3, max_len=6):
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=max_len).map(lambda ls: reduce_word(tuple(ls)))
    return st.lists(word, max_size=max_words)


@st.composite
def spelled_graphs(draw, kind):
    """(G, H): G from the constructor `kind`, or built directly with the
    tree `_canonical` records, and H a fold over G's context."""
    if kind == "rank-27":
        H = from_generators(F27, draw(_words27(4, 6)))
        G = hall_completion(H, 1) if draw(st.booleans()) else join(H, draw(_words27(2, 5)))
        return G, H
    if kind == "preimage":
        G = draw(_finite_preimages())
        return G, from_generators(G.ctx, draw(_words_over(G.ctx)))
    ctx, words_h = draw(word_lists(max_words=3))
    H = from_generators(ctx, words_h)
    K = from_generators(ctx, draw(_words_over(ctx)))
    if kind == "direct":
        G = join(H, K)
        tree = stallings._canonical(ctx, range(G.nverts), G.edges, BASEPOINT).tree
        # the forward tables alone: the constructor derives their inverses
        G = StallingsGraph(ctx, G.nverts, G.edges[: ctx.rank + 1], tree)
    else:
        letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
        G = _CONSTRUCTIONS[kind](H, K, reduce_word(tuple(draw(st.lists(letter, max_size=5)))))
    return G, draw(st.sampled_from([H, K]))


@pytest.mark.parametrize("kind", [*_CONSTRUCTIONS, "preimage", "direct", "rank-27"])
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_speller_matches_the_bfs_oracle(kind, data):
    """`basis` and `basis_text` spell, and `basis_outside` ranks, along the
    recorded tree what the BFS speller spelled, as words and as text, under
    every cap."""
    G, H = data.draw(spelled_graphs(kind))
    words = _oracle_spelled_basis(G, None, text=False)
    outside = _oracle_spelled_basis(G, H, text=False)
    assert G.basis() == words
    for cap in (0, 1, 3, 20, len(outside) + 1):
        assert basis_outside(G, H, cap) == outside[:cap]
    if G.ctx.rank <= 26:
        texts = _oracle_spelled_basis(G, None, text=True)
        assert G.basis_text() == texts == [format_word(x) for x in words]
        outside_texts = [format_word(x) for x in basis_outside(G, H, len(outside) + 1)]
        assert outside_texts == _oracle_spelled_basis(G, H, text=True)


# ── queried subgroups stay folded ──────────────────────────────────────────


def _folded(ctx, words):
    """The builder of words that `word_lists` has reduced in ctx."""
    return fold(ctx, words, Budget())


@given(word_lists(max_words=5, max_len=9))
@example((F2, [(1, 2, -1), (1, 1), (2, -1, -2, 1)]))
@settings(max_examples=150, deadline=None)
def test_fold_leaves_nothing_to_trim(drawn):
    """A folded wedge of reduced loops is already its core: `_trim` removes
    no vertex, and finalizing it gives `from_generators`'s graph."""
    ctx, words = drawn
    builder = _folded(ctx, words)
    live = {v for v, root in enumerate(builder.parent) if v == root}
    tables = [dict(t) for t in builder.edges]
    assert not stallings._trim(live, tables, BASEPOINT)
    assert builder.finalize() == from_generators(ctx, words)


@given(word_lists(max_words=3), word_lists(max_words=3), st.booleans())
@example((F2, [(1, 2), (1, 2, -1, -2)]), (F2, [(2, 1, 2), (1, 1)]), False)  # trims
@settings(max_examples=80, deadline=None)
def test_intersect_with_a_folded_operand_equals_the_finalized_one(drawn_h, drawn_k, cover_h):
    """The product walks K's builder as it walks K's core, so the numbered
    result, recorded tree included, is the same."""
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    H = from_generators(ctx, words_h)
    H = hall_completion(H, 1) if cover_h else H
    folded = intersect(H, _folded(ctx, words_k))
    finalized = intersect(H, from_generators(ctx, words_k))
    assert folded == finalized and folded.tree == finalized.tree


def _distance_outcome(H, K, radius, cap):
    try:
        b = distance_up_to(H, K, radius, _cap(cap))
    except BudgetExceededError as exc:
        return "exceeded", exc.reached
    return b.kind, b.exponent, b.witness


@given(word_lists(max_words=3), word_lists(max_words=3), st.integers(0, 7), st.data())
@example((F2, [(1, 1, 2)]), (F2, [(1, 1, 1, 2)]), 7, None)
@settings(max_examples=100, deadline=None)
def test_distance_is_the_same_on_folded_and_finalized_operands(drawn_h, drawn_k, radius, data):
    """Same kind, exponent and witness, and under a small vertex_cap the
    same raise at the same level: the builders have the cores' states."""
    (ctx, words_h), (_, words_k) = drawn_h, drawn_k
    words_k = [x for x in words_k if all(abs(y) <= ctx.rank for y in x)]
    folded = (_folded(ctx, words_h), _folded(ctx, words_k))
    finalized = (from_generators(ctx, words_h), from_generators(ctx, words_k))
    caps = [10**6, 2, 5] if data is None else [10**6, data.draw(st.integers(1, 40))]
    for cap in caps:
        assert (_distance_outcome(*folded, radius, cap)
                == _distance_outcome(*finalized, radius, cap))


# ── lattice preimages against the document-form oracle ───────────────────────


def _words_of(ctx, max_size=10):
    letter = st.integers(1, ctx.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=8).map(lambda ls: reduce_word(tuple(ls)))
    return st.lists(word, min_size=1, max_size=max_size)


def _commutators(r):
    """[x, y] for letters x, y of distinct generators, reduced."""
    letters = [x for g in range(1, r + 1) for x in (g, -g)]
    return [(x, y, -x, -y) for x in letters for y in letters if abs(x) != abs(y)]


@given(lattice_documents(), st.data())
@settings(max_examples=150, deadline=None)
def test_lattice_preimages_agree_with_their_document_form(doc, data):
    """Membership, and equality of coset labels, agree with the oracle on
    random words and on each word times a commutator (the same coset); every
    HomSubgroup has r ≥ 2 and rank L < r, and holds no images."""
    H, oracle = lattice_forms(doc)
    words = data.draw(_words_of(H.ctx))
    words += [reduce_word(c + u) for u in words[:3] for c in _commutators(H.ctx.rank)[:4]]
    start, step = coset_automaton(H)
    keys = [functools.reduce(step, u, start) for u in words]
    for u in words:
        assert H.contains(u) == oracle.contains(u)
    for (u, ku), (v, kv) in itertools.combinations(zip(words, keys), 2):
        assert (ku == kv) == (oracle.coset_key(u) == oracle.coset_key(v))
    if isinstance(H, HomSubgroup):
        assert H.ctx.rank >= 2 and H.lattice.rank < H.ctx.rank
        assert not hasattr(H, "images")
        assert keys == [H.coset_key(u) for u in words]
    else:
        assert H.is_covering() or (H.ctx.rank == 1 and H.is_trivial())


@given(lattice_documents(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_subgroup_one_form_whatever_the_presentation(doc, data):
    """φ and −φ, a permutation or shear of Z^k's coordinates applied to the
    images and to A, and A's generators reordered with a redundant one, all
    describe one subgroup: equal, with equal hashes."""
    ctx, images, gens = doc
    k = len(images[0])
    H = lattice_forms(doc)[0]
    perm = data.draw(st.permutations(range(k)))
    s = data.draw(st.integers(-2, 2))

    def shear(v):  # x₀ += s·x_{k−1}, unimodular
        return (v[0] + s * v[-1],) + tuple(v[1:]) if k > 1 else v

    moves = [
        lambda v: tuple(-x for x in v),
        lambda v: tuple(v[i] for i in perm),
        shear,
    ]
    for move in moves:
        G = lattice_forms((ctx, [move(v) for v in images], [move(v) for v in gens]))[0]
        assert G == H and hash(G) == hash(H)
    extra = [tuple(map(sum, zip(*gens[:2])))] if gens else []
    G = lattice_forms((ctx, images, gens[::-1] + extra))[0]
    assert G == H and hash(G) == hash(H)
    if isinstance(H, StallingsGraph):
        assert from_generators(ctx, H.basis()) == H


@st.composite
def _containment_pairs(draw):
    """(H, its oracle, K, K's oracle): H a lattice preimage over F_r, K a
    lattice preimage (often of the same φ with a coarser A), a cyclic or
    symmetric kernel, a core graph or one of its Hall completions."""
    from chabauty_lab.zdlattice import hnf_from_generators

    doc = draw(lattice_documents())
    ctx, images, gens = doc
    H, H_oracle = lattice_forms(doc)
    kind = draw(st.sampled_from(["coarser", "lattice", "cyclic", "sym3", "graph", "completion"]))
    if kind == "coarser":
        vec = st.lists(st.integers(-3, 3), min_size=len(images[0]), max_size=len(images[0]))
        K, K_oracle = lattice_forms((ctx, images, gens + draw(st.lists(vec.map(tuple), max_size=2))))
    elif kind == "lattice":
        K, K_oracle = lattice_forms(draw(lattice_documents(rank=ctx.rank)))
    elif kind == "cyclic":
        m = draw(st.integers(1, 6))
        cyclic = draw(st.lists(st.integers(0, m - 1), min_size=ctx.rank, max_size=ctx.rank))
        K = kernel(ctx, Target("cyclic", m), cyclic)
        K_oracle = ImageHomSubgroup(ctx, [(v,) for v in cyclic], hnf_from_generators(1, [(m,)]))
    elif kind == "sym3":
        perm = st.permutations(range(3)).map(tuple)
        K = K_oracle = kernel(ctx, Target("permutation", 3), draw(st.lists(perm, min_size=ctx.rank, max_size=ctx.rank)))
    else:
        K = from_generators(ctx, draw(_words_of(ctx, max_size=3)))
        if kind == "completion":
            K = hall_completion(K, draw(st.integers(0, 2)))
        K_oracle = K
    return H, H_oracle, K, K_oracle


@given(_containment_pairs())
@settings(max_examples=200, deadline=None)
def test_containment_decision_against_members(pair):
    """Where H has finite index, the decision is its basis walk in K's
    oracle. Where it has not, H = ab⁻¹(L): the decision holds iff K's oracle
    accepts every member sampled here, the oracle-checked words
    p·[x, y]·p⁻¹ for each tree word p of K's core and the lifts of L's rows.
    Those suffice: an infinite-index core misses an edge at some vertex, at
    which a conjugated commutator leaves it; a finite-index K omitting
    [F, F] omits a conjugate by a coset rep of a basic commutator; and a K
    containing [F, F] is ab⁻¹(ab(K)), which holds a lift iff ab(K) holds
    its row."""
    H, H_oracle, K, K_oracle = pair
    decided = stallings.why_not_contained(H, K) is None
    if isinstance(H, StallingsGraph):
        assert decided == all(K_oracle.contains(u) for u in H.basis())
        return
    r = H.ctx.rank
    tree = _tree_words(K) if isinstance(K, StallingsGraph) else [()]
    members = [reduce_word(p + c + invert(p)) for p in tree for c in _commutators(r)]
    members += [
        reduce_word(tuple(x for g, e in enumerate(row, 1) for x in [g if e > 0 else -g] * abs(e)))
        for row in H.lattice.rows
    ]
    assert all(H_oracle.contains(u) for u in members)
    assert decided == all(K_oracle.contains(u) for u in members)


@pytest.mark.parametrize(
    "images, gens, index",
    [
        ([(1, 0)], [], None),
        ([(1, 0)], [(2, 0)], 2),
        ([(0, 0)], [], 1),
        ([(2, 3)], [(4, 6)], 2),
        ([(2, 3)], [(1, 0)], None),
        ([(6,)], [(4,)], 2),
        ([(0, 5, 0)], [(0, 15, 1)], None),
        ([(0, 5, 0)], [(0, 15, 1), (0, 0, 1)], 3),
    ],
)
def test_rank_one_preimages_are_coverings_or_trivial(images, gens, index):
    """F₁ is abelian and ab is an isomorphism, so φ⁻¹(A) = ab⁻¹(L) is the
    covering of index [Z : L], or the trivial subgroup when L = 0; no
    HomSubgroup, and containment is the basis walk."""
    F1 = free_group(1)
    H, oracle = lattice_forms((F1, images, gens))
    assert isinstance(H, StallingsGraph) and H.index() == index
    assert H.is_trivial() == (index is None)
    for n in range(-12, 13):
        an = (1,) * n if n >= 0 else (-1,) * -n
        assert H.contains(an) == oracle.contains(an)
    whole = from_generators(F1, [(1,)])
    assert stallings.why_not_contained(H, whole) is None
    assert (stallings.why_not_contained(whole, H) is None) == (index == 1)
