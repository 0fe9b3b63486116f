"""Folded core graphs: membership, rank, index, and the subgroup operations.

The hand-checked fixtures:

* H = ⟨a², b, aba⁻¹⟩ is the even-a-exponent subgroup of F₂ — index 2,
  rank 3 (Nielsen-Schreier: 2·(2−1)+1), core on 2 vertices with all 4
  generator edges present at each (it is a covering of the rose).
* ⟨a, bab⟩ folds to a 3-vertex core that is not a covering (infinite index).
* ⟨a²⟩ ∩ ⟨a³⟩ = ⟨a⁶⟩ (intersection of subgroups of ⟨a⟩ ≅ Z).
* b·⟨a⟩·b⁻¹ = ⟨bab⁻¹⟩.

The worklist fold is checked against the full-rebuild edge-set fold it
replaced (`_oracle_core`), and `basis` against the path-tuple construction.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chabauty_lab import stallings
from chabauty_lab.budgets import Budget
from chabauty_lab.errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
)
from chabauty_lab.stallings import (
    BASEPOINT,
    HomSubgroup,
    Target,
    conjugate_subgroup,
    from_generators,
    hall_completion,
    intersect,
    join,
    kernel,
    trivial_subgroup,
    whole_group,
)
from chabauty_lab.words import (
    ball,
    conjugate,
    free_group,
    graded_ball,
    invert,
    multiply,
    parse_word,
    reduce_word,
    word_key,
)

F2 = free_group(2)
F3 = free_group(3)


def w(text):
    return parse_word(text, F2)


def gens(*texts):
    return from_generators(F2, [w(t) for t in texts])


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
    assert K.shortest_nontrivial() == (1, 1, 1, 1, -2, -1, -1)


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


def test_preimage_of_even_lattice():
    from chabauty_lab.zdlattice import hnf_from_generators

    even = HomSubgroup(
        F2,
        Target("lattice", 1),
        [(1,), (0,)],
        hnf_from_generators(1, [(2,)]),
    )
    assert even.contains(w("aa")) and even.contains(w("b"))
    assert not even.contains(w("a"))
    assert len({even.coset_key(v) for v in ball(F2, 3)}) == 2


def test_cyclic_target_kernel():
    # a, b both map to 1 mod 3: membership is exponent-sum ≡ 0 (mod 3)
    ker = kernel(F2, Target("cyclic", 3), [1, 1])
    assert ker.contains(w("aaa")) and ker.contains(w("aB"))
    assert not ker.contains(w("ab"))
    assert len({ker.coset_key(v) for v in ball(F2, 3)}) == 3


def test_permutation_target_kernel():
    # a ↦ the swap, b ↦ identity on two points; accepted = {identity}
    sub = HomSubgroup(F2, Target("permutation", 2), [(1, 0), (0, 1)], [(0, 1)])
    assert sub.contains(w("aa")) and sub.contains(w("b"))
    assert not sub.contains(w("a"))
    assert len({sub.coset_key(v) for v in ball(F2, 3)}) == 2


def test_permutation_accepted_must_be_subgroup():
    with pytest.raises(MalformedInputError):
        HomSubgroup(
            F2,
            Target("permutation", 2),
            [(1, 0), (0, 1)],
            [(1, 0)],  # not closed: misses the identity
        )


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
    return stallings._canonical(ctx, seen, succ, pred, base)


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
    return [(image(u), g, image(v)) for g in range(H.ctx.rank) for u, v in H.succ[g].items()]


def _old_word_key(word):
    return (len(word), tuple((abs(x), 0 if x > 0 else 1) for x in word))


def _oracle_basis(H):
    """Free basis from one tree path tuple per vertex."""
    path, tree, order = {BASEPOINT: ()}, set(), [BASEPOINT]
    for u in order:
        for g in range(H.ctx.rank):
            v = H.succ[g].get(u)
            if v is not None and v not in path:
                path[v] = path[u] + (g + 1,)
                tree.add((u, g))
                order.append(v)
            v = H.pred[g].get(u)
            if v is not None and v not in path:
                path[v] = path[u] + (-(g + 1),)
                tree.add((v, g))
                order.append(v)
    out = [
        multiply(multiply(path[u], (g + 1,)), invert(path[v]))
        for g in range(H.ctx.rank)
        for u, v in H.succ[g].items()
        if (u, g) not in tree
    ]
    return sorted(out, key=_old_word_key)


@st.composite
def word_lists(draw, max_words=4, max_len=7):
    rank = draw(st.sampled_from([2, 3]))
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=max_len).map(lambda ls: reduce_word(tuple(ls)))
    return free_group(rank), draw(st.lists(word, max_size=max_words))


def _oracle_from_generators(ctx, words):
    words = [x for x in words if x]
    edges, nxt = _loop_edges(words, 1)
    return _oracle_core(ctx, nxt, edges)


@given(word_lists())
@settings(max_examples=150, deadline=None)
def test_fold_matches_full_rebuild_oracle(drawn):
    ctx, words = drawn
    assert from_generators(ctx, words) == _oracle_from_generators(ctx, words)


@given(word_lists(max_words=3, max_len=5), st.sampled_from([1, 2]))
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
    # tail 0 → 1 → … → |g| spelling g, H hung at |g| (its old basepoint)
    edges = [(k, x - 1, k + 1) if x > 0 else (k + 1, -x - 1, k) for k, x in enumerate(g)]
    edges += _graph_edges(H, lambda v: len(g) + v)
    assert conjugate_subgroup(H, g) == _oracle_core(ctx, len(g) + H.nverts, edges)


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
        for a, c in H.succ[g].items()
        for b, d in K.succ[g].items()
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
