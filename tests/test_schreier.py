"""Schreier coset geometry: balls, ends estimates, fibers, the line probe.

The kernel of F₂ → Z (a ↦ 1, b ↦ 0) has coset space Z with a acting as the
shift and b trivially, so its Schreier graph is the line with a b-loop at
every vertex: ball of radius 10 = 21 vertices (cosets −10..10), 41 edges
(20 a-edges + 21 b-loops), 2 frontier vertices, 2 ends, probe verdict "Z".
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chabauty_lab.errors import BudgetExceededError, MalformedInputError
from chabauty_lab.schreier import (
    SchreierGraph,
    build,
    ends_estimate,
    ends_profile,
    fiber_diameters,
    intermediate_bound,
    qi_constants,
    qi_to_line_probe,
)
from chabauty_lab.stallings import (
    BASEPOINT,
    StallingsGraph,
    Target,
    from_generators,
    hall_completion,
    kernel,
    preimage,
    trivial_subgroup,
)
from chabauty_lab.words import (
    IDENTITY,
    ball,
    free_group,
    invert,
    iter_lattice_ball,
    lattice,
    multiply,
    parse_word,
    reduce_word,
)
from chabauty_lab.zdlattice import hnf_from_generators

F2 = free_group(2)
KER = kernel(F2, Target("lattice", 1), [(1,), (0,)])


def w(t):
    return parse_word(t, F2)


def _lattice_preimage(images, accepted_rows):
    """φ⁻¹(A) ≤ F₂ for φ sending a, b to `images` in Z^k, A spanned by the rows."""
    k = len(images[0])
    return preimage(F2, Target("lattice", k), images, hnf_from_generators(k, accepted_rows))


def gens(*texts):
    return from_generators(F2, [w(t) for t in texts])


# ── the ball construction ────────────────────────────────────────────────────


def test_kernel_ball_is_a_line_segment():
    S = build(KER, 10)
    assert S.nverts == 21
    assert S.nedges == 41
    assert len(S.frontier) == 2
    assert not S.is_complete()
    assert S.sphere_sizes() == [1] + [2] * 10


def test_finite_index_ball_completes():
    S = build(gens("aa", "b", "abA"), 10)
    assert S.is_complete()
    assert S.nverts == 2  # index 2: the whole coset space fits


def test_trivial_subgroup_ball_is_the_group_ball():
    S = build(trivial_subgroup(F2), 3)
    assert S.sphere_sizes() == [1, 4, 12, 36]
    assert S.nverts == 53


def test_generator_sets_match_between_hom_and_graph_subgroups():
    """The same subgroup given two ways yields the same coset geometry."""
    graph_even = gens("aa", "b", "abA")
    hom_even = kernel(F2, Target("cyclic", 2), [1, 0])
    S1, S2 = build(graph_even, 6), build(hom_even, 6)
    assert (S1.tree, S1.dist, S1.edges, S1.frontier) == (
        S2.tree, S2.dist, S2.edges, S2.frontier
    )
    assert S1.sphere_sizes() == S2.sphere_sizes()


def test_build_respects_vertex_budget():
    with pytest.raises(BudgetExceededError):
        build(trivial_subgroup(F2), 12)  # 3^12 ≫ the default vertex cap


# ── ends estimates ───────────────────────────────────────────────────────────


def test_two_ends_for_the_line():
    S = build(KER, 10)
    assert [ends_estimate(S, r) for r in (2, 3, 4)] == [2, 2, 2]


def test_zero_ends_for_finite_coset_space():
    S = build(gens("aa", "b", "abA"), 8)
    assert ends_estimate(S, 2) == 0


def test_many_ends_for_the_trivial_subgroup():
    S = build(trivial_subgroup(F2), 5)
    # outside B(1), each sphere-2 vertex roots its own component: 4·3 = 12,
    # and the count keeps growing with r — the tree has infinitely many ends
    assert ends_estimate(S, 1) == 12
    assert ends_estimate(S, 2) == 36


def test_ends_estimate_needs_interior_radius():
    S = build(KER, 6)
    with pytest.raises(MalformedInputError):
        ends_estimate(S, 6)  # nothing outside the ball to count


# ── the line probe ───────────────────────────────────────────────────────────


def test_probe_recognizes_the_line():
    p = qi_to_line_probe(build(KER, 10))
    assert p.verdict == "Z"
    assert not p.complete
    assert p.sphere_sizes[1:] == (2,) * 10


def test_probe_rejects_finite_and_branching():
    assert qi_to_line_probe(build(gens("aa", "b", "abA"), 8)).verdict == "neither"
    assert qi_to_line_probe(build(trivial_subgroup(F2), 8)).verdict == "neither"


_LINES = {
    **{
        f"ker(F2 -> Z), images {images}": kernel(F2, Target("lattice", 1), images)
        for images in ([(1,), (0,)], [(-1,), (0,)], [(0,), (1,)], [(0,), (-1,)], [(2,), (3,)])
    },
    **{
        f"ladder Z x Z/{m}": _lattice_preimage([(1, 0), (0, 1)], [(0, m)])
        for m in (2, 3)
    },
    "trivial subgroup of F1": trivial_subgroup(free_group(1)),
}
_PLANES = {
    "ker(F2 -> Z^2)": kernel(F2, Target("lattice", 2), [(1, 0), (0, 1)]),
    "ker(F2 -> Z^2), swapped and negated": kernel(F2, Target("lattice", 2), [(0, -1), (1, 0)]),
    "ker(F3 -> Z^3)": kernel(
        free_group(3), Target("lattice", 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ),
}


@pytest.mark.parametrize("radius", [8, 9, 16, 30])
@pytest.mark.parametrize("name", list(_LINES))
def test_probe_reads_bounded_spheres_with_two_ends_as_the_line(name, radius):
    p = qi_to_line_probe(build(_LINES[name], radius))
    assert (p.verdict, p.reason) == ("Z", "two stable ends, bounded spheres")


@pytest.mark.parametrize("radius", [8, 9, 16, 30])
@pytest.mark.parametrize("name", list(_PLANES))
def test_probe_reads_growing_spheres_as_neither(name, radius):
    """The grid Z² has one stable end but spheres of size 4r, so it is
    neither the line nor the ray; nor is Z³."""
    p = qi_to_line_probe(build(_PLANES[name], radius))
    assert (p.verdict, p.reason) == ("neither", "spheres grow past R/2")


def test_probe_reads_a_given_ends_profile_as_its_own():
    for H in (KER, gens("aa", "b", "abA"), trivial_subgroup(F2), gens("a", "bab")):
        S = build(H, 9)
        assert qi_to_line_probe(S, ends_profile(S)) == qi_to_line_probe(S)


# ── fiber diameters ──────────────────────────────────────────────────────────


def test_fibers_of_even_subgroup_in_whole_group():
    H = gens("aa", "b", "abA")
    reports = fiber_diameters(build(H, 6), from_generators(F2, [w("a"), w("b")]))
    assert len(reports) == 1
    r = reports[0]
    assert r.representative == ()
    assert r.size == 2
    assert r.diameter == 1
    assert not r.lower_bound


def test_fibers_of_kernel_over_index_two_preimage():
    even_preimage = _lattice_preimage([(1,), (0,)], [(2,)])
    reports = fiber_diameters(build(KER, 10), even_preimage)
    stats = [(r.size, r.diameter, r.lower_bound) for r in reports]
    assert stats == [(11, 20, True), (10, 18, False)]


def test_fiber_containment_enforced():
    with pytest.raises(MalformedInputError):
        fiber_diameters(build(gens("a"), 6), gens("b"))  # a ∉ ⟨b⟩: not intermediate


def test_containment_of_lattice_preimages_is_decided():
    """Every pair of subgroup kinds is decided: a covering by its basis walk,
    ab⁻¹(L) ≤ ab⁻¹(L′) by L ⊆ L′ whatever φ gave each, and ab⁻¹(L) over a
    core graph K by [F_r : K] = [Z^r : ab(K)] and L ⊆ ab(K); a K of infinite
    index never contains it. A refusal names why."""
    four = build(_lattice_preimage([(1,), (0,)], [(4,)]), 8)
    fiber_diameters(four, _lattice_preimage([(1,), (0,)], [(2,)]))
    fiber_diameters(four, _lattice_preimage([(3,), (0,)], [(6,)]))  # another φ, same K
    for K, word in ((_lattice_preimage([(0,), (1,)], [(2,)]), "b"),
                    (_lattice_preimage([(1,), (0,)], [(3,)]), "aaaa")):
        with pytest.raises(MalformedInputError, match=rf"^H is not contained in K \(basis word {word} not"):
            fiber_diameters(four, K)
    ker = build(KER, 8)
    for K in (gens("a", "b"), gens("aa", "b", "abA"), kernel(F2, Target("lattice", 1), [(2,), (0,)]),
              kernel(F2, Target("lattice", 2), [(1, 1), (0, 0)]), KER):
        fiber_diameters(ker, K)
    fiber_diameters(build(kernel(F2, Target("lattice", 2), [(1, 0), (0, 1)]), 6), KER)
    refusals = [
        (kernel(F2, Target("lattice", 1), [(0,), (1,)]), "ab(H) holds [0, 1], which ab(K) does not"),
        (gens("aa", "bb", "ab"), "ab(H) holds [0, 1], which ab(K) does not"),
        (gens("a", "bab"), "K has infinite index, and H contains [F, F]"),
        (kernel(F2, Target("permutation", 3), [(1, 0, 2), (0, 2, 1)]),
         "K does not contain [F, F], and H does"),
    ]
    for K, why in refusals:
        with pytest.raises(MalformedInputError, match=rf"^H is not contained in K \({re.escape(why)}\)$"):
            fiber_diameters(ker, K)


def test_schreier_reads_no_field_of_a_lattice_preimage():
    """Containment is decided beside the representation, in `stallings`:
    `schreier` names no HomSubgroup and reads no lattice, images or
    accepted subgroup."""
    import ast
    import inspect

    from chabauty_lab import schreier

    tree = ast.parse(inspect.getsource(schreier))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    fields = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "HomSubgroup" not in names
    assert not fields & {"lattice", "images", "accepted"}


# ── quasi-isometry arithmetic ────────────────────────────────────────────────


def test_qi_constant_propagation():
    assert qi_constants(1) == (7, 14)
    assert qi_constants(2) == (34, 68)
    assert qi_constants(3) == (99, 198)


def test_intermediate_bound_for_f2():
    assert intermediate_bound(F2, 1) == 32


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_intermediate_bound_counts_the_lattice_ball_by_its_closed_form(d):
    for D in range(11):
        assert intermediate_bound(lattice(d), D) == 2 ** len(list(iter_lattice_ball(d, D)))


# ── oracles: the coset-key BFS, per-radius ends, all-sources fiber BFS ──────


def _oracle_ends(S, r):
    """The ends estimate at r by its own union-find: join the edges among
    the vertices outside the closed r-ball, then count the components that
    hold a frontier vertex."""
    outside = [v for v in range(S.nverts) if S.dist[v] > r]
    parent = {v: v for v in outside}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for table in S.edges:
        for u, v in table.items():
            if u in parent and v in parent:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
    return len({find(v) for v in S.frontier if v in parent})


def _oracle_coset_key(H, w):
    """Label of H·w read off the whole word: the Stallings core vertex where
    w leaves the core plus the rest of w, or the homomorphism's coset key."""
    if isinstance(H, StallingsGraph):
        v = BASEPOINT
        for i, x in enumerate(w):
            nxt = H.edges[x].get(v)
            if nxt is None:
                return (v, w[i:])
            v = nxt
        return (v, IDENTITY)
    return H.coset_key(w)


def _oracle_build(H, radius, coset_key=None):
    """(reps, dist, succ, frontier) by BFS that multiplies each rep by each
    letter and keys the reduced product from scratch (by `coset_key`, or
    else by `_oracle_coset_key`)."""
    if coset_key is None:
        coset_key = lambda u: _oracle_coset_key(H, u)
    rank = H.ctx.rank
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    keys = {coset_key(IDENTITY): 0}
    reps, dist = [IDENTITY], [0]
    succ = [dict() for _ in range(rank)]
    queue = [0]
    for v in queue:
        for x in letters:
            u = multiply(reps[v], (x,))
            key = coset_key(u)
            w = keys.get(key)
            if w is None:
                if dist[v] >= radius:
                    continue
                w = len(reps)
                keys[key] = w
                reps.append(u)
                dist.append(dist[v] + 1)
                queue.append(w)
            if x > 0:
                succ[x - 1][v] = w
            else:
                succ[-x - 1][w] = v
    frontier = frozenset(v for v, d in enumerate(dist) if d == radius)
    return tuple(reps), tuple(dist), tuple(succ), frontier


def _oracle_fibers(S, K):
    """(representative, size, diameter, lower_bound) per fiber: a BFS from
    every fiber vertex until it has reached all the others."""
    fibers = {}
    for v in range(S.nverts):
        fibers.setdefault(_oracle_coset_key(K, S.rep(v)), []).append(v)
    adj = S.undirected_adjacency()
    out = []
    for verts in sorted(fibers.values(), key=min):
        vs = sorted(verts)
        diameter, disconnected = 0, False
        for src in vs:
            seen = {src: 0}
            layer = [src]
            while layer and any(v not in seen for v in vs):
                nxt = []
                for u in layer:
                    for w in adj[u]:
                        if w not in seen:
                            seen[w] = seen[u] + 1
                            nxt.append(w)
                layer = nxt
            for v in vs:
                if v in seen:
                    diameter = max(diameter, seen[v])
                else:
                    disconnected = True
        touched = any(v in S.frontier for v in vs)
        out.append((S.rep(vs[0]), len(vs), diameter, touched or disconnected))
    return out


def _ball_words(S):
    """(rep(v) for each v, dist, succ, frontier): the ball as `_oracle_build`
    gives it, each word spelled off the tree, and succ the tables of the
    generators 1..r."""
    return tuple(map(S.rep, range(S.nverts))), S.dist, S.edges[1:], S.frontier


def _fiber_tuples(reports):
    return [(r.representative, r.size, r.diameter, r.lower_bound) for r in reports]


def _letters(rank):
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def _words(rank, max_size=5):
    return st.lists(st.sampled_from(_letters(rank)), max_size=max_size).map(reduce_word)


def _perm_closure(n, gens):
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
def _hom_pairs(draw, rank, kinds=("cyclic", "permutation", "lattice"), max_m=8, max_n=4):
    """H ≤ K: one homomorphism to Z/m (m ≤ max_m), Sym(n) (n ≤ max_n) or
    Z^k, nested accepted subgroups."""
    ctx = free_group(rank)
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        m = draw(st.integers(1, max_m))
        images = draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank))
        dk = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        dh = draw(st.sampled_from([d for d in range(dk, m + 1) if m % d == 0 and d % dk == 0]))
        target = Target("cyclic", m)
        acc = lambda d: sorted({(d * k) % m for k in range(m)})
        return preimage(ctx, target, images, acc(dh)), preimage(ctx, target, images, acc(dk))
    if kind == "permutation":
        n = draw(st.integers(1, max_n))
        perm = st.permutations(list(range(n))).map(tuple)
        images = draw(st.lists(perm, min_size=rank, max_size=rank))
        gh = draw(st.lists(perm, max_size=1))
        gk = gh + draw(st.lists(perm, max_size=1))
        target = Target("permutation", n)
        return (
            preimage(ctx, target, images, _perm_closure(n, gh)),
            preimage(ctx, target, images, _perm_closure(n, gk)),
        )
    k = draw(st.integers(1, 2))
    vec = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple)
    images = draw(st.lists(vec, min_size=rank, max_size=rank))
    gh = draw(st.lists(vec, max_size=2))
    gk = gh + draw(st.lists(vec, max_size=1))
    target = Target("lattice", k)
    return (
        preimage(ctx, target, images, hnf_from_generators(k, gh)),
        preimage(ctx, target, images, hnf_from_generators(k, gk)),
    )


@st.composite
def _graph_pairs(draw, rank):
    """H ≤ K as Stallings graphs: K adds generators to H, or is a finite-index
    Hall completion of H; H may be trivial."""
    ctx = free_group(rank)
    gens = draw(st.lists(_words(rank), max_size=3))
    H = from_generators(ctx, gens)
    if draw(st.booleans()):
        K = hall_completion(H, draw(st.integers(0, 3)))
    else:
        K = from_generators(ctx, gens + draw(st.lists(_words(rank), max_size=2)))
    return H, K


@st.composite
def _commutator_pairs(draw, rank):
    """A Stallings H generated by commutators, under the kernel-like K of a
    homomorphism to an abelian target (commutators map to 0)."""
    ctx = free_group(rank)
    _, K = draw(_hom_pairs(rank, kinds=("cyclic", "lattice")))
    comms = [
        reduce_word(u + v + invert(u) + invert(v))
        for u, v in draw(st.lists(st.tuples(_words(rank, 3), _words(rank, 3)), max_size=2))
    ]
    return from_generators(ctx, comms), K


@st.composite
def subgroup_pairs(draw, max_radius=(6, 4)):
    """(H, K, radius) with H ≤ K over F₂ (radius ≤ max_radius[0]) or F₃
    (radius ≤ max_radius[1])."""
    rank = draw(st.sampled_from([2, 3]))
    radius = draw(st.integers(0, max_radius[0] if rank == 2 else max_radius[1]))
    shape = draw(st.sampled_from([_graph_pairs, _hom_pairs, _commutator_pairs]))
    H, K = draw(shape(rank))
    return H, K, radius


@given(subgroup_pairs())
@settings(max_examples=150, deadline=None)
def test_build_matches_the_coset_key_bfs(case):
    H, K, radius = case
    for sub in (H, K):
        S = build(sub, radius)
        assert _ball_words(S) == _oracle_build(sub, radius)
        parent, letter = S.tree
        assert (parent[0], letter[0]) == (0, 0)
        for v in range(1, S.nverts):
            assert S.rep(parent[v]) + (letter[v],) == S.rep(v)


@given(subgroup_pairs())
@settings(max_examples=100, deadline=None)
def test_balls_keep_tables_by_letter_and_a_tree_of_letters(case):
    """A ball of either subgroup kind is laid out as a core graph's forward
    tables, edges[0] == {} and edges[g] for each generator g, with a tree
    (parent, letter) in which each parent precedes its child and the
    child's letter leads from the parent to the child. Its distances are
    one more than the parent's, and are those of a BFS of the ball itself;
    the frontier is the sphere of radius R."""
    H, K, radius = case
    for sub in (H, K):
        S = build(sub, radius)
        r = S.ctx.rank
        assert len(S.edges) == r + 1 and S.edges[0] == {}
        parent, letter = S.tree
        assert len(parent) == len(letter) == len(S.dist) == S.nverts
        assert (parent[0], letter[0], S.dist[0]) == (0, 0, 0)
        for v in range(1, S.nverts):
            p, x = parent[v], letter[v]
            assert p < v and x != 0
            assert S.edges[x][p] == v if x > 0 else S.edges[-x][v] == p
            assert S.dist[v] == S.dist[p] + 1
        adj = S.undirected_adjacency()
        seen, queue = {0: 0}, [0]
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        assert [seen[v] for v in range(S.nverts)] == list(S.dist)
        assert S.frontier == {v for v in range(S.nverts) if S.dist[v] == radius}
        assert max(S.dist) <= radius


@given(subgroup_pairs())
@settings(max_examples=150, deadline=None)
def test_ends_profile_matches_ends_estimate(case):
    H, K, radius = case
    for sub in (H, K):
        S = build(sub, radius)
        profile = ends_profile(S)
        # the profile runs to the ball's depth: the radius, unless the ball
        # is complete, and then every r past it has 0 ends
        assert len(profile) == (max(S.dist) if S.is_complete() else S.radius)
        padded = profile + [0] * (S.radius - len(profile))
        assert padded == [_oracle_ends(S, r) for r in range(S.radius)]
        assert padded == [ends_estimate(S, r) for r in range(S.radius)]


def test_ends_profile_of_the_line_and_the_tree():
    assert ends_profile(build(KER, 10)) == [2] * 10
    assert ends_profile(build(trivial_subgroup(F2), 4)) == [4, 12, 36, 108]
    complete = build(gens("aa", "b", "abA"), 6)
    assert ends_profile(complete) == [0]  # its depth is 1
    assert [ends_estimate(complete, r) for r in range(6)] == [0] * 6


@given(subgroup_pairs(max_radius=(4, 3)))
@settings(max_examples=120, deadline=None)
def test_fiber_diameters_match_all_sources_bfs(case):
    H, K, radius = case
    S = build(H, radius)
    assert _fiber_tuples(fiber_diameters(S, K)) == _oracle_fibers(S, K)


@given(_hom_pairs(2, max_m=30, max_n=5), st.integers(3, 8))
@settings(max_examples=120, deadline=None)
def test_fiber_diameters_of_larger_quotients_match_all_sources_bfs(pair, radius):
    """Finite quotients up to Z/30 and Sym(5) and lattice quotients out to
    radius 8: fibers whose diameter the double sweep alone can miss."""
    H, K = pair
    S = build(H, radius)
    assert _fiber_tuples(fiber_diameters(S, K)) == _oracle_fibers(S, K)


_SHORT_SWEEPS = [
    # ker(F₂ → Z/25, a ↦ 9, b ↦ 11) in F₂: one fiber, the whole ball
    (Target("cyclic", 25), [9, 11], [0], list(range(25)), 3),
    # preimages of ⟨(3 2 0 1)⟩ ≤ ⟨(3 2 0 1), (3 1 2 0)⟩ ≤ Sym(4)
    (Target("permutation", 4), [(1, 3, 0, 2), (2, 3, 0, 1)],
     [(3, 2, 0, 1)], [(3, 2, 0, 1), (3, 1, 2, 0)], 3),
    # preimages of ⟨(1 3 0 4 2)⟩ ≤ ⟨(1 3 0 4 2), (1 3 4 0 2)⟩ ≤ Sym(5)
    (Target("permutation", 5), [(3, 2, 4, 1, 0), (4, 3, 0, 2, 1)],
     [(1, 3, 0, 4, 2)], [(1, 3, 0, 4, 2), (1, 3, 4, 0, 2)], 8),
    # lattice preimages under a ↦ (−1, 1), b ↦ (1, 1)
    (Target("lattice", 2), [(-1, 1), (1, 1)],
     [(-2, -1), (2, 1)], [(-2, -1), (2, 1), (2, -1)], 4),
]


@pytest.mark.parametrize("target, images, h_gens, k_gens, radius", _SHORT_SWEEPS,
                         ids=["z25", "sym4", "sym5", "z2-lattice"])
def test_fiber_diameters_where_the_double_sweep_falls_short(
    target, images, h_gens, k_gens, radius
):
    """Pieces whose diameter the double sweep misses, so that only the
    layered eccentricities find it (for the Sym(5) and lattice pieces, only
    if they run until the triangle bound is met)."""
    if target.kind == "lattice":
        H, K = (_lattice_preimage(images, g) for g in (h_gens, k_gens))
    elif target.kind == "permutation":
        H, K = (preimage(F2, target, images, _perm_closure(target.param, g))
                for g in (h_gens, k_gens))
    else:
        H, K = (preimage(F2, target, images, g) for g in (h_gens, k_gens))
    S = build(H, radius)
    assert _fiber_tuples(fiber_diameters(S, K)) == _oracle_fibers(S, K)


def _plane_pair(images, line):
    """ker(F₂ → Z², generator images `images`) inside the preimage of the
    line spanned by `line`: the Schreier graph is the grid Z², and the fibers
    are the lines parallel to `line`."""
    target = Target("lattice", 2)
    return (
        kernel(F2, target, images),
        _lattice_preimage(images, [line]),
    )


@st.composite
def _plane_pairs(draw):
    """Grid fibers out to radius 12: the coordinate axes as images in either
    generator order and with either sign, over a coordinate line (and, less
    often, a diagonal or a steeper line)."""
    e1 = (draw(st.sampled_from([1, -1])), 0)
    e2 = (0, draw(st.sampled_from([1, -1])))
    images = [e1, e2] if draw(st.booleans()) else [e2, e1]
    line = draw(st.sampled_from([(0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (1, -2)]))
    return _plane_pair(images, line) + (draw(st.integers(0, 12)),)


@given(_plane_pairs())
@settings(max_examples=40, deadline=None)
def test_fiber_diameters_of_grid_lines_match_all_sources_bfs(case):
    """Fibers many layers deep around their centre, where the search stops
    early."""
    H, K, radius = case
    S = build(H, radius)
    assert _fiber_tuples(fiber_diameters(S, K)) == _oracle_fibers(S, K)


@pytest.mark.parametrize("radius", [8, 12])
@pytest.mark.parametrize("images", [[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
def test_grid_columns_are_as_long_as_they_are_wide(radius, images):
    """Over the line spanned by (0, 1), a fiber is a column x = const of the
    radius-R diamond: 2(R − |x|) + 1 vertices, its ends 2(R − |x|) apart
    and on the frontier."""
    H, K = _plane_pair(images, (0, 1))
    S = build(H, radius)
    reports = fiber_diameters(S, K)
    assert _fiber_tuples(reports) == _oracle_fibers(S, K)
    assert sorted(r.size for r in reports) == sorted(
        2 * (radius - abs(x)) + 1 for x in range(-radius, radius + 1)
    )
    assert all(r.diameter == r.size - 1 and r.lower_bound for r in reports)


def test_fiber_oracle_on_frontier_and_disconnected_fibers():
    even = _lattice_preimage([(1,), (0,)], [(2,)])
    S = build(KER, 6)
    expected = _oracle_fibers(S, even)
    assert expected[0][3]  # the even fiber holds the frontier cosets ±6
    assert _fiber_tuples(fiber_diameters(S, even)) == expected
    # Cut the a-edge from the trivial coset to Ha: the segment splits in two,
    # and each fiber is disconnected within what is left.
    a = S.edges[1]
    cut = SchreierGraph(
        S.subgroup, S.radius, S.nverts,
        ({}, {u: v for u, v in a.items() if u != 0}, *S.edges[2:]), S.tree,
    )
    expected = _oracle_fibers(cut, even)
    assert [f[2:] for f in expected] == [(6, True), (4, True)]
    assert _fiber_tuples(fiber_diameters(cut, even)) == expected


# ── finite targets: the covering against the homomorphism ───────────────────


@st.composite
def _finite_homs(draw):
    """(ctx, target, images, accepted) for φ from F₂ or F₃ to Z/m (m ≤ 8) or
    Sym(n) (n ≤ 4), with A a random subgroup of the target."""
    rank = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        images = draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank))
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        return free_group(rank), Target("cyclic", m), images, list(range(0, m, d))
    n = draw(st.integers(1, 4))
    perm = st.permutations(list(range(n))).map(tuple)
    images = draw(st.lists(perm, min_size=rank, max_size=rank))
    accepted = _perm_closure(n, draw(st.lists(perm, max_size=2)))
    return free_group(rank), Target("permutation", n), images, accepted


def _phi(target, images, w):
    """φ(w) straight from the generator images: a residue mod m, or the
    permutation that applies φ of the first letter first."""
    if target.kind == "cyclic":
        return sum(images[x - 1] if x > 0 else -images[-x - 1] for x in w) % target.param
    p = tuple(range(target.param))
    for x in w:
        g = images[abs(x) - 1]
        if x < 0:
            g = tuple(sorted(range(len(g)), key=g.__getitem__))  # g⁻¹
        p = tuple(g[i] for i in p)
    return p


def _coset_of_image(target, accepted, x):
    """The right coset A·x, as a set."""
    if target.kind == "cyclic":
        return frozenset((a + x) % target.param for a in accepted)
    return frozenset(tuple(x[i] for i in a) for a in accepted)


@given(_finite_homs(), st.data())
@settings(max_examples=150, deadline=None)
def test_finite_preimage_is_the_covering_of_its_cosets(hom, data):
    """The covering accepts w iff φ(w) ∈ A, and its Schreier ball is the BFS
    keyed by the coset A·φ(w)."""
    ctx, target, images, accepted = hom
    H = preimage(ctx, target, images, accepted)
    assert H.is_covering()
    words = ball(ctx, 3) + data.draw(st.lists(_words(ctx.rank, 8), max_size=30))
    for w in words:
        assert H.contains(w) == (_phi(target, images, w) in accepted)
    radius = data.draw(st.integers(0, 8))
    S = build(H, radius)
    key = lambda u: _coset_of_image(target, accepted, _phi(target, images, u))
    assert _ball_words(S) == _oracle_build(H, radius, key)

