"""Stallings folded automata for finitely generated subgroups of free groups,
plus homomorphism-defined subgroups in the one form each subgroup fixes: the
covering of the rose at finite index, else ab⁻¹(L) (:class:`HomSubgroup`).

A subgroup H ≤ F_r is stored as its core graph: a finite connected digraph
with edges labelled by generators 1..r, a basepoint, no two equally-labelled
edges sharing a source or a target (folded), and no degree-1 vertex other than
possibly the basepoint (core). An edge u --x--> v is also the edge
v --x⁻¹--> u, and the graph keeps one table per signed letter: `edges[x]`
maps u to v and `edges[-x]` maps v to u. Reduced words act by walking those
tables; w ∈ H iff the walk exists and closes at the basepoint. Folded graphs
admit no backtracking ambiguity, so membership is a single deterministic
walk.

Reported graphs are canonical: vertices are numbered by BFS from the
basepoint, scanning the letters in the canonical order a, A, b, B, …
(`GroupContext.letters`). Equal subgroups therefore have identical
representations, and equality/hashing are structural. The BFS tree of that
numbering, each vertex's parent and the letter that first reached it, is
recorded with the graph; free bases and Hall completions read it. A
completion is left by `_complete` as tables in build numbering, and each
reader numbers it only as it needs to: `hall_completion` renumbers it, and
a nonisolation witness, which prints its index alone, reads its candidates
by a walk of its tree in letter order that stops at the cap when H's core
lies within the completion radius (`_walk_outside`), and otherwise ranks
them by `basis_outside`, which sorts every basis key.

Queried subgroups stay folded: a subgroup that is only walked (intersected,
measured against another, checked against a clopen set) is the folded builder
of :func:`fold`, never trimmed or renumbered. This is exact. Folding maps a
reduced closed path at the basepoint to a reduced closed path, so every vertex
of a folded wedge of reduced loops lies on one, has degree at least 2, and is
kept by the trim: the builder is the core graph up to the names of its
vertices. Walks, product searches, witnesses and every `vertex_cap` count are
therefore those of the canonical graph.

Everything here is exact and deterministic; resource caps come from
:mod:`chabauty_lab.budgets`.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from functools import partial
from itertools import chain, islice
from typing import Iterable, Sequence

from . import zdlattice
from .budgets import Budget, current
from .errors import ContextMismatchError, MalformedInputError
from .words import (
    _CHAR_OF_RANK,
    _LOWER,
    GroupContext,
    Word,
    format_word,
    invert,
    reduce_word,
    require_same_context,
)

BASEPOINT = 0


class StallingsGraph:
    """Immutable, canonical folded core graph. Build via :func:`from_generators`
    and the other module functions, not directly.

    The constructor takes the r + 1 forward tables ({}, gen 1, …, gen r)
    and derives their inverses, so that `edges` holds 2r + 1 tables,
    ({}, gen 1, …, gen r, gen r⁻¹, …, gen 1⁻¹), and `edges[x]` is the table
    of the letter x for either sign."""

    __slots__ = ("ctx", "nverts", "edges", "tree", "_hash")

    def __init__(self, ctx: GroupContext, nverts: int, edges: Sequence[dict], tree):
        self.ctx = ctx
        self.nverts = nverts
        self.edges = (*edges, *({v: u for u, v in s.items()} for s in reversed(edges[1:])))
        # (parent, letter) of the canonical BFS spanning tree, recorded by the
        # constructor as it numbers: vertex v > 0 was first reached from
        # parent[v] by letter[v]; parent[0] = 0 and letter[0] = 0
        self.tree: tuple[list[int], list[int]] = tree
        self._hash: int | None = None  # computed by the first __hash__

    # membership ---------------------------------------------------------

    def walk(self, start: int, w: Word) -> int | None:
        """Endpoint of the path spelling w from `start`, or None if it leaves
        the graph."""
        v, edges = start, self.edges
        for x in w:
            v = edges[x].get(v)
            if v is None:
                return None
        return v

    def contains(self, w: Word) -> bool:
        return self.walk(BASEPOINT, w) == BASEPOINT

    # membership automaton -----------------------------------------------
    # States are vertices; a walk that leaves the graph has no state (None).

    start = BASEPOINT

    def step(self, state: int, letter: int) -> int | None:
        return self.edges[letter].get(state)

    def accepting(self, state: int) -> bool:
        return state == BASEPOINT

    # structure ----------------------------------------------------------

    @property
    def nedges(self) -> int:
        return sum(map(len, self.edges)) // 2

    def is_covering(self) -> bool:
        """True iff every vertex has an edge for every letter, i.e. the
        graph is a finite covering of the rose."""
        return all(len(t) == self.nverts for t in self.edges[1:])

    def index(self) -> int | None:
        """[F_r : H] — the vertex count when the graph is a covering, else
        None (infinite index)."""
        return self.nverts if self.is_covering() else None

    def rank(self) -> int:
        """Free rank of H: edges − vertices + 1 (the graph is connected)."""
        return self.nedges - self.nverts + 1

    def is_trivial(self) -> bool:
        return self.nedges == 0

    def basis(self) -> list[Word]:
        """Free basis of H from the canonical BFS spanning tree: one word
        path(u)·g·path(v)⁻¹ per non-tree edge u --g--> v, where path(v) is
        the tree word from the basepoint to v, sorted by `word_key`."""
        return _words_of_keys(self.ctx, _basis_keys(self))

    def basis_text(self) -> list[str]:
        """``[format_word(w) for w in self.basis()]``, translated from the
        same sorted keys without building a word. Contexts beyond the text
        form's 26 generators take the word route, and raise as it does."""
        if self.ctx.rank > len(_LOWER):
            return [format_word(w) for w in self.basis()]
        return [key.translate(_CHAR_OF_RANK) for key in _basis_keys(self)]

    # comparison / export --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StallingsGraph):
            return NotImplemented
        r = self.ctx.rank
        return (
            self.ctx == other.ctx
            and self.nverts == other.nverts
            and self.edges[: r + 1] == other.edges[: r + 1]
        )

    def __hash__(self):
        if self._hash is None:
            forward = self.edges[1 : self.ctx.rank + 1]
            tables = tuple(tuple(sorted(s.items())) for s in forward)
            self._hash = hash((self.ctx, self.nverts, tables))
        return self._hash

    def __repr__(self):
        return (
            f"StallingsGraph(rank {self.ctx.rank}, {self.nverts} vertices, "
            f"{self.nedges} edges)"
        )


def coset_automaton(H: StallingsGraph | HomSubgroup):
    """(start, step) of an automaton whose state after w labels the right
    coset H·w (equal states ⟺ equal cosets): a HomSubgroup's own, whose
    residues are its cosets. A core graph's Schreier graph is the core with
    free trees hung off it (Stallings 1983). A core vertex is its own state,
    as in the membership automaton. A hung vertex is (i, x): it hangs by
    the letter x below the vertex numbered i, and a free tree gives it no
    other parent, so the letter −x leads back up. Core vertices number
    themselves; a hung vertex is numbered the first time a step leaves it
    away from the core. Each step is one lookup, and only the hung vertices
    stepped from are stored."""
    if isinstance(H, HomSubgroup):
        return H.start, H.step
    core_step, n = H.step, H.nverts
    number: dict[tuple[int, int], int] = {}
    hung: list[tuple[int, int]] = []  # the hung vertex numbered n + j is hung[j]

    def step(state, letter: int):
        if type(state) is int:
            u = core_step(state, letter)
            return (state, letter) if u is None else u
        i, x = state
        if letter == -x:  # back up the tree
            return i if i < n else hung[i - n]
        j = number.get(state)
        if j is None:
            j = number[state] = n + len(hung)
            hung.append(state)
        return (j, letter)

    return BASEPOINT, step


def _traces_agree(ctx: GroupContext, H, K, radius: int, budget: Budget) -> bool:
    """Whether two subgroups of F_r have equal traces on B(radius), read off
    their coset automata H and K, each a pair (start, step) as
    `coset_automaton` gives it, to depth ⌈radius/2⌉ (see `hall_completion`).

    A BFS over coset pairs (Hu, Ku) steps all 2r letters: coset automata
    are total and inverse, so a word reaches the pair its reduction
    reaches, and the pairs first reached by level d are those of the
    reduced words of length ≤ d. Each pair first reached by level
    ⌊radius/2⌋ is recorded as h → k and k → h, so the two maps hold every
    such pair, and a second value for a key is a Hu = Hv that Ku = Kv does
    not match, or the other way round. For an odd radius the last level,
    ⌈radius/2⌉, is checked against those maps and not recorded: two of its
    words make a word of length radius + 1. The pairs reached answer to
    `vertex_cap` after each level, as in the product search."""
    (h_start, h_step), (k_start, k_step) = H, K
    letters = ctx.letters
    h_to_k, k_to_h = {h_start: k_start}, {k_start: h_start}
    level = [(h_start, k_start)]
    for depth in range(1, (radius + 1) // 2 + 1):
        recorded = 2 * depth <= radius
        new = []
        for h, k in level:
            for x in letters:
                a, b = h_step(h, x), k_step(k, x)
                seen = h_to_k.get(a)
                if seen is None:
                    if b in k_to_h:
                        return False
                    if recorded:
                        h_to_k[a], k_to_h[b] = b, a
                    new.append((a, b))
                elif seen != b:
                    return False
        reached = len(h_to_k) + (0 if recorded else len(set(new)))
        if reached > budget.vertex_cap:
            raise budget.exceeded("vertex_cap", "graph vertices", reached)
        if not new:
            return True
        level = new
    return True


def _basis_keys(K: StallingsGraph, H: StallingsGraph | None = None) -> list[str]:
    """The rank keys of K's basis words, or of those outside H, sorted as
    `word_key` sorts the words.

    A word's rank key is the string of its letters' `word_key` ranks
    (chr(1) for a, chr(2) for A, chr(3) for b, …), as long as the word, so
    keys sorted as strings and then stably by length are the words sorted
    by `word_key`. Along K's recorded BFS tree each vertex v gets fk[v],
    the key of its tree word, and ik[v], the key of that word's inverse.
    K is folded, so u --g--> v is a tree edge iff letter[v] = g or
    letter[u] = −g, and every other edge gives the basis word with key
    fk[u] + rank(g) + ik[v]. No letter cancels: g against the last letter
    of either tree word would make the edge a tree edge. hs[v] is H's
    vertex at the end of v's tree word (None once the walk leaves H); H is
    folded, so a basis word lies in H iff H's g-edge takes hs[u] to hs[v]."""
    edges = K.edges
    ranks = [""] * len(edges)  # by letter; an empty table's is never read
    for rank, x in enumerate(K.ctx.letters, 1):
        if edges[x]:
            ranks[x] = chr(rank)
    parent, letter = K.tree
    fk, ik = [""], [""]
    for p, x in islice(zip(parent, letter), 1, None):  # the basepoint has no link
        fk.append(fk[p] + ranks[x])
        ik.append(ranks[-x] + ik[p])
    if H is not None:
        hs = [BASEPOINT]
        for p, x in islice(zip(parent, letter), 1, None):
            hs.append(H.edges[x].get(hs[p]))
    keys = []
    for g in range(1, K.ctx.rank + 1):
        out_rank = ranks[g]
        h_g = None if H is None else H.edges[g]
        for u, v in edges[g].items():
            if letter[v] == g or letter[u] == -g:
                continue  # a tree edge
            if h_g is not None and (h := h_g.get(hs[u])) is not None and h == hs[v]:
                continue  # a basis word in H
            keys.append(fk[u] + out_rank + ik[v])
    keys.sort()
    keys.sort(key=len)  # stable: by length, then by key
    return keys


def _words_of_keys(ctx: GroupContext, keys: list[str]) -> list[Word]:
    """The words whose rank keys (see `_basis_keys`) these are."""
    letter_of_rank = (0, *ctx.letters)
    return [tuple([letter_of_rank[ord(c)] for c in key]) for key in keys]


def basis_outside(K: StallingsGraph, H: StallingsGraph, cap: int) -> list[Word]:
    """``[w for w in K.basis() if not H.contains(w)][:cap]``, in any rank:
    the keys of the words outside H are ranked, and only the first `cap`
    are read back into words."""
    return _words_of_keys(K.ctx, _basis_keys(K, H)[:cap])


def _walk_outside(edges: Sequence[dict], tree, H: StallingsGraph, cap: int) -> list[Word]:
    """`basis_outside(K, H, cap)` of a completion K that `_complete` gives
    with its tree, read off K's tables by a walk of that tree that stops
    after `cap` words.

    K keeps H's core ids and tree, and the core lies within L, so every
    vertex closer than L has all 2r edges and layer L is the deficient
    one, made of leaves. A non-tree edge of K is an edge of H, whose basis
    word lies in H, or a matching edge u --g--> v between two leaves of
    layer L, whose word leaves H: its walk leaves the core at a hung end,
    and H lacks the g-edge at a core end. So the words outside H are those
    of the matching edges, all of length 2L + 1, and `word_key` orders
    them by (tree word of u, g). A depth-first walk down the tree in letter
    order meets the leaves in the order of their tree words, and each
    leaf's edges in the order of g. Only the words read are spelled, up
    the tree. The walk keeps its own stack: the tree may be deeper than
    Python's recursion limit."""
    letters = H.ctx.letters
    letter = tree[1]
    h_edges, core = H.edges, H.nverts
    found: list[tuple[int, int, int]] = []
    stack = [BASEPOINT]
    while stack and len(found) < cap:
        u = stack.pop()
        up = -letter[u]  # the letter back to u's parent
        children = []
        for x in letters:
            v = edges[x][u]  # K is a covering
            if letter[v] == x:
                children.append(v)
            elif x > 0 and x != up and (u >= core or u not in h_edges[x]):
                found.append((u, x, v))
                if len(found) == cap:
                    break
        stack.extend(reversed(children))
    return [(*tree_word(tree, u), g, *invert(tree_word(tree, v))) for u, g, v in found]


def tree_word(tree: tuple[Sequence[int], Sequence[int]], v: int) -> Word:
    """The word that a BFS tree (parent, letter), rooted at 0, spells from
    the root down to v: a `StallingsGraph.tree`, or a Schreier ball's."""
    parent, letter = tree
    up = []
    while v:
        up.append(letter[v])
        v = parent[v]
    return tuple(reversed(up))


# ── construction pipeline ────────────────────────────────────────────────────


class _Builder:
    """Union-find vertices with one table per letter, laid out as
    `StallingsGraph.edges`, keyed by roots and kept folded as edges arrive
    (a worklist fold: each merge moves only the losing root's at most 2r
    entries); `finalize` trims and canonicalizes.

    A word is read into the folded tables from both ends before it is
    attached (Touikan, IJAC 16, 2006), so only its unread middle gets new
    vertices. `vertex_cap` still binds on the naive wedge count: 1 for the
    basepoint (or n for a seed of n vertices), |w| − 1 per path and
    nverts − 1 per hung graph, whatever the fold leaves.
    """

    def __init__(self, ctx: GroupContext, budget: Budget, seed: StallingsGraph | None = None):
        """Start from the basepoint alone, or from a copy of the tables of
        the graph `seed`, whose vertices keep their numbers."""
        self.ctx = ctx
        self.budget = budget
        self.created = 0
        if seed is None:
            self.parent: list[int] = []
            self.edges: list[dict[int, int]] = [dict() for _ in range(2 * ctx.rank + 1)]
            self.new_vertex()  # basepoint = 0
        else:
            self._charge(seed.nverts)
            self.parent = list(range(seed.nverts))
            self.edges = [dict(t) for t in seed.edges]
        self.pending: list[tuple[int, int]] = []  # vertex pairs to identify

    def _charge(self, n: int) -> None:
        self.created += n
        if self.created > self.budget.vertex_cap:
            raise self.budget.exceeded("vertex_cap", "graph vertices", self.created)

    def new_vertex(self) -> int:
        self._charge(1)
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def add_edge(self, u: int, x: int, v: int) -> None:
        """Add u --x--> v and fold everything it forces."""
        self._store(self.find(u), x, self.find(v))
        self._fold()

    def _fold(self) -> None:
        while self.pending:
            self._merge(*self.pending.pop())

    def _store(self, u: int, x: int, v: int) -> None:
        """Enter the edge u --x--> v between roots, or queue the merges that
        make it coincide with the x-edge already at u and the x⁻¹-edge
        already at v."""
        out, back = self.edges[x], self.edges[-x]
        s = out.get(u)
        p = back.get(v)
        if s is None and p is None:
            out[u] = v
            back[v] = u
            return
        if s is not None and s != v:
            self.pending.append((s, v))
        if p is not None and p != u:
            self.pending.append((p, u))

    def _merge(self, a: int, b: int) -> None:
        """Identify two vertices; the smaller root survives, so the
        basepoint (0) always does. Clashes go back on the worklist."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        self.parent[b] = a
        edges = self.edges
        for g in range(1, self.ctx.rank + 1):
            out, back = edges[g], edges[-g]
            x = out.pop(b, None)
            if x is not None:
                del back[x]  # a loop at b leaves nothing for back.pop below
            y = back.pop(b, None)
            if y is not None:
                del out[y]
            if x is not None:
                self._store(a, g, a if x == b else x)
            if y is not None:
                self._store(y, g, a)

    def add_path(self, w: Word, start: int = BASEPOINT, end: int = BASEPOINT) -> None:
        """Attach a path spelling the reduced word w from `start` to `end`
        (a loop by default).

        The longest prefix of w that reads forward from `start` and the
        longest rest that reads backward from `end` already lie in the
        folded tables. Only the unread middle gets new vertices, stored
        as they are: its edges cannot clash, except the last one when both
        walks stop at one vertex and the middle starts and ends with
        inverse letters, so that edge alone is folded in. A word read
        whole only identifies the two vertices where the walks stop.
        """
        n = len(w)
        if not n:
            return
        self._charge(n - 1)
        edges = self.edges
        u, i = self.find(start), 0
        while i < n:
            nxt = edges[w[i]].get(u)
            if nxt is None:
                break
            u, i = nxt, i + 1
        v, j = self.find(end), n
        while j > i:
            nxt = edges[-w[j - 1]].get(v)
            if nxt is None:
                break
            v, j = nxt, j - 1
        if i == j:
            if u != v:
                self._merge(u, v)
                self._fold()
            return
        parent = self.parent
        prev = u
        for x in w[i : j - 1]:
            nxt = len(parent)
            parent.append(nxt)
            edges[x][prev] = nxt
            edges[-x][nxt] = prev
            prev = nxt
        self.add_edge(prev, w[j - 1], v)

    def add_graph(self, other: StallingsGraph, at: int = BASEPOINT) -> None:
        """Hang a copy of another graph with its basepoint at `at`."""
        image = [at] + [self.new_vertex() for _ in range(other.nverts - 1)]
        for g in range(1, other.ctx.rank + 1):
            for u, v in other.edges[g].items():
                self.add_edge(image[u], g, image[v])

    # membership automaton -------------------------------------------------
    # StallingsGraph's, read off these tables. Once `_fold` has drained they
    # are keyed by roots and folded, and the basepoint (0) is a root. The
    # graph differs from its core only by hanging trees, which no reduced
    # closed walk at the basepoint enters, so it accepts exactly the
    # subgroup `finalize` would return.

    start = StallingsGraph.start
    step = StallingsGraph.step
    accepting = StallingsGraph.accepting
    walk = StallingsGraph.walk
    contains = StallingsGraph.contains

    def finalize(self, base: int = BASEPOINT) -> StallingsGraph:
        """Trim the folded tables to the core at the basepoint `base`, then
        canonicalize from `base`. Every graph built here is connected, which
        `_canonical` checks."""
        base = self.find(base)
        live = {v for v, root in enumerate(self.parent) if v == root}
        _trim(live, self.edges, base)
        return _canonical(self.ctx, live, self.edges, base)


def _trim(live: set[int], edges: Sequence[dict], base: int) -> bool:
    """Remove vertices of degree <= 1 other than `base` (a loop counts 2)
    from `live` and their edges from the tables (laid out as
    `StallingsGraph.edges`), until none is left. True iff any vertex was
    removed."""
    # each table beside its inverse: edges[-i] inverts edges[i] for every i
    tables = [(edges[i], edges[-i]) for i in range(1, len(edges))]
    degree: Counter[int] = Counter()
    for t, _ in tables:
        degree.update(t.keys())
    stack = [v for v in live if v != base and degree[v] <= 1]
    trimmed = bool(stack)
    while stack:
        v = stack.pop()
        if v not in live:
            continue
        live.remove(v)
        for t, back in tables:
            w = t.pop(v, None)
            if w is not None:
                del back[w]
                degree[w] -= 1
                if w != base and degree[w] <= 1:
                    stack.append(w)
    return trimmed


def _canonical(
    ctx: GroupContext, live: set[int] | range, edges: Sequence[dict], base: int
) -> StallingsGraph:
    """Renumber the vertices `live` of the tables `edges` (laid out as
    `StallingsGraph.edges`) by BFS from the basepoint in canonical letter
    order, and record the BFS tree (`StallingsGraph.tree`) as the vertices
    are numbered."""
    number = [-1] * (max(live) + 1)  # by builder id
    number[base] = 0
    order = [base]
    parent, letter = [0], [0]
    tables = [(x, edges[x]) for x in ctx.letters]
    for u in order:
        for x, table in tables:
            v = table.get(u)
            if v is not None and number[v] < 0:
                number[v] = len(order)
                order.append(v)
                parent.append(number[u])
                letter.append(x)
    if len(order) != len(live):
        raise AssertionError("core graph must be connected")
    forward = [{number[u]: number[v] for u, v in t.items()} for t in edges[: ctx.rank + 1]]
    return StallingsGraph(ctx, len(order), forward, (parent, letter))


# ── public constructors and operations ───────────────────────────────────────


def trivial_subgroup(ctx: GroupContext) -> StallingsGraph:
    return StallingsGraph(ctx, 1, [{} for _ in range(ctx.rank + 1)], ([0], [0]))


def fold(ctx: GroupContext, words: Iterable[Word], budget: Budget) -> _Builder:
    """The folded builder of the wedge of loops spelling `words`, which must
    be reduced and checked against the free context `ctx`. It accepts
    exactly ⟨words⟩, and it is that subgroup's core graph up to the names
    of its vertices (see the module docstring); `finalize` numbers it."""
    builder = _Builder(ctx, budget)
    for w in words:
        builder.add_path(w)
    return builder


def from_generators(
    ctx: GroupContext,
    generators: Iterable[Word],
    budget: Budget | None = None,
) -> StallingsGraph:
    """Fold the wedge of generator loops into the canonical core graph of
    ⟨generators⟩. Order and redundancy of the input do not affect the result."""
    if ctx.kind != "free":
        raise ContextMismatchError("Stallings graphs live over free groups")
    words = (reduce_word(w, ctx) for w in generators)
    return fold(ctx, words, budget or current()).finalize()


def join(
    H: StallingsGraph,
    other: StallingsGraph | Iterable[Word],
    budget: Budget | None = None,
) -> StallingsGraph:
    """⟨H ∪ other⟩: wedge the graphs (or extra generator loops) onto H's
    folded tables and refold. Of two graphs, the larger one seeds the
    builder: the join and the vertex count charged, H.n + K.n − 1, are
    symmetric, and the smaller one has fewer edges to re-add."""
    budget = budget or current()
    if isinstance(other, StallingsGraph):
        require_same_context(H.ctx, other.ctx, "join")
        if other.nverts > H.nverts:
            H, other = other, H
        builder = _Builder(H.ctx, budget, H)
        builder.add_graph(other)
    else:
        builder = _Builder(H.ctx, budget, H)
        for w in other:
            builder.add_path(reduce_word(w, H.ctx))
    return builder.finalize()


def wedge_conjugate(
    H: StallingsGraph, K: StallingsGraph, w: Word, budget: Budget | None = None
) -> _Builder:
    """The folded builder of ⟨H, w·K·w⁻¹⟩, never trimmed or renumbered: H's
    tables, a path spelling w from the basepoint to a new vertex x, and K
    hung at x. As a membership automaton it equals
    join(H, conjugate_subgroup(K, w)), and it charges H.n + K.n + |w| − 1
    vertices."""
    require_same_context(H.ctx, K.ctx, "join")
    w = reduce_word(w, H.ctx)
    builder = _Builder(H.ctx, budget or current(), H)
    at = BASEPOINT
    if w:
        at = builder.new_vertex()
        builder.add_path(w, BASEPOINT, at)
    builder.add_graph(K, at)
    return builder


def intersect(
    H: StallingsGraph, K: StallingsGraph, budget: Budget | None = None
) -> StallingsGraph:
    """H ∩ K via the fibre product: vertices are pairs (u, v) reachable from
    (basepoint, basepoint) along edges present in both graphs, numbered by
    `_bfs_graph`. The product of folded graphs is folded, so only trimming
    is needed afterwards."""
    require_same_context(H.ctx, K.ctx, "intersect")
    h_edges, k_edges = H.edges, K.edges

    def step(state, x):
        a = h_edges[x].get(state[0])
        b = None if a is None else k_edges[x].get(state[1])
        return None if b is None else (a, b)

    P = StallingsGraph(H.ctx, *_bfs_graph(H.ctx, (BASEPOINT, BASEPOINT), step, budget or current()))
    live = set(range(P.nverts))
    # untrimmed, the product's BFS numbering is already _canonical's;
    # trimmed, P is dropped, so its own tables are trimmed and renumbered
    if not _trim(live, P.edges, BASEPOINT):
        return P
    return _canonical(H.ctx, live, P.edges, BASEPOINT)


def _bfs_graph(ctx: GroupContext, start, step, budget: Budget, radius: float = math.inf,
               cap: tuple[str, str] = ("vertex_cap", "graph vertices")) -> tuple:
    """(nverts, tables, tree) of the graph on the states of the automaton
    (start, step) within `radius` letters of `start`, numbered by BFS in
    canonical letter order, which is `_canonical`'s numbering: the one BFS
    that numbers fibre products, coverings and Schreier balls. `step(state,
    x)` is the state that x leads to, or None; the steps by x⁻¹ must invert
    those by x, so the r + 1 tables of positive letters, laid out as
    `StallingsGraph.edges` takes them, record every edge. The tree (parent,
    letter) is recorded as `_canonical` records it. States at the radius
    are stepped, but number no new state: the graph is induced on the ball.
    Raises before numbering a state past the `Budget` field cap[0], which
    counts cap[1]."""
    field, what = cap
    limit = getattr(budget, field)
    number = {start: 0}
    order = [start]
    parent, letter = [0], [0]
    forward = [{} for _ in range(ctx.rank + 1)]
    out_tables = [(x, forward[x] if x > 0 else None) for x in ctx.letters]
    level_end = 1  # the first state one letter further out than order[u]
    for u, state in enumerate(order):
        if u == level_end:
            level_end, radius = len(order), radius - 1
        for x, table in out_tables:
            v = step(state, x)
            if v is None:
                continue
            n = number.get(v)
            if n is None:
                if radius <= 0:
                    continue
                if len(order) >= limit:
                    raise budget.exceeded(field, what, len(order) + 1)
                n = number[v] = len(order)
                order.append(v)
                parent.append(u)
                letter.append(x)
            if table is not None:
                table[u] = n
    return len(order), forward, (parent, letter)


def conjugate_subgroup(
    H: StallingsGraph, g: Word, budget: Budget | None = None
) -> StallingsGraph:
    """g·H·g⁻¹: hang a tail spelling g⁻¹ off the old basepoint, move the
    basepoint to the free end of the tail, and refold.

    (A loop at the new basepoint spells g·h·g⁻¹ iff it runs down the tail,
    around a loop of H, and back.) The tail is read into H first, so the
    new basepoint may land on a vertex of H: ⟨bab⁻¹⟩ conjugated by b⁻¹ is
    ⟨a⟩.
    """
    budget = budget or current()
    g = reduce_word(g, H.ctx)
    if not g or H.is_trivial():
        return H
    if H.is_covering():
        # Conjugating a finite-index subgroup only moves the basepoint: the
        # covering graph itself is unchanged, and the walk is total.  A loop
        # w at the vertex reached by g^-1 means g^-1 w g closes at the old
        # basepoint, i.e. w lies in g H g^-1.
        base = H.walk(BASEPOINT, invert(g))
        return _canonical(H.ctx, range(H.nverts), H.edges, base)
    builder = _Builder(H.ctx, budget, H)
    # a tail new basepoint --g--> old basepoint
    base = builder.new_vertex()
    builder.add_path(g, base, BASEPOINT)
    return builder.finalize(base)


# ── Hall completions ─────────────────────────────────────────────────────────


def hall_completion(
    H: StallingsGraph, agreement_radius: int, budget: Budget | None = None
) -> StallingsGraph:
    """A finite-index K ≥ H whose trace agrees with H up to `agreement_radius`.

    Construction: take the core of H together with its Schreier ball of radius
    L (grown by BFS, creating hanging-tree vertices for missing edges), then
    complete each generator's partial permutation by matching deficient
    sources to deficient targets in id order. Every deficient
    vertex lies at Schreier distance ≥ L from the basepoint, and a reduced
    basepoint loop of length ℓ ≤ L stays within distance ⌊ℓ/2⌋ < L, so no loop
    of length ≤ L uses a completion edge: the ball of K equals the ball of H,
    so the check of K against H in `_complete` cannot fail.

    The check is exact and reads only the Schreier balls of radius ⌈L/2⌉
    (`_traces_agree`). A reduced w with |w| ≤ L is u·v⁻¹ with
    |u| = ⌈|w|/2⌉ and |v| = ⌊|w|/2⌋, and w ∈ H ⟺ Hu = Hv. Conversely,
    for any words with |u| ≤ ⌈L/2⌉ and |v| ≤ ⌊L/2⌋, u·v⁻¹ reduces to a
    word of length ≤ L, which lies in H iff Hu = Hv. So H and K agree on
    B(L) iff Hu = Hv ⟺ Ku = Kv for all such u and v: about (2r−1)^(L/2)
    coset pairs, where a search of B(L) meets (2r−1)^L words.

    For finite-index H the graph is already a covering and is returned as-is;
    any other K is `_complete`'s, numbered canonically here.
    """
    budget = budget or current()
    if agreement_radius < 0:
        raise MalformedInputError("agreement radius must be >= 0")
    if H.is_covering():
        return H
    nverts, edges, _ = _complete(H, agreement_radius, budget)
    return _canonical(H.ctx, range(nverts), edges, BASEPOINT)


def _witness_candidates(H: StallingsGraph, L: int, cap: int, budget: Budget) -> tuple:
    """[F_r : K] for K = `hall_completion(H, L)` of a non-covering H (its
    vertex count), and `basis_outside(K, H, cap)`: walked off K's tables
    (`_walk_outside`) when `_complete` gives K's tree, else ranked on
    `_canonical`'s K."""
    nverts, edges, tree = _complete(H, L, budget)
    if tree is None:
        return nverts, basis_outside(_canonical(H.ctx, range(nverts), edges, BASEPOINT), H, cap)
    return nverts, _walk_outside(edges, tree, H, cap)


def _complete(H: StallingsGraph, L: int, budget: Budget) -> tuple:
    """The completion K that `hall_completion` describes, of a non-covering
    H, checked against H on B(L) (`_traces_agree`), as (nverts, edges,
    tree) in build numbering: H's core ids, then the hung vertices as
    created, with the 2r + 1 tables laid out as `StallingsGraph.edges`.

    The core's Schreier distances are dist[parent[v]] + 1 along H's
    recorded BFS tree, with no table probed. Once the ball is grown, every
    vertex closer than L has all 2r edges, so the matching scans only the
    layers from L on, in id order: it pairs what a scan of every vertex
    pairs. If H's core lies within L, `tree` is K's canonical BFS tree: H's
    on the core, the hanging edge's letter on a hung vertex (a matching
    edge joins vertices at distance ≥ L, so it is on no shortest path to a
    vertex within L). Otherwise it is None, and a reader that needs K's
    tree numbers K with `_canonical`."""
    edges = [dict(t) for t in H.edges]
    tables = [(x, edges[x], edges[-x]) for x in H.ctx.letters]
    parent, letter = map(list, H.tree)
    # H's numbering is BFS order, so each layer comes out in id order.
    dist = [0]
    for p in islice(parent, 1, None):
        dist.append(dist[p] + 1)
    layers: list[list[int]] = [[] for _ in range(dist[-1] + 1)]
    for u, d in enumerate(dist):
        layers[d].append(u)
    # Grow the Schreier ball layer by layer, hanging a new vertex on each
    # missing edge of a vertex closer than L. Hanging-tree vertices cannot
    # shorten core distances, and each layer stays in id order.
    nverts = H.nverts
    for d in range(L):
        if d + 1 == len(layers):
            layers.append([])
        for u in layers[d]:
            for x, out, back in tables:
                if u not in out:
                    if nverts >= budget.vertex_cap:
                        raise budget.exceeded("vertex_cap", "completion vertices", nverts + 1)
                    out[u] = nverts
                    back[nverts] = u
                    layers[d + 1].append(nverts)
                    parent.append(u)
                    letter.append(x)
                    nverts += 1
    # Complete each generator's partial injection into a permutation.
    deficient = sorted(chain.from_iterable(layers[L:]))
    for g in range(1, H.ctx.rank + 1):
        out, back = edges[g], edges[-g]
        sources = [v for v in deficient if v not in out]
        targets = [v for v in deficient if v not in back]
        for u, v in zip(sources, targets):
            out[u] = v
            back[v] = u
    # K is a covering: its coset automaton is its table lookup
    K = (BASEPOINT, lambda v, x: edges[x][v])
    if not _traces_agree(H.ctx, coset_automaton(H), K, L, budget):
        raise AssertionError("completion failed to preserve the trace")  # unreachable
    return nverts, edges, ((parent, letter) if dist[-1] <= L else None)


# ── homomorphism-defined subgroups ───────────────────────────────────────────


@dataclasses.dataclass(frozen=True, slots=True)
class Target:
    """Target of a homomorphism from F_r: Z^k, Z/m, or a permutation group."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("lattice", "cyclic", "permutation"):
            raise MalformedInputError(f"unknown target kind {self.kind!r}")
        # bool is an int subclass: JSON true must not read as 1
        p = self.param
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise MalformedInputError("target parameter must be a positive integer")


def preimage(
    ctx: GroupContext,
    target: Target,
    images,
    accepted,
    budget: Budget | None = None,
) -> StallingsGraph | HomSubgroup:
    """φ⁻¹(A) for φ: F_r → target sending generator i to images[i − 1], and
    A ≤ target, in the one form its subgroup fixes. For Z^k, φ = M ∘ ab, so
    φ⁻¹(A) = ab⁻¹(L) for L = {x ∈ Z^r : Mx ∈ A} = ab(φ⁻¹(A)), which costs
    r·(k + r) of `vertex_cap`; Z/m with A = dZ/m, d = gcd(m, A), is Z with
    dZ. At rank L = r, and for Sym(n), it is the covering of the rose
    (Stallings 1983) that `_bfs_graph` numbers from the cosets' automaton
    (residues mod L stepped by `_shifted`, or the cosets A·φ(w) of
    `_permutation_cosets`): `_canonical`'s numbering, so equal to every
    other description's graph; past `vertex_cap` cosets it raises. Else it
    is trivial (r = 1) or a :class:`HomSubgroup`."""
    if ctx.kind != "free":
        raise ContextMismatchError("homomorphism sources are free groups")
    if len(images) != ctx.rank:
        raise MalformedInputError(f"need {ctx.rank} generator images, got {len(images)}")
    budget = budget or current()
    if target.kind == "permutation":
        cosets = _permutation_cosets(target.param, images, accepted, budget)
        return StallingsGraph(ctx, *_bfs_graph(ctx, *cosets, budget))
    if target.kind == "cyclic":
        images, accepted = [(int(v),) for v in images], _cyclic_lattice(target.param, accepted)
    else:
        if accepted == "zero":
            accepted = zdlattice.hnf_from_generators(target.param, [])
        if not isinstance(accepted, zdlattice.HnfSubgroup):
            raise MalformedInputError("lattice targets accept an HnfSubgroup or 'zero'")
        if accepted.dim != target.param:
            raise MalformedInputError("accepted sublattice has wrong dimension")
        if any(len(v) != accepted.dim for v in images):
            raise MalformedInputError("image vector has wrong dimension")
    r = ctx.rank
    if (entries := r * (accepted.dim + r)) > budget.vertex_cap:
        raise budget.exceeded("vertex_cap", "preimage lattice entries", entries)
    L = zdlattice.lattice_preimage(images, accepted)
    if L.rank == r:
        return StallingsGraph(ctx, *_bfs_graph(ctx, (0,) * r, partial(_shifted, L), budget))
    return trivial_subgroup(ctx) if r == 1 else HomSubgroup(ctx, L)


def _cyclic_lattice(m: int, accepted) -> zdlattice.HnfSubgroup:
    """The lattice dZ ≤ Z whose image in Z/m is A: A = dZ/m for d = gcd(m, A)."""
    vals = frozenset(int(v) % m for v in accepted)
    if not vals:
        raise MalformedInputError("accepted subgroup cannot be empty")
    d = math.gcd(m, *vals)
    # vals ⊆ dZ/m, so it is dZ/m iff it has m // d elements (m may be huge)
    if len(vals) != m // d:
        raise MalformedInputError(f"accepted set {sorted(vals)} is not a subgroup of Z/{m}")
    return zdlattice.hnf_from_generators(1, [(d,)])


def _permutation_cosets(n: int, images, accepted, budget: Budget):
    """(label of A, `_bfs_graph` step) on the right cosets A·p of A ≤
    Sym(n), each labelled by its least element. The closure check takes
    |A|² products, charged to `vertex_cap` before it runs."""
    perms = [_permutation(p, n) for p in images]
    group = frozenset(_permutation(p, n) for p in accepted)
    if tuple(range(n)) not in group:
        raise MalformedInputError("accepted permutations must include the identity")
    if (products := len(group) ** 2) > budget.vertex_cap:
        raise budget.exceeded("vertex_cap", "permutation products", products)
    for p in group:
        if _perm_inv(p) not in group:
            raise MalformedInputError("accepted permutations not inverse-closed")
        for q in group:
            if _perm_mul(p, q) not in group:
                raise MalformedInputError("accepted permutations not closed")
    # by signed letter, as `StallingsGraph.edges` lays out its tables
    acts = [None, *perms, *map(_perm_inv, reversed(perms))]

    def step(label: tuple, x: int) -> tuple:
        p = _perm_mul(label, acts[x])
        return min(_perm_mul(a, p) for a in group)

    return min(group), step


def _permutation(p, n: int) -> tuple:
    p = tuple(int(x) for x in p)
    # the length first: range(n) is listed only for an input as long
    if len(p) != n or sorted(p) != list(range(n)):
        raise MalformedInputError(f"{p} is not a permutation of 0..{n - 1}")
    return p


def _perm_mul(p: tuple, q: tuple) -> tuple:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[i] for i in p)


def _perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class HomSubgroup:
    """ab⁻¹(L) for L ≤ Z^r of rank below r, r ≥ 2: the lattice preimages
    that are not finitely generated (each contains [F, F]), as `preimage`
    builds them. L = ab(H) is fixed by the subgroup, so equality and hashing
    are structural on it. One automaton over the residues of ab(prefix) mod
    L serves membership (residue 0) and the right cosets H·w (equal residues
    ⟺ equal cosets). There is no rank: E − V + 1 needs a finite core graph."""

    __slots__ = ("ctx", "lattice", "start")

    def __init__(self, ctx: GroupContext, lattice: zdlattice.HnfSubgroup):
        self.ctx = ctx
        self.lattice = lattice
        self.start = (0,) * ctx.rank

    def step(self, state, letter: int):
        return _shifted(self.lattice, state, letter)

    def accepting(self, state) -> bool:
        return not any(state)

    def contains(self, w: Word) -> bool:
        return self.lattice.contains(_abelianized(w, self.ctx.rank))

    def coset_key(self, w: Word):
        """Canonical label of the right coset H·w: the state reached on w."""
        return self.lattice.residue(_abelianized(w, self.ctx.rank))

    def __eq__(self, other):
        if not isinstance(other, HomSubgroup):
            return NotImplemented
        return self.ctx == other.ctx and self.lattice == other.lattice

    def __hash__(self):
        return hash((self.ctx, self.lattice))

    def __repr__(self):
        return f"HomSubgroup(F_{self.ctx.rank}, L = {self.lattice.rows})"


def _shifted(L: zdlattice.HnfSubgroup, x, letter: int):
    """The residue mod L of x + ab(letter)."""
    v = list(x)
    v[abs(letter) - 1] += 1 if letter > 0 else -1
    return L.residue(v)


def _abelianized(w: Word, r: int) -> list[int]:
    """ab(w) ∈ Z^r: the exponent sum of each generator."""
    counts = Counter(w)
    return [counts[g] - counts[-g] for g in range(1, r + 1)]


def why_not_contained(H: StallingsGraph | HomSubgroup, K) -> str | None:
    """None if H ≤ K, else why not. A core graph H: its basis walk.
    ab⁻¹(L) ≤ ab⁻¹(L′) iff L ⊆ L′. ab⁻¹(L) ⊇ [F, F], and a finitely generated
    K containing a nontrivial normal subgroup has finite index (Karrass–
    Solitar 1957; Greenberg 1960); so a core graph K contains ab⁻¹(L) iff it
    contains [F, F], i.e. [F_r : K] = [Z^r : ab(K)] (as K ≤ ab⁻¹(ab(K))),
    and L ⊆ ab(K)."""
    if isinstance(H, StallingsGraph):
        w = next((w for w in H.basis() if not K.contains(w)), None)
        return w and f"basis word {format_word(w) if H.ctx.rank <= 26 else list(w)} not accepted"
    r = K.ctx.rank
    if isinstance(K, HomSubgroup):
        abK = K.lattice
    elif K.index() is None:
        return "K has infinite index, and H contains [F, F]"
    else:
        abK = zdlattice.hnf_from_generators(r, (_abelianized(w, r) for w in K.basis()))
        if abK.index() != K.index():
            return "K does not contain [F, F], and H does"
    row = next((row for row in H.lattice.rows if not abK.contains(row)), None)
    return None if row is None else f"ab(H) holds {list(row)}, which ab(K) does not"


def kernel(
    ctx: GroupContext, target: Target, images, budget: Budget | None = None
) -> StallingsGraph | HomSubgroup:
    """ker φ, in `preimage`'s form."""
    trivial = {"lattice": "zero", "cyclic": [0], "permutation": [tuple(range(target.param))]}
    return preimage(ctx, target, images, trivial[target.kind], budget)
