"""Schreier coset graphs out to a radius, ends estimates, fiber diameters,
and the quasi-isometry bookkeeping that turns metric statements into finite
checks.

The Schreier graph of H ≤ F_r has the right cosets Hu as vertices and an edge
Hu --g--> Hug per generator. We materialize the ball of radius R around the
trivial coset by BFS over the states of H's coset automaton
(:func:`~chabauty_lab.stallings.coset_automaton`: equal states mean equal
cosets): a residue of ab(prefix) mod L for a `HomSubgroup`, a core or hung
vertex for a core graph. Each vertex keeps its state, so an edge costs one
step. `stallings._bfs_graph`, the BFS that numbers fibre products and
coverings too, lays the ball out as a core graph: tables by letter and one
BFS tree, a parent and a letter per vertex. A vertex's word is spelled from
the tree only where a report prints one.

Truncation discipline: the graph stores its frontier (sphere-R vertices) and
every quantity computed from the ball is reported as exact or as a lower
bound depending on whether the frontier interferes.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from math import comb

from .budgets import Budget, current
from .errors import MalformedInputError
from .stallings import _bfs_graph, coset_automaton, tree_word, why_not_contained
from .words import (
    GroupContext,
    Word,
    ball_size,
    require_same_context,
)


class SchreierGraph:
    """Ball of radius R in the Schreier graph of the subgroup H, laid out as
    a core graph's forward tables: vertex 0 is the trivial coset, and
    `edges[g]` maps u to u·g for each generator g (edges[0] == {}).
    `tree` is the BFS tree (parent, letter), rooted at 0 with parent[0] = 0
    and letter[0] = 0: vertex v > 0 was first reached from parent[v] by
    letter[v], and the tree spells `rep(v)`. The distances, and the
    frontier (the sphere of radius R), are read off the tree."""

    __slots__ = ("subgroup", "radius", "nverts", "edges", "tree", "dist", "frontier")

    def __init__(self, subgroup, radius, nverts, edges, tree):
        self.subgroup = subgroup
        self.radius = radius
        self.nverts = nverts
        self.edges = tuple(edges)
        self.tree = tree
        dist = [0]
        for p in islice(tree[0], 1, None):
            dist.append(dist[p] + 1)
        self.dist = tuple(dist)
        self.frontier = frozenset(v for v, d in enumerate(dist) if d == radius)

    @property
    def ctx(self) -> GroupContext:
        return self.subgroup.ctx

    def rep(self, v: int) -> Word:
        """The canonically-least word reaching v, read up the tree; its
        length is v's BFS distance."""
        return tree_word(self.tree, v)

    @property
    def nedges(self) -> int:
        return sum(map(len, self.edges))

    def is_complete(self) -> bool:
        """True iff the whole Schreier graph fit inside the radius (finite
        coset space, no frontier)."""
        return not self.frontier

    def sphere_sizes(self) -> list[int]:
        out = [0] * (self.dist[-1] + 1)
        for d in self.dist:
            out[d] += 1
        return out

    def undirected_adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.nverts)]
        for table in self.edges:
            for u, v in table.items():
                adj[u].add(v)
                adj[v].add(u)
        return adj


def build(H, radius: int, budget: Budget | None = None) -> SchreierGraph:
    """The ball of the given radius around the trivial coset of H, numbered
    by `stallings._bfs_graph` over the states of H's coset automaton, with
    `schreier_vertex_cap` bounding its vertices. A letter cancelling the
    end of rep(v) lands on v's known parent, so a new vertex's word is
    reduced as written."""
    budget = budget or current()
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    ctx = H.ctx
    if ctx.kind != "free":
        raise MalformedInputError("Schreier graphs are built over free groups")
    start, step = coset_automaton(H)
    cap = ("schreier_vertex_cap", "Schreier vertices")
    return SchreierGraph(H, radius, *_bfs_graph(ctx, start, step, budget, radius, cap))


# ── ends ─────────────────────────────────────────────────────────────────────


def ends_estimate(S: SchreierGraph, r: int) -> int:
    """Number of unbounded-looking directions: components of the complement
    of the closed ball of radius r that reach the frontier.

    Exact for the truncated graph; meaningful as an ends estimate when the
    value is stable over a range of r (the QI probe checks stability).
    """
    if r < 0 or r >= S.radius:
        raise MalformedInputError("need 0 <= r < radius")
    profile = ends_profile(S)
    return profile[r] if r < len(profile) else 0


def ends_profile(S: SchreierGraph) -> list[int]:
    """`ends_estimate(S, r)` for every r below the ball's depth, its
    largest distance, in one sweep. The depth is S.radius unless the ball
    is complete; then no vertex lies past it, and every r from it on has
    0 ends.

    Edges join one union-find from the outside in: once the edges among
    vertices at distance > r are in, the components holding a frontier
    vertex are the ends at r. Each root carries a "reaches the frontier"
    flag, and the flagged roots are counted.
    """
    R, dist = S.radius, S.dist
    depth = dist[-1]
    # an edge joins the union-find with the nearer of its endpoints
    edges: list[list[tuple[int, int]]] = [[] for _ in range(depth + 1)]
    for table in S.edges:
        for u, v in table.items():
            edges[min(dist[u], dist[v])].append((u, v))
    parent = list(range(S.nverts))
    flagged = [d == R for d in dist]
    count = sum(flagged)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = [0] * depth
    for r in range(depth - 1, -1, -1):
        for u, v in edges[r + 1]:
            ru, rv = find(u), find(v)
            if ru != rv:
                if flagged[ru] and flagged[rv]:
                    count -= 1
                parent[ru] = rv
                flagged[rv] = flagged[rv] or flagged[ru]
        out[r] = count
    return out


# ── fibers of a covering H ≤ K ───────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class FiberReport:
    """One fiber of the coset projection Hu ↦ Ku: its size within the ball,
    the max pairwise distance measured inside the truncated H-graph, and
    whether truncation could be hiding more (fiber touches the frontier or is
    disconnected within the ball)."""

    representative: Word
    size: int
    diameter: int
    lower_bound: bool


def fiber_diameters(S: SchreierGraph, K) -> list[FiberReport]:
    """Diameters of the fibers of Schreier(H) → Schreier(K) over the ball S
    of H.

    Requires H ≤ K (`stallings.why_not_contained`). Fibers are listed by the
    canonically-least H-coset representative they contain. A BFS from a
    fiber's least vertex finds the piece of the fiber in its component of
    the ball; the vertices it misses form the later pieces, and a fiber of
    more than one piece is disconnected within the ball. The diameter is the
    largest distance within a piece, each measured by
    :func:`_piece_diameter`.
    """
    if K.ctx.kind != "free":
        raise MalformedInputError("fibers are taken over a free-group subgroup")
    require_same_context(S.subgroup.ctx, K.ctx, "fibers")
    reason = why_not_contained(S.subgroup, K)
    if reason is not None:
        raise MalformedInputError(f"H is not contained in K ({reason})")
    # K·rep(v) = K·rep(parent[v])·letter[v], stepped in BFS order
    start, step = coset_automaton(K)
    kstates = [start]
    for p, x in islice(zip(*S.tree), 1, None):
        kstates.append(step(kstates[p], x))
    fibers: dict = {}
    for v, key in enumerate(kstates):
        fibers.setdefault(key, []).append(v)
    sweeps = _Sweeps(S)
    seen = sweeps.seen
    reports = []
    # vertices are listed in order, so each fiber is sorted and the fibers
    # are in order of their least vertex
    for vs in fibers.values():
        diameter = 0
        disconnected = False
        rest = vs
        while len(rest) > 1:
            sweeps.aim(rest)
            piece = sweeps.sweep(rest[0], len(rest))
            run = sweeps.run
            rest = [v for v in rest if seen[v] != run]
            disconnected = disconnected or bool(rest)
            if len(piece) > 1:
                diameter = max(diameter, _piece_diameter(sweeps, piece))
        reports.append(
            FiberReport(
                representative=S.rep(vs[0]),
                size=len(vs),
                diameter=diameter,
                lower_bound=disconnected or any(v in S.frontier for v in vs),
            )
        )
    return reports


class _Sweeps:
    """BFS runs over the undirected ball graph, each stopping once it has
    reached a given number of goal vertices. The marks are stamped with the
    run (or goal set) they belong to, so a run costs only what it visits."""

    def __init__(self, S: SchreierGraph):
        self.adj = [tuple(a) for a in S.undirected_adjacency()]
        self.seen = [0] * S.nverts  # seen[v] == run: v reached by this run
        self.depth = [0] * S.nverts  # distance from the source, once seen
        self.goal = [0] * S.nverts  # goal[v] == tag: v is a goal vertex
        self.run = self.tag = 0

    def aim(self, vs) -> None:
        """Make vs the goal vertices of the following runs."""
        self.tag += 1
        for v in vs:
            self.goal[v] = self.tag

    def sweep(self, src: int, need: int) -> list[int]:
        """BFS from src until `need` goal vertices are reached (or the
        component runs out); returns those reached, nearest first."""
        self.run += 1
        run, tag, adj, seen, depth, goal = (
            self.run, self.tag, self.adj, self.seen, self.depth, self.goal
        )
        seen[src] = run
        depth[src] = 0
        found = [src] if goal[src] == tag else []
        if len(found) == need:
            return found
        layer = [src]
        d = 0
        while layer:
            d += 1
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if seen[w] != run:
                        seen[w] = run
                        depth[w] = d
                        nxt.append(w)
                        if goal[w] == tag:
                            found.append(w)
                            if len(found) == need:
                                return found
            layer = nxt
        return found


def _piece_diameter(sweeps: _Sweeps, piece: list[int]) -> int:
    """Largest distance between two vertices of `piece`, the goal vertices of
    the sweep that just ran from piece[0] (listed nearest first).

    iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, TCS 514, 2013): a double
    sweep from piece[0] gives a, the piece vertex farthest from it, and b,
    the one farthest from a; the centre c is the midpoint of a shortest a–b
    path, which minimises max(d(a, ·), d(b, ·)). Eccentricities are then
    taken from the piece vertices farthest from c inward. By the triangle
    inequality through c, two vertices not yet taken are at most the sum of
    their distances from c apart, so the search stops once the best
    eccentricity found reaches the two largest of those distances.
    """
    adj, seen, depth = sweeps.adj, sweeps.seen, sweeps.depth
    n = len(piece)
    s, a = piece[0], piece[-1]
    best = depth[a]  # the eccentricity of s
    sweeps.aim(piece)
    b = sweeps.sweep(a, n)[-1]
    best = max(best, depth[b])
    # every vertex nearer to a than b is reached, so the walk back from b
    # along decreasing distance from a stays on marked vertices
    run = sweeps.run
    c = b
    for _ in range(depth[b] // 2):
        c = next(w for w in adj[c] if seen[w] == run and depth[w] == depth[c] - 1)
    layers = sweeps.sweep(c, n)
    radii = [depth[v] for v in layers]
    i = n - 1
    while i > 0 and best < radii[i] + radii[i - 1]:
        v = layers[i]
        if v != s and v != a:
            best = max(best, depth[sweeps.sweep(v, n)[-1]])
        i -= 1
    return best


# ── quasi-isometry bookkeeping ───────────────────────────────────────────────


def intermediate_bound(ctx: GroupContext, D: int) -> int:
    """2^|B(id, D)|: how many subgroups can sit between H and K when they
    D-approximate each other — any intermediate subgroup is determined by
    which ball elements it meets. The L¹ ball of Z^d holds
    Σ_k 2^k·C(d, k)·C(D, k) points: choose the k nonzero coordinates, their
    signs, and their absolute values, k positive integers summing to ≤ D."""
    if D < 0:
        raise MalformedInputError("D must be >= 0")
    if ctx.kind == "free":
        n = ball_size(ctx.rank, D)
    else:
        d = ctx.rank
        n = sum(2 ** k * comb(d, k) * comb(D, k) for k in range(min(d, D) + 1))
    return 2 ** n


def qi_constants(C):
    """Quantitative quasi-isometry bookkeeping: a C-quasi-isometry transports
    a Følner/trace estimate with multiplicative loss C₁ = 3C³ + C² + 3C and
    additive loss C₂ = 2C₁. Accepts ints or Fractions ≥ 1."""
    if isinstance(C, float):
        raise MalformedInputError("use int or Fraction for exact constants")
    if C < 1:
        raise MalformedInputError("quasi-isometry constant must be >= 1")
    C1 = 3 * C ** 3 + C ** 2 + 3 * C
    return (C1, 2 * C1)


@dataclasses.dataclass(frozen=True)
class ProbeReport:
    """Verdict of the line probe plus the finite evidence backing it."""

    verdict: str  # "Z" | "N" | "neither"
    reason: str
    sphere_sizes: tuple[int, ...]
    ends_window: tuple[tuple[int, int], ...]  # (r, ends_estimate(r))
    complete: bool


def qi_to_line_probe(S: SchreierGraph, ends: list[int] | None = None) -> ProbeReport:
    """Test whether the Schreier graph, seen in the ball S, looks
    quasi-isometric to the line Z (two stable ends) or the ray N (one stable
    end), both of whose spheres stay bounded: no sphere past R/2 may be
    larger than the largest in [R/4, R/2]. `ends` is ``ends_profile(S)``
    when the caller already has it.

    The verdict is a screen, not a proof: it reports the finite evidence
    (sphere sizes and an ends-stability window) and errs on "neither".
    """
    radius = S.radius
    if radius < 8:
        raise MalformedInputError("the probe needs radius >= 8 for a stable window")
    spheres = tuple(S.sphere_sizes())
    if S.is_complete():
        return ProbeReport(
            "neither", "coset space is finite (bounded orbit)", spheres, (), True
        )
    lo, hi = radius // 4, radius // 2
    if ends is None:
        ends = ends_profile(S)
    window = tuple((r, ends[r]) for r in range(lo, hi + 1))
    values = {e for _, e in window}
    stable = len(values) == 1
    # growth screen: the spheres of a graph quasi-isometric to Z or N stay bounded
    bounded = max(spheres[hi:]) <= max(spheres[lo : hi + 1])
    if stable and bounded:
        e = values.pop()
        if e == 2:
            return ProbeReport(
                "Z", "two stable ends, bounded spheres", spheres, window, False
            )
        if e == 1:
            return ProbeReport(
                "N", "one stable end, bounded spheres", spheres, window, False
            )
        return ProbeReport(
            "neither", f"{e} stable ends", spheres, window, False
        )
    reason = "ends estimate not stable" if not stable else "spheres grow past R/2"
    return ProbeReport("neither", reason, spheres, window, False)
