"""Schreier coset graphs out to a radius, ends estimates, fiber diameters,
and the quasi-isometry bookkeeping that turns metric statements into finite
checks.

The Schreier graph of H ≤ F_r has the right cosets Hu as vertices and an edge
Hu --g--> Hug per generator. We materialize the ball of radius R around the
trivial coset by BFS; a subgroup only needs to answer `coset_key` (a
canonical label for Hu) for this to work, which both Stallings graphs (core
vertex + hanging-tree suffix) and homomorphism-defined subgroups (canonical
image residue) do.

Truncation discipline: the graph stores its frontier (sphere-R vertices) and
every quantity computed from the ball is reported as exact or as a lower
bound depending on whether the frontier interferes.
"""

from __future__ import annotations

import dataclasses

from .budgets import Budget, current
from .errors import BudgetExceededError, MalformedInputError
from .stallings import BASEPOINT, HomSubgroup, StallingsGraph
from .words import (
    GroupContext,
    IDENTITY,
    Word,
    ball_size,
    iter_lattice_ball,
    multiply,
)


def _coset_key(H, w: Word):
    if isinstance(H, StallingsGraph):
        v = BASEPOINT
        for i, x in enumerate(w):
            table = H.succ[x - 1] if x > 0 else H.pred[-x - 1]
            nxt = table.get(v)
            if nxt is None:
                return (v, w[i:])
            v = nxt
        return (v, IDENTITY)
    if hasattr(H, "coset_key"):
        return H.coset_key(w)
    raise MalformedInputError(
        f"{type(H).__name__} does not expose cosets (no coset_key)"
    )


class SchreierGraph:
    """Ball of radius R in the Schreier graph of H. Vertex 0 is the trivial
    coset; `reps[v]` is the canonically-least word reaching vertex v (its
    length equals the BFS distance)."""

    __slots__ = ("ctx", "radius", "reps", "dist", "succ", "frontier")

    def __init__(self, ctx, radius, reps, dist, succ, frontier):
        self.ctx = ctx
        self.radius = radius
        self.reps = reps
        self.dist = dist
        self.succ = succ  # per generator: {vertex: vertex·g}
        self.frontier = frontier

    @property
    def nverts(self) -> int:
        return len(self.reps)

    @property
    def nedges(self) -> int:
        return sum(len(s) for s in self.succ)

    def is_complete(self) -> bool:
        """True iff the whole Schreier graph fit inside the radius (finite
        coset space, no frontier)."""
        return not self.frontier

    def sphere_sizes(self) -> list[int]:
        out = [0] * (max(self.dist) + 1)
        for d in self.dist:
            out[d] += 1
        return out

    def undirected_adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.nverts)]
        for table in self.succ:
            for u, v in table.items():
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def to_dot(self) -> str:
        from .words import _LOWER, format_word

        lines = ["digraph schreier {", "  rankdir=LR;"]
        for v in range(self.nverts):
            shape = "doublecircle" if v == 0 else "circle"
            mark = ", color=gray" if v in self.frontier else ""
            label = format_word(self.reps[v]) or "1"
            lines.append(f'  {v} [shape={shape}, label="{label}"{mark}];')
        for g, table in enumerate(self.succ):
            letter = _LOWER[g] if g < 26 else f"x{g + 1}"
            for u, v in sorted(table.items()):
                lines.append(f'  {u} -> {v} [label="{letter}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build(H, radius: int, budget: Budget | None = None) -> SchreierGraph:
    """BFS the coset space of H out to the given radius.

    Vertices at distance < R are fully expanded; edges between two ball
    vertices are always recorded (the graph is the induced subgraph on the
    ball), and sphere-R vertices form the frontier.
    """
    budget = budget or current()
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    ctx = H.ctx
    if ctx.kind != "free":
        raise MalformedInputError("Schreier graphs are built over free groups")
    letters = [x for i in range(1, ctx.rank + 1) for x in (i, -i)]
    keys = {_coset_key(H, IDENTITY): 0}
    reps: list[Word] = [IDENTITY]
    dist: list[int] = [0]
    succ: list[dict[int, int]] = [dict() for _ in range(ctx.rank)]
    queue = [0]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for x in letters:
            u = multiply(reps[v], (x,))
            key = _coset_key(H, u)
            w = keys.get(key)
            if w is None:
                if dist[v] >= radius:
                    continue
                if len(reps) >= budget.schreier_vertex_cap:
                    raise BudgetExceededError(
                        "Schreier vertices", budget.schreier_vertex_cap
                    )
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
    return SchreierGraph(
        ctx, radius, tuple(reps), tuple(dist), tuple(succ), frontier
    )


# ── ends ─────────────────────────────────────────────────────────────────────


def ends_estimate(S: SchreierGraph, r: int) -> int:
    """Number of unbounded-looking directions: components of the complement
    of the closed ball of radius r that reach the frontier.

    Exact for the truncated graph; meaningful as an ends estimate when the
    value is stable over a range of r (the QI probe checks stability).
    """
    if r < 0 or r >= S.radius:
        raise MalformedInputError("need 0 <= r < radius")
    outside = [v for v in range(S.nverts) if S.dist[v] > r]
    parent = {v: v for v in outside}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for table in S.succ:
        for u, v in table.items():
            if u in parent and v in parent:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
    roots = {find(v) for v in S.frontier if v in parent}
    return len(roots)


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


def _verify_containment(H, K) -> None:
    if isinstance(H, StallingsGraph):
        missing = [w for w in H.basis() if not K.contains(w)]
        if missing:
            raise MalformedInputError(
                f"H is not contained in K (basis word {missing[0]} not accepted)"
            )
        return
    if isinstance(H, HomSubgroup) and isinstance(K, HomSubgroup):
        if H.ctx == K.ctx and H.target == K.target and H.images == K.images:
            if H.target.kind == "lattice":
                ok = all(K.accepted.contains(r) for r in H.accepted.rows)
            else:
                ok = set(H.accepted) <= set(K.accepted)
            if ok:
                return
        raise MalformedInputError(
            "containment of homomorphism-defined subgroups is only decidable "
            "for a common homomorphism with nested accepted subgroups"
        )
    raise MalformedInputError(
        f"cannot verify containment for {type(H).__name__} ≤ {type(K).__name__}"
    )


def fiber_diameters(
    H, K, radius: int, budget: Budget | None = None
) -> list[FiberReport]:
    """Diameters of the fibers of Schreier(H) → Schreier(K) over the ball.

    Requires H ≤ K (verified). Fibers are listed by the canonically-least
    H-coset representative they contain.
    """
    _verify_containment(H, K)
    S = build(H, radius, budget)
    fibers: dict = {}
    for v in range(S.nverts):
        fibers.setdefault(_coset_key(K, S.reps[v]), []).append(v)
    adj = S.undirected_adjacency()
    reports = []
    for key, verts in sorted(fibers.items(), key=lambda kv: min(kv[1])):
        vs = sorted(verts)
        touched_frontier = any(v in S.frontier for v in vs)
        # BFS inside the truncated H-graph from each fiber vertex
        diameter = 0
        disconnected = False
        target_set = set(vs)
        for src in vs:
            seen = {src: 0}
            layer = [src]
            remaining = len(target_set) - 1 if src in target_set else len(target_set)
            while layer and remaining:
                nxt = []
                for u in layer:
                    for w in adj[u]:
                        if w not in seen:
                            seen[w] = seen[u] + 1
                            if w in target_set:
                                remaining -= 1
                            nxt.append(w)
                layer = nxt
            for v in vs:
                if v in seen:
                    diameter = max(diameter, seen[v])
                else:
                    disconnected = True
        reports.append(
            FiberReport(
                representative=S.reps[vs[0]],
                size=len(vs),
                diameter=diameter,
                lower_bound=touched_frontier or disconnected,
            )
        )
    return reports


# ── quasi-isometry bookkeeping ───────────────────────────────────────────────


def intermediate_bound(ctx: GroupContext, D: int, budget: Budget | None = None) -> int:
    """2^|B(id, D)|: how many subgroups can sit between H and K when they
    D-approximate each other — any intermediate subgroup is determined by
    which ball elements it meets."""
    if D < 0:
        raise MalformedInputError("D must be >= 0")
    if ctx.kind == "free":
        n = ball_size(ctx.rank, D)
    else:
        n = sum(1 for _ in iter_lattice_ball(ctx.rank, D))
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


def qi_to_line_probe(H, radius: int, budget: Budget | None = None) -> ProbeReport:
    """Test whether the Schreier graph looks quasi-isometric to the line Z
    (two stable ends, near-linear growth) or the ray N (one stable end).

    The verdict is a screen, not a proof: it reports the finite evidence
    (sphere sizes and an ends-stability window) and errs on "neither".
    """
    if radius < 8:
        raise MalformedInputError("the probe needs radius >= 8 for a stable window")
    S = build(H, radius, budget)
    spheres = tuple(S.sphere_sizes())
    if S.is_complete():
        return ProbeReport(
            "neither", "coset space is finite (bounded orbit)", spheres, (), True
        )
    lo, hi = radius // 4, radius // 2
    window = tuple((r, ends_estimate(S, r)) for r in range(lo, hi + 1))
    values = {e for _, e in window}
    stable = len(values) == 1
    # growth screen: sphere sizes must not blow up between R/2 and R
    mid = spheres[hi] if hi < len(spheres) else 0
    tail_max = max(spheres[hi:]) if hi < len(spheres) else 0
    near_linear = tail_max <= 2 * max(1, mid) + 2
    if stable and near_linear:
        e = values.pop()
        if e == 2:
            return ProbeReport(
                "Z", "two stable ends, near-linear growth", spheres, window, False
            )
        if e == 1:
            return ProbeReport(
                "N", "one stable end, near-linear growth", spheres, window, False
            )
        return ProbeReport(
            "neither", f"{e} stable ends", spheres, window, False
        )
    reason = "ends estimate not stable" if not stable else "growth not near-linear"
    return ProbeReport("neither", reason, spheres, window, False)
