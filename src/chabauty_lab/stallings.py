"""Stallings folded automata for finitely generated subgroups of free groups,
plus homomorphism-defined subgroups (kernels and preimages).

A subgroup H ≤ F_r is stored as its core graph: a finite connected digraph
with edges labelled by generators 1..r, a basepoint, no two equally-labelled
edges sharing a source or a target (folded), and no degree-1 vertex other than
possibly the basepoint (core). Reduced words act by walking edges (positive
letter: forward, negative: backward); w ∈ H iff the walk exists and closes at
the basepoint. Folded graphs admit no backtracking ambiguity, so membership is
a single deterministic walk.

Graphs are canonicalized at construction: vertices are renumbered by BFS from
the basepoint, scanning letters in the canonical order (gen 1 out, gen 1 in,
gen 2 out, ...). Equal subgroups therefore have identical representations, and
equality/hashing are structural.

Everything here is exact and deterministic; resource caps come from
:mod:`chabauty_lab.budgets`.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Iterable, Sequence

from . import zdlattice
from .budgets import Budget, current
from .chabauty import distance_up_to
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    MalformedInputError,
)
from .words import (
    GroupContext,
    Word,
    check_word,
    invert,
    reduce_word,
    require_same_context,
    word_key,
)

BASEPOINT = 0


class StallingsGraph:
    """Immutable, canonical folded core graph. Build via :func:`from_generators`
    and the other module functions, not directly."""

    __slots__ = ("ctx", "nverts", "succ", "pred", "_hash")

    def __init__(self, ctx: GroupContext, nverts: int, succ: tuple[dict, ...]):
        self.ctx = ctx
        self.nverts = nverts
        self.succ = succ
        self.pred = tuple({v: u for u, v in s.items()} for s in succ)
        self._hash = hash(
            (ctx, nverts, tuple(tuple(sorted(s.items())) for s in succ))
        )

    # membership ---------------------------------------------------------

    def walk(self, start: int, w: Word) -> int | None:
        """Endpoint of the path spelling w from `start`, or None if it leaves
        the graph."""
        v = start
        for x in w:
            table = self.succ[x - 1] if x > 0 else self.pred[-x - 1]
            v = table.get(v)
            if v is None:
                return None
        return v

    def contains(self, w: Word) -> bool:
        return self.walk(BASEPOINT, w) == BASEPOINT

    # membership automaton -----------------------------------------------
    # States are vertices; a walk that leaves the graph has no state (None).

    start = BASEPOINT

    def step(self, state: int, letter: int) -> int | None:
        table = self.succ[letter - 1] if letter > 0 else self.pred[-letter - 1]
        return table.get(state)

    def accepting(self, state: int) -> bool:
        return state == BASEPOINT

    # structure ----------------------------------------------------------

    @property
    def nedges(self) -> int:
        return sum(len(s) for s in self.succ)

    def is_covering(self) -> bool:
        """True iff every vertex has an in- and out-edge for every generator,
        i.e. the graph is a finite covering of the rose."""
        return all(
            len(s) == self.nverts and len(p) == self.nverts
            for s, p in zip(self.succ, self.pred)
        )

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
        the tree word from the basepoint to v."""
        # parent[v] = (tree predecessor, letter read along the tree edge)
        parent: list[tuple[int, int] | None] = [None] * self.nverts
        parent[BASEPOINT] = (BASEPOINT, 0)
        order = [BASEPOINT]
        for u in order:
            for x, (succ, pred) in enumerate(zip(self.succ, self.pred), 1):
                v = succ.get(u)
                if v is not None and parent[v] is None:
                    parent[v] = (u, x)
                    order.append(v)
                v = pred.get(u)
                if v is not None and parent[v] is None:
                    parent[v] = (u, -x)
                    order.append(v)

        def up(v: int) -> list[int]:
            """path(v) reversed: the letters read from the basepoint to v."""
            letters = []
            while v != BASEPOINT:
                v, y = parent[v]  # type: ignore[misc]
                letters.append(y)
            return letters

        # No letter cancels: g against the last letter of path(u) or path(v)
        # would make u --g--> v a tree edge (the graph is folded).
        out = []
        for x, succ in enumerate(self.succ, 1):
            for u, v in succ.items():
                if parent[v] != (u, x) and parent[u] != (v, -x):
                    out.append((*reversed(up(u)), x, *[-y for y in up(v)]))
        return sorted(out, key=word_key)

    def shortest_nontrivial(self) -> Word | None:
        """Shortest nontrivial element of H, or None for the trivial subgroup.

        BFS over non-backtracking walk states (vertex, incoming letter): in a
        folded graph these are exactly the reduced words readable from the
        basepoint, so the first closed walk found is the canonically-least
        nontrivial element.
        """
        if self.is_trivial():
            return None
        letters = [x for i in range(1, self.ctx.rank + 1) for x in (i, -i)]
        start = (BASEPOINT, 0)
        parents: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, 0)}
        queue = [start]
        while queue:
            nxt = []
            for state in queue:
                v, last = state
                for x in letters:
                    if x == -last:
                        continue
                    table = self.succ[x - 1] if x > 0 else self.pred[-x - 1]
                    w = table.get(v)
                    if w is None:
                        continue
                    if w == BASEPOINT:
                        # reconstruct: word to `state`, then x
                        letters_rev = [x]
                        cur = state
                        while cur != start:
                            prev, lx = parents[cur]
                            letters_rev.append(lx)
                            cur = prev
                        return tuple(reversed(letters_rev))
                    ns = (w, x)
                    if ns not in parents:
                        parents[ns] = (state, x)
                        nxt.append(ns)
            queue = nxt
        return None

    # comparison / export --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StallingsGraph):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.nverts == other.nverts
            and self.succ == other.succ
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"StallingsGraph(rank {self.ctx.rank}, {self.nverts} vertices, "
            f"{self.nedges} edges)"
        )

    def to_dot(self) -> str:
        """Graphviz form; generator i is labelled with its letter."""
        from .words import _LOWER

        lines = ["digraph stallings {", '  rankdir=LR;', "  0 [shape=doublecircle];"]
        for v in range(1, self.nverts):
            lines.append(f"  {v} [shape=circle];")
        for g in range(self.ctx.rank):
            label = _LOWER[g] if g < 26 else f"x{g + 1}"
            for u, v in sorted(self.succ[g].items()):
                lines.append(f'  {u} -> {v} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ── construction pipeline ────────────────────────────────────────────────────


class _Builder:
    """Union-find vertices with one succ/pred table per letter, keyed by
    roots and kept folded as edges arrive (a worklist fold: each merge moves
    only the losing root's at most 2r entries); trim and canonicalize."""

    def __init__(self, ctx: GroupContext, budget: Budget):
        self.ctx = ctx
        self.budget = budget
        self.parent: list[int] = []
        self.succ: list[dict[int, int]] = [dict() for _ in range(ctx.rank)]
        self.pred: list[dict[int, int]] = [dict() for _ in range(ctx.rank)]
        self.pending: list[tuple[int, int]] = []  # vertex pairs to identify
        self.new_vertex()  # basepoint = 0

    def new_vertex(self) -> int:
        v = len(self.parent)
        if v >= self.budget.vertex_cap:
            raise BudgetExceededError("graph vertices", self.budget.vertex_cap)
        self.parent.append(v)
        return v

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def add_edge(self, u: int, g: int, v: int) -> None:
        """Add u --g--> v (g 0-based) and fold everything it forces."""
        self._store(self.find(u), g, self.find(v))
        while self.pending:
            self._merge(*self.pending.pop())

    def _store(self, u: int, g: int, v: int) -> None:
        """Enter the edge u --g--> v between roots, or queue the merges that
        make it coincide with the g-edges already at u and v."""
        s = self.succ[g].get(u)
        p = self.pred[g].get(v)
        if s is None and p is None:
            self.succ[g][u] = v
            self.pred[g][v] = u
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
        for g in range(self.ctx.rank):
            succ, pred = self.succ[g], self.pred[g]
            x = succ.pop(b, None)
            if x is not None:
                del pred[x]  # a loop at b leaves nothing for pred.pop below
            y = pred.pop(b, None)
            if y is not None:
                del succ[y]
            if x is not None:
                self._store(a, g, a if x == b else x)
            if y is not None:
                self._store(y, g, a)

    def add_path(self, w: Word, start: int = BASEPOINT, end: int = BASEPOINT) -> None:
        """Attach a path spelling the reduced word w from `start` to `end`
        through one new vertex per interior letter (a loop by default)."""
        prev = start
        for k, x in enumerate(w):
            nxt = end if k == len(w) - 1 else self.new_vertex()
            if x > 0:
                self.add_edge(prev, x - 1, nxt)
            else:
                self.add_edge(nxt, -x - 1, prev)
            prev = nxt

    def add_graph(self, other: StallingsGraph, at: int = BASEPOINT) -> None:
        """Hang a copy of another graph with its basepoint at vertex `at`."""
        image = [at] + [self.new_vertex() for _ in range(other.nverts - 1)]
        for g in range(other.ctx.rank):
            for u, v in other.succ[g].items():
                self.add_edge(image[u], g, image[v])

    def finalize(self) -> StallingsGraph:
        """Trim non-basepoint vertices of degree <= 1 off the folded tables
        (a loop counts 2), then canonicalize. Every graph built here is
        connected, which `_canonical` checks."""
        tables = [*zip(self.succ, self.pred), *zip(self.pred, self.succ)]
        degree: Counter[int] = Counter()
        for t, _ in tables:
            degree.update(t.keys())
        live = {v for v, root in enumerate(self.parent) if v == root}
        stack = [v for v in live if v != BASEPOINT and degree[v] <= 1]
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
                    if w != BASEPOINT and degree[w] <= 1:
                        stack.append(w)
        return _canonical(self.ctx, live, self.succ, self.pred, BASEPOINT)


def _canonical(
    ctx: GroupContext,
    live: Iterable[int],
    succ: Sequence[dict],
    pred: Sequence[dict],
    base: int,
) -> StallingsGraph:
    """Renumber by BFS from the basepoint in canonical letter order."""
    number = {base: 0}
    order = [base]
    tables = [t for pair in zip(succ, pred) for t in pair]  # gen 1 out, gen 1 in, …
    for u in order:
        for table in tables:
            v = table.get(u)
            if v is not None and v not in number:
                number[v] = len(order)
                order.append(v)
    if len(number) != len(set(live)):
        raise AssertionError("core graph must be connected")
    new_succ = tuple({number[u]: number[v] for u, v in s.items()} for s in succ)
    return StallingsGraph(ctx, len(number), new_succ)


# ── public constructors and operations ───────────────────────────────────────


def trivial_subgroup(ctx: GroupContext) -> StallingsGraph:
    return StallingsGraph(ctx, 1, tuple({} for _ in range(ctx.rank)))


def whole_group(ctx: GroupContext) -> StallingsGraph:
    return StallingsGraph(ctx, 1, tuple({0: 0} for _ in range(ctx.rank)))


def from_generators(
    ctx: GroupContext,
    generators: Iterable[Word],
    budget: Budget | None = None,
) -> StallingsGraph:
    """Fold the wedge of generator loops into the canonical core graph of
    ⟨generators⟩. Order and redundancy of the input do not affect the result."""
    if ctx.kind != "free":
        raise ContextMismatchError("Stallings graphs live over free groups")
    budget = budget or current()
    builder = _Builder(ctx, budget)
    for w in generators:
        builder.add_path(check_word(reduce_word(w), ctx))
    return builder.finalize()


def join(
    H: StallingsGraph,
    other: StallingsGraph | Iterable[Word],
    budget: Budget | None = None,
) -> StallingsGraph:
    """⟨H ∪ other⟩: wedge the graphs (or extra generator loops) and refold."""
    budget = budget or current()
    builder = _Builder(H.ctx, budget)
    builder.add_graph(H)
    if isinstance(other, StallingsGraph):
        require_same_context(H.ctx, other.ctx, "join")
        builder.add_graph(other)
    else:
        for w in other:
            builder.add_path(check_word(reduce_word(w), H.ctx))
    return builder.finalize()


def intersect(
    H: StallingsGraph, K: StallingsGraph, budget: Budget | None = None
) -> StallingsGraph:
    """H ∩ K via the fibre product: vertices are pairs (u, v) reachable from
    (basepoint, basepoint) along edges present in both graphs. The product of
    folded graphs is folded, so only trimming is needed afterwards."""
    require_same_context(H.ctx, K.ctx, "intersect")
    budget = budget or current()
    r = H.ctx.rank
    start = (BASEPOINT, BASEPOINT)
    number = {start: 0}
    order = [start]
    succ: list[dict] = [dict() for _ in range(r)]
    pred: list[dict] = [dict() for _ in range(r)]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for g in range(r):
            for table_h, table_k, out in (
                (H.succ[g], K.succ[g], True),
                (H.pred[g], K.pred[g], False),
            ):
                a = table_h.get(u[0])
                b = table_k.get(u[1])
                if a is None or b is None:
                    continue
                v = (a, b)
                if v not in number:
                    if len(number) >= budget.vertex_cap:
                        raise BudgetExceededError("graph vertices", budget.vertex_cap)
                    number[v] = len(order)
                    order.append(v)
                if out:
                    succ[g][number[u]] = number[v]
                    pred[g][number[v]] = number[u]
                else:
                    succ[g][number[v]] = number[u]
                    pred[g][number[u]] = number[v]
    builder = _Builder(H.ctx, budget)
    builder.parent = list(range(len(number)))
    builder.succ, builder.pred = succ, pred
    return builder.finalize()


def conjugate_subgroup(
    H: StallingsGraph, g: Word, budget: Budget | None = None
) -> StallingsGraph:
    """g·H·g⁻¹: hang a tail spelling g⁻¹ off the old basepoint, move the
    basepoint to the free end of the tail, and refold.

    (A loop at the new basepoint spells g·h·g⁻¹ iff it runs down the tail,
    around a loop of H, and back.)
    """
    budget = budget or current()
    g = check_word(reduce_word(g), H.ctx)
    if not g or H.is_trivial():
        return H
    if H.is_covering():
        # Conjugating a finite-index subgroup only moves the basepoint: the
        # covering graph itself is unchanged, and the walk is total.  A loop
        # w at the vertex reached by g^-1 means g^-1 w g closes at the old
        # basepoint, i.e. w lies in g H g^-1.
        base = H.walk(BASEPOINT, invert(g))
        return _canonical(H.ctx, range(H.nverts), H.succ, H.pred, base)
    builder = _Builder(H.ctx, budget)
    # a tail new basepoint --g--> old basepoint, with H hung at its end
    old_base = builder.new_vertex()
    builder.add_path(g, BASEPOINT, old_base)
    builder.add_graph(H, old_base)
    return builder.finalize()


# ── Hall completions ─────────────────────────────────────────────────────────


def hall_completion(
    H: StallingsGraph, agreement_radius: int, budget: Budget | None = None
) -> StallingsGraph:
    """A finite-index K ≥ H whose trace agrees with H up to `agreement_radius`.

    Construction: take the core of H together with its Schreier ball of radius
    L (grown by BFS, creating hanging-tree vertices for missing edges), then
    complete each generator's partial permutation by matching deficient
    sources to deficient targets in canonical vertex order. Every deficient
    vertex lies at Schreier distance ≥ L from the basepoint, and a reduced
    basepoint loop of length ℓ ≤ L stays within distance ⌊ℓ/2⌋ < L, so no loop
    of length ≤ L uses a completion edge: the ball of K equals the ball of H.

    For finite-index H the graph is already a covering and is returned as-is.
    """
    budget = budget or current()
    L = agreement_radius
    if L < 0:
        raise MalformedInputError("agreement radius must be >= 0")
    if H.is_covering():
        return H
    for attempt in range(3):
        K = _complete(H, L + attempt, budget)
        if _traces_agree(H, K, L, budget):
            return K
    raise AssertionError("completion failed to preserve the trace")  # unreachable


def _complete(H: StallingsGraph, L: int, budget: Budget) -> StallingsGraph:
    r = H.ctx.rank
    succ = [dict(s) for s in H.succ]
    pred = [dict(p) for p in H.pred]
    nverts = H.nverts
    # Schreier distances of the existing core vertices.
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
    # Grow the Schreier ball: expand every vertex closer than L. Hanging-tree
    # vertices cannot shorten core distances, so distances never need updates.
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
    # Complete each generator's partial injection into a permutation.
    for g in range(r):
        sources = [v for v in range(nverts) if v not in succ[g]]
        targets = [v for v in range(nverts) if v not in pred[g]]
        for u, v in zip(sources, targets):
            succ[g][u] = v
            pred[g][v] = u
    return _canonical(H.ctx, range(nverts), succ, pred, BASEPOINT)


def _traces_agree(
    H: StallingsGraph, K: StallingsGraph, L: int, budget: Budget
) -> bool:
    ball_budget = budget if L <= budget.ball_radius_cap else budget.replace(
        ball_radius_cap=L
    )
    return distance_up_to(H, K, L, ball_budget).kind == "at_most"


# ── homomorphism-defined subgroups ───────────────────────────────────────────


class Target:
    """Target of a homomorphism from F_r: Z^k, Z/m, or a permutation group."""

    __slots__ = ("kind", "param")

    def __init__(self, kind: str, param: int):
        if kind not in ("lattice", "cyclic", "permutation"):
            raise MalformedInputError(f"unknown target kind {kind!r}")
        if not isinstance(param, int) or param < 1:
            raise MalformedInputError("target parameter must be a positive integer")
        self.kind = kind
        self.param = param

    def __eq__(self, other):
        return (
            isinstance(other, Target)
            and self.kind == other.kind
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self):
        return {
            "lattice": f"Z^{self.param}",
            "cyclic": f"Z/{self.param}",
            "permutation": f"Sym({self.param})",
        }[self.kind]


def _perm_mul(p: tuple, q: tuple) -> tuple:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[i] for i in p)


def _perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class HomSubgroup:
    """φ⁻¹(A) for a homomorphism φ: F_r → T and an accepted subgroup A ≤ T.

    Membership-complete even when the subgroup is not finitely generated
    (kernels of F_r → Z^k are the main use). `coset_key` canonically labels
    the right coset H·w, which is what Schreier constructions consume.

    No rank is defined here: rank = edges − vertices + 1 needs a finite core
    graph, and these subgroups generally have none.
    """

    __slots__ = (
        "ctx", "target", "images", "accepted", "start", "_action", "_cyclic_gcd", "_hash"
    )

    def __init__(self, ctx: GroupContext, target: Target, images, accepted):
        if ctx.kind != "free":
            raise ContextMismatchError("homomorphism sources are free groups")
        self.ctx = ctx
        self.target = target
        if len(images) != ctx.rank:
            raise MalformedInputError(
                f"need {ctx.rank} generator images, got {len(images)}"
            )
        if target.kind == "lattice":
            imgs = []
            for v in images:
                v = tuple(int(x) for x in v)
                if len(v) != target.param:
                    raise MalformedInputError("image vector has wrong dimension")
                imgs.append(v)
            self.images = tuple(imgs)
            if accepted == "zero":
                accepted = zdlattice.hnf_from_generators(target.param, [])
            if not isinstance(accepted, zdlattice.HnfSubgroup):
                raise MalformedInputError(
                    "lattice targets accept an HnfSubgroup or 'zero'"
                )
            if accepted.dim != target.param:
                raise MalformedInputError("accepted sublattice has wrong dimension")
            self.accepted = accepted
            self._cyclic_gcd = None
            self.start = (0,) * target.param
            inverse = lambda v: tuple(-c for c in v)
        elif target.kind == "cyclic":
            m = target.param
            self.images = tuple(int(v) % m for v in images)
            vals = frozenset(int(v) % m for v in accepted)
            if not vals:
                raise MalformedInputError("accepted subgroup cannot be empty")
            g = math.gcd(m, *vals) if vals != {0} else m
            if vals != {(g * k) % m for k in range(m // g if g else 1)} and vals != {0}:
                raise MalformedInputError(
                    f"accepted set {sorted(vals)} is not a subgroup of Z/{m}"
                )
            self.accepted = vals
            self._cyclic_gcd = g if vals != {0} else m
            self.start = 0
            inverse = lambda v: -v % m
        else:  # permutation
            n = target.param
            imgs = []
            for p in images:
                p = tuple(int(x) for x in p)
                if sorted(p) != list(range(n)):
                    raise MalformedInputError(f"{p} is not a permutation of 0..{n - 1}")
                imgs.append(p)
            self.images = tuple(imgs)
            perms = frozenset(tuple(int(x) for x in p) for p in accepted)
            ident = tuple(range(n))
            for p in perms:
                if sorted(p) != list(ident):
                    raise MalformedInputError(f"{p} is not a permutation of 0..{n - 1}")
            if ident not in perms:
                raise MalformedInputError("accepted permutations must include the identity")
            for p in perms:
                if _perm_inv(p) not in perms:
                    raise MalformedInputError("accepted permutations not inverse-closed")
                for q in perms:
                    if _perm_mul(p, q) not in perms:
                        raise MalformedInputError("accepted permutations not closed")
            self.accepted = perms
            self._cyclic_gcd = None
            self.start = ident
            inverse = _perm_inv
        # letter ±i acts on the running image by φ(generator i)^±1
        self._action = {}
        for i, v in enumerate(self.images, start=1):
            self._action[i] = v
            self._action[-i] = inverse(v)
        self._hash = hash((ctx, target, self.images, self._accepted_key()))

    def _accepted_key(self):
        if self.target.kind == "lattice":
            return self.accepted
        return tuple(sorted(self.accepted))

    # membership automaton -----------------------------------------------
    # The state is the running image φ(prefix).

    def step(self, state, letter: int):
        a = self._action[letter]
        kind = self.target.kind
        if kind == "cyclic":
            return (state + a) % self.target.param
        if kind == "lattice":
            return tuple([x + y for x, y in zip(state, a)])
        return _perm_mul(state, a)

    def accepting(self, state) -> bool:
        if self.target.kind == "lattice":
            return self.accepted.contains(state)
        return state in self.accepted

    def image(self, w: Word):
        """φ(w), the state reached on w, in one pass (Schreier constructions
        call this once per coset representative)."""
        act = self._action
        if self.target.kind == "cyclic":
            return sum(map(act.__getitem__, w)) % self.target.param
        if self.target.kind == "lattice":
            return tuple(map(sum, zip(self.start, *map(act.__getitem__, w))))
        p = self.start
        for x in w:
            p = _perm_mul(p, act[x])
        return p

    def contains(self, w: Word) -> bool:
        return self.accepting(self.image(w))

    def coset_key(self, w: Word):
        """Canonical label of the right coset H·w (equal keys ⟺ equal cosets)."""
        img = self.image(w)
        if self.target.kind == "lattice":
            return self.accepted.residue(img)
        if self.target.kind == "cyclic":
            return img % self._cyclic_gcd
        return min(_perm_mul(p, img) for p in self.accepted)

    def __eq__(self, other):
        if not isinstance(other, HomSubgroup):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.target == other.target
            and self.images == other.images
            and self._accepted_key() == other._accepted_key()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HomSubgroup(F_{self.ctx.rank} → {self.target!r})"


def kernel(ctx: GroupContext, target: Target, images) -> HomSubgroup:
    """ker φ as a membership-complete subgroup."""
    if target.kind == "lattice":
        return HomSubgroup(ctx, target, images, "zero")
    if target.kind == "cyclic":
        return HomSubgroup(ctx, target, images, [0])
    return HomSubgroup(ctx, target, images, [tuple(range(target.param))])
