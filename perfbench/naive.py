"""Independent reference computations for the benchmark's verdict checks.

Nothing here imports ``chabauty_lab``: every answer the benchmark accepts
is recomputed from the documented conventions alone (letters ``a``/``A``
for a generator and its inverse, canonical order by length and then
a < A < b < B < ..., canonical vertex numbering by breadth-first search from
the basepoint scanning generator 1 out, generator 1 in, generator 2 out, ...).

The fold is a plain worklist merge over a symmetric adjacency map, kept
deliberately different from the library's union-find edge-set fold so that
a shared bug cannot hide in both.
"""

from __future__ import annotations

import string
from fractions import Fraction

Word = tuple


# ── words ────────────────────────────────────────────────────────────────────


def parse(text: str) -> Word:
    out: list[int] = []
    for ch in text:
        x = string.ascii_lowercase.index(ch.lower()) + 1
        x = x if ch.islower() else -x
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def fmt(w: Word) -> str:
    return "".join(
        string.ascii_lowercase[x - 1] if x > 0 else string.ascii_uppercase[-x - 1]
        for x in w
    )


def mul(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def inv(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def conj(g: Word, w: Word) -> Word:
    """g·w·g⁻¹."""
    return mul(g, w, inv(g))


def power(w: Word, n: int) -> Word:
    return mul(*([w] * n)) if n >= 0 else power(inv(w), -n)


def letters(rank: int) -> list[int]:
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def sphere(rank: int, n: int) -> list[Word]:
    """Reduced words of length exactly n in canonical (letter-lex) order."""
    out: list[Word] = []
    alphabet = letters(rank)

    def grow(prefix: list[int]):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for x in alphabet:
            if not prefix or prefix[-1] != -x:
                prefix.append(x)
                grow(prefix)
                prefix.pop()

    grow([])
    return out


def ball(rank: int, radius: int):
    for n in range(radius + 1):
        yield from sphere(rank, n)


def candidate_grid(rank: int, u_len_cap: int, exponent_cap: int, len_cap: int) -> list[Word]:
    """The documented conjugator stream: the identity, then u^n (u in
    canonical order, 1 <= n <= exponent_cap) skipping repeats, the identity
    and words longer than len_cap."""
    out = [()]
    seen = {()}
    for u in ball(rank, u_len_cap):
        if not u:
            continue
        for n in range(1, exponent_cap + 1):
            w = power(u, n)
            if w and len(w) <= len_cap and w not in seen:
                seen.add(w)
                out.append(w)
    return out


def is_proper_power(w: Word) -> bool:
    n = len(w)
    return any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n))


# ── folded graphs ────────────────────────────────────────────────────────────


class Graph:
    """A canonical folded core graph: ``succ[g][u] = v`` for an edge u --g+1--> v."""

    def __init__(self, rank: int, nverts: int, succ: list[dict]):
        self.rank = rank
        self.nverts = nverts
        self.succ = succ
        self.pred = [{v: u for u, v in s.items()} for s in succ]

    def walk(self, w: Word, start: int = 0):
        v = start
        for x in w:
            v = (self.succ[x - 1] if x > 0 else self.pred[-x - 1]).get(v)
            if v is None:
                return None
        return v

    def contains(self, w: Word) -> bool:
        return self.walk(w) == 0

    def nedges(self) -> int:
        return sum(len(s) for s in self.succ)

    def rank_of_subgroup(self) -> int:
        return self.nedges() - self.nverts + 1

    def covering(self) -> bool:
        return all(len(s) == self.nverts and len(p) == self.nverts
                   for s, p in zip(self.succ, self.pred))

    def index(self):
        return self.nverts if self.covering() else None

    def edge_tables(self) -> list[dict]:
        """The report's edge layout: one {"g": {"u": v}} object per letter."""
        return [{str(g + 1): {str(u): v for u, v in sorted(s.items())}}
                for g, s in enumerate(self.succ)]

    def __eq__(self, other):
        return (self.rank, self.nverts, self.succ) == (other.rank, other.nverts, other.succ)


def canonical(rank: int, edges, base) -> Graph:
    """Renumber the component of `base` by the documented BFS order."""
    out_e = [dict() for _ in range(rank)]
    in_e = [dict() for _ in range(rank)]
    for u, g, v in edges:
        out_e[g][u] = v
        in_e[g][v] = u
    number = {base: 0}
    order = [base]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for g in range(rank):
            for table in (out_e[g], in_e[g]):
                v = table.get(u)
                if v is not None and v not in number:
                    number[v] = len(order)
                    order.append(v)
    succ = [{number[u]: number[v] for u, v in out_e[g].items() if u in number}
            for g in range(rank)]
    return Graph(rank, len(order), succ)


def fold(rank: int, words) -> Graph:
    """Core graph of ⟨words⟩: wedge one loop at a time onto the basepoint and
    merge equally-labelled edges pairwise until the graph is folded again."""
    f = _Folder([{}])
    for w in words:
        w = mul(w)
        if not w:
            continue
        prev = f.base
        first = len(f.adj)
        for k, x in enumerate(w):
            if k == len(w) - 1:
                nxt = f.base
            else:
                nxt = len(f.adj)
                f.adj.append({})
                f.alive.append(True)
            f.add_edge(prev, x, nxt)
            prev = nxt
        f.settle([f.base] + list(range(first, len(f.adj))))
    return f.finish(rank)


def _fold_adj(rank: int, adj: list[dict]) -> Graph:
    """Fold and trim a symmetric adjacency map whose basepoint is vertex 0."""
    f = _Folder(adj)
    f.settle(list(range(len(adj))))
    return f.finish(rank)


class _Folder:
    """Symmetric adjacency map vertex -> {signed label: set(neighbours)}."""

    def __init__(self, adj: list[dict]):
        self.adj = adj
        self.alive = [True] * len(adj)
        self.base = 0

    def add_edge(self, u, x, v):
        self.adj[u].setdefault(x, set()).add(v)
        self.adj[v].setdefault(-x, set()).add(u)

    def settle(self, work: list[int]) -> None:
        adj, alive = self.adj, self.alive
        while work:
            v = work.pop()
            if not alive[v]:
                continue
            for targets in adj[v].values():
                if len(targets) > 1:
                    it = iter(targets)
                    keep, gone = next(it), next(it)
                    # move the smaller adjacency into the larger one
                    if sum(map(len, adj[keep].values())) < sum(map(len, adj[gone].values())):
                        keep, gone = gone, keep
                    if gone == self.base:
                        self.base = keep
                    for y, ts in adj[gone].items():
                        for t in list(ts):
                            t2 = keep if t == gone else t
                            adj[t].get(-y, set()).discard(gone)
                            adj[keep].setdefault(y, set()).add(t2)
                            adj[t2].setdefault(-y, set()).add(keep)
                    adj[gone] = {}
                    alive[gone] = False
                    work.append(keep)
                    if alive[v]:
                        work.append(v)
                    break

    def finish(self, rank: int) -> Graph:
        """Trim hanging trees (never the basepoint) and renumber canonically."""
        adj, alive, base = self.adj, self.alive, self.base
        degree = {v: sum(len(ts) for ts in adj[v].values()) for v in range(len(adj)) if alive[v]}
        stack = [v for v, d in degree.items() if v != base and d <= 1]
        while stack:
            v = stack.pop()
            if not alive[v] or degree[v] > 1:
                continue
            alive[v] = False
            for y, ts in adj[v].items():
                for t in ts:
                    if t != v and alive[t]:
                        adj[t][-y].discard(v)
                        degree[t] -= 1
                        if t != base and degree[t] <= 1:
                            stack.append(t)
            adj[v] = {}
        edges = [(u, x - 1, v) for u in range(len(adj)) if alive[u]
                 for x, ts in adj[u].items() if x > 0 for v in ts]
        return canonical(rank, edges, base)


def conjugate(H: Graph, g: Word) -> Graph:
    """g·H·g⁻¹: a tail spelling g from a new basepoint into H's basepoint."""
    if not g:
        return H
    adj: list[dict] = [{} for _ in range(H.nverts + len(g))]
    shift = len(g)  # H's vertex v becomes v + shift; tail vertices 0..len(g)-1

    def edge(u, x, v):
        adj[u].setdefault(x, set()).add(v)
        adj[v].setdefault(-x, set()).add(u)

    for k, x in enumerate(g):
        edge(k, x, k + 1 if k + 1 < len(g) else shift)
    for gen, table in enumerate(H.succ):
        for u, v in table.items():
            edge(u + shift, gen + 1, v + shift)
    return _fold_adj(H.rank, adj)


def graph_from_tables(rank: int, nverts: int, tables) -> Graph:
    """Rebuild a graph from a report's edge tables (checking their shape)."""
    succ = []
    for g, entry in enumerate(tables):
        (key, table), = entry.items()
        if key != str(g + 1):
            raise ValueError(f"edge table {g} labelled {key!r}")
        succ.append({int(u): v for u, v in table.items()})
    return Graph(rank, nverts, succ)


def intersect(G: Graph, H: Graph) -> Graph:
    """Core graph of G ∩ H from the product of the two automata."""
    rank = G.rank
    start = (0, 0)
    ids = {start: 0}
    order = [start]
    adj: list[dict] = [{}]
    i = 0
    while i < len(order):
        p = order[i]
        i += 1
        for x in letters(rank):
            a, b = G.walk((x,), p[0]), H.walk((x,), p[1])
            if a is None or b is None:
                continue
            q = (a, b)
            if q not in ids:
                ids[q] = len(order)
                order.append(q)
                adj.append({})
            adj[ids[p]].setdefault(x, set()).add(ids[q])
    return _fold_adj(rank, adj)


def least_difference(contains_h, contains_k, words):
    """First word (in the given order) on which the two predicates differ."""
    for w in words:
        if contains_h(w) != contains_k(w):
            return w
    return None


# ── lattices ─────────────────────────────────────────────────────────────────


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def hnf(dim: int, gens) -> list[tuple]:
    """Row Hermite normal form via extended-gcd row pairs: positive pivots
    moving strictly right, entries above a pivot in [0, pivot)."""
    rows = [list(v) for v in gens if any(v)]
    out: list[list[int]] = []
    for col in range(dim):
        piv = None
        rest = []
        for r in rows:
            if r[col] == 0:
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                g, s, t = _ext_gcd(piv[col], r[col])
                a, b = piv[col] // g, r[col] // g
                new_piv = [s * p + t * q for p, q in zip(piv, r)]
                other = [-b * p + a * q for p, q in zip(piv, r)]
                piv = new_piv
                if any(other):
                    rest.append(other)
        rows = rest
        if piv is not None:
            if piv[col] < 0:
                piv = [-x for x in piv]
            out.append(piv)
    for i, r in enumerate(out):
        c = next(j for j, x in enumerate(r) if x)
        for k in range(i):
            q = out[k][c] // r[c]
            out[k] = [x - q * y for x, y in zip(out[k], r)]
    return [tuple(r) for r in out]


def lattice_contains(rows, v) -> bool:
    v = list(v)
    for r in rows:
        c = next(j for j, x in enumerate(r) if x)
        if v[c] % r[c]:
            return False
        q = v[c] // r[c]
        v = [x - q * y for x, y in zip(v, r)]
    return not any(v)


def lattice_ball(dim: int, radius: int) -> list[tuple]:
    """Z^d vectors with L¹ norm <= radius, by norm then lexicographically."""
    def vectors(d, n):
        if d == 1:
            return [(n,), (-n,)] if n else [(0,)]
        return [(x,) + rest for x in range(-n, n + 1) for rest in vectors(d - 1, n - abs(x))]

    out = []
    for n in range(radius + 1):
        out.extend(sorted(set(vectors(dim, n))))
    return out


def sublattice_count(dim: int, n: int) -> int:
    """Number of index-n subgroups of Z^d: multiplicative, and for a prime
    power p^k equal to Π_{i=1}^{d-1} (p^{k+i} − 1)/(p^i − 1)."""
    total = 1
    p = 2
    while n > 1:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            num = den = 1
            for i in range(1, dim):
                num *= p ** (k + i) - 1
                den *= p ** i - 1
            total *= num // den
        p += 1
    return total


def frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
