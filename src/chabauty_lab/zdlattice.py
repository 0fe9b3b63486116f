"""Subgroups of Z^d in Hermite normal form, erasing ranks, and witness chains.

A subgroup of Z^d is a sublattice; its canonical form here is the row-style
Hermite normal form: pivots positive, each pivot strictly to the right of the
one above, entries above a pivot reduced into [0, pivot). Two generating sets
span the same subgroup iff they produce identical HNFs, so equality is
structural.

The erasing rank implemented by :func:`cb_erasing_rank` is the closed form
d − rk(H) + 1: each witness-sequence step approximates a rank-k subgroup by
rank-(k+1) subgroups that agree with it on a large ball, and after d − k
nested steps the approximants have finite index, which is an isolation
certificate. Witness chains materialize exactly that descent and certify the
convergence of every level; the matching *upper* bound (no deeper nesting
survives) is a statement about all possible approximating sequences and has
no finite certificate, so it is not machine-checked here.

All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_left
from operator import add
from typing import Iterable, Sequence

from .budgets import Budget, current
from .errors import MalformedInputError
from .words import GroupContext, Vector, lattice


class HnfSubgroup:
    """Sublattice of Z^d in canonical (row) Hermite normal form."""

    __slots__ = ("dim", "rows", "pivots", "_hash", "_ball")

    def __init__(self, dim: int, rows: tuple[tuple[int, ...], ...]):
        # `rows` must already be in HNF; use hnf_from_generators to build.
        self.dim = dim
        self.rows = rows
        self.pivots = tuple(
            (i, next(j for j, x in enumerate(r) if x != 0)) for i, r in enumerate(rows)
        )
        self._hash = hash((dim, rows))
        self._ball = None  # (radius, ball) for the largest radius asked; see _sorted_ball

    @property
    def ctx(self) -> GroupContext:
        return lattice(self.dim)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[int]) -> bool:
        # the canonical representative of H itself is 0
        return not any(self.residue(v))

    def residue(self, v: Sequence[int]) -> Vector:
        """Canonical representative of the coset v + H: each pivot coordinate
        floors into [0, pivot); rows below a pivot have a zero there, so later
        steps never disturb earlier ones and the result is unique per coset."""
        if len(v) != self.dim:
            raise MalformedInputError(f"vector of length {len(v)} in Z^{self.dim}")
        v = list(v)
        for i, c in self.pivots:
            row = self.rows[i]
            q = v[c] // row[c]
            if q:
                for j in range(self.dim):
                    v[j] -= q * row[j]
        return tuple(v)

    def index(self) -> int | None:
        """[Z^d : H] = product of pivots when full-rank, else None (infinite)."""
        if self.rank != self.dim:
            return None
        out = 1
        for i, c in self.pivots:
            out *= self.rows[i][c]
        return out

    def __eq__(self, other):
        if not isinstance(other, HnfSubgroup):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HnfSubgroup(Z^{self.dim}, rows={self.rows})"


def hnf_from_generators(dim: int, generators: Iterable[Sequence[int]]) -> HnfSubgroup:
    """Canonical HNF of the sublattice spanned by the generators.

    The generators are inserted one at a time, and the rows are an HNF again
    after each (Kannan–Bachem; Cohen, GTM 138, §2.4), so no entry outgrows
    the HNF's own. At each pivot column where v is nonzero, the Euclidean
    algorithm leaves the gcd in the pivot row and a zero in v; at v's first
    nonzero column without a pivot, v (made positive there) becomes that
    column's pivot row. Then the entries above the pivots are reduced into
    [0, pivot), bottom row first, in the rows this insertion touched and in
    the rows above a touched pivot whose entry there fell out of range, each
    from that pivot on. Every other entry was in range and stays so.
    """
    if not isinstance(dim, int) or dim < 1:
        raise MalformedInputError("dimension must be a positive integer")
    rows: dict[int, list[int]] = {}  # pivot column -> row
    cols: list[int] = []  # pivot columns, ascending
    for g in generators:
        v = [int(x) for x in g]
        if len(v) != dim:
            raise MalformedInputError(f"generator {v} has length {len(v)}, expected {dim}")
        touched = []
        for c in range(dim):
            if v[c] == 0:
                continue
            touched.append(c)
            if c not in rows:
                rows[c] = v if v[c] > 0 else [-x for x in v]
                cols.insert(bisect_left(cols, c), c)
                break
            a = rows[c]
            while v[c]:
                q = a[c] // v[c]
                a, v = v, [x - q * y for x, y in zip(a, v)]
            rows[c] = a if a[c] > 0 else [-x for x in a]
        # row -> index of the first pivot it is reduced at
        dirty = {c: bisect_left(cols, c) + 1 for c in touched}
        for c in touched:
            i = bisect_left(cols, c)
            for r in cols[:i]:
                if r not in dirty and not 0 <= rows[r][c] < rows[c][c]:
                    dirty[r] = i
        for r in sorted(dirty, reverse=True):
            row = rows[r]
            for c in cols[dirty[r]:]:
                q = row[c] // rows[c][c]
                if q:
                    row = [x - q * y for x, y in zip(row, rows[c])]
            rows[r] = row
    return HnfSubgroup(dim, tuple(tuple(rows[c]) for c in cols))


def lattice_preimage(images: Sequence[Sequence[int]], A: HnfSubgroup) -> HnfSubgroup:
    """L = {x ∈ Z^r : Mx ∈ A}, M's columns the r images in A's Z^k: the HNF
    of ⟨(Meᵢ, eᵢ), (a, 0) : a ∈ A⟩ ≤ Z^(k+r) has its rows that are zero on
    Z^k span {0} × L, so their last r entries are L's HNF (Cohen, §2.4.3)."""
    k, r = A.dim, len(images)
    rows = [tuple(v) + (0,) * i + (1,) + (0,) * (r - i - 1) for i, v in enumerate(images)]
    full = hnf_from_generators(k + r, rows + [a + (0,) * r for a in A.rows])
    return HnfSubgroup(r, tuple(row[k:] for row in full.rows if not any(row[:k])))


def cb_erasing_rank(H: HnfSubgroup) -> int:
    """d − rk(H) + 1: how many erasing steps the subgroup survives in the
    Chabauty space of Z^d (trivial subgroup: d + 1; finite index: 1)."""
    return H.dim - H.rank + 1


# ── ball membership ──────────────────────────────────────────────────────────


def _members(H: HnfSubgroup, radius: int, budget: Budget) -> list[tuple[int, Vector]]:
    """(|v|₁, v) for each v in H ∩ {|v|₁ ≤ radius}, unordered.

    A member is Σ aᵢ·rowᵢ, and once a₀..aᵢ₋₁ are fixed the coordinates left of
    row i's pivot are final (the rows below are zero there). So level i keeps
    the partial sums whose final coordinates fit in the ball, and aᵢ ranges
    over the values that keep the pivot coordinate inside the radius left:
    Fincke–Pohst enumeration over the triangular HNF basis, in the L¹ norm.
    A level holding more than `budget.vertex_cap` points raises
    BudgetExceededError.
    """
    ends = [c for _, c in H.pivots[1:]] + [H.dim]
    level = [(0, (0,) * H.dim)]
    for (i, c), end in zip(H.pivots, ends):
        row = H.rows[i]
        p = row[c]
        grown = []
        for n, v in level:
            room = radius - n
            lo = -((room + v[c]) // p)
            w = tuple(x + lo * y for x, y in zip(v, row))
            for _ in range(lo, (room - v[c]) // p + 1):
                m = n + sum(map(abs, w[c:end]))
                if m <= radius:
                    grown.append((m, w))
                w = tuple(map(add, w, row))
            if len(grown) > budget.vertex_cap:
                raise budget.exceeded("vertex_cap", "lattice ball points", len(grown))
        level = grown
    return level


def _sorted_ball(H: HnfSubgroup, radius: int, budget: Budget | None) -> list[tuple[int, Vector]]:
    """(|v|₁, v) for each v in H ∩ {|v|₁ ≤ radius}, in canonical (norm, lex)
    order. The subgroup keeps the largest ball asked for, and a smaller ball
    is a prefix of it."""
    if radius < 0:
        raise MalformedInputError("radius must be >= 0")
    if H._ball is None or H._ball[0] < radius:
        H._ball = (radius, sorted(_members(H, radius, budget or current())))
    ball = H._ball[1]
    return ball[: bisect_left(ball, (radius + 1,))]


def members_in_ball(H: HnfSubgroup, radius: int, budget: Budget | None = None) -> list[Vector]:
    """H ∩ {|v|₁ ≤ radius} in canonical (norm, lex) order."""
    return [v for _, v in _sorted_ball(H, radius, budget)]


def first_difference_in_ball(
    H: HnfSubgroup, K: HnfSubgroup, radius: int, budget: Budget | None = None
) -> Vector | None:
    """The canonically-least vector of {|v|₁ ≤ radius} that lies in exactly
    one of H and K, or None when they agree on the whole ball: the two sorted
    balls first part there."""
    a, b = _sorted_ball(H, radius, budget), _sorted_ball(K, radius, budget)
    if a == b:
        return None
    parted = next(((x, y) for x, y in zip(a, b) if x != y), a[len(b) :] + b[len(a) :])
    return min(parted)[1]


# ── witness sequences and chains ─────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class WitnessSequence:
    """Direction vector v ∉ span(H) and the terms H_m = ⟨H, m·v⟩."""

    subgroup: HnfSubgroup
    direction: Vector
    terms: tuple[HnfSubgroup, ...]


def witness_direction(H: HnfSubgroup) -> Vector:
    """First standard basis vector outside the rational span of H."""
    if H.rank >= H.dim:
        raise MalformedInputError("subgroup already has full rank")
    for c in range(H.dim):
        e = [0] * H.dim
        e[c] = 1
        if hnf_from_generators(H.dim, list(H.rows) + [e]).rank > H.rank:
            return tuple(e)
    raise AssertionError("rank-deficient lattice must miss a basis direction")


def witness_sequence(
    H: HnfSubgroup, radius_max: int = 8, budget: Budget | None = None
) -> WitnessSequence:
    """Strictly larger subgroups H_m = ⟨H, m·v⟩ converging to H.

    Agreement with H on the radius-`radius_max` ball is *not* monotone in m
    (an m-multiple of v can conspire with H to produce a short new vector),
    so the sequence length is chosen adaptively: scan m upward and stop at
    the first m ≥ 2·radius_max + 2 that ends three consecutive terms agreeing
    with H on the ball. Only finitely many m disagree, so the scan terminates;
    more than `budget.vertex_cap` terms raise BudgetExceededError.
    """
    budget = budget or current()
    v = witness_direction(H)
    terms: list[HnfSubgroup] = []
    good_streak = 0
    m = 0
    while True:
        m += 1
        if m > budget.vertex_cap:
            raise budget.exceeded("vertex_cap", "witness sequence length", m)
        H_m = hnf_from_generators(H.dim, list(H.rows) + [tuple(m * x for x in v)])
        terms.append(H_m)
        if first_difference_in_ball(H_m, H, radius_max, budget) is None:
            good_streak += 1
        else:
            good_streak = 0
        if m >= 2 * radius_max + 2 and good_streak >= 3:
            return WitnessSequence(H, v, tuple(terms))


@dataclasses.dataclass(frozen=True)
class WitnessNode:
    """Node of a witness chain: the subgroup, its approximating sequence, and
    the recursively-expanded children (a suffix of the terms)."""

    subgroup: HnfSubgroup
    sequence: WitnessSequence | None
    expanded: tuple["WitnessNode", ...]


def witness_chain(
    H: HnfSubgroup,
    depth: int,
    radius_max: int = 8,
    branch: int = 2,
    budget: Budget | None = None,
) -> WitnessNode:
    """Nested witness sequences to the given depth.

    Every node of positive depth computes its full witness sequence (so every
    level's convergence can be certified), but only the last `branch` terms
    are expanded recursively — expanding all of them is exponentially
    redundant. Fully-expanded leaves have rank rk(H) + depth.
    """
    if depth < 0 or depth > H.dim - H.rank:
        raise MalformedInputError(
            f"depth must lie in [0, {H.dim - H.rank}] for this subgroup"
        )
    if depth == 0:
        return WitnessNode(H, None, ())
    seq = witness_sequence(H, radius_max, budget)
    children = seq.terms[-branch:]
    expanded = tuple(
        witness_chain(child, depth - 1, radius_max, branch, budget)
        for child in children
    )
    return WitnessNode(H, seq, expanded)


# ── enumeration ──────────────────────────────────────────────────────────────


def enumerate_by_index(
    dim: int, max_index: int, budget: Budget | None = None
) -> dict[int, list[HnfSubgroup]]:
    """All finite-index subgroups of Z^d with index ≤ max_index, by index.

    Finite-index sublattices correspond bijectively to full-rank HNF matrices:
    positive diagonal (p_0..p_{d-1}) with Π p_i = index, and above-diagonal
    entries in column i ranging over [0, p_i).
    """
    _check_catalogue(dim, max_index, budget)
    out: dict[int, list[HnfSubgroup]] = {n: [] for n in range(1, max_index + 1)}
    for diag in _diagonals(dim, max_index):
        idx = 1
        for p in diag:
            idx *= p
        column_choices = [
            itertools.product(range(diag[i]), repeat=i) for i in range(dim)
        ]
        for cols in itertools.product(*column_choices):
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                rows[i][i] = diag[i]
                for k, e in enumerate(cols[i]):
                    rows[k][i] = e
            out[idx].append(HnfSubgroup(dim, tuple(tuple(r) for r in rows)))
    for lst in out.values():
        lst.sort(key=lambda h: h.rows)
    return out


def count_by_index(
    dim: int, max_index: int, budget: Budget | None = None
) -> dict[int, int]:
    """How many subgroups of Z^d have each index n ≤ max_index, without
    building them: column i of an HNF with diagonal (p_0..p_{d-1}) has i free
    entries in [0, p_i), so that diagonal carries Π p_i^i subgroups of index
    Π p_i (the HNF form of the subgroup zeta function of Z^d; Lubotzky–Segal,
    *Subgroup Growth*, ch. 15). Equal to the sizes of
    :func:`enumerate_by_index`, with the same checks in the same order."""
    _check_catalogue(dim, max_index, budget)
    out = dict.fromkeys(range(1, max_index + 1), 0)
    for diag in _diagonals(dim, max_index):
        idx = subgroups = 1
        for i, p in enumerate(diag):
            idx *= p
            subgroups *= p ** i
        out[idx] += subgroups
    return out


def _check_catalogue(dim: int, max_index: int, budget: Budget | None) -> None:
    if dim < 1 or max_index < 1:
        raise MalformedInputError("dimension and index bound must be >= 1")
    budget = budget or current()
    if dim > budget.lattice_dim_cap:
        raise budget.exceeded("lattice_dim_cap", "lattice dimension", dim)
    if max_index > budget.lattice_index_cap:
        raise budget.exceeded("lattice_index_cap", "lattice index", max_index)


def _diagonals(dim: int, max_index: int) -> Iterable[tuple[int, ...]]:
    if dim == 0:
        yield ()
        return
    for p in range(1, max_index + 1):
        for rest in _diagonals(dim - 1, max_index // p):
            yield (p,) + rest
