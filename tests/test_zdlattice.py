"""Sublattices of Z^d in Hermite normal form.

Row-style HNF with positive pivots and entries above a pivot reduced into
[0, pivot) is a canonical form: two generating sets span the same sublattice
iff they produce identical rows. Frozen fixtures:

* {(2,0), (0,3), (1,1)} generates all of Z² (the 2×2 minors have gcd 1).
* diag(2,3) has index 6 = product of pivots.
* In Z², the number of sublattices of index n is σ(n) = Σ_{d|n} d.
* ⟨(1,3)⟩ ≤ Z² is coordinate-erasable in direction (1,0); its witness
  sequence at radius 8 has 18 terms.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chabauty_lab.budgets import Budget
from chabauty_lab.chabauty import certify_convergence, distance_up_to
from chabauty_lab.errors import BudgetExceededError, MalformedInputError
from chabauty_lab.words import iter_lattice_ball
from chabauty_lab.zdlattice import (
    HnfSubgroup,
    cb_erasing_rank,
    count_by_index,
    enumerate_by_index,
    first_difference_in_ball,
    hnf_from_generators,
    members_in_ball,
    witness_chain,
    witness_direction,
    witness_sequence,
)


# ── normal form ──────────────────────────────────────────────────────────────


def test_unimodular_generators_give_identity_lattice():
    H = hnf_from_generators(2, [(2, 0), (0, 3), (1, 1)])
    assert H.rows == ((1, 0), (0, 1))
    assert H.index() == 1


def test_diagonal_lattice():
    H = hnf_from_generators(2, [(2, 0), (0, 3)])
    assert H.rows == ((2, 0), (0, 3))
    assert H.index() == 6
    assert H.rank == 2


def test_zero_lattice():
    H = hnf_from_generators(3, [(0, 0, 0)])
    assert H.rows == ()
    assert H.rank == 0
    assert H.index() is None


def test_negative_generators_normalize():
    assert hnf_from_generators(2, [(-2, 0), (0, -3)]) == hnf_from_generators(
        2, [(2, 0), (0, 3)]
    )


def test_above_pivot_reduction():
    # (1,3) alone: pivot in column 0, nothing to reduce; adding (0,5) forces
    # the first row's column-1 entry into [0,5)
    H = hnf_from_generators(2, [(1, 3), (0, 5)])
    assert H.rows == ((1, 3), (0, 5))
    K = hnf_from_generators(2, [(1, 8), (0, 5)])
    assert K == H


def test_membership():
    H = hnf_from_generators(2, [(2, 0), (0, 3)])
    assert H.contains((2, 3)) and H.contains((-4, 6)) and H.contains((0, 0))
    assert not H.contains((1, 0)) and not H.contains((2, 2))


def test_membership_dimension_check():
    H = hnf_from_generators(2, [(1, 0)])
    with pytest.raises(MalformedInputError):
        H.contains((1, 0, 0))


def test_residue_is_canonical_coset_label():
    H = hnf_from_generators(2, [(2, 0), (0, 3)])
    labels = {H.residue((x, y)) for x in range(-6, 7) for y in range(-6, 7)}
    assert len(labels) == 6
    assert H.residue((2, 3)) == (0, 0)
    assert H.residue((3, 4)) == H.residue((1, 1))


vectors = st.tuples(
    st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)
)


@given(st.lists(vectors, min_size=1, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_hnf_is_canonical_under_presentation_changes(vs, rng):
    """Permuting generators, duplicating one, or adding an integer combination
    of two never changes the normal form (same span ⇒ same rows)."""
    H = hnf_from_generators(2, vs)
    shuffled = list(vs)
    rng.shuffle(shuffled)
    assert hnf_from_generators(2, shuffled) == H
    assert hnf_from_generators(2, vs + [vs[0]]) == H
    combo = tuple(3 * a - 2 * b for a, b in zip(vs[0], vs[-1]))
    assert hnf_from_generators(2, vs + [combo]) == H


@given(st.lists(vectors, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_generators_are_members(vs):
    H = hnf_from_generators(2, vs)
    for v in vs:
        assert H.contains(v)


def _oracle_hnf(dim, generators):
    """The elimination that insertion replaced: for each column in order,
    combine all rows with a nonzero entry there by the Euclidean algorithm
    until one carries the gcd; rows left with a zero entry move on to later
    columns. A final pass reduces above-pivot entries into [0, pivot). The
    entries of the waiting rows grow with the dimension."""
    rows = [list(g) for g in generators if any(g)]
    hnf_rows = []
    for col in range(dim):
        carrier = None
        rest = []
        for r in rows:
            if r[col] == 0:
                rest.append(r)
                continue
            if carrier is None:
                carrier = r
                continue
            a, b = carrier, r
            while b[col] != 0:
                q = a[col] // b[col]
                a = [x - q * y for x, y in zip(a, b)]
                a, b = b, a
            carrier = a
            if any(b):
                rest.append(b)
        rows = rest
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            hnf_rows.append(carrier)
    for i in range(len(hnf_rows)):
        c = next(j for j, x in enumerate(hnf_rows[i]) if x != 0)
        p = hnf_rows[i][c]
        for k in range(i):
            q = hnf_rows[k][c] // p
            if q:
                hnf_rows[k] = [x - q * y for x, y in zip(hnf_rows[k], hnf_rows[i])]
    return tuple(tuple(r) for r in hnf_rows)


@st.composite
def generator_sets(draw):
    """(dim, generators) with dims 1–6 and up to 8 generators: random rows,
    zero rows, multiples of unit vectors and integer combinations of earlier
    rows (so rank-deficient sets), with entries up to 10³⁰."""
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "zero", "axis", "combination"]))
        if kind == "zero":
            g = [0] * dim
        elif kind == "axis":
            g = [0] * dim
            g[draw(st.integers(0, dim - 1))] = draw(entry)
        elif kind == "combination" and gens:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            x, y = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            g = [x * s + y * t for s, t in zip(a, b)]
        else:
            g = draw(st.lists(entry, min_size=dim, max_size=dim))
        gens.append(tuple(g))
    return dim, gens


@given(generator_sets())
@example((3, [(0, 0, 0)]))
@example((2, [(1, 3), (0, 5)]))
@example((3, [(0, 0, 0), (2, 0, 1), (0, 0, 0)]))  # zero rows
@example((3, [(1, 2, 3), (2, 4, 6), (3, 5, 7), (4, 7, 10)]))  # rank 2
@example((2, [(6, 4), (10, 15), (4, -6), (3, 3)]))  # more generators than dims
@example((3, [(0, 0, -6), (0, 4, 0), (9, 0, 0), (0, 0, 10)]))  # unit-vector multiples
@example((3, [(10**30, 3, -1), (7, -(10**30), 2), (1, 1, 10**30 - 1)]))
@settings(max_examples=300, deadline=None)
def test_insertion_hnf_matches_the_elimination_oracle(case):
    dim, gens = case
    assert hnf_from_generators(dim, gens).rows == _oracle_hnf(dim, gens)


def _bareiss_det(matrix):
    """Determinant by Bareiss's fraction-free elimination: every division
    is exact, so the entries stay minors of the matrix."""
    m = [list(r) for r in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


@pytest.mark.parametrize("d", [36, 42])
def test_insertion_hnf_of_d_random_generators_in_z_d(d):
    """d generators with entries in [−9, 9]: the elimination oracle's
    entries grow past millions of bits here and it does not finish. The rows
    are an HNF, each generator is a member, and the index is |det| of the
    generators, so the HNF spans exactly their lattice."""
    import random

    rng = random.Random(d)
    gens = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    H = hnf_from_generators(d, gens)
    assert [c for _, c in H.pivots] == list(range(d))
    for i, c in H.pivots:
        assert H.rows[i][c] > 0
        assert all(0 <= H.rows[k][c] < H.rows[i][c] for k in range(i))
    assert all(H.contains(g) for g in gens)
    assert H.index() == abs(_bareiss_det(gens)) > 0


# ── invariants ───────────────────────────────────────────────────────────────


def test_erasing_rank_full_lattice_and_trivial():
    assert cb_erasing_rank(hnf_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1
    assert cb_erasing_rank(hnf_from_generators(3, [(0, 0, 0)])) == 4


def test_erasing_rank_interpolates():
    assert cb_erasing_rank(hnf_from_generators(3, [(1, 0, 0), (0, 1, 0)])) == 2
    assert cb_erasing_rank(hnf_from_generators(3, [(5, 0, 1)])) == 3


@st.composite
def ball_queries(draw):
    """A subgroup of Z^d (d ≤ 4, zero to d + 1 generators, entries at times
    past the int64 range) and three radii r, r2, r, small enough in Z⁴ for
    the ball scan."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-4, 4), st.sampled_from([2**62, -(2**70)]))
    gens = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=d + 1))
    top = (14, 10, 8, 6)[d - 1]
    r, r2 = draw(st.integers(0, top)), draw(st.integers(0, top))
    return hnf_from_generators(d, gens), (r, r2, r)


@given(ball_queries())
@example((hnf_from_generators(2, [(1, 3)]), (4, 8, 4)))
@example((hnf_from_generators(3, []), (0, 3, 0)))  # rank 0
@example((hnf_from_generators(3, [(1, 0, 0), (0, 2, 1), (0, 0, 3)]), (5, 0, 5)))  # full rank
@settings(max_examples=120, deadline=None)
def test_members_in_ball_l1(case):
    """members_in_ball is the ball scan's list, in its (norm, lex) order,
    whatever radius the same subgroup was asked before."""
    H, radii = case
    for r in radii:
        assert members_in_ball(H, r) == [
            v for v in iter_lattice_ball(H.dim, r) if H.contains(v)
        ]


# ── the subgroup catalogue ───────────────────────────────────────────────────


def test_z2_counts_match_divisor_sums():
    catalogue = enumerate_by_index(2, 12)
    sigma = lambda n: sum(d for d in range(1, n + 1) if n % d == 0)
    for n in range(1, 13):
        assert len(catalogue[n]) == sigma(n), f"index {n}"
    assert len(catalogue[1]) == 1
    assert len(catalogue[6]) == 12


def test_catalogue_members_have_stated_index():
    catalogue = enumerate_by_index(3, 4)
    for n, subs in catalogue.items():
        for H in subs:
            assert H.index() == n
    # no duplicates across the catalogue
    seen = [H for subs in catalogue.values() for H in subs]
    assert len(seen) == len(set(seen))


def test_catalogue_respects_budget_caps():
    with pytest.raises(BudgetExceededError):
        enumerate_by_index(2, 500)
    with pytest.raises(BudgetExceededError):
        enumerate_by_index(9, 2)


# the largest index per dimension whose catalogue builds in well under a second
_ORACLE_INDEX = {1: 200, 2: 60, 3: 16, 4: 8}


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, _ORACLE_INDEX[d]))
    )
)
@settings(max_examples=40, deadline=None)
@example((4, 8))
@example((3, 16))
def test_count_by_index_matches_the_catalogue(case):
    d, n = case
    counts = count_by_index(d, n)
    assert counts == {k: len(subs) for k, subs in enumerate_by_index(d, n).items()}
    assert list(counts) == list(range(1, n + 1))


@pytest.mark.parametrize(
    "args, error, field",
    [
        ((0, 5), MalformedInputError, None),
        ((2, 0), MalformedInputError, None),
        ((0, 100_000), MalformedInputError, None),  # malformed before the caps
        ((5, 2), BudgetExceededError, "lattice dimension"),
        ((9, 500), BudgetExceededError, "lattice dimension"),  # dimension first
        ((2, 201), BudgetExceededError, "lattice index"),
    ],
)
def test_count_and_catalogue_fail_alike(args, error, field):
    raised = []
    for fn in (count_by_index, enumerate_by_index):
        with pytest.raises(error) as info:
            fn(*args)
        raised.append(str(info.value))
        if field is not None:
            assert info.value.what == field
    assert raised[0] == raised[1]


def test_count_by_index_in_z4_up_to_index_40():
    counts = count_by_index(4, 40)
    assert sum(counts.values()) == 1_460_652
    assert counts[1] == 1 and counts[2] == 15  # 2⁴ − 1 sublattices of index 2


def test_lattice_ball_answers_to_the_vertex_cap():
    """Listing H ∩ B(L) raises as a level of the enumeration keeps its
    (vertex_cap + 1)-th point, and keeps no partial ball."""
    # a fresh Z² each time, since a subgroup keeps the largest ball it listed;
    # its radius-5 ball holds 2·5·6 + 1 = 61 points
    z2 = lambda: hnf_from_generators(2, [(1, 0), (0, 1)])
    tight = Budget(vertex_cap=60)
    with pytest.raises(BudgetExceededError) as info:
        members_in_ball(z2(), 5, tight)
    assert (info.value.what, info.value.reached) == ("lattice ball points", 61)
    assert len(members_in_ball(z2(), 5, Budget(vertex_cap=61))) == 61
    with pytest.raises(BudgetExceededError):
        first_difference_in_ball(z2(), hnf_from_generators(2, [(2, 0)]), 5, tight)
    with pytest.raises(BudgetExceededError):
        distance_up_to(z2(), hnf_from_generators(2, [(2, 0)]), 5, tight)
    with pytest.raises(BudgetExceededError):
        witness_sequence(hnf_from_generators(2, [(1, 0)]), 4, Budget(vertex_cap=8))


# ── witness sequences and chains ─────────────────────────────────────────────


def test_witness_direction_picks_first_vector_off_the_span():
    H = hnf_from_generators(2, [(1, 3)])
    assert witness_direction(H) == (1, 0)  # e₀ already leaves the line ⟨(1,3)⟩
    assert not H.contains((1, 0))
    K = hnf_from_generators(2, [(1, 0)])
    assert witness_direction(K) == (0, 1)  # e₀ lies on the axis, e₁ does not


def test_witness_sequence_frozen_shape():
    H = hnf_from_generators(2, [(1, 3)])
    seq = witness_sequence(H, 8)
    assert len(seq.terms) == 18
    assert seq.direction == (1, 0)
    for m, term in enumerate(seq.terms, start=1):
        assert term.contains(tuple(m * x for x in seq.direction))
        assert term != H
        # every term strictly contains H
        for row in H.rows:
            assert term.contains(row)


def test_witness_sequence_certifies_at_its_radius():
    H = hnf_from_generators(2, [(1, 3)])
    seq = witness_sequence(H, 8)
    cert = certify_convergence(list(seq.terms), H, 8)
    assert cert.certified()
    # and the terms really are distinct points of subgroup space
    b = distance_up_to(seq.terms[0], H, 12)
    assert b.kind == "exact"


def test_witness_sequence_length_answers_to_the_vertex_cap():
    # {0} ≤ Z at radius 8 needs the terms mZ, m = 1..18; Z's radius-8 ball,
    # the largest listed, holds 17 points
    trivial = hnf_from_generators(1, [])
    assert len(witness_sequence(trivial, 8, Budget(vertex_cap=18)).terms) == 18
    with pytest.raises(BudgetExceededError) as info:
        witness_sequence(trivial, 8, Budget(vertex_cap=17))
    assert (info.value.what, info.value.limit) == ("witness sequence length", 17)


def test_witness_sequence_needs_infinite_index():
    full = hnf_from_generators(2, [(1, 0), (0, 1)])
    with pytest.raises(MalformedInputError):
        witness_sequence(full, 6)


def test_witness_chain_depth_bounds():
    H = hnf_from_generators(3, [(1, 0, 0)])  # rank 1 in Z³: depth ≤ 2
    with pytest.raises(MalformedInputError):
        witness_chain(H, 3)
    with pytest.raises(MalformedInputError):
        witness_chain(H, -1)


def test_witness_chain_structure():
    H = hnf_from_generators(3, [(1, 0, 0)])
    root = witness_chain(H, 2, radius_max=6, branch=2)
    assert root.subgroup == H
    assert root.sequence is not None
    assert len(root.expanded) <= 2
    for child in root.expanded:
        assert child.subgroup.rank == H.rank + 1
        assert child.sequence is not None
        for leaf in child.expanded:
            assert leaf.subgroup.rank == H.rank + 2
            assert leaf.sequence is None  # depth exhausted


def _chains(d: int, every: int):
    """The witness sequences of criterion 6's chains over every `every`-th
    catalogue subgroup of Z^d, each with its limit."""
    from chabauty_lab.acceptance import _all_hnf_subgroups

    for H in _all_hnf_subgroups(d)[::every]:
        stack = [witness_chain(H, d - H.rank)]
        while stack:
            node = stack.pop()
            stack.extend(node.expanded)
            if node.sequence is not None:
                yield list(node.sequence.terms), node.subgroup


@pytest.mark.parametrize("d, every", [(1, 1), (2, 1), (3, 20)])
def test_certifications_from_one_radius_match_per_radius_calls(d, every):
    """Criterion 6 reads the certifications at radii 1..8 off one radius-8
    distance per term. Each must equal certify_convergence at its radius: on
    the chains as built, reversed, and against their first term (so that
    failures and their witnesses are compared too)."""
    from chabauty_lab.acceptance import _certify_radii

    kinds = set()
    for terms, limit in _chains(d, every):
        for seq, lim in ((terms, limit), (terms[::-1], limit), (terms, terms[0])):
            derived = _certify_radii(seq, lim, 8)
            assert derived == [certify_convergence(seq, lim, r) for r in range(1, 9)]
            kinds.update(c.kind for c in derived)
    assert kinds == {"certified", "fails"}


def _oracle_catalogue(d: int, bound: int) -> list:
    """Criterion 6's catalogue as first written: a column recursion that
    fills each column by an inner recursion appending and popping entries."""
    out = []

    def extend(pivot_cols, rows, col):
        if col == d:
            hnf = hnf_from_generators(d, [tuple(r) for r in rows])
            assert hnf.rows == tuple(tuple(r) for r in rows), "enumeration not canonical"
            out.append(hnf)
            return
        for filled in _fill_free_column(rows, len(pivot_cols), bound):
            extend(pivot_cols, filled, col + 1)
        for p in range(1, bound + 1):
            for filled in _fill_pivot_column(rows, len(pivot_cols), p, col):
                extend(pivot_cols + (col,), filled, col + 1)

    extend((), [], 0)
    return out


def _fill_free_column(rows, npivots, bound):
    def rec(i, acc):
        if i == npivots:
            yield [r[:] for r in acc]
            return
        for x in range(-bound, bound + 1):
            acc[i].append(x)
            yield from rec(i + 1, acc)
            acc[i].pop()

    yield from rec(0, [r[:] for r in rows])


def _fill_pivot_column(rows, npivots, pivot, col):
    def rec(i, acc):
        if i == npivots:
            yield [r[:] for r in acc] + [[0] * col + [pivot]]
            return
        for x in range(0, pivot):
            acc[i].append(x)
            yield from rec(i + 1, acc)
            acc[i].pop()

    yield from rec(0, [r[:] for r in rows])


@pytest.mark.parametrize(
    "d, bound", [(d, b) for d in (1, 2, 3) for b in (1, 2, 3)] + [(4, 1), (4, 2)]
)
def test_catalogue_is_the_oracles_list(d, bound):
    """The one-recursion catalogue lists the same subgroups in the same
    order, so every `[::every]` sample of it is unchanged."""
    from chabauty_lab.acceptance import _all_hnf_subgroups

    assert _all_hnf_subgroups(d, bound) == _oracle_catalogue(d, bound)
