"""Lattice and cyclic preimages held as their documents wrote them, kept as
test oracles for `stallings.preimage`, which holds each subgroup in one form.

`ImageHomSubgroup(ctx, images, accepted)` is φ⁻¹(A) for φ: F_r → Z^k and
A ≤ Z^k, stored as (images, A): its states are the residues of φ(prefix)
modulo A, so two documents of one subgroup compare unequal unless they
agree letter for letter. `cyclic_cosets` is the coset BFS of a cyclic
target over the residues mod d = gcd(m, A), and `cyclic_covering` numbers
it by `_bfs_graph`. `lattice_documents` draws lattice hom documents, and
`lattice_forms` reads one both ways.
"""

import math

from hypothesis import strategies as st

from chabauty_lab.budgets import Budget
from chabauty_lab.errors import MalformedInputError
from chabauty_lab.stallings import StallingsGraph, Target, _bfs_graph, preimage
from chabauty_lab.words import free_group
from chabauty_lab.zdlattice import hnf_from_generators


class ImageHomSubgroup:
    """φ⁻¹(A) over residues of φ(prefix) modulo A."""

    def __init__(self, ctx, images, accepted):
        k = accepted.dim
        self.images = tuple(tuple(int(x) for x in v) for v in images)
        if any(len(v) != k for v in self.images):
            raise MalformedInputError("image vector has wrong dimension")
        self.ctx = ctx
        self.accepted = accepted
        self.start = (0,) * k
        # letter ±i adds ±φ(generator i) to the running image
        self._action = {
            e * i: tuple(e * c for c in v) for i, v in enumerate(self.images, 1) for e in (1, -1)
        }

    def step(self, state, letter):
        return self.accepted.residue([x + y for x, y in zip(state, self._action[letter])])

    def accepting(self, state):
        return not any(state)

    def image(self, w):
        """φ(w), in one pass."""
        return tuple(map(sum, zip(self.start, *map(self._action.__getitem__, w))))

    def contains(self, w):
        return self.accepted.contains(self.image(w))

    def coset_key(self, w):
        return self.accepted.residue(self.image(w))

    def __eq__(self, other):
        if not isinstance(other, ImageHomSubgroup):
            return NotImplemented
        return (self.ctx, self.images, self.accepted) == (other.ctx, other.images, other.accepted)

    def __hash__(self):
        return hash((self.ctx, self.images, self.accepted))


def cyclic_cosets(m, images, accepted):
    """(label of A, `_bfs_graph` step) on the cosets of A ≤ Z/m. A = dZ/m
    for d = gcd(m, A), so the coset of x is labelled by x mod d."""
    vals = frozenset(int(v) % m for v in accepted)
    if not vals:
        raise MalformedInputError("accepted subgroup cannot be empty")
    d = math.gcd(m, *vals)
    # vals ⊆ dZ/m, so it is dZ/m iff it has m // d elements (m may be huge)
    if len(vals) != m // d:
        raise MalformedInputError(f"accepted set {sorted(vals)} is not a subgroup of Z/{m}")
    shifts = {e * i: e * int(v) % d for i, v in enumerate(images, 1) for e in (1, -1)}
    return 0, lambda x, y: (x + shifts[y]) % d


def cyclic_covering(ctx, m, images, accepted, budget=None):
    start, step = cyclic_cosets(m, images, accepted)
    return StallingsGraph(ctx, *_bfs_graph(ctx, start, step, budget or Budget()))


@st.composite
def lattice_documents(draw, rank=None, bound=3):
    """(ctx, images, generators of A) for φ: F_r → Z^k and A ≤ Z^k: r = rank
    or r ≤ bound, k ≤ bound, entries in [−bound, bound], at most bound
    generators."""
    r = rank or draw(st.integers(1, bound))
    k = draw(st.integers(1, bound))
    vec = st.lists(st.integers(-bound, bound), min_size=k, max_size=k).map(tuple)
    return free_group(r), draw(st.lists(vec, min_size=r, max_size=r)), draw(st.lists(vec, max_size=bound))


def lattice_forms(doc):
    """φ⁻¹(A) as `preimage` holds it, and as the document wrote it."""
    ctx, images, gens = doc
    A = hnf_from_generators(len(images[0]), gens)
    return preimage(ctx, Target("lattice", A.dim), images, A), ImageHomSubgroup(ctx, images, A)
