"""The standing acceptance battery, one test per criterion.

Each criterion is an end-to-end experiment with its own internal oracles
(clean-room reimplementations, closed-form counts, dual-route checks); a
criterion object reports pass/fail plus a one-line summary. The battery is
deterministic — every sampler is seeded — so these tests are stable.

Run with ``-v`` to see one line per criterion; each test also prints the
battery's own ``criterion NN [PASS] …`` line. The battery takes minutes, so
its tests carry the ``slow`` marker: ``pytest -m "not slow"`` leaves it out.
The tests of criterion 1's closure oracle against the closure it replaced
take seconds and run without the marker.
"""

import random

import pytest

from chabauty_lab import acceptance
from chabauty_lab.words import format_word, parse_word, reduce_word

_RESULTS = {}


def _battery():
    if not _RESULTS:
        for r in acceptance.run_all():
            _RESULTS[r.number] = r
    return _RESULTS


@pytest.mark.slow
@pytest.mark.parametrize("number", sorted(acceptance._CRITERIA))
def test_criterion(number):
    r = _battery()[number]
    print(r.line())
    assert r.passed, r.line()


# ── criterion 1's closure against the closure it replaced ───────────────────


def _seam_product(u: str, v: str) -> str:
    """u·v for reduced words as text: a letter cancels its swapped case."""
    i, j = len(u), 0
    while i and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def _closure_oracle(gens, radius: int, cap: int, size_guard: int = 1_500_000):
    """Criterion 1's former closure, which grows every word and multiplies
    it on both sides: the products of the generators reachable without any
    intermediate exceeding `cap` letters, filtered to the ball of the given
    radius, or None once more than `size_guard` words are reached."""
    seeds = [format_word(w) for w in (reduce_word(g) for g in gens) if w]
    mults = list(dict.fromkeys(v for g in seeds for v in (g, g[::-1].swapcase())))
    ends = [(v, v[0].swapcase(), v[-1].swapcase()) for v in mults]
    seen = {""}
    frontier = [""]
    while frontier:
        out = []
        for s in frontier:
            first, last = s[:1], s[-1:]
            for v, v_first_inv, v_last_inv in ends:
                for p in (
                    _seam_product(s, v) if last == v_first_inv else s + v,
                    _seam_product(v, s) if first == v_last_inv else v + s,
                ):
                    if len(p) <= cap and p not in seen:
                        seen.add(p)
                        if len(seen) > size_guard:
                            return None
                        out.append(p)
        frontier = out
    return {parse_word(w) for w in seen if len(w) <= radius}


def _criterion_1_draws(n: int):
    """The first n generator lists criterion 1 draws."""
    rng = random.Random(101)
    draws = []
    for _ in range(n):
        k = rng.randint(1, 3)
        draws.append([acceptance._random_reduced_word(rng, 4) for _ in range(k)])
    return draws


_DRAWS = _criterion_1_draws(20)


@pytest.mark.parametrize(
    "draw, cap", [(d, 10) for d in range(20)] + [(8, 12), (12, 12), (17, 12), (17, 14), (17, 16)]
)
def test_closure_over_inverse_pairs_matches_the_two_sided_closure(draw, cap):
    """Criterion 1's closure, which grows one word of each pair {w, w⁻¹},
    gives the sets of the closure it replaced on its first 20 draws at the
    first cap of its ladder, and on three of them at higher caps, at radii
    8 and 4."""
    gens = _DRAWS[draw]
    expected = _closure_oracle(gens, 8, cap)
    assert acceptance._closure_members(gens, 8, cap) == expected
    assert acceptance._closure_members(gens, 4, cap) == {w for w in expected if len(w) <= 4}


@pytest.mark.parametrize("gens", [[(1,)], [(1, 2)], [(1, 2, -1), (2, 2)], [(1, -2, 1, 2)]])
def test_closure_size_guard_fires_where_the_two_sided_closure_does(gens):
    """The guard bounds the whole closure, 2·|pairs| − 1 words, so it fires
    exactly where the replaced closure's did, at every guard up to past
    the closure's size."""
    size = len(_closure_oracle(gens, 6, 6))  # every word reached has ≤ 6 letters
    for guard in range(size + 2):
        new = acceptance._closure_members(gens, 6, 6, guard)
        assert new == _closure_oracle(gens, 6, 6, guard)
        assert (new is None) == (size > guard)
