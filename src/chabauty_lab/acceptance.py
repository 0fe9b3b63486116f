"""The standing acceptance battery: ten end-to-end checks.

Every check is deterministic (fixed seeds, no wall-clock input) and
self-contained: where a computation is validated, the validation route is
independent of the code path under test — membership goes through a
deliberately primitive fold-and-walk plus a brute-force product closure,
lattice counts through a separate 2×2 Euclid, convergence through the
generic certifier.  ``run_all`` executes any subset;
``tests/test_acceptance.py`` asserts each criterion and the ``suite`` CLI
command prints the same matrix.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Callable, Iterable, Sequence

from .chabauty import Certification, DistanceBound, certify_bounds, clopen, distance_up_to
from .dynamics import (
    interval_folner_demo,
    folner_transfer_check,
    make_task,
    multi_transitivity_move,
    nonisolation_witness,
    obstruction_task,
)
from .errors import MalformedInputError, SearchFailure, TaskInvalidError
from .schreier import build as schreier_build
from .schreier import ends_estimate, fiber_diameters, intermediate_bound, qi_constants
from .stallings import (
    StallingsGraph,
    Target,
    conjugate_subgroup,
    from_generators,
    hall_completion,
    kernel,
    preimage,
)
from .words import ball, format_word, free_group, parse_word, reduce_word
from .zdlattice import (
    HnfSubgroup,
    cb_erasing_rank,
    enumerate_by_index,
    hnf_from_generators,
    witness_chain,
)

_F2 = free_group(2)


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:>2} [{status}] {self.title}: {self.detail}"


# ── random families ──────────────────────────────────────────────────────────


def _random_reduced_word(rng: random.Random, max_len: int, min_len: int = 1) -> tuple:
    n = rng.randint(min_len, max_len)
    out: list[int] = []
    while len(out) < n:
        c = rng.choice(_F2.letters)
        if out and c == -out[-1]:
            continue
        out.append(c)
    return tuple(out)


def _random_subgroup(rng: random.Random, max_gens: int = 3, max_len: int = 4) -> StallingsGraph:
    k = rng.randint(1, max_gens)
    return from_generators(_F2, [_random_reduced_word(rng, max_len) for _ in range(k)])


def _random_infinite_index(rng: random.Random, max_gens: int = 3, max_len: int = 4) -> StallingsGraph:
    while True:
        H = _random_subgroup(rng, max_gens, max_len)
        if not H.is_trivial() and H.index() is None:
            return H


# ── criterion 1: membership against two independent oracles ─────────────────


def _fold_oracle_members(gens: Sequence[tuple], words: Sequence[tuple]) -> set:
    """Membership oracle by naive edge-set folding.

    Deliberately primitive: one flat set of labeled edges, a full rebuild on
    every merge, no union-find, no canonical numbering.  Folding merges the
    two endpoints of equal-labeled edges leaving a common vertex until none
    remain, then membership is a plain walk in the resulting tables.
    """
    edges: set[tuple[int, int, int]] = set()
    nxt = 1
    for g in gens:
        cur = 0
        for i, c in enumerate(g):
            v = 0 if i == len(g) - 1 else nxt
            if v != 0:
                nxt += 1
            edges.add((cur, c, v))
            cur = v
    while True:
        seen: dict[tuple[int, int], int] = {}
        merge = None
        for u, c, v in edges:
            for src, lab, dst in ((u, c, v), (v, -c, u)):
                prev = seen.get((src, lab))
                if prev is not None and prev != dst:
                    merge = (min(prev, dst), max(prev, dst))
                    break
                seen[(src, lab)] = dst
            if merge:
                break
        if merge is None:
            break
        keep, drop = merge
        edges = {
            (keep if a == drop else a, c, keep if b == drop else b)
            for a, c, b in edges
        }
    table: dict[tuple[int, int], int] = {}
    for u, c, v in edges:
        table[(u, c)] = v
        table[(v, -c)] = u
    members = set()
    for w in words:
        cur: int | None = 0
        for c in w:
            cur = table.get((cur, c))
            if cur is None:
                break
        if cur == 0:
            members.add(w)
    return members


def _closure_members(
    gens: Sequence[tuple], radius: int, cap: int, size_guard: int = 1_500_000
) -> set | None:
    """Brute-force closure oracle: all products of the generators reachable
    without any intermediate exceeding `cap` letters, filtered to the ball
    of the given radius.  Returns None when the closure would exceed the
    size guard (the caller then reports the draw instead of guessing).
    Words are held as text while the closure grows.

    The closure is closed under inversion: inverting every intermediate of
    a derivation turns a right multiplication by v into a left one by v⁻¹,
    at the same lengths. So each pair {w, w⁻¹} is grown once, as its
    lesser word with that word's inverse beside it, and both words are
    multiplied on the right; the inverse of w·v is v⁻¹·w⁻¹. The empty word
    is the only one equal to its inverse, so the closure has 2·|pairs| − 1
    words."""
    seeds = [format_word(w) for w in (reduce_word(g) for g in gens) if w]
    # each multiplier with its inverse, its length and the inverse of its
    # first letter, which a word must end in to cancel against it
    factors = []
    for v in dict.fromkeys(v for g in seeds for v in (g, g[::-1].swapcase())):
        v_inv = v[::-1].swapcase()
        factors.append((v, v_inv, len(v), v_inv[-1]))
    pairs = {""}
    frontier = [("", "")]
    while frontier:
        out: list[tuple[str, str]] = []
        for w, w_inv in frontier:
            for s, s_inv in ((w, w_inv), (w_inv, w)):
                last, room = s[-1:], cap - len(s)
                for v, v_inv, n, v_first_inv in factors:
                    if v_first_inv != last:  # no cancellation
                        if n > room:
                            continue
                        p, p_inv = s + v, v_inv + s_inv
                    else:  # s·v cancels k letters: s ends as v⁻¹ does
                        k = 1
                        while k < len(s) and k < n and s[-1 - k] == v_inv[-1 - k]:
                            k += 1
                        if n - 2 * k > room:
                            continue
                        p, p_inv = s[: len(s) - k] + v[k:], v_inv[: n - k] + s_inv[k:]
                    if p_inv < p:
                        p, p_inv = p_inv, p
                    if p not in pairs:
                        pairs.add(p)
                        if 2 * len(pairs) - 1 > size_guard:
                            return None
                        out.append((p, p_inv))
        frontier = out
    return {parse_word(x) for w in pairs if len(w) <= radius for x in (w, w[::-1].swapcase())}


def criterion_1() -> CriterionResult:
    """Membership in random subgroups agrees with both independent oracles
    on every word of the radius-8 ball; exact, zero tolerance."""
    rng = random.Random(101)
    radius = 8
    words = ball(_F2, radius)
    mismatches = 0
    unresolved = 0
    for _ in range(200):
        k = rng.randint(1, 3)
        gens = [_random_reduced_word(rng, 4) for _ in range(k)]
        H = from_generators(_F2, gens)
        lib = {w for w in words if H.contains(w)}
        folded = _fold_oracle_members(gens, words)
        # The closure needs headroom above the radius: a short member may
        # only be reachable through longer intermediate products.  Escalate
        # the cap until the closure confirms the fold oracle or gives up.
        closure = None
        for cap in (radius + 2, radius + 4, radius + 6, radius + 8):
            closure = _closure_members(gens, radius, cap)
            if closure is not None and closure == folded:
                break
        if closure is None:
            unresolved += 1
            continue
        if not (lib == folded == closure):
            mismatches += 1
    passed = mismatches == 0 and unresolved == 0
    detail = (
        f"200 subgroups x {len(words)} words, "
        f"{mismatches} mismatches, {unresolved} unresolved closures"
    )
    return CriterionResult(1, "membership vs fold and closure oracles", passed, detail)


# ── criterion 2: rank of finite-index subgroups ──────────────────────────────


def criterion_2() -> CriterionResult:
    """Finite-index completions satisfy rank = index·(r−1) + 1 exactly,
    with the rank read off both from the Euler count and from the basis."""
    rng = random.Random(202)
    bad = 0
    for _ in range(50):
        H = _random_subgroup(rng)
        K = hall_completion(H, rng.randint(1, 3))
        n = K.index()
        if n is None:
            bad += 1
            continue
        expected = n * (_F2.rank - 1) + 1
        if K.rank() != expected or len(K.basis()) != expected:
            bad += 1
    return CriterionResult(
        2,
        "Nielsen-Schreier rank formula on 50 completions",
        bad == 0,
        f"50 finite-index subgroups, {bad} rank failures",
    )


# ── criterion 3: separability by finite-index overgroups ─────────────────────


def criterion_3() -> CriterionResult:
    """Every infinite-index draw embeds in a finite-index subgroup that is
    trace-indistinguishable up to each radius n ≤ 6 (re-verified by scan)."""
    rng = random.Random(303)
    failures = 0
    balls = {n: ball(_F2, n) for n in range(1, 7)}
    for _ in range(50):
        H = _random_infinite_index(rng)
        for n in range(1, 7):
            K = hall_completion(H, n)
            if K.index() is None:
                failures += 1
                continue
            if not all(K.contains(w) for w in H.basis()):
                failures += 1
                continue
            if any(H.contains(w) != K.contains(w) for w in balls[n]):
                failures += 1
    return CriterionResult(
        3,
        "separability: finite-index agreement at radius <= 6",
        failures == 0,
        f"50 subgroups x 6 radii = 300 completions, {failures} failures",
    )


# ── criterion 4: nonisolation witnesses ──────────────────────────────────────


def criterion_4() -> CriterionResult:
    """Nonisolation sequences H_n -> H: every term differs from H, agrees
    with it to radius n, contains it, and has infinite index."""
    rng = random.Random(404)
    false_certs = 0
    for _ in range(50):
        H = _random_infinite_index(rng)
        witness = nonisolation_witness(H, 6)
        if len(witness.terms) != 6:
            false_certs += 1
            continue
        for t in witness.terms:
            Hn = t.term
            ok = (
                Hn != H
                and Hn.index() is None
                and all(Hn.contains(w) for w in H.basis())
                and Hn.contains(t.adjoined)
                and not H.contains(t.adjoined)
                and distance_up_to(H, Hn, t.n).kind == "at_most"
            )
            if not ok:
                false_certs += 1
    return CriterionResult(
        4,
        "nonisolation witnesses on 50 subgroups",
        false_certs == 0,
        f"50 subgroups x 6 terms, {false_certs} false certificates",
    )


# ── criterion 5: transitivity moves on random clopen pairs ───────────────────


def _random_task_pair(rng: random.Random):
    """A valid (source, target, witnesses) quadruple with I/O words of
    length <= 4; draws violating validity are rejected and redrawn."""
    while True:
        w1 = _random_reduced_word(rng, 4)
        w2 = _random_reduced_word(rng, 4)
        L1 = from_generators(_F2, [w1])
        L2 = from_generators(_F2, [w2])
        outs1 = [_random_reduced_word(rng, 4) for _ in range(rng.randint(1, 2))]
        outs2 = [_random_reduced_word(rng, 4) for _ in range(rng.randint(1, 2))]
        try:
            V = clopen([w1], outs1)
            W = clopen([w2], outs2)
            task = make_task(_F2, [(V, W, L1, L2)])
        except (TaskInvalidError, MalformedInputError):
            continue
        return V, W, L1, L2, task


def criterion_5() -> CriterionResult:
    """Single moves succeed on 100 random valid clopen pairs within
    conjugator length 12 and re-verify; simultaneous moves succeed on 25
    random two-pair tasks with one common conjugator."""
    rng = random.Random(505)
    failures = []
    for i in range(100):
        _, _, _, _, task = _random_task_pair(rng)
        try:
            cert = multi_transitivity_move(task)
        except SearchFailure as exc:
            failures.append(f"single #{i + 1}: {exc}")
            continue
        if len(cert.conjugator) > 12 or not cert.reverified:
            failures.append(f"single #{i + 1}: certificate out of contract")
    for i in range(25):
        q1 = _random_task_pair(rng)
        q2 = _random_task_pair(rng)
        task = make_task(_F2, [q1[:4], q2[:4]])
        try:
            cert = multi_transitivity_move(task)
        except SearchFailure as exc:
            failures.append(f"double #{i + 1}: {exc}")
            continue
        if len(cert.pairs) != 2 or not cert.reverified or len(cert.conjugator) > 12:
            failures.append(f"double #{i + 1}: certificate out of contract")
    return CriterionResult(
        5,
        "transitivity moves: 100 single + 25 simultaneous",
        not failures,
        f"{len(failures)} failures" + (f" ({failures[0]})" if failures else ""),
    )


# ── criterion 6: the lattice catalogue ────────────────────────────────────────


def _all_hnf_subgroups(d: int, bound: int = 3) -> list[HnfSubgroup]:
    """Every subgroup of Z^d whose canonical HNF rows have entries of
    absolute value <= bound, by one recursion over the columns: a column
    either has no pivot, and each pivot row gets an entry in [-bound, bound],
    or holds the next pivot p in 1..bound, with the entries above it reduced
    into [0, p)."""
    out = []

    def extend(rows: list[tuple[int, ...]], col: int):
        if col == d:
            hnf = hnf_from_generators(d, rows)
            assert hnf.rows == tuple(rows), "enumeration not canonical"
            out.append(hnf)
            return
        for fill in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
            extend([r + (x,) for r, x in zip(rows, fill)], col + 1)
        for p in range(1, bound + 1):
            for fill in itertools.product(range(p), repeat=len(rows)):
                extend([r + (x,) for r, x in zip(rows, fill)] + [(0,) * col + (p,)], col + 1)

    extend([], 0)
    return out


def _hnf2_independent(v: tuple[int, int], w: tuple[int, int]):
    """Clean-room 2x2 Hermite form by column Euclid; used only to cross-check
    the catalogue counts."""
    a, b = v
    c, d = w
    while c:
        q = a // c
        a, b, c, d = c, d, a - q * c, b - q * d
    if a < 0:
        a, b = -a, -b
    if d < 0:
        d = -d
    if a == 0 or d == 0:
        return None  # not finite index
    b %= d
    return (a, b), (0, d)


def _certify_radii(seq: Sequence, limit, max_radius: int) -> list[Certification]:
    """certify_convergence(seq, limit, r) for r = 1..max_radius, from one
    distance per term at max_radius. Canonical order is norm-first, so a
    bound with exponent e <= r (exact: "at_most" has e = max_radius + 1) is
    the radius-r bound too, with the same least witness; every other
    radius-r bound is "at_most" r + 1."""
    bounds = [distance_up_to(term, limit, max_radius) for term in seq]
    at_most = [DistanceBound("at_most", r + 1) for r in range(max_radius + 1)]
    return [
        certify_bounds([b if b.exponent <= r else at_most[r] for b in bounds], r)
        for r in range(1, max_radius + 1)
    ]


def criterion_6() -> CriterionResult:
    """The full small-entry HNF catalogue in dimensions <= 3: the erasing
    rank detects finite index, witness chains certify at every radius <= 8,
    and index counts in Z^2 match the divisor sum two independent ways."""
    problems = []
    total = 0
    for d in (1, 2, 3):
        for H in _all_hnf_subgroups(d):
            total += 1
            finite = H.index() is not None
            if (cb_erasing_rank(H) == 1) != finite:
                problems.append(f"erasing rank wrong on {H.rows} in Z^{d}")
                continue
            depth = d - H.rank
            node = witness_chain(H, depth)
            stack = [node]
            while stack:
                nd = stack.pop()
                stack.extend(nd.expanded)
                if nd.sequence is None:
                    continue
                certs = _certify_radii(nd.sequence.terms, nd.subgroup, 8)
                for radius, cert in enumerate(certs, start=1):
                    if not cert.certified():
                        problems.append(
                            f"chain at {H.rows} in Z^{d} fails radius {radius}"
                        )
                        break
    # Index counts in Z^2 for n <= 12: catalogue vs divisor sum vs 2x2 Euclid.
    catalogue = enumerate_by_index(2, 12)
    counts = {n: len(subs) for n, subs in catalogue.items()}
    divisor_sums = {
        n: sum(a for a in range(1, n + 1) if n % a == 0) for n in range(1, 13)
    }
    if counts != divisor_sums:
        problems.append(f"catalogue counts {counts} != divisor sums")
    seen: dict[int, set] = {n: set() for n in range(1, 13)}
    span = range(-12, 13)
    for a1 in span:
        for a2 in span:
            for b1 in span:
                for b2 in span:
                    det = a1 * b2 - a2 * b1
                    if det == 0 or abs(det) > 12:
                        continue
                    rows = _hnf2_independent((a1, a2), (b1, b2))
                    if rows is not None:
                        seen[abs(det)].add(rows)
    euclid_counts = {n: len(s) for n, s in seen.items()}
    if euclid_counts != divisor_sums:
        problems.append(f"euclid counts {euclid_counts} != divisor sums")
    return CriterionResult(
        6,
        "lattice catalogue: erasing rank, chains, index counts",
        not problems,
        problems[0]
        if problems
        else f"{total} subgroups, chains at 8 radii, counts match twice",
    )


# ── criterion 7: coset geometry constants and kernels ────────────────────────


def criterion_7() -> CriterionResult:
    """Exact quasi-isometry constants, the rank-bound at distortion 1, a
    stable two-ended kernel, and strictly growing fiber diameters."""
    problems = []
    if qi_constants(1) != (7, 14):
        problems.append(f"qi_constants(1) = {qi_constants(1)}")
    if qi_constants(2) != (34, 68):
        problems.append(f"qi_constants(2) = {qi_constants(2)}")
    if intermediate_bound(_F2, 1) != 32:
        problems.append(f"intermediate_bound(F2,1) = {intermediate_bound(_F2, 1)}")
    ker = kernel(_F2, Target("lattice", 1), [(1,), (0,)])
    S = schreier_build(ker, 12)
    ends = [ends_estimate(S, r) for r in (2, 3, 4)]
    if ends != [2, 2, 2]:
        problems.append(f"kernel ends {ends}")
    even = preimage(_F2, Target("lattice", 1), [(1,), (0,)], hnf_from_generators(1, [(2,)]))
    per_radius = []
    for radius in (6, 8, 10):
        reports = fiber_diameters(schreier_build(ker, radius), even)
        if not any(r.lower_bound for r in reports):
            problems.append(f"no lower-bound fiber at radius {radius}")
        per_radius.append(sorted(r.diameter for r in reports))
    for a, b in zip(per_radius, per_radius[1:]):
        if len(a) != len(b) or not all(x < y for x, y in zip(a, b)):
            problems.append(f"fiber diameters not strictly increasing: {per_radius}")
            break
    return CriterionResult(
        7,
        "coset geometry: constants, ends, fiber growth",
        not problems,
        problems[0] if problems else f"constants exact, ends {ends}, fibers {per_radius}",
    )


# ── criterion 8: exact Folner ratios ─────────────────────────────────────────


def criterion_8() -> CriterionResult:
    """The interval sets are exactly (1/i)-invariant inside the kernel:
    every boundary ratio is an exact rational below the tolerance."""
    H0, sets, elements, tolerances = interval_folner_demo([2, 3, 4, 5])
    report = folner_transfer_check(H0, sets, elements, tolerances)
    problems = []
    for i, srep in zip([2, 3, 4, 5], report.sets):
        if not srep.ok or not srep.distinct:
            problems.append(f"set i={i} not accepted")
        for g, ratio in srep.ratios:
            if ratio > srep.tolerance:
                problems.append(f"ratio {ratio} exceeds 1/{i}")
    return CriterionResult(
        8,
        "Folner ratios for interval sets, exact rationals",
        not problems,
        problems[0] if problems else "4 sets, all ratios within tolerance exactly",
    )


# ── criterion 9: ultrametric and conjugation continuity ──────────────────────


def criterion_9() -> CriterionResult:
    """The trace metric is ultrametric on a pooled sample (500 triples) and
    conjugation is continuous with the expected radius loss (500 pairs)."""
    rng = random.Random(909)
    radius = 8
    words = ball(_F2, radius)
    pool: list[StallingsGraph] = [
        from_generators(_F2, []),
        from_generators(_F2, [(1,), (2,)]),
        from_generators(_F2, [(1,)]),
        from_generators(_F2, [(2,)]),
        from_generators(_F2, [(1, 2)]),
        from_generators(_F2, [(1, 1), (2,)]),
    ]
    while len(pool) < 64:
        H = _random_subgroup(rng)
        if not any(H == P for P in pool):
            pool.append(H)
    traces = [frozenset(w for w in words if H.contains(w)) for H in pool]

    def exponent(i: int, j: int) -> int:
        diff = traces[i] ^ traces[j]
        return radius + 1 if not diff else min(len(w) for w in diff)

    problems = []
    for _ in range(500):
        i, j, k = rng.randrange(64), rng.randrange(64), rng.randrange(64)
        if exponent(i, k) < min(exponent(i, j), exponent(j, k)):
            problems.append(f"ultrametric fails on pool indices {(i, j, k)}")
            break
    # Spot-check the memoized exponents against the public distance bound.
    for _ in range(30):
        i, j = rng.randrange(64), rng.randrange(64)
        bound = distance_up_to(pool[i], pool[j], radius)
        expected = exponent(i, j)
        got = bound.exponent if bound.kind == "exact" else radius + 1
        if got != expected:
            problems.append(f"distance route disagrees on pool indices {(i, j)}")
            break
    # Conjugation continuity: if H and K agree on B(8), their g-conjugates
    # agree on B(8 - 2|g|).  Premise holds by construction of the completion.
    checked = 0
    for _ in range(25):
        H = _random_infinite_index(rng)
        K = hall_completion(H, radius)
        for _ in range(20):
            g = _random_reduced_word(rng, 3)
            bound = distance_up_to(
                conjugate_subgroup(H, g),
                conjugate_subgroup(K, g),
                radius - 2 * len(g),
            )
            checked += 1
            if bound.kind != "at_most":
                problems.append(f"continuity fails for |g|={len(g)}")
                break
        if problems:
            break
    return CriterionResult(
        9,
        "ultrametric (500 triples) + conjugation continuity (500 pairs)",
        not problems,
        problems[0] if problems else f"500 triples, {checked} conjugation pairs, all exact",
    )


# ── criterion 10: the obstructed task fails verifiably ───────────────────────


def criterion_10() -> CriterionResult:
    """The built-in obstructed task must exhaust its budget with a verified
    failure; any certificate would be a soundness bug."""
    task = obstruction_task()
    try:
        cert = multi_transitivity_move(task)
    except SearchFailure as exc:
        tried = exc.progress.get("candidates_tried", 0)
        best = exc.progress.get("best_checks_passed", None)
        ok = tried > 0 and best is not None and best < 6
        return CriterionResult(
            10,
            "obstructed task: verified failure, no certificate",
            ok,
            f"{tried} candidates refuted, best passed {best}/6 checks",
        )
    return CriterionResult(
        10,
        "obstructed task: verified failure, no certificate",
        False,
        f"unexpected certificate with conjugator {cert.conjugator!r}",
    )


# ── runner ───────────────────────────────────────────────────────────────────

_CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(numbers: Iterable[int] | None = None) -> list[CriterionResult]:
    picked = sorted(_CRITERIA) if numbers is None else sorted(set(numbers))
    results = []
    for n in picked:
        if n not in _CRITERIA:
            raise MalformedInputError(f"no criterion {n}; valid: 1..10")
        results.append(_CRITERIA[n]())
    return results
