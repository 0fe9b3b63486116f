"""Dynamics on the space of subgroups: nonisolation witnesses, free-product
certificates, transitivity moves under conjugation, and Følner-set transfer.

Everything returned by this module is a *certificate*: enough finite data to
re-verify the claim by membership queries alone, independently of the search
that produced it. Searches are budgeted and deterministic; when a complete
budgeted search refutes every candidate, that is reported as a verified
failure (:class:`~chabauty_lab.errors.SearchFailure`) carrying the budgets
and the deepest partial progress — never as a mathematical impossibility.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import Iterable, Sequence

from .budgets import Budget, current
from .chabauty import ClopenSet, _meets, clopen, distance_up_to, in_clopen
from .errors import MalformedInputError, SearchFailure, TaskInvalidError
from .stallings import (
    StallingsGraph,
    _witness_candidates,
    conjugate_subgroup,
    coset_automaton,
    fold,
    from_generators,
    intersect,
    join,
    trivial_subgroup,
    wedge_conjugate,
)
from .words import (
    GroupContext,
    IDENTITY,
    Word,
    conjugate,
    free_group,
    invert,
    iter_ball,
    power,
    reduce_word,
    sorted_words,
)


# ── nonisolation witnesses ───────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class WitnessTerm:
    """One term of a nonisolation witness: the finite-index completion K_n
    that agrees with H up to n, the adjoined element k_n ∈ K_n ∖ H, and the
    strictly-larger infinite-index term H_n = ⟨H, k_n⟩ ⊆ K_n. K_n is numbered
    as `stallings._witness_candidates` returns it, not always canonically:
    reports read only its index."""

    n: int
    completion: StallingsGraph
    adjoined: Word
    term: StallingsGraph


@dataclasses.dataclass(frozen=True)
class NonisolationWitness:
    subgroup: StallingsGraph
    terms: tuple[WitnessTerm, ...]


def nonisolation_witness(
    H: StallingsGraph, length: int, budget: Budget | None = None
) -> NonisolationWitness:
    """A sequence H_n ≠ H converging to H: for each n ≤ length, complete H to
    a finite-index K_n agreeing with H on the ball of radius n, pick the
    canonically-least suitable k_n ∈ K_n ∖ H, and set H_n = ⟨H, k_n⟩.

    Then H ⊊ H_n ⊆ K_n squeezes the trace: H_n agrees with H up to n too,
    while k_n keeps H_n ≠ H, so the sequence witnesses that H is not isolated.
    Only infinite-index H in free groups of rank ≥ 2 qualify (finite-index
    subgroups are isolated points and admit no such sequence, and in F₁ = Z
    no infinite-index term H_n ≠ H exists).

    Candidates for k_n are the basis elements of K_n outside H in canonical
    order (some exists: all of them inside H would force K_n = ⟨basis⟩ ⊆ H);
    a candidate is rejected if ⟨H, k_n⟩ has finite index, and when all
    candidates within the cap fail the completion radius is enlarged, which
    refreshes the candidate pool. `stallings._witness_candidates` reads
    them off K_n, by an ordered walk of its tree when H's core lies within
    the radius and by ranking every basis key otherwise. When every radius
    fails the error bears no `reached`: both routes stop at the cap, so no
    count of the candidates past it is ever taken.
    """
    budget = budget or current()
    if H.index() is not None:
        raise MalformedInputError(
            "nonisolation witnesses exist only for infinite-index subgroups"
        )
    if H.ctx.rank == 1:
        raise MalformedInputError(
            "nonisolation witnesses need rank >= 2: in F_1 = Z every subgroup "
            "other than {1} has finite index, so no infinite-index term H_n != H exists"
        )
    if length < 1:
        raise MalformedInputError("witness length must be >= 1")
    terms = []
    for n in range(1, length + 1):
        term = None
        for extra in range(budget.witness_radius_slack + 1):
            K, candidates = _witness_candidates(H, n + extra, budget.witness_candidate_cap, budget)
            for k in candidates:
                H_n = join(H, [k], budget)
                if H_n.index() is None:
                    term = WitnessTerm(n, K, k, H_n)
                    break
            if term is not None:
                break
        if term is None:
            raise budget.exceeded("witness_candidate_cap", "nonisolation candidates")
        terms.append(term)
    return NonisolationWitness(H, tuple(terms))


# ── free-product certificates ────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class FreeProductCertificate:
    """kind = "certified": ⟨A ∪ B⟩ = A ∗ B, backed by two independent routes
    (trivial pullback intersection, and rank additivity — a surjection
    between free groups of equal finite rank is an isomorphism).
    kind = "refuted": `reason` is "nontrivial-intersection" with the shortest
    common element as `witness`, or "rank-defect" with the three ranks."""

    kind: str
    join: StallingsGraph
    reason: str | None = None
    witness: Word | None = None
    ranks: tuple[int, int, int] | None = None

    def certified(self) -> bool:
        return self.kind == "certified"


def free_product_certify(
    A: StallingsGraph, B: StallingsGraph, budget: Budget | None = None
) -> FreeProductCertificate:
    """Decide whether A and B generate their free product."""
    if A.is_trivial() or B.is_trivial():
        raise MalformedInputError("free-product factors must be nontrivial")
    budget = budget or current()
    return _freeness(A, B, join(A, B, budget), budget)


def _freeness(
    A: StallingsGraph, B: StallingsGraph, J: StallingsGraph, budget: Budget
) -> FreeProductCertificate:
    """Settle freeness of two nontrivial factors whose join J is known."""
    I = intersect(A, B, budget)
    if not I.is_trivial():
        # its shortest element: a nontrivial core graph on n vertices has a
        # reduced basepoint loop of length < 2n
        shortest = distance_up_to(I, trivial_subgroup(I.ctx), 2 * I.nverts, budget)
        return FreeProductCertificate(
            "refuted", J, reason="nontrivial-intersection", witness=shortest.witness
        )
    ranks = (A.rank(), B.rank(), J.rank())
    if ranks[2] != ranks[0] + ranks[1]:
        return FreeProductCertificate("refuted", J, reason="rank-defect", ranks=ranks)
    return FreeProductCertificate("certified", J, ranks=ranks)


# ── transitivity tasks and moves ─────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class TransitivityTask:
    """Move r source clopen sets into r target clopen sets with one element.

    sources[i] and targets[i] are paired; source_witnesses[i] ∈ sources[i]
    and target_witnesses[i] ∈ targets[i] must be infinite-index subgroups
    (they seed the construction of the moved points). The budget is part of
    the task: searches are only meaningful relative to it. A task is
    validated under its budget when it is made, `dataclasses.replace`
    copies included.
    """

    ctx: GroupContext
    sources: tuple[ClopenSet, ...]
    targets: tuple[ClopenSet, ...]
    source_witnesses: tuple[StallingsGraph, ...]
    target_witnesses: tuple[StallingsGraph, ...]
    budget: Budget

    def __post_init__(self):
        validate_task(self)

    @property
    def r(self) -> int:
        return len(self.sources)


def make_task(
    ctx: GroupContext,
    pairs: Sequence[tuple[ClopenSet, ClopenSet, StallingsGraph, StallingsGraph]],
    budget: Budget | None = None,
) -> TransitivityTask:
    """Assemble and validate a task from (source, target, source_witness,
    target_witness) tuples."""
    # no pairs give four empty columns, which validation refuses
    columns = tuple(zip(*pairs)) or ((),) * 4
    return TransitivityTask(ctx, *columns, budget or current())


def validate_task(task: TransitivityTask) -> None:
    """Reject structurally-broken tasks: provably empty clopen sets, witnesses
    outside their sets, or finite-index witnesses."""
    if task.r < 1:
        raise TaskInvalidError("a task needs at least one pair")
    if len(task.targets) != task.r or len(task.source_witnesses) != task.r \
            or len(task.target_witnesses) != task.r:
        raise TaskInvalidError("pair lists have mismatched lengths")
    for side, sets, witnesses in (
        ("source", task.sources, task.source_witnesses),
        ("target", task.targets, task.target_witnesses),
    ):
        for i, (V, Lam) in enumerate(zip(sets, witnesses)):
            where = f"{side} pair {i + 1}"
            if V.trivially_empty:
                raise TaskInvalidError(f"{where}: ins and outs overlap")
            ins = [reduce_word(w, task.ctx) for w in V.ins]  # `clopen` does not reduce
            if _meets(fold(task.ctx, ins, task.budget), V):
                raise TaskInvalidError(
                    f"{where}: clopen set is empty (⟨ins⟩ contains an out-word)"
                )
            if Lam.ctx != task.ctx:
                raise TaskInvalidError(f"{where}: witness has wrong context")
            if not in_clopen(Lam, V):
                raise TaskInvalidError(f"{where}: witness does not lie in its set")
            if Lam.index() is not None:
                raise TaskInvalidError(f"{where}: witness must have infinite index")


@dataclasses.dataclass(frozen=True)
class PairCertificate:
    """Evidence for one pair: Δ = ⟨Λ_source, w·Λ_target·w⁻¹⟩, how freeness was
    settled ("certified" free product or degenerate "absorbed" when one factor
    contains the other), and the two clopen checks."""

    delta: StallingsGraph
    freeness: str
    source_check: bool
    target_check: bool


@dataclasses.dataclass(frozen=True)
class MoveCertificate:
    """A verified move: with g = w⁻¹, the subgroup Δ_i lies in sources[i] and
    g·Δ_i·g⁻¹ lies in targets[i] for every pair simultaneously."""

    conjugator: Word  # g
    candidate: Word  # w = g⁻¹, the searched conjugator
    pairs: tuple[PairCertificate, ...]
    candidates_tried: int
    reverified: bool


def _candidate_conjugators(ctx: GroupContext, budget: Budget) -> Iterable[Word]:
    """Deterministic candidate stream: the identity, then w = uⁿ with u in
    canonical word order and n swept 1..cap before u lengthens."""
    yield IDENTITY
    seen = {IDENTITY}
    for u in iter_ball(ctx.rank, budget.u_len_cap, budget):
        if not u:
            continue
        for n in range(1, budget.exponent_cap + 1):
            w = power(u, n)
            if not w or len(w) > budget.conjugator_len_cap:
                continue
            if w not in seen:
                seen.add(w)
                yield w


def _try_candidate(
    task: TransitivityTask,
    w: Word,
    floor: int,
    screens: list[tuple[list[Word], frozenset]],
) -> tuple[list[PairCertificate] | None, int, str]:
    """Evaluate one candidate; returns (pair certs | None, #checks passed,
    first failure description).

    The checks of pair i (0-based) are freeness, then the source check, then
    the target check. `floor` is the most checks any earlier candidate
    passed, and the search keeps a failed candidate only if it passes more.
    A candidate that fails pair i's source check passes at most 3i + 1
    checks, so once floor ≥ 3i + 1 only the source check of pair i can
    still matter, and it is settled first:

    - a pre-test that builds no graph: Δ_i contains w·b·w⁻¹ and w·b⁻¹·w⁻¹
      for every basis word b of Λ'_i, so Δ_i is outside sources[i] if one
      of these is an out-word (a source set may exclude a conjugacy class
      in either orientation);
    - otherwise the source check on `wedge_conjugate(Λ_i, Λ'_i, w)`, the
      folded but unfinalized builder of Δ_i, which has Δ_i's membership.
      Only a candidate that passes it finalizes the wedge into Δ_i, for the
      absorption test, the freeness `intersect` and the certificate.

    A candidate refuted this way reports the 3i checks it passed before pair
    i, which cannot beat the floor; its freeness stays unsettled. This runs
    only when 2r·n_s·(n_t + |w|) < vertex_cap, n_s = |V(Λ_i)|, n_t = |V(Λ'_i)|:
    that bounds the wedge, the conjugation, the join, the fibre product
    (n_s·(n_t + |w|) pairs) and `_freeness`'s distance search (one state per
    edge end of the intersection, plus the start), so no skipped step could
    raise BudgetExceededError and every raise comes at the same candidate
    as in check order. Otherwise the checks run in order.
    """
    budget = task.budget
    certs = []
    passed = 0
    for i in range(task.r):
        lam_s = task.source_witnesses[i]
        lam_t = task.target_witnesses[i]
        words_t, outs = screens[i]
        outside = f"pair {i + 1}: Δ outside the source set"
        source_first = floor > passed and (
            2 * task.ctx.rank * lam_s.nverts * (lam_t.nverts + len(w)) < budget.vertex_cap
        )
        if source_first:
            if any(conjugate(b, w) in outs for b in words_t):
                return None, passed, outside
            wedge = wedge_conjugate(lam_s, lam_t, w, budget)
            if not in_clopen(wedge, task.sources[i]):
                return None, passed, outside
        lam_t_conj = conjugate_subgroup(lam_t, w, budget)
        delta = wedge.finalize() if source_first else join(lam_s, lam_t_conj, budget)
        if delta == lam_s or delta == lam_t_conj:
            freeness = "absorbed"
        else:
            # neither factor absorbs the other, so neither is trivial
            fp = _freeness(lam_s, lam_t_conj, delta, budget)
            if not fp.certified():
                return None, passed, f"pair {i + 1}: join not free ({fp.reason})"
            freeness = "certified"
        passed += 1
        if not source_first and not in_clopen(delta, task.sources[i]):
            return None, passed, outside
        passed += 1
        moved = conjugate_subgroup(delta, invert(w), budget)
        if not in_clopen(moved, task.targets[i]):
            return None, passed, f"pair {i + 1}: w⁻¹Δw outside the target set"
        passed += 1
        certs.append(
            PairCertificate(delta, freeness, True, True)
        )
    return certs, passed, ""


def _reverify(task: TransitivityTask, w: Word, certs: list[PairCertificate]) -> None:
    """Re-check the certificate through an independent construction: rebuild
    each Δ from basis words (fresh fold, not the search-path join), re-run
    membership checks, and re-settle freeness via the pullback. Basis words
    and their conjugates are reduced, so they are folded as they are; only
    the rebuilt Δ, compared with the certificate's, is finalized."""
    g = invert(w)
    ctx, budget = task.ctx, task.budget
    for i, cert in enumerate(certs):
        lam_s = task.source_witnesses[i]
        lam_t = task.target_witnesses[i]
        lam_t_conj = [conjugate(b, w) for b in lam_t.basis()]
        rebuilt = fold(ctx, lam_s.basis() + lam_t_conj, budget).finalize()
        if rebuilt != cert.delta:
            raise AssertionError("certificate Δ failed independent rebuild")
        if not in_clopen(rebuilt, task.sources[i]):
            raise AssertionError("certificate failed source re-check")
        moved = fold(ctx, [conjugate(b, g) for b in rebuilt.basis()], budget)
        if not in_clopen(moved, task.targets[i]):
            raise AssertionError("certificate failed target re-check")
        if cert.freeness == "certified":
            if not intersect(lam_s, fold(ctx, lam_t_conj, budget), budget).is_trivial():
                raise AssertionError("certificate failed freeness re-check")


def multi_transitivity_move(task: TransitivityTask) -> MoveCertificate:
    """Find one conjugator moving every source pair into its target pair.

    For each candidate w the moved points are Δ_i = ⟨Λ_i, w·Λ'_i·w⁻¹⟩; the
    move certificate takes g = w⁻¹, so that Δ_i ∈ sources[i] and g·Δ_i·g⁻¹ =
    w⁻¹·Δ_i·w ⊇ Λ'_i lands in targets[i] (its required elements are present
    by construction; the excluded ones are checked).

    Candidates are searched in deterministic canonical order under the task's
    budget. Success returns a re-verified certificate; exhausting the budget
    with every candidate refuted raises SearchFailure with the refutation
    transcript summary — a verified, budget-relative negative. Each candidate
    settles only the checks that can still change that transcript (see
    `_try_candidate`); the certificate, the transcript and every budget raise
    are those of running every check in order.
    """
    budget = task.budget
    # per pair, what the pre-test in _try_candidate reads: the basis words
    # of the target witness with their inverses, and the source set's
    # out-words
    screens = [
        ([x for b in lam_t.basis() for x in (b, invert(b))], frozenset(V.outs))
        for lam_t, V in zip(task.target_witnesses, task.sources)
    ]
    tried = 0
    best = (-1, IDENTITY, "no candidates evaluated")
    for w in _candidate_conjugators(task.ctx, budget):
        tried += 1
        certs, passed, failure = _try_candidate(task, w, best[0], screens)
        if certs is not None:
            _reverify(task, w, certs)
            return MoveCertificate(
                conjugator=invert(w),
                candidate=w,
                pairs=tuple(certs),
                candidates_tried=tried,
                reverified=True,
            )
        if passed > best[0]:
            best = (passed, w, failure)
    raise SearchFailure(
        "every candidate conjugator was refuted within the budget",
        progress={
            "candidates_tried": tried,
            "checks_per_candidate": 3 * task.r,
            "best_checks_passed": best[0],
            "best_candidate": best[1],
            "best_failure": best[2],
            "u_len_cap": budget.u_len_cap,
            "exponent_cap": budget.exponent_cap,
            "conjugator_len_cap": budget.conjugator_len_cap,
        },
    )


def obstruction_task(budget: Budget | None = None) -> TransitivityTask:
    """A valid two-pair task in F₂ that verifiably defeats its own budget.

    Pattern: both pairs share the source set 𝒱({ab}, O) where O is the finite
    shadow of the conjugacy class of ab over the task's own candidate grid —
    O = {w·ab·w⁻¹ : w a budget candidate, w ∉ ⟨ab⟩}. Pair one asks to move
    ⟨ab⟩ onto ⟨ab⟩ (target 𝒱({ab}, {ba})), pair two onto ⟨ba⟩ (target
    𝒱({ba}, {ab})). For any in-budget candidate w ∉ ⟨ab⟩, pair one's moved
    point Δ₁ = ⟨ab, w·ab·w⁻¹⟩ contains w·ab·w⁻¹ ∈ O and is refuted. For
    w ∈ ⟨ab⟩ — the identity and the surviving powers — pair two's
    Δ₂ = ⟨ab, w·ba·w⁻¹⟩ contains ab, hence also the back-conjugate
    w⁻¹(w·ba·w⁻¹)w = ba itself, and ba ∈ O (it is b·ab·b⁻¹), so pair two is
    refuted. Every candidate therefore fails some check and the solver must
    report a verified SearchFailure (exit code 4).

    The witnesses avoid O (a power conjugate w·ab·w⁻¹ equals a power (ab)^k
    only for w ∈ ⟨ab⟩, by exponent sums — and those are filtered out), so the
    task passes validation. It is also *not* mathematically unsolvable: the
    shadow O is finite, so a conjugator outside the recorded grid exists.
    That is exactly the point — solver failures are budget-relative
    statements, and this task makes the budget the binding constraint.
    """
    budget = budget or current().replace(u_len_cap=3, exponent_cap=4)
    ctx = free_group(2)
    ab = (1, 2)
    ba = (2, 1)
    lam_ab = from_generators(ctx, [ab])
    lam_ba = from_generators(ctx, [ba])
    shadow = set()
    for w in _candidate_conjugators(ctx, budget):
        c = conjugate(ab, w)
        if not lam_ab.contains(c):
            shadow.add(c)
    V_source = clopen([ab], sorted_words(shadow))
    V_t1 = clopen([ab], [ba])
    V_t2 = clopen([ba], [ab])
    return make_task(
        ctx,
        [
            (V_source, V_t1, lam_ab, lam_ab),
            (V_source, V_t2, lam_ab, lam_ba),
        ],
        budget,
    )


# ── Følner transfer ──────────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
class FolnerSetReport:
    """One candidate set B_i = {coset reps}: whether the representatives are
    pairwise-distinct cosets, and |γB △ B| / |B| per test element."""

    size: int
    distinct: bool
    collision: tuple[Word, Word] | None
    ratios: tuple[tuple[Word, Fraction], ...]
    tolerance: Fraction
    ok: bool


@dataclasses.dataclass(frozen=True)
class FolnerReport:
    sets: tuple[FolnerSetReport, ...]

    def ok(self) -> bool:
        return all(s.ok for s in self.sets)


def folner_transfer_check(
    H0,
    candidate_sets: Sequence[Sequence[Word]],
    test_elements: Sequence[Word],
    tolerances: Sequence[Fraction] | None = None,
) -> FolnerReport:
    """Check a claimed Følner sequence for the coset action of F_r on H0\\F_r.

    candidate_sets[i] lists coset representatives of the set B_{i+1}; the
    default tolerance for the i-th set is 1/(i+1). Each word is labelled by
    the state of its coset H0·w in H0's :func:`coset_automaton` (equal
    states ⟺ equal cosets: a lattice preimage's residues, or a core or hung
    vertex), so each letter of a word costs one step, γB and B are compared
    as coset sets by their states, and the ratio |γB △ B| / |B| is exact
    (Fractions). Representatives that collide (two words in one coset)
    invalidate their set: almost-invariance of a multiset is not evidence.
    The collision reported is (B[j], B[k]) for the least j with a later word
    in its coset, and the least such k.
    """
    if H0.ctx.kind != "free":
        raise MalformedInputError("Følner ratios are taken in a free-group subgroup's cosets")
    sets = list(candidate_sets)
    if not sets:
        raise MalformedInputError("need at least one candidate set")
    if tolerances is None:
        tolerances = [Fraction(1, i + 1) for i in range(len(sets))]
    if len(tolerances) != len(sets):
        raise MalformedInputError("one tolerance per candidate set")
    start, step = coset_automaton(H0)
    reports = []
    for B, tol in zip(sets, tolerances):
        B = [reduce_word(w) for w in B]
        if not B:
            raise MalformedInputError("candidate sets must be nonempty")
        states = [functools.reduce(step, w, start) for w in B]
        first: dict = {}
        collision = None
        for k, state in enumerate(states):
            j = first.setdefault(state, k)
            if j != k and (collision is None or j < collision[0]):
                collision = (j, k)
        if collision:
            j, k = collision
            reports.append(
                FolnerSetReport(len(B), False, (B[j], B[k]), (), Fraction(tol), False)
            )
            continue
        ratios = []
        ok = True
        for g in test_elements:
            g = reduce_word(g)
            # H0·gw is H0·g stepped by w
            moved = functools.reduce(step, g, start)
            matched = sum(1 for w in B if functools.reduce(step, w, moved) in first)
            ratio = Fraction(2 * (len(B) - matched), len(B))
            ratios.append((g, ratio))
            ok = ok and ratio <= tol
        reports.append(
            FolnerSetReport(len(B), True, None, tuple(ratios), Fraction(tol), ok)
        )
    return FolnerReport(tuple(reports))


def interval_folner_demo(i_values: Sequence[int]):
    """The worked example: H0 = ker(F₂ → Z, a ↦ 1, b ↦ 0), B_i = {a^j H0 :
    |j| ≤ i}, test elements a, a⁻¹, b, b⁻¹. Multiplying by a shifts the
    interval (symmetric difference 2), b acts trivially on these cosets, so
    |γB_i △ B_i| / |B_i| = 2/(2i+1) ≤ 1/i for every i ≥ 2.

    Returns (H0, candidate_sets, test_elements, tolerances).
    """
    from .stallings import Target, kernel

    for i in i_values:
        if i < 2:
            raise MalformedInputError("interval demo needs i >= 2 (so 2/(2i+1) <= 1/i)")
    ctx = free_group(2)
    H0 = kernel(ctx, Target("lattice", 1), [(1,), (0,)])
    candidate_sets = [
        [power((1,), j) for j in range(-i, i + 1)] for i in i_values
    ]
    test_elements = [(1,), (-1,), (2,), (-2,)]
    tolerances = [Fraction(1, i) for i in i_values]
    return H0, candidate_sets, test_elements, tolerances
