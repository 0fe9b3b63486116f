"""Dynamics on subgroup space: nonisolation witnesses, free-product
certificates, transitivity moves, Folner transfer.

Frozen fixtures:

* the two-pair demo task (move ⟨a⟩ into 𝒱({ab},{ba}) and ⟨b⟩ into
  𝒱({ba},{ab}) with one conjugator) is solved by the 35th candidate aB;
* the deliberately obstructed task refutes all 193 in-budget candidates,
  the best of them passing 4 of 6 checks;
* the interval Folner sets B_i = {a^j : |j| ≤ i} have exact a-ratio
  2/(2i+1) and b-ratio 0.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chabauty_lab import dynamics, specio, stallings
from chabauty_lab.budgets import Budget
from chabauty_lab.chabauty import certify_convergence, clopen, distance_up_to, in_clopen
from chabauty_lab.dynamics import (
    FolnerReport,
    FolnerSetReport,
    MoveCertificate,
    PairCertificate,
    _candidate_conjugators,
    _reverify,
    folner_transfer_check,
    free_product_certify,
    interval_folner_demo,
    make_task,
    multi_transitivity_move,
    nonisolation_witness,
    obstruction_task,
    validate_task,
)
from chabauty_lab.errors import (
    BudgetExceededError,
    MalformedInputError,
    SearchFailure,
    TaskInvalidError,
)
from chabauty_lab.stallings import (
    Target,
    basis_outside,
    conjugate_subgroup,
    from_generators,
    hall_completion,
    join,
    kernel,
    preimage,
)
from chabauty_lab.words import (
    conjugate,
    format_word,
    free_group,
    invert,
    iter_ball,
    multiply,
    parse_word,
    reduce_word,
)
from chabauty_lab.zdlattice import hnf_from_generators

F2 = free_group(2)


def w(t):
    return parse_word(t, F2)


def gens(*texts):
    return from_generators(F2, [w(t) for t in texts])


# ── nonisolation witnesses ───────────────────────────────────────────────────


def test_nonisolation_terms_squeeze_the_limit():
    H = gens("a")
    witness = nonisolation_witness(H, 4)
    assert len(witness.terms) == 4
    for t in witness.terms:
        Hn = t.term
        assert Hn != H
        assert Hn.index() is None
        for x in H.basis():
            assert Hn.contains(x)
        assert Hn.contains(t.adjoined) and not H.contains(t.adjoined)
        # agreement through radius n is the defining property
        assert distance_up_to(H, Hn, t.n).kind == "at_most"


def test_nonisolation_first_adjoined_is_canonical():
    witness = nonisolation_witness(gens("a"), 3)
    assert witness.terms[0].adjoined == w("baB")


def test_nonisolation_certifies_as_convergent():
    H = gens("a")
    witness = nonisolation_witness(H, 6)
    cert = certify_convergence([t.term for t in witness.terms], H, 6)
    assert cert.certified()


def test_nonisolation_rejects_finite_index():
    with pytest.raises(MalformedInputError):
        nonisolation_witness(gens("aa", "b", "abA"), 4)
    with pytest.raises(MalformedInputError):
        nonisolation_witness(gens("a", "b"), 4)


def test_nonisolation_rejects_rank_one():
    """F₁'s trivial subgroup has infinite index, but every other subgroup of
    Z has finite index: no term exists, whatever the budget."""
    F1 = free_group(1)
    with pytest.raises(MalformedInputError, match="rank >= 2"):
        nonisolation_witness(from_generators(F1, []), 2, Budget(witness_candidate_cap=10**6))
    with pytest.raises(MalformedInputError, match="infinite-index"):
        nonisolation_witness(from_generators(F1, [(1, 1)]), 2)


def _oracle_witness_terms(H, length, budget):
    """(n, K_n, basis of K_n, k_n) of nonisolation_witness by the word
    route: the whole basis of K_n, each word walked through H."""
    terms = []
    for n in range(1, length + 1):
        for extra in range(budget.witness_radius_slack + 1):
            K = hall_completion(H, n + extra, budget)
            candidates = [x for x in K.basis() if not H.contains(x)]
            good = [k for k in candidates[: budget.witness_candidate_cap]
                    if join(H, [k], budget).index() is None]
            if good:
                terms.append((n, K, K.basis(), good[0]))
                break
        else:
            raise BudgetExceededError("nonisolation candidates", budget.witness_candidate_cap)
    return terms


def _canonical_of(K):
    return stallings._canonical(K.ctx, range(K.nverts), K.edges, 0)


def _terms(witness):
    """(n, K_n, basis of K_n, k_n), each K_n renumbered canonically: a
    witness keeps its completions as built, and reads their bases so."""
    return [
        (t.n, _canonical_of(t.completion), t.completion.basis(), t.adjoined)
        for t in witness.terms
    ]


@st.composite
def _graph_pairs(draw):
    """(K, H) over F₂ or F₃: H a core graph, K a Hall completion of H or an
    unrelated core graph (so the walk of a tree word can leave H)."""
    rank = draw(st.sampled_from([2, 3]))
    ctx = free_group(rank)
    H = from_generators(ctx, draw(st.lists(_raw_words(rank), max_size=3)))
    if draw(st.booleans()):
        K = hall_completion(H, draw(st.integers(1, 3)))
    else:
        K = from_generators(ctx, draw(st.lists(_raw_words(rank, 8), max_size=5)))
    return K, H


@given(_graph_pairs(), st.sampled_from([1, 2, 20, 10**6]))
@settings(max_examples=150, deadline=None)
def test_candidates_match_the_membership_walk(pair, cap):
    K, H = pair
    assert basis_outside(K, H, cap) == [x for x in K.basis() if not H.contains(x)][:cap]


@given(st.sampled_from([2, 3]).flatmap(
    lambda r: st.lists(_raw_words(r), min_size=1, max_size=3).map(lambda ws: (r, ws))
), st.integers(1, 2))
@example((2, [(1, 1, 1, 1, 1, 2)]), 2)  # the core of ⟨a⁵b⟩ reaches past L = 1, 2
@settings(max_examples=30, deadline=None)
def test_nonisolation_matches_the_word_route(drawn, length):
    rank, words = drawn
    H = from_generators(free_group(rank), words)
    assume(H.index() is None)
    assert _terms(nonisolation_witness(H, length)) == _oracle_witness_terms(H, length, Budget())


def test_nonisolation_beyond_26_generators_matches_the_word_route():
    """Past the text form's 26 letters, candidates and reports take the word
    route: the same terms, and the same report or the same error."""
    F27 = free_group(27)
    H = from_generators(F27, [(1,), (2, 3, -2)])
    K = hall_completion(H, 1)
    for cap in (1, 20, 10**6):
        assert basis_outside(K, H, cap) == [x for x in K.basis() if not H.contains(x)][:cap]
    for gens27, spelled in (([(1,), (2, 3, -2)], True), ([(27, 1)], False)):
        H = from_generators(F27, gens27)
        witness = nonisolation_witness(H, 2)
        assert _terms(witness) == _oracle_witness_terms(H, 2, Budget())
        if spelled:
            report = specio.json_of_nonisolation(witness)
            assert report["subgroup"] == [format_word(x) for x in H.basis()] == ["a", "bcB"]
            assert [t["adjoined"] for t in report["terms"]] == [
                format_word(t.adjoined) for t in witness.terms
            ]
        else:
            with pytest.raises(MalformedInputError, match="at most 26 generators"):
                specio.json_of_nonisolation(witness)


# ── free-product certificates ────────────────────────────────────────────────


def test_free_product_of_the_generators():
    cert = free_product_certify(gens("a"), gens("b"))
    assert cert.certified()
    assert cert.ranks == (1, 1, 2)


def test_free_product_refuted_by_common_power():
    cert = free_product_certify(gens("aa"), gens("aaa"))
    assert not cert.certified()
    assert cert.reason == "nontrivial-intersection"
    assert cert.witness == w("aaaaaa")
    # ⟨a⁴⟩ ∩ ⟨a⁵⟩ = ⟨a²⁰⟩: a witness longer than the ball radius cap
    cert = free_product_certify(gens("aaaa"), gens("aaaaa"), Budget(ball_radius_cap=4))
    assert cert.witness == (1,) * 20


def test_free_product_of_conjugates():
    cert = free_product_certify(gens("a"), gens("baB"))
    assert cert.certified()


def test_free_product_rejects_trivial_factor():
    from chabauty_lab.stallings import trivial_subgroup

    with pytest.raises(MalformedInputError):
        free_product_certify(trivial_subgroup(F2), gens("a"))


# ── transitivity tasks and moves ─────────────────────────────────────────────


def _paired_task():
    return make_task(
        F2,
        [
            (
                clopen([w("a")], [w("b")]),
                clopen([w("ab")], [w("ba")]),
                gens("a"),
                gens("ab"),
            ),
            (
                clopen([w("b")], [w("a")]),
                clopen([w("ba")], [w("ab")]),
                gens("b"),
                gens("ba"),
            ),
        ],
    )


def test_paired_move_frozen_outcome():
    cert = multi_transitivity_move(_paired_task())
    assert cert.candidate == w("aB")
    assert cert.conjugator == w("bA")
    assert cert.candidates_tried == 35
    assert cert.reverified
    assert len(cert.pairs) == 2


def test_move_certificate_checks_replay():
    """Re-run the clopen checks by hand: Δ_i ∈ source_i and w⁻¹·Δ_i·w ∈ target_i."""
    task = _paired_task()
    cert = multi_transitivity_move(task)
    for pc, V_src, V_tgt in zip(cert.pairs, task.sources, task.targets):
        assert in_clopen(pc.delta, V_src)
        assert in_clopen(conjugate_subgroup(pc.delta, cert.conjugator), V_tgt)
        assert pc.freeness in ("certified", "absorbed")
        assert pc.source_check and pc.target_check


def test_identity_move_when_source_equals_target():
    V = clopen([w("a")], [w("b")])
    task = make_task(F2, [(V, V, gens("a"), gens("a"))])
    cert = multi_transitivity_move(task)
    assert cert.candidate == ()
    assert cert.candidates_tried == 1
    assert cert.pairs[0].freeness == "absorbed"  # Δ = ⟨a⟩ absorbs both factors


def test_empty_clopen_set_invalidates_task():
    V_bad = clopen([w("a")], [w("aa")])  # any subgroup with a also has a²
    with pytest.raises(TaskInvalidError, match="empty"):
        make_task(F2, [(V_bad, V_bad, gens("a"), gens("a"))])


def test_finite_index_witness_invalidates_task():
    V = clopen([w("a")], [])
    with pytest.raises(TaskInvalidError, match="infinite index"):
        make_task(F2, [(V, V, gens("a", "b"), gens("a", "b"))])


def test_a_task_needs_a_nonempty_clopen_pair():
    V = clopen([w("a")], [w("b")])
    with pytest.raises(TaskInvalidError, match="ins and outs overlap"):
        make_task(F2, [(V, clopen([w("ab")], [w("ab")]), gens("a"), gens("ab"))])


def test_a_task_refuses_a_witness_from_another_context():
    V = clopen([w("a")], [w("b")])
    other = from_generators(free_group(3), [w("a")])
    with pytest.raises(TaskInvalidError, match="target pair 1: witness has wrong context"):
        make_task(F2, [(V, V, gens("a"), other)])


def test_a_task_needs_one_pair_or_more_in_lists_of_one_length():
    with pytest.raises(TaskInvalidError, match="a task needs at least one pair"):
        make_task(F2, [])
    V = clopen([w("a")], [w("b")])
    with pytest.raises(TaskInvalidError, match="pair lists have mismatched lengths"):
        dynamics.TransitivityTask(F2, (V, V), (V,), (gens("a"),) * 2, (gens("a"),), Budget())


def test_a_task_is_validated_once_when_it_is_made(monkeypatch):
    calls = _counting(monkeypatch, dynamics, "validate_task")
    V = clopen([w("a")], [w("b")])
    task = make_task(F2, [(V, V, gens("a"), gens("a"))])
    multi_transitivity_move(task)
    assert calls == [(task,)]
    with pytest.raises(TaskInvalidError, match="does not lie in its set"):
        dataclasses.replace(task, source_witnesses=(gens("a", "b"),))


def test_obstruction_task_produces_verified_failure():
    task = obstruction_task()
    with pytest.raises(SearchFailure) as exc_info:
        multi_transitivity_move(task)
    progress = exc_info.value.progress
    assert progress["candidates_tried"] == 193
    assert progress["best_checks_passed"] == 4
    assert progress["checks_per_candidate"] == 6


# ── the search against its check-in-order oracle ────────────────────────────


def _oracle_try_candidate(task, cand, budget):
    """One candidate with every check in order: for each pair, the freeness
    of the join, then the source check, then the target check."""
    certs = []
    passed = 0
    for i in range(task.r):
        lam_s = task.source_witnesses[i]
        lam_t_conj = conjugate_subgroup(task.target_witnesses[i], cand, budget)
        delta = join(lam_s, lam_t_conj, budget)
        if delta == lam_s or delta == lam_t_conj:
            freeness = "absorbed"
        else:
            fp = dynamics._freeness(lam_s, lam_t_conj, delta, budget)
            if not fp.certified():
                return None, passed, f"pair {i + 1}: join not free ({fp.reason})"
            freeness = "certified"
        passed += 1
        if not in_clopen(delta, task.sources[i]):
            return None, passed, f"pair {i + 1}: Δ outside the source set"
        passed += 1
        moved = conjugate_subgroup(delta, invert(cand), budget)
        if not in_clopen(moved, task.targets[i]):
            return None, passed, f"pair {i + 1}: w⁻¹Δw outside the target set"
        passed += 1
        certs.append(PairCertificate(delta, freeness, True, True))
    return certs, passed, ""


def _oracle_move(task):
    """multi_transitivity_move with every check of every candidate settled."""
    budget = task.budget
    validate_task(task)
    tried = 0
    best = (-1, (), "no candidates evaluated")
    for cand in _candidate_conjugators(task.ctx, budget):
        tried += 1
        certs, passed, failure = _oracle_try_candidate(task, cand, budget)
        if certs is not None:
            _reverify(task, cand, certs)
            return MoveCertificate(invert(cand), cand, tuple(certs), tried, True)
        if passed > best[0]:
            best = (passed, cand, failure)
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


def _outcome(search, task):
    """A certificate, or what the search raised: the SearchFailure message
    and progress, or the BudgetExceededError's field, limit and reach."""
    try:
        return search(task)
    except SearchFailure as exc:
        return ("search failure", str(exc), exc.progress)
    except BudgetExceededError as exc:
        return ("budget", exc.what, exc.limit, exc.reached)


def _assert_same_outcome(task):
    assert _outcome(multi_transitivity_move, task) == _outcome(_oracle_move, task)


_SMALL_GRID = Budget(u_len_cap=2, exponent_cap=2, conjugator_len_cap=4)


@st.composite
def _move_tasks(draw):
    """Tasks over F₂ or F₃ with 1–3 pairs on a small candidate grid. Each
    clopen set asks for some basis words of its witness and excludes short
    words outside it. Conjugates w·b·w⁻¹ of the target witness's basis words
    b by grid candidates w enter the source side: as out-words, so that the
    pre-test refutes (for one b and every w, so that some searches fail),
    and as generators and in-words of the source witness, so that some
    candidates w succeed."""
    rank = draw(st.sampled_from([2, 3]))
    ctx = free_group(rank)
    grid = list(_candidate_conjugators(ctx, _SMALL_GRID))

    def witness(extra=()):
        words = draw(st.lists(_raw_words(rank, 4), max_size=2))
        H = from_generators(ctx, [*words, *extra])
        assume(H.index() is None)
        return H

    def clopen_for(H, ins=(), outs=()):
        basis = H.basis()
        ins = [*ins, *(draw(st.lists(st.sampled_from(basis), max_size=2)) if basis else [])]
        drawn = [reduce_word(o) for o in draw(st.lists(_raw_words(rank, 3), max_size=6))]
        return clopen(ins, [o for o in [*drawn, *outs] if not H.contains(o)])

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        lam_t = witness()
        basis_t = lam_t.basis()

        def conjugates(most):
            if not basis_t:
                return []
            if most > 2 and draw(st.booleans()):  # one basis word over the whole grid
                b = draw(st.sampled_from(basis_t))
                return [conjugate(b, cand) for cand in grid]
            return [
                conjugate(draw(st.sampled_from(basis_t)), draw(st.sampled_from(grid)))
                for _ in range(draw(st.integers(0, most)))
            ]

        inside = conjugates(2)
        lam_s = witness(inside)
        pairs.append((clopen_for(lam_s, inside, conjugates(8)), clopen_for(lam_t), lam_s, lam_t))
    return make_task(ctx, pairs, _SMALL_GRID)


@given(_move_tasks())
@settings(max_examples=150, deadline=None)
def test_move_matches_the_check_in_order_oracle(task):
    _assert_same_outcome(task)


def _obstruction_in_workload_shape(c, x, u_len_cap, exponent_cap):
    """The obstructed pattern of obstruction_task with a base word c in
    place of ab and c' = x·c·x⁻¹ in place of ba."""
    budget = Budget(u_len_cap=u_len_cap, exponent_cap=exponent_cap)
    lam_c = from_generators(F2, [c])
    c2 = conjugate(c, x)
    lam_c2 = from_generators(F2, [c2])
    shadow = {conjugate(c, cand) for cand in _candidate_conjugators(F2, budget)}
    source = clopen([c], [o for o in shadow if not lam_c.contains(o)])
    return make_task(
        F2,
        [
            (source, clopen([c], [c2]), lam_c, lam_c),
            (source, clopen([c2], [c]), lam_c, lam_c2),
        ],
        budget,
    )


# cyclically reduced words of length 2 or 3 in both letters of F₂, none of
# them a proper power
_BASE_WORDS = [
    c for c in iter_ball(2, 3)
    if len(c) >= 2 and c[0] != -c[-1] and {abs(y) for y in c} == {1, 2}
]


@st.composite
def _workload_obstructions(draw):
    """A base word c, a letter x, and a grid (u_len_cap, exponent_cap) of
    the workload's sizes."""
    return _obstruction_in_workload_shape(
        draw(st.sampled_from(_BASE_WORDS)),
        (draw(st.sampled_from([1, -1, 2, -2])),),
        draw(st.integers(2, 3)),
        draw(st.integers(2, 4)),
    )


@given(_workload_obstructions())
@settings(max_examples=25, deadline=None)
def test_workload_obstructions_match_the_oracle(task):
    outcome = _outcome(multi_transitivity_move, task)
    assert outcome[0] == "search failure"
    assert outcome == _outcome(_oracle_move, task)


def test_obstruction_task_matches_the_oracle():
    _assert_same_outcome(obstruction_task())


def _with_vertex_cap(task, cap):
    return dataclasses.replace(task, budget=task.budget.replace(vertex_cap=cap))


def _assert_same_outcome_under_cap(task, cap):
    """The search and the oracle on the task under another vertex_cap. The
    copy is validated under that cap when it is made, so a cap too small to
    validate the task raises before either search runs: the same budget
    outcome for both."""
    try:
        capped = _with_vertex_cap(task, cap)
    except BudgetExceededError as exc:
        assert exc.what == "graph vertices" and exc.limit == cap
        return
    _assert_same_outcome(capped)


@given(_move_tasks(), st.integers(4, 64))
@settings(max_examples=100, deadline=None)
def test_small_vertex_caps_raise_where_the_oracle_raises(task, cap):
    _assert_same_outcome_under_cap(task, cap)


def test_the_early_source_checks_guard_bounds_the_freeness_distance():
    """⟨c, a²⟩ into the set that excludes every grid conjugate of a. At
    candidate c the in-order checks reach `_freeness`'s distance search over
    ⟨c, a²⟩ ∩ ⟨cac⁻¹⟩ = ⟨ca²c⁻¹⟩, which holds 6 states after its third level
    and raises under `vertex_cap` 4. A guard of n_s·(n_t + |w|) = 4 ≤ 4 let
    the early source check refute c instead, and the search raised at c²."""
    F3 = free_group(3)
    outs = {conjugate((1,), w) for w in _candidate_conjugators(F3, _SMALL_GRID)}
    task = make_task(
        F3,
        [(clopen([], sorted(outs)), clopen([], []),
          from_generators(F3, [(3,), (1, 1)]), from_generators(F3, [(1,)]))],
        _SMALL_GRID.replace(vertex_cap=4),
    )
    assert _outcome(multi_transitivity_move, task) == ("budget", "graph vertices", 4, 6)
    _assert_same_outcome(task)


@pytest.mark.parametrize("cap", range(4, 65))
def test_obstruction_under_small_vertex_caps_matches_the_oracle(cap):
    _assert_same_outcome_under_cap(obstruction_task(), cap)


def test_one_check_above_the_floor_moves_the_transcript():
    """⟨aa⟩ and w·⟨aaa⟩·w⁻¹ with the source set excluding w·aaa·w⁻¹ for every
    grid candidate w: the powers of a fail freeness (0 checks) and the
    others fail the source check (1 check). The identity sets the floor to
    0, so b, passing exactly one check, must still run in check order."""
    lam_s = gens("aa")
    shadow = [conjugate(w("aaa"), cand) for cand in _candidate_conjugators(F2, _SMALL_GRID)]
    V = clopen([w("aa")], [o for o in shadow if not lam_s.contains(o)])
    task = make_task(F2, [(V, clopen([w("aaa")], []), lam_s, gens("aaa"))], _SMALL_GRID)
    with pytest.raises(SearchFailure) as exc_info:
        multi_transitivity_move(task)
    progress = exc_info.value.progress
    assert progress["best_checks_passed"] == 1
    assert progress["best_candidate"] == w("b")
    assert progress["best_failure"] == "pair 1: Δ outside the source set"
    _assert_same_outcome(task)


def _counting(monkeypatch, owner, name):
    """Patch owner.name to record each call's positional arguments."""
    calls = []
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("cap", range(4, 12))
def test_guard_failing_from_the_first_candidate_keeps_check_order(monkeypatch, cap):
    """The obstruction on c = aab: the identity passes 4 checks, so every
    later candidate w could skip at pair 1, but the guard
    n_s·(n_t + |w|) = 3·(3 + |w|) ≤ vertex_cap fails for all of them. The
    search then runs every check in order: the oracle's outcome, and as many
    freeness tests as the oracle."""
    task = _with_vertex_cap(_obstruction_in_workload_shape(w("aab"), w("b"), 2, 2), cap)
    assert [lam.nverts for lam in task.source_witnesses] == [3, 3]
    assert 3 * (3 + 1) > cap
    calls = _counting(monkeypatch, dynamics, "_freeness")
    outcome = _outcome(multi_transitivity_move, task)
    searched = len(calls)
    calls.clear()
    assert outcome == _outcome(_oracle_move, task)
    assert searched == len(calls)


def test_obstruction_settles_freeness_once(monkeypatch):
    """The floor skips what cannot change the transcript: of the 193
    refuted candidates only the identity, tried before there is a floor,
    runs the freeness test. Checking every candidate in order runs it 193
    times."""
    calls = _counting(monkeypatch, dynamics, "_freeness")
    with pytest.raises(SearchFailure) as exc_info:
        multi_transitivity_move(obstruction_task())
    assert exc_info.value.progress["candidates_tried"] == 193
    assert len(calls) <= 3


_OBSTRUCTION_GRID = Budget(u_len_cap=3, exponent_cap=4)


def _product_shadow_task():
    """obstruction_task with the source set excluding the products
    ab·(w·ab·w⁻¹) instead of the conjugates w·ab·w⁻¹: Δ₁ = ⟨ab, w·ab·w⁻¹⟩
    contains such a product, but no conjugate of ab^±1 is one (exponent
    sums), so the pre-test never refutes and only the source check on the
    wedge can."""
    budget = _OBSTRUCTION_GRID
    ab, ba = w("ab"), w("ba")
    lam_ab, lam_ba = gens("ab"), gens("ba")
    products = {multiply(ab, conjugate(ab, c)) for c in _candidate_conjugators(F2, budget)}
    source = clopen([ab], [p for p in products if not lam_ab.contains(p)])
    return make_task(
        F2,
        [
            (source, clopen([ab], [ba]), lam_ab, lam_ab),
            (source, clopen([ba], [ab]), lam_ab, lam_ba),
        ],
        budget,
    )


def test_product_shadow_matches_the_oracle():
    outcome = _outcome(multi_transitivity_move, _product_shadow_task())
    assert outcome[0] == "search failure"
    assert outcome == _outcome(_oracle_move, _product_shadow_task())


@pytest.mark.parametrize("make", [
    obstruction_task,
    _product_shadow_task,
    # the basis of ⟨aBB⟩ is bbA: the source set excludes the conjugates of
    # aBB, the inverses of what a pre-test on basis words alone looks up
    lambda: _obstruction_in_workload_shape(w("aBB"), w("A"), 3, 4),
], ids=["obstruction", "product-shadow", "inverse-orientation"])
def test_refuted_candidates_finalize_no_graph(monkeypatch, make):
    """Of the 193 candidates only the identity and the 8 powers of the base
    word build and finalize graphs (30 calls, with the 4 folds of the
    task's validation); every other one is refuted by the pre-test or the
    wedge. Building Δ for every candidate that the pre-test on basis words
    alone lets through takes 42, 414 and 414 calls."""
    task = make()
    calls = _counting(monkeypatch, stallings._Builder, "finalize")
    with pytest.raises(SearchFailure) as exc_info:
        multi_transitivity_move(task)
    assert exc_info.value.progress["candidates_tried"] == 193
    assert len(calls) <= 30


def test_inverse_basis_words_settle_the_obstruction_without_a_wedge(monkeypatch):
    """On the inverse-orientation obstruction, w·bbA·w⁻¹ is never an
    out-word but its inverse w·aBB·w⁻¹ is, for every candidate outside
    ⟨aBB⟩. So only the 8 powers of aBB build a wedge (15 in all, over both
    pairs); looking up the basis words alone, 200 are built."""
    calls = _counting(monkeypatch, dynamics, "wedge_conjugate")
    task = _obstruction_in_workload_shape(w("aBB"), w("A"), 3, 4)
    assert _outcome(multi_transitivity_move, task)[0] == "search failure"
    assert len(calls) <= 16


# ── Folner transfer ──────────────────────────────────────────────────────────


def test_interval_folner_ratios_are_exact():
    H0, sets, elements, tolerances = interval_folner_demo([2, 3, 4, 5])
    report = folner_transfer_check(H0, sets, elements, tolerances)
    assert report.ok()
    first = report.sets[0]  # i = 2: B has 5 cosets
    ratios = dict(first.ratios)
    assert ratios[(1,)] == Fraction(2, 5)
    assert ratios[(2,)] == Fraction(0)
    assert first.tolerance == Fraction(1, 2)


def test_folner_collision_detected():
    H0, _, elements, _ = interval_folner_demo([2])
    # H0 = ker(F₂ → Z, a ↦ 1, b ↦ 0), so b ∈ H0 and H0·b = H0·1 collide
    report = folner_transfer_check(H0, [[w("b"), w("")]], elements)
    assert not report.ok()
    assert not report.sets[0].distinct
    assert report.sets[0].collision == (w("b"), w(""))


def test_folner_reports_the_first_word_with_a_later_mate():
    """The identity meets its mate b first, but a comes earlier and has the
    later mates ba and bab: the pair is (a, ba)."""
    H0, _, elements, _ = interval_folner_demo([2])
    sets = [[w("a"), w(""), w("b"), w("ba"), w("bab")]]
    assert folner_transfer_check(H0, sets, elements).sets[0].collision == (w("a"), w("ba"))


def test_folner_refuses_a_lattice_subgroup():
    H = hnf_from_generators(2, [(2, 0)])
    with pytest.raises(MalformedInputError):
        folner_transfer_check(H, [[(1, 1)]], [])


def _pairwise_folner(H0, candidate_sets, test_elements, tolerances=None):
    """The Følner report by membership in H0: words u, v share a coset iff
    u·v⁻¹ ∈ H0, tried pair by pair."""
    sets = list(candidate_sets)
    if tolerances is None:
        tolerances = [Fraction(1, i + 1) for i in range(len(sets))]
    reports = []
    for B, tol in zip(sets, tolerances):
        B = [reduce_word(u) for u in B]
        collision = None
        for j in range(len(B)):
            for k in range(j + 1, len(B)):
                if H0.contains(multiply(B[j], invert(B[k]))):
                    collision = (B[j], B[k])
                    break
            if collision:
                break
        if collision:
            reports.append(FolnerSetReport(len(B), False, collision, (), Fraction(tol), False))
            continue
        ratios = []
        ok = True
        for g in test_elements:
            g = reduce_word(g)
            moved = [multiply(g, u) for u in B]
            matched = sum(
                1 for mu in moved if any(H0.contains(multiply(mu, invert(u))) for u in B)
            )
            ratio = Fraction(2 * (len(B) - matched), len(B))
            ratios.append((g, ratio))
            ok = ok and ratio <= tol
        reports.append(FolnerSetReport(len(B), True, None, tuple(ratios), Fraction(tol), ok))
    return FolnerReport(tuple(reports))


def _raw_words(rank, max_size=6):
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


@st.composite
def _folner_subgroups(draw):
    """(H0, words of H0): a core graph, the covering of a finite target's
    preimage, or a kernel to Z^k, over F₂ or F₃. Words of H0 are its basis,
    or commutators for a kernel to Z^k."""
    rank = draw(st.sampled_from([2, 3]))
    ctx = free_group(rank)
    kind = draw(st.sampled_from(["graph", "cyclic", "permutation", "lattice"]))
    if kind == "graph":
        H = from_generators(ctx, draw(st.lists(_raw_words(rank, 4), max_size=3)))
    elif kind == "cyclic":
        m = draw(st.integers(1, 6))
        images = draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank))
        H = preimage(ctx, Target("cyclic", m), images, [0])
    elif kind == "permutation":
        perm = st.permutations([0, 1, 2]).map(tuple)
        images = draw(st.lists(perm, min_size=rank, max_size=rank))
        H = preimage(ctx, Target("permutation", 3), images, [(0, 1, 2)])
    else:
        k = draw(st.integers(1, 2))
        vec = st.lists(st.integers(-1, 1), min_size=k, max_size=k)
        H = kernel(ctx, Target("lattice", k), draw(st.lists(vec, min_size=rank, max_size=rank)))
        letters = range(1, rank + 1)
        return H, [(x, y, -x, -y) for x in letters for y in letters if x != y]
    return H, H.basis()


@st.composite
def _folner_cases(draw):
    """(H0, sets, elements, tolerances); a set may repeat a word or hold
    h·u beside u for some h ∈ H0, so that two of its words collide."""
    H, members = draw(_folner_subgroups())
    rank = H.ctx.rank
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        B = draw(st.lists(_raw_words(rank), min_size=1, max_size=6))
        for _ in range(draw(st.integers(0, 2))):
            u = draw(st.sampled_from(B))
            h = draw(st.sampled_from(members)) if members and draw(st.booleans()) else ()
            B.insert(draw(st.integers(0, len(B))), multiply(h, u))
        sets.append(B)
    elements = draw(st.lists(_raw_words(rank, 3), max_size=3))
    tolerances = None
    if draw(st.booleans()):
        fraction = st.fractions(min_value=0, max_value=2, max_denominator=6)
        tolerances = draw(st.lists(fraction, min_size=len(sets), max_size=len(sets)))
    return H, sets, elements, tolerances


@given(_folner_cases())
@settings(max_examples=200, deadline=None)
def test_folner_states_match_pairwise_membership(case):
    H, sets, elements, tolerances = case
    assert folner_transfer_check(H, sets, elements, tolerances) == _pairwise_folner(
        H, sets, elements, tolerances
    )


def test_folner_tolerance_violation_flags_set():
    H0, sets, elements, _ = interval_folner_demo([2])
    # demand an absurd tolerance: 2/5 > 1/100
    report = folner_transfer_check(H0, sets, elements, [Fraction(1, 100)])
    assert not report.ok()
    assert not report.sets[0].ok


def test_folner_demo_rejects_tiny_intervals():
    with pytest.raises(MalformedInputError):
        interval_folner_demo([1])
