"""Budget plumbing: defaults, overrides, and the environment hook."""

import pytest

from chabauty_lab import chabauty, dynamics, schreier, specio, stallings, zdlattice
from chabauty_lab.budgets import Budget, current
from chabauty_lab.errors import BudgetExceededError, MalformedInputError
from chabauty_lab.words import free_group, iter_ball, parse_word


def test_defaults_are_frozen_and_sane():
    b = current()
    assert b.vertex_cap == 100_000
    assert b.ball_radius_cap == 12
    assert b.conjugator_len_cap == 12
    with pytest.raises(Exception):
        b.vertex_cap = 5  # frozen dataclass


def test_replace_returns_new_budget():
    b = current()
    b2 = b.replace(vertex_cap=17)
    assert b2.vertex_cap == 17
    assert b.vertex_cap == 100_000
    assert b2.ball_radius_cap == b.ball_radius_cap


def test_overrides_reject_unknown_keys():
    with pytest.raises(MalformedInputError):
        current({"no_such_cap": 3})


def test_as_dict_roundtrips():
    b = current({"u_len_cap": 4})
    d = b.as_dict()
    assert d["u_len_cap"] == 4
    assert Budget(**d) == b


def test_env_var_merges(monkeypatch):
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"ball_radius_cap": 5}')
    b = current()
    assert b.ball_radius_cap == 5
    assert b.vertex_cap == 100_000
    # explicit overrides beat the environment
    assert current({"ball_radius_cap": 7}).ball_radius_cap == 7


def test_env_var_must_be_json(monkeypatch):
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", "not json")
    with pytest.raises(MalformedInputError):
        current()


@pytest.mark.parametrize("value", [True, False, 0, -3, 2.5, "7", None])
def test_fields_must_be_positive_integers_not_bools(value):
    """JSON `true` is a Python bool, and so an int: it must not pass as 1."""
    with pytest.raises(MalformedInputError, match="positive integer"):
        current({"u_len_cap": value})


def test_env_var_rejects_bools(monkeypatch):
    monkeypatch.setenv("CHABAUTY_LAB_BUDGET", '{"vertex_cap": true}')
    with pytest.raises(MalformedInputError, match="positive integer"):
        current()



# ── every budget error names the field that bound the run ───────────────────

F2 = free_group(2)
_LATTICE = zdlattice.hnf_from_generators(2, [(2, 0)])


def _gens(*texts):
    return stallings.from_generators(F2, [parse_word(t) for t in texts])


_LATTICE_TARGET_DOC = {
    "context": {"kind": "free", "rank": 1},
    "hom": {"target": {"kind": "lattice", "param": 3}, "images": [[1, 0, 0]], "accepted": "zero"},
}

# site: (what it counts, the Budget field it answers to, a value small
# enough to bind, a call that raises there under that budget)
_RAISE_SITES = {
    "stallings fold": (
        "graph vertices", "vertex_cap", 2,
        lambda b: stallings.from_generators(F2, [(1, 1, 1, 2)], b),
    ),
    "stallings BFS numbering": (
        "graph vertices", "vertex_cap", 3,
        lambda b: stallings.intersect(_gens("a", "bab"), _gens("aa", "b", "abA"), b),
    ),
    "stallings completion": (
        "completion vertices", "vertex_cap", 3,
        lambda b: stallings.hall_completion(_gens("ab"), 3, b),
    ),
    "stallings completion check": (
        "graph vertices", "vertex_cap", 3,
        lambda b: stallings._traces_agree(_gens("aab"), _gens("aaab"), 8, b),
    ),
    "chabauty product search": (
        "graph vertices", "vertex_cap", 3,
        lambda b: chabauty.distance_up_to(_gens("aab"), _gens("aaab"), 8, b),
    ),
    "schreier ball": (
        "Schreier vertices", "schreier_vertex_cap", 3,
        lambda b: schreier.build(_gens("ab"), 3, b),
    ),
    "words ball": (
        "ball radius", "ball_radius_cap", 2,
        lambda b: list(iter_ball(2, 3, b)),
    ),
    "zdlattice ball": (
        "lattice ball points", "vertex_cap", 3,
        lambda b: zdlattice.members_in_ball(_LATTICE, 6, b),
    ),
    "zdlattice witness sequence": (
        "witness sequence length", "vertex_cap", 1,
        lambda b: zdlattice.witness_sequence(_LATTICE, 0, b),
    ),
    "zdlattice catalogue dimension": (
        "lattice dimension", "lattice_dim_cap", 2,
        lambda b: zdlattice.enumerate_by_index(3, 4, b),
    ),
    "zdlattice catalogue index": (
        "lattice index", "lattice_index_cap", 3,
        lambda b: zdlattice.enumerate_by_index(2, 4, b),
    ),
    "specio free rank": (
        "free rank (vertex_cap)", "vertex_cap", 2,
        lambda b: specio.context_from_json({"kind": "free", "rank": 3}, b),
    ),
    "stallings preimage lattice": (
        "preimage lattice entries", "vertex_cap", 5,
        lambda b: stallings.kernel(F2, stallings.Target("lattice", 1), [(1,), (0,)], b),
    ),
    "stallings preimage permutations": (
        "permutation products", "vertex_cap", 3,
        lambda b: stallings.preimage(F2, stallings.Target("permutation", 3), [(1, 0, 2), (0, 2, 1)],
                                     [(0, 1, 2), (1, 0, 2)], b),
    ),
    "specio lattice target": (
        "lattice target dimension (vertex_cap)", "vertex_cap", 2,
        lambda b: specio.subgroup_from_json(_LATTICE_TARGET_DOC, b),
    ),
    "dynamics witness candidates": (
        "nonisolation candidates", "witness_candidate_cap", 1,
        lambda b: dynamics.nonisolation_witness(_gens("ab"), 1, b),
    ),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_budget_errors_name_their_field(site, monkeypatch):
    """Each of the 16 raise sites names the field to enlarge: a key of
    Budget.as_dict(), and the one whose value is the error's limit. Every
    site but the candidate search, which counts nothing past its cap, says
    how far the run got, past the limit. The message starts with what was
    counted and the limit."""
    what, field, small, call = _RAISE_SITES[site]
    if site == "dynamics witness candidates":
        # every candidate refused, whichever route ranked it (the ordered
        # walk for the completions left as built, `basis_outside` for the
        # rest): each ⟨H, k⟩ has finite index, and the search runs out
        monkeypatch.setattr(dynamics, "join", lambda H, extra, budget: _gens("a", "b"))
    budget = Budget().replace(**{field: small})
    with pytest.raises(BudgetExceededError) as info:
        call(budget)
    exc = info.value
    assert exc.what == what
    assert exc.field == field and field in Budget().as_dict()
    assert exc.limit == small == getattr(budget, exc.field)
    assert str(exc).startswith(f"{exc.what}: limit {small}")
    assert (exc.reached is None) == (site == "dynamics witness candidates")
    if exc.reached is not None:
        assert exc.reached > exc.limit
        assert str(exc) == f"{exc.what}: limit {small}, reached {exc.reached}"
