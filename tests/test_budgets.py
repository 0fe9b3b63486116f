"""Budget plumbing: defaults, overrides, and the environment hook."""

import pytest

from chabauty_lab.budgets import Budget, current
from chabauty_lab.errors import MalformedInputError


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
