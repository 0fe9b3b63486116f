"""Resource budgets.

All potentially-unbounded operations take an explicit budget; the defaults
below keep every documented example comfortably inside desk-scale time and
memory. The environment variable ``CHABAUTY_LAB_BUDGET`` may hold a JSON
object overriding individual fields, e.g.::

    CHABAUTY_LAB_BUDGET='{"vertex_cap": 200000, "ball_radius_cap": 10}'

Budgets are data, not policy: hitting a cap raises
:class:`~chabauty_lab.errors.BudgetExceededError` (exit code 3 in the CLI),
which is always distinguished from a verified negative result.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os

from .errors import BudgetExceededError, MalformedInputError


@dataclasses.dataclass(frozen=True)
class Budget:
    # Stallings graph construction (folding, completions, pullbacks), the rank
    # of a free context, and the product states of every free-group distance,
    # checked after each level whatever the radius and subgroup kinds.
    vertex_cap: int = 100_000
    # Word-ball enumeration cap for free groups (the ball at radius 12 in F_2
    # already holds ~1.06 million words). Distances do not read it.
    ball_radius_cap: int = 12
    # Schreier ball construction.
    schreier_vertex_cap: int = 200_000
    # Transitivity search grid: conjugators w = u^n with |u| <= u_len_cap,
    # 1 <= n <= exponent_cap, |w| <= conjugator_len_cap.
    u_len_cap: int = 5
    exponent_cap: int = 6
    conjugator_len_cap: int = 12
    # Nonisolation witness search: candidates per term before enlarging the
    # completion radius, and how many radius enlargements to attempt.
    witness_candidate_cap: int = 20
    witness_radius_slack: int = 4
    # Z^d enumeration guards.
    lattice_dim_cap: int = 4
    lattice_index_cap: int = 200

    def exceeded(self, field: str, what: str, reached=None) -> BudgetExceededError:
        """The error for a run that `field` bound, its limit read from the
        field: `what` was counted, up to `reached` where that is known."""
        return BudgetExceededError(what, getattr(self, field), reached, field=field)

    def replace(self, **kw) -> "Budget":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name for f in dataclasses.fields(Budget)}
_ENV_VAR = "CHABAUTY_LAB_BUDGET"


def current(overrides: dict | None = None) -> Budget:
    """Default budget, merged with the env var and then explicit overrides."""
    values = {}
    raw = os.environ.get(_ENV_VAR)
    if raw:
        env_values, _ = decode_json(raw, _ENV_VAR)
        if not isinstance(env_values, dict):
            raise MalformedInputError(f"{_ENV_VAR} must hold a JSON object")
        values.update(env_values)
    if overrides:
        values.update(overrides)
    unknown = set(values) - _FIELDS
    if unknown:
        raise MalformedInputError(f"unknown budget fields: {sorted(unknown)}")
    for key, val in values.items():
        if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
            raise MalformedInputError(f"budget field {key!r} must be a positive integer")
    return Budget(**values)


def decode_json(data: str | bytes, source: str) -> tuple:
    """(value, text) of a JSON document, bytes read as a text-mode read reads
    UTF-8. Bad UTF-8 or syntax, nesting deeper than the parser recurses and
    integers past Python's digit limit all raise MalformedInputError."""
    try:
        if isinstance(data, bytes):
            data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        return json.loads(data), data
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"{source} is not valid JSON: {exc}") from exc
