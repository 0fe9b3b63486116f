"""Desk-scale computations in the Chabauty space of a countable group.

The package works with three concrete families of ambient groups:

* free groups ``F_r``, where subgroups are represented by folded core
  graphs (:mod:`chabauty_lab.stallings`),
* the lattices ``Z^d``, where subgroups are integer row spans in Hermite
  normal form (:mod:`chabauty_lab.zdlattice`),
* subgroups defined as preimages under homomorphisms out of a free group
  (:func:`chabauty_lab.stallings.preimage`), in one form whatever
  described them: at finite index the covering of the rose, a core graph
  like any other; a lattice preimage of infinite index is ab⁻¹(L) for its
  sublattice L of Z^r (:class:`chabauty_lab.stallings.HomSubgroup`).

On top of those representations sit the Chabauty-topology primitives
(finite traces, clopen sets, distance bounds, convergence certificates in
:mod:`chabauty_lab.chabauty`), coset-geometry tools
(:mod:`chabauty_lab.schreier`), and the dynamical experiments
(:mod:`chabauty_lab.dynamics`).  :mod:`chabauty_lab.cli` exposes all of it
as a deterministic command-line tool.
"""

from .budgets import Budget, current
from .errors import (
    BudgetExceededError,
    ChabautyLabError,
    ContextMismatchError,
    MalformedInputError,
    SearchFailure,
    TaskInvalidError,
)
from .words import GroupContext, free_group, lattice

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "ChabautyLabError",
    "ContextMismatchError",
    "GroupContext",
    "MalformedInputError",
    "SearchFailure",
    "TaskInvalidError",
    "current",
    "free_group",
    "lattice",
    "__version__",
]
