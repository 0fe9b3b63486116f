"""Error taxonomy shared across the laboratory.

Every failure mode maps onto one of four families so that callers (and the
command line tool) can translate outcomes into exit codes uniformly:

* malformed input / context mismatch  -> exit 2
* resource budget exhausted           -> exit 3
* verified negative result            -> exit 4 (not an exception per se; the
  solvers return structured failure objects, and the one search that can
  only report by raising, the transitivity move, raises `SearchFailure`,
  which its callers turn into a report)
"""


class ChabautyLabError(Exception):
    """Base class for all library errors."""


class MalformedInputError(ChabautyLabError):
    """Unparseable word/vector/JSON, or a value violating a documented precondition."""


class ContextMismatchError(ChabautyLabError):
    """Two objects from different ambient groups were combined."""


class BudgetExceededError(ChabautyLabError):
    """A vertex/length/enumeration cap was hit before the computation finished.

    Carries what was counted, the limit, the offending size where known (so
    reports can show how far the computation got) and `field`, the name of
    the :class:`~chabauty_lab.budgets.Budget` field that bound the run: the
    one to enlarge. The message names only `what`, `limit` and `reached`.
    """

    def __init__(self, what: str, limit, reached=None, field: str | None = None):
        self.what = what
        self.limit = limit
        self.reached = reached
        self.field = field
        detail = f"{what}: limit {limit}"
        if reached is not None:
            detail += f", reached {reached}"
        super().__init__(detail)


class TaskInvalidError(MalformedInputError):
    """A transitivity task failed validation (empty clopen set, witness not in
    its set, or finite-index witness)."""


class SearchFailure(ChabautyLabError):
    """A complete, budgeted search ended with every candidate refuted.

    This is a *verified* failure: `progress` records the budgets used and the
    deepest partial progress (how many checks the best candidate passed), so
    the outcome is reproducible evidence, not a timeout.
    """

    def __init__(self, message: str, progress: dict):
        self.progress = progress
        super().__init__(message)
