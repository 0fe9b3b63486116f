"""The standing acceptance battery, one test per criterion.

Each criterion is an end-to-end experiment with its own internal oracles
(clean-room reimplementations, closed-form counts, dual-route checks); a
criterion object reports pass/fail plus a one-line summary. The battery is
deterministic — every sampler is seeded — so these tests are stable.

Run with ``-v`` to see one line per criterion; each test also prints the
battery's own ``criterion NN [PASS] …`` line. The battery takes minutes, so
its tests carry the ``slow`` marker: ``pytest -m "not slow"`` leaves it out.
"""

import pytest

from chabauty_lab import acceptance

pytestmark = pytest.mark.slow

_RESULTS = {}


def _battery():
    if not _RESULTS:
        for r in acceptance.run_all():
            _RESULTS[r.number] = r
    return _RESULTS


@pytest.mark.parametrize("number", sorted(acceptance._CRITERIA))
def test_criterion(number):
    r = _battery()[number]
    print(r.line())
    assert r.passed, r.line()
