"""Figure 5-4 (left): the effect of combination on multiplication removal.

Linear and frequency replacement with combination enabled vs disabled
("(nc)").  Expected shapes (§5.3): combination provides most of the
multiplication reduction for linear replacement; frequency replacement
already reduces a lot without combination, and combination improves it
further; FIR (a single filter) shows no difference.  The speedup half
(5-4 right, 5-5) is ``render.py``'s.
"""

from __future__ import annotations

import pytest

from tables import combination_rows


@pytest.fixture(scope="module")
def by_name():
    return {r[0]: r for r in combination_rows()}


def test_fig_5_4(by_name):
    # combination drives most of linear replacement's mult removal on the
    # heavily combinable benchmarks
    for name in ("FMRadio", "FilterBank", "Oversampler"):
        assert by_name[name][2] > by_name[name][1] + 10.0, by_name[name]


def test_fig_5_5(by_name):
    # FIR is a single filter: combination cannot change anything (§5.3)
    fir_mults = by_name["FIR"]
    assert abs(fir_mults[2] - fir_mults[1]) < 1e-6
    assert abs(fir_mults[4] - fir_mults[3]) < 1e-6
