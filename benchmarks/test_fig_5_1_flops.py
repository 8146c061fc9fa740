"""Figure 5-1: elimination of floating point operations by maximal linear
replacement, maximal frequency replacement, and automatic selection.

The paper reports % of FLOPs removed relative to the original program;
the expected shape: large removals everywhere except Radar, where linear
and freq *add* FLOPs and only autosel removes them.
"""

from __future__ import annotations

import pytest

from tables import BENCH_NAMES, removal_rows


@pytest.fixture(scope="module")
def rows():
    return removal_rows("flops_per_output")


def test_fig_5_1(rows):
    by_name = {r[0]: r for r in rows}
    # headline claim: autosel removes a large share of FLOPs on average
    assert by_name["average"][3] > 50.0
    # autosel never does worse than doing nothing
    for name in BENCH_NAMES:
        assert by_name[name][3] >= -1e-6


def test_autosel_at_least_as_good_as_pure_strategies(rows):
    """§5.2: 'Automatic selection always performs at least as well as the
    other two options' (FLOPs view, small tolerance for measurement)."""
    for row in rows[:-1]:
        assert row[3] >= max(row[1], row[2]) - 2.0, row


def test_radar_degrades_without_selection(rows):
    """§5.2: linear/freq hurt Radar; autosel still removes FLOPs."""
    radar = next(r for r in rows if r[0] == "Radar")
    assert radar[1] < radar[3]
    assert radar[2] < 0  # frequency replacement adds FLOPs on Radar
    assert radar[3] > 0
