"""Figure 5-2: elimination of floating point *multiplications* by maximal
linear replacement, maximal frequency replacement, and automatic
selection — the same runs as Figure 5-1, multiply-family view."""

from __future__ import annotations

import pytest

from tables import removal_rows


@pytest.fixture(scope="module")
def rows():
    return removal_rows("mults_per_output")


def test_fig_5_2(rows):
    by_name = {r[0]: r for r in rows}
    assert by_name["average"][3] > 50.0


def test_mults_removed_in_roughly_same_proportion_as_flops(rows):
    """§5.2: 'multiplies are removed in roughly the same proportion' as
    FLOPs — check autosel columns track within 35 points."""
    flops = {r[0]: r[3] for r in removal_rows("flops_per_output")}
    for row in rows[:-1]:
        assert abs(row[3] - flops[row[0]]) < 35.0, row
