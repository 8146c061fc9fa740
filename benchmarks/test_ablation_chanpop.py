"""Ablation: the chanPop granularity knob in pipeline combination.

§3.3.2 notes that ``chanPop`` may be *any* common multiple of (u1, o2),
not just the lcm: when the downstream filter peeks (e2 > o2), the
expanded upstream node regenerates ``chanPeek - chanPop`` items per
firing, and growing chanPop shrinks that regenerated fraction.

The sweep quantifies what that means for the *collapsed* node: the
regeneration is absorbed into the matrix product, so multiplications per
output are invariant to chanPop (each output column is the same
composite kernel regardless of firing granularity), while matrix storage
(nnz) and peek depth grow linearly with the multiplier.  The lcm choice
is therefore optimal for the time-domain implementation — the
cost/benefit the paper's selector implicitly encodes by using it.
"""

from __future__ import annotations

import numpy as np

from tables import (CHANPOP_MULTIPLIERS as MULTIPLIERS, chanpop_combined,
                    chanpop_nodes, chanpop_rows)


def test_per_output_work_invariant_but_storage_grows():
    sweep = chanpop_rows()
    per_out = [row[4] for row in sweep]
    # collapsed per-output multiplications do not depend on chanPop
    assert max(per_out) - min(per_out) < 1e-9
    # ... but matrix size grows linearly with the multiplier
    nnz = [row[3] for row in sweep]
    assert nnz[-1] == nnz[0] * MULTIPLIERS[-1]
    peeks = [row[1] for row in sweep]
    assert peeks == sorted(peeks) and peeks[-1] > peeks[0]


def test_all_granularities_equivalent():
    n1, n2 = chanpop_nodes()
    rng = np.random.default_rng(9)
    inputs = rng.normal(size=200)
    mid = n1.reference_run(inputs, firings=180)
    expected = n2.reference_run(mid, firings=60)
    for k in MULTIPLIERS:
        combined = chanpop_combined(k)
        firings = 60 * n2.pop // combined.pop
        got = combined.reference_run(inputs, firings=max(firings, 1))
        m = min(len(got), len(expected))
        np.testing.assert_allclose(got[:m], expected[:m], atol=1e-9,
                                   err_msg=f"k={k}")
