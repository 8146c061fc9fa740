"""Table 5.2: benchmark characteristics before and after autosel.

Both halves of the table — construct counts (with how many of each are
linear) and the average combined-vector size before optimization, then
the construct counts of the automatically optimized programs — are
pinned in ``results/table_5_2.txt``.
"""

from __future__ import annotations

from tables import BENCH_NAMES, characteristics


def test_autosel_reduces_construct_count():
    """After optimization every benchmark has at most as many filters."""
    for name in BENCH_NAMES:
        before, after = characteristics(name)
        assert after["filters"] <= before["filters"]
