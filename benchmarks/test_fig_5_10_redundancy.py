"""Figure 5-10 (top): redundancy elimination on the FIR benchmark as a
function of size.

Multiplications remaining (%) — about half for the symmetric low-pass
kernel, with the even/odd zig-zag (odd sizes keep the center tap).  The
bottom graph (speedup: small or negative, because the caching overhead
outweighs the removed multiplications, §5.6) is a timing and lives in
``results/timing/``.
"""

from __future__ import annotations

import pytest

from tables import redundancy_rows


@pytest.fixture(scope="module")
def by_n():
    return {n: mults for n, mults, _ in redundancy_rows()}


def test_fig_5_10(by_n):
    # roughly half the multiplications remain for symmetric kernels
    assert 40.0 < by_n[32] < 75.0


def test_zigzag_shape(by_n):
    """Odd sizes retain the center tap: N odd leaves more mults than
    N+1 even (per-firing), §5.6's saw-tooth."""
    for odd, even in ((7, 8), (9, 10), (11, 12)):
        mults_odd = by_n[odd] * odd  # % x taps ~ absolute per firing
        mults_even = by_n[even] * even
        # absolute remaining mults: N odd -> (N+1)/2 + ceil, N even -> N/2
        assert mults_even <= mults_odd + 1e-6 * mults_odd + 100.0


def test_overhead_can_outweigh_savings():
    """§5.6: caching halves multiplications, yet the program does not get
    correspondingly faster.  The substrate-independent cause:
    multiplications are half the arithmetic and every addition stays
    (the cache upkeep is not arithmetic at all), so the ~40 % of
    multiplications removed is under 30 % of the FLOPs at every size."""
    assert all(flops > 70.0 for _, _, flops in redundancy_rows())
