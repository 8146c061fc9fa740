"""Figures 5-8 and 5-9: FIR scaling under frequency replacement.

Figure 5-8 sweeps the FIR length; multiplication removal should agree
with the lg(N)/N-style theoretical curve (approaching 100% for large N,
negative for tiny N).  Figure 5-9 sets the measured time per output
against the selector's cost-model prediction: the prediction is pinned
here, the measurement beside it is ``results/timing/``'s.
"""

from __future__ import annotations

from tables import fir_cost_model_rows, fir_scaling_rows


def test_fig_5_8():
    by_n = dict(fir_scaling_rows())
    # monotone trend: bigger filters benefit more (compare ends)
    assert by_n[128] > by_n[8]
    assert by_n[128] > 80.0  # large-N removal approaches 100%


def test_fig_5_9():
    """The predicted frequency/direct ratio falls as N grows."""
    ratios_model = [ratio for _, ratio in fir_cost_model_rows()]
    assert ratios_model[0] > ratios_model[-1]
