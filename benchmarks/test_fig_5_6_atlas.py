"""Figure 5-6: linear replacement with an ATLAS-style BLAS matrix multiply
vs the direct (zero-skipping) generated code.

Our ATLAS stand-in is numpy's BLAS-backed dense dot.  The figure itself
is a timing (``results/timing/fig_5_6_atlas.txt``); what holds on any
machine is that both backends compute the same thing.
"""

from __future__ import annotations

import numpy as np

from repro.bench import build_config
from repro.runtime import run_graph
from tables import build


def test_blas_equivalent_outputs():
    for name in ("FilterBank", "Oversampler"):
        a = run_graph(build_config(build(name), "linear"), 64)
        b = run_graph(build_config(build(name), "linear_blas"), 64)
        np.testing.assert_allclose(a, b, atol=1e-8)
