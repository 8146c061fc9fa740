"""Measured vs analytic cost-model decisions (thesis §5's ATLAS argument).

The selection DP prices the frequency-vs-linear choice with an analytic
FFT throughput penalty (:data:`~repro.selection.costs
.FFT_THROUGHPUT_PENALTY`, 2.0x) unless a calibration cache measured the
real fft/matmul ns-per-flop ratio of this machine
(:mod:`repro.exec.calibrate`).  This module calibrates into a throwaway
cache directory and reports, side by side, the penalty and the resulting
DP decision under the analytic model and under the measured one — plus
the measured stateful scan block length against the fixed 128 cap.

The table lands in ``results/calibration.txt``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from conftest import once, report
from repro.bench import format_table
from repro.exec import calibrate as C
from repro.exec.kernels import stateful_block_length
from repro.frequency.fftlib import fft_size_for
from repro.linear.node import LinearNode
from repro.numeric import POLICIES
from repro.selection.costs import (FFT_THROUGHPUT_PENALTY,
                                   batched_direct_cost,
                                   batched_frequency_cost,
                                   frequency_block_flops)

#: FIR depths spanning the matmul/FFT crossover region.
TAPS = (16, 64, 256, 1024)

POLICY_NAMES = ("f64", "f32")


def _fir_node(taps: int) -> LinearNode:
    return LinearNode(A=np.full((taps, 1), 1.0 / taps), b=np.zeros(1),
                      peek=taps, pop=1, push=1)


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    """A real calibration measured into a throwaway cache directory."""
    prev = os.environ.get("REPRO_CALIBRATION_DIR")
    os.environ["REPRO_CALIBRATION_DIR"] = \
        str(tmp_path_factory.mktemp("calib"))
    C.reset_calibration_cache()
    try:
        cal, measured = C.ensure_calibration(dtypes=POLICY_NAMES)
        yield cal, measured
    finally:
        if prev is None:
            os.environ.pop("REPRO_CALIBRATION_DIR", None)
        else:
            os.environ["REPRO_CALIBRATION_DIR"] = prev
        C.reset_calibration_cache()


def _decision(node: LinearNode, policy) -> str:
    freq = batched_frequency_cost(node, policy=policy)
    direct = batched_direct_cost(node)
    return "freq" if freq < direct else "linear"


def test_calibration_decision_table(benchmark, calibration):
    once(benchmark)
    cal, measured = calibration
    assert set(measured) == set(POLICY_NAMES)
    rows = []
    for name in POLICY_NAMES:
        policy = POLICIES[name]
        for taps in TAPS:
            node = _fir_node(taps)
            n = fft_size_for(taps)
            ratio = cal.fft_matmul_ratio(name, peek=taps, fft_size=n)
            assert ratio is not None and ratio > 0
            with C.analytic_only():
                d_analytic = _decision(node, policy)
            d_measured = _decision(node, policy)
            rows.append([name, taps, n, FFT_THROUGHPUT_PENALTY,
                         round(ratio, 3), d_analytic, d_measured])
    decisions = format_table(
        "Selection DP: FFT-vs-matmul penalty and the resulting decision\n"
        "(analytic = modeled 2.0x constant; measured = this machine's "
        "calibrated\nfft/matmul ns-per-flop ratio)",
        ["dtype", "taps", "fft n", "penalty (a)", "penalty (m)",
         "decision (a)", "decision (m)"],
        rows, width=14)

    blocks = []
    for name in POLICY_NAMES:
        policy = POLICIES[name]
        with C.analytic_only():
            fixed = stateful_block_length(1, 1, policy)
        calibrated = stateful_block_length(1, 1, policy)
        # pop=push=1 makes the block equal the cap itself, so the
        # calibrated call must return exactly the measured block
        assert fixed == 64
        assert calibrated == cal.stateful_block[name]
        blocks.append([name, fixed, calibrated])
    block_table = format_table(
        "Lifted stateful block length (pop=1, push=1)",
        ["dtype", "fixed cap", "calibrated"], blocks, width=14)

    report("calibration", decisions + "\n\n" + block_table)
    assert len(rows) == len(POLICY_NAMES) * len(TAPS)


def test_measured_penalty_feeds_the_cost_model(benchmark, calibration):
    """The cost function must consume the measured ratio verbatim: with
    the calibration active, the frequency cost differs from the analytic
    one exactly by the penalty substitution."""
    once(benchmark)
    cal, _ = calibration
    node = _fir_node(256)
    n = fft_size_for(256)
    for name in POLICY_NAMES:
        policy = POLICIES[name]
        ratio = cal.fft_matmul_ratio(name, peek=256, fft_size=n)
        with C.analytic_only():
            analytic = batched_frequency_cost(node, policy=policy)
        measured = batched_frequency_cost(node, policy=policy)
        if abs(ratio - FFT_THROUGHPUT_PENALTY) > 1e-9:
            assert measured != analytic, name
        # reconstruct: the two costs differ exactly by the penalty
        # substitution on the per-input FFT-block term (pop = 1)
        per_input = frequency_block_flops(node.peek, node.push, n)
        assert np.isclose(measured - analytic,
                          per_input * (ratio - FFT_THROUGHPUT_PENALTY))
