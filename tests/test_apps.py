"""Integration tests: every benchmark builds, schedules, runs, and
optimizes equivalently under all three configurations (§5.2)."""

import numpy as np
import pytest

from repro.apps import BENCHMARKS, fir, fmradio, radar, vocoder
from repro.frequency import maximal_frequency_replacement
from repro.graph import construct_counts, leaf_filters, steady_state
from repro.linear import analyze, maximal_linear_replacement
from repro.runtime import run_graph
from repro.selection import select_optimizations

# smaller-than-paper parameters keep the equivalence tests quick; the
# benchmark harness uses the paper's sizes.
SMALL_PARAMS = {
    "FIR": dict(taps=32),
    "RateConvert": dict(taps=48),
    "TargetDetect": dict(n=24),
    "FMRadio": dict(bands=4, taps=16),
    "Radar": dict(channels=4, beams=2, fir1_taps=4, fir2_taps=2, mf_taps=4),
    "FilterBank": dict(m=3, taps=12),
    "Vocoder": dict(window=16, decimation=8, n_filters=3, taps=12),
    "Oversampler": dict(stages=3, taps=16),
    "DToA": dict(stages=2, taps=12, out_taps=24),
    "Echo": dict(delay=24, gain=0.5, taps=16),
    "VocoderEcho": dict(window=16, decimation=8, n_filters=3, taps=12,
                        echo_delay=16),
    "IIR": dict(),
}

N_OUT = {name: 32 for name in SMALL_PARAMS}
N_OUT["Radar"] = 16


def small(name):
    return BENCHMARKS[name](**SMALL_PARAMS[name])


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_builds_with_a_steady_state(name):
    program = small(name)
    ss = steady_state(program)
    # void->void top level: consumes and produces nothing externally
    assert ss.push == 0 and ss.pop == 0
    assert all(m >= 1 for m in ss.mult.values())
    counts = construct_counts(program)
    assert counts["filters"] >= 3


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_runs_and_produces_finite_output(name):
    out = run_graph(small(name), N_OUT[name])
    assert len(out) == N_OUT[name]
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_linear_replacement_equivalence(name):
    program = small(name)
    baseline = run_graph(program, N_OUT[name])
    optimized = maximal_linear_replacement(small(name))
    got = run_graph(optimized, N_OUT[name])
    np.testing.assert_allclose(got, baseline, atol=1e-8)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_frequency_replacement_equivalence(name):
    program = small(name)
    baseline = run_graph(program, N_OUT[name])
    optimized = maximal_frequency_replacement(small(name))
    got = run_graph(optimized, N_OUT[name])
    np.testing.assert_allclose(got, baseline, atol=1e-7)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_autosel_equivalence(name):
    program = small(name)
    baseline = run_graph(program, N_OUT[name])
    optimized = select_optimizations(small(name)).stream
    got = run_graph(optimized, N_OUT[name])
    np.testing.assert_allclose(got, baseline, atol=1e-7)


def test_linearity_profile_matches_paper_structure():
    """Spot-check which filters the analysis labels linear (Table 5.2)."""
    program = small("FMRadio")
    lmap = analyze(program)
    by_name = {f.name: lmap.is_linear(f) for f in leaf_filters(program)}
    assert by_name["FMDemodulator"] is False
    assert by_name["FloatOneSource"] is False
    assert by_name["FrontLowPass"] is True
    assert by_name["FloatDiff"] is True

    vc = small("Vocoder")
    lmap = analyze(vc)
    by_name = {f.name: lmap.is_linear(f) for f in leaf_filters(vc)}
    assert by_name["CorrPeak"] is False
    assert by_name["CenterClip"] is False
    assert by_name["LowPassFilter"] is True

    rd = small("Radar")
    lmap = analyze(rd)
    linear_names = [f.name for f in leaf_filters(rd) if lmap.is_linear(f)]
    assert any(n.startswith("Beamform") for n in linear_names)
    assert any(n.startswith("BeamFir") for n in linear_names)
    assert not any(n.startswith("InputGenerate") for n in linear_names)
    assert not any(n == "Magnitude" for n in linear_names)


def test_fir_default_is_256_taps():
    program = fir.build()
    lp = [f for f in leaf_filters(program)
          if f.name == "LowPassFilter"][0]
    assert lp.peek == 256


def test_radar_beamform_rates_match_paper():
    """'Beamform pushes 2 items, but pops and peeks 24' (§5.2)."""
    program = radar.build()
    bf = [f for f in leaf_filters(program) if f.name == "Beamform0"][0]
    assert (bf.peek, bf.pop, bf.push) == (24, 24, 2)


def test_fmradio_equalizer_fully_linear():
    """The equalizer subgraph collapses to a single linear node."""
    eq = fmradio.equalizer(fmradio.SAMPLING_RATE, bands=4, taps=8)
    lmap = analyze(eq)
    assert lmap.is_linear(eq)
    node = lmap.node_for(eq)
    assert node.push == 1  # bands differenced and summed to one output
