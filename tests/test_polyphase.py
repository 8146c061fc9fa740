"""Polyphase frequency replacement: a decimating linear region as one
FFT step, at its own pop rate, with no decimator.

A node ``{A, b, e, o, u}`` under ``optimize="freq"`` (and ``auto``'s
batched DP) becomes one :class:`~repro.frequency.filters.
OptimizedFreqFilter` of ``o`` phases of ``ceil(e/o)`` taps.  The cases
are random nodes with ``o`` in {2, 3, 5} and ``o < e <= 2o``,
``e % o != 0`` — two taps a phase, the last one zero-padded, the
smallest region polyphase takes — plus two wider ones.  Held against
the node's own :meth:`~repro.linear.node.LinearNode.reference_run`, the
three backends against each other (values at 1e-9, FLOPs exact), push
chunkings and snapshot/restore against one push, and the dtype
policies at their tolerances.  The paper's Transformation 6 + decimator
is ``tests/test_frequency.py``'s; at ``o = 1`` polyphase *is* it, bit
for bit (the last test here).
"""

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS
from repro.bench import build_config
from repro.errors import StreamGraphError
from repro.frequency import OptimizedFreqFilter, make_frequency_stream
from repro.graph.streams import Pipeline
from repro.linear import LinearFilter, LinearNode
from repro.numeric import POLICIES
from repro.profiling import Profiler
from repro.runtime import run_graph
from repro.selection.costs import frequency_block_flops


def _cases():
    rng = np.random.default_rng(2028)
    cases = []
    for o in (2, 3, 5):
        drawn: list = []
        while len(drawn) < 3:
            e = int(rng.choice([e for e in range(o + 1, 2 * o + 1)
                                if e % o]))
            case = (e, o, int(rng.integers(1, 5)), bool(rng.integers(0, 2)))
            if case not in drawn:
                drawn.append(case)
        cases += drawn
    return cases + [(31, 3, 3, True), (64, 5, 2, False)]


CASES = _cases()
IDS = [f"e{e}-o{o}-u{u}-{'b' if b else 'nob'}" for e, o, u, b in CASES]


def region(e, o, u, with_b, seed=0) -> LinearNode:
    rng = np.random.default_rng(seed + 97 * e + 13 * o + u)
    b = rng.normal(size=u) if with_b else np.zeros(u)
    return LinearNode(rng.normal(size=(e, u)), b, e, o, u)


def session(node, backend="plan", dtype=None):
    body = Pipeline([LinearFilter(node, name="Region")], name="Body")
    return repro.compile(body, backend=backend, optimize="freq",
                         profiler=Profiler(), dtype=dtype)


def inputs(n=2000, seed=1):
    return np.random.default_rng(seed).normal(size=n)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_freq_runs_one_polyphase_step(case):
    e, o, u, with_b = case
    s = session(region(*case))
    rows = {r.step_kind: r.reason for r in s.report().steps}
    assert "decimator" not in rows
    n_fft = s._executor.flat.nodes[1].stream.n
    assert rows["freq-opt"] == f"N={n_fft}, {o} phases"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_backends_agree_with_exact_flops(case):
    node = region(*case)
    x = inputs()
    runs = {}
    for backend in ("interp", "compiled", "plan"):
        s = session(node, backend)
        runs[backend] = (s.push(x), s.profile.counts)
    out, counts = runs["plan"]
    assert len(out) > 0 and len(out) % node.push == 0
    reference = node.reference_run(x, firings=len(out) // node.push)
    np.testing.assert_allclose(out, reference, rtol=0, atol=1e-9)
    for backend in ("interp", "compiled"):
        np.testing.assert_allclose(runs[backend][0], out, rtol=0, atol=1e-9)
        assert runs[backend][1] == counts, backend


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", CASES[::3] + CASES[-2:],
                         ids=IDS[::3] + IDS[-2:])
def test_random_chunkings_match_one_push(case, seed):
    node = region(*case)
    x = inputs(1500, seed)
    whole = session(node)
    expected = whole.push(x)
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, len(x)), size=9, replace=False))
    chunked = session(node)
    got = np.concatenate([chunked.push(c) for c in np.split(x, cuts)])
    np.testing.assert_array_equal(got, expected)
    assert chunked.profile.counts == whole.profile.counts


@pytest.mark.parametrize("case", CASES[-3:], ids=IDS[-3:])
def test_snapshot_restore_mid_stream(case):
    s = session(region(*case))
    x = inputs(3000)
    s.push(x[:1111])
    snap = s.snapshot()
    later = s.push(x[1111:2500])
    counts = s.profile.counts.copy()
    s.restore(snap)
    np.testing.assert_array_equal(s.push(x[1111:2500]), later)
    assert s.profile.counts == counts


@pytest.mark.parametrize("dtype", ["f32", "c64", "c128"])
@pytest.mark.parametrize("case", CASES[-3:], ids=IDS[-3:])
def test_policies_match_the_f64_reference(case, dtype):
    policy = POLICIES[dtype]
    node = region(*case)
    x = inputs()
    s = session(node, dtype=dtype)
    out = s.push(x)
    assert out.dtype == policy.dtype
    assert s.report().steps[1].reason.endswith(f"{node.pop} phases")
    reference = node.reference_run(x, firings=len(out) // node.push)
    np.testing.assert_allclose(out, reference.astype(policy.dtype),
                               rtol=policy.rtol, atol=policy.atol)


def test_complex_samples_track_across_precisions():
    node = region(31, 3, 3, True)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1200) + 1j * rng.standard_normal(1200)
    narrow, wide = session(node, dtype="c64"), session(node, dtype="c128")
    policy = POLICIES["c64"]
    np.testing.assert_allclose(narrow.push(x), wide.push(x),
                               rtol=policy.rtol, atol=policy.atol)


@pytest.mark.parametrize("case", CASES[-2:], ids=IDS[-2:])
def test_batched_price_is_the_counted_block(case):
    """The DP's polyphase price per firing, times a block's ``r``
    firings, is the FLOPs the step counts for a steady block (every
    offset nonzero: the price assumes one add per output)."""
    e, o, u, _ = case
    filt = make_frequency_stream(region(e, o, u, True), strategy="polyphase")
    assert isinstance(filt, OptimizedFreqFilter) and filt.phases == o
    steady = (filt.kernel.counts_per_block.flops
              + u * filt.r + u * (filt.e - 1))
    assert frequency_block_flops(filt.e, u, filt.n, o) * filt.r \
        == pytest.approx(steady, rel=1e-12)


def test_single_tap_phases_stay_a_matmul():
    node = region(3, 3, 2, True)  # 3 phases of 1 tap
    with pytest.raises(StreamGraphError, match="fewer than 2 taps"):
        make_frequency_stream(node, strategy="polyphase")
    kinds = [r.step_kind for r in session(node).report().steps]
    assert kinds == ["chunk-source", "matmul", "collector"]


@pytest.mark.parametrize("name", ["FIR", "TargetDetect"])
def test_pop_one_is_transformation_six_bit_for_bit(name):
    """At ``o = 1`` polyphase is the paper's Transformation 6 — the
    unchanged path of ``build_config(..., "freq")`` — bit for bit, at
    the same FLOPs."""
    got, want = Profiler(), Profiler()
    a = run_graph(BENCHMARKS[name](), 3000, got, backend="plan",
                  optimize="freq")
    b = run_graph(build_config(BENCHMARKS[name](), "freq"), 3000, want,
                  backend="plan")
    np.testing.assert_array_equal(a, b)
    assert got.counts == want.counts
