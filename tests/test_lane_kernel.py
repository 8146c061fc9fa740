"""The lane kernel: ``n`` firings of a stateless non-linear filter or a
counter-driven source as one NumPy evaluation.

Every check is differential against the scalar runner the lanes stand
in for — a real :class:`FallbackStep` over the same rings: values
bitwise where the body is arithmetic, comparisons and ``sqrt`` (all
correctly rounded in both), at the policy tolerance where it calls
libm, and ``Counts`` equal field by field.
"""

import random
import re
from unittest import mock

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import BENCHMARKS
from repro.apps._loader import load_unit
from repro.dsl import fuzz
from repro.errors import FaultInjected
from repro.exec import clear_plan_cache, kernels as K
from repro.exec import plan_report, planner
from repro.graph import Pipeline
from repro.ir.pycodegen import LaneReject, emit_lanes
from repro.numeric import resolve_policy
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import run_graph
from repro.runtime.executor import _IRRunner

MIN = K.LANE_MIN_FIRINGS

#: name -> (builder, bitwise?) for every app filter that runs as lanes
APP_FILTERS = {
    "InputGenerate": (lambda: load_unit("radar", "InputGenerate", 3), False),
    "Magnitude": (lambda: load_unit("radar", "Magnitude"), True),
    "Detector": (lambda: load_unit("radar", "Detector", 0.5), True),
    "CenterClip": (lambda: load_unit(("common", "echo", "vocoder"),
                                     "CenterClip", -0.75, 0.75), True),
    "CorrPeak": (lambda: load_unit(("common", "echo", "vocoder"),
                                   "CorrPeak", 12, 5, 0.07), True),
    "ThresholdDetector": (lambda: load_unit(
        ("common", "targetdetect"), "ThresholdDetector", 2.0, 0.3), True),
    "FloatOneSource": (lambda: load_unit(("common", "fmradio"),
                                         "FloatOneSource"), True),
    "FMDemodulator": (lambda: load_unit(
        ("common", "fmradio"), "FMDemodulator", 2e5, 27e3, 1e4), False),
    "SampledSource": (lambda: load_unit("common", "SampledSource", 0.3),
                      False),
    "FilterBankSource": (lambda: load_unit(("common", "filterbank"),
                                           "DataSource"), False),
}

EXTRA = """
/* arms with unequal FLOPs, nested, merging two locals and a push */
float->float filter Uneven(float t) {
    work peek 2 pop 2 push 2 {
        float a = pop();
        float b = pop();
        float y = 0.0;
        if (a > t) {
            y = a * b + a / (b * b + 1.0) - t;
            if (b < 0.0) {
                y = y - b;
                a = -a;
            }
            push(y * a);
        } else {
            push(b);
        }
        push(y + a);
    }
}

/* pure arithmetic: defined on complex samples too */
float->float filter Poly(float g) {
    work peek 3 pop 2 push 1 {
        push(g * peek(0) * peek(2) + peek(1) / 4.0 - pop());
        pop();
    }
}

/* two counters, one read after its update, one counting down */
void->float filter TwoCounters(float step) {
    float x;
    int n;
    work push 2 {
        x = x + step;
        push(x * 0.5 - n);
        push(n > -7);
        n = n - 3;
    }
}

/* the else arm divides by zero on the lanes that never take it */
float->float filter Reciprocal {
    work peek 1 pop 1 push 1 {
        float x = pop();
        if (x != 0.0) {
            push(1.0 / x);
        } else {
            push(0.0);
        }
    }
}

float->float filter Primed {
    prework push 1 {
        push(-1.0);
    }
    work peek 3 pop 1 push 1 {
        float s = peek(0) * peek(2);
        if (s > 0.0) { push(s); } else { push(peek(1)); }
        pop();
    }
}
"""


def fuzz_shape(variant: int):
    gen = fuzz._Gen(random.Random(variant), 3)
    name, _, _ = gen._nonlinear(variant)
    return repro.dsl.load_source(gen.decls[-1], name)


def step_pair(build, dtype="f64"):
    """``(lanes, scalar)``: the filter's :class:`LaneStep` out of a fresh
    session and, out of a second one, the :class:`FallbackStep` it
    replaced — each with its own rings, runner and profiler."""
    pair = []
    for scalar in (False, True):
        s = repro.compile(Pipeline([build()]), dtype=dtype,
                          profiler=Profiler())
        (step,) = [st for st in s._executor.steps
                   if isinstance(st, K.LaneStep)]
        if scalar:
            step = K.FallbackStep(step.node, step.ring_in, step.ring_out)
        pair.append((step, s))
    return pair


def feed(step, n, rng, dtype="f64"):
    wf = step.node.stream.work
    if wf.peek:
        data = rng.standard_normal((n - 1) * wf.pop + wf.peek)
        if resolve_policy(dtype).is_complex:
            data = data + 1j * rng.standard_normal(len(data))
        # leave exactly the window: peek > pop keeps a tail behind
        step.ring_in.pop_block(len(step.ring_in))
        step.ring_in.push_block(data)


def drain(step):
    return step.ring_out.pop_block_array(len(step.ring_out))


def assert_same_counts(a: Profiler, b: Profiler):
    for cat in CATEGORIES:
        assert getattr(a.counts, cat) == getattr(b.counts, cat), cat
        assert type(getattr(a.counts, cat)) is int  # JSON-serialisable


def assert_values(got, want, bitwise, dtype="f64"):
    if bitwise:
        np.testing.assert_array_equal(got, want)
    else:
        policy = resolve_policy(dtype)
        np.testing.assert_allclose(got, want, rtol=policy.rtol,
                                   atol=policy.atol)


def differential(build, bitwise, sizes, dtype="f64"):
    """Drive both steps through the same batches; returns how many of
    them the lane step really evaluated as lanes."""
    (lanes, ls), (scalar, ss) = step_pair(build, dtype)
    calls = []
    run_lanes = lanes._lanes
    lanes._lanes = lambda n: calls.append(n) or run_lanes(n)
    for i, n in enumerate(sizes):
        for step in (lanes, scalar):
            feed(step, n, np.random.default_rng(100 + i), dtype)
            step.execute(n)
        got, want = drain(lanes), drain(scalar)
        assert got.dtype == want.dtype == ls.policy.dtype
        assert len(got) == n * lanes.node.stream.work.push
        assert_values(got, want, bitwise, dtype)
        assert_same_counts(ls.profile, ss.profile)
        got, want = lanes.node.runner.fields, scalar.node.runner.fields
        assert got.keys() == want.keys()
        for name in got:  # array_equal: a field may be an array
            np.testing.assert_array_equal(got[name], want[name])
    assert calls == [n for n in sizes if n >= MIN] and not lanes.refired
    return len(calls)


# ---------------------------------------------------------------------------
# values and counts against the scalar runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(APP_FILTERS))
def test_app_filter_lanes_equal_scalar_firings(name):
    build, bitwise = APP_FILTERS[name]
    assert differential(build, bitwise, [1, MIN - 1, MIN, 257]) == 2


@pytest.mark.parametrize("variant", range(fuzz._Gen.NONLINEAR_VARIANTS))
def test_fuzzer_shape_lanes_equal_scalar_firings(variant):
    bitwise = variant != 1  # 1 is the atan shape
    differential(lambda: fuzz_shape(variant), bitwise, [1, MIN - 1, MIN, 257])
    (lanes, _), _ = step_pair(lambda: fuzz_shape(variant))
    assert ("interchanged" in lanes.detail) == (variant == 5)  # the nest


def test_arms_with_unequal_flops_count_the_lanes_that_took_them():
    build = lambda: repro.dsl.load_source(EXTRA, "Uneven", 0.2)
    differential(build, True, [MIN, 257, 64])
    (lanes, ls), _ = step_pair(build)
    assert lanes.detail == "if-converted 2 branches"
    feed(lanes, 400, np.random.default_rng(5))
    lanes.execute(400)
    c = ls.profile.counts
    # one compare per firing; the then arm's 8 ops and its inner
    # compare only where a > t; the inner arm's 2 only where b < 0 too
    assert c.fcmp > 400 and c.fneg < c.fcmp - 400 < 400
    assert c.fdiv == c.fcmp - 400 and 0 < c.fneg < c.fdiv


def test_split_runs_equal_one_run():
    """lane block -> scalar tail -> lane block is the same stream, the
    same counts and the same counters as one lane block."""
    for build, bitwise in (
            (lambda: repro.dsl.load_source(EXTRA, "TwoCounters", 0.37), True),
            (APP_FILTERS["InputGenerate"][0], False)):
        (a, sa), (b, sb) = step_pair(build)[0], step_pair(build)[0]
        for n in (40, 3, 1, 40):
            a.execute(n)
        b.execute(84)
        # the split run mixes libm (scalar tail) and NumPy sin/cos
        assert_values(drain(a), drain(b), bitwise)
        assert_same_counts(sa.profile, sb.profile)
        assert a.node.runner.fields == b.node.runner.fields
        scalar = step_pair(build)[1][0]
        scalar.execute(84)
        assert scalar.node.runner.fields == b.node.runner.fields
    assert b.node.runner.fields["n"] == 84


def test_counters_replay_the_loop_bit_for_bit():
    """Sequential accumulation: a float counter with an inexact step
    lands on exactly the loop's value, read before or after its update;
    the int one counts down and stays a Python int."""
    build = lambda: repro.dsl.load_source(EXTRA, "TwoCounters", 0.1)
    differential(build, True, [257, MIN, 5, 1000])
    (lanes, _), _ = step_pair(build)
    lanes.execute(1000)
    x = 0.0
    for _ in range(1000):
        x = x + 0.1
    fields = lanes.node.runner.fields
    assert fields["x"] == x and x != 1000 * 0.1
    assert fields["n"] == -3000 and type(fields["n"]) is int
    assert lanes.detail == "counter n, counter x"


@pytest.mark.parametrize("dtype", ["f32", "c64"])
def test_policies_compute_in_double_like_the_scalar_runner(dtype):
    sizes = [MIN, 257, 3]
    differential(lambda: repro.dsl.load_source(EXTRA, "Poly", 0.7),
                 True, sizes, dtype)
    differential(lambda: repro.dsl.load_source(EXTRA, "TwoCounters", 0.3),
                 True, sizes, dtype)
    if dtype == "f32":  # comparisons and libm are undefined on complex
        differential(lambda: repro.dsl.load_source(EXTRA, "Uneven", 0.2),
                     True, sizes, dtype)
        differential(APP_FILTERS["InputGenerate"][0], False, sizes, dtype)
        differential(APP_FILTERS["CorrPeak"][0], True, sizes, dtype)


def test_flagged_lanes_fall_back_to_the_scalar_batch():
    """Both arms run on every lane: 1/x meets the zeros its branch
    guards against, NumPy flags it, and the batch fires scalar — same
    values, same counts, nothing committed twice."""
    build = lambda: repro.dsl.load_source(EXTRA, "Reciprocal")
    (lanes, ls), (scalar, ss) = step_pair(build)
    data = np.random.default_rng(1).standard_normal(64)
    clean = data.copy()
    data[::7] = 0.0
    for block, lane_ok in ((data, False), (clean, True)):
        for step in (lanes, scalar):
            step.ring_in.push_block(block)
        assert lanes._lanes(64) is lane_ok
        if lane_ok:
            scalar.execute(64)
        else:  # nothing moved: the step now fires it scalar
            assert len(lanes.ring_in) == 64 and len(lanes.ring_out) == 0
            assert ls.profile.counts.flops == 0
            lanes.execute(64)
            scalar.execute(64)
            # ... and says so: it paid for both paths
            (row,) = ls.report().fallbacks
            assert row.reason.endswith("refired 1/1 lane batches scalar")
        np.testing.assert_array_equal(drain(lanes), drain(scalar))
        assert_same_counts(ls.profile, ss.profile)
    for _ in range(2):
        lanes.ring_in.push_block(clean)
        lanes.execute(64)
    assert not ls.report().fallbacks
    (row,) = [r for r in ls.report().steps if r.step_kind == "lanes"]
    assert row.reason.endswith("refired 1/3 lane batches scalar")


def test_int_counter_leaving_int64_fires_scalar():
    (lanes, _), (scalar, _) = step_pair(APP_FILTERS["SampledSource"][0])
    for step in (lanes, scalar):
        step.node.runner.fields["n"] = 2 ** 63 - 20
    assert not lanes._lanes(64)
    lanes.execute(64)
    scalar.execute(64)
    np.testing.assert_array_equal(drain(lanes), drain(scalar))
    assert lanes.node.runner.fields["n"] == 2 ** 63 + 44


# ---------------------------------------------------------------------------
# reduction loops: ``acc = acc + E`` as one sequential accumulate
# ---------------------------------------------------------------------------

REDUCTIONS = """
/* E is the ring window itself: a view the in-place add must not touch */
float->float filter SumWindow {
    work peek 6 pop 1 push 1 {
        float s = 0.0;
        for (int j = 0; j < 6; j++) { s = s + peek(j); }
        push(s * s);
        pop();
    }
}

/* carried in non-zero; an outer i in the index; step 2; peek(j - c) */
float->float filter Lagged(float gain) {
    float g = gain;
    work peek 8 pop 2 push 2 {
        float s = peek(0) * g;
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 5; j += 2) {
                s = s + peek(i + j) * peek(j);
            }
        }
        push(s);
        float d = g;
        for (int j = 2; j < 7; j++) { d = d + peek(j - 2) * (-peek(1 + j)); }
        push(d);
        pop();
        pop();
    }
}

/* no trip, one trip, and the variable read after its loop */
float->float filter Trips(int lo) {
    work peek 4 pop 1 push 2 {
        float s = peek(3);
        for (int j = lo; j < 2; j++) { s = s + peek(j) * peek(j); }
        push(s);
        for (int k = 1; k < 2; k++) { s = s + sqrt(abs(peek(k))); }
        push(s * k);
        pop();
    }
}

/* downwards: the indices themselves, not a slice; the sum in that order */
float->float filter Backwards {
    work peek 6 pop 1 push 1 {
        float s = 0.0;
        for (int j = 5; j > 0; j--) { s = s + peek(j) * peek(j - 1); }
        push(s);
        pop();
    }
}

/* under a data-dependent branch: counted on the lanes that took it */
float->float filter Gated(float t) {
    work peek 4 pop 1 push 1 {
        float x = peek(0);
        float s = x;
        if (x > t) {
            for (int j = 1; j < 4; j++) { s = s + x * peek(j); }
        } else {
            s = -s;
        }
        push(s);
        pop();
    }
}

/* a float field array walked by the loop */
float->float filter Weighted {
    float[4] w;
    init { for (int i = 0; i < 4; i++) { w[i] = 0.7 / (i + 1); } }
    work peek 5 pop 1 push 1 {
        float s = 0.0;
        for (int j = 0; j < 4; j++) { s = s + w[j] * peek(j + 1); }
        push(s * s);
        pop();
    }
}

/* the loops that keep the loop form */
float->float filter ReadsAcc {
    work peek 3 pop 1 push 1 {
        float s = 0.5;
        for (int j = 0; j < 3; j++) { s = s + s * peek(j); }
        push(s);
        pop();
    }
}
float->float filter TwoStatements {
    work peek 3 pop 1 push 1 {
        float s = 0.0;
        float t = 0.0;
        for (int j = 0; j < 3; j++) { s = s + peek(j); t = t + s; }
        push(s * t);
        pop();
    }
}
float->float filter PopsInside {
    work peek 3 pop 2 push 1 {
        float s = 0.0;
        for (int j = 0; j < 2; j++) { s = s + pop() * peek(0); }
        push(s);
    }
}
float->float filter UsesIndex {
    work peek 3 pop 1 push 1 {
        float s = 0.0;
        for (int j = 0; j < 3; j++) { s = s + j * peek(j); }
        push(s * s);
        pop();
    }
}
/* a libm call: ``math`` on a field here, NumPy on lanes, and neither
   promises the other's last bit */
float->float filter LibmOfField {
    float[3] w;
    init { for (int i = 0; i < 3; i++) { w[i] = 0.9 * (i + 1); } }
    work peek 3 pop 1 push 1 {
        float s = 0.0;
        for (int j = 0; j < 3; j++) { s = s + sin(w[j]) * peek(j); }
        push(s * s);
        pop();
    }
}
float->float filter LibmOfPeek {
    work peek 3 pop 1 push 1 {
        float s = 0.0;
        for (int j = 0; j < 3; j++) { s = s + exp(peek(j)); }
        push(s);
        pop();
    }
}

float->float splitjoin CorrBank {
    split duplicate;
    add Lagged(0.5);
    add Lagged(-1.25);
    add Lagged(2.0);
    join roundrobin(2, 2, 2);
}
"""

#: name -> (arguments, detail, defined on complex samples?)
REDUCED = {
    "SumWindow": ((), "loops (1 reduced)", True),
    "Lagged": ((0.3,), "loops (2 reduced)", True),
    "Trips": ((0,), "loops (2 reduced)", False),
    "Backwards": ((), "loops (1 reduced)", True),
    "Gated": ((0.1,), "if-converted 1 branches, loops (1 reduced)", False),
    "Weighted": ((), "loops (1 reduced)", True),
}


def reduction(name, *args):
    return lambda: repro.dsl.load_source(REDUCTIONS, name, *args)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduction_loops_equal_scalar_firings(name):
    """Bitwise, count for count."""
    args, detail, on_complex = REDUCED[name]
    sizes = [1, MIN - 1, MIN, 257]
    for dtype in ("f64", "f32"):
        differential(reduction(name, *args), True, sizes, dtype)
    if on_complex:
        # a product of two complex doubles is fused in NumPy and not in
        # Python, in the loop form as well: the last bit may differ
        differential(reduction(name, *args), False, sizes, "c128")
    (lanes, _), _ = step_pair(reduction(name, *args))
    assert lanes.detail == detail
    (count,) = re.findall(r"\((\d) reduced\)", detail)
    assert lanes.code.source.count("_accumulate(") == int(count)


def test_corrpeak_inner_loop_is_reduced():
    """Its nest runs interchanged: the window positions along a lane
    axis, the fold ``if (ac > maxpeak)`` a select, not a branch."""
    (lanes, _), _ = step_pair(APP_FILTERS["CorrPeak"][0])
    assert lanes.detail == "if-converted 1 branches, loops (1 interchanged)"
    # one Python loop over j (the other moves _p past the popped items)
    loops = re.findall(r"^ *for (\w+) in", lanes.code.source, re.M)
    assert loops == ["_v_j", "_v_i"] and "_accumulate" not in \
        lanes.code.source
    rows = [r for r in plan_report(BENCHMARKS["Vocoder"]()).steps
            if r.name == "CorrPeak"]
    assert [r.reason for r in rows] == [lanes.detail]


def test_zero_and_one_trip_reductions():
    # lo = 2: the first loop never runs and leaves ``s`` alone
    differential(reduction("Trips", 2), True, [MIN, 40])
    differential(reduction("Trips", 1), True, [MIN, 40])
    (lanes, _), _ = step_pair(reduction("Trips", 2))
    feed(lanes, MIN, np.random.default_rng(3))
    window = lanes.ring_in.window_view(MIN, 1, 4).copy()
    lanes.execute(MIN)
    np.testing.assert_array_equal(drain(lanes)[::2], window[:, 3])


def test_a_reduction_leaves_the_input_ring_alone():
    (lanes, _), _ = step_pair(reduction("SumWindow"))
    feed(lanes, 40, np.random.default_rng(2))
    window = lanes.ring_in.window_view(40, 1, 6)
    before = window.copy()
    lanes.execute(40)
    np.testing.assert_array_equal(window, before)
    assert (lanes.batches, lanes.refired) == (1, 0)  # nor tried to
    (lanes, _), _ = step_pair(reduction("Weighted"))
    w = lanes.node.runner.fields["w"].copy()
    feed(lanes, 40, np.random.default_rng(2))
    lanes.execute(40)
    np.testing.assert_array_equal(lanes.node.runner.fields["w"], w)


def test_gated_reduction_counts_the_lanes_that_took_it():
    (lanes, ls), _ = step_pair(reduction("Gated", 0.1))
    feed(lanes, 200, np.random.default_rng(8))
    taken = int((lanes.ring_in.window_view(200, 1, 4)[:, 0] > 0.1).sum())
    lanes.execute(200)
    c = ls.profile.counts
    assert 0 < taken < 200
    assert (c.fcmp, c.fadd, c.fmul, c.fneg) \
        == (200, 3 * taken, 3 * taken, 200 - taken)


@pytest.mark.parametrize("build, detail", [
    (lambda: fuzz_shape(4), "if-converted 1 branches, loops"),
    (reduction("ReadsAcc"), "loops"),
    (reduction("TwoStatements"), "loops"),
    (reduction("PopsInside"), "loops"),
    (reduction("UsesIndex"), "loops"),
    (reduction("LibmOfField"), "loops"),
    (reduction("LibmOfPeek"), "loops"),
], ids=["fuzz-variant-4", "acc-read-in-E", "two-statements", "pop-in-E",
        "index-outside-peek", "libm-of-field", "libm-of-peek"])
def test_other_loops_keep_the_loop_form(build, detail, request):
    (lanes, _), _ = step_pair(build)
    assert lanes.detail == detail
    assert "_accumulate(" not in lanes.code.source
    # NumPy's libm on lanes agrees with math's to the tolerance only
    bitwise = request.node.callspec.id != "libm-of-peek"
    differential(build, bitwise, [1, MIN, 257])


def test_overflow_inside_the_accumulate_refires_scalar():
    (lanes, ls), (scalar, ss) = step_pair(reduction("SumWindow"))
    data = np.full(MIN + 5, 1e308)
    for step in (lanes, scalar):
        step.ring_in.push_block(data)
        step.execute(MIN)
    assert (lanes.batches, lanes.refired) == (1, 1)
    (row,) = ls.report().fallbacks
    assert row.reason.endswith("refired 1/1 lane batches scalar")
    got = drain(lanes)
    assert np.isinf(got).all()
    np.testing.assert_array_equal(got, drain(scalar))
    assert_same_counts(ls.profile, ss.profile)


def test_sibling_reductions_equal_scalar_rows(monkeypatch):
    """One ``(b, n, peek)`` call with ``g`` a column: the terms and the
    carried value broadcast against each other."""
    build = lambda: repro.dsl.load_source(REDUCTIONS, "CorrBank")
    fused = repro.compile(build(), profiler=Profiler())
    scalar = repro.compile(build(), profiler=Profiler())
    (step,) = lane_steps(fused)
    assert len(step.nodes) == 3 and step.code.varying == {"g"}
    rng = np.random.default_rng(9)
    for n in (64, 2 * MIN, 700):
        chunk = rng.standard_normal(n)
        got = fused.push(chunk)
        with monkeypatch.context() as m:
            m.setattr(K, "LANE_MIN_FIRINGS", 10 ** 9)
            np.testing.assert_array_equal(got, scalar.push(chunk))
    assert step.batches == 3 and not step.refired
    assert_same_counts(fused.profile, scalar.profile)


# ---------------------------------------------------------------------------
# reduction nests: the outer loop along one more lane axis
# ---------------------------------------------------------------------------

NESTS = """
/* CorrPeak's shape: j from i, a > fold; n = 0 is a zero-trip nest */
float->float filter Triangle(float gain, int n) {
    float g = gain;
    work peek 6 pop 1 push 1 {
        float m = 0.0;
        for (int i = 0; i < n; i++) {
            float s = 0.0;
            for (int j = i; j < n; j++) {
                s = s + peek(i) * peek(j);
            }
            float a = s * g;
            if (a > m) {
                m = a;
            }
        }
        push(m);
        pop();
    }
}

/* j from i + 1, an outer step of 2, a local the terms read, a >= fold */
float->float filter Shifted {
    work peek 7 pop 2 push 1 {
        float m = peek(0);
        for (int i = 1; i < 7; i += 2) {
            float w = peek(i) - 0.5;
            float s = 0.0;
            for (int j = i + 1; j < 7; j++) {
                s = s + w * peek(j);
            }
            if (s >= m) {
                m = s;
            }
        }
        push(m);
        pop();
        pop();
    }
}

/* constant bounds, an accumulator started from the cell, a < fold */
float->float filter Square {
    work peek 8 pop 1 push 1 {
        float m = 1.0;
        for (int i = 0; i < 4; i++) {
            float s = peek(i);
            for (int j = 4; j < 8; j++) {
                s = s + peek(j) * peek(i);
            }
            if (s < m) {
                m = s;
            }
        }
        push(m);
        pop();
    }
}

/* j from i + 2: the last cells' inner loops never run; a <= fold */
float->float filter Ragged {
    work peek 9 pop 1 push 1 {
        float m = 1.0;
        for (int i = 0; i < 5; i++) {
            float s = peek(i);
            for (int j = i + 2; j < 5; j++) {
                s = s + peek(i + j) * peek(j);
            }
            s = s * 2.0;
            if (s <= m) {
                m = s;
            }
        }
        push(m);
        pop();
    }
}

/* sum folds: a convolution (j up to i) from a field's value, and a
   sliding window of sqrt at every other position */
float->float filter Convolved {
    float[5] w;
    init { for (int i = 0; i < 5; i++) { w[i] = 0.5 / (i + 1); } }
    work peek 5 pop 1 push 1 {
        float e = peek(4);
        for (int i = 0; i < 5; i++) {
            float s = w[i];
            for (int j = 0; j <= i; j++) {
                s = s + peek(j) * peek(i - j);
            }
            e = e + s * 0.25;
        }
        push(e);
        pop();
    }
}
float->float filter Sliding {
    work peek 7 pop 1 push 1 {
        float e = 0.0;
        for (int i = 0; i < 5; i += 2) {
            float s = 0.0;
            for (int j = i; j < i + 3; j++) {
                s = s + peek(j) * peek(j);
            }
            e = e + sqrt(s);
        }
        push(e);
        pop();
    }
}

/* two nests, the second declaring the first's names anew */
float->float filter Twice {
    work peek 5 pop 1 push 1 {
        float m = 0.0;
        for (int i = 0; i < 5; i++) {
            float s = 0.0;
            for (int j = i; j < 5; j++) {
                s = s + peek(i) * peek(j);
            }
            if (s > m) {
                m = s;
            }
        }
        float e = 0.0;
        for (int i = 0; i < 4; i++) {
            float s = 0.0;
            for (int j = 0; j < 2; j++) {
                s = s + peek(i + j);
            }
            e = e + s * s;
        }
        push(m + e);
        pop();
    }
}

/* the nests that keep today's form */
float->float filter OuterSum {
    work peek 4 pop 1 push 1 {
        float s = 0.0;
        for (int i = 0; i < 4; i++) {
            for (int j = i; j < 4; j++) {
                s = s + peek(i) * peek(j);
            }
        }
        push(s);
        pop();
    }
}
float->float filter ReadsAfter {
    work peek 4 pop 1 push 1 {
        float m = 0.0;
        for (int i = 0; i < 4; i++) {
            float s = 0.0;
            for (int j = i; j < 4; j++) {
                s = s + peek(i) * peek(j);
            }
            if (s > m) {
                m = s;
            }
        }
        push(m + s);
        pop();
    }
}
float->float filter Doubled {
    work peek 8 pop 1 push 1 {
        float m = 0.0;
        for (int i = 0; i < 4; i++) {
            float s = 0.0;
            for (int j = 0; j < 2 * i; j++) {
                s = s + peek(j) * peek(i);
            }
            if (s > m) {
                m = s;
            }
        }
        push(m);
        pop();
    }
}
float->float filter PopsInNest {
    work peek 4 pop 2 push 1 {
        float m = 0.0;
        for (int i = 0; i < 2; i++) {
            float x = pop();
            float s = 0.0;
            for (int j = 0; j < 2; j++) {
                s = s + x * peek(j);
            }
            if (s > m) {
                m = s;
            }
        }
        push(m);
    }
}
float->float filter TwoCarried {
    work peek 4 pop 1 push 1 {
        float m = 0.0;
        float e = 0.0;
        for (int i = 0; i < 4; i++) {
            float s = 0.0;
            for (int j = i; j < 4; j++) {
                s = s + peek(i) * peek(j);
            }
            e = e + s;
            if (s > m) {
                m = s;
            }
        }
        push(m + e);
        pop();
    }
}

float->float splitjoin TriangleBank {
    split duplicate;
    add Triangle(0.5, 6);
    add Triangle(-1.25, 6);
    add Triangle(2.0, 6);
    join roundrobin(1, 1, 1);
}
"""

#: name -> (arguments, detail, defined on complex samples?)
INTERCHANGED = {
    "Triangle": ((-0.75, 6), "loops (1 interchanged)", False),
    "Shifted": ((), "loops (1 interchanged)", False),
    "Square": ((), "loops (1 interchanged)", False),
    "Ragged": ((), "loops (1 interchanged)", False),
    "Convolved": ((), "loops (1 interchanged)", True),
    "Sliding": ((), "loops (1 interchanged)", False),
    "Twice": ((), "loops (2 interchanged)", False),
}


def nest(name, *args):
    return lambda: repro.dsl.load_source(NESTS, name, *args)


def assert_bits(got, want):
    """float64 equal to the bit, ``-0.0`` apart from ``0.0``; NaN where
    NaN."""
    nan = np.isnan(got)
    np.testing.assert_array_equal(nan, np.isnan(want))
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


@pytest.mark.parametrize("name", sorted(INTERCHANGED))
def test_nests_run_interchanged_equal_to_scalar_firings(name):
    """Bitwise, count for count, with no scalar refire."""
    args, detail, on_complex = INTERCHANGED[name]
    sizes = [1, MIN - 1, MIN, 257, 2048]
    for dtype in ("f64", "f32"):
        differential(nest(name, *args), True, sizes, dtype)
    if on_complex:
        differential(nest(name, *args), False, sizes, "c128")
    (lanes, _), _ = step_pair(nest(name, *args))
    assert lanes.detail == detail
    source = lanes.code.source
    assert "_accumulate(_v_s" not in source and "for _v_i " not in source


#: (firings, values, weights): windows of mostly signed zeros (cells
#: that tie at a zero of either sign), then of positives with inf —
#: never ``inf - inf`` or ``0 * inf``, which NumPy flags and the batch
#: refires scalar — all with NaNs
SPECIALS = [
    (MIN, [0.0, -0.0, 1.0, -1.0, np.nan], [40, 40, 8, 8, 4]),
    (257, [0.0, -0.0, 1.0, np.nan], [40, 40, 15, 5]),
    (2048, [1.0, 2.0, np.inf, np.nan], [40, 40, 10, 10]),
]


@pytest.mark.parametrize("name", sorted(INTERCHANGED))
def test_nests_fold_signed_zeros_nan_and_inf_as_the_loop_does(name):
    """A select keeps the occurrence of a tie the ``if`` keeps, and
    skips what it skips, bit for bit, as lanes."""
    args = INTERCHANGED[name][0]
    (lanes, ls), (scalar, ss) = step_pair(nest(name, *args))
    wf = lanes.node.stream.work
    rng = np.random.default_rng(11)
    for n, values, weights in SPECIALS:
        p = np.array(weights) / sum(weights)
        data = rng.choice(values, (n - 1) * wf.pop + wf.peek, p=p)
        for step in (lanes, scalar):
            step.ring_in.pop_block(len(step.ring_in))
            step.ring_in.push_block(data)
            step.execute(n)
        assert_bits(drain(lanes), drain(scalar))
        assert_same_counts(ls.profile, ss.profile)
    assert (lanes.batches, lanes.refired) == (3, 0)


def test_signed_zero_ties_pick_the_loops_element():
    """Every cell ties at a zero: ``>`` keeps ``m``, ``>=`` takes the
    last tying cell — ``-0.0`` here, where ``np.maximum`` would not say."""
    (lanes, _), (scalar, _) = step_pair(nest("Triangle", -0.75, 6))
    for step in (lanes, scalar):
        step.ring_in.push_block(np.zeros(MIN + 5))
        step.execute(MIN)
    got = drain(lanes)
    assert_bits(got, drain(scalar))
    assert np.signbit(got).sum() == 0  # -0.0 > 0.0 is false
    (lanes, _), (scalar, _) = step_pair(nest("Shifted"))
    data = np.zeros(2 * MIN + 5)
    data[::2] = -0.0  # m starts at -0.0, every s is 0.0 or -0.0
    for step in (lanes, scalar):
        step.ring_in.push_block(data)
        step.execute(MIN)
    assert_bits(drain(lanes), drain(scalar))


def test_zero_trip_nest_leaves_the_fold_alone():
    differential(nest("Triangle", 0.5, 0), True, [MIN, 40])
    differential(nest("Triangle", 0.5, 1), True, [MIN, 40])
    (lanes, ls), _ = step_pair(nest("Triangle", 0.5, 0))
    feed(lanes, MIN, np.random.default_rng(3))
    lanes.execute(MIN)
    assert not drain(lanes).any() and ls.profile.counts.flops == 0


def test_sibling_nests_equal_scalar_rows(monkeypatch):
    """``(b, n, I)`` cells, ``g`` a ``(b, 1, 1)`` column."""
    build = lambda: repro.dsl.load_source(NESTS, "TriangleBank")
    fused = repro.compile(build(), profiler=Profiler())
    scalar = repro.compile(build(), profiler=Profiler())
    (step,) = lane_steps(fused)
    assert len(step.nodes) == 3 and step.code.varying == {"g"}
    assert "interchanged" in step.detail
    rng = np.random.default_rng(9)
    for n in (64, 2 * MIN, 700):
        chunk = rng.standard_normal(n)
        got = fused.push(chunk)
        with monkeypatch.context() as m:
            m.setattr(K, "LANE_MIN_FIRINGS", 10 ** 9)
            np.testing.assert_array_equal(got, scalar.push(chunk))
    assert step.batches == 3 and not step.refired
    assert_same_counts(fused.profile, scalar.profile)


@pytest.mark.parametrize("name, detail", [
    # j < 2 * i: a bound that varies along the new axis other than as
    # i + c, so no cell slice holds the iterations that add j
    ("Doubled", "if-converted 1 branches, loops (1 reduced)"),
    # a pop() in the body: each iteration reads a different item
    ("PopsInNest", "if-converted 1 branches, loops (1 reduced)"),
    # e and m both carried from iteration to iteration
    ("TwoCarried", "if-converted 1 branches, loops (1 reduced)"),
    # s read after the nest: the last iteration's, not a cell axis
    ("ReadsAfter", "if-converted 1 branches, loops (1 reduced)"),
    # the reduction carries s, declared outside, across iterations
    ("OuterSum", "loops (1 reduced)"),
])
def test_other_nests_keep_the_loop_form(name, detail):
    (lanes, _), _ = step_pair(nest(name))
    assert lanes.detail == detail
    assert "for _v_i " in lanes.code.source
    differential(nest(name), True, [1, MIN, 257])


# ---------------------------------------------------------------------------
# planner, report, sessions
# ---------------------------------------------------------------------------


def small_radar(**kw):
    clear_plan_cache()
    kw.setdefault("profiler", Profiler())
    return repro.compile(BENCHMARKS["Radar"](channels=4, beams=2,
                                             fir1_taps=4, fir2_taps=2,
                                             mf_taps=4), **kw)


def lane_steps(s):
    return [st for st in s._executor.steps if isinstance(st, K.LaneStep)]


@pytest.fixture
def counter_sources_as_lanes():
    """Plan with no sinusoid kernel: Radar's counter sources run as
    lanes, as any counter source without a sinusoid form does.  A plan
    is built once per cache entry: none of these is left behind."""
    with mock.patch.object(planner, "_sinusoid", return_value=None):
        yield
    clear_plan_cache()


@pytest.mark.usefixtures("counter_sources_as_lanes")
def test_radar_plans_all_scalar_nodes_as_lanes_sharing_code():
    s = small_radar(optimize="auto")
    steps = lane_steps(s)
    # the 4 channels and the 2 beams are sibling branches: a step a stage
    assert [len(st.nodes) for st in steps] == [4, 2, 2]
    assert len({id(st.code) for st in steps}) == 3  # one per work function
    # generated lazily: planning emitted text, compiled nothing
    assert all(st.code._fn is None for st in steps)
    s.run(MIN // 2)  # the first batches are scalar
    s.run(64)
    assert all(st.code._fn is not None for st in steps)
    rep = s.report()
    assert not rep.fallbacks
    assert sorted({r.reason for r in rep.steps if r.step_kind == "lanes"}) \
        == ["counter n", "if-converted 1 branches", "straight-line"]
    assert "21 nodes in 11 steps, 0 fall back" in str(rep)
    # a cached plan carries the decision and the compiled code
    again = repro.compile(BENCHMARKS["Radar"](channels=4, beams=2,
                                              fir1_taps=4, fir2_taps=2,
                                              mf_taps=4), optimize="auto")
    assert {id(st.code) for st in lane_steps(again)} \
        == {id(st.code) for st in steps}


def test_resumed_radar_run_fires_no_scalar_runner(monkeypatch):
    """The ``radar_pull`` call: a resumed ``run(1024)`` of the full
    Radar makes no ``_IRRunner.fire`` call at all (it made 5 120)."""
    s = repro.compile(BENCHMARKS["Radar"](), optimize="auto",
                      profiler=Profiler())
    ref = repro.compile(BENCHMARKS["Radar"](), optimize="auto",
                        backend="compiled", profiler=Profiler())
    s.run(64)
    s.run(1024)
    fired = []
    real = _IRRunner.fire
    monkeypatch.setattr(_IRRunner, "fire",
                        lambda self, *a: fired.append(self) or real(self, *a))
    got = s.run(1024)
    assert fired == []
    ref.run(64 + 1024)
    assert fired  # the compiled backend does go through it
    np.testing.assert_allclose(got, ref.run(1024), atol=1e-9)
    assert_same_counts(s.profile, ref.profile)
    assert s.report().fallbacks == []


def test_warm_vocoder_run_fires_no_scalar_batch(monkeypatch):
    """The ``vocoder_pull`` call: ``CorrPeak`` gets 23-27 firings a
    ``run(128)``, and every one of its batches is a lane call (until
    ``LANE_MIN_FIRINGS`` came down to its crossover none was)."""
    s = repro.compile(BENCHMARKS["Vocoder"](), optimize="auto",
                      profiler=Profiler())
    s.run(128)

    def scalar_batch(*args):
        raise AssertionError("a scalar batch")
    monkeypatch.setattr(K, "fire_scalar", scalar_batch)
    for _ in range(4):
        assert len(s.run(128)) == 128
    rows = {r.name: r for r in s.report().steps if r.step_kind == "lanes"}
    assert sorted(rows) == ["CenterClip", "CorrPeak"]
    assert not any("refired" in r.reason for r in rows.values())
    assert rows["CorrPeak"].reason.endswith("loops (1 interchanged)")
    corr = [st for st in lane_steps(s) if st.node.name == "CorrPeak"]
    assert [st.batches for st in corr] == [5]


def test_reset_and_restore_mid_stream():
    s = small_radar()
    first = s.run(70)
    snap = s.snapshot()
    later = s.run(5)  # a scalar tail moves the counters too
    after = s.run(90)
    s.restore(snap)
    np.testing.assert_array_equal(s.run(5), later)
    np.testing.assert_array_equal(s.run(90), after)
    flops = s.profile.counts.flops
    s.reset()
    np.testing.assert_array_equal(s.run(70), first)
    s.run(5)
    s.run(90)
    assert s.profile.counts.flops == 2 * flops


@pytest.mark.usefixtures("counter_sources_as_lanes")
def test_lanes_under_workers():
    serial = small_radar()
    with small_radar(workers=2) as par:
        for k in (100, 300):
            np.testing.assert_allclose(par.run(k), serial.run(k), atol=1e-9)
        assert len(lane_steps(par)) == 8
        assert_same_counts(par.profile, serial.profile)


def test_second_cold_run_graph_equals_the_first():
    clear_plan_cache()
    build = lambda: BENCHMARKS["Radar"](channels=4, beams=2, fir1_taps=4,
                                        fir2_taps=2, mf_taps=4)
    p1, p2, p3 = Profiler(), Profiler(), Profiler()
    first = run_graph(build(), 300, p1, backend="plan")
    again = run_graph(build(), 300, p2, backend="plan")
    assert again == first
    assert_same_counts(p1, p2)
    np.testing.assert_allclose(
        first, run_graph(build(), 300, p3, backend="interp"), atol=1e-9)
    assert_same_counts(p1, p3)


def test_lane_step_passes_the_kernel_fault_site():
    (lanes, _), _ = step_pair(APP_FILTERS["SampledSource"][0])
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0}))
    try:
        for n in (1, 64):
            with pytest.raises(FaultInjected):
                lanes.execute(n)
    finally:
        faults.uninstall()
    assert len(lanes.ring_out) == 0


def test_vocoder_and_fmradio_census():
    kinds = {}
    for app in ("Vocoder", "VocoderEcho", "TargetDetect", "FMRadio",
                "RateConvert", "FilterBank"):
        rep = plan_report(BENCHMARKS[app]())
        rows = rep.steps + [r for isl in rep.islands for r in isl.steps]
        kinds[app] = sorted(r.name for r in rows if r.step_kind == "lanes")
    assert kinds == {
        "Vocoder": ["CenterClip", "CorrPeak"],
        "VocoderEcho": ["CenterClip", "CorrPeak"],
        "TargetDetect": [f"ThresholdDetector{k}" for k in (1, 2, 3, 4)],
        "FMRadio": ["FMDemodulator", "FloatOneSource"],
        "RateConvert": [],  # a sinusoid: its Expander folds onto it
        "FilterBank": ["DataSource"],
    }


# ---------------------------------------------------------------------------
# rejections: one per stated reason
# ---------------------------------------------------------------------------

REJECTED = {
    "push/pop in a loop or nested branch under a data-dependent branch": """
        float x = pop();
        if (x > 0.0) { for (int i = 0; i < 1; i++) { push(x); } }
        else { push(0.0); }""",
    "local y is declared under a data-dependent branch and used outside": """
        float x = pop();
        if (x > 0.0) { float y = x; }
        push(y);""",
    "lane-varying peek index": """
        int k = 0;
        float x = peek(peek(0) > 0.0);
        push(x); pop();""",
    "lane-varying array index": """
        push(table[pop() > 0.0]);""",
    "pop() under a short-circuit operator": """
        float x = peek(0);
        if (x > 0.0 && pop() > 1.0) { push(1.0); } else { push(0.0); }""",
    "floor() of a lane-varying value": """
        push(floor(pop()));""",
    "integer '*' on a lane-varying value": """
        push((peek(0) > 0.0) * (pop() < 1.0));""",
    "declares a local array (buf)": """
        float[2] buf;
        push(sqrt(pop()));""",
    "lane-varying int local k": """
        int k = pop() > 0.0;
        push(k);""",
    "lane-varying loop bound": """
        float x = pop();
        float y = 0.0;
        for (int i = 0; i < (x > 0.0); i++) { y = y + 1.0; }
        push(y);""",
    "int local k assigned under a data-dependent branch": """
        int k = 0;
        float x = pop();
        if (x > 0.0) { k = 1; }
        push(x * k);""",
    "branch arms pop or push different counts": """
        float x = peek(0);
        if (x > 0.0) { push(pop()); } else { push(x); }""",
    "writes array table": """
        table[0] = pop();
        push(table[1] * table[0]);""",
    "field count is written more than once or under control flow": """
        float x = pop();
        if (x > 0.0) { count = count + 1; }
        push(x);""",
    "field count is not an additive counter (count = count +/- c)": """
        push(pop() + count);
        count = (count + 1) % 5;""",
    "int counter count with a float step": """
        push(pop() * count * count);
        count = count + 0.5;""",
    # the local's ``count = count + 1`` must not be taken for the field's
    "local count shadows a field": """
        float x = pop();
        float count = 0.5;
        count = count + 1.0;
        push(abs(x) * count);""",
}


@pytest.mark.parametrize("reason", sorted(REJECTED))
def test_rejection_states_its_reason(reason):
    g = repro.dsl.load_source("""
        float->float filter Odd {
            float[2] table;
            int count;
            work peek 1 pop 1 push 1 {%s
            }
        }""" % REJECTED[reason], "Odd")
    with pytest.raises(LaneReject) as exc:
        emit_lanes(g.work, g.fields)
    assert reason in str(exc.value)
    (row,) = plan_report(Pipeline([g])).fallbacks
    assert f"; not lane-convertible: {exc.value}" in row.reason
    assert not row.reason.startswith(";")  # the linear verdict comes first


def test_prework_and_counterless_sources_keep_their_kernels():
    rep = plan_report(Pipeline([repro.dsl.load_source(EXTRA, "Primed")]))
    (row,) = rep.fallbacks
    assert row.reason == "has prework (first firing differs from steady state)"
    # a counter source with prework: its first firing is not a lane
    primed = repro.dsl.load_source("""
        void->float filter P {
            int n;
            prework push 1 { push(-1.0); }
            work push 1 { push(n * 0.5); n = n + 1; }
        }""", "P")
    (row,) = plan_report(Pipeline([primed])).fallbacks
    assert row.reason == "has prework (first firing differs from steady state)"
    np.testing.assert_array_equal(
        repro.compile(Pipeline([primed])).run(40),
        np.concatenate([[-1.0], 0.5 * np.arange(39)]))
    # no state at all: period 1, the table replay serves it
    const = repro.dsl.load_source(
        "void->float filter Half { work push 1 { push(0.5); } }", "Half")
    rep = plan_report(Pipeline([const]))
    assert rep.steps[0].step_kind == "periodic-source"
    assert rep.steps[0].reason == "transient 0, period 1"
