"""The lane kernel: ``n`` firings of a stateless non-linear filter or a
counter-driven source as one NumPy evaluation.

Every check is differential against the scalar runner the lanes stand
in for — a real :class:`FallbackStep` over the same rings: values
bitwise where the body is arithmetic, comparisons and ``sqrt`` (all
correctly rounded in both), at the policy tolerance where it calls
libm, and ``Counts`` equal field by field.
"""

import random

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import BENCHMARKS
from repro.apps._loader import load_unit
from repro.dsl import fuzz
from repro.errors import FaultInjected
from repro.exec import clear_plan_cache, kernels as K, plan_report
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
        assert lanes.node.runner.fields == scalar.node.runner.fields
    assert calls == [n for n in sizes if n >= MIN]
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
    s.reset(clear_profile=True)
    np.testing.assert_array_equal(s.run(70), first)
    s.run(5)
    s.run(90)
    assert s.profile.counts.flops == flops


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
        "RateConvert": ["SampledSource"],
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
