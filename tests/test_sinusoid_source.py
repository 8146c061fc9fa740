"""Sinusoid sources: one rotation basis, and the linear reader folded on.

A source whose every push is ``γ + Σ α·{sin,cos}(ω·n + θ)`` of an
additive int counter ``n`` runs as a :class:`~repro.exec.kernels.
SinusoidStep` where that removes work — sibling rows sharing one basis,
or a stateless linear reader folded onto it.  The references are the
:class:`~repro.exec.kernels.LaneStep` the source ran as before (the
graph's own arithmetic: values to within ``k·ulp(ω·n)·‖C‖``, counts
exact), the same plan with nothing folded, and the compiled backend.
Hermetic: no wall clock.
"""

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import BENCHMARKS
from repro.apps._loader import load_unit
from repro.dsl import fuzz, load_source
from repro.errors import FaultInjected
from repro.exec import kernels as K
from repro.exec import clear_plan_cache, plan_report, planner
from repro.exec.ring import RingBuffer
from repro.graph.streams import Pipeline
from repro.ir.pycodegen import LaneCode, LaneReject, emit_lanes, sinusoid_form
from repro.numeric import resolve_policy
from repro.profiling import CATEGORIES, Profiler
from repro.runtime.executor import _NULL_CHANNEL

EXTRA = """
void->float filter Every3(float w) {
    int n;
    float freq = w;
    work push 2 {
        push(0.5 + 2.0 * cos(freq * n - 0.3));
        push(-sin(freq * n + 0.4));
        n = n + 3;
    }
}
void->float filter Accumulator(float w) {
    float phase;
    work push 1 {
        phase = phase + w;
        push(sin(phase));
    }
}
void->float filter Square {
    int n;
    work push 1 {
        push(sin(0.001 * n * n));
        n = n + 1;
    }
}
void->float filter Chirp(float w) {
    int n;
    float freq = w;
    work push 1 {
        push(sin(freq * n));
        n = n + 1;
        freq = freq + 0.001;
    }
}
void->float filter Tone(float w, float ph) {
    int n;
    float freq = w;
    float phase = ph;
    work push 1 {
        push(sin(freq * n + phase));
        n = n + 1;
    }
}
float->float filter Taps(float g) {
    work peek 5 pop 2 push 1 {
        push(g * peek(0) - 0.5 * peek(1) + 0.25 * peek(4) + 1.5);
        pop();
        pop();
    }
}
void->float splitjoin Tones(float w2) {
    split duplicate;
    add Tone(0.1, 0.2);
    add Tone(w2, 0.7);
    add Tone(0.1, -1.3);
    join roundrobin(1, 1, 1);
}
void->float pipeline Every3Taps {
    add Every3(0.37);
    add Taps(0.8);
}
void->float pipeline ToneTaps(float ph, float g) {
    add Tone(0.1, ph);
    add Taps(g);
}
void->float splitjoin ToneBank {
    split duplicate;
    add ToneTaps(0.2, 0.6);
    add ToneTaps(0.7, -0.4);
    add ToneTaps(-1.3, 1.1);
    join roundrobin(1, 1, 1);
}
"""


def extra(name, *args):
    return load_source(EXTRA, name, *args)


def fuzz_sibling_source():
    """The counter source the fuzzer puts in front of sibling branches."""
    gen = fuzz._Gen(random.Random(0), 3)
    gen._siblings(void=True)
    (decl,) = [d for d in gen.decls if d.startswith("void->float filter")]
    name = decl.split()[2].split("(")[0]
    return load_source(decl, name, 0.37, 1.1)


def small_radar():
    return BENCHMARKS["Radar"](channels=4, beams=2, fir1_taps=4,
                               fir2_taps=2, mf_taps=4)


def verdict(filt):
    """The filter's :class:`SinusoidForm`, or why it has none."""
    try:
        code = emit_lanes(filt.work, filt.fields, filt.name)
        return sinusoid_form(code, filt.work, filt.fields)
    except LaneReject as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# the recognizer
# ---------------------------------------------------------------------------

ACCEPTED = {  # build, (step, frequencies)
    "InputGenerate": (lambda: load_unit("radar", "InputGenerate", 3),
                      (1, [0.05, 0.1])),
    "SampledSource": (lambda: load_unit("common", "SampledSource", 0.3),
                      (1, [0.3])),
    "FilterBankSource": (lambda: load_unit(("common", "filterbank"),
                                           "DataSource"),
                         (1, [np.pi / 30, np.pi / 20, np.pi / 10])),
    "fuzz sibling source": (fuzz_sibling_source, (1, [0.37])),
    "counter stepping by 3": (lambda: extra("Every3", 0.37), (3, [0.37])),
}

REJECTED = {
    "float accumulator": (
        lambda: extra("Accumulator", 0.3),
        "float accumulator phase: a rounded running sum, not a multiple "
        "of its step"),
    "FloatOneSource": (
        lambda: load_unit(("common", "fmradio"), "FloatOneSource"),
        "float accumulator x: a rounded running sum"),
    "TargetSource": (
        lambda: load_unit(("common", "targetdetect"), "TargetSource", 8),
        "field currentPosition is not an additive counter"),
    "sin(n*n)": (lambda: extra("Square"),
                 "multiplies two counter-dependent values"),
    "mutable frequency": (lambda: extra("Chirp", 0.2),
                          "counters freq, n; a sinusoid has one"),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_recognizer_accepts(name):
    build, (step, omegas) = ACCEPTED[name]
    form = verdict(build())
    assert not isinstance(form, str), form
    assert (form.counter, form.step) == ("n", step)
    np.testing.assert_allclose(form.omegas, omegas, rtol=1e-15)
    # a firing counts what the scalar runner counts
    s = repro.compile(Pipeline([build()]), backend="compiled",
                      profiler=Profiler())
    s.run(1)
    assert form.counts == s.profile.counts


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_recognizer_rejects_with_its_reason(name):
    build, reason = REJECTED[name]
    got = verdict(build())
    assert isinstance(got, str) and got.startswith(reason), got


def test_siblings_with_different_frequencies_stay_lanes_and_say_why():
    rep = plan_report(extra("Tones", 0.3))
    (row,) = [r for r in rep.steps if r.name == "Tone"]
    assert row.width == 3 and row.step_kind == "lanes"
    assert row.reason == ("counter n; not a sinusoid: frequencies differ "
                          "across siblings")
    rep = plan_report(extra("Tones", 0.1))
    (row,) = [r for r in rep.steps if r.name == "Tone"]
    assert (row.step_kind, row.reason) == ("sinusoid",
                                           "1 frequencies, counter n")


def test_a_rejected_counter_source_says_why_on_its_row():
    rep = plan_report(BENCHMARKS["FMRadio"]())
    (row,) = [r for r in rep.steps if r.name == "FloatOneSource"]
    assert row.step_kind == "lanes"
    assert row.reason.startswith("counter x; not a sinusoid: float "
                                 "accumulator x")


def test_one_row_with_nothing_to_fold_stays_lanes():
    """FilterBank's and RateConvert's sources feed a frequency step under
    ``auto``: one row, no reader to fold — the sinusoid kernel would be
    the slower of the two there, so they stay lanes."""
    for app in ("FilterBank", "RateConvert"):
        rep = plan_report(BENCHMARKS[app](), optimize="auto")
        (row,) = [r for r in rep.steps if r.name.endswith("Source")]
        assert (row.step_kind, row.reason) == ("lanes", "counter n"), app


# ---------------------------------------------------------------------------
# the step against the lanes it replaces
# ---------------------------------------------------------------------------


def source_pair(build, dtype="f64"):
    """``(sinusoid, lanes)``: the graph's first source stage as a
    :class:`SinusoidStep` and as the :class:`LaneStep` it replaces, each
    over the nodes and profiler of its own session, into its own ring."""
    policy = resolve_policy(dtype)
    pair = []
    for lanes in (False, True):
        profiler = Profiler()
        ex = repro.compile(build(), dtype=dtype, profiler=profiler)._executor
        orbit = next(o for o in ex.orbits if isinstance(o, list)
                     and not ex.flat.nodes[o[0]].inputs
                     and isinstance(ex.plan.decisions[o[0]], LaneCode))
        nodes = [ex.own_node(m) for m in orbit]
        code = ex.plan.decisions[orbit[0]]
        ring = RingBuffer("out", dtype=policy.dtype, rows=len(nodes))
        if lanes:
            columns = K.lane_columns(code, [node.stream for node in nodes])
            step = K.LaneStep(nodes, _NULL_CHANNEL, ring, code, columns,
                              policy)
        else:
            forms = [sinusoid_form(code, node.stream.work, node.runner.fields)
                     for node in nodes]
            step = K.SinusoidStep(K.SinusoidStep.operator(forms), nodes,
                                  None, ring, profiler)
        pair.append((step, profiler))
    return pair


def drain(step):
    return step.ring_out.pop_block_array(len(step.ring_out))


def assert_close(got, want, dtype="f64"):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    eps = 2.0 ** -22 if resolve_policy(dtype).dtype.itemsize == 4 else 1e-12
    np.testing.assert_allclose(got, want, rtol=0, atol=eps * scale)


def assert_same_profile(a: Profiler, b: Profiler):
    for cat in CATEGORIES:
        assert getattr(a.counts, cat) == getattr(b.counts, cat), cat
    assert a.per_filter == b.per_filter


SOURCES = {
    "radar channels": small_radar,
    "counter stepping by 3": lambda: Pipeline([extra("Every3", 0.37)]),
    "one-row radar source": lambda: Pipeline(
        [load_unit("radar", "InputGenerate", 5)]),
}


@pytest.mark.parametrize("dtype", ["f64", "f32", "c128"])
@pytest.mark.parametrize("case", sorted(SOURCES))
def test_step_equals_lanes_over_resumed_calls(case, dtype):
    (sin, ps), (lanes, pl) = source_pair(SOURCES[case], dtype)
    for n in (1, 2, 11, 12, 255, 256, 4097):
        sin.execute(n)
        lanes.execute(n)
        got, want = drain(sin), drain(lanes)
        assert got.dtype == want.dtype == resolve_policy(dtype).dtype
        assert_close(got, want, dtype)
        assert [node.runner.fields for node in sin.nodes] == \
            [node.runner.fields for node in lanes.nodes]
    assert_same_profile(ps, pl)


def test_error_grows_with_the_ulp_of_the_argument_only():
    """2**22 firings of one source: in every call, the step is within
    ``8·ulp(ω·n)·Σ|C|`` of the graph's own arithmetic (the lanes), ``n``
    the largest counter of the call — nothing accumulates from call to
    call, the step evaluates each firing from the integer counter."""
    (sin, _), (lanes, _) = source_pair(SOURCES["one-row radar source"])
    wmax = float(np.max(sin.omegas))
    mass = float(np.max(np.abs(sin.coef[:, :-1]).sum(axis=1)))  # |C|
    chunk, worst = 1 << 16, []
    for k in range(1, 65):
        sin.execute(chunk)
        lanes.execute(chunk)
        err = float(np.max(np.abs(drain(sin) - drain(lanes))))
        bound = 8 * np.spacing(wmax * k * chunk) * mass
        assert err <= bound, (k, err, bound)
        worst.append(err)
    assert sin.nodes[0].runner.fields["n"] == 1 << 22
    assert max(worst) <= 8 * np.spacing(wmax * (1 << 22)) * mass


# ---------------------------------------------------------------------------
# the fold
# ---------------------------------------------------------------------------


@contextmanager
def unfolded():
    """Plan with no sinusoid step: counter sources as lanes and their
    readers as matmuls.  A plan is built once per cache entry, so this
    plans into an empty cache and leaves none of its plans behind."""
    clear_plan_cache()
    try:
        with mock.patch.object(planner, "_sinusoid", return_value=None):
            yield
    finally:
        clear_plan_cache()


FOLDS = {  # (graph, optimize)
    "radar none (BeamFir1)": (small_radar, "none"),
    "radar auto": (small_radar, "auto"),
    "stride 3, peek > pop": (lambda: extra("Every3Taps"), "none"),
    "siblings, pop 2 of push 1": (lambda: extra("ToneBank"), "none"),
}


@pytest.mark.parametrize("case", sorted(FOLDS))
def test_folded_reader_equals_the_unfolded_plan(case):
    build, optimize = FOLDS[case]
    folded = repro.compile(build(), optimize=optimize, profiler=Profiler())
    with unfolded():
        plain = repro.compile(build(), optimize=optimize, profiler=Profiler())
    ref = repro.compile(build(), optimize=optimize, backend="compiled",
                        profiler=Profiler())
    readers = [st for st in folded._executor.steps
               if isinstance(st, K.SinusoidStep) and st.source is not st]
    assert len(readers) == 1 and readers[0].kind == "matmul"
    assert readers[0].source.coef is None  # the tape is never written
    assert not any(isinstance(st, K.SinusoidStep)
                   for st in plain._executor.steps)
    for n in (7, 1024, 3, 4096):
        got = folded.run(n)
        assert_close(got, plain.run(n))
        assert_close(got, ref.run(n))
    assert_same_profile(folded.profile, plain.profile)
    assert_same_profile(folded.profile, ref.profile)


def test_a_fault_in_either_step_commits_nothing():
    s = repro.compile(small_radar(), profiler=Profiler())
    s.run(64)
    ex = s._executor
    source, reader = ex.steps[1], ex.steps[2]
    assert reader.source is source

    def state():
        return ([node.runner.fields["n"] for node in source.nodes],
                len(reader.ring_in), len(reader.ring_out),
                s.profile.counts.flops)
    before = state()
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0}))
    try:
        for step in (source, reader):
            with pytest.raises(FaultInjected):
                step.execute(8)
    finally:
        faults.uninstall()
    assert state() == before


def test_a_call_that_faulted_in_the_reader_rolls_back_to_its_checkpoint():
    twin = repro.compile(small_radar(), profiler=Profiler())
    s = repro.compile(small_radar(), profiler=Profiler())
    twin.run(64)
    s.run(64)
    snap = s.snapshot()
    source = s._executor.steps[1]
    real = source.execute

    def quiet(n):  # the source fires; the reader after it faults
        with faults.suppress():
            real(n)
    source.execute = quiet
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0},
                                    max_per_site=1))
    try:
        with pytest.raises(FaultInjected):
            s.run(100)
    finally:
        faults.uninstall()
    s.restore(snap)
    assert_close(s.run(100), twin.run(100))
    assert_close(s.run(700), twin.run(700))
    assert_same_profile(s.profile, twin.profile)


@pytest.mark.parametrize("optimize", ["none", "auto"])
def test_radar_under_workers_matches_one_process(optimize):
    serial = repro.compile(small_radar(), optimize=optimize,
                           profiler=Profiler())
    with repro.compile(small_radar(), optimize=optimize, workers=2,
                       profiler=Profiler()) as par:
        # planned branch by branch: four one-row sources, each folded
        assert sum(isinstance(st, K.SinusoidStep)
                   for st in par._executor.steps) == 8
        for n in (100, 300):
            assert_close(par.run(n), serial.run(n))
        assert_same_profile(par.profile, serial.profile)
