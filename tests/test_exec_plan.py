"""The vectorized plan backend: equivalence, FLOP parity, bailouts, rings.

The acceptance bar for ``backend="plan"`` is *observational equivalence*
with the scalar backends: same outputs (to 1e-9), same FLOP counts, same
error behavior — only faster.
"""

import json
import math

import numpy as np
import pytest

from repro.apps import BENCHMARKS, FEEDBACK_APPS, build_app
from repro.bench import CONFIGS, build_config
from repro.bench import main as bench_main
from repro.errors import InterpError
from repro.exec import PlanExecutor, RingBuffer, compiled_plan_for, \
    plan_bailout_reason, planner
from repro.exec.kernels import (FallbackStep, FeedbackStep, MatmulStep,
                                PeriodicSourceStep)
from repro.graph import FeedbackLoop, Pipeline, RoundRobin
from repro.ir import FilterBuilder
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import (Collector, FunctionSource, ListSource, run_graph,
                           run_stream)

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
N_OUT = {name: 96 for name in SMALL_PARAMS}
N_OUT["Radar"] = 32

#: FLOP-parity assertions apply to acyclic apps only: feedback islands
#: are value-identical but may fire one extra loop iteration at the tail
#: of a run (the island advances in whole steady units).
PARITY_APPS = sorted(set(BENCHMARKS) - FEEDBACK_APPS)


def small(name):
    return BENCHMARKS[name](**SMALL_PARAMS[name])


def assert_counts_equal(p1: Profiler, p2: Profiler, msg=""):
    for cat in CATEGORIES:
        assert getattr(p1.counts, cat) == getattr(p2.counts, cat), \
            f"{msg}: {cat} differs"


# ---------------------------------------------------------------------------
# Acceptance: every app, plan == interp (values and FLOPs)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_plan_matches_interp_on_all_apps(name):
    p_interp, p_plan = Profiler(), Profiler()
    expected = run_graph(small(name), N_OUT[name], p_interp,
                         backend="interp")
    got = run_graph(small(name), N_OUT[name], p_plan, backend="plan")
    np.testing.assert_allclose(got, expected, atol=1e-9)
    if name not in FEEDBACK_APPS:
        assert_counts_equal(p_interp, p_plan, name)


@pytest.mark.parametrize("optimize", ["none", "linear", "auto"])
@pytest.mark.parametrize("name", PARITY_APPS)
def test_plan_matches_compiled_per_filter_profile(name, optimize):
    p_c, p_p = Profiler(), Profiler()
    want = run_graph(small(name), N_OUT[name], p_c, backend="compiled",
                     optimize=optimize)
    got = run_graph(small(name), N_OUT[name], p_p, backend="plan",
                    optimize=optimize)
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert_counts_equal(p_c, p_p, f"{name}/{optimize}")
    assert p_c.per_filter.keys() == p_p.per_filter.keys()
    for leaf, bucket in p_c.per_filter.items():
        assert bucket == p_p.per_filter[leaf], leaf


@pytest.mark.parametrize("config", CONFIGS)
def test_plan_runs_optimized_configs(config):
    """Optimized graphs (LinearFilter, freq, redundancy leaves) under plan."""
    base = run_graph(small("FilterBank"), 64)
    p_c, p_p = Profiler(), Profiler()
    compiled = run_graph(build_config(small("FilterBank"), config), 64, p_c)
    planned = run_graph(build_config(small("FilterBank"), config), 64, p_p,
                        backend="plan")
    np.testing.assert_allclose(planned, compiled, atol=1e-8)
    np.testing.assert_allclose(planned, base, atol=1e-7)
    assert_counts_equal(p_c, p_p, config)
    assert p_c.per_filter.keys() == p_p.per_filter.keys()


def test_plan_per_filter_counts_match_for_linear_leaves():
    """LinearFilter leaves attribute per-filter counts identically."""
    p_c, p_p = Profiler(), Profiler()
    run_graph(build_config(small("FIR"), "linear"), 64, p_c)
    run_graph(build_config(small("FIR"), "linear"), 64, p_p, backend="plan")
    assert p_c.per_filter and p_c.per_filter.keys() == p_p.per_filter.keys()
    for name in p_c.per_filter:
        assert p_c.per_filter[name].flops == p_p.per_filter[name].flops


# ---------------------------------------------------------------------------
# Scheduling-semantics parity
# ---------------------------------------------------------------------------


def make_fir(coeffs):
    n = len(coeffs)
    f = FilterBuilder("fir", peek=n, pop=1, push=1)
    h = f.const_array("h", coeffs)
    with f.work():
        s = f.local("sum", 0.0)
        with f.loop("i", 0, n) as i:
            f.assign(s, s + h[i] * f.peek(i))
        f.push(s)
        f.pop()
    return f.build()


def test_plan_peeking_filter_waits_for_data():
    out = run_stream(make_fir([1.0] * 4), list(range(10)), 3,
                     backend="plan")
    assert out == [6.0, 10.0, 14.0]


def test_plan_deadlock_detection_matches_scalar():
    with pytest.raises(InterpError, match="deadlock"):
        run_stream(make_fir([1.0, 1.0]), [1.0], 5, backend="plan")


def test_plan_prework_filter_falls_back_correctly():
    f = FilterBuilder("Delay1", peek=1, pop=1, push=1)
    with f.prework(peek=0, pop=0, push=1):
        f.push(0.0)
    with f.work():
        f.push(f.pop_expr())
    out = run_stream(f.build(), [1.0, 2.0, 3.0], 4, backend="plan")
    assert out == [0.0, 1.0, 2.0, 3.0]


def test_plan_stateful_source_exact():
    """Mutable-field filters run through the compiled fallback unchanged."""
    prog = small("FIR")
    a = run_graph(prog, 50, backend="compiled")
    b = run_graph(small("FIR"), 50, backend="plan")
    np.testing.assert_allclose(b, a, atol=1e-9)


def test_plan_executor_chunks_large_runs(monkeypatch):
    """Tiny chunk size forces multiple flushes; results unchanged."""
    monkeypatch.setattr(planner, "DEFAULT_CHUNK_OUTPUTS", 8)
    ex = compiled_plan_for(small("FIR"), Profiler(), cache=False)[0]
    out = ex.advance(100)
    expected = run_graph(small("FIR"), 100)
    np.testing.assert_allclose(out, expected, atol=1e-9)


def test_plan_repeated_run_extends():
    ex = compiled_plan_for(small("FIR"), Profiler(), cache=False)[0]
    first = ex.advance(10)
    more = ex.advance(20)
    expected = run_graph(small("FIR"), 30)
    np.testing.assert_allclose(np.concatenate([first, more]), expected,
                               atol=1e-9)


def test_pass_limit_means_the_same_on_both_executors():
    """``max_passes`` bounds the passes of one call, jumped or literal:
    a run stops on the plan executor exactly where it stops on the
    scalar one (the plan used to count loop iterations and ran on)."""
    import repro

    def executor(backend):
        return repro.compile(small("FIR"), backend=backend)._executor

    needed = {}
    for backend in ("compiled", "plan"):
        with pytest.raises(InterpError, match="executor pass limit exceeded"):
            executor(backend).advance(5000, max_passes=100)
        ex = executor(backend)
        ex.advance(500)
        needed[backend] = ex._passes
    assert needed["plan"] == needed["compiled"] > 500
    for backend, passes in needed.items():
        assert len(executor(backend).advance(500, max_passes=passes)) == 500
        with pytest.raises(InterpError, match="executor pass limit exceeded"):
            executor(backend).advance(500, max_passes=passes - 1)


# ---------------------------------------------------------------------------
# Feedback islands and bailouts
# ---------------------------------------------------------------------------


def make_feedback_program(enqueued=(0.0,)):
    g = FilterBuilder("AddDup", peek=2, pop=2, push=2)
    with g.work():
        t = g.local("t", g.pop_expr() + g.pop_expr())
        g.push(t)
        g.push(t)
    from repro.runtime import Identity
    return FeedbackLoop(body=g.build(), loop=Identity("fb"),
                        joiner=RoundRobin((1, 1)),
                        splitter=RoundRobin((1, 1)), enqueued=enqueued)


def test_feedback_loop_runs_as_island():
    """A FeedbackLoop no longer forfeits the plan backend: the cycle
    becomes a FeedbackStep island and values match the scalar backends."""
    loop = make_feedback_program()
    prog = Pipeline([ListSource([1, 2, 3, 4]), loop, Collector()])
    assert plan_bailout_reason(prog) is None
    ex = compiled_plan_for(prog, cache=False)[0]
    assert isinstance(ex, PlanExecutor)
    assert any(isinstance(s, FeedbackStep) for s in ex.steps)
    out = run_stream(make_feedback_program(), [1.0, 2.0, 3.0, 4.0], 4,
                     backend="plan")
    assert out == [1.0, 3.0, 6.0, 10.0]


def test_feedback_island_nonloop_regions_stay_batched():
    """Hybrid islanding: nodes outside the cycle keep batched kernels."""
    from repro.apps import echo
    ex = compiled_plan_for(echo.build(**SMALL_PARAMS["Echo"]), cache=False)[0]
    kinds = [s.kind for s in ex.steps]
    assert "feedback" in kinds
    assert "matmul" in kinds  # the low-pass conditioner outside the loop
    fstep = next(s for s in ex.steps if isinstance(s, FeedbackStep))
    member_kinds = {m.step.kind for m in fstep.members}
    assert "matmul" in member_kinds  # the linear loop body, batched


def test_feedback_island_chunked_and_repeated_runs(monkeypatch):
    """Island state survives chunk flushes and incremental runs."""
    from repro.apps import echo
    prog = echo.build(**SMALL_PARAMS["Echo"])
    monkeypatch.setattr(planner, "DEFAULT_CHUNK_OUTPUTS", 16)  # many flushes
    ex = compiled_plan_for(prog, Profiler(), cache=False)[0]
    first = ex.advance(50)
    more = ex.advance(150)
    expected = run_graph(echo.build(**SMALL_PARAMS["Echo"]), 200)
    np.testing.assert_allclose(np.concatenate([first, more]), expected,
                               atol=1e-9)


def test_feedback_island_with_zero_delay_bails_out():
    """No enqueued items = no lookahead: the cycle cannot start, the
    probe reports it, and the plan bails to compiled."""
    loop = make_feedback_program(enqueued=())
    prog = Pipeline([ListSource([1, 2, 3, 4]), loop, Collector()])
    reason = plan_bailout_reason(prog)
    assert reason is not None and "feedback island" in reason


def test_feedback_island_with_inner_source_bails_out():
    """A source inside a cycle fires unboundedly: not islandable."""
    from repro.graph.streams import Pipeline as P
    body = Pipeline([make_fir([1.0, 0.5])], name="body")
    loop_path = P([FunctionSource(lambda n: 0.0, "inner-src")],
                  name="loop")
    fb = FeedbackLoop(body=body, loop=loop_path,
                      joiner=RoundRobin((1, 1)),
                      splitter=RoundRobin((1, 1)), enqueued=[0.0])
    prog = Pipeline([ListSource([1.0] * 8), fb, Collector()])
    reason = plan_bailout_reason(prog)
    assert reason is not None and "feedback island" in reason


def test_plannable_program_has_no_bailout_reason():
    assert plan_bailout_reason(small("FilterBank")) is None
    ex = compiled_plan_for(small("FIR"))[0]
    assert isinstance(ex, PlanExecutor)


def test_linear_filters_get_matmul_steps():
    ex = compiled_plan_for(small("FIR"))[0]
    kinds = {type(s).__name__ for s in ex.steps}
    assert "MatmulStep" in kinds  # the 32-tap low-pass
    assert any(isinstance(s, PeriodicSourceStep) for s in ex.steps)  # ramp
    assert not any(isinstance(s, FallbackStep) for s in ex.steps)


def test_frequency_filters_get_batched_fft_steps():
    """Freq-rewritten graphs run OptimizedFreqStep, not FallbackStep."""
    from repro.exec.kernels import OptimizedFreqStep
    stream = build_config(small("FIR"), "freq")
    ex = compiled_plan_for(stream, cache=False)[0]
    assert any(isinstance(s, OptimizedFreqStep) for s in ex.steps)


def test_naive_freq_filter_gets_batched_step():
    from repro.exec.kernels import NaiveFreqStep
    from repro.frequency import maximal_frequency_replacement
    stream = maximal_frequency_replacement(small("FIR"), strategy="naive")
    ex = compiled_plan_for(stream, cache=False)[0]
    assert any(isinstance(s, NaiveFreqStep) for s in ex.steps)
    p_c, p_p = Profiler(), Profiler()
    compiled = run_graph(stream, 96, p_c)
    planned = run_graph(
        maximal_frequency_replacement(small("FIR"), strategy="naive"),
        96, p_p, backend="plan")
    np.testing.assert_allclose(planned, compiled, atol=1e-8)
    assert_counts_equal(p_c, p_p, "naive-freq")


def test_freq_step_partials_survive_chunk_flushes(monkeypatch):
    """OptimizedFreqStep carries partial sums across flush boundaries."""
    stream = build_config(small("FIR"), "freq")
    monkeypatch.setattr(planner, "DEFAULT_CHUNK_OUTPUTS", 16)  # many flushes
    ex = compiled_plan_for(stream, Profiler(), cache=False)[0]
    out = ex.advance(400)
    expected = run_graph(build_config(small("FIR"), "freq"), 400)
    np.testing.assert_allclose(out, expected, atol=1e-8)


# ---------------------------------------------------------------------------
# The optimizing pipeline (optimize=)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["none", "linear", "freq", "auto"])
@pytest.mark.parametrize("name", ["FIR", "FilterBank", "Radar", "Vocoder"])
def test_optimize_modes_preserve_outputs(name, mode):
    expected = run_graph(small(name), N_OUT[name], backend="compiled")
    got = run_graph(small(name), N_OUT[name], backend="plan", optimize=mode)
    np.testing.assert_allclose(got, expected, atol=1e-7,
                               err_msg=f"{name}/{mode}")


def test_optimize_auto_flops_match_selection_dp():
    """The auto plan executes exactly the DP's predicted implementation."""
    from repro.selection import select_optimizations
    p_plan, p_pred = Profiler(), Profiler()
    run_graph(small("FilterBank"), 96, p_plan, backend="plan",
              optimize="auto")
    predicted = select_optimizations(small("FilterBank"),
                                     cost_model="batched",
                                     stateful=True).stream
    run_graph(predicted, 96, p_pred, backend="compiled")
    assert_counts_equal(p_plan, p_pred, "auto-vs-dp")


def test_optimize_rejects_unknown_mode():
    from repro.exec import optimize_stream
    with pytest.raises(ValueError, match="unknown optimize mode"):
        optimize_stream(small("FIR"), "bogus")


def test_plan_report_names_fallbacks_with_reasons():
    from repro.exec import plan_report
    rep = plan_report(small("Radar"))
    assert rep.bailout is None
    # the sinusoid sources share one basis, their first FIR folds onto
    # it, and the stateless non-linear stages run as lanes
    assert not rep.fallbacks
    rows = {s.name: (s.step_kind, s.reason) for s in rep.steps}
    assert rows["InputGenerate0"] == ("sinusoid", "2 frequencies, counter n")
    assert rows["BeamFir1_0"] == ("matmul",
                                  "folded onto InputGenerate0's basis")
    lanes = {s.name: s.reason for s in rep.steps if s.step_kind == "lanes"}
    assert lanes["Magnitude"] == "straight-line"
    assert lanes["Detector"] == "if-converted 1 branches"
    text = str(rep)
    assert "25 nodes in 12 steps, 0 fall back" in text
    assert "schedule: 0 passes" in text  # a static report has not run
    # a true fallback says why it is neither linear nor lane-convertible
    rep = plan_report(BENCHMARKS["DToA"](), optimize="none")
    (isl,) = rep.islands
    (delay,) = [s for s in isl.steps if s.step_kind == "fallback"]
    assert delay.reason.startswith("has prework")
    rep = plan_report(BENCHMARKS["TargetDetect"]())
    (source,) = rep.fallbacks
    assert "state did not recur within" in source.reason
    assert ("not lane-convertible: field currentPosition is not an "
            "additive counter") in source.reason
    assert "12 nodes in 12 steps, 1 fall back" in str(rep)


def test_auto_radar_runs_its_siblings_as_one_step_a_stage():
    """Radar's 12 channels and 4 beams are sibling branches under
    ``auto`` too (every app's kernels are ``tests/golden/
    plan_census.json``)."""
    from repro.exec import calibrate, plan_report
    with calibrate.analytic_only():
        rep = plan_report(BENCHMARKS["Radar"](), optimize="auto")
    assert len(rep.steps) <= 12 and not rep.fallbacks
    assert sum(s.width for s in rep.steps) == rep.nodes == 45


def test_summary_counts_an_island_members_fallback():
    """DToA's ``Delay`` runs scalar inside the ``NoiseShaper`` island:
    the summary says so, as it does for a top-level row."""
    from repro.exec import plan_report
    rep = plan_report(BENCHMARKS["DToA"](), optimize="auto")
    (delay,) = rep.fallbacks
    assert delay.name == "Delay" and delay.reason.startswith("has prework")
    assert "9 nodes in 5 steps, 1 fall back\n" in str(rep)


#: Exact float ops of ``run_graph(small(name), N_OUT[name], backend="plan",
#: optimize=mode)`` for mode in none | linear | freq | auto, and the DP's
#: ``SelectionResult.cost`` and decision count under (thesis,
#: stateful=False) and (batched, stateful=True), all under
#: ``calibrate.analytic_only()`` — captured on the two-node-type code
#: (commit 8aafa52), before the one-linear-node refactor.  The same
#: numbers used to exist only in ``results/*.txt``, which pytest
#: overwrites; a change to extraction, combination, the FLOP convention
#: (spans on ``A``, non-zeros on the state part) or a price moves one.
#: The ``freq`` column of the six apps with a decimating region was
#: re-captured when ``freq`` went polyphase (FilterBank 18248, FMRadio
#: 34416, Radar 39900, RateConvert 12774, Vocoder 47158 and VocoderEcho
#: 49285 with Transformation 6 + decimator).
FLOP_PINS = {
    "DToA": (9381, 7079, 15226, 6936),
    "Echo": (3264, 3648, 6135, 3264),
    "FIR": (6144, 6048, 7983, 6144),
    "FMRadio": (20616, 7352, 21012, 7464),
    "FilterBank": (32225, 7088, 8010, 7088),
    "IIR": (2880, 5568, 2880, 3552),
    "Oversampler": (6368, 2448, 8496, 2448),
    "Radar": (6728, 7632, 19918, 5840),
    "RateConvert": (28080, 4848, 7505, 4848),
    "TargetDetect": (4784, 4640, 16312, 4784),
    "Vocoder": (41570, 16156, 31255, 16370),
    "VocoderEcho": (42010, 17666, 33382, 16810),
}
DP_PINS = {
    "DToA": (1967.944055944056, 42, 289.6259765625, 42),
    "Echo": (615.4375, 17, 42.5419921875, 17),
    "FIR": (229.73958333333334, 10, 64.1806640625, 10),
    "FMRadio": (459.4375, 61, 64.361328125, 61),
    "FilterBank": (1410.0, 126, 666.5419921875, 126),
    "IIR": (0.0, 24, 90.8807373046875, 24),
    "Oversampler": (384.67346938775506, 37, 240.1806640625, 37),
    "Radar": (1758.0, 93, 289.4453125, 93),
    "RateConvert": (999.0, 19, 324.5419921875, 19),
    "TargetDetect": (905.8076923076924, 44, 192.72265625, 44),
    "Vocoder": (4956.461538461539, 64, 1634.890625, 64),
    "VocoderEcho": (8084.461538461539, 72, 1717.78125, 72),
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_flops_and_dp_costs_are_pinned(name):
    from repro.exec import calibrate
    from repro.exec.optimize import OPTIMIZE_MODES
    from repro.selection import select_optimizations

    with calibrate.analytic_only():
        flops = []
        for mode in OPTIMIZE_MODES:
            p = Profiler()
            run_graph(small(name), N_OUT[name], p, backend="plan",
                      optimize=mode)
            flops.append(p.counts.flops)
        thesis = select_optimizations(small(name))
        batched = select_optimizations(small(name), cost_model="batched",
                                       stateful=True)
    assert tuple(flops) == FLOP_PINS[name]
    assert (thesis.cost, len(thesis.decisions),
            batched.cost, len(batched.decisions)) == DP_PINS[name]


def dead_state_program(update: str) -> str:
    """A filter whose field ``n`` no push reads, after a ramp source."""
    return f"""
    void->float filter Ramp {{
        float x;
        work push 1 {{ push(x); x = x + 0.25; }}
    }}
    float->float filter Dead {{
        float n;
        work peek 1 pop 1 push 1 {{
            push(2 * peek(0));
            n = {update};
            pop();
        }}
    }}
    void->float pipeline Top {{ add Ramp(); add Dead(); }}
    """


@pytest.mark.parametrize("optimize", ["none", "linear", "auto"])
@pytest.mark.parametrize("update", ["n + 1", "peek(0) * peek(0)"])
def test_dead_state_has_one_verdict(update, optimize):
    """Regression: the affine dead write planned as ``stateful`` under
    none|auto and ``matmul`` under linear, the non-affine one as
    ``fallback`` under none|auto — which extractor was asked decided.
    An unobservable slot is dropped, so both are the stateless node
    under every mode; the probe firing still counts the write's ops."""
    from repro.dsl import compile_source
    from repro.exec import calibrate, plan_report

    def program():
        graph = compile_source(dead_state_program(update), "Top")
        return Pipeline(list(graph.children) + [Collector()])

    with calibrate.analytic_only():
        rep = plan_report(program(), optimize=optimize)
        assert [s.step_kind for s in rep.steps if "Dead" in s.name] \
            == ["matmul"]
        p_c, p_p = Profiler(), Profiler()
        want = run_graph(program(), 80, p_c, backend="compiled",
                         optimize=optimize)
        got = run_graph(program(), 80, p_p, backend="plan",
                        optimize=optimize)
    np.testing.assert_allclose(got, run_graph(program(), 80,
                                              backend="interp"), atol=1e-12)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert_counts_equal(p_c, p_p, f"{update}/{optimize}")
    if optimize == "none":  # Ramp's add, the push's mul, the dead write
        assert p_p.counts.flops == 80 * 3


def test_plan_report_names_feedback_island():
    from repro.exec import plan_report
    loop = make_feedback_program()
    prog = Pipeline([ListSource([1, 2, 3, 4]), loop, Collector()])
    rep = plan_report(prog)
    assert rep.bailout is None
    assert any(s.step_kind == "feedback" for s in rep.steps)
    assert len(rep.islands) == 1
    isl = rep.islands[0]
    assert isl.delay == 1 and isl.rates.pop == 1 and isl.rates.push == 1
    member_kinds = {s.step_kind for s in isl.steps}
    assert "matmul" in member_kinds  # the linear AddDup body
    text = str(rep)
    assert "feedback island" in text and "AddDup" in text


def test_island_row_says_how_often_the_loop_iterates():
    """Delay 1 and delay 1024 plan identically — four batched kernels,
    no fallback — and differ 1000x in what a push costs: the delay caps
    the firings one drain round advances.  The row carries the count and
    the summary stops filing a per-sample loop under "0 fall back"."""
    import repro
    from repro.apps import echo

    def pushed(delay):
        session = repro.compile(echo.echo_loop(delay=delay),
                                optimize="auto")
        static = str(session.report())
        session.push(np.ones(4096))
        rep = session.report()
        (row,) = [s for s in rep.steps if s.step_kind == "feedback"]
        return static, rep, row

    static, short, row = pushed(1)
    assert "rounds" not in static  # nothing has run: nothing measured
    assert "6 nodes in 3 steps, 0 fall back\n" in static
    assert row.reason == "4096 rounds for 4096 firings (1 a firing)"
    assert ("6 nodes in 3 steps, 0 fall back, 1 island iterates per "
            "sample\n") in str(short)
    _, long, row = pushed(1024)
    assert row.reason == "4 rounds for 4096 firings (0.000977 a firing)"
    assert "6 nodes in 3 steps, 0 fall back\n" in str(long)
    assert [i.per_sample for i in short.islands + long.islands] \
        == [True, False]


def test_plan_report_on_bailout_graph():
    from repro.exec import plan_report
    loop = make_feedback_program(enqueued=())  # zero delay: unplannable
    prog = Pipeline([ListSource([1, 2, 3, 4]), loop, Collector()])
    rep = plan_report(prog)
    assert rep.bailout is not None and "feedback island" in rep.bailout
    assert "bailout" in str(rep)


def test_nonlinear_filters_fall_back():
    f = FilterBuilder("Square", peek=1, pop=1, push=1)
    with f.work():
        v = f.local("v", f.pop_expr())
        f.push(v * v)
    prog = Pipeline([FunctionSource(lambda n: float(n), "src"), f.build(),
                     Collector()])
    ex = compiled_plan_for(prog)[0]
    assert isinstance(ex, PlanExecutor)
    assert not any(isinstance(s, MatmulStep) for s in ex.steps)
    out = run_graph(prog, 8, backend="plan")
    assert out == [float(i * i) for i in range(8)]


# ---------------------------------------------------------------------------
# Ring buffers
# ---------------------------------------------------------------------------


def test_ring_fifo_and_peek():
    r = RingBuffer("t")
    for v in (1.0, 2.0, 3.0):
        r.push(v)
    assert len(r) == 3
    assert r.peek(2) == 3.0
    assert [r.pop(), r.pop(), r.pop()] == [1.0, 2.0, 3.0]
    with pytest.raises(InterpError):
        r.pop()
    with pytest.raises(InterpError):
        r.peek(0)


def test_ring_blocks_and_windows():
    r = RingBuffer()
    r.push_array(np.arange(8.0))
    np.testing.assert_array_equal(r.peek_block(3), [0.0, 1.0, 2.0])
    w = r.window_view(3, 2, 4)  # windows at stride 2, width 4
    np.testing.assert_array_equal(
        w, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])
    np.testing.assert_array_equal(r.pop_block_array(2), [0.0, 1.0])
    assert r.state().tolist() == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(InterpError):
        r.window_view(4, 2, 4)


def test_ring_growth_and_compaction():
    r = RingBuffer(capacity=64)
    expected = []
    for i in range(50_000):
        r.push(float(i))
        if i % 3 != 0:
            expected.append(r.pop())
    while len(r):
        expected.append(r.pop())
    assert expected == sorted(expected)
    assert len(expected) == 50_000


def test_ring_push_block_iterable():
    r = RingBuffer()
    r.push_block([1.0, 2.0])
    r.push_block(np.array([3.0, 4.0]))
    assert r.state().tolist() == [1.0, 2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_bench_cli_single_backend(capsys):
    assert bench_main(["--app", "fir", "--backend", "plan",
                       "--outputs", "256"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["app"] == "FIR"
    assert record["backend"] == "plan"
    assert record["outputs"] == 256
    assert record["flops"] > 0 and record["seconds"] > 0


def test_bench_cli_optimize_flag(capsys):
    assert bench_main(["--app", "fir", "--backend", "plan",
                       "--optimize", "auto", "--outputs", "256"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["optimize"] == "auto"
    assert record["flops"] > 0


def test_bench_cli_plan_report(capsys):
    assert bench_main(["--app", "radar", "--plan-report"]) == 0
    text = capsys.readouterr().out
    assert "plan report: Radar" in text
    assert "sinusoid    2 frequencies, counter n" in text  # InputGenerate
    assert "InputGenerate0 ×12" in text  # the 12 channels are one step
    assert "57 nodes in 12 steps, 0 fall back" in text


def test_build_app_case_insensitive():
    prog, name = build_app("filterbank", m=3, taps=12)
    assert name == "FilterBank"
    with pytest.raises(KeyError):
        build_app("nope")
