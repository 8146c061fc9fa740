"""Vectorized plan backend (plain and optimizing) vs the scalar backend.

The thesis' uniprocessor backend fires filters one item at a time; the
plan backend executes the same schedule in batches.  Since PR 2 the plan
pipeline also (a) rewrites the graph first (``optimize=`` — maximal
linear/frequency replacement or the batched-cost selection DP), (b) runs
collapsed tall-peek filters as batched overlap-save FFT convolutions,
and (c) caches plans by graph content, so repeated runs skip rewriting
and extraction probing (the schedule is driven live, O(nodes) a call).

Since PR 3 feedback loops execute as plan *islands* (hybrid islanding),
so the sweep includes two feedback-bearing rows (Echo, VocoderEcho).

The sweep measures wall-clock per output on FIR, FilterBank, Radar,
Vocoder, Echo and VocoderEcho under four execution strategies:

* ``us/out (c)``     — scalar compiled backend,
* ``us/out (cold)``  — the PR 1 plan backend: no cache, no rewrite,
  planning paid on every run,
* ``us/out (plan)``  — cached plan backend, ``optimize="none"``,
* ``us/out (auto)``  — cached plan backend, ``optimize="auto"``,

asserting FLOP parity (plain plan vs compiled), that the auto run's FLOP
profile equals the selection DP's predicted implementation executed on
the scalar backend, and the ISSUE speedup bars (IIR's and Radar's
kernel census and FLOPs are gates; their ratios are only printed).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from conftest import once, report
from repro.apps import echo, filterbank, fir, iir, radar, vocoder
from repro.bench import format_table
from repro.exec import clear_plan_cache, plan_executor_for, plan_report
from repro.profiling import NullProfiler, Profiler
from repro.runtime import run_graph
from repro.selection import select_optimizations

CASES = [
    ("FIR(64)", lambda: fir.build(taps=64), 8192),
    ("FIR(256)", lambda: fir.build(taps=256), 8192),
    ("FilterBank", filterbank.build, 2000),
    ("Radar", radar.build, 256),
    ("Vocoder", vocoder.build, 1200),
    ("Echo(1024)", echo.build, 20000),
    ("VocoderEcho", vocoder.build_feedback, 1200),
    ("IIR", iir.build, 20000),
]

#: Feedback rows: value parity is exact, but the island advances the
#: cycle in whole steady iterations, so tail-of-run FLOP counts (and
#: the DP's scalar-predicted profile) are not bit-identical.
FEEDBACK_CASES = {"Echo(1024)", "VocoderEcho"}


def _time_backend(build, n_outputs, backend, optimize="none", repeats=3):
    """Best-of-k wall clock, so one noisy sample can't fail CI."""
    run_graph(build(), min(n_outputs, 256), NullProfiler(), backend=backend,
              optimize=optimize)  # warmup (also warms the plan cache)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_graph(build(), n_outputs, NullProfiler(), backend=backend,
                  optimize=optimize)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_cold_plan(build, n_outputs, repeats=3):
    """The PR 1 plan backend: planning from scratch on every run."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        plan_executor_for(build(), NullProfiler(),
                          cache=False).run(n_outputs)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_plan_f32(build, n_outputs, repeats=3):
    """The cached plan backend under the float32 numeric policy."""
    from repro.session import StreamSession

    def run_once(n):
        session = StreamSession(build(), backend="plan", dtype="f32",
                                profiler=NullProfiler(),
                                _program_mode=True)
        try:
            session._advance_raw(n)
        finally:
            session.close()

    run_once(min(n_outputs, 256))  # warm the f32-keyed plan cache
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once(n_outputs)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def sweep():
    clear_plan_cache()
    rows = []
    metrics = {}
    for name, build, n_outputs in CASES:
        p_c, p_p, p_a = Profiler(), Profiler(), Profiler()
        out_c = run_graph(build(), n_outputs, p_c, backend="compiled")
        out_p = run_graph(build(), n_outputs, p_p, backend="plan")
        out_a = run_graph(build(), n_outputs, p_a, backend="plan",
                          optimize="auto")
        np.testing.assert_allclose(out_p, out_c, atol=1e-9)
        np.testing.assert_allclose(out_a, out_c, atol=1e-7)
        if name not in FEEDBACK_CASES:
            assert p_c.counts.flops == p_p.counts.flops
            # the auto plan's FLOP profile must equal the DP's predicted
            # implementation executed on the scalar backend
            predicted = select_optimizations(build(), cost_model="batched",
                                             stateful=True).stream
            p_pred = Profiler()
            run_graph(predicted, n_outputs, p_pred, backend="compiled")
            assert p_a.counts.flops == p_pred.counts.flops
        t_c = _time_backend(build, n_outputs, "compiled")
        t_cold = _time_cold_plan(build, n_outputs)
        t_p = _time_backend(build, n_outputs, "plan")
        t_a = _time_backend(build, n_outputs, "plan", "auto")
        t_f32 = _time_plan_f32(build, n_outputs)
        rows.append([name, n_outputs,
                     1e6 * t_c / n_outputs, 1e6 * t_cold / n_outputs,
                     1e6 * t_p / n_outputs, 1e6 * t_a / n_outputs,
                     1e6 * t_f32 / n_outputs,
                     t_c / t_p, t_c / t_a])
        metrics[name] = {"compiled": t_c, "cold": t_cold, "plan": t_p,
                         "auto": t_a, "plan_f32": t_f32,
                         "auto_flops": p_a.counts.flops,
                         "plan_flops": p_p.counts.flops,
                         "compiled_flops": p_c.counts.flops}
    return rows, metrics


def test_plan_backend_speedup_table(benchmark, sweep):
    once(benchmark)
    rows, _ = sweep
    table = format_table(
        "Optimizing plan pipeline vs compiled backend: wall-clock per "
        "output\n(cold = PR 1 behavior: no plan cache, no rewrite; "
        "auto = optimize=\"auto\"; f32 = plan under the float32 policy)",
        ["program", "outputs", "us/out (c)", "us/out (cold)",
         "us/out (plan)", "us/out (auto)", "us/out (f32)",
         "x (plan)", "x (auto)"],
        rows, width=14)
    report("plan_backend", table)
    assert len(rows) == len(CASES)


def test_plan_speedup_meets_bar_on_fir(benchmark, sweep):
    """Acceptance: >= 3x over compiled on FIR at N >= 64 taps."""
    once(benchmark)
    rows, _ = sweep
    speedups = {row[0]: row[7] for row in rows}
    assert speedups["FIR(64)"] >= 3.0
    assert speedups["FIR(256)"] >= 3.0


def test_optimized_plan_beats_pr1_plan(benchmark, sweep):
    """Acceptance: optimize="auto" beats the PR 1 plan backend (cold
    planning, graph as written) on FilterBank and Radar."""
    once(benchmark)
    _, metrics = sweep
    for name in ("FilterBank", "Radar"):
        assert metrics[name]["auto"] < metrics[name]["cold"], name


def test_optimized_plan_beats_cached_plan_on_filterbank(benchmark, sweep):
    """The rewrite itself (not just caching) pays: FilterBank's collapsed
    graph beats the as-written graph under the same cached planner."""
    once(benchmark)
    _, metrics = sweep
    assert metrics["FilterBank"]["auto"] < metrics["FilterBank"]["plan"]


def test_stateful_app_runs_batched_kernels(benchmark, sweep):
    """Acceptance: the stateful-linear IIR cascade advances through
    lifted StatefulLinearStep kernels behind a replayed source, at the
    compiled backend's exact FLOPs.  Its wall-clock ratio is the
    ``x (plan)`` column of results/plan_backend.txt and gates nothing:
    it measured 16.2x, 6.6x and 3.8x on one box with no code change."""
    once(benchmark)
    _, metrics = sweep
    kinds = Counter(s.step_kind for s in plan_report(iir.build()).steps)
    assert kinds["stateful"] == 4
    assert kinds["periodic-source"] == 1
    assert kinds["fallback"] == 0
    assert metrics["IIR"]["plan_flops"] == metrics["IIR"]["compiled_flops"]


def test_radar_runs_no_scalar_firing(benchmark, sweep):
    """Acceptance: Radar's 12 counter sources, 4 Magnitude and 4
    Detector stages run as lane kernels — no node is left to scalar
    firing — at the compiled backend's exact FLOPs.  Its wall-clock
    ratio is the ``x (plan)`` column of results/plan_backend.txt."""
    once(benchmark)
    _, metrics = sweep
    kinds = Counter()
    for s in plan_report(radar.build()).steps:
        kinds[s.step_kind] += s.width  # sibling branches share a step
    assert kinds["lanes"] == 20
    assert kinds["fallback"] == 0
    assert metrics["Radar"]["plan_flops"] == \
        metrics["Radar"]["compiled_flops"]


def test_feedback_apps_meet_plan_bar(benchmark, sweep):
    """Acceptance: feedback-bearing apps no longer forfeit the plan
    backend — Echo must beat compiled outright (its non-loop region and
    its linear loop body both batch), and VocoderEcho must at least
    match it despite the cycle."""
    once(benchmark)
    _, metrics = sweep
    assert metrics["Echo(1024)"]["compiled"] / \
        metrics["Echo(1024)"]["plan"] >= 1.0
    assert metrics["VocoderEcho"]["compiled"] / \
        metrics["VocoderEcho"]["plan"] >= 0.9


def test_radar_well_above_its_pr1_speedup(benchmark, sweep):
    """Acceptance: Radar was 1.5x over compiled under PR 1; the cached
    optimizing pipeline must be well above that."""
    once(benchmark)
    _, metrics = sweep
    assert metrics["Radar"]["compiled"] / metrics["Radar"]["auto"] > 2.0


def test_plan_never_slows_down(benchmark, sweep):
    """Fallback-heavy programs approach compiled speed from above; allow
    timing noise but catch real regressions."""
    once(benchmark)
    rows, _ = sweep
    assert all(row[7] > 0.8 for row in rows)


def test_float32_plan_on_par_with_compiled(benchmark, sweep):
    """The reduced-precision plan path must not forfeit the plan
    backend's advantage: float32 FIR stays at least on par with the
    scalar compiled backend (locally it matches the f64 plan row)."""
    once(benchmark)
    _, metrics = sweep
    assert metrics["FIR(256)"]["compiled"] / \
        metrics["FIR(256)"]["plan_f32"] >= 1.0
