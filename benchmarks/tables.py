"""The deterministic half of the paper's evaluation (thesis §5): counts.

Every table here is a pure function of the repository — FLOPs and
multiplications counted by the profiler, cost-model ratios, construct
counts — so its text is checked in as ``results/<name>.txt`` and
``test_tables.py`` asserts the rebuilt bytes equal the file's.
:data:`TABLES` is the registry: a table is deterministic because it is
in it.  The per-figure test modules assert the paper's *shapes* on the
same memoized rows; ``render.py`` adds the timed half under
``results/timing/``.  Nothing in this module reads a clock or opens a
file.
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from repro.apps import (BENCHMARKS, echo, filterbank, fir, iir, radar,
                        vocoder)
from repro.bench import (DEFAULT_OUTPUTS, Measurement, build_config,
                         format_table, measure, removal_percent)
from repro.frequency import make_frequency_stream
from repro.graph import Filter, Pipeline, PrimitiveFilter, SplitJoin, walk
from repro.linear import LinearFilter, LinearNode, analyze
from repro.linear.pipeline_comb import combine_pipeline_pair
from repro.profiling import Profiler
from repro.runtime import run_stream
from repro.selection import direct_cost, frequency_cost

#: The paper's nine benchmarks, at paper-scale parameters (the defaults
#: of each app module).
BENCH_NAMES = ["FIR", "RateConvert", "TargetDetect", "FMRadio", "Radar",
               "FilterBank", "Vocoder", "Oversampler", "DToA"]


#: The plan-backend sweep, ``(row, build, outputs)``: parity and census
#: in ``test_plan_backend.py``, time per output in ``render.py``.  Echo
#: and VocoderEcho are the feedback-bearing rows (plan islands).
PLAN_CASES = [
    ("FIR(64)", lambda: fir.build(taps=64), 8192),
    ("FIR(256)", lambda: fir.build(taps=256), 8192),
    ("FilterBank", filterbank.build, 2000),
    ("Radar", radar.build, 256),
    ("Vocoder", vocoder.build, 1200),
    ("Echo(1024)", echo.build, 20000),
    ("VocoderEcho", vocoder.build_feedback, 1200),
    ("IIR", iir.build, 20000),
]


@cache
def build(name: str):
    return BENCHMARKS[name]()


@cache
def counted(name: str, config: str) -> Measurement:
    """Figures 5-1, 5-2 and 5-4 are views of the same runs: one counting
    session per (benchmark, configuration) for the whole process."""
    return measure(build(name), config, DEFAULT_OUTPUTS[name])


def with_average(rows: list[list]) -> list[list]:
    width = len(rows[0])
    return rows + [["average"] + [sum(r[i] for r in rows) / len(rows)
                                  for i in range(1, width)]]


# -- Figures 5-1 / 5-2: operations removed ---------------------------------


@cache
def removal_rows(metric: str) -> list[list]:
    """% of ``flops_per_output`` / ``mults_per_output`` removed by
    linear, freq and autosel, one row a benchmark plus the average."""
    rows = []
    for name in BENCH_NAMES:
        base = getattr(counted(name, "original"), metric)
        rows.append([name] + [
            removal_percent(base, getattr(counted(name, config), metric))
            for config in ("linear", "freq", "autosel")])
    return with_average(rows)


def fig_5_1() -> str:
    return format_table(
        "Figure 5-1: % floating point operations removed",
        ["Benchmark", "linear", "freq", "autosel"],
        removal_rows("flops_per_output"))


def fig_5_2() -> str:
    return format_table(
        "Figure 5-2: % floating point multiplications removed",
        ["Benchmark", "linear", "freq", "autosel"],
        removal_rows("mults_per_output"))


# -- Figure 5-4 (left): multiplication removal, with/without combination ---

COMBINATION_CONFIGS = ("linear_nc", "linear", "freq_nc", "freq")


@cache
def combination_rows() -> list[list]:
    rows = []
    for name in BENCH_NAMES:
        base = counted(name, "original").mults_per_output
        rows.append([name] + [
            removal_percent(base, counted(name, config).mults_per_output)
            for config in COMBINATION_CONFIGS])
    return rows


def fig_5_4() -> str:
    return format_table(
        "Figure 5-4 (left): % multiplications removed, with/without "
        "combination",
        ["Benchmark", "linear(nc)", "linear", "freq(nc)", "freq"],
        combination_rows())


# -- Figures 5-8 / 5-9: FIR scaling under frequency replacement -------------

FIR_SIZES = [2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128]
#: enough outputs that even the 128-tap frequency block (which pushes
#: m+e-1 = 384 items per firing) completes several steady firings
FIR_SCALING_OUTPUTS = 2048


@cache
def fir_scaling_rows() -> list[list]:
    """``[taps, % multiplications removed by freq]``."""
    rows = []
    for n in FIR_SIZES:
        program = fir.build(taps=n)
        base = measure(program, "original", FIR_SCALING_OUTPUTS)
        freq = measure(program, "freq", FIR_SCALING_OUTPUTS)
        rows.append([n, removal_percent(base.mults_per_output,
                                        freq.mults_per_output)])
    return rows


def fig_5_8() -> str:
    return format_table(
        "Figure 5-8: FIR multiplication removal under frequency "
        "replacement",
        ["taps", "mult removed %"], fir_scaling_rows())


@cache
def fir_cost_model_rows() -> list[list]:
    """``[taps, the selector's predicted t_freq / t_orig]``."""
    rows = []
    for n in FIR_SIZES:
        node = LinearNode.from_coefficients([[1.0] * n], [0.0], pop=1)
        rows.append([n, frequency_cost(node) / direct_cost(node)])
    return rows


def fig_5_9() -> str:
    return format_table(
        "Figure 5-9: the cost model's frequency/direct ratio vs FIR size",
        ["taps", "model t_freq/t_orig"], fir_cost_model_rows(), width=20)


# -- Figure 5-10 (top): redundancy elimination ------------------------------

REDUNDANCY_SIZES = [5, 6, 7, 8, 9, 10, 11, 12, 16, 17, 24, 25, 32, 33, 48,
                    64]
REDUNDANCY_OUTPUTS = 256


@cache
def redundancy_rows() -> list[list]:
    """``[taps, % of multiplications, % of FLOPs]`` remaining under
    redund."""
    rows = []
    for n in REDUNDANCY_SIZES:
        program = fir.build(taps=n)
        base = measure(program, "original", REDUNDANCY_OUTPUTS)
        red = measure(program, "redund", REDUNDANCY_OUTPUTS)
        rows.append([n, 100.0 * red.mults / base.mults,
                     100.0 * red.flops / base.flops])
    return rows


def fig_5_10() -> str:
    return format_table(
        "Figure 5-10 (top): operations remaining under redundancy "
        "elimination vs FIR size",
        ["taps", "mults remaining %", "flops remaining %"],
        redundancy_rows(), width=20)


# -- Figure 5-11: Radar scaling ---------------------------------------------

RADAR_CHANNELS = [4, 8, 12]
RADAR_BEAMS = [1, 2, 4]


@cache
def radar_grid() -> dict:
    """``(channels, beams)`` -> % multiplications removed by linear."""
    grid = {}
    for ch in RADAR_CHANNELS:
        for b in RADAR_BEAMS:
            program = radar.build(channels=ch, beams=b)
            base = measure(program, "original", 48 * b)
            lin = measure(program, "linear", 48 * b)
            grid[(ch, b)] = removal_percent(base.mults_per_output,
                                            lin.mults_per_output)
    return grid


def fig_5_11() -> str:
    grid = radar_grid()
    return format_table(
        "Figure 5-11: Radar multiplication reduction (%) under maximal "
        "linear replacement",
        ["channels\\beams"] + [f"beams={b}" for b in RADAR_BEAMS],
        [[f"ch={ch}"] + [grid[(ch, b)] for b in RADAR_BEAMS]
         for ch in RADAR_CHANNELS], width=16)


# -- Figure 5-12: FFT savings, theory vs practice ---------------------------

FFT_FIR_SIZES = [8, 16, 32, 64, 128]
FFT_SIZES = [64, 128, 256, 512]
FFT_STRATEGIES = {"naive": ("naive", "simple"),
                  "optimized": ("optimized", "simple"),
                  "fftw": ("optimized", "fftw")}


def fft_node(n_taps: int) -> LinearNode:
    coeffs = [math.sin(0.3 * k) + 1.1 for k in range(n_taps)]
    return LinearNode.from_coefficients([coeffs], [0.0], pop=1)


def freq_mults_per_output(node, strategy, backend, fft_size) -> float:
    stream = make_frequency_stream(node, strategy=strategy,
                                   backend=backend, fft_size=fft_size)
    prof = Profiler()
    rng = np.random.default_rng(0)
    # enough outputs for many steady firings, so the one-off initWork of
    # the optimized strategy (which behaves like the naive one) amortizes
    n_out = max(256, 12 * fft_size)
    inputs = rng.normal(size=n_out + 4 * fft_size).tolist()
    run_stream(stream, inputs, n_out, profiler=prof)
    return prof.counts.mults / n_out


def theoretical_factor(e: int, n: int) -> float:
    """e mults direct vs (2 FFTs + pointwise product) per m outputs."""
    m = n - 2 * e + 1
    return e / ((2 * (n / 2) * math.log2(n) * 4 + 4 * n) / m)


@cache
def fft_grid() -> dict:
    """``(fir size, fft size)`` -> multiplication reduction *factor*
    (direct mults/output over optimized) per strategy."""
    grid = {}
    for e in FFT_FIR_SIZES:
        node = fft_node(e)
        for n in FFT_SIZES:
            if n - 2 * e + 1 < 1:
                continue
            cell = {"theory": theoretical_factor(e, n)}
            for key, (strategy, backend) in FFT_STRATEGIES.items():
                cell[key] = e / freq_mults_per_output(node, strategy,
                                                      backend, n)
            grid[(e, n)] = cell
    return grid


def fig_5_12(key: str) -> str:
    grid = fft_grid()
    rows = [[f"fir={e}"] + [round(grid[(e, n)][key], 2) if (e, n) in grid
                            else float("nan") for n in FFT_SIZES]
            for e in FFT_FIR_SIZES]
    return format_table(
        f"Figure 5-12 ({key}): multiplication reduction factor",
        ["fir\\fft"] + [f"N={n}" for n in FFT_SIZES], rows, width=12)


# -- Ablation: the chanPop knob of pipeline combination ---------------------

CHANPOP_MULTIPLIERS = [1, 2, 4, 8, 16]


def chanpop_nodes():
    rng = np.random.default_rng(7)
    n1 = LinearNode(rng.normal(size=(4, 1)), np.zeros(1), 4, 1, 1)
    # downstream peeks 12, pops 2: heavy regeneration at small chanPop
    n2 = LinearNode(rng.normal(size=(12, 1)), np.zeros(1), 12, 2, 1)
    return n1, n2


def chanpop_combined(k: int) -> LinearNode:
    n1, n2 = chanpop_nodes()
    return combine_pipeline_pair(
        n1, n2, chan_pop=int(np.lcm(n1.push, n2.pop)) * k)


@cache
def chanpop_rows() -> list[list]:
    """``[k, peek, push, nnz, mults/output]`` of the collapsed pair."""
    rows = []
    for k in CHANPOP_MULTIPLIERS:
        combined = chanpop_combined(k)
        prof = Profiler()
        n_out = 40 * combined.push
        inputs = np.random.default_rng(8).normal(
            size=combined.peek + combined.pop * 50).tolist()
        run_stream(LinearFilter(combined), inputs, n_out, profiler=prof)
        rows.append([k, combined.peek, combined.push, combined.nnz,
                     prof.counts.mults / n_out])
    return rows


def ablation_chanpop() -> str:
    return format_table(
        "Ablation: chanPop multiplier in pipeline combination "
        "(peeking downstream)",
        ["k", "peek", "push", "nnz", "mults/output"], chanpop_rows())


# -- Table 5.2: benchmark characteristics -----------------------------------


def characterize(stream) -> dict:
    """Construct counts (and how many of each are linear) plus the
    average combined-vector size."""
    lmap = analyze(stream)
    counts = {"filters": 0, "lin_filters": 0, "pipelines": 0,
              "lin_pipelines": 0, "splitjoins": 0, "lin_splitjoins": 0}
    vector_sizes = []
    for s in walk(stream):
        linear = lmap.is_linear(s)
        if isinstance(s, (Filter, PrimitiveFilter)):
            kind = "filters"
        elif isinstance(s, Pipeline):
            kind = "pipelines"
        elif isinstance(s, SplitJoin):
            kind = "splitjoins"
        else:
            continue
        counts[kind] += 1
        counts["lin_" + kind] += linear
        if linear:
            node = lmap.node_for(s)
            vector_sizes.append(node.peek * node.push)
    counts["avg_vector"] = float(np.mean(vector_sizes)) if vector_sizes \
        else 0.0
    return counts


@cache
def characteristics(name: str) -> tuple[dict, dict]:
    """``(before, after autosel)`` for one benchmark."""
    return (characterize(build(name)),
            characterize(build_config(build(name), "autosel")))


def table_5_2() -> str:
    before_rows, after_rows = [], []
    for name in BENCH_NAMES:
        c, a = characteristics(name)
        before_rows.append([
            name,
            f"{c['filters']} ({c['lin_filters']})",
            f"{c['pipelines']} ({c['lin_pipelines']})",
            f"{c['splitjoins']} ({c['lin_splitjoins']})",
            round(c["avg_vector"], 0),
        ])
        after_rows.append([name, a["filters"], a["pipelines"],
                           a["splitjoins"]])
    before = format_table(
        "Table 5.2 (top): benchmark characteristics, original programs",
        ["Benchmark", "Filters(lin)", "Pipes(lin)", "SJs(lin)",
         "AvgVector"],
        before_rows, width=15)
    after = format_table(
        "Table 5.2 (bottom): after automatic optimization selection",
        ["Benchmark", "Filters", "Pipelines", "SplitJoins"],
        after_rows, width=15)
    return before + "\n\n" + after


#: file stem under ``results/`` -> the function that rebuilds its text
TABLES = {
    "ablation_chanpop": ablation_chanpop,
    "fig_5_1_flops": fig_5_1,
    "fig_5_2_mults": fig_5_2,
    "fig_5_4_combination": fig_5_4,
    "fig_5_8_fir_scaling": fig_5_8,
    "fig_5_9_fir_cost_model": fig_5_9,
    "fig_5_10_redundancy": fig_5_10,
    "fig_5_11_radar_scaling": fig_5_11,
    **{f"fig_5_12_{key}": partial(fig_5_12, key)
       for key in ("theory", "naive", "optimized", "fftw")},
    "table_5_2": table_5_2,
}
