"""``python benchmarks/render.py``: regenerate ``results/``.

The one command that times the paper's figures.  It rewrites

* ``results/<name>.txt`` for every table of :data:`tables.TABLES` — the
  counted half; a run on unchanged code leaves ``git diff`` empty, and
  ``pytest benchmarks/`` pins the same bytes without writing anything;
* ``results/timing/<name>.txt`` for every table of :data:`TIMING` —
  the paper's speedup figures (5-3, 5-4 right, 5-5, 5-6, 5-8/5-9, 5-10
  bottom), the plan backend against the compiled one, and this
  machine's calibration.  Each names the machine and the commit it was
  taken on: the numbers are for reading, and no test or gate compares
  them (``perfbench/`` is the harness gates read).

Every timing is :func:`repro.bench.time_config` — a warm session, best
of three — with the DP on its analytic cost constants, whatever
calibration this machine has cached.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from functools import cache
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # run as a plain script

import numpy as np  # noqa: E402

import tables as T  # noqa: E402
from repro.apps import fir  # noqa: E402
from repro.bench import (DEFAULT_OUTPUTS, format_table,  # noqa: E402
                         speedup_percent, time_config)
from repro.exec import calibrate  # noqa: E402

RESULTS = os.path.join(ROOT, "results")


def sig3(x: float) -> str:
    """``x`` to three significant digits, never fewer: a 0.0521 us/out
    cell reads ``0.0521``, not ``format_table``'s ``0.1``."""
    if x == 0 or not math.isfinite(x):
        return f"{x:.1f}"
    return f"{x:,.{max(0, 2 - math.floor(math.log10(abs(x))))}f}"


def cells(rows: list[list]) -> list[list]:
    return [[sig3(c) if isinstance(c, float) else c for c in row]
            for row in rows]


@cache
def timed(name: str, config: str) -> float:
    """Seconds per output of one (benchmark, configuration)."""
    n = DEFAULT_OUTPUTS[name]
    return time_config(T.build(name), config, n) / n


def speedup_rows(configs) -> list[list]:
    """The paper's metric — % decrease in time per output against the
    original program — one row a benchmark."""
    return [[name] + [speedup_percent(timed(name, "original"),
                                      timed(name, config))
                      for config in configs]
            for name in T.BENCH_NAMES]


def fig_5_3() -> str:
    return format_table(
        "Figure 5-3: execution speedup (% decrease in time/output)",
        ["Benchmark", "linear", "freq", "autosel"],
        cells(T.with_average(speedup_rows(("linear", "freq", "autosel")))))


def fig_5_4() -> str:
    return format_table(
        "Figure 5-4 (right): speedup %, with/without combination",
        ["Benchmark", "linear(nc)", "linear", "freq(nc)", "freq"],
        cells(speedup_rows(T.COMBINATION_CONFIGS)))


def fig_5_5() -> str:
    return format_table(
        "Figure 5-5: speedup increase due to combination (percentage "
        "points)",
        ["Benchmark", "linear", "freq"],
        cells([[name, lin - lin_nc, freq - freq_nc]
               for name, lin_nc, lin, freq_nc, freq
               in speedup_rows(T.COMBINATION_CONFIGS)]))


def fig_5_6() -> str:
    return format_table(
        "Figure 5-6: speedup of linear replacement, direct vs BLAS "
        "(ATLAS stand-in)",
        ["Benchmark", "direct", "blas"],
        cells(speedup_rows(("linear", "linear_blas"))))


def fig_5_8() -> str:
    rows = []
    for n, model in T.fir_cost_model_rows():
        program = fir.build(taps=n)
        t_orig, t_freq = (
            time_config(program, config, T.FIR_SCALING_OUTPUTS)
            / T.FIR_SCALING_OUTPUTS for config in ("original", "freq"))
        rows.append([n, speedup_percent(t_orig, t_freq), 1e6 * t_orig,
                     1e6 * t_freq, t_freq / t_orig, model])
    return format_table(
        "Figures 5-8 / 5-9: FIR under frequency replacement — speedup, "
        "time per output (us),\nand the measured t_freq/t_orig beside "
        "the cost model's",
        ["taps", "speedup %", "t_orig", "t_freq", "t_freq/t_orig",
         "model"], cells(rows), width=16)


def fig_5_10() -> str:
    rows = []
    for n in T.REDUNDANCY_SIZES:
        program = fir.build(taps=n)
        rows.append([n, speedup_percent(
            *(time_config(program, config, T.REDUNDANCY_OUTPUTS)
              for config in ("original", "redund")))])
    return format_table(
        "Figure 5-10 (bottom): speedup % of redundancy elimination vs "
        "FIR size",
        ["taps", "speedup %"], cells(rows), width=20)


def plan_backend() -> str:
    """ROADMAP item 6's "every app >= 20x" reads the ``x`` columns."""
    rows = []
    for name, build, n in T.PLAN_CASES:
        t_c, t_plan, t_auto, t_f32 = (
            time_config(build(), "original", n, **cell) / n for cell in (
                dict(backend="compiled"), dict(backend="plan"),
                dict(backend="plan", optimize="auto"),
                dict(backend="plan", dtype="f32")))
        rows.append([name, n, 1e6 * t_c, 1e6 * t_plan, 1e6 * t_auto,
                     1e6 * t_f32, t_c / t_plan, t_c / t_auto])
    return format_table(
        "Plan backend vs compiled backend: warm time per output (us)\n"
        "(auto = optimize=\"auto\"; f32 = plan under the float32 policy; "
        "x = compiled / plan)",
        ["program", "outputs", "us/out (c)", "us/out (plan)",
         "us/out (auto)", "us/out (f32)", "x (plan)", "x (auto)"],
        cells(rows))


def calibration() -> str:
    """The DP's FFT-vs-matmul decision under the modeled 2.0x penalty
    and under this machine's measured ratio (thesis §5's ATLAS
    argument), from a calibration measured into a throwaway cache."""
    from repro.exec.kernels import stateful_block_length
    from repro.frequency.fftlib import fft_size_for
    from repro.linear import LinearNode
    from repro.numeric import POLICIES
    from repro.selection.costs import (FFT_THROUGHPUT_PENALTY,
                                       batched_direct_cost,
                                       batched_frequency_cost)

    def decision(node, policy):
        return ("freq" if batched_frequency_cost(node, policy=policy)
                < batched_direct_cost(node) else "linear")

    names = ("f64", "f32")
    decisions, blocks = [], []
    # measured into a throwaway cache; analytic_only puts back whatever
    # was active before ensure_calibration activated this one
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.dict(os.environ, REPRO_CALIBRATION_DIR=scratch), \
            calibrate.analytic_only():
        cal, _ = calibrate.ensure_calibration(dtypes=names)
        for name in names:
            policy = POLICIES[name]
            for taps in (16, 64, 256, 1024):
                node = LinearNode(A=np.full((taps, 1), 1.0 / taps),
                                  b=np.zeros(1), peek=taps, pop=1, push=1)
                n = fft_size_for(taps)
                with calibrate.analytic_only():
                    modeled = decision(node, policy)
                decisions.append([
                    name, taps, n, FFT_THROUGHPUT_PENALTY,
                    cal.fft_matmul_ratio(name, peek=taps, fft_size=n),
                    modeled, decision(node, policy)])
            with calibrate.analytic_only():
                fixed = stateful_block_length(1, 1, policy)
            blocks.append([name, fixed,
                           stateful_block_length(1, 1, policy)])
    return format_table(
        "Selection DP: FFT-vs-matmul penalty and the resulting decision\n"
        "(a = modeled 2.0x constant; m = this machine's calibrated "
        "fft/matmul ns-per-flop ratio)",
        ["dtype", "taps", "fft n", "penalty (a)", "penalty (m)",
         "decision (a)", "decision (m)"], cells(decisions)) + "\n\n" + \
        format_table("Lifted stateful block length (pop=1, push=1)",
                     ["dtype", "fixed cap", "calibrated"], blocks)


#: file stem under ``results/timing/`` -> the function that measures it
TIMING = {
    "fig_5_3_speedup": fig_5_3,
    "fig_5_4_combination": fig_5_4,
    "fig_5_5_combination_delta": fig_5_5,
    "fig_5_6_atlas": fig_5_6,
    "fig_5_8_fir_scaling": fig_5_8,
    "fig_5_10_redundancy": fig_5_10,
    "plan_backend": plan_backend,
    "calibration": calibration,
}


def provenance() -> str:
    """Where and on what the timings were taken."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        if git("status", "--porcelain", "--", ".", ":!results"):
            commit += " + uncommitted changes"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    machine = ", ".join(f"{k} {v}" for k, v
                        in calibrate.machine_fingerprint().items())
    return (f"# machine: {machine}, cpu_count {os.cpu_count()}\n"
            f"# commit: {commit}\n")


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(os.path.relpath(path, ROOT), flush=True)


def main() -> int:
    head = provenance()
    os.makedirs(os.path.join(RESULTS, "timing"), exist_ok=True)
    for name, table in T.TABLES.items():
        write(os.path.join(RESULTS, f"{name}.txt"), table() + "\n")
    for name, table in TIMING.items():
        with calibrate.analytic_only():
            text = table()
        write(os.path.join(RESULTS, "timing", f"{name}.txt"),
              head + text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
