"""Shared measurement machinery for the benchmark harness (thesis §5.1).

The paper measures each benchmark under several *configurations*:

* ``original``  — the program as written,
* ``linear``    — maximal linear replacement (matrix multiply),
* ``linear_nc`` — linear replacement with combination disabled (each
  linear filter replaced individually; Figure 5-4's "(nc)"),
* ``freq``      — maximal frequency replacement,
* ``freq_nc``   — frequency replacement without combination,
* ``autosel``   — automatic optimization selection,
* ``linear_blas`` — linear replacement with the BLAS (ATLAS stand-in)
  matrix multiply backend (Figure 5-6),
* ``redund``    — redundancy-elimination replacement (Figure 5-10).

Each measurement runs the configured program for a fixed number of
outputs, recording floating-point operations (the DynamoRIO-substitute
profiler) and wall-clock execution time, both normalized per output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import InterpError
from .frequency import maximal_frequency_replacement
from .graph.streams import Filter, PrimitiveFilter, Stream, walk
from .linear import LinearNode, analyze, maximal_linear_replacement
from .linear.combine import LinearityMap, replace_with
from .numeric import DTYPE_CHOICES, resolve_policy
from .profiling import NullProfiler, Profiler
from .redundancy import RedundancyEliminationFilter
from .runtime import run_graph
from .selection import select_optimizations

#: Program outputs measured per configuration — sized so that the
#: coarsest-grained replaced filter (the frequency block, which pushes
#: u*(m+e-1) items per firing) completes several steady firings; a run
#: that only covers the first firing overstates per-output cost.  Radar
#: is the exception: its frequency blocks would need ~80k outputs, so it
#: runs fewer (the sign of its frequency result is unambiguous either
#: way; noted in EXPERIMENTS.md).
DEFAULT_OUTPUTS = {
    "FIR": 3200,
    "RateConvert": 2500,
    "TargetDetect": 9000,
    "FMRadio": 768,
    "Radar": 512,
    "FilterBank": 5200,
    "Vocoder": 600,
    "Oversampler": 15000,
    "DToA": 2600,
    "Echo": 20000,
    "VocoderEcho": 600,
    "IIR": 20000,
}

CONFIGS = ("original", "linear", "linear_nc", "freq", "freq_nc", "autosel",
           "linear_blas", "redund")


def leaf_only_lmap(stream: Stream) -> LinearityMap:
    """A linearity map with container entries dropped: disables combination."""
    full = analyze(stream)
    leaves = {id(s) for s in walk(stream)
              if isinstance(s, (Filter, PrimitiveFilter))}
    pruned = LinearityMap()
    pruned.nodes = {k: v for k, v in full.nodes.items() if k in leaves}
    pruned.reasons = dict(full.reasons)
    return pruned


def build_config(program: Stream, config: str) -> Stream:
    """Apply one named optimization configuration to a fresh program."""
    if config == "original":
        return program
    if config == "linear":
        return maximal_linear_replacement(program)
    if config == "linear_blas":
        return maximal_linear_replacement(program, backend="blas")
    if config == "linear_nc":
        return maximal_linear_replacement(program, combine=False)
    if config == "freq":
        return maximal_frequency_replacement(program)
    if config == "freq_nc":
        return maximal_frequency_replacement(program, combine=False)
    if config == "autosel":
        return select_optimizations(program).stream
    if config == "redund":
        def make_leaf(node: LinearNode, s: Stream, in_feedback: bool):
            return RedundancyEliminationFilter(node,
                                               name=f"NoRedund[{s.name}]")
        return replace_with(program, make_leaf)
    raise ValueError(f"unknown configuration {config!r}")


@dataclass
class Measurement:
    """Per-output metrics of one configuration run."""

    config: str
    outputs: int
    flops: int
    mults: int
    seconds: float

    @property
    def flops_per_output(self) -> float:
        return self.flops / self.outputs

    @property
    def mults_per_output(self) -> float:
        return self.mults / self.outputs

    @property
    def seconds_per_output(self) -> float:
        return self.seconds / self.outputs


def measure(program: Stream, config: str, n_outputs: int,
            backend: str = "compiled",
            optimize: str = "none", dtype=None,
            workers: int = 1) -> Measurement:
    """Build one configuration and measure FLOPs and wall time.

    ``optimize`` is the rewrite axis (independent of ``config``, which
    applies the paper's replacement passes directly).  Both the counting
    and the timing run go through a compiled
    :class:`~repro.session.StreamSession`, so the timed region measures
    steady-state execution only: the rewrite, planning probes, and
    schedule simulation are paid at ``compile`` time, outside the timer
    (for repeated plan measurements the plan cache makes even that
    one-time cost a hit).

    ``dtype`` selects the session's numeric policy (``"f32"``, ...):
    the plan backend computes natively in that dtype, scalar backends
    cast at the session boundary.

    ``workers`` > 1 (plan backend only) measures the parallel engine:
    the counting session still reports exact serial-equivalent FLOPs,
    the timed session exercises the worker pool.
    """
    from .session import compile as compile_session

    stream = build_config(program, config)
    if optimize != "none" and backend != "plan":
        from .exec import optimize_stream
        stream = optimize_stream(stream, optimize,
                                 policy=resolve_policy(dtype))
        optimize = "none"
    profiler = Profiler()
    counting = compile_session(stream, backend=backend, optimize=optimize,
                               profiler=profiler, dtype=dtype,
                               workers=workers)
    counting.run(n_outputs)
    counting.close()
    # separate timing session (profiling overhead excluded; plan setup
    # and scalar flattening excluded — compile happens before the timer).
    # Warm up, then take the best of three steady-state advances: small
    # configs time in microseconds, where a single cold sample is
    # noise-dominated (lazily compiled work functions, allocator state).
    timed = compile_session(stream, backend=backend, optimize=optimize,
                            profiler=NullProfiler(), dtype=dtype,
                            workers=workers)
    timed.run(min(n_outputs, 256))  # warmup advance
    t0 = time.perf_counter()
    timed.run(n_outputs)
    seconds = time.perf_counter() - t0
    # microsecond-scale configs (tiny FIRs) are timer-jitter-dominated:
    # size two more best-of samples so each timed region is >= ~10 ms,
    # amortizing the jitter over consecutive steady-state advances
    reps = max(1, min(200, int(1e-2 / max(seconds, 1e-9))))
    for _ in range(2):
        try:
            t0 = time.perf_counter()
            for _ in range(reps):
                timed.run(n_outputs)
            seconds = min(seconds, (time.perf_counter() - t0) / reps)
        except InterpError:
            break  # finite source exhausted: keep the samples we have
    timed.close()
    return Measurement(config, n_outputs, profiler.counts.flops,
                       profiler.counts.mults, seconds)


#: Default ``--chunked`` push size: large enough to amortize per-push
#: overhead, small enough to exercise many session advances per run.
DEFAULT_CHUNK_SIZE = 4096


def measure_chunked(program: Stream, config: str, n_outputs: int,
                    backend: str = "plan", optimize: str = "none",
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    dtype=None) -> Measurement:
    """Measure a push session fed fixed-size input chunks.

    The program's source/Collector harness is stripped
    (:func:`repro.apps.split_app`), the source's output is pregenerated,
    and the timed region is the push loop over one compiled session —
    the steady-state cost of incremental (streaming) execution, with no
    per-call planning and no per-sample boxing.
    """
    from .apps import split_app, source_values
    from .session import compile as compile_session

    stream = build_config(program, config)
    source, body = split_app(stream)
    if optimize != "none" and backend != "plan":
        from .exec import optimize_stream
        body = optimize_stream(body, optimize,
                               policy=resolve_policy(dtype))
        optimize = "none"

    # pregenerate input: enough source values to cover n_outputs at the
    # session's input/output rate, measured on a short probe push
    probe = compile_session(body, backend=backend, optimize=optimize,
                            profiler=NullProfiler(), dtype=dtype)
    fed = 0
    got = 0
    while got < max(64, n_outputs // 100):
        got += len(probe.push(source_values(source, chunk_size)))
        fed += chunk_size
    rate = max(fed / max(got, 1), 1.0)
    inputs = source_values(source, int(n_outputs * rate * 1.2) + fed)

    def push_all(session):
        produced = 0
        for start in range(0, len(inputs), chunk_size):
            produced += len(session.push(inputs[start:start + chunk_size]))
            if produced >= n_outputs:
                break
        if produced < n_outputs:
            raise RuntimeError(
                f"chunked run underfed: {produced}/{n_outputs} outputs")
        return produced

    profiler = Profiler()
    counting = compile_session(body, backend=backend, optimize=optimize,
                               profiler=profiler, dtype=dtype)
    produced = push_all(counting)
    timed = compile_session(body, backend=backend, optimize=optimize,
                            profiler=NullProfiler(), dtype=dtype)
    t0 = time.perf_counter()
    push_all(timed)
    seconds = time.perf_counter() - t0
    return Measurement(config, produced, profiler.counts.flops,
                       profiler.counts.mults, seconds)


def removal_percent(before: float, after: float) -> float:
    """Percent of operations removed (negative => operations added)."""
    if before == 0:
        return 0.0
    return 100.0 * (before - after) / before


def speedup_percent(t_before: float, t_after: float) -> float:
    """The paper's speedup metric: % decrease in execution time,
    e.g. 450% means the original takes 5.5x as long."""
    if t_after == 0:
        return float("inf")
    return 100.0 * (t_before / t_after - 1.0)


def _measurement_record(app: str, config: str, backend: str,
                        m: Measurement, optimize: str = "none",
                        dtype=None, workers: int | None = None) -> dict:
    rec = {
        "app": app,
        "config": config,
        "backend": backend,
        "optimize": optimize,
        "dtype": resolve_policy(dtype).name,
        "outputs": m.outputs,
        "flops": m.flops,
        "mults": m.mults,
        "seconds": round(m.seconds, 6),
        "flops_per_output": round(m.flops_per_output, 3),
        "seconds_per_output": m.seconds_per_output,
    }
    if workers is not None:
        # the workers column only appears when --workers was given, so
        # existing consumers of the record shape are unaffected
        rec["workers"] = workers
    return rec


def _worker_levels(workers: int) -> list[int]:
    """The scaling-table sweep: 1, powers of two up to, and, workers."""
    levels = {1, workers}
    w = 2
    while w < workers:
        levels.add(w)
        w *= 2
    return sorted(levels)


def parallel_scaling_report(app_name: str, make_program, config: str,
                            n_outputs: int, workers: int,
                            optimize: str = "none", dtype=None) -> tuple:
    """Measure the workers scaling sweep; return (report text, rows).

    Rows are ``(workers, flops, seconds, sec/out, speedup-vs-1)``; the
    speedup column is wall-clock workers=1 over workers=w, so >= 2.0 at
    w=4 is the paper-style scaling target (meaningful only on a box
    with that many cores — the report records ``os.cpu_count()``).
    """
    import os

    rows = []
    display = []
    base_seconds = None
    for w in _worker_levels(workers):
        m = measure(make_program(), config, n_outputs,
                    backend="plan", optimize=optimize, dtype=dtype,
                    workers=w)
        if base_seconds is None:
            base_seconds = m.seconds
        speedup = base_seconds / max(m.seconds, 1e-12)
        rows.append((w, m.flops, m.seconds, m.seconds_per_output,
                     speedup))
        display.append([w, m.flops, f"{m.seconds * 1e3:.3f} ms",
                        f"{m.seconds_per_output * 1e6:.3f} us",
                        f"{speedup:.2f}x"])
    title = (f"{app_name}: parallel scaling ({n_outputs} outputs, "
             f"optimize={optimize}, cpu_count={os.cpu_count()})")
    report = format_table(title, ["workers", "flops", "seconds",
                                  "sec/out", "speedup"], display)
    return report, rows


def _parse_dsl_args(text: str | None) -> tuple:
    """``"16,0.5"`` -> ``(16, 0.5)`` — ints where they parse as ints."""
    if not text:
        return ()
    values = []
    for part in text.replace(",", " ").split():
        try:
            values.append(int(part))
        except ValueError:
            values.append(float(part))
    return tuple(values)


def load_dsl_program(paths, top: str | None = None,
                     args: tuple = ()) -> Stream:
    """Elaborate ``.str`` file(s) into a runnable benchmark program.

    Multiple files are concatenated in order (the app-library
    convention: pass ``common.str`` before the files that use it).  The
    named ``top`` (default: the last declaration) must elaborate to a
    ``void->float`` stream; a Collector sink is appended so the result
    is a complete program for :func:`measure`.
    """
    from .dsl import compile_source
    from .graph.streams import Pipeline
    from .runtime import Collector

    if isinstance(paths, str):
        paths = [paths]
    parts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parts.append(fh.read())
    graph = compile_source("\n".join(parts), top, *args)
    children = list(graph.children) if isinstance(graph, Pipeline) \
        else [graph]
    children.append(Collector("BenchSink"))
    return Pipeline(children, name=graph.name or "DSLProgram")


def main(argv=None) -> int:
    """``python -m repro.bench``: run one app, emit a one-line JSON result.

    Examples::

        python -m repro.bench --app fir --backend plan --outputs 10000
        python -m repro.bench --app filterbank --compare
        python -m repro.bench --app radar --config linear --backend plan
        python -m repro.bench --app fir --backend plan --optimize auto
        python -m repro.bench --app fir --compare --dtype f32
        python -m repro.bench --app radar --plan-report --optimize auto
        python -m repro.bench --dsl examples/fir_bench.str --outputs 4096
        python -m repro.bench --dsl src/repro/apps/dsl/common.str \\
            --dsl src/repro/apps/dsl/fir.str --top FIRProgram \\
            --dsl-args 64 --compare

    ``--dsl`` benchmarks any DSL source file — the canonical frontend —
    through the same measurement machinery as the named apps (including
    ``--compare`` and ``--plan-report``); DSL diagnostics are rendered
    with caret snippets on parse failure.

    With ``--compare`` the app runs over the full backend x optimize
    matrix (``compiled``/``plan`` x ``none``/``linear``/``freq``/``auto``)
    emitting one record per cell under ``"cells"``, plus wall-clock
    speedup summaries — the trajectory-tracking mode used by CI and the
    benchmark suite.  ``--plan-report`` prints which nodes the planner
    vectorized and why the rest fall back to scalar firing.
    """
    import argparse
    import json

    from .apps import BENCHMARKS, resolve_app
    from .exec import OPTIMIZE_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one benchmark app and print a one-line JSON "
                    "result (FLOPs, mults, wall-clock).")
    parser.add_argument("--app",
                        help="app name, case-insensitive (fir, radar, ...)")
    parser.add_argument("--dsl", action="append", metavar="FILE",
                        help="benchmark a DSL source file instead of a "
                             "named app (repeatable: files are "
                             "concatenated in order)")
    parser.add_argument("--top", default=None,
                        help="top-level stream in the --dsl source "
                             "(default: the last declaration)")
    parser.add_argument("--dsl-args", default=None, metavar="A,B,...",
                        help="comma-separated numeric arguments for the "
                             "--dsl top stream")
    parser.add_argument("--backend", default=None,
                        choices=["interp", "compiled", "plan"],
                        help="execution backend (default: plan)")
    parser.add_argument("--outputs", type=int, default=None,
                        help="outputs to produce (default: the app's "
                             "paper-sized run)")
    parser.add_argument("--config", default="original", choices=CONFIGS,
                        help="optimization configuration to apply")
    parser.add_argument("--optimize", default=None, choices=OPTIMIZE_MODES,
                        help="pre-plan rewrite mode passed to run_graph "
                             "(default: none)")
    parser.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                        help="numeric policy for every measured session "
                             "(default: f64)")
    parser.add_argument("--workers", type=int, default=None,
                        help="run the plan backend on the parallel "
                             "engine with this many worker processes; "
                             "alone it also emits a 1..N scaling table "
                             "(see --parallel-out), with --compare it "
                             "adds parallel plan cells")
    parser.add_argument("--parallel-out", default="results/parallel.txt",
                        help="scaling-table path for --workers (default: "
                             "results/parallel.txt; 'none' to skip)")
    parser.add_argument("--compare", action="store_true",
                        help="measure the full backend x optimize matrix "
                             "and report speedups")
    parser.add_argument("--chunked", action="store_true",
                        help="measure a StreamSession fed fixed-size "
                             "pushes next to the batch session row")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="push size for --chunked "
                             f"(default: {DEFAULT_CHUNK_SIZE})")
    parser.add_argument("--plan-report", action="store_true",
                        help="print the plan's kernel choices and "
                             "fallback reasons, then exit")
    args = parser.parse_args(argv)

    if (args.app is None) == (not args.dsl):
        parser.error("exactly one of --app or --dsl is required")
    if not args.dsl and (args.top is not None or args.dsl_args is not None):
        parser.error("--top/--dsl-args require --dsl")
    if args.outputs is not None and args.outputs < 1:
        parser.error("--outputs must be a positive integer")
    if args.compare and (args.backend is not None
                         or args.optimize is not None):
        # --compare sweeps its own backend x optimize matrix; silently
        # dropping an explicit flag would misreport what was measured
        parser.error("--compare measures the full backend x optimize "
                     "matrix; it conflicts with --backend/--optimize")
    if args.compare and args.chunked:
        parser.error("--chunked measures one backend; it conflicts "
                     "with --compare")
    if args.chunk_size is not None and not args.chunked:
        parser.error("--chunk-size requires --chunked")
    if args.chunk_size is not None and args.chunk_size < 1:
        parser.error("--chunk-size must be a positive integer")
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be a positive integer")
        if args.backend in ("interp", "compiled"):
            parser.error(
                f"--workers runs the parallel plan engine; the scalar "
                f"{args.backend!r} backend executes in-process and "
                "cannot use worker processes (drop --backend or pass "
                "--backend plan)")
        if args.chunked or args.plan_report:
            parser.error("--workers measures batch plan sessions; it "
                         "conflicts with --chunked/--plan-report")
    backend = args.backend if args.backend is not None else "plan"
    optimize = args.optimize if args.optimize is not None else "none"
    workers = args.workers if args.workers is not None else 1
    if args.dsl:
        import sys

        from .errors import DSLError
        from .graph.streams import clone_stream
        try:
            prototype = load_dsl_program(args.dsl, args.top,
                                         _parse_dsl_args(args.dsl_args))
        except DSLError as exc:
            print(exc.render(), file=sys.stderr)
            return 2
        except OSError as exc:
            parser.error(str(exc))
        app_name = prototype.name

        def make_program():
            return clone_stream(prototype)

        n_outputs = args.outputs if args.outputs is not None else 4096
    else:
        try:
            app_name = resolve_app(args.app)
        except KeyError as exc:
            parser.error(str(exc.args[0]))

        def make_program():
            return BENCHMARKS[app_name]()

        n_outputs = args.outputs if args.outputs is not None else \
            DEFAULT_OUTPUTS[app_name]

    if args.plan_report:
        from .exec import plan_report
        program = build_config(make_program(), args.config)
        print(plan_report(program, optimize=optimize))
        return 0

    if args.chunked:
        chunk_size = (args.chunk_size if args.chunk_size is not None
                      else DEFAULT_CHUNK_SIZE)
        batch = measure(make_program(), args.config, n_outputs,
                        backend=backend, optimize=optimize,
                        dtype=args.dtype)
        chunked = measure_chunked(make_program(), args.config,
                                  n_outputs, backend=backend,
                                  optimize=optimize, chunk_size=chunk_size,
                                  dtype=args.dtype)
        # throughput ratio: >= 1.0 means chunked streaming is at least
        # as fast per output as the batch session
        ratio = (batch.seconds_per_output
                 / max(chunked.seconds_per_output, 1e-12))
        result = {
            "app": app_name,
            "config": args.config,
            "backend": backend,
            "optimize": optimize,
            "dtype": resolve_policy(args.dtype).name,
            "chunk_size": chunk_size,
            "batch": _measurement_record(app_name, args.config, backend,
                                         batch, optimize=optimize,
                                         dtype=args.dtype),
            "chunked": _measurement_record(app_name, args.config, backend,
                                           chunked, optimize=optimize,
                                           dtype=args.dtype),
            "chunked_vs_batch": round(ratio, 3),
        }
        print(json.dumps(result))
        return 0

    if args.compare:
        cells = []
        by = {}
        col_workers = 1 if args.workers is not None else None
        for backend in ("compiled", "plan"):
            for mode in OPTIMIZE_MODES:
                m = measure(make_program(), args.config, n_outputs,
                            backend=backend, optimize=mode,
                            dtype=args.dtype)
                rec = _measurement_record(app_name, args.config, backend, m,
                                          optimize=mode, dtype=args.dtype,
                                          workers=col_workers)
                cells.append(rec)
                by[(backend, mode)] = rec
        if workers > 1:
            for mode in OPTIMIZE_MODES:
                m = measure(make_program(), args.config, n_outputs,
                            backend="plan", optimize=mode,
                            dtype=args.dtype, workers=workers)
                rec = _measurement_record(app_name, args.config, "plan", m,
                                          optimize=mode, dtype=args.dtype,
                                          workers=workers)
                cells.append(rec)
                by[("plan", mode, workers)] = rec

        def ratio(a, b):
            return round(a["seconds"] / max(b["seconds"], 1e-12), 2)

        base = by[("compiled", "none")]
        plan = by[("plan", "none")]
        auto = by[("plan", "auto")]
        result = {
            "app": app_name,
            "config": args.config,
            "outputs": n_outputs,
            "dtype": resolve_policy(args.dtype).name,
            "cells": cells,
            "flops_equal": base["flops"] == plan["flops"],
            "speedup": ratio(base, plan),
            "speedup_auto": ratio(base, auto),
            "auto_vs_plan": ratio(plan, auto),
        }
        if workers > 1:
            plan_w = by[("plan", "none", workers)]
            auto_w = by[("plan", "auto", workers)]
            result["workers"] = workers
            # the parallel engine must preserve exact FLOP accounting
            result["flops_equal_workers"] = base["flops"] == plan_w["flops"]
            result["speedup_workers"] = ratio(base, auto_w)
            result["workers_vs_serial"] = ratio(auto, auto_w)
            result["workers_vs_serial_none"] = ratio(plan, plan_w)
    else:
        m = measure(make_program(), args.config, n_outputs,
                    backend=backend, optimize=optimize, dtype=args.dtype,
                    workers=workers)
        result = _measurement_record(
            app_name, args.config, backend, m, optimize=optimize,
            dtype=args.dtype,
            workers=(workers if args.workers is not None else None))
        if workers > 1 and args.parallel_out != "none":
            import os as _os
            report, rows = parallel_scaling_report(
                app_name, make_program, args.config, n_outputs, workers,
                optimize=optimize, dtype=args.dtype)
            _os.makedirs(_os.path.dirname(args.parallel_out) or ".",
                         exist_ok=True)
            with open(args.parallel_out, "a") as fh:
                fh.write(report + "\n\n")
            result["scaling"] = [
                {"workers": w, "flops": f, "seconds": round(s, 6),
                 "speedup": round(sp, 2)}
                for (w, f, s, _spo, sp) in rows]
            result["parallel_out"] = args.parallel_out
    print(json.dumps(result))
    return 0


def format_table(title: str, headers: list[str], rows: list[list],
                 width: int = 14) -> str:
    """Fixed-width text table used by every figure/table generator."""
    def fmt(cell):
        if isinstance(cell, float):
            return f"{cell:,.1f}"
        return str(cell)

    lines = [title, "=" * len(title)]
    head = "".join(h.ljust(width) for h in headers)
    lines.append(head)
    lines.append("-" * len(head))
    for row in rows:
        lines.append("".join(fmt(c).ljust(width) for c in row))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
