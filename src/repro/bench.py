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

The paper's evaluation has two halves and so has this module:
:func:`measure` *counts* — floating-point operations and multiplications
per output (the DynamoRIO-substitute profiler), exact and reproducible
anywhere — and :func:`time_config` *times* a warm session.  Tests and
the checked-in ``results/*.txt`` tables use the first only; the second
is for ``benchmarks/render.py`` and the one-record CLI below.
"""

from __future__ import annotations

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
from .selection import select_optimizations

#: Program outputs measured per configuration — sized so that the
#: coarsest-grained replaced filter (the frequency block, which pushes
#: u*(m+e-1) items per firing) completes several steady firings; a run
#: that only covers the first firing overstates per-output cost.  Radar
#: is the exception: its frequency blocks would need ~80k outputs, so it
#: runs fewer (the sign of its frequency result is unambiguous either
#: way).
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
    """Operation counts of one configuration run."""

    config: str
    outputs: int
    flops: int
    mults: int

    @property
    def flops_per_output(self) -> float:
        return self.flops / self.outputs

    @property
    def mults_per_output(self) -> float:
        return self.mults / self.outputs


def _compile(program: Stream, config: str, backend: str, optimize: str,
             dtype, profiler):
    """One configuration as a compiled
    :class:`~repro.session.StreamSession`: the rewrite, planning probes
    and schedule simulation are paid here, before any counting or
    timing (for repeated plan measurements the plan cache makes even
    that one-time cost a hit)."""
    from .session import compile as compile_session

    stream = build_config(program, config)
    if optimize != "none" and backend != "plan":
        from .exec import optimize_stream
        stream = optimize_stream(stream, optimize,
                                 policy=resolve_policy(dtype))
        optimize = "none"
    return compile_session(stream, backend=backend, optimize=optimize,
                           profiler=profiler, dtype=dtype)


def measure(program: Stream, config: str, n_outputs: int,
            backend: str = "compiled",
            optimize: str = "none", dtype=None) -> Measurement:
    """Build one configuration and count its FLOPs over ``n_outputs``.

    ``optimize`` is the rewrite axis (independent of ``config``, which
    applies the paper's replacement passes directly).  ``dtype`` selects
    the session's numeric policy (``"f32"``, ...): the plan backend
    computes natively in that dtype, scalar backends cast at the session
    boundary.  No clock is read: the result is a pure function of the
    program.
    """
    profiler = Profiler()
    session = _compile(program, config, backend, optimize, dtype, profiler)
    session.run(n_outputs)
    session.close()
    return Measurement(config, n_outputs, profiler.counts.flops,
                       profiler.counts.mults)


def time_config(program: Stream, config: str, n_outputs: int,
                backend: str = "compiled",
                optimize: str = "none", dtype=None) -> float:
    """Seconds one warm ``run(n_outputs)`` of the configuration takes.

    Profiling is off and compile happens before the timer, so the timed
    region is steady-state execution only.  Warm up, then take the best
    of three steady-state advances: small configs time in microseconds,
    where a single cold sample is noise-dominated (lazily compiled work
    functions, allocator state).
    """
    session = _compile(program, config, backend, optimize, dtype,
                       NullProfiler())
    session.run(min(n_outputs, 256))  # warmup advance
    t0 = time.perf_counter()
    session.run(n_outputs)
    seconds = time.perf_counter() - t0
    # microsecond-scale configs (tiny FIRs) are timer-jitter-dominated:
    # size two more best-of samples so each timed region is >= ~10 ms,
    # amortizing the jitter over consecutive steady-state advances
    reps = max(1, min(200, int(1e-2 / max(seconds, 1e-9))))
    for _ in range(2):
        try:
            t0 = time.perf_counter()
            for _ in range(reps):
                session.run(n_outputs)
            seconds = min(seconds, (time.perf_counter() - t0) / reps)
        except InterpError:
            break  # finite source exhausted: keep the samples we have
    session.close()
    return seconds


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
        python -m repro.bench --app radar --config linear --backend plan
        python -m repro.bench --app fir --backend plan --optimize auto
        python -m repro.bench --app fir --dtype f32
        python -m repro.bench --app radar --plan-report --optimize auto
        python -m repro.bench --dsl examples/fir_bench.str --outputs 4096
        python -m repro.bench --dsl src/repro/apps/dsl/common.str \\
            --dsl src/repro/apps/dsl/fir.str --top FIRProgram \\
            --dsl-args 64 --optimize auto

    ``--dsl`` benchmarks any DSL source file — the canonical frontend —
    through the same measurement machinery as the named apps (including
    ``--plan-report``); DSL diagnostics are rendered with caret snippets
    on parse failure.

    The record is one cell: exact FLOPs and multiplications
    (:func:`measure`) beside one warm wall-clock reading
    (:func:`time_config`).  Comparisons between cells, and anything a
    gate reads, are ``perfbench/``'s job; the paper's timing figures are
    ``benchmarks/render.py``'s.  ``--plan-report`` prints which nodes
    the planner vectorized and why the rest fall back to scalar firing.
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
    parser.add_argument("--backend", default="plan",
                        choices=["interp", "compiled", "plan"],
                        help="execution backend (default: plan)")
    parser.add_argument("--outputs", type=int, default=None,
                        help="outputs to produce (default: the app's "
                             "paper-sized run)")
    parser.add_argument("--config", default="original", choices=CONFIGS,
                        help="optimization configuration to apply")
    parser.add_argument("--optimize", default="none", choices=OPTIMIZE_MODES,
                        help="pre-plan rewrite mode passed to run_graph "
                             "(default: none)")
    parser.add_argument("--dtype", default=None, choices=DTYPE_CHOICES,
                        help="numeric policy of the measured session "
                             "(default: f64)")
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
        print(plan_report(program, optimize=args.optimize))
        return 0

    cell = dict(backend=args.backend, optimize=args.optimize,
                dtype=args.dtype)
    m = measure(make_program(), args.config, n_outputs, **cell)
    seconds = time_config(make_program(), args.config, n_outputs, **cell)
    print(json.dumps({
        "app": app_name,
        "config": args.config,
        "backend": args.backend,
        "optimize": args.optimize,
        "dtype": resolve_policy(args.dtype).name,
        "outputs": m.outputs,
        "flops": m.flops,
        "mults": m.mults,
        "seconds": round(seconds, 6),
        "flops_per_output": round(m.flops_per_output, 3),
        "seconds_per_output": seconds / m.outputs,
    }))
    return 0


def format_table(title: str, headers: list[str], rows: list[list],
                 width: int = 14) -> str:
    """Fixed-width text table used by every figure/table generator."""
    def fmt(cell):
        if isinstance(cell, float):
            return f"{cell:,.1f}"
        return str(cell)

    lines = [title, "=" * max(map(len, title.splitlines()))]
    head = "".join(h.ljust(width) for h in headers)
    lines.append(head)
    lines.append("-" * len(head))
    for row in rows:
        lines.append("".join(fmt(c).ljust(width) for c in row))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
