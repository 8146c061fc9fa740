"""The nine benchmark applications of the thesis' evaluation (§5.1),
plus two feedback-bearing apps (Echo, VocoderEcho) exercising the plan
backend's feedback islands and a stateful-linear app (IIR) exercising
the §7.1 state-space extension."""

from . import (dtoa, echo, filterbank, fir, fmradio, iir, oversampler,
               radar, ratec, targetdetect, vocoder)

#: Registry used by the benchmark harness: name -> build() function.
BENCHMARKS = {
    fir.NAME: fir.build,
    ratec.NAME: ratec.build,
    targetdetect.NAME: targetdetect.build,
    fmradio.NAME: fmradio.build,
    radar.NAME: radar.build,
    filterbank.NAME: filterbank.build,
    vocoder.NAME: vocoder.build,
    oversampler.NAME: oversampler.build,
    dtoa.NAME: dtoa.build,
    echo.NAME: echo.build,
    vocoder.NAME_FEEDBACK: vocoder.build_feedback,
    iir.NAME: iir.build,
}

#: Paper ordering for tables/figures (the feedback apps are additions
#: of this reproduction, so they stay out of the thesis figures).
BENCHMARK_ORDER = ["FIR", "RateConvert", "TargetDetect", "FMRadio", "Radar",
                   "FilterBank", "Vocoder", "Oversampler", "DToA"]

#: Apps whose graphs contain a FeedbackLoop: the plan backend runs them
#: through feedback islands, which preserve output values exactly but
#: not tail-of-run firing counts (FLOP profiles may differ slightly
#: from the scalar backends on the final partial iteration).
FEEDBACK_APPS = frozenset({echo.NAME, vocoder.NAME_FEEDBACK})


def split_app(program):
    """Split a benchmark program into ``(source, body)``.

    Every benchmark is a top-level Pipeline ``[source, ...body...,
    Collector]``; the *body* is the float->float part a
    :class:`~repro.session.StreamSession` push harness drives directly
    (for Radar the "source" is its whole zero-weight splitjoin source
    bank, whose interleaved output feeds the body).  Raises
    ``ValueError`` for programs without that shape.
    """
    from ..graph.streams import Pipeline
    from ..runtime.builtins import Collector

    children = getattr(program, "children", None)
    if not children or len(children) < 3 or \
            not isinstance(children[-1], Collector):
        raise ValueError(
            f"{getattr(program, 'name', program)!r} is not a "
            "source/body/Collector pipeline")
    name = getattr(program, "name", "app")
    body = Pipeline(list(children[1:-1]), name=f"{name}.body")
    return children[0], body


def source_values(source, n: int) -> list[float]:
    """The first ``n`` values a benchmark source produces (harness input
    for push-session tests)."""
    from ..graph.streams import Pipeline
    from ..runtime.builtins import Collector
    from ..runtime.executor import run_graph

    probe = Pipeline([source, Collector()], name="source-probe")
    return run_graph(probe, n, backend="compiled")


def resolve_app(name: str) -> str:
    """Canonical registry key for a (case-insensitive) app name."""
    by_lower = {k.lower(): k for k in BENCHMARKS}
    key = by_lower.get(name.lower())
    if key is None:
        raise KeyError(
            f"unknown app {name!r}; choose from {sorted(BENCHMARKS)}")
    return key


def build_app(name: str, **params):
    """Build a benchmark by (case-insensitive) name, e.g. ``"fir"``.

    Used by the ``python -m repro.bench`` CLI; ``params`` are forwarded to
    the app's ``build()``.
    """
    key = resolve_app(name)
    return BENCHMARKS[key](**params), key


__all__ = ["BENCHMARKS", "BENCHMARK_ORDER", "FEEDBACK_APPS", "build_app",
           "resolve_app", "split_app", "source_values", "fir", "ratec",
           "targetdetect", "fmradio", "radar", "filterbank", "vocoder",
           "oversampler", "dtoa", "echo", "iir"]
