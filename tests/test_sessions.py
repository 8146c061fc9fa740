"""Compile-once streaming sessions: the ``repro.compile`` / StreamSession
API.

The acceptance bar: chunked (incremental) execution is *observationally
invisible* — for every app and every backend, pushing input in random
chunks or pulling outputs in random increments produces bitwise-identical
values and identical FLOP counts to one batch run, and repeated advances
on a plan-backend session never replan.
"""

import math
import warnings
import zlib

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS, FEEDBACK_APPS, source_values, split_app
from repro.apps.common import low_pass_filter
from repro.errors import InterpError, StreamGraphError
from repro.exec import (PLAN_CACHE, PlanExecutor, clear_plan_cache,
                        plan_cache_stats)
from repro.graph.streams import Filter, walk
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import count_ops, run_graph, run_stream
from repro.exec.ring import RingBuffer
from repro.runtime.builtins import ChunkSource, Collector

BACKENDS = ("interp", "compiled", "plan")

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
N_OUT = {name: 64 for name in SMALL_PARAMS}
N_OUT["Radar"] = 24


def small(name):
    return BENCHMARKS[name](**SMALL_PARAMS[name])


def assert_counts_equal(p1: Profiler, p2: Profiler, msg=""):
    for cat in CATEGORIES:
        assert getattr(p1.counts, cat) == getattr(p2.counts, cat), \
            f"{msg}: {cat} differs"


def random_chunks(rng, values, lo=1, hi=97):
    pos = 0
    while pos < len(values):
        k = min(int(rng.integers(lo, hi)), len(values) - pos)
        yield values[pos:pos + k]
        pos += k


def seed_for(name: str) -> int:
    return zlib.crc32(name.encode())


def assert_chunked_values(got, expected, backend, msg):
    """Chunking is bitwise-invisible on the scalar backends (identical
    firing order); the plan backend's batched kernels (BLAS shapes,
    lifted stateful blocks) legally reassociate across different batch
    splits, so values there match to the repo's 1e-9 contract."""
    if backend == "plan":
        np.testing.assert_allclose(got, expected, atol=1e-9, err_msg=msg)
    else:
        np.testing.assert_array_equal(got, expected, err_msg=msg)


# ---------------------------------------------------------------------------
# Acceptance: chunked push == batch, every app x every backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_push_chunked_matches_batch(name, backend):
    """``session.push`` over random-sized chunks is bitwise- and
    FLOP-identical to a single batch ``run_stream`` call of the app's
    float->float body on the same inputs."""
    n_out = N_OUT[name]
    source, body = split_app(small(name))
    # generously sized harness input; the one-shot run tells us how
    # much of it the graph actually consumes
    from repro.graph.scheduler import steady_state
    ss = steady_state(body)
    n_in = -(-n_out * ss.pop // ss.push) * 2 + 800
    inputs = source_values(source, n_in)

    clear_plan_cache()
    p_legacy = Profiler()
    legacy = run_stream(body, inputs, n_out, p_legacy, backend=backend)

    # one-shot session: feed everything, pull the same target
    clear_plan_cache()
    source, body = split_app(small(name))
    batch = repro.compile(body, backend=backend)
    batch.feed(inputs)
    out_batch = batch.run(n_out)
    consumed = batch.consumed
    assert consumed <= n_in

    # chunked session: push exactly the consumed prefix in random chunks
    clear_plan_cache()
    source, body = split_app(small(name))
    chunked = repro.compile(body, backend=backend)
    rng = np.random.default_rng(seed_for(name))
    outs = [chunked.push(c) for c in random_chunks(rng, inputs[:consumed])]
    out_chunked = np.concatenate([o for o in outs if len(o)])

    np.testing.assert_array_equal(out_batch, np.asarray(legacy),
                                  err_msg=f"{name}/{backend} batch")
    assert len(out_chunked) >= n_out
    assert_chunked_values(out_chunked[:n_out], out_batch, backend,
                          f"{name}/{backend} chunked")
    assert_counts_equal(p_legacy, batch.profile, f"{name}/{backend} batch")
    assert_counts_equal(p_legacy, chunked.profile,
                        f"{name}/{backend} chunked")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_run_increments_match_one_shot(name, backend):
    """Resumable ``session.run``: pulling the app's outputs in random
    increments equals one ``run_graph`` call — values and FLOPs."""
    n_out = N_OUT[name]
    clear_plan_cache()
    p_one = Profiler()
    one = run_graph(small(name), n_out, p_one, backend=backend)

    clear_plan_cache()
    session = repro.compile(small(name), backend=backend)
    rng = np.random.default_rng(seed_for(name) + 1)
    parts = []
    got = 0
    while got < n_out:
        k = min(int(rng.integers(1, 24)), n_out - got)
        parts.append(session.run(k))
        got += k
    incremental = np.concatenate(parts)

    assert_chunked_values(incremental, np.asarray(one), backend,
                          f"{name}/{backend}")
    assert session.outputs_produced == n_out
    assert_counts_equal(p_one, session.profile, f"{name}/{backend}")


# ---------------------------------------------------------------------------
# Zero replanning, cache pinning, reset
# ---------------------------------------------------------------------------


def test_repeated_run_performs_zero_replanning():
    clear_plan_cache()
    session = repro.compile(small("FIR"), backend="plan")
    assert isinstance(session._executor, PlanExecutor)
    after_compile = plan_cache_stats()
    for _ in range(5):
        session.run(32)
    assert plan_cache_stats() == after_compile  # no lookups at all
    assert session.cache_entry is not None


def test_push_session_repeated_push_zero_replanning():
    clear_plan_cache()
    session = repro.compile(low_pass_filter(1.0, math.pi / 3, 16),
                            backend="plan")
    after_compile = plan_cache_stats()
    for _ in range(5):
        session.push(np.arange(64.0))
    assert plan_cache_stats() == after_compile


def test_field_mutation_between_runs_pins_the_plan():
    """Mutating a coefficient array in place mid-session does not
    invalidate or replan: the session continues the stream with the
    coefficients it was compiled with, while a fresh compile of the
    mutated graph misses the cache and sees the new values."""
    clear_plan_cache()
    program = small("FIR")
    expected = run_graph(BENCHMARKS["FIR"](**SMALL_PARAMS["FIR"]), 96,
                         backend="compiled")
    clear_plan_cache()
    session = repro.compile(program, backend="plan")
    first = session.run(48)
    stats_before = plan_cache_stats()

    filt = next(s for s in walk(program)
                if isinstance(s, Filter) and "h" in s.fields)
    filt.fields["h"][0] += 123.0

    rest = session.run(48)  # continues on the *compiled* coefficients
    # cross-backend (plan vs compiled) comparison: 1e-9 contract, not
    # bitwise — the plan backend's sliding-filter kernel sums in a
    # different order than the compiled backend's matmul
    np.testing.assert_allclose(np.concatenate([first, rest]),
                               np.asarray(expected), atol=1e-9)
    assert plan_cache_stats() == stats_before  # pinned, not replanned

    # a fresh compile of the mutated graph sees the new coefficients
    fresh = repro.compile(program, backend="plan")
    assert plan_cache_stats()["misses"] == stats_before["misses"] + 1
    changed = fresh.run(96)
    assert not np.array_equal(changed, np.asarray(expected))
    filt.fields["h"][0] -= 123.0


def test_reset_rewinds_without_recompiling():
    clear_plan_cache()
    session = repro.compile(small("IIR"), backend="plan")
    first = session.run(96)
    flops = session.profile.counts.flops
    stats = plan_cache_stats()
    session.reset()
    assert plan_cache_stats() == stats  # reuses the pinned entry
    assert session.profile.counts.flops == flops  # the profile is kept
    again = session.run(96)
    np.testing.assert_array_equal(again, first)
    assert session.outputs_produced == 96
    # the rewound run costs what the first one did
    assert flops > 0 and session.profile.counts.flops == 2 * flops


def test_session_on_a_cached_plan_resumes():
    """A session compiled from a plan that ``run_graph`` cached
    continues the stream correctly past the cached run's length."""
    clear_plan_cache()
    program = small("FIR")
    run_graph(program, 50, backend="plan")  # caches the plan
    session = repro.compile(program, backend="plan")
    resumed = np.concatenate([session.run(50), session.run(30)])
    expected = run_graph(BENCHMARKS["FIR"](**SMALL_PARAMS["FIR"]), 80,
                         backend="compiled")
    # cross-backend comparison: 1e-9 contract (see field-mutation test)
    np.testing.assert_allclose(resumed, np.asarray(expected), atol=1e-9)


# ---------------------------------------------------------------------------
# Profiler threading: probes count once per compile, never per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimize", ("linear", "auto"))
@pytest.mark.parametrize("name", ("FIR", "IIR", "Radar"))
def test_cumulative_profiler_has_no_probe_double_count(name, optimize):
    """Two runs on the same cached entry with one cumulative profiler
    count exactly twice a single run: extraction/rewrite probes happen
    once per compile and never leak into the caller's profiler."""
    n = N_OUT[name]
    clear_plan_cache()
    p1 = Profiler()
    run_graph(small(name), n, p1, backend="plan", optimize=optimize)
    clear_plan_cache()
    p2 = Profiler()
    program = small(name)
    run_graph(program, n, p2, backend="plan", optimize=optimize)
    run_graph(program, n, p2, backend="plan", optimize=optimize)
    for cat in CATEGORIES:
        assert getattr(p2.counts, cat) == 2 * getattr(p1.counts, cat), \
            f"{name}/{optimize}: {cat}"


def test_session_cumulative_profile_is_linear_in_outputs():
    """A session's cumulative profile after two equal advances is twice
    one advance — compile-time probing is not in the counts."""
    clear_plan_cache()
    s1 = repro.compile(small("IIR"), backend="plan", optimize="auto")
    s1.run(64)
    single = s1.profile.counts.flops
    s1.run(64)
    assert s1.profile.counts.flops == 2 * single


# ---------------------------------------------------------------------------
# One-shot wrappers over a session, deprecation shim
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_graph_is_a_session_run_as_a_list(backend):
    legacy = run_graph(small("FIR"), 48, backend=backend)
    assert isinstance(legacy, list) and {type(v) for v in legacy} == {float}
    arr = repro.compile(small("FIR"), backend=backend).run(48)
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
    np.testing.assert_array_equal(arr, np.asarray(legacy))


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_stream_matches_a_push_session(backend):
    stream = low_pass_filter(1.0, math.pi / 3, 16)
    inputs = np.sin(np.arange(128.0)).tolist()
    p_list, p_arr = Profiler(), Profiler()
    legacy = run_stream(stream, inputs, 64, p_list, backend=backend)
    session = repro.compile(low_pass_filter(1.0, math.pi / 3, 16),
                            backend=backend, profiler=p_arr)
    session.feed(inputs)
    np.testing.assert_array_equal(session.run(64), np.asarray(legacy))
    assert_counts_equal(p_list, p_arr, backend)


def test_positional_backend_is_a_type_error():
    with pytest.raises(TypeError, match="positional"):
        run_graph(small("FIR"), 8, None, "compiled")


def test_keyword_form_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_graph(small("FIR"), 8, backend="compiled")
        run_stream(low_pass_filter(1.0, 1.0, 4), [1.0] * 16, 4,
                   backend="compiled")
        count_ops(small("FIR"), 8, backend="plan", optimize="linear")


# ---------------------------------------------------------------------------
# Session surface: modes, errors, report, ndarray sinks
# ---------------------------------------------------------------------------


def test_push_on_program_session_raises():
    session = repro.compile(small("FIR"), backend="plan")
    with pytest.raises(StreamGraphError, match="own\\s+sources"):
        session.push([1.0, 2.0])
    with pytest.raises(StreamGraphError):
        session.consumed


def test_run_on_underfed_push_session_deadlocks():
    session = repro.compile(low_pass_filter(1.0, math.pi / 3, 16),
                            backend="compiled")
    session.feed(np.arange(8.0))  # filter peeks 16: nothing can fire
    with pytest.raises(InterpError, match="deadlock"):
        session.run(4)


def test_report_names_kernels_without_replanning():
    clear_plan_cache()
    session = repro.compile(small("FIR"), backend="plan", optimize="linear")
    stats = plan_cache_stats()
    report = session.report()
    assert plan_cache_stats() == stats
    assert report.bailout is None
    assert any(s.step_kind == "matmul" for s in report.steps)
    assert "plan report" in str(report)


def test_scalar_session_report_is_advisory():
    session = repro.compile(small("FIR"), backend="compiled")
    report = session.report()
    assert report.bailout is None and report.steps


def test_push_harness_is_ndarray_native():
    session = repro.compile(low_pass_filter(1.0, math.pi / 3, 16),
                            backend="plan")
    ex = session._executor
    feed, sink = ex.flat.nodes[0], ex.flat.nodes[-1]
    assert isinstance(feed.stream, ChunkSource)
    assert isinstance(sink.stream, Collector)
    # the harness nodes are stateless: both rings are runner state,
    # owned by this executor (not the plan's flat graph) and replaced
    # with it
    assert not hasattr(feed.stream, "buffer")
    assert ex.feed is ex.steps[0].feed is not feed.runner
    assert ex._sink is ex.steps[-1].sink is not sink.runner
    assert isinstance(ex.feed.buffer, RingBuffer)
    assert isinstance(ex._sink.collected, RingBuffer)
    out = session.push(np.arange(64.0))
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert len(ex._sink.collected) == 0  # push popped what it returned
    session.reset()
    assert session._executor.feed is not ex.feed
    assert session._executor._sink is not ex._sink


def test_unknown_backend_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown backend"):
        repro.compile(small("FIR"), backend="vectorized")


@pytest.mark.parametrize("backend", BACKENDS)
def test_pass_limit_is_per_call_not_per_session(backend):
    """max_passes bounds one advance, not the session lifetime: many
    small advances must never trip it (the counter used to be
    cumulative, killing long-lived sessions mid-stream)."""
    session = repro.compile(small("FIR"), backend=backend)
    for _ in range(200):
        session._executor.advance(1, max_passes=100)
    assert session._executor._passes > 100  # lifetime counter kept


def test_push_graph_with_unbounded_source_rejected_at_compile():
    """A float->float graph hiding an unbounded source can never
    quiesce under a greedy push drain: compile must refuse it instead
    of push() hanging."""
    from repro.graph.streams import RoundRobin, SplitJoin
    from repro.runtime.builtins import FunctionSource, Identity

    body = SplitJoin(RoundRobin((1, 0)),
                     [Identity(), FunctionSource(lambda n: 1.0)],
                     RoundRobin((1, 1)), name="carrier")
    for backend in BACKENDS:
        with pytest.raises(StreamGraphError, match="unbounded source"):
            repro.compile(body, backend=backend)
    # a refused compile holds nothing: its plan stays evictable
    clear_plan_cache()
    for _ in range(3):
        with pytest.raises(StreamGraphError, match="unbounded source"):
            repro.compile(body)
    assert [e.pins for e in PLAN_CACHE._entries.values()] == [0]


def make_output_channel_program():
    """A complete program paced by the graph output channel (no
    Collector): the source feeds an expander, so one advance can
    overshoot the requested target."""
    from repro.apps.common import expander
    from repro.graph.streams import Pipeline
    from repro.runtime.builtins import FunctionSource

    return Pipeline([FunctionSource(lambda n: float(n), "src"),
                     expander(4), expander(4)], name="overshoot")


@pytest.mark.parametrize("backend", BACKENDS)
def test_overshooting_advances_keep_firing_parity(backend):
    """advance(k) where a single firing overshoots the target: the next
    advance must not fire anything extra (the drive loop used to drain
    once more, breaking incremental FLOP parity on scalar backends)."""
    p_one, p_inc = Profiler(), Profiler()
    clear_plan_cache()
    one = repro.compile(make_output_channel_program(), backend=backend,
                        profiler=p_one).run(48)
    clear_plan_cache()
    session = repro.compile(make_output_channel_program(), backend=backend,
                            profiler=p_inc)
    inc = np.concatenate([session.run(1) for _ in range(48)])
    np.testing.assert_array_equal(inc, one)
    assert_counts_equal(p_one, p_inc, backend)


def test_output_channel_streams_jump():
    """Long plan-backend runs paced by the graph output channel (no
    Collector) jump from flush to flush, not one pass per output."""
    clear_plan_cache()
    session = repro.compile(make_output_channel_program(), backend="plan")
    n = 160_000
    out = session.run(n)
    assert len(out) == n
    executor = session._executor
    assert executor._passes == n // 16  # each source item becomes 16
    # one walk, one jump and one literal pass per 65 536-output chunk,
    # the last chunk short
    assert executor.passes_literal == executor.jumps == 3


def test_push_sessions_share_their_plan_by_body():
    """The push harness is stateless (its rings are executor state), so
    a push plan is keyed by body + optimize + dtype like a pull plan:
    a content-identical rebuild hits, another dtype or mode misses."""
    clear_plan_cache()
    a = repro.compile(low_pass_filter(1.0, math.pi / 3, 16), backend="plan")
    b = repro.compile(low_pass_filter(1.0, math.pi / 3, 16), backend="plan")
    assert a.cache_entry is b.cache_entry and a.cache_entry.pins == 2
    assert plan_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    repro.compile(low_pass_filter(1.0, math.pi / 3, 16), backend="plan",
                  dtype="f32")
    repro.compile(low_pass_filter(1.0, math.pi / 3, 16), backend="plan",
                  optimize="linear")
    repro.compile(low_pass_filter(1.0, math.pi / 3, 17), backend="plan")
    assert plan_cache_stats() == {"hits": 1, "misses": 4, "entries": 4}


# ---------------------------------------------------------------------------
# Session lifecycle: close(), pin release, typed construction errors
# ---------------------------------------------------------------------------


def test_close_unpins_plan_entry():
    clear_plan_cache()
    session = repro.compile(small("FIR"), backend="plan")
    entry = session.cache_entry
    assert entry.pins == 1
    session.close()
    assert entry.pins == 0 and session.closed
    session.close()  # idempotent: a second close is a no-op
    assert entry.pins == 0


def test_context_manager_closes_session():
    clear_plan_cache()
    with repro.compile(small("FIR"), backend="plan") as session:
        entry = session.cache_entry
        session.run(16)
        assert entry.pins == 1
    assert session.closed and entry.pins == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_closed_session_raises_typed_error(backend):
    from repro.errors import SessionClosedError

    session = repro.compile(small("FIR"), backend=backend)
    session.close()
    for call in (lambda: session.run(8), lambda: session.reset(),
                 session.report):
        with pytest.raises(SessionClosedError):
            call()


def test_bad_compile_options_raise_typed_error():
    from repro.errors import CompileOptionError

    with pytest.raises(CompileOptionError) as ei:
        repro.compile(small("FIR"), backend="vectorized")
    assert ei.value.option == "backend"
    assert "vectorized" in str(ei.value)
    with pytest.raises(CompileOptionError) as ei:
        repro.compile(small("FIR"), optimize="everything")
    assert ei.value.option == "optimize"
    # the old contract still holds: both are ValueErrors
    assert issubclass(CompileOptionError, ValueError)


def test_push_rejects_non_numeric_chunks():
    from repro.errors import ChunkDtypeError

    _source, body = split_app(small("FIR"))
    with repro.compile(body, backend="plan") as session:
        with pytest.raises(ChunkDtypeError):
            session.push(np.array([1 + 2j, 3 - 1j]))
        with pytest.raises(ChunkDtypeError):
            session.push(np.array(["a", "b"]))
        assert issubclass(ChunkDtypeError, TypeError)
        # the session survives the rejection
        assert len(session.push(np.zeros(64))) > 0
