"""Sessions hold O(chunk), not O(stream), pull and push alike.

Every program ends in one sink, a ``Collector`` whose output ring is
executor state that ``push``/``run`` pop; the push harness's
``ChunkSource`` is stateless too (its feed ring is executor state), and
a push plan is keyed by its body.  Everything here is hermetic: storage
is counted in items, never read from RSS or a clock.
"""

import math

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS, fir, radar, source_values, split_app
from repro.apps.common import low_pass_filter
from repro.exec import clear_plan_cache, plan_cache_stats
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import run_stream

BACKENDS = ("interp", "compiled", "plan")
BODIES = {"FIR": dict(taps=8), "IIR": {}, "Oversampler": dict(stages=3,
                                                              taps=16)}


def body_of(app):
    return split_app(BENCHMARKS[app](**BODIES[app]))


def held(session) -> int:
    """Items of storage behind the feed ring, the output ring and every
    channel (scalar backends) or ring (plan backend, every row of it) of
    the executor."""
    ex = session._executor
    channels = getattr(ex, "rings", None)
    if channels is None:
        channels = {id(ch): ch for node in ex.nodes
                    for ch in node.inputs + node.outputs}.values()
    return sum(session.buffers[:2]) + sum(
        getattr(ch, "rows", 1) * ch.capacity for ch in channels)


def sink_and_rings(session) -> int:
    """Items of storage behind the sink and every ring (every row of it)
    of the executor; a scalar executor has no rings but the sink's."""
    rings = getattr(session._executor, "rings", ())
    return session.buffers[1] + sum(r.rows * r.capacity for r in rings)


def counts(profiler):
    return [getattr(profiler.counts, cat) for cat in CATEGORIES]


# ---------------------------------------------------------------------------
# Boundedness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", ["FIR", "IIR"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_storage_after_2000_pushes_is_storage_after_20(app, backend):
    # the scalar backends fire item by item: same call count, shorter
    # chunks (still several compactions of every channel per push)
    n = 256 if backend == "plan" else 16
    chunk = np.random.default_rng(0).normal(size=n)
    session = repro.compile(body_of(app)[1], backend=backend)
    early = None
    for i in range(1, 2001):
        out = session.push(chunk)
        if i == 20:
            early = held(session)
    assert len(out) == n and session.pending_input == 0
    assert held(session) == early
    in_items, out_items, journal = session.buffers
    assert in_items <= 2 * max(n, 64) and out_items <= 2 * max(n, 64)
    assert journal <= repro.session.DEFAULT_JOURNAL_LIMIT
    assert f"buffers: in {in_items} / out {out_items} / journal " \
        f"{journal}" in str(session.report())


@pytest.mark.parametrize("build", [fir.build, radar.build],
                         ids=["FIR", "Radar"])
@pytest.mark.parametrize("backend", ["compiled", "plan"])
def test_pull_storage_after_200_runs_is_storage_after_20(build, backend):
    """An app graph ends in its own Collector: a pull session pops it,
    so the sink holds one call of output, not every output so far."""
    n = 256 if backend == "plan" else 64
    session = repro.compile(build(), backend=backend)
    for i in range(1, 201):
        out = session.run(n)
        if i == 20:
            early = sink_and_rings(session)
    assert len(out) == n and session.outputs_produced == 200 * n
    assert sink_and_rings(session) == early
    assert session.buffers[:2] == (0, n)


def test_parallel_session_storage_is_bounded_too():
    chunk = np.random.default_rng(1).normal(size=256)
    _source, body = body_of("FIR")
    with repro.compile(body, backend="plan", workers=2) as par, \
            repro.compile(body, backend="plan") as serial:
        for i in range(1, 61):
            out = par.push(chunk)
            np.testing.assert_array_equal(out, serial.push(chunk))
            if i == 20:
                early = held(par)
        assert held(par) == early


@pytest.mark.parametrize("app", ["FIR", "Oversampler"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_feed_then_run_matches_the_list_harness_and_keeps_the_tail(
        app, backend):
    """``feed; run(100); run(100)``: values and FLOP counts of the
    legacy ListSource/Collector harness; the output ring hands out what
    it holds once, and what a run left upstream is the next run's."""
    source, body = body_of(app)
    inputs = source_values(source, 4096)
    p_legacy, p_session = Profiler(), Profiler()
    clear_plan_cache()
    legacy = run_stream(body, inputs, 200, p_legacy, backend=backend)
    session = repro.compile(body, backend=backend, profiler=p_session)
    session.feed(inputs)
    first = session.run(100)
    executor = session._executor
    sink = getattr(executor, "flat", executor).collectors[0].runner
    assert sink.produced() == 100 + len(sink.collected)
    second = session.run(100)
    np.testing.assert_array_equal(np.concatenate([first, second]), legacy)
    assert counts(p_session) == counts(p_legacy)
    assert session.outputs_produced == 200
    assert sink.produced() == 200 + len(sink.collected)
    whole = repro.compile(body, backend=backend)
    whole.feed(inputs)
    np.testing.assert_array_equal(session.run(37), whole.run(237)[200:])


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_restore_and_reset_rebuild_the_rings(backend):
    n = 64 if backend == "plan" else 16
    chunks = np.random.default_rng(2).normal(size=(12, n))
    session = repro.compile(body_of("IIR")[1], backend=backend)
    outs = [session.push(c) for c in chunks[:4]]
    snap = session.snapshot()
    flops = session.profile.counts.flops
    later = [session.push(c) for c in chunks[4:]]
    size = held(session)
    session.restore(snap)
    assert session.consumed == 4 * n and session.pending_input == 0
    assert session.profile.counts.flops == flops
    for c, expected in zip(chunks[4:], later):
        np.testing.assert_array_equal(session.push(c), expected)
    assert held(session) == size
    start = session.profile.counts.flops
    session.reset()
    assert session.consumed == 0 and session.outputs_produced == 0
    for c, expected in zip(chunks[:4], outs):
        np.testing.assert_array_equal(session.push(c), expected)
    # the rewound pushes cost what the first four did
    assert session.profile.counts.flops - start == flops
    session.close()
    assert session.buffers == (0, 0, 0)


# ---------------------------------------------------------------------------
# Ownership: a returned array is the caller's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_returned_arrays_survive_later_calls(backend, dtype):
    n = 64 if backend == "plan" else 8
    data = np.random.default_rng(3).normal(size=200 * n)
    body = low_pass_filter(1.0, math.pi / 3, 8)
    session = repro.compile(body, backend=backend, dtype=dtype)
    kept = [session.push(data[i:i + n]) for i in range(0, len(data), n)]
    batch = repro.compile(body, backend=backend, dtype=dtype).push(data)
    assert all(out.base is None and out.flags.writeable for out in kept)
    np.testing.assert_array_equal(np.concatenate(kept), batch)
    # ...and scribbling on one does not reach the session
    session.feed(data[:n])
    head = session.run(n // 2)
    expected = head.copy()
    head[:] = np.nan
    rest = session.run(n // 2)
    assert not np.isnan(rest).any()
    again = repro.compile(body, backend=backend, dtype=dtype)
    again.push(data)
    np.testing.assert_array_equal(np.concatenate([expected, rest]),
                                  again.push(data[:n]))


# ---------------------------------------------------------------------------
# Shared plans: push sessions are keyed by body
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_live_push_sessions_share_one_plan_entry(dtype):
    clear_plan_cache()
    chunks = np.random.default_rng(4).normal(size=(2, 10, 96))
    solo_out, solo_flops = [], []
    for k in range(2):
        s = repro.compile(body_of("FIR")[1], optimize="auto", dtype=dtype)
        solo_out.append([s.push(c) for c in chunks[k]])
        solo_flops.append(s.profile.counts.flops)
        s.close()
    before = plan_cache_stats()
    a = repro.compile(body_of("FIR")[1], optimize="auto", dtype=dtype)
    b = repro.compile(body_of("FIR")[1], optimize="auto", dtype=dtype)
    after = plan_cache_stats()
    assert a.cache_entry is b.cache_entry and a.cache_entry.pins == 2
    assert (after["hits"], after["misses"]) == (before["hits"] + 2,
                                                before["misses"])
    # the entry's graph embeds the first session's harness nodes: the
    # others must still recognise the feed, and feed only their own ring
    for i in range(10):
        np.testing.assert_array_equal(a.push(chunks[0][i]), solo_out[0][i])
        np.testing.assert_array_equal(b.push(chunks[1][i]), solo_out[1][i])
    assert [a.profile.counts.flops, b.profile.counts.flops] == solo_flops
    assert a.consumed == b.consumed == 960
    b.feed(chunks[1][0])
    assert (a.pending_input, b.pending_input) == (0, 96)
    b.reset()
    np.testing.assert_array_equal(b.push(chunks[0][0]), solo_out[0][0])
    a.close()
    assert b.cache_entry.pins == 1
    np.testing.assert_array_equal(b.push(chunks[0][1]), solo_out[0][1])

    misses = plan_cache_stats()["misses"]
    other = "f32" if dtype == "f64" else "f64"
    repro.compile(body_of("FIR")[1], optimize="auto", dtype=other)
    repro.compile(body_of("FIR")[1], optimize="linear", dtype=dtype)
    assert plan_cache_stats()["misses"] == misses + 2


def test_dsl_push_body_is_keyed_by_its_content():
    """A DSL-loaded body inside the push harness is keyed by its content:
    the warm compile is a cache hit, other arguments are another plan."""
    from repro.graph.identity import content_id

    text = ("float->float filter Scale(float k) { work pop 1 push 1 "
            "{ push(k * pop()); } }")
    clear_plan_cache()
    a = repro.compile(text, args=(2.0,))
    b = repro.compile(text, args=(2.0,))
    c = repro.compile(text, args=(3.0,))
    assert a.cache_entry is b.cache_entry is not c.cache_entry
    assert plan_cache_stats() == {"hits": 1, "misses": 2, "entries": 2}
    np.testing.assert_array_equal(b.push(np.arange(4.0)), [0, 2, 4, 6])
    np.testing.assert_array_equal(c.push(np.arange(4.0)), [0, 3, 6, 9])
    assert content_id(a._program) == content_id(b._program)


@pytest.mark.parametrize("mode", ["freq", "auto"])
def test_frequency_steps_keep_one_workspace_each(mode):
    """A frequency step transforms into the arrays of its longest batch
    so far (no per-call allocation); the workspace is the step's, so
    sessions sharing a plan — and its kernel — do not share it."""
    from repro.exec.kernels import NaiveFreqStep, OptimizedFreqStep

    def freq_steps(session):
        return [s for s in session._executor.steps
                if isinstance(s, (NaiveFreqStep, OptimizedFreqStep))]

    clear_plan_cache()
    body = low_pass_filter(1.0, math.pi / 3, 64)
    chunks = np.random.default_rng(5).normal(size=(6, 1024))
    solo = repro.compile(body, optimize=mode)
    expected = [solo.push(c) for c in chunks]
    a = repro.compile(body, optimize=mode)
    b = repro.compile(body, optimize=mode)
    assert a.cache_entry is b.cache_entry
    (step_a,), (step_b,) = freq_steps(a), freq_steps(b)
    assert step_a.kernel is step_b.kernel
    for c, want in zip(chunks[:3], expected):
        np.testing.assert_array_equal(a.push(c), want)
        b.push(-c)  # same plan, other data, interleaved
    arrays = list(map(id, step_a._work))
    assert len(arrays) == 3  # spectrum, product, result
    for c, want in zip(chunks[3:], expected[3:]):
        np.testing.assert_array_equal(a.push(c), want)
    a.push(chunks[0][:300])  # a shorter batch fits the same arrays
    assert list(map(id, step_a._work)) == arrays
    assert step_a._work is not step_b._work
