"""Sibling fusion: the plan over the quotient by branch symmetry.

The look-alike branches of a splitjoin run as one ``(b, .)`` step per
stage.  The reference is the same graph planned with the trivial
quotient (``PlanExecutor.fuse_siblings = False``, what the parallel
executor runs): outputs, the firing count of every flat node and every
field of the FLOP profile must agree.  Hermetic: no wall clock, storage
counted in items.
"""

import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS
from repro.dsl import load_source
from repro.exec import PlanExecutor, clear_plan_cache, plan_report
from repro.exec import kernels as K
from repro.exec.ring import RingBuffer
from repro.numeric import resolve_policy
from repro.profiling import CATEGORIES, Profiler
from test_exec_plan import FEEDBACK_APPS, N_OUT, small
from test_push_memory import held

MIN = K.LANE_MIN_FIRINGS

#: a five-branch bank: a peek > pop FIR (matmul) and a shaper with a
#: per-branch gain (lanes, one float field apart), duplicate or
#: roundrobin split; ``SHAPER`` is the body of the second stage
BANK = """
float->float filter Fir(float f, float ph) {
    float[4] h;
    init {
        for (int i = 0; i < 4; i++) { h[i] = sin(f * i + ph) / 4; }
    }
    work peek 4 pop 1 push 1 {
        float sum = 0.0;
        for (int i = 0; i < 4; i++) { sum = sum + h[i] * peek(i); }
        push(sum);
        pop();
    }
}
float->float filter Shape(float g) {
    float gain = g;
    work pop 1 push 1 {
        float x = pop();
        %(shaper)s
    }
}
float->float pipeline Branch(float f, float ph, float g) {
    add Fir(f, ph);
    add Shape(g);
}
float->float splitjoin Bank {
    split %(split)s;
    add Branch(0.3, 0.1, 0.5);
    add Branch(0.5, 0.9, 1.5);
    add Branch(0.7, 1.7, -0.75);
    add Branch(0.9, 2.5, 0.0);
    add Branch(1.1, 0.4, 2.0);
    join roundrobin(1, 1, 1, 1, 1);
}
"""
CLIP = "if (x > 0.1) { push(gain * 0.1); } else { push(gain * x); }"
SQUARE = "push(gain * (x * x));"  # no comparison: defined on complex too
#: flagged by NumPy on the 0.0-gain row only, and only in lane form:
#: the scalar firing of that row takes the other arm
DIVIDE = "if (gain != 0.0) { push(x / gain); } else { push(x); }"


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """Every test plans from scratch: a fused plan and its reference
    share one cache entry within a test, nothing across tests."""
    clear_plan_cache()


def bank(shaper=CLIP, split="duplicate"):
    return load_source(BANK % dict(shaper=shaper, split=split), "Bank")


def small_radar():
    return BENCHMARKS["Radar"](channels=4, beams=2, fir1_taps=4,
                               fir2_taps=2, mf_taps=4)


def apart():
    """Plan (and re-plan, on ``reset``) with the trivial quotient."""
    return mock.patch.object(PlanExecutor, "fuse_siblings", False)


def pair(build, **kw):
    """``(fused, plain)`` sessions of the same graph, own profilers."""
    fused = repro.compile(build(), profiler=Profiler(), **kw)
    with apart():
        plain = repro.compile(build(), profiler=Profiler(), **kw)
    assert widths(fused) and not widths(plain)
    return fused, plain


def widths(session):
    return [len(o) for o in session._executor.orbits
            if isinstance(o, list) and len(o) > 1]


def count_firings(session) -> Counter:
    """Flat node index -> firings, counted at every step's ``execute``
    (a fused step fires each node of its orbit)."""
    fired: Counter = Counter()

    def hook(step, orbit):
        real = step.execute

        def execute(n):
            for i in orbit:
                fired[i] += n
            real(n)
        step.execute = execute

    ex = session._executor
    for step, orbit in zip(ex.steps, ex.orbits):
        if isinstance(step, K.FeedbackStep):
            for i, member in zip(orbit, step.members):
                hook(member.step, [i])
        else:
            hook(step, orbit)
    return fired


def assert_same_profile(a, b):
    for cat in CATEGORIES:
        assert getattr(a.profile.counts, cat) == \
            getattr(b.profile.counts, cat), cat
    assert a.profile.per_filter.keys() == b.profile.per_filter.keys()
    for name, bucket in a.profile.per_filter.items():
        assert bucket == b.profile.per_filter[name], name


def assert_close(got, want, policy="f64"):
    policy = resolve_policy(policy)
    np.testing.assert_allclose(got, want, rtol=policy.rtol,
                               atol=policy.atol)


# ---------------------------------------------------------------------------
# the quotient
# ---------------------------------------------------------------------------


def test_radar_plans_one_step_per_stage():
    rep = plan_report(BENCHMARKS["Radar"](), optimize="auto")
    assert [(s.name, s.width) for s in rep.steps if s.width > 1] == [
        ("InputGenerate0", 12), ("Linear[channel0[1:3]]", 12),
        ("Beamform0", 4), ("BeamFirMF_0", 4), ("Magnitude", 4),
        ("Detector", 4)]
    assert rep.nodes == 45 and len(rep.steps) == 11 and not rep.fallbacks
    text = str(rep)
    assert re.search(r"^InputGenerate0 ×12 +sinusoid +2 frequencies, "
                     r"counter n$", text, re.M)
    assert re.search(r"^Linear\[channel0\[1:3\]\] ×12 +matmul +folded onto "
                     r"InputGenerate0's basis$", text, re.M)
    assert "45 nodes in 11 steps, 0 fall back" in text


def test_a_fused_stage_is_one_ring_one_sim_node_one_step():
    s = repro.compile(bank())
    ex = s._executor
    # source, split, Fir x5, Shape x5, join, collector
    assert len(ex.steps) == len(ex.sim_nodes) == 6
    assert [r.rows for r in ex.rings if r.rows > 1] == [5, 5, 5]
    fir, shape = ex.steps[2:4]
    assert isinstance(fir, K.MatmulStep) and fir.A.shape == (5, 4, 1)
    assert isinstance(shape, K.LaneStep) and len(shape.nodes) == 5
    assert shape.code.varying == {"gain"}
    np.testing.assert_array_equal(
        shape._columns["gain"], [[0.5], [1.5], [-0.75], [0.0], [2.0]])


def test_plain_steps_keep_one_dimensional_storage():
    with apart():
        s = repro.compile(bank())
    ex = s._executor
    assert all(r.rows == 1 and r._buf.ndim == 1 for r in ex.rings)
    fir = next(st for st in ex.steps if isinstance(st, K.MatmulStep))
    assert fir.A.shape == (4, 1)


def test_ring_rows_share_cursors():
    r = RingBuffer("t", rows=3)
    r.push_array(np.arange(6.0))  # a 1-D block goes to every row
    r.alloc_push(1)[:] = [[1.0], [2.0], [3.0]]
    assert len(r) == 7 and r.rows == 3
    assert r.window_view(3, 2, 3).shape == (3, 3, 3)
    np.testing.assert_array_equal(r.window_view(3, 2, 3)[1, 2],
                                  [4.0, 5.0, 2.0])
    r.pop_block(5)
    assert r.pop_block_array(2).tolist() == [[5.0, 1.0], [5.0, 2.0],
                                            [5.0, 3.0]]
    view = r.alloc_push(200)  # grows, all rows at once
    assert view.shape == (3, 200) and r.capacity >= 200
    r.retract(200)
    assert len(r) == 0


@pytest.mark.parametrize("change, why", [
    (("Branch(0.9, 2.5, 0.0)", "Fir(0.9, 2.5)"),
     ""),  # a branch of another length: not a look-alike to begin with
    (("roundrobin(1, 1, 1, 1, 1)", "roundrobin(1, 1, 1, 1, 1); // x"),
     None),  # unchanged: fuses
    (("add Shape(g);", "add Shape(g); add Lag();"),
     "not fused: stage 2 has no stacking kernel"),
    (("float gain = g;", "float gain = g; int k = g * 4;"),
     "not fused: branch 1 differs at stage 1 (field k is not a float)"),
])
def test_near_misses_plan_apart_and_say_why(change, why):
    lag = """
float->float filter Lag {
    prework push 1 { push(0.0); }
    work pop 1 push 1 { push(pop()); }
}
"""
    text = (BANK % dict(shaper=CLIP, split="duplicate")
            ).replace(*change) + lag
    rep = plan_report(load_source(text, "Bank"))
    (split,) = [s for s in rep.steps if s.step_kind == "dup-split"]
    if why is None:
        assert split.reason is None
        assert [s.width for s in rep.steps if s.width > 1] == [5, 5]
    else:
        assert split.reason == (why or None)
        assert all(s.width == 1 for s in rep.steps)


# ---------------------------------------------------------------------------
# fused == apart: outputs, firings, profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimize", ["none", "linear", "auto"])
def test_radar_split_runs_match_the_trivial_quotient(optimize):
    fused, plain = pair(small_radar, optimize=optimize)
    fired_fused, fired_plain = count_firings(fused), count_firings(plain)
    for n in (7, 1024, 3):
        # lane stages are bitwise; the stacked product may round
        # differently from the b separate ones
        assert_close(fused.run(n), plain.run(n))
    assert fired_fused == fired_plain
    assert_same_profile(fused, plain)
    assert not fused.report().fallbacks


@pytest.mark.parametrize("split", ["duplicate", "roundrobin(1, 1, 1, 1, 1)"])
@pytest.mark.parametrize("dtype, shaper", [("f64", CLIP), ("f32", CLIP),
                                           ("c64", SQUARE)])
def test_push_sessions_with_ragged_chunks(dtype, shaper, split):
    fused, plain = pair(lambda: bank(shaper, split), dtype=dtype)
    fired_fused, fired_plain = count_firings(fused), count_firings(plain)
    rng = np.random.default_rng(3)
    for n in (1, 2, 255, 3, 1024, 64, 5, 700):
        chunk = rng.standard_normal(n)
        if dtype == "c64":
            chunk = chunk + 1j * rng.standard_normal(n)
        assert_close(fused.push(chunk), plain.push(chunk), dtype)
    assert fired_fused == fired_plain
    assert_same_profile(fused, plain)


def test_lane_stages_are_bitwise():
    """A bank of shapers alone: nothing but lanes between the rings."""
    text = BANK.replace("add Fir(f, ph);", "") % dict(shaper=CLIP,
                                                      split="duplicate")
    fused, plain = pair(lambda: load_source(text, "Bank"))
    chunk = np.random.default_rng(4).standard_normal(900)
    np.testing.assert_array_equal(fused.push(chunk), plain.push(chunk))
    assert_same_profile(fused, plain)


def test_reset_snapshot_restore():
    fused, plain = pair(small_radar, optimize="auto")
    first = fused.run(300)
    snap = fused.snapshot()
    later = fused.run(200)
    fused.restore(snap)
    np.testing.assert_array_equal(fused.run(200), later)
    fused.reset()
    assert widths(fused) == [4, 4, 2, 2, 2, 2]
    np.testing.assert_array_equal(fused.run(300), first)
    assert_close(first, plain.run(300))


def test_two_live_sessions_share_one_cached_entry():
    a = repro.compile(small_radar(), optimize="auto", profiler=Profiler())
    b = repro.compile(small_radar(), optimize="auto", profiler=Profiler())
    assert a.cache_entry is b.cache_entry
    assert widths(a) == widths(b) == [4, 4, 2, 2, 2, 2]
    lanes_a, lanes_b = ([st for st in s._executor.steps
                         if isinstance(st, K.LaneStep)] for s in (a, b))
    assert [st.code for st in lanes_a] == [st.code for st in lanes_b]
    # the decisions carry the lane form that takes `phase` a row, which
    # the sources' sinusoid form is read from
    codes = [s._executor.decisions[s._executor.orbits[1][0]][0]
             for s in (a, b)]
    assert codes[0] is codes[1] and codes[0].varying == {"phase"}
    assert all(isinstance(s._executor.steps[1], K.SinusoidStep)
               for s in (a, b))
    want = repro.compile(small_radar(), optimize="auto",
                         backend="compiled").run(500)
    got_a = [a.run(200)]
    got_b = b.run(500)  # interleaved: same plan, separate state
    got_a.append(a.run(300))
    assert_close(np.concatenate(got_a), want)
    assert_close(got_b, want)
    assert_same_profile(a, b)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("optimize", ["none", "linear", "auto"])
def test_every_app_matches_the_trivial_quotient_and_compiled(name, optimize):
    fused = repro.compile(small(name), optimize=optimize,
                          profiler=Profiler())
    with apart():
        plain = repro.compile(small(name), optimize=optimize,
                              profiler=Profiler())
    ref = repro.compile(small(name), optimize=optimize, backend="compiled",
                        profiler=Profiler())
    fired_fused, fired_plain = count_firings(fused), count_firings(plain)
    n = 4 * N_OUT[name]
    got = fused.run(n)
    assert_close(got, plain.run(n))
    assert_close(got, ref.run(n))
    assert fired_fused == fired_plain
    assert_same_profile(fused, plain)
    if name not in FEEDBACK_APPS:  # islands may fire once more at the tail
        for cat in CATEGORIES:
            assert getattr(fused.profile.counts, cat) == \
                getattr(ref.profile.counts, cat), cat


# ---------------------------------------------------------------------------
# the scalar side of a fused lane step
# ---------------------------------------------------------------------------


def lane_step(session):
    (step,) = [st for st in session._executor.steps
               if isinstance(st, K.LaneStep)]
    return step


def test_a_lane_flagged_on_one_row_refires_every_row_scalar():
    fused, plain = pair(lambda: bank(DIVIDE))
    chunk = np.random.default_rng(5).standard_normal(400)
    with np.errstate(all="raise"):  # nothing may leak out of the step
        np.testing.assert_array_equal(fused.push(chunk), plain.push(chunk))
        np.testing.assert_array_equal(fused.push(chunk), plain.push(chunk))
    step = lane_step(fused)
    assert (step.batches, step.refired) == (2, 2)
    (row,) = [r for r in fused.report().steps if r.width == 5
              and r.node_kind == "filter" and r.name == "Shape"]
    assert row.step_kind == "fallback"
    assert row.reason.endswith("refired 2/2 lane batches scalar")
    assert "5 fall back" in str(fused.report())
    assert_same_profile(fused, plain)


def test_the_lane_threshold_counts_lanes_not_firings(monkeypatch):
    fused, plain = pair(lambda: bank(CLIP))
    step = lane_step(fused)
    lanes, real = [], step._lanes
    monkeypatch.setattr(step, "_lanes", lambda n: lanes.append(n) or real(n))
    below = (MIN - 1) // 5  # firings a row: 5 rows stay under MIN lanes
    assert below * 5 < MIN <= (below + 1) * 5 < 5 * MIN
    rng = np.random.default_rng(6)
    # the Fir peeks 3 ahead: the first push fires 3 short of its length
    for n in (below + 3, below, below + 1, below):
        chunk = rng.standard_normal(n)
        np.testing.assert_array_equal(fused.push(chunk), plain.push(chunk))
    assert lanes == [below + 1]
    assert_same_profile(fused, plain)


def test_counters_are_written_back_to_every_sibling():
    # counter sources as lanes, as they run without a sinusoid form
    with mock.patch.object(PlanExecutor, "_sinusoid", return_value=None):
        fused, plain = pair(small_radar, optimize="auto")
    for s in (fused, plain):
        s.run(2)  # scalar: 4 channels x a few firings
        s.run(1024)  # lanes
        s.run(1)  # scalar again, from the counters the lanes left
    sources = fused._executor.steps[1]
    assert isinstance(sources, K.LaneStep) and sources.batches >= 1
    counts = [node.runner.fields["n"] for node in sources.nodes]
    assert len(set(counts)) == 1 and counts[0] > 256
    assert counts == [st.node.runner.fields["n"]
                      for st in plain._executor.steps[1:9:2]]


def test_sinusoid_counters_are_written_back_to_every_sibling():
    fused, plain = pair(small_radar, optimize="auto")
    for s in (fused, plain):
        for n in (2, 1024, 1):  # a few firings, many, one
            s.run(n)
    sources = fused._executor.steps[1]
    assert isinstance(sources, K.SinusoidStep)
    counts = [node.runner.fields["n"] for node in sources.nodes]
    assert len(set(counts)) == 1 and counts[0] > 256
    assert counts == [st.nodes[0].runner.fields["n"]
                      for st in plain._executor.steps[1:9:2]]


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


def test_storage_after_2000_calls_is_storage_after_20():
    push = repro.compile(bank())
    pull = repro.compile(small_radar(), optimize="auto")

    def storage():
        # (the pull session's list collector keeps its outputs: rings only)
        return held(push), held(pull) - sum(pull.buffers[:2])

    chunk = np.random.default_rng(7).standard_normal(256)
    early = None
    for i in range(1, 2001):
        push.push(chunk)
        pull._executor.advance(64)
        if i == 20:
            early = storage()
    assert storage() == early
