"""Block-paced pull runs: schedule jumps in the rate simulator and the
periodic-source kernel.

Both replace iteration by arithmetic over a closed deterministic system,
so every test is differential and exact: firing counts and FLOPs against
``backend="compiled"`` (or, where a feedback island makes the scalar
tail differ, against the same plan driven pass by pass), values bitwise
against the scalar source loop.
"""

import math
import random

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS
from repro.errors import InterpError
from repro.exec import clear_plan_cache, kernels as K
from repro.exec import planner
from repro.exec.planner import PlanExecutor
from repro.graph import Pipeline
from repro.linear.filters import ConstantSourceFilter
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import ListSource, run_graph

DSL = """
void->float filter Ramp(int period) {
    int idx;
    work push 1 {
        push(idx * 0.5);
        idx = (idx + 1) % period;
    }
}

/* cycles through `period` states after a run-in of `lead` firings */
void->float filter LateRamp(int lead, int period) {
    int t;
    work push 1 {
        push(sin(0.3 * t));
        t = t + 1;
        if (t >= lead + period) {
            t = lead;
        }
    }
}

void->float filter Pair(int period) {
    int idx;
    work push 2 {
        push(idx);
        push(cos(0.7 * idx));
        idx = (idx + 1) % period;
    }
}

/* never recurs within the search limit, and no additive counter */
void->float filter Counter {
    int n;
    work push 1 {
        push(cos(0.01 * n));
        n = (n + 1) % 100000;
    }
}

void->float filter Primed(int period) {
    int idx;
    prework push 1 {
        push(-1.0);
    }
    work push 1 {
        push(idx);
        idx = (idx + 1) % period;
    }
}

float->float filter Block(int E, int O, int U) {
    work peek E pop O push U {
        for (int j = 0; j < U; j++) {
            float sum = 0.0;
            for (int i = j; i < E; i += U) {
                sum = sum + (0.25 + 0.01 * i) * peek(i);
            }
            push(sum);
        }
        for (int i = 0; i < O; i++) {
            pop();
        }
    }
}

float->float filter Keep1of(int M) {
    work peek M pop M push 1 {
        push(pop() * 2.0);
        for (int i = 0; i < M - 1; i++) {
            pop();
        }
    }
}

float->float filter Scale(float g) {
    work peek 1 pop 1 push 1 {
        push(g * pop());
    }
}

void->float pipeline Paced(int period, int E, int O, int U, int M) {
    add Ramp(period);
    add Block(E, O, U);
    if (M > 0) {
        add Keep1of(M);
    }
}

void->float pipeline Lane(int period, int E, int O, int U) {
    add Ramp(period);
    add Block(E, O, U);
}

void->float splitjoin TwoLanes {
    split duplicate;
    add Lane(5, 70, 66, 2);
    add Lane(7, 130, 100, 3);
    join roundrobin(2, 3);
}

float->float filter Mix {
    work peek 2 pop 2 push 2 {
        float y = pop() + pop();
        push(y);
        push(y);
    }
}

float->float feedbackloop Loop(int delay) {
    join roundrobin(1, 1);
    body Mix();
    loop Scale(0.5);
    split roundrobin(1, 1);
    for (int i = 0; i < delay; i++) {
        enqueue 0.0;
    }
}

void->float pipeline PacedLoop {
    add Ramp(9);
    add Block(96, 80, 4);
    add Loop(3);
}

void->float pipeline PrimedPaced {
    add Primed(6);
    add Block(96, 80, 4);
}

/* 1771 source items, 77 busy passes and 15 outputs to a period */
void->float pipeline Coprime {
    add Ramp(7);
    add Block(75, 23, 3);
    add Block(13, 11, 5);
    add Keep1of(7);
}

void->float pipeline Just(int which, int a, int b) {
    if (which == 0) { add Ramp(a); }
    if (which == 1) { add LateRamp(a, b); }
    if (which == 2) { add Pair(a); }
    if (which == 3) { add Counter(); }
    add Scale(3.0);
}
"""


def session(top, args=(), **kw):
    """A cold session on a freshly compiled plan."""
    clear_plan_cache()
    kw.setdefault("profiler", Profiler())
    return repro.compile(DSL, top=top, args=args, **kw)


def count_firings(s) -> dict:
    """Instrument a fresh session: node name -> firings, filled as it
    runs (plan: the batch sizes its steps execute; compiled: the scalar
    firings of its flat nodes)."""
    fired: dict = {}
    ex = s._executor

    def counting(name, call, size):
        def wrapped(*a):
            fired[name] = fired.get(name, 0) + size(*a)
            return call(*a)
        return wrapped

    if isinstance(ex, PlanExecutor):
        for entry, step in zip(ex.outer_entries, ex.steps):
            name = getattr(entry, "name", None) or entry.stream.name
            step.execute = counting(name, step.execute, lambda n: n)
    else:
        for node in ex.nodes:
            node.fire = counting(node.name, node.fire, lambda p: 1)
    return fired


def literal(s):
    """Force every jump of a plan session to ``k = 0``: the pass-by-pass
    simulator it must be indistinguishable from."""
    s._executor._demand = lambda goal: 0
    return s


def assert_same_counts(a: Profiler, b: Profiler):
    for cat in CATEGORIES:
        assert getattr(a.counts, cat) == getattr(b.counts, cat), cat


def source_steps(s):
    return [st for st in s._executor.steps
            if isinstance(st, K.PeriodicSourceStep)]


def scalar_sources(s):
    """Swap a fresh plan session's source steps for the FallbackStep
    they replaced: the scalar reference."""
    steps = s._executor.steps
    for i, step in enumerate(steps):
        if isinstance(step, K.PeriodicSourceStep):
            steps[i] = K.FallbackStep(step.node, step.ring_in, step.ring_out)
    return s


# ---------------------------------------------------------------------------
# (a) schedule jumps
# ---------------------------------------------------------------------------


def paced_cases():
    rng = random.Random(12)
    for _ in range(8):
        pop = rng.randint(65, 400)
        peek = pop + rng.choice([0, 0, 1, 37, pop])  # incl. peek > pop
        push = rng.randint(1, 6)
        yield (rng.randint(1, 40), peek, pop, push,
               rng.choice([0, 0, 2, 5]))


@pytest.mark.parametrize("args", list(paced_cases()))
def test_jumps_keep_firing_counts_and_flops(args):
    """source -> block consumer [-> decimator]: a cold run and every
    split of it — ending inside the first block, mid-block and exactly
    on a block edge — fire each node exactly as often as the scalar
    executor does."""
    _period, _peek, _pop, push, m = args
    per_block = push if not m else 1  # outputs a block firing completes
    total = 7 * max(push, m or 1) + 3
    for k1 in (1, per_block, 2 * push + 1, 3 * max(push, m or 1)):
        k1 = min(k1, total - 1)
        for splits in ([total], [k1, total - k1]):
            runs = {}
            for backend in ("compiled", "plan"):
                s = session("Paced", args, backend=backend)
                fired = count_firings(s)
                out = np.concatenate([s.run(k) for k in splits])
                runs[backend] = (out, fired, s.profile)
            (out_c, fired_c, prof_c), (out_p, fired_p, prof_p) = \
                runs["compiled"], runs["plan"]
            np.testing.assert_allclose(out_p, out_c, atol=1e-9)
            assert fired_p == fired_c, (args, splits)
            assert_same_counts(prof_p, prof_c)


def assert_jumps_equal_literal(make, splits):
    """Same batches per step, same lifetime pass count, bitwise the same
    outputs and exact FLOPs as simulating every pass."""
    fast, slow = make(), literal(make())
    fired_fast, fired_slow = count_firings(fast), count_firings(slow)
    for k in splits:
        np.testing.assert_array_equal(fast.run(k), slow.run(k))
    assert fired_fast == fired_slow
    assert fast._executor._passes == slow._executor._passes
    assert_same_counts(fast.profile, slow.profile)
    assert fast._executor.jumps > 0
    assert slow._executor.jumps == 0
    assert slow._executor.passes_literal == slow._executor._passes
    assert fast._executor.passes_literal < slow._executor.passes_literal
    return fast, slow


@pytest.mark.parametrize("top", ["Paced", "TwoLanes", "PacedLoop",
                                 "Coprime", "PrimedPaced"])
def test_jumps_equal_the_literal_simulator(top):
    """Jumping is invisible — also on two sources with unequal needs, in
    front of a feedback island, behind a source with prework, and on a
    cascade whose schedule only repeats after 77 busy passes."""
    args = (11, 150, 101, 3, 2) if top == "Paced" else ()
    for splits in ([57], [1, 56], [23, 34], [30, 27]):
        fast, _ = assert_jumps_equal_literal(lambda: session(top, args),
                                             splits)
        # one literal pass per run: the one that reaches the target
        assert fast._executor.passes_literal == len(splits)


def test_jumps_flush_mid_run_like_the_literal_simulator(monkeypatch):
    """``DEFAULT_CHUNK_OUTPUTS`` below the run length: a jump stops at
    each chunk boundary, the flush happens there, the counts do not
    move."""
    monkeypatch.setattr(planner, "DEFAULT_CHUNK_OUTPUTS", 8)
    for splits in ([57], [23, 34]):
        fast, _ = assert_jumps_equal_literal(
            lambda: session("Coprime"), splits)
        # one jump and one literal pass per chunk, not per run
        assert fast._executor.jumps >= 57 // 8
        assert fast._executor.passes_literal >= 57 // 8


@pytest.mark.parametrize("hint", [1, 7, 10 ** 6, "double", "random"])
def test_any_demand_hint_gives_the_same_schedule(hint):
    """The sweep decides; ``_demand`` only sizes the jump.  Too small a
    hint costs literal passes, too large a one is rolled back."""
    rng = random.Random(5)
    for top in ("TwoLanes", "PrimedPaced", "Coprime"):
        exact, wrong = session(top), session(top)
        ex = wrong._executor
        real = ex._demand
        ex._demand = {
            "double": lambda goal: 2 * real(goal),
            "random": lambda goal: rng.randint(0, 3 * real(goal)),
        }.get(hint, lambda goal: hint)
        fired_exact, fired_wrong = count_firings(exact), count_firings(wrong)
        for k in (23, 1, 34):
            np.testing.assert_array_equal(wrong.run(k), exact.run(k))
        assert fired_wrong == fired_exact
        assert ex._passes == exact._executor._passes
        assert_same_counts(wrong.profile, exact.profile)


@pytest.mark.parametrize("top", ["Paced", "TwoLanes", "PacedLoop"])
def test_demand_is_the_literal_first_hit_pass(top):
    """Over 200 random (occupancy, target) states: the backward walk
    names the very pass at which the pass-by-pass simulator reaches the
    target — one walk, one jump, one literal pass per run."""
    args = (11, 150, 101, 3, 2) if top == "Paced" else ()
    rng = random.Random(top)
    fast, slow = session(top, args), literal(session(top, args))
    ex = fast._executor
    asked = []
    real = ex._demand

    def recording(goal):
        asked.append((ex._passes, real(goal)))
        return asked[-1][1]

    ex._demand = recording
    for _ in range(120):
        k = rng.choice([1, 2, 3, 5, rng.randint(1, 40), rng.randint(1, 400)])
        before = len(asked)
        fast.run(k)
        slow.run(k)
        if len(asked) > before:  # leftovers did not cover the run
            (passes_then, first_hit), = asked[before:]
            assert passes_then + first_hit == slow._executor._passes
        assert ex._passes == slow._executor._passes
    # every simulated drive is checked above; a drive whose state was
    # simulated before replays it and asks nothing.  Simulated: 56 / 81 /
    # 43 of the 120 runs (Paced / TwoLanes / PacedLoop)
    assert len(asked) >= 40  # x 3 graphs
    assert ex.replayed > 0 or top == "TwoLanes"


@pytest.mark.parametrize("top", ["TwoLanes", "PacedLoop"])
def test_jumps_match_compiled_values(top):
    compiled = session(top, backend="compiled")
    plan = session(top)
    for k in (5, 40, 1, 32):
        np.testing.assert_allclose(plan.run(k), compiled.run(k), atol=1e-9)
    if top == "TwoLanes":  # acyclic: FLOPs are exact too
        assert_same_counts(plan.profile, compiled.profile)


def test_list_source_runs_dry_inside_a_jump():
    """136 items through a 3:1 decimator are 45 outputs: the jump stops
    where the source does and the next pass reports the deadlock, in
    the scalar executor's words and after as many passes."""
    keep = lambda: repro.dsl.load_source(DSL, "Keep1of", 3)
    listed = lambda **kw: repro.compile(
        Pipeline([ListSource([0.5 * i for i in range(136)]), keep()]), **kw)
    message = "deadlock: no source progress, 45/100 outputs"
    sessions = [listed(backend="compiled"), listed(), literal(listed())]
    for s in sessions:
        with pytest.raises(InterpError, match=message):
            s.run(100)
    assert [s._executor._passes for s in sessions] == [137] * 3
    assert sessions[1]._executor.passes_literal == 1
    np.testing.assert_allclose(listed().run(45),
                               listed(backend="compiled").run(45))


def test_push_sessions_drain_in_one_jump():
    """A push has no target, so no pass stops early: whatever the chunk
    size, a drain is one jump and no literal pass."""
    block = lambda: repro.dsl.load_source(DSL, "Block", 96, 80, 4)
    data = np.arange(2000.0)
    whole = repro.compile(block())
    parts = repro.compile(block())
    scalar = repro.compile(block(), backend="compiled")
    out = whole.push(data)
    chunks = np.split(data, [1, 95, 96, 1111])
    np.testing.assert_allclose(
        out, np.concatenate([parts.push(c) for c in chunks]), atol=1e-9)
    np.testing.assert_allclose(out, scalar.push(data), atol=1e-9)
    assert_same_counts(whole.profile, parts.profile)
    assert_same_counts(whole.profile, scalar.profile)
    assert (whole._executor.jumps, parts._executor.jumps) == (1, 5)
    assert whole._executor.passes_literal == 0
    assert whole._executor._passes == parts._executor._passes == 2000


# ---------------------------------------------------------------------------
# (b) periodic sources
# ---------------------------------------------------------------------------

PERIODIC = {
    "ramp": ((0, 7, 0), "transient 0, period 7"),
    "late": ((1, 5, 9), "transient 5, period 9"),
    "pair": ((2, 4, 0), "transient 0, period 4"),
}


@pytest.mark.parametrize("name", sorted(PERIODIC))
@pytest.mark.parametrize("dtype", ["f64", "f32", "c64"])
def test_periodic_source_replays_bitwise_with_exact_flops(name, dtype):
    """Transient + cycle, ``push 2`` and every policy: replay is
    bitwise the scalar loop, with the FLOPs of the firings it replaces
    (``LateRamp`` and ``Pair`` call libm per firing)."""
    args, detail = PERIODIC[name]
    plan = session("Just", args, dtype=dtype)
    scalar = scalar_sources(session("Just", args, dtype=dtype))
    for k in (3, 1, 40, 17, 64):
        got = plan.run(k)
        assert got.dtype == plan.policy.dtype
        np.testing.assert_array_equal(got, scalar.run(k))
        assert_same_counts(plan.profile, scalar.profile)
    assert scalar.profile.counts.fcall or name == "ramp"
    (step,) = source_steps(plan)
    assert (step.kind, step.detail) == ("periodic-source", detail)
    rep = plan.report()
    assert rep.steps[0].step_kind == "periodic-source"
    assert rep.steps[0].reason == detail and not rep.fallbacks
    if dtype == "f64":  # scalar backends compute in f64 only
        compiled = session("Just", args, backend="compiled")
        np.testing.assert_array_equal(compiled.run(125),
                                      session("Just", args).run(125))
        assert_same_counts(compiled.profile, plan.profile)


def test_counter_source_gives_up_and_stays_the_scalar_loop():
    """A period beyond the firing limit: the step drops its bookkeeping
    and the stream is bitwise FallbackStep's throughout (an additive
    ``n = n + 1`` never gets here: tests/test_lane_kernel.py)."""
    n = K.SOURCE_RECURRENCE_LIMIT + 500
    plan = session("Just", (3, 0, 0))
    (step,) = source_steps(plan)
    got = np.concatenate([plan.run(n // 2), plan.run(n - n // 2)])
    np.testing.assert_array_equal(
        got, scalar_sources(session("Just", (3, 0, 0))).run(n))
    assert step.kind == "fallback" and step._seen is None
    assert step.detail == (f"state did not recur within "
                           f"{K.SOURCE_RECURRENCE_LIMIT} firings")
    (row,) = plan.report().fallbacks
    assert row.reason.startswith("state did not recur within 1024 firings; "
                                 "not lane-convertible: field n is not")


def test_report_settles_a_source_that_has_not_fired_yet():
    """Detection is lazy, the report is not: a fresh session already
    says what each source will turn out to be, without firing it."""
    fresh = session("Just", (1, 5, 9))
    assert fresh.report().steps[0].reason == "transient 5, period 9"
    (step,) = source_steps(fresh)
    assert step.fired == 0 and step.detail is None
    counter = session("Just", (3, 0, 0)).report()
    assert counter.steps[0].step_kind == "fallback"


def test_reset_and_restore_restart_detection():
    plan = session("Just", (1, 5, 9))
    first = plan.run(50)
    snap = plan.snapshot()
    later = plan.run(30)
    plan.restore(snap)
    flops = plan.profile.counts.flops
    np.testing.assert_array_equal(plan.run(30), later)
    before = plan.profile.counts.flops
    plan.reset()
    np.testing.assert_array_equal(plan.run(50), first)
    # the run after a reset costs what the stream's first 50 did
    assert plan.profile.counts.flops - before == flops
    assert source_steps(plan)[0].detail == "transient 5, period 9"


def test_periodic_source_under_workers():
    serial = repro.compile(BENCHMARKS["FIR"](taps=32), optimize="auto")
    with repro.compile(BENCHMARKS["FIR"](taps=32), optimize="auto",
                       workers=2) as par:
        for k in (100, 700):
            np.testing.assert_allclose(par.run(k), serial.run(k), atol=1e-9)
        assert source_steps(par)[0].kind == "periodic-source"
        assert par.profile.counts.flops == serial.profile.counts.flops


def test_second_cold_run_graph_detects_the_source_again():
    """A second cold ``run_graph`` reuses the cached plan on a fresh
    executor: its source step must detect the period again."""
    clear_plan_cache()
    build = lambda: repro.dsl.load_source(DSL, "Paced", 6, 96, 80, 4, 0)
    p1, p2 = Profiler(), Profiler()
    first = run_graph(build(), 300, p1, backend="plan")
    again = run_graph(build(), 300, p2, backend="plan")
    assert again == first
    assert_same_counts(p1, p2)
    np.testing.assert_allclose(first, run_graph(build(), 300), atol=1e-9)


def test_constant_source_is_the_period_one_case():
    """A complex constant vector survives under ``c64`` (the old
    ConstantSourceStep built a float array whatever the policy)."""
    values = [1 + 2j, -0.5j, 3.0]
    s = repro.compile(Pipeline([ConstantSourceFilter(values)]), dtype="c64")
    np.testing.assert_array_equal(
        s.run(7), np.tile(np.asarray(values, dtype=np.complex64), 3)[:7])
    (step,) = source_steps(s)
    assert (step.kind, step.detail) == ("periodic-source",
                                        "transient 0, period 1")


def test_source_step_passes_the_kernel_fault_site():
    from repro import faults
    from repro.errors import FaultInjected
    s = session("Just", (0, 7, 0))
    searching, = source_steps(session("Just", (0, 7, 0)))
    s.run(30)
    replaying, = source_steps(s)
    assert replaying.period and not searching.period
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0}))
    try:
        for step in (searching, replaying):
            with pytest.raises(FaultInjected):
                step.execute(1)
    finally:
        faults.uninstall()


# ---------------------------------------------------------------------------
# (c) the FIR finding, as counters
# ---------------------------------------------------------------------------


def test_resumed_fir_run_is_block_paced():
    """The ``fir_pull`` call: a resumed ``run(8192)`` on FIR(256) under
    ``auto`` is one jump and one literal pass (it was one pass per
    source item, 8 448) and never fires the scalar source."""
    s = repro.compile(BENCHMARKS["FIR"](), optimize="auto")
    s.run(64)
    s.run(8192)
    ex = s._executor
    (step,) = source_steps(s)
    assert step.kind == "periodic-source"
    scalar = []
    step.node.runner.fire = lambda *a: scalar.append(a)
    before = (ex._passes, ex.jumps, ex.passes_literal)
    s.run(8192)
    after = (ex._passes, ex.jumps, ex.passes_literal)
    assert after[0] - before[0] > 7000  # still one per source item
    assert after[1:] == (before[1] + 1, before[2] + 1)
    assert scalar == []
    text = str(s.report())
    assert "periodic-source" in text
    assert f"schedule: {after[0]} passes, 3 jumps, 3 literal passes" in text


#: resumed run length per app: what ``perfbench`` and the bench tables use
CENSUS = {name: 8192 for name in BENCHMARKS}
CENSUS.update(Vocoder=128, VocoderEcho=128, DToA=1024, Radar=1024)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_schedule_census(name):
    """The cost of a resumed ``run(n)`` does not depend on the schedule's
    period: on every app it advances with at most two literal passes
    (FMRadio took 8 192, TargetDetect 2 027) and exactly as many passes,
    firings and FLOPs as the pass-by-pass reference."""
    n = CENSUS[name]
    fast = repro.compile(BENCHMARKS[name](), optimize="auto")
    slow = literal(repro.compile(BENCHMARKS[name](), optimize="auto"))
    assert isinstance(fast._executor, PlanExecutor), fast.bailout
    fired_fast, fired_slow = count_firings(fast), count_firings(slow)
    for s in (fast, slow):
        s.run(64)
    literal_before = fast._executor.passes_literal
    np.testing.assert_array_equal(fast.run(n), slow.run(n))
    assert fast._executor.passes_literal - literal_before <= 2
    assert fast._executor._passes == slow._executor._passes
    assert fired_fast == fired_slow
    assert_same_counts(fast.profile, slow.profile)
