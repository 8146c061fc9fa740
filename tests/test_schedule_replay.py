"""Schedule replay: a warm call fires what the simulator fired before.

Every call of a plan executor is simulated once per integer state
(occupancies, init phases, source budgets) and replayed when the state
recurs (``PlanExecutor._scheduled``).  The reference is the same session
with its table emptied before every call, which simulates every call:
outputs bitwise, FLOPs exact, the same firings of every step and the
same simulator state and counters afterwards.  Also here: the
roundrobin join that moves a run of ``w`` items as one void item,
against the element-wise copy it replaces.
"""

from unittest import mock

import numpy as np
import pytest

import repro
from repro import faults
from repro.apps import BENCHMARKS, split_app
from repro.dsl import load_source
from repro.errors import FaultInjected
from repro.exec import PlanExecutor, clear_plan_cache
from repro.exec import kernels as K
from repro.exec.planner import SCHEDULE_TABLE_SIZE
from repro.exec.ring import RingBuffer
from repro.profiling import Profiler
from test_pull_pacing import CENSUS, assert_same_counts, count_firings
from test_sibling_fusion import apart


def simulating(session):
    """``session`` with its schedule table emptied before every call:
    the simulate-every-call reference."""
    ex = session._executor
    for name in ("_drive", "drain_available"):
        real = getattr(ex, name)

        def call(*a, real=real):
            ex._schedules.clear()
            return real(*a)
        setattr(ex, name, call)
    return session


def twins(build, **kw):
    """``(kept, simulated)`` sessions of ``build()``, own profilers."""
    clear_plan_cache()
    kept = repro.compile(build(), profiler=Profiler(), **kw)
    simulated = simulating(repro.compile(build(), profiler=Profiler(), **kw))
    assert isinstance(kept._executor, PlanExecutor), kept.bailout
    return kept, simulated


def assert_same_state(a, b):
    ea, eb = a._executor, b._executor
    assert ea._occ == eb._occ
    assert [(sn.fired, sn.remaining) for sn in ea.sim_nodes] == \
        [(sn.fired, sn.remaining) for sn in eb.sim_nodes]
    assert (ea._passes, ea.jumps, ea.passes_literal, ea._sink_fires) == \
        (eb._passes, eb.jumps, eb.passes_literal, eb._sink_fires)
    assert ea.calls == eb.calls
    assert eb.replayed == 0


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_replay_is_the_simulation(name):
    """``run(64)`` then six resumed census runs on every app: the
    replaying session is the simulating one, call by call."""
    kept, simulated = twins(BENCHMARKS[name], optimize="auto")
    fired_kept = count_firings(kept)
    fired_simulated = count_firings(simulated)
    for n in [64] + [CENSUS[name]] * 6:
        np.testing.assert_array_equal(kept.run(n), simulated.run(n))
        assert_same_counts(kept.profile, simulated.profile)
        assert fired_kept == fired_simulated
        assert_same_state(kept, simulated)
    ex = kept._executor
    assert ex.calls == 7
    assert 0 <= ex.replayed <= 6
    assert len(ex._schedules) == ex.calls - ex.replayed


def test_radar_replays_every_warm_call():
    """The ``radar_pull`` call: after the first two resumed runs the
    state recurs, and the report says so."""
    clear_plan_cache()
    s = repro.compile(BENCHMARKS["Radar"](), optimize="auto")
    s.run(64)
    for _ in range(6):
        s.run(1024)
    ex = s._executor
    assert (ex.replayed, ex.calls, len(ex._schedules)) == (5, 7, 2)
    assert ex.jumps == 7 and ex.passes_literal == 7
    line, = [line for line in str(s.report()).splitlines()
             if line.startswith("schedule:")]
    assert line == (f"schedule: {ex._passes} passes, 7 jumps, "
                    "7 literal passes, 5 of 7 calls replayed")


def fir_body():
    return split_app(BENCHMARKS["FIR"]())[1]


def filterbank_body():
    return split_app(BENCHMARKS["FilterBank"]())[1]


def test_small_pushes_replay():
    """FIR(256) body, 64-sample pushes (``fir_push_small``): the drain's
    state recurs, so most pushes replay — at the simulated outputs."""
    kept, simulated = twins(fir_body, optimize="auto")
    chunks = np.random.default_rng(3).standard_normal((80, 64))
    for chunk in chunks:
        np.testing.assert_array_equal(kept.push(chunk),
                                      simulated.push(chunk))
        assert_same_state(kept, simulated)
    assert_same_counts(kept.profile, simulated.profile)
    ex = kept._executor
    # the frequency step's block is a whole number of pushes: the drain
    # cycles through a few dozen states, each simulated once
    assert ex.calls == 80 and ex.replayed == 80 - len(ex._schedules) > 40
    assert f"{ex.replayed} of 80 calls replayed" in str(kept.report())


def test_states_that_never_recur_stop_being_kept():
    """FilterBank body, 4096-sample pushes (``filterbank_push``): no
    drain starts from a state seen before, so nothing replays; once the
    table is full of such states it is dropped, and every later call is
    simulated with no bookkeeping — at the outputs the simulation
    gives."""
    kept, simulated = twins(filterbank_body, optimize="auto")
    ex = kept._executor
    chunks = np.random.default_rng(4).standard_normal((4, 4096))
    sizes = []
    for i in range(SCHEDULE_TABLE_SIZE + 40):
        np.testing.assert_array_equal(kept.push(chunks[i % 4]),
                                      simulated.push(chunks[i % 4]))
        sizes.append(len(ex._schedules or ()))
    assert_same_state(kept, simulated)
    assert_same_counts(kept.profile, simulated.profile)
    assert ex.replayed == 0 and ex._schedules is None
    assert sizes[SCHEDULE_TABLE_SIZE - 1] == SCHEDULE_TABLE_SIZE
    assert sizes[SCHEDULE_TABLE_SIZE:] == [0] * 40


def test_a_full_table_that_has_replayed_is_emptied():
    """FIR(256) under ``auto``, a table of 8: the resumed ``run(8192)``
    states recur, then runs of new lengths fill the table, which is
    emptied and refilled — within its bound, replaying what recurs."""
    kept, simulated = twins(BENCHMARKS["FIR"], optimize="auto")
    ex = kept._executor
    sizes = []
    with mock.patch("repro.exec.planner.SCHEDULE_TABLE_SIZE", 8):
        for n in [64] + [8192] * 6 + list(range(1, 21)) + [8192] * 6:
            np.testing.assert_array_equal(kept.run(n), simulated.run(n))
            sizes.append(len(ex._schedules))
    assert_same_state(kept, simulated)
    assert_same_counts(kept.profile, simulated.profile)
    assert max(sizes) == 8 and 1 in sizes[8:]  # emptied on the way
    assert ex.replayed == 3 + 3  # of each six run(8192), the last three


def test_parallel_session_replays_through_its_flush():
    """A ``workers=2`` session: replayed vectors go through the parallel
    executor's region scheduler, as simulated ones do."""
    chunks = np.random.default_rng(5).standard_normal((12, 256))
    kept, simulated = twins(fir_body, workers=2)
    with kept, simulated:
        ex = kept._executor
        flushes = []
        real = ex._flush

        def flush():
            flushes.append(ex.replayed)
            real()
        ex._flush = flush
        for chunk in chunks:
            np.testing.assert_array_equal(kept.push(chunk),
                                          simulated.push(chunk))
            assert_same_state(kept, simulated)
        assert ex.replayed == 9
        assert flushes[-1] == 9  # the replayed call flushed
        assert ex.metrics["tasks"] == simulated._executor.metrics["tasks"]
        assert_same_counts(kept.profile, simulated.profile)


def test_a_fault_in_a_replayed_step_propagates_and_records_nothing():
    """FIR(256) body as one matmul step, which every push fires."""
    clear_plan_cache()
    s = repro.compile(fir_body())
    ex = s._executor
    chunk = np.ones(64)
    for _ in range(6):  # from the fifth push on, 255 items wait
        s.push(chunk)
    kept = dict(ex._schedules)
    assert ex.replayed == 1
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0}))
    try:
        with pytest.raises(FaultInjected):
            s.push(chunk)  # a state seen before: replayed
        assert ex.replayed == 2
        assert ex._schedules == kept
        fresh = repro.compile(fir_body())
        with pytest.raises(FaultInjected):
            fresh.push(np.ones(300))  # simulated, and raised: not kept
        assert fresh._executor.calls == 1
        assert not fresh._executor._schedules
    finally:
        faults.uninstall()


# ---------------------------------------------------------------------------
# the roundrobin join: a run of w items as one item
# ---------------------------------------------------------------------------


def join_case(dtype, layout, n, seed):
    """Input rings of ``layout`` ``(rows, w)`` pairs, random contents
    past a popped head, and the output ring."""
    rng = np.random.default_rng(seed)
    rings = []
    for rows, w in layout:
        ring = RingBuffer("in", dtype=dtype, rows=rows)
        data = rng.standard_normal((rows, 7 + n * w + 5))
        if np.dtype(dtype).kind == "c":
            data = data + 1j * rng.standard_normal(data.shape)
        ring.alloc_push(data.shape[1])[...] = data if rows > 1 else data[0]
        ring.pop_block(7)
        rings.append(ring)
    return rings, RingBuffer("out", dtype=dtype)


def joined(layout, dtype, n, grouped: bool):
    """``n`` join firings over a fresh :func:`join_case`, checked
    against a transposition of the inputs; ``grouped=False`` forces the
    element-wise copy on every input."""
    rings, out = join_case(dtype, layout, n, seed=len(layout) * 31 + n)
    step = K.RoundRobinJoinStep(rings, out, [w for _, w in layout])
    if not grouped:
        step.runs = [None] * len(layout)
    expected = np.concatenate([
        r.peek_block(n * w).reshape(-1, n, w).transpose(1, 0, 2)
        .reshape(n, -1) for r, (_, w) in zip(rings, layout) if w], axis=1)
    step.execute(n)
    got = out.pop_block_array(n * step.total)
    np.testing.assert_array_equal(got, expected.reshape(-1))
    assert all(len(r) == 5 for r in rings)
    return got


LAYOUTS = [[(rows, w)] for rows in (1, 3, 12) for w in (1, 2, 3, 5)] + [
    [(12, 2), (1, 3), (3, 1)],  # mixed weights and row counts
    [(3, 5), (1, 0), (12, 2), (3, 0)],  # zero weights in between
    [(1, 0), (3, 3)],
]


@pytest.mark.parametrize("dtype", ["f4", "f8", "c8", "c16"])
@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_void_runs_equal_the_elementwise_join(layout, dtype):
    """Bitwise, against the element-wise copy and a transposition of
    the inputs, for every dtype and at 1 and many firings."""
    for n in (1, 4, 37):
        grouped = joined(layout, dtype, n, grouped=True)
        plain = joined(layout, dtype, n, grouped=False)
        assert grouped.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(grouped, plain)


def test_void_runs_only_where_rows_and_weight_exceed_one():
    rings, out = join_case("f8", [(12, 2), (1, 3), (3, 1)], 1, seed=0)
    step = K.RoundRobinJoinStep(rings, out, [2, 3, 1])
    assert [None if r is None else r.itemsize for r in step.runs] == \
        [16, None, None]


#: siblings with a two-item output joined ``roundrobin(2)``: fused, the
#: join reads a 3-row ring as void runs; planned apart, three one-row
#: rings element-wise.  Lane stages, so both agree bitwise
PAIRS = """
float->float filter Both(float g) {
    float gain = g;
    work pop 1 push 2 {
        float x = pop();
        push(gain * abs(x));
        push(x * x - gain);
    }
}
float->float splitjoin Fan {
    split duplicate;
    add Both(0.5);
    add Both(1.5);
    add Both(-2.0);
    join roundrobin(2, 2, 2);
}
float->float pipeline Wide {
    add Fan();
    add Both(0.25);
}
"""


def test_fused_and_unfused_splitjoin_join_alike():
    chunk = np.random.default_rng(6).standard_normal(300)
    clear_plan_cache()
    fused = repro.compile(load_source(PAIRS, "Wide"))
    with apart():
        plain = repro.compile(load_source(PAIRS, "Wide"))
    joins = [[st for st in s._executor.steps
              if isinstance(st, K.RoundRobinJoinStep)][0]
             for s in (fused, plain)]
    assert joins[0].runs[0] is not None
    assert all(r is None for r in joins[1].runs)
    compiled = repro.compile(load_source(PAIRS, "Wide"), backend="compiled")
    for part in np.split(chunk, [1, 64, 65]):
        out = fused.push(part)
        np.testing.assert_array_equal(out, plain.push(part))
        np.testing.assert_array_equal(out, compiled.push(part))
