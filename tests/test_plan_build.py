"""One build: a plan entry is built whole on a miss, and a hit only
instantiates it.

For every app under every ``optimize`` mode (and f32 under ``auto``), a
re-elaborated graph compiled a second time hits the plan cache and runs
what the miss ran — the same report, the same steps, bitwise the same
outputs over three calls and the same FLOP counts — without deriving
any of the plan again, and neither does a ``reset()``: no island probe,
no sibling comparison, no pipeline combination, no sinusoid form, no
flattening, no cost count, no lift, no source search, no fold.  Every
session of an entry shares its operators, read-only, and keeps its own
state.  A build that raises stores nothing.  Hermetic: no wall clock.
"""

import contextlib
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS, split_app
from repro.exec import (OPTIMIZE_MODES, PLAN_CACHE, clear_plan_cache,
                        kernels as K, plan_cache_stats, planner)
from repro.linear import expansion, filters, state
from repro.profiling import Profiler

#: what only a build derives, where the build looks it up
DERIVED = ((planner, "probe_island"), (planner, "_sibling_mismatch"),
           (planner, "combine_pipeline_pair"), (planner, "sinusoid_form"),
           (planner, "FlatGraph"), (filters, "cost_counts"),
           (expansion, "expand_firings"), (state, "boundary_lift"),
           (planner, "_source_table"), (K, "fold"))

CASES = [(name, mode, "f64") for name in sorted(BENCHMARKS)
         for mode in OPTIMIZE_MODES] + \
    [(name, "auto", "f32") for name in sorted(BENCHMARKS)]


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@contextlib.contextmanager
def watched():
    """Count the calls of each of :data:`DERIVED`."""
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(mock.patch.object(
            module, name, wraps=getattr(module, name)))
            for module, name in DERIVED}


def calls(watch) -> dict:
    return {name: spy.call_count for name, spy in watch.items()}


def compile_and_run(name, mode, dtype):
    """What a fresh compile of a rebuilt ``name`` does in three calls
    and a ``reset()``: ``(plan entry, report, step census, outputs,
    counts)``."""
    profiler = Profiler()
    with repro.compile(BENCHMARKS[name](), optimize=mode, dtype=dtype,
                       profiler=profiler) as s:
        outputs = [s.run(n) for n in (64, 200, 1)]
        census = Counter(type(step).__name__
                         for step in getattr(s._executor, "steps", ()))
        result = (s.cache_entry, str(s.report()), census, outputs,
                  profiler.counts.copy())
        s.reset()
        assert s.run(64).tobytes() == outputs[0].tobytes()
        return result


@pytest.mark.parametrize("name,mode,dtype", CASES)
def test_a_hit_runs_the_miss_and_derives_nothing(name, mode, dtype):
    with watched() as watch:
        miss = compile_and_run(name, mode, dtype)
        built = calls(watch)
        repro.dsl.clear_source_cache()  # the hit's graph is elaborated anew
        hit = compile_and_run(name, mode, dtype)
        assert calls(watch) == built
    assert plan_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    assert hit[0] is miss[0]
    assert hit[1:3] == miss[1:3]
    for got, want in zip(hit[3], miss[3]):
        assert got.tobytes() == want.tobytes()
    assert hit[4] == miss[4]


@pytest.mark.parametrize("name,mode,derives", [
    ("Echo", "none", "probe_island"),
    ("Radar", "auto", "_sibling_mismatch"),
    ("IIR", "auto", "combine_pipeline_pair"),
    ("Radar", "none", "sinusoid_form"),
    ("Radar", "none", "FlatGraph"),
    ("Radar", "linear", "cost_counts"),
    ("IIR", "auto", "expand_firings"),
    ("IIR", "auto", "boundary_lift"),
    ("FIR", "none", "_source_table"),
    ("Radar", "none", "fold"),
])
def test_a_miss_derives_the_plan(name, mode, derives):
    """The watch sees the build: the hit's zero calls are not
    vacuous."""
    with watched() as watch:
        compile_and_run(name, mode, "f64")
        assert calls(watch)[derives] > 0


def test_a_build_that_raises_stores_nothing():
    iir = BENCHMARKS["IIR"]
    with mock.patch.object(planner, "_stateful_chains",
                           side_effect=RuntimeError("mid-build")):
        with pytest.raises(RuntimeError, match="mid-build"):
            repro.compile(iir())
    assert len(PLAN_CACHE) == 0
    # the next compile misses and builds the plan whole
    with repro.compile(iir()) as s:
        assert s.cache_entry.chains
        np.testing.assert_allclose(s.run(64), repro.compile(
            iir(), backend="compiled").run(64), rtol=1e-9)
    assert plan_cache_stats() == {"hits": 0, "misses": 2, "entries": 1}


def test_racing_misses_share_the_first_stored_build():
    """Threads missing on one key at once each build, and every one of
    them gets the build stored first: one entry, pinned by all."""
    build, n = BENCHMARKS["FIR"], 8
    sessions, lock = [], threading.Lock()

    def compile_one():
        s = repro.compile(build())
        with lock:
            sessions.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_one) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(sessions) == n
    (entry,) = PLAN_CACHE._entries.values()
    assert all(s.cache_entry is entry for s in sessions)
    assert entry.pins == n
    outs = [s.run(100) for s in sessions]
    for out in outs[1:]:
        assert out.tobytes() == outs[0].tobytes()
    for s in sessions:
        s.close()


#: one entry each: stateful carries (IIR), FFT partials (FilterBank),
#: sinusoid counters and lanes (Radar), an island with a scalar member
#: (DToA), a source table (FIR); push bodies and pull programs
SHARED = {
    "IIR body": lambda: split_app(BENCHMARKS["IIR"]())[1],
    "FilterBank body": lambda: split_app(BENCHMARKS["FilterBank"]())[1],
    "Radar": BENCHMARKS["Radar"],
    "DToA": BENCHMARKS["DToA"],
    "FIR": BENCHMARKS["FIR"],
}
CALLS = (64, 1000, 7, 333), (1000, 7, 333, 64)  # each session's sizes


def steps_of(executor) -> list:
    """Every step, an island's members included, in plan order."""
    out = []
    for step in executor.steps:
        out.append(step)
        out.extend(m.step for m in getattr(step, "members", ()))
    return out


def shared_parts(step) -> list:
    """What ``step`` reads from its plan entry: its operator's arrays,
    or a frequency filter's kernel (whose spectra it caches)."""
    found = [step.kernel] if hasattr(step, "kernel") else []

    def walk(x):
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (tuple, list)):
            for v in x:
                walk(v)

    walk([getattr(step, name, None) for name in ("op", "table", "columns")])
    return found


def own_state(step) -> list:
    """The mutable objects ``step`` keeps for its session."""
    held = [getattr(step, name) for name in ("s", "partials", "buffer",
                                             "sink")
            if getattr(step, name, None) is not None]
    nodes = getattr(step, "nodes", None) or [getattr(step, "node", None)]
    return held + [n.runner.fields for n in nodes
                   if getattr(n, "runner", None) is not None]


@pytest.mark.parametrize("name", sorted(SHARED))
def test_sessions_share_operators_and_keep_their_state(name):
    build = SHARED[name]
    push = name.endswith("body")
    data = np.sin(0.01 * np.arange(sum(CALLS[0])) ** 1.5)

    def calls(session, sizes):
        done = np.cumsum((0,) + sizes)
        for a, n in zip(done, sizes):
            yield session.push(data[a:a + n]) if push else session.run(n)

    def solo(sizes):
        with repro.compile(build(), optimize="auto", profiler=Profiler()) \
                as s:
            return np.concatenate(list(calls(s, sizes))), s.profile.counts

    want = [solo(sizes) for sizes in CALLS]
    pair = [repro.compile(build(), optimize="auto", profiler=Profiler())
            for _ in CALLS]
    got = [[], []]
    for outs in zip(*(calls(s, sizes) for s, sizes in zip(pair, CALLS))):
        for mine, out in zip(got, outs):  # interleaved, call by call
            mine.append(out)
    for s, outs, (values, counts) in zip(pair, got, want):
        assert np.concatenate(outs).tobytes() == values.tobytes()
        assert s.profile.counts == counts
    a, b = (s._executor for s in pair)
    assert a.plan is b.plan and plan_cache_stats()["misses"] == 1
    assert not {id(r) for r in a.rings} & {id(r) for r in b.rings}
    parts, held = [], 0
    for sa, sb in zip(steps_of(a), steps_of(b)):
        assert type(sa) is type(sb)
        for x, y in zip(shared_parts(sa), shared_parts(sb)):
            assert x is y
            parts.append(x)
        for x, y in zip(own_state(sa), own_state(sb)):
            assert x is not y
            held += 1
    assert parts and held
    arrays = [x for x in parts if isinstance(x, np.ndarray)]
    assert not any(x.flags.writeable for x in arrays)
    if arrays:
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][...] = 0
    for s in pair:
        s.close()
