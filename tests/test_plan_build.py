"""One build: a plan entry is built whole on a miss, and a hit only
instantiates it.

For every app under every ``optimize`` mode (and f32 under ``auto``), a
rebuilt graph compiled a second time hits the plan cache and runs what
the miss ran — the same report, the same steps, bitwise the same
outputs over three calls and the same FLOP counts — without deriving
any of the plan again: no island probe, no sibling comparison, no
pipeline combination, no sinusoid form.  A build that raises stores
nothing.  Hermetic: no wall clock.
"""

import contextlib
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS
from repro.exec import (OPTIMIZE_MODES, PLAN_CACHE, clear_plan_cache,
                        plan_cache_stats, planner)
from repro.profiling import Profiler

#: what only a build derives, as the planner calls it
DERIVED = ("probe_island", "_sibling_mismatch", "combine_pipeline_pair",
           "sinusoid_form")

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
    """Count the planner's calls of each of :data:`DERIVED`."""
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(mock.patch.object(
            planner, name, wraps=getattr(planner, name)))
            for name in DERIVED}


def calls(watch) -> dict:
    return {name: spy.call_count for name, spy in watch.items()}


def compile_and_run(name, mode, dtype):
    """What a fresh compile of a rebuilt ``name`` does in three calls:
    ``(plan entry, report, step census, outputs, counts)``."""
    profiler = Profiler()
    with repro.compile(BENCHMARKS[name](), optimize=mode, dtype=dtype,
                       profiler=profiler) as s:
        outputs = [s.run(n) for n in (64, 200, 1)]
        census = Counter(type(step).__name__
                         for step in getattr(s._executor, "steps", ()))
        return (s.cache_entry, str(s.report()), census, outputs,
                profiler.counts)


@pytest.mark.parametrize("name,mode,dtype", CASES)
def test_a_hit_runs_the_miss_and_derives_nothing(name, mode, dtype):
    with watched() as watch:
        miss = compile_and_run(name, mode, dtype)
        built = calls(watch)
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
