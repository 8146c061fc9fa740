"""Plan caching: fingerprints, reuse, invalidation.

The contract: repeated ``run_graph`` calls on the same (or
content-identical) graph reuse the cached plan — no re-extraction, no
re-probing — while any in-place mutation of the graph changes the
fingerprint and cleanly invalidates the entry, so results always reflect
the current coefficients.
"""

import numpy as np
import pytest

from repro import exec as rexec
from repro.apps import fir
from repro.exec import (PLAN_CACHE, PlanCache, PlanExecutor,
                        clear_plan_cache, plan_cache_stats,
                        plan_executor_for)
from repro.exec import planner as planner_mod
from repro.errors import InterpError
from repro.graph.identity import content_id
from repro.profiling import Profiler
from repro.runtime import run_graph


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------


def test_second_run_reuses_cached_plan(monkeypatch):
    """Two consecutive run_graph calls: planning work happens once."""
    calls = {"n": 0}
    real = planner_mod._vectorize_decision

    def counting(filt):
        calls["n"] += 1
        return real(filt)

    monkeypatch.setattr(planner_mod, "_vectorize_decision", counting)
    program = fir.build(taps=32)
    first = run_graph(program, 100, backend="plan")
    probed = calls["n"]
    assert probed > 0
    second = run_graph(program, 100, backend="plan")
    assert calls["n"] == probed  # no re-extraction on the hit
    assert second == first
    stats = plan_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_content_identical_rebuild_hits_cache():
    """A freshly built graph with the same coefficients shares the plan."""
    run_graph(fir.build(taps=32), 64, backend="plan")
    before = plan_cache_stats()
    run_graph(fir.build(taps=32), 64, backend="plan")
    after = plan_cache_stats()
    assert after["hits"] == before["hits"] + 1
    assert after["entries"] == before["entries"]


def test_cache_entries_keyed_by_optimize_mode():
    program = fir.build(taps=32)
    run_graph(program, 64, backend="plan")
    run_graph(program, 64, backend="plan", optimize="linear")
    assert plan_cache_stats()["entries"] == 2


def test_second_cold_run_graph_equals_the_first():
    """A cached plan is driven live every time: the same n_outputs
    gives the same outputs and FLOP counts, a new one extends them."""
    program = fir.build(taps=32)
    p1, p2, p3 = Profiler(), Profiler(), Profiler()
    first = run_graph(program, 120, p1, backend="plan")
    again = run_graph(program, 120, p2, backend="plan")
    assert again == first
    assert p2.counts.flops == p1.counts.flops
    longer = run_graph(program, 300, p3, backend="plan")
    assert longer[:120] == first
    expected = run_graph(fir.build(taps=32), 300, backend="compiled")
    np.testing.assert_allclose(longer, expected, atol=1e-9)


def test_executor_on_a_cached_plan_resumes():
    """An executor built from a cache hit keeps producing outputs after
    its first run (the session contract) — values identical to a
    longer run."""
    program = fir.build(taps=32)
    run_graph(program, 50, backend="plan")  # caches the plan
    executor = plan_executor_for(program)
    assert isinstance(executor, PlanExecutor)
    assert plan_cache_stats()["hits"] == 1
    resumed = np.concatenate([executor.advance(50), executor.advance(10)])
    expected = run_graph(fir.build(taps=32), 60, backend="compiled")
    np.testing.assert_allclose(resumed, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_mutated_graph_invalidates_and_recomputes():
    """In-place coefficient mutation changes the fingerprint; the next
    run re-plans and its outputs reflect the new coefficients."""
    program = fir.build(taps=16)
    stale = run_graph(program, 64, backend="plan")
    assert plan_cache_stats()["misses"] == 1
    # mutate the low-pass filter's taps in place
    from repro.graph.streams import Filter, walk
    filt = next(s for s in walk(program)
                if isinstance(s, Filter) and "h" in s.fields)
    filt.fields["h"][0] += 1.0
    fresh = run_graph(program, 64, backend="plan")
    assert plan_cache_stats()["misses"] == 2
    assert fresh != stale
    expected = run_graph(program, 64, backend="compiled")
    np.testing.assert_allclose(fresh, expected, atol=1e-9)


def test_mutated_function_source_closure_invalidates():
    """A FunctionSource closing over mutable state must not replay a
    stale plan when that state is mutated in place (the old fingerprint
    hashed the callable by id and reused everything)."""
    from repro.graph import Pipeline
    from repro.runtime import Collector, FunctionSource, run_graph as rg

    state = {"gain": 1.0}

    def build():
        return Pipeline([FunctionSource(lambda n: state["gain"] * n,
                                        "closure-src"),
                         Collector()], name="closure-prog")

    first = rg(build(), 16, backend="plan")
    again = rg(build(), 16, backend="plan")
    assert again == first  # content-identical closure still hits
    assert plan_cache_stats()["hits"] == 1
    state["gain"] = 3.0
    fresh = rg(build(), 16, backend="plan")
    assert plan_cache_stats()["misses"] == 2  # mutation invalidated
    assert fresh == [3.0 * n for n in range(16)]


def test_unsnapshotable_callable_is_single_use():
    """Callable objects with state the fingerprinter cannot encode are
    planned per-run: nothing is stored that a mutation could stale-hit."""
    from repro.graph import Pipeline
    from repro.runtime import Collector, FunctionSource, run_graph as rg

    class Osc:
        def __init__(self):
            self.k = 1.0
            self.opaque = object()  # defeats the __dict__ snapshot

        def __call__(self, n):
            return self.k * n

    osc = Osc()
    prog = Pipeline([FunctionSource(osc, "osc-src"), Collector()],
                    name="osc-prog")
    rg(prog, 8, backend="plan")
    rg(prog, 8, backend="plan")
    stats = plan_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 2
    assert stats["entries"] == 0  # single-use: never stored
    osc.k = 5.0
    out = rg(prog, 8, backend="plan")
    assert out == [5.0 * n for n in range(8)]


def test_bound_builtin_sources_do_not_collide():
    """Builtin bound methods (d.__getitem__) carry their receiver's
    state: sources over different receivers must not share a plan."""
    from repro.graph import Pipeline
    from repro.runtime import Collector, FunctionSource, run_graph as rg

    d1 = {n: float(n) for n in range(8)}
    d2 = {n: 10.0 * n for n in range(8)}
    out1 = rg(Pipeline([FunctionSource(d1.__getitem__, "src"),
                        Collector()], name="p"), 4, backend="plan")
    out2 = rg(Pipeline([FunctionSource(d2.__getitem__, "src"),
                        Collector()], name="p"), 4, backend="plan")
    assert out1 == [0.0, 1.0, 2.0, 3.0]
    assert out2 == [0.0, 10.0, 20.0, 30.0]


def test_function_sources_reading_different_globals_do_not_collide():
    """Identical code bytes reading different module globals must
    fingerprint differently (co_names alone is just the name)."""
    import types as _t

    from repro.graph import Pipeline
    from repro.runtime import Collector, FunctionSource, run_graph as rg

    def make_module_fn(gain):
        mod = _t.ModuleType(f"fake_mod_{gain}")
        mod.GAIN = gain
        code = compile("fn = lambda n: GAIN * n", "<fake>", "exec")
        exec(code, mod.__dict__)
        return mod.fn

    out1 = rg(Pipeline([FunctionSource(make_module_fn(1.0), "src"),
                        Collector()], name="p"), 4, backend="plan")
    out2 = rg(Pipeline([FunctionSource(make_module_fn(100.0), "src"),
                        Collector()], name="p"), 4, backend="plan")
    assert out1 == [0.0, 1.0, 2.0, 3.0]
    assert out2 == [0.0, 100.0, 200.0, 300.0]


def test_mutated_unknown_primitive_state_invalidates():
    """Unknown primitives fingerprint by a __dict__ snapshot, so in-place
    mutation re-plans instead of replaying the stale schedule trace."""
    from repro.graph import Pipeline
    from repro.graph.streams import PrimitiveFilter
    from repro.runtime import Collector, ListSource, run_graph as rg

    class Scaler(PrimitiveFilter):
        peek = pop = push = 1

        def __init__(self, k):
            self.k = k
            self.name = "Scaler"

        def make_runner(self, profiler):
            outer = self

            class _R:
                def fire(self, ch_in, ch_out):
                    ch_out.push(outer.k * ch_in.pop())

            return _R()

    scaler = Scaler(2.0)
    prog = Pipeline([ListSource([1.0, 2.0, 3.0, 4.0]), scaler,
                     Collector()], name="scaler-prog")
    assert rg(prog, 4, backend="plan") == [2.0, 4.0, 6.0, 8.0]
    before = plan_cache_stats()["misses"]
    scaler.k = 10.0
    assert rg(prog, 4, backend="plan") == [10.0, 20.0, 30.0, 40.0]
    assert plan_cache_stats()["misses"] == before + 1


def test_unstable_repr_fields_do_not_collide_or_alias():
    """Field values with default (address-bearing) reprs take the
    identity-pin path; values with truncating reprs (dicts of large
    arrays) are content-hashed, so near-identical graphs no longer
    collide on a '...'-elided repr."""
    import repro.apps.fir as fir_app

    def with_field(value):
        prog = fir_app.build(taps=8)
        from repro.graph.streams import Filter, walk
        filt = next(s for s in walk(prog)
                    if isinstance(s, Filter) and "h" in s.fields)
        filt.fields["tag"] = value
        return prog

    big_a = {"w": np.arange(5000.0)}
    big_b = {"w": np.arange(5000.0)}
    big_b["w"][4321] += 1e-9  # invisible to repr's truncation
    assert content_id(with_field(big_a)) != \
        content_id(with_field(big_b))
    assert content_id(with_field({"w": np.arange(5000.0)})) == \
        content_id(with_field({"w": np.arange(5000.0)}))
    # unknown objects: identity-pinned — stable for the same object,
    # distinct for different live objects even when their reprs collide
    obj, o1, o2 = object(), object(), object()
    assert content_id(with_field(obj)) == \
        content_id(with_field(obj))
    assert content_id(with_field(o1)) != \
        content_id(with_field(o2))


def test_fingerprint_sensitive_to_structure_and_values():
    base = content_id(fir.build(taps=16))
    assert content_id(fir.build(taps=16)) == base
    assert content_id(fir.build(taps=17)) != base
    mutated = fir.build(taps=16)
    from repro.graph.streams import Filter, walk
    filt = next(s for s in walk(mutated)
                if isinstance(s, Filter) and "h" in s.fields)
    filt.fields["h"][3] *= 2.0
    assert content_id(mutated) != base


def test_feedback_island_plans_cached_and_delay_sensitive():
    """Island plans participate in caching; the fingerprint covers the
    loop's delay (enqueued length) and the enqueued values themselves."""
    from repro.apps import echo
    from repro.graph import FeedbackLoop, RoundRobin

    program = echo.build(delay=8, taps=8)
    first = run_graph(program, 40, backend="plan")
    again = run_graph(program, 40, backend="plan")
    assert again == first
    assert plan_cache_stats()["hits"] == 1

    assert content_id(echo.echo_loop(delay=4)) == \
        content_id(echo.echo_loop(delay=4))
    assert content_id(echo.echo_loop(delay=5)) != \
        content_id(echo.echo_loop(delay=4))
    primed = FeedbackLoop(
        body=echo.echo_add(), loop=echo.echo_damp(echo.DEFAULT_GAIN),
        joiner=RoundRobin((1, 1)), splitter=RoundRobin((1, 1)),
        enqueued=[0.5] * 4, name="EchoLoop")
    assert content_id(primed) != \
        content_id(echo.echo_loop(delay=4))


# ---------------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------------


def test_lru_eviction_bounds_entries():
    cache = PlanCache(max_entries=2)
    for taps in (8, 12, 16):
        cache.entry_for(fir.build(taps=taps), "none")
    assert len(cache) == 2
    # taps=8 was evicted; re-requesting it is a miss
    cache.entry_for(fir.build(taps=8), "none")
    assert cache.misses == 4 and cache.hits == 0


def test_cache_false_bypasses_cache():
    program = fir.build(taps=16)
    a = plan_executor_for(program, cache=False).advance(64)
    b = plan_executor_for(program, cache=False).advance(64)
    np.testing.assert_array_equal(a, b)
    assert plan_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_profilers_not_shared_between_cached_runs():
    """Cached artifacts are immutable; each run profiles independently."""
    program = fir.build(taps=16)
    p1, p2 = Profiler(), Profiler()
    run_graph(program, 64, p1, backend="plan")
    run_graph(program, 64, p2, backend="plan")
    assert p1.counts.flops == p2.counts.flops > 0
