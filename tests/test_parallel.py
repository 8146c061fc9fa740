"""The parallel execution engine: shared-memory rings, region
scheduling, data-parallel fission, session integration.

The engine's contract (README "Parallel execution"):

* ``workers=k`` outputs match ``workers=1`` — bitwise on round-robin
  clone fission and pure region parallelism, within 1e-9 on the
  state-monoid lift path (summation regrouping);
* FLOP accounting is exact: replicas report the fused filter's
  per-firing counts, so totals match whenever both executions perform
  the same logical firings (output counts that are a multiple of the
  fissioned round ``k*push``);
* the parent owns all shared segments (workers never grow them) and
  ``close()`` unlinks every one.
"""

import pickle

import numpy as np
import pytest

import repro
from repro.errors import InterpError
from repro.exec.planner import compiled_plan_for
from repro.graph.streams import (Duplicate, FeedbackLoop, Pipeline,
                                 RoundRobin, SplitJoin)
from repro.linear.filters import LinearFilter
from repro.linear.node import LinearNode
from repro.parallel import fission as fission_mod
from repro.parallel import pool as pool_mod
from repro.parallel import shm as shm_mod
from repro.parallel.executor import ParallelPlanExecutor
from repro.parallel.fission import fission_stream
from repro.parallel.regions import build_units
from repro.parallel.shm import ShmRing, attach_ring, forget_rings
from repro.profiling import Profiler
from repro.runtime import FunctionSource


def _src():
    return FunctionSource(lambda n: float(np.sin(0.3 * n)), "src")


def _run_pair(build, n_out, workers, optimize="none"):
    """(serial outputs, serial flops, parallel outputs, parallel flops)."""
    p1, p2 = Profiler(), Profiler()
    ex1, _ = compiled_plan_for(build(), p1, optimize=optimize, cache=False)
    out1 = ex1.advance(n_out)
    ex2, _ = compiled_plan_for(build(), p2, optimize=optimize, cache=False,
                               workers=workers)
    assert isinstance(ex2, ParallelPlanExecutor)
    try:
        out2 = ex2.advance(n_out)
    finally:
        ex2.close()
    return out1, p1.counts.flops, out2, p2.counts.flops


# ---------------------------------------------------------------------------
# Shared-memory rings
# ---------------------------------------------------------------------------


class TestShmRing:
    def test_attach_shares_storage_and_cursors(self):
        ring = ShmRing("ch", prefill=np.arange(8.0))
        try:
            info = ring.describe()
            other = attach_ring(*info)
            assert not other.owner
            assert list(other.pop_block_array(3)) == [0.0, 1.0, 2.0]
            # the attached side's writes land in the owner's storage
            other.push_array(np.array([99.0]))
            ring._head, ring._tail = other._head, other._tail
            assert ring.state()[-1] == 99.0
            forget_rings([ring.uid])
        finally:
            ring.close(unlink=True)

    def test_owner_grow_renames_segment_and_keeps_live_data(self):
        ring = ShmRing("ch", prefill=np.arange(10.0))
        try:
            seg0 = ring.shm.name
            cap0 = len(ring._buf)
            ring.ensure_capacity(cap0 * 4)
            assert ring.shm.name != seg0
            assert len(ring._buf) >= cap0 * 4
            assert list(ring.state()) == [float(i) for i in range(10)]
        finally:
            ring.close(unlink=True)

    def test_non_owner_may_slide_but_never_grow(self):
        ring = ShmRing("ch", capacity=64)
        try:
            worker_side = attach_ring(*ring.describe())
            cap = len(worker_side._buf)
            worker_side.push_array(np.zeros(cap - 8))
            worker_side.pop_block_array(16)
            worker_side.push_array(np.zeros(12))  # fits after a slide
            with pytest.raises(InterpError, match="pre-grow"):
                worker_side.push_array(np.zeros(2 * cap))
            forget_rings([ring.uid])
        finally:
            ring.close(unlink=True)

    def test_close_unlinks_the_segment(self):
        from multiprocessing import shared_memory

        ring = ShmRing("ch", prefill=np.arange(4.0))
        segname = ring.shm.name
        ring.close(unlink=True)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segname)

    def test_pickle_resolves_to_the_attach_registry(self):
        ring = ShmRing("ch", prefill=np.arange(4.0))
        try:
            clone = pickle.loads(pickle.dumps(ring))
            again = pickle.loads(pickle.dumps(ring))
            # same uid -> same Python object, so cached kernel steps in a
            # worker keep valid references across tasks
            assert clone is again
            assert clone is shm_mod._ATTACHED[ring.uid]
            assert list(clone.state()) == [0.0, 1.0, 2.0, 3.0]
            forget_rings([ring.uid])
        finally:
            ring.close(unlink=True)


# ---------------------------------------------------------------------------
# Region construction
# ---------------------------------------------------------------------------


class TestRegions:
    def test_units_partition_steps_and_form_a_dag(self):
        from repro.apps import filterbank

        ex, _ = compiled_plan_for(filterbank.build(m=3, taps=12),
                                  optimize="auto", cache=False, workers=2)
        try:
            units = build_units(ex)
            seen = sorted(i for u in units for i in u.step_indices)
            assert seen == list(range(len(ex.steps)))
            # Kahn over the unit edges must consume every unit (acyclic)
            indeg = {u.id: len(u.preds) for u in units}
            ready = [u for u in units if not u.preds]
            done = 0
            while ready:
                u = ready.pop()
                done += 1
                for s in u.succs:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        ready.append(next(x for x in units if x.id == s))
            assert done == len(units)
            assert any(u.offload for u in units)
        finally:
            ex.close()


# ---------------------------------------------------------------------------
# Fission rewrites
# ---------------------------------------------------------------------------


def _clone_node(rng, e=96, u=24):
    return LinearNode(A=rng.standard_normal((e, u)),
                      b=rng.standard_normal(u), peek=e, pop=e, push=u)


class TestFissionRewrite:
    def test_clone_path_roundrobin_split(self):
        rng = np.random.default_rng(0)
        node = _clone_node(rng)
        out = fission_stream(
            Pipeline([_src(), LinearFilter(node, name="blk")]), 3)
        sj = out.children[1]
        assert isinstance(sj, SplitJoin)
        assert isinstance(sj.splitter, RoundRobin)
        assert len(sj.children) == 3
        for rep in sj.children:
            assert rep.linear_node.peek == node.peek
            assert rep.account_counts is not None

    def test_lift_path_duplicate_split_and_expanded_rates(self):
        rng = np.random.default_rng(1)
        node = LinearNode(A=rng.standard_normal((40, 2)),
                          b=rng.standard_normal(2), peek=40, pop=2, push=2)
        out = fission_stream(
            Pipeline([_src(), LinearFilter(node, name="blk")]), 4)
        sj = out.children[1]
        assert isinstance(sj.splitter, Duplicate)
        for rep in sj.children:
            n = rep.linear_node
            assert n.peek == node.peek + 3 * node.pop
            assert n.pop == 4 * node.pop
            assert n.push == node.push

    def test_feedback_loops_are_never_fissioned(self):
        rng = np.random.default_rng(2)
        loop = FeedbackLoop(
            body=LinearFilter(_clone_node(rng, 2, 2), name="b"),
            loop=LinearFilter(_clone_node(rng, 1, 1), name="l"),
            joiner=RoundRobin((1, 1)), splitter=RoundRobin((1, 1)),
            enqueued=[0.0])
        assert fission_stream(loop, 4) is loop

    def test_unprofitable_leaves_are_left_alone(self):
        tiny = LinearNode(A=np.eye(2), b=np.zeros(2), peek=2, pop=2,
                          push=2)
        s = Pipeline([_src(), LinearFilter(tiny, name="tiny")])
        assert fission_stream(s, 4) is s

    def test_workers_one_is_identity(self):
        s = Pipeline([_src()])
        assert fission_stream(s, 1) is s


# ---------------------------------------------------------------------------
# Fission differential suite (the parity/FLOP contract)
# ---------------------------------------------------------------------------


@pytest.fixture
def force_fission(monkeypatch):
    """Price every candidate as profitable so small randomized nodes
    exercise the constructions."""
    monkeypatch.setattr(fission_mod, "FISSION_THRESHOLD", 0.0)


@pytest.mark.parametrize("k", [2, 3, 4])
class TestFissionDifferential:
    def test_stateless_clone_is_bitwise(self, k, force_fission):
        rng = np.random.default_rng(100 + k)
        for _ in range(2):
            e = int(rng.integers(3, 10))
            u = int(rng.integers(1, 6))
            node = LinearNode(A=rng.standard_normal((e, u)),
                              b=rng.standard_normal(u),
                              peek=e, pop=e, push=u)

            def build():
                return Pipeline([_src(), LinearFilter(node, name="blk")])

            n_out = k * u * 40
            o1, f1, o2, f2 = _run_pair(build, n_out, k)
            assert np.array_equal(o1, o2)
            assert f1 == f2

    def test_stateless_lookahead_lift_within_1e9_exact_flops(
            self, k, force_fission):
        rng = np.random.default_rng(200 + k)
        for _ in range(2):
            o = int(rng.integers(1, 4))
            e = o + int(rng.integers(1, 9))
            u = int(rng.integers(1, 6))
            node = LinearNode(A=rng.standard_normal((e, u)),
                              b=rng.standard_normal(u),
                              peek=e, pop=o, push=u)

            def build():
                return Pipeline([_src(), LinearFilter(node, name="blk")])

            n_out = k * u * 40
            o1, f1, o2, f2 = _run_pair(build, n_out, k)
            assert len(o1) == len(o2) == n_out
            assert np.allclose(o1, o2, rtol=1e-9, atol=1e-9)
            assert f1 == f2

    def test_stateful_linear_lift_within_1e9_exact_flops(
            self, k, force_fission):
        rng = np.random.default_rng(300 + k)
        for _ in range(2):
            o = int(rng.integers(1, 3))
            e = o + int(rng.integers(0, 4))
            u = int(rng.integers(1, 4))
            ks = int(rng.integers(1, 4))
            Cs = rng.standard_normal((ks, ks))
            Cs *= 0.5 / max(1e-9, float(np.max(np.abs(
                np.linalg.eigvals(Cs)))))
            node = LinearNode(
                rng.standard_normal((e, u)), rng.standard_normal(u),
                e, o, u,
                As=rng.standard_normal((ks, u)),
                Cx=rng.standard_normal((e, ks)),
                Cs=Cs, bs=rng.standard_normal(ks),
                s0=rng.standard_normal(ks))

            def build():
                return Pipeline([_src(), LinearFilter(node, name="st")])

            n_out = k * u * 40
            o1, f1, o2, f2 = _run_pair(build, n_out, k)
            assert len(o1) == len(o2) == n_out
            assert np.allclose(o1, o2, rtol=1e-9, atol=1e-9)
            assert f1 == f2


# ---------------------------------------------------------------------------
# Executor behavior
# ---------------------------------------------------------------------------


class TestParallelExecutor:
    def test_region_parallel_apps_are_bitwise_with_exact_flops(self):
        from repro.apps import filterbank

        def build():
            return filterbank.build(m=3, taps=12)

        o1, f1, o2, f2 = _run_pair(build, 1200, 2, optimize="none")
        assert np.array_equal(o1, o2)
        assert f1 == f2

    def test_resumable_advance_matches_one_shot(self):
        # advance() is the resumable API; run() keeps the legacy
        # absolute-target prefix semantics on Collector-sink plans.
        from repro.apps import fir

        ex1, _ = compiled_plan_for(fir.build(taps=32), optimize="auto",
                                   cache=False)
        whole = np.asarray(ex1.advance(1500))
        ex2, _ = compiled_plan_for(fir.build(taps=32), optimize="auto",
                                   cache=False, workers=2)
        try:
            parts = np.concatenate([np.asarray(ex2.advance(400)),
                                    np.asarray(ex2.advance(700)),
                                    np.asarray(ex2.advance(400))])
            assert np.array_equal(whole, parts)
        finally:
            ex2.close()

    def test_close_unlinks_all_segments_and_is_idempotent(self):
        from multiprocessing import shared_memory

        from repro.apps import fir

        ex, _ = compiled_plan_for(fir.build(taps=32), optimize="none",
                                  cache=False, workers=2)
        ex.advance(200)
        segs = [r.shm.name for r in ex.rings]
        ex.close()
        ex.close()
        for seg in segs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg)

    def test_survives_a_pool_reset_between_runs(self):
        from repro.apps import fir

        ex1, _ = compiled_plan_for(fir.build(taps=32), optimize="none",
                                   cache=False)
        whole = np.asarray(ex1.advance(800))
        ex2, _ = compiled_plan_for(fir.build(taps=32), optimize="none",
                                   cache=False, workers=2)
        try:
            first = np.asarray(ex2.advance(400))
            # kill every worker: the next flush must re-ship warm steps
            pool_mod.get_pool(2).reset()
            second = np.asarray(ex2.advance(400))
            assert np.array_equal(whole, np.concatenate([first, second]))
        finally:
            ex2.close()

    def test_parallel_stats_counts_tasks(self):
        from repro.apps import filterbank

        ex, _ = compiled_plan_for(filterbank.build(m=3, taps=12),
                                  optimize="none", cache=False, workers=2)
        try:
            ex.advance(600)
            stats = ex.parallel_stats()
            assert stats["workers"] == 2
            assert stats["tasks"] >= 1
            assert stats["pool"]["workers"] >= 2
            assert any(v["tasks"] for v in stats["regions"].values())
        finally:
            ex.close()


class TestPoolLifecycle:
    def test_pool_is_shared_and_grows(self):
        p2 = pool_mod.get_pool(2)
        p3 = pool_mod.get_pool(3)
        assert p2 is p3
        assert len(p3.workers) >= 3

    def test_reset_and_shutdown_bump_generation(self):
        pool = pool_mod.get_pool(2)
        g0 = pool.generation
        pool.reset()
        assert pool.generation == g0 + 1
        pool_mod.shutdown_pool()
        pool_mod.shutdown_pool()  # idempotent
        assert pool_mod.pool_stats() is None
        # the next request restarts cleanly
        assert len(pool_mod.get_pool(2).workers) == 2


# ---------------------------------------------------------------------------
# Session + CLI integration
# ---------------------------------------------------------------------------


class TestSessionWorkers:
    def test_push_session_prefix_parity(self):
        prog = ("float->float filter Sq { work peek 2 pop 1 push 1 "
                "{ push(peek(0) * 0.5 + peek(1) * 0.25); pop(); } }")
        s1 = repro.compile(prog)
        s2 = repro.compile(prog, workers=2)
        x = np.cos(np.arange(2000.0) * 0.1)
        a = np.concatenate([s1.push(x[:900]), s1.push(x[900:])])
        b = np.concatenate([s2.push(x[:900]), s2.push(x[900:])])
        n = min(len(a), len(b))
        assert n > 0
        assert np.array_equal(a[:n], b[:n])
        s2.close()
        s1.close()

    def test_reset_replays_identically(self):
        from repro.apps import fir

        s = repro.compile(fir.build(taps=32), optimize="auto", workers=2)
        first = s.run(900)
        s.reset()
        again = s.run(900)
        assert np.array_equal(first, again)
        s.close()

    def test_scalar_backends_reject_workers(self):
        from repro.apps import fir

        for backend in ("interp", "compiled"):
            with pytest.raises(ValueError, match="requires backend"):
                repro.compile(fir.build(taps=32), backend=backend,
                              workers=2)

    def test_close_is_idempotent_and_releases_shared_memory(self):
        from multiprocessing import shared_memory

        from repro.apps import fir

        s = repro.compile(fir.build(taps=32), workers=2)
        s.run(300)
        segs = [r.shm.name for r in s._executor.rings]
        s.close()
        s.close()
        for seg in segs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg)
