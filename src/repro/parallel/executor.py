"""The parallel plan executor: region scheduling over a worker pool.

``ParallelPlanExecutor`` keeps the serial planner's entire pipeline —
flattening, steady-state chunking, vectorization decisions, feedback
islands — and replaces only the storage and flush layers:

* channels become :class:`~repro.parallel.shm.ShmRing` segments that
  worker processes attach by name, so a dispatched region reads its
  inputs and writes its outputs in place (cursors travel over the pipe,
  samples never do);
* :meth:`_flush` runs the region DAG from :func:`~repro.parallel
  .regions.build_units` with a Kahn scheduler: ready offloadable units
  go to pool workers (sticky affinity, work stealing when the preferred
  worker is busy), inline units (sources, splitters, collectors,
  feedback facades) execute in the parent, and completions retire
  dependency edges until the whole flush quiesces.

Workers cache warm kernel steps per plan, so steady-state dispatch
ships only ``(step index, batch count, state carry)`` triples.  The
parent remains the single owner of every ring (only it may grow one —
capacity for a task's outputs is reserved *before* dispatch) and of all
carried kernel state: each task ships the authoritative carry in and
returns it with the reply, so a region can migrate between workers at
any batch boundary without desync.

Worker FLOP counts come back per task (total + per-filter attribution)
and merge into the parent's profiler, preserving the serial backend's
exact accounting.  A worker error (or a dead pipe) resets the pool and
surfaces as :class:`~repro.errors.InterpError`, which the serving
stack's fault machinery already knows how to recover from.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from itertools import count as _count
from multiprocessing import connection as _mpconn
from secrets import token_hex

from ..errors import InterpError
from ..exec import kernels as K
from ..exec.planner import PlanExecutor
from . import pool as _pool
from .regions import Unit, build_units
from .shm import ShmRing

_PLAN_SEQ = _count()


class ParallelPlanExecutor(PlanExecutor):
    """A :class:`PlanExecutor` that flushes batches across a worker pool."""

    def __init__(self, plan, profiler=None):
        self.workers = max(2, plan.workers)
        super().__init__(plan, profiler)
        self.units: list[Unit] = build_units(self)
        self._plan_uid = f"plan-{next(_PLAN_SEQ)}-{token_hex(4)}"
        self._ring_by_uid = {r.uid: r for r in self.rings}
        # worker index sets per step: which workers hold a warm copy
        self._shipped: list[set[int]] = [set() for _ in self.steps]
        self._pool_key = None  # (pool id, generation) the cache is valid for
        self._next_task = 0
        self._closed = False
        #: per-executor metrics, folded into serve STATS via
        #: :func:`parallel_stats`
        self.metrics = {
            "tasks": 0,
            "inline_units": 0,
            "steals": 0,
            "idle_waits": 0,
            "busy_seconds": 0.0,
            # unit id -> [completed task count, accumulated latency]
            "unit_latency": {u.id: [0, 0.0] for u in self.units
                            if u.offload},
        }

    # -- storage ----------------------------------------------------------
    def _new_ring(self, name, prefill=None, rows=1):
        # (rows == 1: a parallel plan never fuses siblings)
        return ShmRing(name, prefill=prefill, dtype=self.policy.dtype)

    def close(self) -> None:
        """Retire worker-side caches and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        uids = [r.uid for r in self.rings]
        pool = _pool._POOL
        if pool is not None and self._pool_key == (id(pool),
                                                   pool.generation):
            for w in pool.workers:
                try:
                    w.conn.send(("forget", self._plan_uid, uids))
                except (BrokenPipeError, OSError):
                    pass
        for r in self.rings:
            r.close(unlink=True)

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- scheduling -------------------------------------------------------
    def _flush(self) -> None:
        if not any(self._pending):
            return
        pool = _pool.get_pool(self.workers)
        key = (id(pool), pool.generation)
        if key != self._pool_key:
            # fresh or restarted pool: no worker holds warm steps
            self._pool_key = key
            self._shipped = [set() for _ in self.steps]
        workers = pool.workers[:self.workers]
        try:
            self._run_units(pool, workers)
        except (EOFError, BrokenPipeError, ConnectionResetError,
                OSError) as exc:
            pool.reset()
            self._pool_key = None
            raise InterpError(
                f"parallel worker pipe failed mid-flush: {exc!r}") from exc

    def _run_units(self, pool, workers) -> None:
        pending = self._pending
        units = self.units
        indeg = [len(u.preds) for u in units]
        ready = deque(u for u in units if not u.preds)
        offload_q: deque[Unit] = deque()
        free = list(workers)
        by_worker: dict[int, tuple] = {}  # worker idx -> (unit, t0)
        done = 0

        def finish(u: Unit) -> None:
            nonlocal done
            done += 1
            for s in sorted(u.succs):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(units[s])

        while done < len(units):
            while ready:
                u = ready.popleft()
                if u.offload and any(pending[i] for i in u.step_indices):
                    offload_q.append(u)
                    continue
                for i in u.step_indices:
                    n = pending[i]
                    if n:
                        self.steps[i].execute(n)
                        pending[i] = 0
                self.metrics["inline_units"] += 1
                finish(u)
            while offload_q and free:
                u = offload_q.popleft()
                w = self._pick_worker(u, free, pool)
                free.remove(w)
                self._dispatch(u, w)
                by_worker[w.index] = (u, time.perf_counter())
            if done == len(units) or ready or (offload_q and free):
                continue
            if by_worker:
                if free:
                    # workers sit idle while we block on stragglers
                    pool.idle_waits += 1
                    self.metrics["idle_waits"] += 1
                conns = {w.conn: w for w in workers
                         if w.index in by_worker}
                for conn in _mpconn.wait(list(conns)):
                    w = conns[conn]
                    u, t0 = by_worker.pop(w.index)
                    self._apply_reply(w, u, t0, pool)
                    free.append(w)
                    finish(u)
            elif offload_q:
                raise InterpError(
                    "parallel scheduler stalled: work queued but no "
                    "workers available")
            else:
                raise InterpError(
                    "parallel scheduler deadlock: dependency cycle among "
                    f"regions ({done}/{len(units)} completed)")

    def _pick_worker(self, unit: Unit, free: list, pool):
        """Sticky affinity (unit id mod pool size) with work stealing."""
        want = unit.id % self.workers
        for w in free:
            if w.index == want:
                return w
        pool.steals += 1
        self.metrics["steals"] += 1
        return free[0]

    # -- dispatch / reply -------------------------------------------------
    def _dispatch(self, unit: Unit, worker) -> None:
        pending = self._pending
        # workers may not grow a shared segment: reserve room for every
        # output this task can push before the cursors ship
        incoming: dict[int, int] = {}
        for i in unit.step_indices:
            n = pending[i]
            if not n:
                continue
            _, outs, first = self.plan.outer[i].rates
            for j, (rid, push) in enumerate(outs):
                if first is not None:
                    push = max(push, first[1][j][1])
                incoming[rid] = incoming.get(rid, 0) + n * push
        for rid in sorted(unit.ring_ids):
            r = self.rings[rid]
            r.ensure_capacity(len(r) + incoming.get(rid, 0))
        rings_info = [self.rings[rid].describe()
                      for rid in sorted(unit.ring_ids)]
        entries = []
        widx = worker.index
        for i in unit.step_indices:
            n = pending[i]
            if not n:
                continue
            step = self.steps[i]
            cold = (None if widx in self._shipped[i]
                    else self._cold_copy(step))
            carry = step.state() if step.carries_state else None
            entries.append((i, n, cold, carry))
            pending[i] = 0
        worker.conn.send(("exec", self._next_task, self._plan_uid,
                          rings_info, entries))
        self._next_task += 1
        for i, _n, cold, _c in entries:
            if cold is not None:
                self._shipped[i].add(widx)

    @staticmethod
    def _cold_copy(step):
        c = copy.copy(step)
        c.profiler = None  # the worker installs a per-task profiler
        if isinstance(c, (K.NaiveFreqStep, K.OptimizedFreqStep)):
            c._work = []  # FFT workspace: rebuilt worker-side
        return c

    def _apply_reply(self, worker, unit: Unit, t0: float, pool) -> None:
        msg = worker.conn.recv()
        if msg[0] == "err":
            tb = msg[2]
            pool.reset()
            self._pool_key = None
            raise InterpError(
                f"parallel worker {worker.index} failed executing region "
                f"{unit.id}:\n{tb}")
        _ok, _tid, cursors, carries, counts, per_filter, busy = msg
        for uid, (head, tail) in cursors.items():
            r = self._ring_by_uid[uid]
            r._head, r._tail = head, tail
        for idx, state in carries.items():
            self.steps[idx].set_state(state)
        rest = counts.copy()
        for name, c in per_filter.items():
            self.profiler.add_counts(c, filter_name=name)
            rest = rest - c
        self.profiler.add_counts(rest)
        elapsed = time.perf_counter() - t0
        pool.tasks += 1
        pool.busy_seconds += busy
        self.metrics["tasks"] += 1
        self.metrics["busy_seconds"] += busy
        lat = self.metrics["unit_latency"][unit.id]
        lat[0] += 1
        lat[1] += elapsed

    # -- metrics ----------------------------------------------------------
    def parallel_stats(self) -> dict:
        """Executor metrics plus a pool snapshot, for serve STATS."""
        m = self.metrics
        per_unit = {
            uid: {"tasks": n, "avg_latency": (s / n if n else 0.0)}
            for uid, (n, s) in m["unit_latency"].items()
        }
        out = {
            "workers": self.workers,
            "tasks": m["tasks"],
            "inline_units": m["inline_units"],
            "steals": m["steals"],
            "idle_waits": m["idle_waits"],
            "busy_seconds": round(m["busy_seconds"], 6),
            "regions": per_unit,
        }
        snap = _pool.pool_stats()
        if snap is not None:
            out["pool"] = snap
        return out
