"""Persistent worker pool for the parallel plan executor.

Workers are long-lived processes (fork where available, spawn
otherwise) connected by duplex pipes.  A worker keeps a **warm cache**
of kernel steps per plan: the first task touching a step ships a cold
pickled copy; later tasks reference it by index, so steady-state
dispatch moves only cursors, batch counts, and per-step state carries.

Protocol (parent -> worker):

* ``("exec", task_id, plan_uid, rings_info, entries)`` — attach/refresh
  the listed rings (``ShmRing.describe()`` tuples), then execute each
  ``(step_idx, n, cold_step | None, carry | None)`` entry in order.
  ``carry`` is the step's authoritative state (the parent's copy)
  when the step carries state across firings.
* ``("forget", plan_uid, ring_uids)`` — retire a plan's cached steps
  and detach its rings.
* ``("stop",)`` — exit.

Replies: ``("ok", task_id, cursors, carries, counts, per_filter,
busy_seconds)`` with ``cursors = {uid: (head, tail)}`` and ``carries =
{step_idx: state}``, or ``("err", task_id, traceback_text)``.

The pool is process-global and sized on demand: executors share it, and
:func:`shutdown_pool` (wired into serve's graceful shutdown and
``atexit``) tears it down.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
import traceback

from . import shm as _shm


def _worker_main(conn) -> None:
    # fault injection is a parent-process concern: a fault plan armed
    # before fork must not fire inside workers (the parent's scheduler
    # surfaces worker errors through its own fault machinery)
    from .. import faults
    faults.ACTIVE = None
    from ..profiling import Profiler

    steps_by_plan: dict[str, dict[int, object]] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "forget":
            _, plan_uid, ring_uids = msg
            steps_by_plan.pop(plan_uid, None)
            _shm.forget_rings(ring_uids)
            continue
        _, task_id, plan_uid, rings_info, entries = msg
        try:
            t0 = time.perf_counter()
            rings = [_shm.attach_ring(*info) for info in rings_info]
            steps = steps_by_plan.setdefault(plan_uid, {})
            prof = Profiler()
            ran = []
            for idx, n, cold, carry in entries:
                step = steps.get(idx)
                if step is None:
                    if cold is None:
                        raise RuntimeError(
                            f"worker has no cached step {idx} for plan "
                            f"{plan_uid} and no cold payload was sent")
                    steps[idx] = step = cold
                step.profiler = prof
                if carry is not None:
                    step.set_state(carry)
                step.execute(n)
                ran.append(step)
            carries = {idx: step.state()
                       for (idx, _n, _c, carry), step in zip(entries, ran)
                       if carry is not None}
            cursors = {r.uid: (r._head, r._tail) for r in rings}
            busy = time.perf_counter() - t0
            conn.send(("ok", task_id, cursors, carries, prof.counts,
                       prof.per_filter, busy))
        except BaseException:
            try:
                conn.send(("err", task_id, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break


class Worker:
    __slots__ = ("conn", "proc", "index", "busy_task")

    def __init__(self, ctx, index: int):
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child,),
                                daemon=True,
                                name=f"repro-parallel-{index}")
        self.proc.start()
        child.close()
        self.index = index
        self.busy_task = None  # task id in flight, else None

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        self.conn.close()


class WorkerPool:
    """A set of persistent workers plus pool-lifetime metrics."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.workers: list[Worker] = []
        #: bumped whenever workers are replaced — executors key their
        #: shipped-step caches on (pool id, generation) so a restarted
        #: pool gets fresh step copies
        self.generation = 0
        # pool-lifetime counters, surfaced through serve STATS
        self.tasks = 0
        self.steals = 0
        self.idle_waits = 0
        self.busy_seconds = 0.0
        self.resets = 0

    def grow_to(self, n: int) -> None:
        while len(self.workers) < n:
            self.workers.append(Worker(self.ctx, len(self.workers)))

    def reset(self) -> None:
        """Kill every worker (after an error left one undefined)."""
        self.resets += 1
        self.generation += 1
        for w in self.workers:
            try:
                w.proc.terminate()
                w.proc.join(timeout=2.0)
                w.conn.close()
            except OSError:
                pass
        self.workers = []

    def stop_all(self) -> None:
        self.generation += 1
        for w in self.workers:
            w.stop()
        self.workers = []

    def stats_snapshot(self) -> dict:
        return {
            "workers": len(self.workers),
            "tasks": self.tasks,
            "steals": self.steals,
            "idle_waits": self.idle_waits,
            "busy_seconds": round(self.busy_seconds, 6),
            "resets": self.resets,
        }


_POOL: WorkerPool | None = None


def _context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def get_pool(workers: int) -> WorkerPool:
    """The process-global pool, grown to at least ``workers`` workers."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool(_context())
    _POOL.grow_to(workers)
    return _POOL


def pool_stats() -> dict | None:
    """Metrics snapshot, or None when no pool was ever started."""
    return None if _POOL is None else _POOL.stats_snapshot()


@atexit.register
def shutdown_pool() -> None:
    """Stop every worker.  Wired into serve's graceful shutdown; safe to
    call repeatedly (the next ``get_pool`` restarts workers)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.stop_all()
