"""Parallel execution engine: multicore region scheduling + fission.

The plan backend (:mod:`repro.exec.planner`) compiles a stream graph
into batched kernel steps over ring buffers, but executes them serially.
This package adds the multicore execution layer:

* :mod:`~repro.parallel.shm` — ring buffers backed by
  ``multiprocessing.shared_memory`` so worker processes operate on the
  parent's channel storage in place (zero-copy, dtype-aware per the
  session's :class:`~repro.numeric.NumericPolicy`);
* :mod:`~repro.parallel.pool` — a persistent fork-based worker pool with
  warm per-plan kernel caches;
* :mod:`~repro.parallel.regions` — groups a compiled plan's steps into
  schedulable units (chains of offloadable kernels, inline islands and
  sources) and builds the inter-unit dependency DAG;
* :mod:`~repro.parallel.executor` — a :class:`~repro.exec.planner.
  PlanExecutor` subclass whose flush drives independent units
  concurrently on the pool;
* :mod:`~repro.parallel.fission` — data-parallel **fission** rewrites:
  a linear filter (one with lookahead or state via the state-monoid lift
  of :func:`~repro.linear.expansion.expand_firings`) is replicated into
  ``k`` replicas behind split/join, priced against the fused form by the
  calibrated cost model.

Entry point: ``repro.compile(..., workers=k)``.
"""

from __future__ import annotations

__all__ = ["shm", "pool", "regions", "executor", "fission"]
