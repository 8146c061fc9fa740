"""Vectorized steady-state execution engine (the ``plan`` backend).

Compiles a flattened stream graph plus its static I/O rates into a batched
execution plan: linear filters run as one NumPy matrix product per chunk,
frequency filters as stacked overlap-save FFT convolutions, splitters and
joiners as reshapes, stateless non-linear filters as NumPy lane
evaluations, everything else through the compiled scalar fallback
— with FLOP accounting identical to the ``interp`` and ``compiled``
backends.  The full pipeline ``optimize -> plan -> execute`` first
rewrites the graph with the paper's optimization passes
(:mod:`repro.exec.optimize`), and caches plans across runs
(:mod:`repro.exec.cache`).  Entry point:
``run_graph(..., backend="plan", optimize=...)`` or
:func:`plan_executor_for`; :func:`plan_report` explains kernel choices
and scalar fallbacks.
"""

from .cache import PLAN_CACHE, PlanCache, clear_plan_cache, plan_cache_stats
from .optimize import OPTIMIZE_MODES, optimize_stream
from .planner import (DEFAULT_CHUNK_OUTPUTS, IslandRates, IslandReport,
                      PlanExecutor, PlanReport, StepReport,
                      compiled_plan_for, executor_from_entry,
                      plan_bailout_reason, plan_executor_for, plan_report,
                      probe_island, report_for_executor)
from .ring import RingBuffer

__all__ = [
    "PlanExecutor", "RingBuffer", "plan_executor_for",
    "compiled_plan_for", "executor_from_entry",
    "plan_bailout_reason", "DEFAULT_CHUNK_OUTPUTS",
    "OPTIMIZE_MODES", "optimize_stream",
    "PLAN_CACHE", "PlanCache", "plan_cache_stats", "clear_plan_cache",
    "PlanReport", "StepReport", "plan_report", "report_for_executor",
    "IslandRates", "IslandReport", "probe_island",
]
