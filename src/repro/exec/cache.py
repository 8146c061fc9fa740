"""The compiled-plan cache.

Planning a graph is not free: the ``optimize=`` rewrite runs whole-graph
linear analysis (and possibly the selection DP), the planner probes every
IR filter for vectorizability (extraction + one interpreted firing), and
every feedback island is probed for its external rates.  For Radar this
planning work dominates the actual batched execution several times over.

The cache keys all of it on the graph's
:func:`~repro.graph.identity.content_id` — the same digest whether the
graph came from DSL text, an app builder or a hand-built ``Stream``.  A
*rebuilt* graph with identical coefficients hits the cache, while
mutating a field array in place changes the id and cleanly invalidates
the entry.  An id hashed through an object's identity pins the stream in
its entry; a single-use id (state no snapshot can see) is never stored.

A :class:`PlanEntry` carries everything reusable across runs:

* the rewritten (post-``optimize``) stream,
* the whole-graph bailout verdict,
* per-node vectorization *decisions* (linear node + probed FLOP counts,
  or the fallback reason) so a cache hit skips extraction entirely,
* each feedback island's probed external rates.

Mutable execution state (ring buffers — the sink's output ring and a
push session's feed ring among them — fallback runners, profilers) and
the firing schedule are *never* in this cache; every run builds a fresh
executor around the shared immutable plan and drives it live.  The
schedule is per executor: :meth:`~repro.exec.planner.PlanExecutor.
_scheduled` simulates a call once per integer state (O(nodes), whatever
the schedule's period) and replays it when the state recurs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .. import faults as _faults
from ..graph.identity import content_id
from ..graph.streams import Stream
from ..linear.extraction import clear_extraction_results
from ..numeric import DEFAULT_POLICY, NumericPolicy

_UNSET = object()  # bailout not yet computed


@dataclass
class PlanEntry:
    """Immutable plan artifacts shared by every run of one (graph, mode).

    The content id covers source *values* (a ``ListSource``'s data feeds
    the outputs and the exhaustion schedule, and ``entry.optimized``
    embeds the first caller's source objects), so sharing is only safe
    between content-identical graphs: ``run_stream``, which bakes its
    inputs into a ``ListSource``, misses on every new input by design,
    bounded by the LRU.  A session's ``ChunkSource`` and ``Collector``
    hold no data (their rings are executor state), so push sessions over
    one body share an entry.  ``compiled_plan_for(..., cache=False)``
    plans into a private entry, as the cache does a single-use graph.
    """

    pin: Stream  # keeps objects hashed by id() alive
    optimized: Stream | None = None
    bailout: object = _UNSET  # str | None once computed
    #: node index -> (LinearNode, Counts) or (None, reason)
    decisions: dict | None = None
    #: feedback-region start index -> IslandRates (probe results)
    islands: dict | None = None
    #: live holders (sessions) of this entry; pinned entries survive the
    #: cache's LRU trim so a long-lived session's plan is never dropped
    #: out from under it while recompiles churn the cache
    pins: int = 0
    #: numeric policy the plan was built for; part of the cache key (a
    #: float32 plan's rings and spectra must never serve a float64 run)
    policy: NumericPolicy = DEFAULT_POLICY
    #: worker count the plan was built for; part of the cache key — a
    #: ``workers=4`` entry's ``optimized`` graph embeds fission replicas
    #: a serial run must never execute
    workers: int = 1

    def acquire(self) -> "PlanEntry":
        """Register a live holder (a session); pairs with :meth:`release`."""
        self.pins += 1
        return self

    def release(self) -> None:
        """Drop one holder registration (``StreamSession.close``)."""
        if self.pins > 0:
            self.pins -= 1


class PlanCache:
    """LRU cache of :class:`PlanEntry` keyed by
    (content id, optimize, dtype, workers).

    Structure mutations hold a lock — the serving layer compiles on
    worker threads against this one shared cache.  Entry *contents*
    (optimized graph, decisions, ...) are filled in lock-free by
    ``compiled_plan_for``; concurrent fillers of one entry compute
    equivalent values, so last-writer-wins is benign.
    """

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def entry_for(self, stream: Stream, optimize: str,
                  policy: NumericPolicy = DEFAULT_POLICY,
                  workers: int = 1) -> PlanEntry:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("cache.lookup")
        digest, single_use = content_id(stream)
        with self._lock:
            key = (digest, optimize, policy.name, workers)
            if single_use:
                # unsnapshotable mutable state reachable: never store (a
                # later in-place mutation would replay a stale plan)
                self.misses += 1
                return PlanEntry(pin=stream, policy=policy,
                                 workers=workers)
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
            entry = PlanEntry(pin=stream, policy=policy, workers=workers)
            self._entries[key] = entry
            self._trim()
            return entry

    def _trim(self) -> None:
        """Evict least-recently-used *unpinned* entries past the cap
        (caller holds the lock).

        Entries held by live sessions (``pins > 0``) are skipped: the
        session owns a direct reference anyway, so dropping the cache
        slot would only force the next content-identical compile to
        rebuild a plan that is still resident.  When every entry is
        pinned the cache temporarily exceeds ``max_entries``.
        """
        excess = len(self._entries) - self.max_entries
        if excess <= 0:
            return
        for key in [k for k, e in self._entries.items() if e.pins <= 0]:
            del self._entries[key]
            excess -= 1
            if excess <= 0:
                return

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide cache used by ``run_graph(..., backend="plan")``.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict:
    """Hit/miss/entry counters of the global plan cache."""
    return PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Drop every cached plan, and the extraction results plans are
    built from (test isolation, coefficient sweeps)."""
    PLAN_CACHE.clear()
    clear_extraction_results()
