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

A :class:`PlanEntry` is one whole build
(:func:`~repro.exec.planner.build_plan`), stored once complete — a
build that raises stores nothing — so a hit re-derives none of it,
step operators (matrices, lifts, source tables) included.

Mutable execution state (rings — the sink's output ring and a push
session's feed ring among them — carries, counters, the runners that
fire scalar, profilers) and the firing schedule are *never* in this
cache; every run instantiates a fresh executor that allocates them over
the shared immutable plan and drives it live.  The rates are in the
entry, read-only, and every call simulates its own schedule from the
executor's integer state — O(nodes) a call, whatever the schedule's
period (``PlanExecutor._drive``) — so a warm, a fresh and a restored
executor run one call alike.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .. import faults as _faults
from ..graph.identity import content_id
from ..graph.streams import Stream
from ..linear.extraction import clear_extraction_results
from ..numeric import DEFAULT_POLICY, NumericPolicy


@dataclass
class PlanEntry:
    """Everything an executor reads that depends on the graph alone,
    shared by every run of one (graph, mode).

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
    optimized: Stream
    bailout: str | None  # why it runs scalar; None when it plans
    #: numeric policy the plan was built for; part of the cache key (a
    #: float32 plan's rings and spectra must never serve a float64 run)
    policy: NumericPolicy
    #: worker count the plan was built for; part of the cache key — a
    #: ``workers=4`` entry's ``optimized`` graph embeds fission replicas
    #: a serial run must never execute
    workers: int
    # the plan, by flat node index of ``optimized`` (empty on a bailout)
    islands: dict  # feedback region start -> its IslandRates
    #: IR filter -> a ``(LinearNode, Counts)`` pair, a ``LaneCode`` (a
    #: sibling stage's takes the fields its rows differ in) or None
    decisions: dict
    #: ``(splitter, joiner, stages)`` per fused splitjoin, ``stages[k]``
    #: every branch's ``k``-th node
    siblings: list
    chains: dict  # chain head -> (members, combined LinearNode)
    #: counter source step -> ``(forms, folds)``: its rows' sinusoid
    #: forms, and whether its linear reader folds onto them
    sinusoids: dict
    #: why a filter runs no faster, a counter source has no sinusoid
    #: form, or a splitter's look-alike branches run apart
    reasons: dict
    flat: object  # ``optimized`` flattened: topology, runners never fire
    rings: list  # ``(name, rows, prefill)`` by ring id
    outer: list  # a :class:`~repro.exec.planner.PlanStep` a position
    #: outer positions of the sink and the push feed (None: none)
    sink: int | None
    feed: int | None
    #: the rate simulator's read-only tables (``planner._layout``): the
    #: steps that read, in order, and those that do not, with budgets
    sweep: tuple
    sources: tuple
    #: what an executor's state fits, set by the first executor
    layout: tuple | None = None
    #: live holders (sessions) of this entry; pinned entries survive the
    #: cache's LRU trim so a long-lived session's plan is never dropped
    #: out from under it while recompiles churn the cache
    pins: int = 0

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
    worker threads against this one shared cache.  A build runs outside
    it; when two threads miss on one key at once, both build and the
    first to finish is the entry both get.
    """

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def entry_for(self, stream: Stream, optimize: str,
                  build: Callable[[], PlanEntry],
                  policy: NumericPolicy = DEFAULT_POLICY,
                  workers: int = 1) -> PlanEntry:
        """The entry of ``stream`` under this key, ``build()`` on a miss
        (stored unless the graph is single-use, nothing if it raises)."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("cache.lookup")
        digest, single_use = content_id(stream)
        key = (digest, optimize, policy.name, workers)
        with self._lock:
            entry = None if single_use else self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        entry = build()
        if single_use:
            # unsnapshotable mutable state reachable: never store (a
            # later in-place mutation would replay a stale plan)
            return entry
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
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
