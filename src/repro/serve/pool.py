"""Sessions keyed by graph fingerprint: shared plans, per-client state.

A compiled stream program splits in two: the plan (a
:class:`~repro.exec.cache.PlanEntry` in the process-wide plan cache,
immutable and shared) and the state one client advances (a
:class:`~repro.session.StreamSession` instantiated from that plan).
The pool keeps plans and no sessions:

* ``acquire(key, factory)`` builds a fresh session through
  ``factory()`` on every call, timing it as compile cost.  On a warm
  key that build is a plan-cache hit.  The first compile per key is
  **single-flighted**: concurrent siblings block until it is done, then
  compile against the plan it left in the plan cache (push and pull
  plans alike are keyed by graph content), so a cold stampede of N
  clients pays for one planning pass, not N;
* ``release`` closes the session (``CLOSE``, a disconnect, a reclaimed
  resume park).  Closing unpins the plan entry; an entry no live
  session pins ages out of the plan cache's LRU like any other.

Robustness extensions:

* **Circuit breaker** — ``record_poison(key)`` counts execution
  failures per key; at ``breaker_threshold`` the key is *quarantined*
  for ``breaker_cooldown`` seconds and ``quarantined(key)`` turns true,
  which the server uses to route new opens of a repeatedly-poisoning
  plan graph to the compiled backend instead of recompiling the same
  poisonous plan forever.
* **Accounting** — every session the pool has ever built is counted
  in ``compiled_total``; every close in ``closed_total``.
  ``accounting()["outstanding"]`` is their
  difference, the sessions alive now (held by connections, parked for
  resume) — zero after a clean drain, the chaos harness's leak check.
* **Fault site** — ``pool.compile`` fires before a factory runs and
  leaves the pool's books balanced.

Keys are graph content ids (plus backend/optimize/mode/dtype), so two
clients opening the same graph share one plan and one row of stats —
including the inline fast-path predictor, so a new session of a warm
key inlines its first request.  Concurrent sessions of one graph share
only the immutable plan (read-only), which the interleaving-parity
tests pin down.

The pool is thread-safe: the server compiles and executes on worker
threads while the event loop acquires and releases.
"""

from __future__ import annotations

import threading
import time

from .. import faults as _faults
from .metrics import MetricsRegistry

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """A pool-managed :class:`~repro.session.StreamSession`."""

    __slots__ = ("session", "key", "label", "poisoned", "factory", "snap",
                 "replies", "resume_token")

    def __init__(self, session, key, label: str, factory):
        self.session = session
        self.key = key
        self.label = label
        #: a request timed out (its worker thread may still be touching
        #: the session) or errored mid-advance: serve nothing more
        self.poisoned = False
        #: the OPEN's session factory — kept so a RESUME after the
        #: session was reclaimed can rebuild it from :attr:`snap`
        self.factory = factory
        #: last good :class:`~repro.session.SessionSnapshot`
        self.snap = None
        #: request-id -> (reply kind, payload) for idempotent retries
        #: (``OrderedDict``; ``None`` on non-resumable sessions)
        self.replies = None
        #: u64 token a disconnected client RESUMEs with
        self.resume_token = None


class _GraphStats:
    __slots__ = ("label", "compiles", "compile_seconds", "serve_seconds",
                 "requests", "avg_serve", "first_compile")

    def __init__(self, label: str):
        self.label = label
        #: serializes the graph's *first* compile (``compiles == 0``)
        self.first_compile = threading.Lock()
        self.compiles = 0
        self.compile_seconds = 0.0
        self.serve_seconds = 0.0
        self.requests = 0
        #: EWMA of recent request execution times (seconds; None until
        #: the first request) — the server's inline fast-path predictor
        self.avg_serve: float | None = None


class SessionPool:
    def __init__(self, *, breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 metrics: MetricsRegistry | None = None,
                 clock=time.monotonic):
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._graphs: dict[object, _GraphStats] = {}
        #: key -> (poison count, last poison timestamp) — the breaker
        self._poisons: dict[object, tuple[int, float]] = {}
        self.compiled_total = 0
        self.closed_total = 0
        self._closed = False

    # -- internal ----------------------------------------------------------
    def _graph(self, key, label: str) -> _GraphStats:
        g = self._graphs.get(key)
        if g is None:
            g = self._graphs[key] = _GraphStats(label)
        return g

    def _compile(self, key, factory, label: str) -> PooledSession:
        """Build a fresh session through ``factory()``, timed."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("pool.compile")
        g = self._graph(key, label)
        t0 = self._clock()
        session = factory()
        dt = self._clock() - t0
        with self._lock:
            g.compiles += 1
            g.compile_seconds += dt
            self.compiled_total += 1
        self.metrics.counter("serve.sessions.compiled").inc()
        self.metrics.counter("serve.compile_seconds").inc(dt)
        self.metrics.gauge("serve.sessions.live").inc()
        return PooledSession(session, key, label, factory)

    # -- public API --------------------------------------------------------
    def acquire(self, key, factory, label: str = "?") -> PooledSession:
        """A fresh session for ``key``, built through ``factory()``
        (timed as compile cost).

        The key's very first compile is serialized, so later siblings
        find its plan in the plan cache — see the module docstring.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("session pool is closed")
            g = self._graph(key, label)
        if not g.compiles:
            with g.first_compile:
                if not g.compiles:  # won the race: the planning compile
                    return self._compile(key, factory, label)
        return self._compile(key, factory, label)

    def release(self, ps: PooledSession) -> None:
        """Close a session its client is done with; a poisoned one
        also counts against its key's circuit breaker."""
        self.metrics.gauge("serve.sessions.live").dec()
        if ps.poisoned:
            self.record_poison(ps.key)
            self.metrics.counter("serve.sessions.poisoned").inc()
        with self._lock:
            self.closed_total += 1
        try:
            ps.session.close()
        except Exception:  # closing must never propagate into serving
            pass

    def close(self) -> None:
        """Refuse further acquires."""
        with self._lock:
            self._closed = True

    # -- circuit breaker ---------------------------------------------------
    def record_poison(self, key) -> int:
        """Count one execution failure against ``key``; returns the
        running count and trips the breaker at the threshold."""
        now = self._clock()
        with self._lock:
            count, _last = self._poisons.get(key, (0, now))
            count += 1
            self._poisons[key] = (count, now)
            tripped = count == self.breaker_threshold
        if tripped:
            self.metrics.counter("serve.breaker.tripped").inc()
        return count

    def quarantined(self, key) -> bool:
        """Whether the breaker currently quarantines ``key``.  A key
        cools down ``breaker_cooldown`` seconds after its last poison,
        then gets a clean slate."""
        now = self._clock()
        with self._lock:
            entry = self._poisons.get(key)
            if entry is None:
                return False
            count, last = entry
            if now - last >= self.breaker_cooldown:
                del self._poisons[key]
                return False
            return count >= self.breaker_threshold

    # -- bookkeeping -------------------------------------------------------
    def record_serve(self, ps: PooledSession, seconds: float,
                     predict: bool = True) -> None:
        """Attribute request execution time to the session's graph and,
        with ``predict``, fold it into the graph's fast-path EWMA."""
        with self._lock:
            g = self._graph(ps.key, ps.label)
            g.requests += 1
            g.serve_seconds += seconds
            if predict:
                g.avg_serve = (seconds if g.avg_serve is None
                               else 0.25 * seconds + 0.75 * g.avg_serve)

    def predicted_serve(self, ps: PooledSession) -> float | None:
        """The EWMA of ``ps``'s graph's recent requests, or ``None``."""
        g = self._graphs.get(ps.key)
        return None if g is None else g.avg_serve

    # -- introspection -----------------------------------------------------
    def accounting(self) -> dict:
        """Lifetime session books: ``outstanding`` is sessions alive now
        (held by connections, parked for resume) — zero after a clean
        drain, the leak check."""
        with self._lock:
            return {"compiled": self.compiled_total,
                    "closed": self.closed_total,
                    "outstanding": self.compiled_total - self.closed_total}

    def graph_stats(self) -> list[dict]:
        """Per-graph compile vs serve accounting, sorted by label."""
        with self._lock:
            rows = [{"graph": g.label, "compiles": g.compiles,
                     "compile_seconds": g.compile_seconds,
                     "requests": g.requests,
                     "serve_seconds": g.serve_seconds}
                    for g in self._graphs.values()]
        return sorted(rows, key=lambda r: r["graph"])
