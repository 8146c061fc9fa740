"""Session pooling keyed by graph fingerprint.

Compilation is the expensive part of serving: planning probes every
filter, runs the optimize rewrite, and simulates the schedule.  A
session holds all of that — its pinned
:class:`~repro.exec.cache.PlanEntry` — and PR 5's simulator end-state
snapshot makes ``reset()`` rewind a session to its initial state
*without* recompiling.  The pool turns that into a server primitive:

* ``acquire(key, factory)`` hands back a parked idle session for
  ``key`` (zero compile work — the reset already happened at release
  time) or builds a fresh one through ``factory()``, timing the
  compile.  The first compile per key is **single-flighted**:
  concurrent siblings block until it is done, then compile against the
  plan it left in the plan cache (push and pull plans alike are keyed
  by graph content), so a cold stampede of N clients pays for one
  planning pass, not N;
* ``release`` resets the session and parks it for the next client,
  bounded by ``max_idle_per_key`` (overflow sessions are closed);
* ``evict_idle`` closes sessions parked longer than ``idle_ttl`` —
  ``StreamSession.close`` unpins the plan entry, so an abandoned
  graph's plan becomes evictable from the plan cache too.

Robustness extensions:

* **Circuit breaker** — ``record_poison(key)`` counts execution
  failures per key; at ``breaker_threshold`` the key is *quarantined*
  for ``breaker_cooldown`` seconds and ``quarantined(key)`` turns true,
  which the server uses to route new opens of a repeatedly-poisoning
  plan graph to the compiled backend instead of recompiling the same
  poisonous plan forever.
* **Accounting** — every session the pool has ever built (or adopted
  through ``replace``) is counted in ``compiled_total``; every close in
  ``closed_total``.  ``accounting()["outstanding"]`` is therefore the
  number of sessions currently alive outside the idle buckets — zero
  after a clean drain, which is exactly the chaos harness's leak check.
* **Fault sites** — ``pool.compile`` fires before a factory runs,
  ``pool.recycle`` before an idle session is popped; both leave the
  pool's books balanced when they fire.

Keys are content fingerprints (plus backend/optimize/mode), so two
clients opening the same program by different routes share one pool
bucket.  Sharing is sound because pooled reuse is *serial*: a session
is held by at most one client at a time, and concurrent sessions of the
same graph share only the immutable plan (read-only), which the
interleaving-parity tests pin down.

The pool is thread-safe: the server compiles and executes on worker
threads while the event loop acquires and releases.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .. import faults as _faults
from .metrics import MetricsRegistry

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """A pool-managed :class:`~repro.session.StreamSession`."""

    __slots__ = ("session", "key", "label", "parked_at", "poisoned",
                 "avg_serve", "factory", "snap", "replies", "resume_token",
                 "degraded")

    def __init__(self, session, key, label: str):
        self.session = session
        self.key = key
        self.label = label
        self.parked_at: float | None = None  # set while idle
        #: a request timed out (its worker thread may still be touching
        #: the session) or errored mid-advance: never recycle, only close
        self.poisoned = False
        #: EWMA of recent request durations (seconds; None until the
        #: first request) — the server's inline-fast-path predictor
        self.avg_serve: float | None = None
        #: the OPEN's session factory — kept so recovery can rebuild
        #: this session (optionally on another backend)
        self.factory = None
        #: last good :class:`~repro.session.SessionSnapshot`
        self.snap = None
        #: request-id -> (reply kind, payload) for idempotent retries
        #: (``OrderedDict``; ``None`` on non-resumable sessions)
        self.replies = None
        #: u64 token a disconnected client RESUMEs with
        self.resume_token = None
        #: the session was swapped to the compiled backend mid-stream;
        #: correct to keep serving this client, wrong to park under a
        #: plan-backend key — release closes it
        self.degraded = False


class _GraphStats:
    __slots__ = ("label", "compiles", "compile_seconds", "serve_seconds",
                 "requests", "first_compile")

    def __init__(self, label: str):
        self.label = label
        #: serializes the graph's *first* compile (``compiles == 0``)
        self.first_compile = threading.Lock()
        self.compiles = 0
        self.compile_seconds = 0.0
        self.serve_seconds = 0.0
        self.requests = 0


class SessionPool:
    def __init__(self, *, max_idle_per_key: int = 8,
                 idle_ttl: float = 60.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 metrics: MetricsRegistry | None = None,
                 clock=time.monotonic):
        self.max_idle_per_key = max_idle_per_key
        self.idle_ttl = idle_ttl
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._idle: dict[object, deque[PooledSession]] = {}
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

    def _close_session(self, ps: PooledSession, reason: str) -> None:
        self.metrics.counter(f"serve.sessions.{reason}").inc()
        self.metrics.gauge("serve.sessions.pooled").dec()
        with self._lock:
            self.closed_total += 1
        try:
            ps.session.close()
        except Exception:  # closing must never propagate into serving
            pass

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
        self.metrics.gauge("serve.sessions.pooled").inc()
        self.metrics.gauge("serve.sessions.live").inc()
        return PooledSession(session, key, label)

    # -- public API --------------------------------------------------------
    def acquire(self, key, factory, label: str = "?") -> PooledSession:
        """A ready-to-use session for ``key``: a recycled idle one, or a
        fresh compile through ``factory()`` (timed as compile cost).

        The key's very first compile is serialized, so later siblings
        find its plan in the plan cache — see the module docstring.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("session pool is closed")
            bucket = self._idle.get(key)
            if bucket:
                # fault site fires *before* the pop: the candidate stays
                # parked, nothing leaks
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire("pool.recycle")
                ps = bucket.popleft()
                ps.parked_at = None
                self.metrics.counter("serve.sessions.recycled").inc()
                self.metrics.gauge("serve.sessions.idle").dec()
                self.metrics.gauge("serve.sessions.live").inc()
                return ps
            g = self._graph(key, label)
        if not g.compiles:
            with g.first_compile:
                if not g.compiles:  # won the race: the planning compile
                    return self._compile(key, factory, label)
        return self._compile(key, factory, label)

    def release(self, ps: PooledSession) -> None:
        """Return a session: reset + park it for reuse, or close it
        (poisoned, degraded, pool closed, or the idle bucket is full).

        Parking scrubs the recovery attachments (checkpoint, reply
        cache, resume token) — a recycled session must never leak a
        previous client's stream state."""
        self.metrics.gauge("serve.sessions.live").dec()
        if ps.poisoned:
            self.record_poison(ps.key)
        ps.snap = None
        ps.replies = None
        ps.resume_token = None
        if not ps.poisoned and not ps.degraded and not ps.session.closed:
            try:
                ps.session.reset(clear_profile=True)
            except Exception:
                ps.poisoned = True
        with self._lock:
            full = self._closed or ps.poisoned or ps.degraded or \
                ps.session.closed or \
                len(self._idle.setdefault(ps.key, deque())) \
                >= self.max_idle_per_key
            if not full:
                ps.parked_at = self._clock()
                self._idle[ps.key].append(ps)
                self.metrics.gauge("serve.sessions.idle").inc()
                return
        self._close_session(
            ps, "poisoned" if ps.poisoned else "discarded")

    def discard(self, ps: PooledSession) -> None:
        """Close a session outright (never parked)."""
        self.metrics.gauge("serve.sessions.live").dec()
        self._close_session(ps, "discarded")

    def replace(self, ps: PooledSession, session,
                reason: str = "degraded") -> None:
        """Swap ``ps``'s underlying session for a replacement built
        outside the pool (the degradation path), keeping the books
        balanced: the old session is closed and counted, the new one
        adopted into ``compiled_total``."""
        old = ps.session
        self.metrics.counter(f"serve.sessions.{reason}").inc()
        with self._lock:
            self.closed_total += 1
            self.compiled_total += 1
        try:
            old.close()
        except Exception:
            pass
        ps.session = session
        ps.degraded = True

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
    def record_serve(self, ps: PooledSession, seconds: float) -> None:
        """Attribute request execution time to the session's graph."""
        with self._lock:
            g = self._graph(ps.key, ps.label)
            g.requests += 1
            g.serve_seconds += seconds

    def evict_idle(self, now: float | None = None) -> int:
        """Close sessions parked longer than ``idle_ttl``; returns the
        count.  Closing unpins their plan entries."""
        if now is None:
            now = self._clock()
        victims = []
        with self._lock:
            for bucket in self._idle.values():
                while bucket and \
                        now - bucket[0].parked_at >= self.idle_ttl:
                    victims.append(bucket.popleft())
            if victims:
                self.metrics.gauge("serve.sessions.idle").dec(len(victims))
        for ps in victims:
            self._close_session(ps, "evicted")
        return len(victims)

    def close_all(self) -> None:
        """Close every idle session and refuse further acquires."""
        with self._lock:
            self._closed = True
            victims = [ps for b in self._idle.values() for ps in b]
            self._idle.clear()
            if victims:
                self.metrics.gauge("serve.sessions.idle").dec(len(victims))
        for ps in victims:
            self._close_session(ps, "discarded")

    # -- introspection -----------------------------------------------------
    @property
    def idle_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._idle.values())

    def accounting(self) -> dict:
        """Lifetime session books: ``outstanding`` is sessions alive
        outside the idle buckets (held by connections, parked for
        resume) — zero after a clean drain, the leak check."""
        with self._lock:
            idle = sum(len(b) for b in self._idle.values())
            return {"compiled": self.compiled_total,
                    "closed": self.closed_total, "idle": idle,
                    "outstanding":
                        self.compiled_total - self.closed_total - idle}

    def graph_stats(self) -> list[dict]:
        """Per-graph compile vs serve accounting, sorted by label."""
        with self._lock:
            rows = [{"graph": g.label, "compiles": g.compiles,
                     "compile_seconds": g.compile_seconds,
                     "requests": g.requests,
                     "serve_seconds": g.serve_seconds}
                    for g in self._graphs.values()]
        return sorted(rows, key=lambda r: r["graph"])
