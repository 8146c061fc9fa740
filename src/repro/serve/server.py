"""The asyncio session server: many clients, one shared plan cache.

Architecture: the event loop owns framing and connection lifecycle;
session work — compiling on an OPEN, advancing on PUSH/RUN — runs on a
bounded thread pool, so one client's matmul never blocks another
client's frames.  Exception: requests their graph's recent history
predicts to be sub-millisecond run *inline* on the loop (see
``ServeConfig.inline_fast_path``) — for small steady-state pushes the
thread-pool hop costs several times the work itself, and blocking the
loop for less than a millisecond is cheaper than the churn.  Every OPEN
builds a fresh session from the shared plan (a plan-cache hit on a warm
graph) and every CLOSE or disconnect closes it.  Each connection drives
at most one session at a time (frames on a connection are processed
strictly in order), which is what makes interleaved streams
deterministic: concurrent sessions of the same graph share only the
immutable compiled plan, never mutable execution state.

Robustness:

* **Backpressure on input** — ``FEED``/``PUSH`` data that would take a
  session's fed-but-unconsumed input past
  ``config.max_pending_samples`` is rejected with a ``backpressure``
  error frame *before* buffering, so a client that feeds without
  draining caps out instead of growing server memory.
* **Backpressure on output** — every reply awaits the transport drain;
  a client that stops reading stalls its own handler (bounded by the
  socket write buffer), not the server.
* **Per-request deadlines** — each request runs under
  ``config.request_timeout``; expiry returns a clean ``timeout`` error
  frame and poisons the session (its worker thread may still be
  running).  Further requests on a poisoned session get a
  ``poisoned`` error frame, and its close counts against the graph's
  circuit breaker.

Recovery (see also :mod:`repro.faults` and ``README`` §Fault
tolerance):

* **Checkpoints + degradation** — after every successful request the
  server keeps the session's state as its checkpoint
  (:meth:`~repro.session.StreamSession.snapshot`, a copy O(state),
  however long the stream).  When a plan-backend kernel raises
  mid-advance, the server restores the checkpoint into a fresh
  executor of the **same plan** and re-runs the failed request with
  faults suppressed — counted in ``serve.requests.degraded``,
  invisible to the client.  A per-fingerprint circuit breaker in the
  pool quarantines plan keys that poison repeatedly; new opens of a
  quarantined key go to the compiled backend.
* **Idempotent retries** — ``PUSH``/``FEED``/``RUN`` carry a client
  request id; a resumable session caches its executed replies, so a
  retry after a lost reply is answered from the cache and never
  re-applies state.
* **RESUME** — a resumable OPEN returns a token; when the connection
  drops, the session is *parked* (not discarded) for
  ``config.resume_ttl`` seconds, then falls back to its checkpoint for
  another ``resume_ttl`` before the token expires.  A reconnecting
  client re-attaches with RESUME and continues its stream.
* **Graceful shutdown** — ``shutdown()`` (wired to SIGTERM via
  :meth:`install_signal_handlers`) stops accepting, drains in-flight
  requests under ``config.drain_deadline``, closes sessions, and
  returns a final STATS dump.

Observability: every counter, gauge, and latency histogram lives in a
:class:`~repro.serve.metrics.MetricsRegistry` exposed through the
``STATS`` protocol command (text dump) and ``server.metrics``.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from .. import faults as _faults
from ..errors import (ChunkDtypeError, CombinationError, CompileOptionError,
                      DeadlineError, DSLError, FaultInjected, InterpError,
                      IRError, NonLinearError, ProtocolError, ReproError,
                      SchedulingError, SessionClosedError,
                      SessionPoisonedError, StreamGraphError)
from . import protocol as P
from .metrics import MetricsRegistry
from .pool import SessionPool

__all__ = ["ServeConfig", "StreamServer", "WIRE_CODES", "wire_code"]

_MODES = ("push", "pull")


@dataclass
class ServeConfig:
    """Knobs of one :class:`StreamServer` (see module docstring)."""

    #: backends the server accepts in OPEN specs.  All three share the
    #: session interface; restrict to ("plan",) to refuse scalar work.
    backends: tuple = ("interp", "compiled", "plan")
    #: refuse single frames above this many bytes
    max_frame_bytes: int = P.DEFAULT_MAX_FRAME_BYTES
    #: per-session cap on fed-but-unconsumed input samples
    max_pending_samples: int = 1 << 20
    #: seconds one request may run before a ``timeout`` error frame
    request_timeout: float = 30.0
    #: graphs whose recent requests averaged under this many seconds
    #: run the next request *inline* on the event loop instead of paying
    #: a thread-pool hop (~0.15 ms of future/timer/GIL churn per
    #: request — several times the work itself for a small push).  A
    #: graph's first request always goes to a worker, so the predictor
    #: only ever inlines work it has seen run fast.  Inline requests
    #: cannot be timed out — safe because they are predicted orders of
    #: magnitude under ``request_timeout``.  0 disables.
    inline_fast_path: float = 0.002
    #: session worker threads (None: ThreadPoolExecutor default)
    max_workers: int | None = None
    #: seconds ``aclose``/``shutdown`` wait for in-flight requests
    #: before tearing the worker pool down
    drain_deadline: float = 5.0
    #: seconds a disconnected resumable session stays parked awaiting
    #: RESUME; its checkpoint survives a further ``resume_ttl`` after
    #: the live session is reclaimed (the sweep runs every
    #: ``resume_ttl / 4``)
    resume_ttl: float = 30.0
    #: re-run a failed plan-backend request from the last checkpoint on
    #: a fresh executor of the same plan (the degradation path)
    degrade: bool = True


#: Declarative exception -> wire-code table; first match wins, so
#: subclasses come before their bases and ``ReproError`` is the final
#: catch-all.  ``ProtocolError`` is special-cased in :func:`wire_code`
#: (it carries its own code).  The table *is* the public error contract:
#: a test asserts every public ``ReproError`` subclass resolves through
#: it to a stable code.
WIRE_CODES: tuple = (
    (CompileOptionError, "bad-option"),
    (ChunkDtypeError, "bad-dtype"),
    (SessionClosedError, "closed"),
    (SessionPoisonedError, "poisoned"),
    (DeadlineError, "timeout"),
    (FaultInjected, "exec"),
    (DSLError, "bad-request"),
    (StreamGraphError, "bad-request"),
    (SchedulingError, "bad-request"),
    (IRError, "bad-request"),
    (NonLinearError, "exec"),
    (CombinationError, "exec"),
    (InterpError, "exec"),
    (ReproError, "exec"),
    (KeyError, "bad-request"),
    (ValueError, "bad-request"),
)


def wire_code(exc: Exception) -> str:
    """Machine-readable error-frame code for an exception."""
    if isinstance(exc, ProtocolError):
        return exc.code
    for etype, code in WIRE_CODES:
        if isinstance(exc, etype):
            return code
    return "internal"


#: Errors the degradation path may recover from: execution failures
#: mid-advance.  Client mistakes (bad dtype, pull-mode misuse, ...)
#: and protocol errors re-run identically, so they are excluded.
_RECOVERABLE = (InterpError, FaultInjected)

#: executed replies a resumable session keeps for idempotent retries —
#: must exceed the client's pipeline window
_REPLY_CACHE = 32


class _Connection:
    """Per-connection state: the held pooled session, if any."""

    __slots__ = ("pooled", "peer")

    def __init__(self, peer: str):
        self.pooled = None
        self.peer = peer


class _ResumeEntry:
    """A dropped resumable session awaiting RESUME: parked live until
    reclaimed (a poisoned one is at once), then its ``ps.snap`` alone."""

    __slots__ = ("ps", "live", "dropped_at")

    def __init__(self, ps, dropped_at: float):
        self.ps = ps
        self.live = not ps.poisoned
        self.dropped_at = dropped_at


class StreamServer:
    """A concurrent streaming session server over asyncio streams."""

    def __init__(self, config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool = SessionPool(metrics=self.metrics)
        self._server: asyncio.AbstractServer | None = None
        self._workers: ThreadPoolExecutor | None = None
        self._sweep_task: asyncio.Task | None = None
        self._nonce = itertools.count()
        self._tokens = itertools.count(1)
        #: token -> _ResumeEntry for disconnected resumable sessions
        self._resume: dict[int, _ResumeEntry] = {}
        #: tokens issued and not yet retired (CLOSE or expiry): RESUME
        #: uses this to tell "your park is still in flight" (the old
        #: connection's teardown has not run yet — wait for it) from
        #: "never existed / expired" (fail with ``resume-lost``)
        self._issued: set[int] = set()
        self._inflight = 0
        self._drained: asyncio.Event | None = None
        self._closing = False
        #: the STATS dump :meth:`shutdown` captured before teardown
        self.final_stats: str | None = None
        self.address = None  #: ("host", port) or unix-socket path

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    path: str | None = None):
        """Bind and start serving; returns the bound address.

        ``path`` selects a unix-domain socket; otherwise TCP on
        ``host:port`` (port 0 = ephemeral, read ``server.address``).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        self._workers = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve")
        self._drained = asyncio.Event()
        self._drained.set()
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle, path)
            self.address = path
        else:
            self._server = await asyncio.start_server(
                self._handle, host, port)
            self.address = self._server.sockets[0].getsockname()[:2]
        self._sweep_task = asyncio.get_running_loop().create_task(
            self._sweep_loop(max(self.config.resume_ttl / 4, 0.05)))
        return self.address

    def install_signal_handlers(self, signals=(signal.SIGTERM,),
                                loop=None) -> None:
        """SIGTERM (by default) triggers :meth:`shutdown`."""
        loop = loop if loop is not None else asyncio.get_running_loop()
        for sig in signals:
            loop.add_signal_handler(
                sig, lambda: loop.create_task(self.shutdown()))

    async def shutdown(self, deadline: float | None = None) -> str:
        """Graceful stop: refuse new work, drain in-flight requests
        under ``deadline`` (default ``config.drain_deadline``), close
        sessions, and return the final STATS dump (also kept as
        ``server.final_stats``)."""
        if self._closing:
            return self.final_stats or self.render_stats()
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._await_drain(deadline)
        self.final_stats = self.render_stats()
        await self.aclose()
        return self.final_stats

    async def _await_drain(self, deadline: float | None = None) -> bool:
        if deadline is None:
            deadline = self.config.drain_deadline
        if self._drained is None or self._drained.is_set():
            return True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=deadline)
            return True
        except asyncio.TimeoutError:
            self.metrics.counter("serve.shutdown.drain_expired").inc()
            return False

    async def aclose(self) -> None:
        """Stop accepting, cancel the sweep, drain in-flight work
        (bounded by ``config.drain_deadline``), close parked sessions.

        The drain runs *before* the worker pool shuts down: killing a
        worker mid-advance would leave a half-mutated session behind a
        reply the client already counts on."""
        self._closing = True
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
            self._sweep_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self._await_drain()
        for entry in self._resume.values():
            if entry.live:
                entry.live = False
                self.pool.release(entry.ps)
        self._resume.clear()
        self._issued.clear()
        self.pool.close()
        if self._workers is not None:
            self._workers.shutdown(wait=drained, cancel_futures=not drained)
            self._workers = None
        # parallel-engine worker processes: sessions closed above already
        # retired their plans' shared rings; now stop the pool itself
        from ..parallel.pool import shutdown_pool
        shutdown_pool()

    async def _sweep_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            self._sweep_resume()

    def _sweep_resume(self, now: float | None = None) -> None:
        """Reclaim parked resumable sessions past ``resume_ttl`` (their
        checkpoint stays restorable for another ``resume_ttl``), then
        expire the tokens entirely."""
        if now is None:
            now = time.monotonic()
        ttl = self.config.resume_ttl
        for token, entry in list(self._resume.items()):
            age = now - entry.dropped_at
            if entry.live and age >= ttl:
                self.metrics.gauge("serve.sessions.parked").dec()
                entry.live = False
                entry.ps.resume_token = None
                self.pool.release(entry.ps)
            if not entry.live and age >= 2 * ttl:
                del self._resume[token]
                self._issued.discard(token)

    # -- request execution -------------------------------------------------
    async def _in_worker(self, fn, *args):
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(self._workers, fn, *args),
                timeout=self.config.request_timeout)
        except asyncio.TimeoutError:
            raise DeadlineError(
                f"request exceeded the {self.config.request_timeout}s "
                "deadline") from None

    def _resolve_spec(self, spec: dict):
        """(key, label, factory) for an OPEN spec — runs on a worker.

        The key is the graph's :func:`~repro.graph.identity.content_id`
        plus (backend, optimize, mode, dtype), so every route to the same
        graph shares one plan and one row of pool stats.  An ``app``
        graph's stages carry their registry names (``Compressor(3)``), so
        it and the DSL text of that app are two keys.  Graphs whose id is
        single-use (opaque callables) get a nonce key: correct, just never
        shared.
        ``factory(backend)`` builds the session; the override is the
        quarantine hook.
        """
        from ..graph.identity import content_id
        from ..numeric import resolve_policy
        from ..session import StreamSession

        backend = spec.get("backend", "plan")
        optimize = spec.get("optimize", "none")
        mode = spec.get("mode", "push")
        policy = resolve_policy(spec.get("dtype"))
        if backend not in self.config.backends:
            raise CompileOptionError("backend", backend,
                                     self.config.backends)
        if mode not in _MODES:
            raise CompileOptionError("mode", mode, _MODES)

        if "app" in spec:
            from ..apps import BENCHMARKS, resolve_app, split_app
            name = resolve_app(spec["app"])
            params = spec.get("params") or {}
            program = BENCHMARKS[name](**params)
            label = name
            if mode == "push":
                _source, graph = split_app(program)
            else:
                graph = program
        elif "dsl" in spec:
            from ..dsl import load_source
            args = spec.get("args") or ()
            graph = load_source(spec["dsl"], spec.get("top"), *args)
            label = getattr(graph, "name", "dsl")
        else:
            raise ProtocolError(
                "OPEN spec needs an 'app' or 'dsl' field",
                code="bad-request")

        digest, single_use = content_id(graph)
        nonce = next(self._nonce) if single_use else 0
        # dtype goes at the END: the quarantine rewrite slices
        # key[:2] + ("compiled",) + key[3:] by position
        key = (digest, nonce, backend, optimize, mode, policy.name)
        label = f"{label}/{backend}/{optimize}/{mode}"
        if not policy.is_default:
            label += f"/{policy.name}"

        def factory(backend=backend):
            return StreamSession(graph, backend=backend, optimize=optimize,
                                 dtype=policy)

        return key, label, factory

    def _open(self, spec: dict):
        key, label, factory = self._resolve_spec(spec)
        if key[2] == "plan" and self.pool.quarantined(key):
            # the breaker tripped on this plan graph: serve the compiled
            # backend under its own pool key until the cooldown passes
            self.metrics.counter("serve.sessions.quarantine_opens").inc()
            key = key[:2] + ("compiled",) + key[3:]
            label += "/quarantined"
            factory = partial(factory, "compiled")

        ps = self.pool.acquire(key, factory, label)
        # the first checkpoint: a failing first request degrades from it
        ps.snap = ps.session.snapshot()
        return ps

    def _restore_session(self, entry: _ResumeEntry):
        """Rebuild a parked-then-reclaimed session from its checkpoint
        (runs on a worker)."""
        old = entry.ps
        ps = self.pool.acquire(old.key, old.factory, old.label)
        try:
            ps.session.restore(old.snap)
        except Exception:
            ps.poisoned = True
            self.pool.release(ps)
            raise
        ps.snap = old.snap
        return ps

    # -- connection handler ------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or \
            writer.get_extra_info("sockname") or "?"
        conn = _Connection(str(peer))
        self.metrics.gauge("serve.connections").inc()
        try:
            while True:
                try:
                    frame = await P.read_frame(
                        reader, self.config.max_frame_bytes)
                except ProtocolError as exc:
                    # unrecoverable framing state: best-effort error
                    # frame, then drop the connection
                    await self._error(writer, exc.code, str(exc))
                    break
                if frame is None:
                    break
                await self._dispatch(conn, writer, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.metrics.gauge("serve.connections").dec()
            if conn.pooled is not None:
                ps = conn.pooled
                conn.pooled = None
                if ps.resume_token is not None and not self._closing:
                    self._park_for_resume(ps)
                else:
                    self.pool.release(ps)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # the handler is ending either way

    def _park_for_resume(self, ps) -> None:
        """A resumable connection dropped: park its session (or, if the
        session is poisoned, just its checkpoint) for RESUME."""
        entry = _ResumeEntry(ps, time.monotonic())
        if entry.live:
            self.metrics.gauge("serve.sessions.parked").inc()
        else:  # unusable, but its last checkpoint can seed a restore
            self.pool.release(ps)
        self.metrics.counter("serve.sessions.parks").inc()
        self._resume[ps.resume_token] = entry

    async def _error(self, writer, code: str, message: str) -> None:
        self.metrics.counter("serve.errors").inc()
        self.metrics.counter(f"serve.errors.{code}").inc()
        try:
            await P.write_frame(writer, P.ERR,
                                P.error_payload(code, message))
        except (ConnectionError, OSError):
            pass

    async def _dispatch(self, conn: _Connection, writer,
                        frame: P.Frame) -> None:
        self.metrics.counter("serve.requests").inc()
        kind = frame.kind
        t0 = time.perf_counter()
        self._inflight += 1
        self._drained.clear()
        try:
            if kind == P.PING:
                await P.write_frame(writer, P.OK)
                return
            if kind == P.STATS:
                await P.write_frame(writer, P.TXT,
                                    self.render_stats().encode("utf-8"))
                return
            if self._closing and kind not in (P.CLOSE,):
                raise ProtocolError(
                    "server is shutting down; no new work accepted",
                    code="shutting-down")
            if kind == P.OPEN:
                if conn.pooled is not None:
                    raise ProtocolError(
                        "connection already holds a session; CLOSE it "
                        "before opening another", code="session-open")
                spec = frame.json()
                ps = await self._in_worker(self._open, spec)
                conn.pooled = ps
                if spec.get("resumable"):
                    token = next(self._tokens)
                    ps.resume_token = token
                    ps.replies = OrderedDict()
                    self._issued.add(token)
                    await P.write_frame(writer, P.OK,
                                        token.to_bytes(8, "big"))
                else:
                    await P.write_frame(writer, P.OK)
                return
            if kind == P.RESUME:
                await self._resume_session(conn, writer, frame)
                return
            if kind == P.CLOSE:
                if conn.pooled is not None:
                    ps = conn.pooled
                    conn.pooled = None
                    if ps.resume_token is not None:
                        self._issued.discard(ps.resume_token)
                    self.pool.release(ps)
                await P.write_frame(writer, P.OK)
                return
            ps = conn.pooled
            if ps is None:
                raise ProtocolError(
                    "no session on this connection; OPEN one first",
                    code="no-session")
            if ps.poisoned:
                raise SessionPoisonedError(
                    "session was poisoned by an earlier failure; "
                    "RESUME (resumable sessions) or reopen")
            if kind in (P.PUSH, P.FEED, P.RUN):
                await self._advance(ps, writer, frame)
                return
            if kind == P.RESET:
                await self._execute(ps, "reset")
                await P.write_frame(writer, P.OK)
                return
            raise ProtocolError(f"unknown request kind {kind}",
                                code="bad-frame")
        except DeadlineError as exc:
            if conn.pooled is not None:
                conn.pooled.poisoned = True
            name = P.REQUEST_NAMES.get(kind, str(kind))
            await self._error(
                writer, wire_code(exc),
                f"{name} exceeded the {self.config.request_timeout}s "
                "request timeout; the session is retired")
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - mapped to error frames
            await self._error(writer, wire_code(exc), str(exc))
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()
            self.metrics.histogram("serve.latency").observe(
                time.perf_counter() - t0)

    def _check_backpressure(self, session, incoming: int) -> None:
        try:
            pending = session.pending_input
        except ReproError:
            raise ProtocolError(
                "session is pull-mode (the program has its own "
                "sources); drive it with RUN", code="bad-request")
        if pending + incoming > self.config.max_pending_samples:
            raise ProtocolError(
                f"session holds {pending} unconsumed samples; "
                f"feeding {incoming} more would exceed the "
                f"{self.config.max_pending_samples}-sample "
                "backpressure cap — RUN/PUSH to drain first",
                code="backpressure")
        # high-water mark includes the chunk about to be buffered
        self.metrics.gauge("serve.pending_samples").set(
            pending + incoming)

    async def _advance(self, ps, writer, frame: P.Frame) -> None:
        """PUSH/FEED/RUN, ``request id + body``: a resumable session
        executes each id once and answers a repeated one from its reply
        cache; a non-resumable session has no cache and ignores the id."""
        rid, body = frame.request()
        if ps.replies is not None and rid in ps.replies:
            self.metrics.counter("serve.requests.replayed").inc()
            await P.write_frame(writer, *ps.replies[rid])
            return
        policy = ps.session.policy
        if frame.kind == P.RUN:
            if len(body) != 4:
                raise ProtocolError("RUN payload must be id + u32 n",
                                    code="bad-request")
            n = int.from_bytes(body, "big")
            if 1 + n * policy.itemsize > self.config.max_frame_bytes:
                raise ProtocolError(
                    f"a reply of {n} {policy.name} outputs exceeds the "
                    f"{self.config.max_frame_bytes}-byte frame limit; "
                    "RUN fewer at a time", code="too-large")
            out = await self._execute(ps, "run", n)
        else:
            arr = P.decode_array_tagged(body, expected=policy)
            self._check_backpressure(ps.session, len(arr))
            self.metrics.counter("serve.chunks.in").inc()
            self.metrics.counter("serve.samples.in").inc(len(arr))
            out = await self._execute(
                ps, "push" if frame.kind == P.PUSH else "feed", arr)
            self.metrics.gauge("serve.pending_samples").set(
                ps.session.pending_input)
        if frame.kind == P.FEED:
            reply = P.OK, int(out).to_bytes(8, "big")
        else:
            reply = P.ARR, P.encode_array_tagged(out, policy)
            self.metrics.counter("serve.chunks.out").inc()
            self.metrics.counter("serve.samples.out").inc(len(out))
        if ps.replies is not None:
            # cache before writing: if the reply write dies on the wire
            # the retry must find it
            ps.replies[rid] = reply
            while len(ps.replies) > _REPLY_CACHE:
                ps.replies.popitem(last=False)
        await P.write_frame(writer, *reply)

    async def _resume_session(self, conn: _Connection, writer,
                              frame: P.Frame) -> None:
        if conn.pooled is not None:
            raise ProtocolError(
                "connection already holds a session; CLOSE it before "
                "resuming another", code="session-open")
        token = frame.u64()
        entry = self._resume.pop(token, None)
        if entry is None and token in self._issued:
            # the old connection's teardown (which parks the session)
            # may still be in flight — it runs strictly after the
            # request that broke it, so wait it out briefly
            give_up = time.monotonic() + self.config.drain_deadline
            while entry is None and time.monotonic() < give_up:
                await asyncio.sleep(0.01)
                entry = self._resume.pop(token, None)
        if entry is None:
            raise ProtocolError("unknown or expired resume token",
                                code="resume-lost")
        if entry.live:
            ps = entry.ps
            self.metrics.gauge("serve.sessions.parked").dec()
            self.metrics.counter("serve.sessions.resumed").inc()
        else:
            ps = await self._in_worker(self._restore_session, entry)
            self.metrics.counter("serve.sessions.restored").inc()
        ps.resume_token = token
        ps.replies = entry.ps.replies
        conn.pooled = ps
        await P.write_frame(writer, P.OK, token.to_bytes(8, "big"))

    async def _execute(self, ps, op: str, *args):
        """Run one session operation.  A recoverable plan failure (the
        degradation path) restores the last checkpoint into a fresh
        executor of the same plan and re-runs the request, faults
        suppressed; if that fails too the original error surfaces and
        the session stays poisoned."""
        try:
            result = await self._run_session(ps, getattr(ps.session, op),
                                             *args)
        except _RECOVERABLE as exc:
            if not (self.config.degrade and ps.session.backend == "plan"
                    and op in ("push", "run")):
                raise

            def recover():
                with _faults.suppress():
                    ps.session.restore(ps.snap)
                    return getattr(ps.session, op)(*args)

            try:
                result = await self._in_worker(recover)
            except Exception:
                raise exc
            ps.poisoned = False
            self.pool.record_poison(ps.key)  # feeds the circuit breaker
            self.metrics.counter("serve.requests.degraded").inc()
        # the checkpoint is the state after every success
        ps.snap = ps.session.snapshot()
        # what the session holds after the call; STATS shows the
        # high-water mark as ``serve.session_buffer_items.max``
        self.metrics.gauge("serve.session_buffer_items").set(
            sum(ps.session.buffers))
        return result

    async def _run_session(self, ps, fn, *args):
        """Run one session operation, attributing serve time to the
        session's graph; execution errors poison the session (its stream
        position is indeterminate).

        Requests predicted fast (the graph's recent average is under
        ``config.inline_fast_path``) run inline on the event loop; the
        rest go to the worker pool under the request timeout.
        """
        t0 = time.perf_counter()
        avg = self.pool.predicted_serve(ps)
        inline = avg is not None and avg < self.config.inline_fast_path
        exec_dt = None  # pure execution time — excludes worker-queue wait
        try:
            if inline:
                self.metrics.counter("serve.requests.inline").inc()
                result = fn(*args)
                exec_dt = time.perf_counter() - t0
                return result

            def timed():
                t1 = time.perf_counter()
                r = fn(*args)
                return r, time.perf_counter() - t1

            result, exec_dt = await self._in_worker(timed)
            return result
        except DeadlineError:
            raise
        except Exception:
            ps.poisoned = True
            raise
        finally:
            if exec_dt is not None:
                # the predictor must see what the work *costs*, not how
                # long it queued — under a cold stampede the span is
                # dominated by executor backlog, which would lock the
                # EWMA above the inline threshold forever
                self.pool.record_serve(ps, exec_dt)
            else:  # timeout/error: bill the full span, skip the EWMA
                self.pool.record_serve(ps, time.perf_counter() - t0,
                                       predict=False)

    # -- observability -----------------------------------------------------
    def render_stats(self) -> str:
        """The ``STATS`` text dump: metrics registry + plan-cache
        counters + per-graph compile/serve accounting."""
        from ..exec.cache import plan_cache_stats

        from ..parallel.pool import pool_stats

        lines = [self.metrics.render()]
        for name, value in sorted(plan_cache_stats().items()):
            lines.append(f"plan_cache.{name} {value}")
        pool = pool_stats()
        if pool is not None:
            for name, value in sorted(pool.items()):
                lines.append(f"parallel.pool.{name} {value}")
        for row in self.pool.graph_stats():
            g = row["graph"]
            lines.append(f"graph.{g}.compiles {row['compiles']}")
            lines.append(
                f"graph.{g}.compile_seconds {row['compile_seconds']:.6f}")
            lines.append(f"graph.{g}.requests {row['requests']}")
            lines.append(
                f"graph.{g}.serve_seconds {row['serve_seconds']:.6f}")
        return "\n".join(line for line in lines if line)

    def stats_snapshot(self) -> dict:
        """Metrics as a flat dict (the tests read it)."""
        snap = self.metrics.snapshot()
        snap["graphs"] = self.pool.graph_stats()
        return snap


def parse_stats(text: str) -> dict:
    """Parse a ``STATS`` text dump back into ``{name: float}``."""
    out = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name:
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out
