"""Async client for the session server.

Mirrors the :class:`~repro.session.StreamSession` surface over the wire
(``open``/``push``/``feed``/``run``/``reset``), adding ``stats`` and
``ping``.  Error frames raise :class:`~repro.errors.ProtocolError` with
the server's machine-readable ``code`` — the client never has to parse
messages.  Transport failures surface the same way: a connection that
dies mid-request raises ``ProtocolError(code="disconnected")``, never a
bare ``ConnectionResetError``.  One client = one connection = at most
one session, matching the server's sequential-per-connection execution
model.

Recovery: every ``push``/``feed``/``run`` is stamped with a client-side
request id.  ``open(resumable=True)`` makes the session resumable — the
server returns a resume token and answers a repeated id from the
session's reply cache.  With ``retries > 0`` a retryable failure
(disconnect, corrupt frame, timeout, poisoned session, execution error)
makes the client back off (exponential + seeded jitter), **reconnect**,
RESUME its session, and re-send the same request id, so a retry after a
lost reply never double-applies state.  ``retries_used`` and
``resumes`` count what recovery cost.  A non-resumable session has no
reply cache and ignores the id: its requests are never retried.

Used in-process by the test suite (connect to a server running on the
same event loop), and equally usable against a remote server — the
transport is plain TCP or a unix-domain socket.

::

    client = await ServeClient.connect(path="/tmp/repro.sock",
                                       retries=5)
    await client.open(app="fir", resumable=True)
    out = await client.push(chunk)          # np.ndarray
    print(await client.stats())
    await client.close()
"""

from __future__ import annotations

import asyncio
import json
import random
import time

import numpy as np

from ..errors import ChunkDtypeError, ProtocolError
from ..numeric import DEFAULT_POLICY, resolve_policy
from . import protocol as P

__all__ = ["ServeClient", "RETRYABLE"]

#: Error codes a retry can plausibly fix: transport failures (the
#: request or its reply was lost), deadline expiries, and execution
#: errors on a session a RESUME will rebuild from its checkpoint.
#: Client mistakes (``bad-request``, ``bad-option``, ...) re-run
#: identically and ``resume-lost`` means the server no longer holds
#: anything to retry against — both fail immediately.
RETRYABLE = frozenset({"disconnected", "bad-frame", "corrupt",
                       "timeout", "poisoned", "exec"})

#: each backoff sleep is stretched by up to this fraction (seeded)
_JITTER = 0.5


class ServeClient:
    """One connection to a :class:`~repro.serve.server.StreamServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 host: str = "127.0.0.1", port: int = 0,
                 path: str | None = None, retries: int = 0,
                 backoff: float = 0.05, backoff_cap: float = 2.0,
                 retry_seed=None):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._path = path
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._rng = random.Random(retry_seed)
        self._token: int | None = None  # resume token, when resumable
        self._policy = DEFAULT_POLICY  # the open session's numeric policy
        self._next_id = 1  # request id of the next PUSH/FEED/RUN
        self._broken = False  # the transport needs a reconnect
        #: requests re-sent after a retryable failure
        self.retries_used = 0
        #: successful RESUMEs after a reconnect
        self.resumes = 0

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0,
                      path: str | None = None, *, retries: int = 0,
                      backoff: float = 0.05, backoff_cap: float = 2.0,
                      retry_seed=None) -> "ServeClient":
        """Connect over a unix socket (``path``) or TCP (``host:port``).

        ``retries`` enables the recovery loop: that many re-sends per
        request, with exponential backoff starting at ``backoff``
        seconds (capped at ``backoff_cap``) plus up to half as much
        again of seeded random spread — ``retry_seed`` pins the jitter
        sequence for reproducible runs.
        """
        if path is not None:
            reader, writer = await asyncio.open_unix_connection(path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port, path=path,
                   retries=retries, backoff=backoff,
                   backoff_cap=backoff_cap, retry_seed=retry_seed)

    # -- request/response core ---------------------------------------------
    async def _reply(self) -> P.Frame:
        """The next response frame; EOF and ERR frames raise typed."""
        frame = await P.read_frame(self._reader)
        if frame is None:
            self._broken = True
            raise ProtocolError("server closed the connection",
                                code="disconnected")
        if frame.kind == P.ERR:
            info = frame.json()
            raise ProtocolError(info.get("error", "server error"),
                                code=info.get("code", "internal"))
        return frame

    async def _roundtrip(self, kind: int, payload: bytes = b"") -> P.Frame:
        """One request frame out, one response frame back.

        Transport deaths (reset, broken pipe, EOF mid-frame) become
        ``ProtocolError(code="disconnected")`` — typed, catchable, and
        retryable — never a bare OS-level exception.
        """
        try:
            await P.write_frame(self._writer, kind, payload)
            return await self._reply()
        except (ConnectionError, OSError) as exc:
            self._broken = True
            raise ProtocolError(
                f"connection lost mid-request: {exc}",
                code="disconnected") from None

    async def _reconnect(self) -> None:
        """Replace the dead transport; RESUME the session if resumable."""
        try:
            self._writer.close()
        except Exception:
            pass
        if self._path is not None:
            self._reader, self._writer = \
                await asyncio.open_unix_connection(self._path)
        else:
            self._reader, self._writer = \
                await asyncio.open_connection(self._host, self._port)
        self._broken = False
        if self._token is not None:
            await self._roundtrip(
                P.RESUME, self._token.to_bytes(8, "big"))
            self.resumes += 1

    async def _request(self, kind: int, payload: bytes = b"",
                       retryable: bool = False) -> P.Frame:
        """Send a request; with ``retryable`` (idempotent kinds only),
        run the backoff → reconnect → RESUME → re-send loop."""
        attempt = 0
        while True:
            try:
                if self._broken:
                    await self._reconnect()
                return await self._roundtrip(kind, payload)
            except ProtocolError as exc:
                if (not retryable or exc.code not in RETRYABLE
                        or attempt >= self._retries):
                    raise
                # a retryable failure leaves either the transport or the
                # session suspect; reconnect + RESUME restores both
                self._broken = True
            except OSError as exc:  # reconnect itself refused
                if not retryable or attempt >= self._retries:
                    raise ProtocolError(
                        f"reconnect failed: {exc}",
                        code="disconnected") from None
            attempt += 1
            self.retries_used += 1
            delay = min(self._backoff * (2 ** (attempt - 1)),
                        self._backoff_cap)
            await asyncio.sleep(
                delay * (1.0 + _JITTER * self._rng.random()))

    def _chunk_bytes(self, chunk) -> bytes:
        arr = np.asarray(chunk)
        complex_ok = self._policy.is_complex
        if arr.dtype.kind not in ("fiubc" if complex_ok else "fiub"):
            raise ChunkDtypeError(arr.dtype, complex_ok=complex_ok)
        return P.encode_array_tagged(arr, self._policy)

    def _samples(self, frame: P.Frame) -> np.ndarray:
        return P.decode_array_tagged(frame.payload, expected=self._policy)

    async def _advance(self, kind: int, body: bytes) -> P.Frame:
        """PUSH/FEED/RUN: stamp the next request id on ``body``; a
        resumable session retries the request under that same id."""
        rid = self._next_id
        self._next_id += 1
        return await self._request(kind, P.encode_request(rid, body),
                                   retryable=self._token is not None)

    # -- session surface ---------------------------------------------------
    async def open(self, *, app: str | None = None,
                   dsl: str | None = None, top: str | None = None,
                   backend: str = "plan", optimize: str = "none",
                   mode: str = "push", params: dict | None = None,
                   resumable: bool = False, dtype=None) -> None:
        """Open a session: a registry app (``app="fir"``) or a DSL
        program (``dsl=source``); ``mode="push"`` strips a registry
        app's source/Collector harness so input arrives via ``push``,
        ``mode="pull"`` serves the complete program via ``run``.

        ``resumable=True`` requests a resume token: the session
        survives disconnects (parked server-side for RESUME) and
        ``push``/``feed``/``run`` become idempotent — see the module
        docstring.

        ``dtype`` selects the session's numeric policy (``"f32"``,
        ``"c64"``, ...): the dtype chunks travel and outputs arrive in.
        """
        policy = resolve_policy(dtype)
        spec: dict = {"backend": backend, "optimize": optimize,
                      "mode": mode}
        if not policy.is_default:
            spec["dtype"] = policy.name
        if app is not None:
            spec["app"] = app
            if params:
                spec["params"] = params
        if dsl is not None:
            spec["dsl"] = dsl
            if top is not None:
                spec["top"] = top
        if resumable:
            spec["resumable"] = True
        frame = await self._request(
            P.OPEN, json.dumps(spec).encode("utf-8"),
            retryable=resumable)
        self._policy = policy
        if resumable:
            self._token = frame.u64()

    async def push(self, chunk) -> np.ndarray:
        """Feed a chunk; returns every output it completes.

        On a resumable session this is safe to retry, and retried
        automatically when ``retries`` is set.
        """
        return self._samples(
            await self._advance(P.PUSH, self._chunk_bytes(chunk)))

    async def push_stream(self, chunks, window: int = 8,
                          latencies: list | None = None):
        """Pipelined pushes: async-iterates the per-chunk outputs, in
        order, keeping up to ``window`` pushes in flight.

        Awaiting every reply before the next send costs a full client ↔
        server task round-trip per chunk; with a send window the server
        drains whole bursts of buffered frames without yielding, so the
        round-trip amortizes across the window.  ``latencies`` (optional
        list) collects each chunk's send→reply seconds — with a full
        window that includes queueing behind the chunks ahead of it,
        exactly what a streaming client experiences.  A failure —
        an error frame, or the connection dying mid-stream — raises
        :class:`~repro.errors.ProtocolError` and aborts the stream with
        replies possibly still in flight — close the connection rather
        than reusing it.  A resumable session needs no closing: its
        next request reconnects and RESUMEs, and the request ids rewind
        to the first unacknowledged chunk, so re-pushing the
        unacknowledged tail with ``push`` replays what the server had
        already applied from its reply cache (32 replies: keep
        ``window`` under it) instead of applying it twice.
        """
        chunks = list(chunks)
        first = self._next_id
        sent: list[float] = []
        done = 0

        async def send() -> None:
            payload = P.encode_request(
                first + len(sent), self._chunk_bytes(chunks[len(sent)]))
            sent.append(time.perf_counter())
            await P.write_frame(self._writer, P.PUSH, payload)

        try:
            while len(sent) < min(window, len(chunks)):
                await send()  # prime one full window before reading
            while done < len(chunks):
                frame = await self._reply()
                if latencies is not None:
                    latencies.append(time.perf_counter() - sent[done])
                if len(sent) < len(chunks):
                    await send()
                done += 1  # acknowledged = handed to the caller
                yield self._samples(frame)
        except (ConnectionError, OSError) as exc:
            self._broken = True
            raise ProtocolError(
                f"connection lost mid-stream after {done} replies: "
                f"{exc}", code="disconnected") from None
        finally:
            self._next_id = first + done
            if self._token is not None and done < len(chunks):
                self._broken = True  # only a RESUME is back in step

    async def feed(self, chunk) -> int:
        """Feed without draining; returns the item count added."""
        return (await self._advance(P.FEED, self._chunk_bytes(chunk))).u64()

    async def run(self, n: int) -> np.ndarray:
        """The next ``n`` outputs (pull sessions, or fed push sessions)."""
        return self._samples(
            await self._advance(P.RUN, int(n).to_bytes(4, "big")))

    async def reset(self) -> None:
        await self._request(P.RESET)

    async def close_session(self) -> None:
        """Release the session to the pool; the connection stays open."""
        try:
            await self._request(P.CLOSE,
                                retryable=self._token is not None)
        except ProtocolError as exc:
            # a retried CLOSE whose RESUME finds nothing means the
            # first CLOSE landed and only its reply was lost — which is
            # exactly the outcome we wanted
            if exc.code != "resume-lost":
                raise
        self._token = None
        self._policy = DEFAULT_POLICY

    async def stats(self) -> str:
        """The server's ``STATS`` text dump."""
        return (await self._request(P.STATS)).text()

    async def ping(self) -> None:
        await self._request(P.PING)

    # -- lifecycle ---------------------------------------------------------
    async def close(self) -> None:
        """Close the connection (the server releases — or, for
        resumable sessions, parks — the session)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
