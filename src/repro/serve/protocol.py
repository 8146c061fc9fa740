"""Length-prefixed binary framing for the session server.

One frame = a 9-byte header (``kind`` u8, payload ``length`` u32
big-endian, payload ``CRC-32`` u32 big-endian) followed by the payload.
The CRC turns silent payload corruption (a flipped bit would otherwise
deliver wrong samples as valid floats) into a typed ``corrupt`` error,
which is what lets the recovery protocol treat a corrupted frame
exactly like a dropped connection: reconnect, RESUME, retry.

The kind table — nine requests, four responses; client and server ship
together, so there is no version byte and no second spelling of any
row::

    OPEN   JSON spec {"app"|"dsl", "backend", "optimize", "mode",
           "dtype", "resumable", ...} -> OK (u64be resume token when
           resumable)
    PUSH   id + chunk  -> ARR of every output the chunk completes
    FEED   id + chunk  -> OK(u64be count) without draining
    RUN    id + u32be n -> ARR of the next n outputs
    RESET  rewind the session without recompiling -> OK
    CLOSE  release the session back to the pool (connection stays open)
    STATS  -> TXT metrics dump
    PING   -> OK liveness probe
    RESUME u64be token -> OK(token); re-attaches this connection to the
           parked session of a dropped one (or, once reclaimed,
           restores its last checkpoint into a fresh session)

    OK     empty or u64be count/token
    ARR    chunk of output samples
    TXT    utf-8 text
    ERR    JSON {"code": <machine code>, "error": <message>}

**Chunks.**  A chunk is one dtype tag byte (1=f64le, 2=f32le, 3=c64le,
4=c128le — the :class:`~repro.numeric.NumericPolicy` wire tags)
followed by the raw little-endian samples: the memory layout sessions
and ring buffers use, so neither side re-encodes them.  A tag that
disagrees with the session's policy is a typed ``dtype-mismatch`` error
frame, never a silent reinterpretation of the byte stream.

**Request ids.**  Every session-advancing request (PUSH, FEED, RUN)
leads with a ``u64be`` request id — a request is *(position, chunk)*.
A resumable session keeps its last replies by id and answers a repeated
id from that cache without re-running it, so a retry after a lost reply
never double-applies state; a non-resumable session has no cache,
ignores the id and runs the request again.

Errors are *frames*, not connection drops: a request that fails
(unknown app, backpressure cap, timeout) gets an ERR reply and the
connection keeps serving.  Only unrecoverable framing states (oversized,
truncated, or CRC-failing frames) close the transport.

``write_frame`` is also the wire-layer fault-injection site
(:mod:`repro.faults`): an installed plan may delay, corrupt, truncate,
or drop any frame either peer writes.
"""

from __future__ import annotations

import asyncio
import json
import zlib

import numpy as np

from .. import faults as _faults
from ..errors import ProtocolError
from ..numeric import policy_for_wire_tag

__all__ = ["Frame", "ProtocolError", "read_frame", "write_frame",
           "error_payload", "encode_array_tagged", "decode_array_tagged",
           "encode_request",
           "OPEN", "PUSH", "FEED", "RUN", "RESET", "CLOSE", "STATS",
           "PING", "RESUME", "OK", "ARR", "TXT", "ERR", "REQUEST_NAMES",
           "DEFAULT_MAX_FRAME_BYTES"]

# request kinds
OPEN, PUSH, FEED, RUN, RESET, CLOSE, STATS, PING, RESUME = range(1, 10)
# response kinds
OK, ARR, TXT, ERR = range(16, 20)

REQUEST_NAMES = {OPEN: "open", PUSH: "push", FEED: "feed", RUN: "run",
                 RESET: "reset", CLOSE: "close", STATS: "stats",
                 PING: "ping", RESUME: "resume"}

_HEADER_LEN = 9

#: Refuse frames above this size (a malformed length prefix must not
#: make the server allocate gigabytes); servers may configure lower.
DEFAULT_MAX_FRAME_BYTES = 64 << 20


class Frame:
    """A decoded frame: ``kind`` plus raw ``payload`` bytes."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: int, payload: bytes = b""):
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = REQUEST_NAMES.get(self.kind, str(self.kind))
        return f"Frame({name}, {len(self.payload)}B)"

    # -- payload views -----------------------------------------------------
    def json(self) -> dict:
        try:
            obj = json.loads(self.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON payload: {exc}",
                                code="bad-request") from None
        if not isinstance(obj, dict):
            raise ProtocolError("JSON payload must be an object",
                                code="bad-request")
        return obj

    def request(self) -> tuple[int, memoryview]:
        """``(request id, body)`` of a PUSH/FEED/RUN payload; the body
        is a view, so a chunk decodes without a copy."""
        if len(self.payload) < 8:
            raise ProtocolError(
                f"expected a u64 request id, got {len(self.payload)} "
                "bytes", code="bad-request")
        return (int.from_bytes(self.payload[:8], "big"),
                memoryview(self.payload)[8:])

    def u64(self) -> int:
        if len(self.payload) != 8:
            raise ProtocolError(
                f"expected a u64 payload, got {len(self.payload)} bytes",
                code="bad-request")
        return int.from_bytes(self.payload, "big")

    def text(self) -> str:
        return self.payload.decode("utf-8")


def encode_request(rid: int, body: bytes) -> bytes:
    """A PUSH/FEED/RUN payload (inverse of :meth:`Frame.request`)."""
    return rid.to_bytes(8, "big") + body


def encode_array_tagged(arr: np.ndarray, policy) -> bytes:
    """A chunk: one dtype tag byte + samples in the policy's
    little-endian format."""
    return b"".join((  # one allocation: the samples are copied once
        bytes((policy.wire_tag,)),
        np.ascontiguousarray(arr, dtype=policy.wire_fmt).data))


def decode_array_tagged(payload, expected=None) -> np.ndarray:
    """Inverse of :func:`encode_array_tagged`, over ``bytes`` or a
    ``memoryview``; the result is a read-only view of ``payload``.

    Returns the samples in the tagged policy's dtype.  With
    ``expected`` (a :class:`~repro.numeric.NumericPolicy`), a tag that
    disagrees raises a ``dtype-mismatch`` error instead of decoding:
    the bytes are valid *some* dtype's samples, just not this
    session's, and reinterpreting them would be silent corruption.
    """
    if not len(payload):
        raise ProtocolError("chunk has no dtype tag", code="bad-request")
    policy = policy_for_wire_tag(payload[0])
    if policy is None:
        raise ProtocolError(f"unknown dtype tag {payload[0]}",
                            code="bad-request")
    if expected is not None and policy.name != expected.name:
        raise ProtocolError(
            f"chunk tagged {policy.name} sent to a {expected.name} "
            "session", code="dtype-mismatch")
    if (len(payload) - 1) % policy.itemsize:
        raise ProtocolError(
            f"chunk of {len(payload) - 1} sample bytes is not a whole "
            f"number of {policy.name} items", code="bad-request")
    return np.frombuffer(payload, dtype=policy.wire_fmt, offset=1).astype(
        policy.dtype, copy=False)


def error_payload(code: str, message: str) -> bytes:
    return json.dumps({"code": code, "error": message}).encode("utf-8")


def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    return (bytes([kind]) + len(payload).to_bytes(4, "big")
            + zlib.crc32(payload).to_bytes(4, "big") + payload)


async def read_frame(reader: asyncio.StreamReader,
                     max_bytes: int = DEFAULT_MAX_FRAME_BYTES
                     ) -> Frame | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for truncated, oversized, or
    CRC-failing frames — states the connection cannot recover from (the
    stream position or payload integrity is unknown), so callers close
    the transport.
    """
    try:
        header = await reader.readexactly(_HEADER_LEN)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header",
                            code="bad-frame") from None
    kind = header[0]
    length = int.from_bytes(header[1:5], "big")
    crc = int.from_bytes(header[5:9], "big")
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte "
            "limit", code="too-large")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-payload",
                            code="bad-frame") from None
    if zlib.crc32(payload) != crc:
        raise ProtocolError(
            f"frame payload failed its CRC-32 check "
            f"({length} bytes, kind {kind})", code="corrupt")
    return Frame(kind, payload)


async def _inject_wire_faults(plan, writer, data: bytes) -> bytes:
    """Apply the active plan's wire faults to one encoded frame."""
    if plan.roll("wire.latency"):
        await asyncio.sleep(plan.latency)
    if plan.roll("wire.drop"):
        transport = writer.transport
        if transport is not None:
            transport.abort()
        raise ConnectionResetError(
            "injected fault: connection dropped before frame write")
    if plan.roll("wire.truncate"):
        writer.write(data[:max(1, len(data) // 2)])
        writer.close()
        raise ConnectionResetError(
            "injected fault: frame truncated mid-write")
    if plan.roll("wire.corrupt"):
        # flip one bit past the length field: in the payload when there
        # is one, else in the CRC itself — either way the receiver's
        # CRC check fails and raises a typed ``corrupt`` error, instead
        # of silently delivering wrong samples
        i = len(data) - 1
        data = data[:i] + bytes([data[i] ^ 0x01])
    return data


async def write_frame(writer: asyncio.StreamWriter, kind: int,
                      payload: bytes = b"") -> None:
    """Write one frame and drain.

    The drain is the transport half of backpressure: a client that
    stops reading stalls its server-side handler here (bounded by the
    transport's write buffer), instead of queueing unbounded replies.
    """
    data = encode_frame(kind, payload)
    plan = _faults.ACTIVE
    if plan is not None:
        data = await _inject_wire_faults(plan, writer, data)
    writer.write(data)
    await writer.drain()
