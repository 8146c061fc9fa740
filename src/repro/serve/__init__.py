"""``repro.serve`` — a concurrent streaming session server.

The serving layer over PR 5's compile-once sessions: an asyncio server
multiplexing many concurrent :class:`~repro.session.StreamSession`
streams over the shared plan cache.

* :mod:`~repro.serve.server` — :class:`StreamServer` + serving knobs
  (:class:`ServeConfig`): backpressure caps, per-request timeouts,
  thread-pool execution;
* :mod:`~repro.serve.pool` — :class:`SessionPool`: a fresh session per
  OPEN from the plan its graph fingerprint keys, a single-flighted
  first compile, per-graph stats and the circuit breaker;
* :mod:`~repro.serve.protocol` — length-prefixed binary framing
  (dtype-tagged chunk payloads, JSON error frames) and the one table
  of frame kinds;
* :mod:`~repro.serve.client` — :class:`ServeClient`, the async client;
* :mod:`~repro.serve.metrics` — :class:`MetricsRegistry` behind the
  ``STATS`` command.

The stack is fault-tolerant end to end (see ``README`` §Fault
tolerance): CRC-checked frames, idempotent retries with reply caching,
RESUME re-attachment of dropped connections, checkpoint/restore with
transparent plan→compiled degradation, a per-graph circuit breaker,
and graceful drain on shutdown.

Quick start::

    server = StreamServer()
    await server.start(path="/tmp/repro.sock")

    client = await ServeClient.connect(path="/tmp/repro.sock")
    await client.open(app="fir", optimize="auto")
    out = await client.push(chunk)
"""

from .client import RETRYABLE, ServeClient
from .metrics import MetricsRegistry
from .pool import PooledSession, SessionPool
from .server import (WIRE_CODES, ServeConfig, StreamServer, parse_stats,
                     wire_code)

__all__ = ["StreamServer", "ServeConfig", "ServeClient", "SessionPool",
           "PooledSession", "MetricsRegistry", "parse_stats",
           "WIRE_CODES", "wire_code", "RETRYABLE"]
