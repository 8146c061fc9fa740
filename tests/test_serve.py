"""The concurrent streaming session server: ``repro.serve``.

The acceptance bar mirrors the session suite's: serving is
*observationally invisible* — outputs streamed through the server are
bitwise-identical to driving a local :class:`~repro.session.
StreamSession`, whether sessions run interleaved or sequentially, on a
cold plan or a warm one.  Every OPEN instantiates a fresh session from
the shared plan and every CLOSE closes it, unpinning the plan entry.
On top of that sit the serving guarantees: backpressure caps a
misbehaving client's buffered input, timeouts retire (poison) sessions,
and every failure surfaces as a typed error frame, never a dropped
connection.
"""

import asyncio
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.apps import BENCHMARKS, source_values, split_app
from repro.errors import ChunkDtypeError, ProtocolError
from repro.numeric import DEFAULT_POLICY
from repro.serve import (MetricsRegistry, ServeClient, ServeConfig,
                         SessionPool, StreamServer, parse_stats)
from repro.serve import protocol as P
from repro.session import StreamSession

BACKENDS = ("interp", "compiled", "plan")

FIR_PARAMS = {"taps": 32}

DSL_SCALE = """
float->float filter Scale {
    work push 1 pop 1 {
        push(2.5 * peek(0));
        pop();
    }
}
"""


def fir_inputs(n):
    source, _body = split_app(BENCHMARKS["FIR"](**FIR_PARAMS))
    return np.asarray(source_values(source, n), dtype=np.float64)


def direct_push_outputs(chunks, backend="plan"):
    _source, body = split_app(BENCHMARKS["FIR"](**FIR_PARAMS))
    session = StreamSession(body, backend=backend)
    out = [session.push(c) for c in chunks]
    session.close()
    return np.concatenate(out) if out else np.empty(0)


def serve_test(fn, config=None):
    """Run ``fn(server, path)`` against a fresh unix-socket server."""

    async def main():
        server = StreamServer(config=config)
        sockdir = tempfile.mkdtemp(prefix="repro-serve-test-")
        path = os.path.join(sockdir, "s")
        await server.start(path=path)
        try:
            return await fn(server, path)
        finally:
            await server.aclose()
            try:
                os.unlink(path)
                os.rmdir(sockdir)
            except OSError:
                pass

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_array_codec_roundtrip(self):
        arr = np.linspace(-3.0, 7.0, 41)
        back = P.decode_array_tagged(
            P.encode_array_tagged(arr, DEFAULT_POLICY))
        np.testing.assert_array_equal(arr, back)

    def test_ragged_payload_rejected(self):
        with pytest.raises(ProtocolError) as ei:
            # one tag byte, then 12: not a multiple of 8
            P.decode_array_tagged(bytes([DEFAULT_POLICY.wire_tag])
                                  + b"\x00" * 12)
        assert ei.value.code == "bad-request"

    def _reader(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_frame_clean_eof_is_none(self):
        async def main():
            return await P.read_frame(self._reader(b""))

        assert asyncio.run(main()) is None

    def test_read_frame_truncated_is_bad_frame(self):
        async def main():
            # header promises 100 payload bytes, stream ends early
            data = bytes([P.PUSH]) + (100).to_bytes(4, "big") + b"xy"
            return await P.read_frame(self._reader(data))

        with pytest.raises(ProtocolError) as ei:
            asyncio.run(main())
        assert ei.value.code == "bad-frame"

    def test_read_frame_oversized_is_too_large(self):
        async def main():
            data = (bytes([P.PUSH]) + (1 << 30).to_bytes(4, "big")
                    + (0).to_bytes(4, "big"))  # CRC slot of the header
            return await P.read_frame(self._reader(data),
                                      max_bytes=1 << 20)

        with pytest.raises(ProtocolError) as ei:
            asyncio.run(main())
        assert ei.value.code == "too-large"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_highwater(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(2.5)
        g = m.gauge("g")
        g.inc(5)
        g.dec(3)
        snap = m.snapshot()
        assert snap["c"] == 3.5
        assert snap["g"] == 2 and snap["g.max"] == 5

    def test_histogram_quantiles(self):
        m = MetricsRegistry()
        h = m.histogram("lat")
        for ms in range(1, 101):  # 1..100 ms, uniform
            h.observe(ms / 1e3)
        snap = m.snapshot()
        assert snap["lat.count"] == 100
        # geometric buckets: quantiles land within a bucket's width
        assert 0.035 < snap["lat.p50"] < 0.07
        assert 0.08 < snap["lat.p99"] < 0.13

    def test_render_parse_roundtrip(self):
        m = MetricsRegistry()
        m.counter("reqs").inc(7)
        parsed = parse_stats(m.render())
        assert parsed["reqs"] == 7.0


# ---------------------------------------------------------------------------
# Round-trip parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_push_matches_direct_session(backend):
    inputs = fir_inputs(600)
    chunks = [inputs[:250], inputs[250:251], inputs[251:600]]
    expected = direct_push_outputs(chunks, backend)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS,
                              backend=backend)
            got = [await client.push(c) for c in chunks]
            await client.close_session()
            return np.concatenate(got)

    np.testing.assert_array_equal(serve_test(scenario), expected)


def test_pipelined_push_stream_matches_sequential():
    inputs = fir_inputs(2048)
    chunks = [inputs[i:i + 256] for i in range(0, 2048, 256)]
    expected = direct_push_outputs(chunks)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            got = []
            latencies = []
            async for out in client.push_stream(chunks, window=4,
                                                latencies=latencies):
                got.append(out)
            assert len(latencies) == len(chunks)
            await client.close_session()
            return np.concatenate(got)

    np.testing.assert_array_equal(serve_test(scenario), expected)


def test_pull_mode_run_matches_run_graph():
    from repro.runtime import run_graph

    expected = np.asarray(run_graph(BENCHMARKS["FIR"](**FIR_PARAMS), 96,
                                    backend="plan"))

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, mode="pull")
            first = await client.run(40)
            rest = await client.run(56)
            return np.concatenate([first, rest])

    np.testing.assert_array_equal(serve_test(scenario), expected)


def test_dsl_open_serves_compiled_source():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(dsl=DSL_SCALE, top="Scale")
            return await client.push([1.0, 2.0, -4.0])

    np.testing.assert_array_equal(serve_test(scenario),
                                  [2.5, 5.0, -10.0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_sessions_match_sequential(backend):
    """N sessions advanced round-robin produce the same bytes as N run
    one after another — concurrent sessions share only immutable plan
    state."""
    inputs = fir_inputs(900)
    chunks = [inputs[:300], inputs[300:601], inputs[601:900]]
    sequential = [direct_push_outputs(chunks, backend) for _ in range(3)]

    async def scenario(server, path):
        clients = []
        for _ in range(3):
            c = await ServeClient.connect(path=path)
            await c.open(app="fir", params=FIR_PARAMS, backend=backend)
            clients.append(c)
        got = [[] for _ in clients]
        for chunk in chunks:  # interleave: chunk 0 to all, then chunk 1...
            for i, c in enumerate(clients):
                got[i].append(await c.push(chunk))
        for c in clients:
            await c.close()
        return [np.concatenate(g) for g in got]

    for served, direct in zip(serve_test(scenario), sequential):
        np.testing.assert_array_equal(served, direct)


def test_stats_report_what_a_session_holds_not_what_it_streamed():
    """``serve.session_buffer_items`` is the served session's feed ring
    + output ring after each request; its high-water mark stops moving
    at once and stays within the two rings."""
    chunk = fir_inputs(512)

    async def scenario(server, path):
        marks = []
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            for i in range(60):
                await client.push(chunk)
                if i in (9, 59):
                    marks.append(server.stats_snapshot()[
                        "serve.session_buffer_items.max"])
            text = await client.stats()
        return marks, text

    (early, late), text = serve_test(scenario)
    assert 0 < late == early <= 2 * 1024  # two rings
    assert "serve.session_buffer_items.max" in text


# ---------------------------------------------------------------------------
# Pooling: a fresh session per OPEN, single-flighted first compile
# ---------------------------------------------------------------------------


def recording_acquires(pool):
    """Wrap ``pool.acquire`` to keep each session it hands out, with the
    plan entry it pinned (``None`` off the plan backend)."""
    acquired = []
    acquire = pool.acquire

    def recording(*args, **kwargs):
        ps = acquire(*args, **kwargs)
        acquired.append((ps, ps.session.cache_entry))
        return ps

    pool.acquire = recording
    return acquired


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_open_instantiates_a_fresh_session_from_the_plan(backend):
    from repro.exec import clear_plan_cache, plan_cache_stats

    n = 4
    inputs = fir_inputs(400)
    expected = direct_push_outputs([inputs], backend)
    clear_plan_cache()

    async def scenario(server, path):
        acquired = recording_acquires(server.pool)
        outs = []
        for i in range(n):
            async with await ServeClient.connect(path=path) as client:
                await client.open(app="fir", params=FIR_PARAMS,
                                  backend=backend)
                outs.append(await client.push(inputs))
                await client.close_session()
            ps, entry = acquired[i]
            assert ps.session.closed  # no session outlives its CLOSE
            assert entry is None or entry.pins == 0
        entries = {id(entry) for _ps, entry in acquired}
        assert len(acquired) == n and len(entries) == 1
        snap = server.stats_snapshot()
        assert snap["serve.sessions.compiled"] == n
        assert server.pool.graph_stats()[0]["compiles"] == n
        assert server.pool.accounting()["outstanding"] == 0
        assert plan_cache_stats()["misses"] == \
            (1 if backend == "plan" else 0)
        return outs

    for out in serve_test(scenario):
        assert out.tobytes() == expected.tobytes()


def test_second_session_of_a_warm_key_inlines_its_first_push():
    """The inline fast-path predictor belongs to the graph: a session
    opened after a sibling has pushed inlines its first request, and a
    never-served graph's first request goes to a worker."""
    inputs = fir_inputs(256)
    expected = direct_push_outputs([inputs])

    def inline(server):
        return server.stats_snapshot().get("serve.requests.inline", 0)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as first, \
                await ServeClient.connect(path=path) as second:
            await first.open(app="fir", params=FIR_PARAMS)
            await first.push(inputs)
            assert inline(server) == 0  # the key had never served
            await second.open(app="fir", params=FIR_PARAMS)
            out = await second.push(inputs)
            assert inline(server) == 1
            await first.close_session()
            await second.close_session()
            await first.open(dsl=DSL_SCALE, top="Scale")
            await first.push([1.0])
            assert inline(server) == 1  # another key starts cold
        return out

    # a generous threshold: only "has this graph served before" decides
    config = ServeConfig(inline_fast_path=1.0)
    assert serve_test(scenario, config).tobytes() == expected.tobytes()


def test_cold_stampede_of_opens_plans_once():
    """A cold stampede pays ONE full planning pass: the pool
    single-flights the first compile, and every concurrent sibling then
    hits the plan it left in the plan cache — push plans are keyed by
    body like any other."""
    from repro.exec import clear_plan_cache, plan_cache_stats

    clear_plan_cache()
    pool = SessionPool()

    def factory():  # every open builds its own graph, as the server does
        _source, body = split_app(BENCHMARKS["FIR"](**FIR_PARAMS))
        return StreamSession(body, backend="plan")

    sessions = []
    lock = threading.Lock()

    def worker():
        ps = pool.acquire("k", factory, "fir")
        with lock:
            sessions.append(ps)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert plan_cache_stats() == {"hits": 3, "misses": 1, "entries": 1}
    entries = [ps.session.cache_entry for ps in sessions]
    assert all(e is entries[0] for e in entries) and entries[0].pins == 4
    assert pool.graph_stats()[0]["compiles"] == 4
    # siblings on the one plan still execute independently and identically
    inputs = fir_inputs(300)
    outs = [ps.session.push(inputs) for ps in sessions]
    for out in outs[1:]:
        np.testing.assert_array_equal(out, outs[0])
    for ps in sessions:
        pool.release(ps)
    assert entries[0].pins == 0


def test_release_closes_and_unpins():
    from repro.exec import clear_plan_cache, plan_cache_stats

    clear_plan_cache()
    program = BENCHMARKS["FIR"](**FIR_PARAMS)
    pool = SessionPool()

    def factory():
        return StreamSession(program, backend="plan")

    a = pool.acquire("k", factory, "fir")
    b = pool.acquire("k", factory, "fir")
    entry = a.session.cache_entry
    assert b.session.cache_entry is entry and entry.pins == 2
    pool.release(a)
    assert a.session.closed and entry.pins == 1
    pool.release(b)
    assert b.session.closed and entry.pins == 0
    # the next OPEN instantiates the same plan again: a cache hit
    c = pool.acquire("k", factory, "fir")
    assert c.session.cache_entry is entry
    assert plan_cache_stats()["misses"] == 1
    pool.release(c)
    assert pool.accounting() == {"compiled": 3, "closed": 3,
                                 "outstanding": 0}


def test_pool_closes_poisoned_sessions_and_counts_them():
    _source, body = split_app(BENCHMARKS["FIR"](**FIR_PARAMS))
    pool = SessionPool()

    def factory():
        return StreamSession(body, backend="plan")

    a = pool.acquire("k", factory, "fir")
    c = pool.acquire("k", factory, "fir")
    pool.release(a)
    assert a.session.closed
    assert pool.metrics.counter("serve.sessions.poisoned").value == 0
    c.poisoned = True
    pool.release(c)  # closed, and one strike against the key
    assert c.session.closed
    assert pool.metrics.counter("serve.sessions.poisoned").value == 1
    assert pool.record_poison("k") == 2
    pool.close()
    with pytest.raises(RuntimeError):
        pool.acquire("k", factory, "fir")


# ---------------------------------------------------------------------------
# Robustness: backpressure, timeouts, error frames
# ---------------------------------------------------------------------------


def test_feed_backpressure_caps_server_memory():
    """A client that feeds without draining hits the pending-input cap
    as a typed error frame; the server's buffered-sample high-water
    mark stays bounded by the cap."""
    config = ServeConfig(max_pending_samples=500)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            await client.feed(np.zeros(400))  # under the cap: accepted
            with pytest.raises(ProtocolError) as ei:
                await client.feed(np.zeros(200))  # would cross the cap
            assert ei.value.code == "backpressure"
            # the connection and session survive the rejection: drain,
            # then the same feed is accepted
            await client.run(300)
            await client.feed(np.zeros(200))
            snap = server.stats_snapshot()
            assert snap["serve.pending_samples.max"] <= 500
            assert snap["serve.errors.backpressure"] == 1

    serve_test(scenario, config)


def test_request_timeout_returns_error_frame_and_retires_session():
    config = ServeConfig(request_timeout=0.05)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", mode="pull")
            # big enough to overrun the 50 ms budget by orders of
            # magnitude, small enough that the abandoned worker thread
            # (which runs to completion) finishes promptly at aclose()
            with pytest.raises(ProtocolError) as ei:
                await client.run(2_000_000)
            assert ei.value.code == "timeout"
            await client.close_session()  # poisoned -> closed
        # the worker thread may still be running the doomed request;
        # the session is closed all the same, and counted as poisoned
        assert server.pool.accounting()["outstanding"] == 0
        snap = server.stats_snapshot()
        assert snap["serve.errors.timeout"] == 1
        assert snap["serve.sessions.poisoned"] == 1

    serve_test(scenario, config)


def test_run_whose_reply_cannot_fit_a_frame_is_refused_unexecuted():
    """``RUN n`` is outside input: one 13-byte frame asking for 12 M
    outputs held a worker for 35 s and 600 MB before failing on an
    unrelated limit, for a 96 MB reply no frame could have carried.
    Same refusal here at a 64 KB frame limit, so a tree without the
    check fails this test in milliseconds rather than in memory."""
    from repro.runtime import run_graph

    expected = np.asarray(run_graph(BENCHMARKS["FIR"](**FIR_PARAMS), 64,
                                    backend="plan"))

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, mode="pull")
            with pytest.raises(ProtocolError) as ei:
                await client.run(10_000)  # an 80 KB reply
            assert ei.value.code == "too-large"
            # refused before executing: not poisoned, not advanced
            out = await client.run(64)
            snap = server.stats_snapshot()
            assert snap["serve.errors.too-large"] == 1
            assert snap.get("serve.sessions.poisoned", 0) == 0
            return out

    config = ServeConfig(max_frame_bytes=1 << 16)
    np.testing.assert_array_equal(serve_test(scenario, config), expected)


def test_error_frames_not_disconnects():
    """Every rejection is a typed ERR frame on a live connection."""

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            with pytest.raises(ProtocolError) as ei:
                await client.push([1.0])
            assert ei.value.code == "no-session"

            with pytest.raises(ProtocolError) as ei:
                await client.open(app="no-such-app")
            assert ei.value.code == "bad-request"

            with pytest.raises(ProtocolError) as ei:
                await client.open(app="fir", backend="vectorized")
            assert ei.value.code == "bad-option"

            with pytest.raises(ProtocolError) as ei:
                await client.open(app="fir", optimize="everything")
            assert ei.value.code == "bad-option"

            await client.open(app="fir", params=FIR_PARAMS)
            with pytest.raises(ProtocolError) as ei:
                await client.open(app="fir")  # second OPEN, same conn
            assert ei.value.code == "session-open"

            # raw ragged PUSH payload: after the request id and the
            # dtype tag, a length that is not a multiple of 8
            await P.write_frame(
                client._writer, P.PUSH, P.encode_request(
                    0, bytes([DEFAULT_POLICY.wire_tag]) + bytes(13)))
            frame = await P.read_frame(client._reader)
            assert frame.kind == P.ERR
            assert frame.json()["code"] == "bad-request"

            # the connection is still serviceable after every error
            out = await client.push(fir_inputs(200))
            assert len(out) > 0

    serve_test(scenario)


def test_push_on_pull_session_is_bad_request():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, mode="pull")
            with pytest.raises(ProtocolError) as ei:
                await client.push([1.0, 2.0])
            assert ei.value.code == "bad-request"
            assert "pull" in str(ei.value)

    serve_test(scenario)


def test_client_rejects_non_float_chunks_eagerly():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            with pytest.raises(ChunkDtypeError):
                await client.push(np.array([1 + 2j, 3j]))
            with pytest.raises(ChunkDtypeError):
                await client.push(np.array(["a", "b"]))

    serve_test(scenario)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_stats_command_reports_traffic_and_cache():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            await client.push(fir_inputs(256))
            await client.close_session()
            stats = parse_stats(await client.stats())
        assert stats["serve.sessions.compiled"] == 1
        assert stats["serve.chunks.in"] == 1
        assert stats["serve.samples.in"] == 256
        assert stats["serve.samples.out"] > 0
        assert stats["serve.latency.count"] >= 2
        assert "plan_cache.hits" in stats
        assert stats["graph.FIR/plan/none/push.compiles"] == 1
        assert stats["graph.FIR/plan/none/push.requests"] >= 1

    serve_test(scenario)


def test_reset_command_rewinds_served_session():
    inputs = fir_inputs(300)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)
            first = await client.push(inputs)
            await client.reset()
            again = await client.push(inputs)
            return first, again

    first, again = serve_test(scenario)
    np.testing.assert_array_equal(first, again)


def test_tcp_transport_roundtrip():
    async def main():
        server = StreamServer()
        host, port = await server.start(host="127.0.0.1", port=0)
        try:
            async with await ServeClient.connect(host, port) as client:
                await client.ping()
                await client.open(app="fir", params=FIR_PARAMS)
                return await client.push(fir_inputs(128))
        finally:
            await server.aclose()

    assert len(asyncio.run(main())) > 0
