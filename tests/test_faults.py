"""Fault injection, degradation, and recovery: the robustness layer.

The acceptance bar extends the serving suite's invisibility principle
to *failure*: with faults injected at every site class — kernel raises
mid-advance, cache lookups, pool compiles (every OPEN), corrupted /
dropped / truncated frames — a resumable client's outputs must stay
bitwise-identical to the fault-free run, the pool's session books must
balance (nothing leaks), and every recovery action must be visible in
the metrics rather than in the data.
"""

import asyncio
import inspect
import os
import tempfile
import time

import numpy as np
import pytest

from repro import errors, faults
from repro.errors import FaultInjected, ProtocolError
from repro.serve import (RETRYABLE, WIRE_CODES, ServeClient, ServeConfig,
                         SessionPool, StreamServer, wire_code)
from repro.serve import protocol as P
from repro.numeric import DEFAULT_POLICY
from repro.session import StreamSession

from chaos import CHAOS_DSL, run_chaos


def smooth_graph():
    from repro.dsl import compile_source
    return compile_source(CHAOS_DSL)


def smooth_chunks(n_chunks=6, chunk=64, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(chunk) for _ in range(n_chunks)]


def smooth_expected(chunks, backend="compiled"):
    session = StreamSession(smooth_graph(), backend=backend)
    try:
        return [session.push(c) for c in chunks]
    finally:
        session.close()


def serve_test(fn, config=None):
    """Run ``fn(server, path)`` against a fresh unix-socket server."""

    async def main():
        server = StreamServer(config=config)
        sockdir = tempfile.mkdtemp(prefix="repro-faults-test-")
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


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test must leave the process with no active fault plan."""
    yield
    assert faults.ACTIVE is None, "test leaked an installed FaultPlan"
    faults.uninstall()


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = faults.FaultPlan(seed=11, rates={"wire.drop": 0.5})
        b = faults.FaultPlan(seed=11, rates={"wire.drop": 0.5})
        da = [a.roll("wire.drop") for _ in range(64)]
        db = [b.roll("wire.drop") for _ in range(64)]
        assert da == db and any(da) and not all(da)

    def test_sites_have_independent_streams(self):
        plan = faults.FaultPlan(seed=1, rates={"wire.drop": 0.5,
                                               "wire.corrupt": 0.5})
        drops = [plan.roll("wire.drop") for _ in range(64)]
        # interleaving another site's rolls must not perturb a site's
        # own decision stream
        plan2 = faults.FaultPlan(seed=1, rates={"wire.drop": 0.5,
                                                "wire.corrupt": 0.5})
        drops2 = []
        for _ in range(64):
            plan2.roll("wire.corrupt")
            drops2.append(plan2.roll("wire.drop"))
        assert drops == drops2

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultPlan(rates={"kernel.stpe": 1.0})

    def test_max_per_site_caps_firings(self):
        plan = faults.FaultPlan(rates={"kernel.step": 1.0},
                                max_per_site=2)
        fired = sum(plan.roll("kernel.step") for _ in range(10))
        assert fired == 2
        assert plan.counts()["attempts"]["kernel.step"] == 10

    def test_suppress_masks_all_sites(self):
        plan = faults.FaultPlan(rates={"kernel.step": 1.0})
        with faults.suppress():
            assert not plan.roll("kernel.step")
            with faults.suppress():  # re-entrant
                assert not plan.roll("kernel.step")
            assert not plan.roll("kernel.step")
        assert plan.roll("kernel.step")

    def test_fired_by_class_groups_prefixes(self):
        plan = faults.FaultPlan(rates={"wire.drop": 1.0,
                                       "wire.corrupt": 1.0,
                                       "kernel.step": 1.0})
        for site in ("wire.drop", "wire.corrupt", "kernel.step"):
            plan.roll(site)
        by_class = plan.fired_by_class()
        assert by_class["wire"] == 2 and by_class["kernel"] == 1
        assert by_class["cache"] == 0 and by_class["pool"] == 0

    def test_disabled_is_inert(self):
        # rate-0 sites never fire but still count coverage attempts
        plan = faults.FaultPlan()
        assert not any(plan.roll("wire.drop") for _ in range(8))
        assert plan.counts()["attempts"]["wire.drop"] == 8


def test_kernel_site_fires_through_plan_session():
    chunks = smooth_chunks()
    session = StreamSession(smooth_graph(), backend="plan")
    plan = faults.install(faults.FaultPlan(
        seed=3, rates={"kernel.step": 1.0}, max_per_site=1))
    try:
        with pytest.raises(FaultInjected) as ei:
            for c in chunks:
                session.push(c)
        assert ei.value.site == "kernel.step"
        assert plan.fired["kernel.step"] == 1
    finally:
        faults.uninstall()
        session.close()


def test_a_fault_in_a_warm_flush_propagates():
    """FIR(256) body as one matmul step, which every push fires: a
    fault in the flush propagates out of a warm session's push as out
    of a fresh one's first."""
    from repro.apps import BENCHMARKS, split_app

    def body():
        return split_app(BENCHMARKS["FIR"]())[1]

    warm = StreamSession(body(), backend="plan")
    fresh = StreamSession(body(), backend="plan")
    for _ in range(6):  # from the fifth push on, 255 items wait
        warm.push(np.ones(64))
    faults.install(faults.FaultPlan(rates={"kernel.step": 1.0}))
    try:
        for session, n in ((warm, 64), (fresh, 300)):
            with pytest.raises(FaultInjected) as ei:
                session.push(np.ones(n))
            assert ei.value.site == "kernel.step"
    finally:
        faults.uninstall()
        warm.close()
        fresh.close()


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------


class TestSnapshotRestore:
    def test_same_backend_restore_is_bitwise(self):
        chunks = smooth_chunks()
        expected = smooth_expected(chunks, backend="plan")
        session = StreamSession(smooth_graph(), backend="plan")
        try:
            outs = [session.push(c) for c in chunks[:3]]
            snap = session.snapshot()
            tail_once = [session.push(c) for c in chunks[3:]]
            session.restore(snap)
            tail_again = [session.push(c) for c in chunks[3:]]
            got = np.concatenate(outs + tail_again)
            assert got.tobytes() == np.concatenate(expected).tobytes()
            assert (np.concatenate(tail_once).tobytes()
                    == np.concatenate(tail_again).tobytes())
        finally:
            session.close()

    def test_restore_after_injected_failure(self):
        # the server's recovery recipe in miniature: fault mid-push,
        # restore the checkpoint, re-run the same push
        chunks = smooth_chunks()
        expected = smooth_expected(chunks, backend="plan")
        session = StreamSession(smooth_graph(), backend="plan")
        try:
            outs = [session.push(chunks[0])]
            snap = session.snapshot()
            faults.install(faults.FaultPlan(
                rates={"kernel.step": 1.0}, max_per_site=1))
            try:
                with pytest.raises(FaultInjected):
                    session.push(chunks[1])
            finally:
                faults.uninstall()
            session.restore(snap)
            outs += [session.push(c) for c in chunks[1:]]
            got = np.concatenate(outs)
            assert got.tobytes() == np.concatenate(expected).tobytes()
        finally:
            session.close()


# ---------------------------------------------------------------------------
# Wire integrity + the error-code contract
# ---------------------------------------------------------------------------


def _reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_corrupted_payload_is_typed_crc_error():
    async def main():
        data = bytearray(P.encode_frame(P.PUSH, b"\x00" * 16))
        data[-1] ^= 0x01  # one flipped bit in the payload
        return await P.read_frame(_reader(bytes(data)))

    with pytest.raises(ProtocolError) as ei:
        asyncio.run(main())
    assert ei.value.code == "corrupt"


def test_corrupted_header_crc_is_typed_crc_error():
    async def main():
        data = bytearray(P.encode_frame(P.RUN, (8).to_bytes(4, "big")))
        data[5] ^= 0x01  # flip a bit of the header's CRC field instead
        return await P.read_frame(_reader(bytes(data)))

    with pytest.raises(ProtocolError) as ei:
        asyncio.run(main())
    assert ei.value.code == "corrupt"


#: The stable public contract: every ``ReproError`` subclass a server
#: can raise maps to exactly this wire code.  Extending ``errors.py``
#: without extending ``WIRE_CODES`` (or this table) fails the test.
EXPECTED_CODES = {
    "StreamGraphError": "bad-request",
    "SchedulingError": "bad-request",
    "IRError": "bad-request",
    "InterpError": "exec",
    "NonLinearError": "exec",
    "CombinationError": "exec",
    "CompileOptionError": "bad-option",
    "ChunkDtypeError": "bad-dtype",
    "SessionClosedError": "closed",
    "SessionPoisonedError": "poisoned",
    "DeadlineError": "timeout",
    "FaultInjected": "exec",
    "DSLError": "bad-request",
    "ReproError": "exec",
}


def test_every_public_error_maps_to_a_stable_wire_code():
    public = {name: obj for name, obj in vars(errors).items()
              if inspect.isclass(obj)
              and issubclass(obj, errors.ReproError)}
    # ProtocolError carries its own code field; everything else must
    # resolve through the declarative table
    assert set(public) == set(EXPECTED_CODES) | {"ProtocolError"}
    for name, cls in public.items():
        if name == "ProtocolError":
            continue
        resolved = next((code for etype, code in WIRE_CODES
                         if issubclass(cls, etype)), None)
        assert resolved == EXPECTED_CODES[name], (
            f"{name}: WIRE_CODES resolves to {resolved!r}, contract "
            f"says {EXPECTED_CODES[name]!r}")


def test_wire_code_orders_subclasses_before_bases():
    assert wire_code(errors.SessionPoisonedError("x")) == "poisoned"
    assert wire_code(errors.DeadlineError("x")) == "timeout"
    assert wire_code(errors.ProtocolError("x", code="backpressure")) \
        == "backpressure"
    assert wire_code(RuntimeError("x")) == "internal"


def test_abrupt_server_disconnect_mid_push_stream_is_typed():
    """A server that vanishes mid-stream must surface as ProtocolError
    (typed, with a retryable code) — never a bare ConnectionResetError
    or a hang."""

    async def main():
        hits = {"n": 0}

        async def flaky(reader, writer):
            # speak just enough protocol: ack the OPEN, swallow one
            # PUSH, then yank the transport with replies owed
            frame = await P.read_frame(reader)
            assert frame.kind == P.OPEN
            await P.write_frame(writer, P.OK)
            await P.read_frame(reader)
            hits["n"] += 1
            writer.transport.abort()

        sockdir = tempfile.mkdtemp(prefix="repro-flaky-")
        path = os.path.join(sockdir, "s")
        server = await asyncio.start_unix_server(flaky, path)
        try:
            client = await ServeClient.connect(path=path)
            await client.open(dsl=CHAOS_DSL)
            chunks = smooth_chunks(4)
            with pytest.raises(ProtocolError) as ei:
                async for _out in client.push_stream(chunks, window=2):
                    pass
            await client.close()
            assert hits["n"] == 1
            return ei.value.code
        finally:
            server.close()
            await server.wait_closed()
            os.unlink(path)
            os.rmdir(sockdir)

    code = asyncio.run(main())
    assert code in ("disconnected", "bad-frame")
    assert code in RETRYABLE


# ---------------------------------------------------------------------------
# Graceful degradation (from the checkpoint, on the same plan) and the
# circuit breaker
# ---------------------------------------------------------------------------


def test_degradation_is_invisible_to_the_client():
    chunks = smooth_chunks()
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=4,
                                           retry_seed=0)
        outs = []
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            outs.append(await client.push(chunks[0]))
            faults.install(faults.FaultPlan(
                rates={"kernel.step": 1.0}, max_per_site=1))
            try:
                outs.append(await client.push(chunks[1]))
            finally:
                faults.uninstall()
            for c in chunks[2:]:
                outs.append(await client.push(c))
            await client.close_session()
        finally:
            await client.close()
        snap = server.stats_snapshot()
        return outs, snap, client.retries_used

    outs, snap, retries = serve_test(scenario)
    got = np.concatenate(outs)
    assert got.tobytes() == np.concatenate(expected).tobytes()
    # the fault was absorbed server-side: one degraded re-run, zero
    # client-visible retries
    assert snap.get("serve.requests.degraded") == 1
    assert retries == 0


#: Pushes of :data:`LONG_CHUNK` samples that take a session past 2**20
#: items fed plus produced: a checkpoint must hold at any stream length,
#: and one capped by the history it records goes stale past such a cap,
#: so a degraded or restored request would go on from an old position.
LONG_PUSHES, LONG_CHUNK = 130, 4096


def test_degradation_far_into_a_stream_is_bitwise():
    chunks = smooth_chunks(LONG_PUSHES + 2, chunk=LONG_CHUNK)
    expected = smooth_expected(chunks, backend="plan")

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan")
            outs = [await client.push(c) for c in chunks[:LONG_PUSHES]]
            faults.install(faults.FaultPlan(
                rates={"kernel.step": 1.0}, max_per_site=1))
            try:
                outs.append(await client.push(chunks[LONG_PUSHES]))
            finally:
                faults.uninstall()
            outs.append(await client.push(chunks[-1]))
            await client.close_session()
        finally:
            await client.close()
        return outs, server.stats_snapshot()

    outs, snap = serve_test(scenario)
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert snap.get("serve.requests.degraded") == 1


def test_degradation_disabled_surfaces_the_fault():
    chunks = smooth_chunks(2)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            faults.install(faults.FaultPlan(
                rates={"kernel.step": 1.0}, max_per_site=1))
            try:
                with pytest.raises(ProtocolError) as ei:
                    await client.push(chunks[0])
            finally:
                faults.uninstall()
            return ei.value.code
        finally:
            await client.close()

    code = serve_test(scenario, config=ServeConfig(degrade=False))
    assert code == "exec"


def test_circuit_breaker_quarantines_after_threshold():
    clock = {"now": 0.0}
    pool = SessionPool(breaker_threshold=3, breaker_cooldown=10.0,
                       clock=lambda: clock["now"])
    key = ("digest", 0, "plan", "none", "push")
    assert not pool.quarantined(key)
    pool.record_poison(key)
    pool.record_poison(key)
    assert not pool.quarantined(key)  # below threshold
    pool.record_poison(key)
    assert pool.quarantined(key)
    clock["now"] = 10.0  # cooldown elapsed: clean slate
    assert not pool.quarantined(key)
    pool.record_poison(key)  # old strikes were forgotten
    assert not pool.quarantined(key)


def test_quarantined_plan_key_opens_on_compiled_backend():
    chunks = smooth_chunks(3)
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        # trip the breaker by hand for the plan key this OPEN will use
        key, _label, _factory = server._resolve_spec(
            {"dsl": CHAOS_DSL, "backend": "plan"})
        for _ in range(server.pool.breaker_threshold):
            server.pool.record_poison(key)
        client = await ServeClient.connect(path=path)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan")
            outs = [await client.push(c) for c in chunks]
            await client.close_session()
        finally:
            await client.close()
        return outs, server.stats_snapshot()

    outs, snap = serve_test(scenario)
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert snap.get("serve.sessions.quarantine_opens") == 1


# ---------------------------------------------------------------------------
# Idempotent retries and RESUME
# ---------------------------------------------------------------------------


def test_repeated_id_push_never_double_applies():
    chunks = smooth_chunks()
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            # an id far above the client's own counter, so the later
            # client.push() calls never collide with it
            payload = P.encode_request(
                1 << 40, P.encode_array_tagged(chunks[0], DEFAULT_POLICY))
            first = await client._roundtrip(P.PUSH, payload)
            replay = await client._roundtrip(P.PUSH, payload)
            rest = [await client.push(c) for c in chunks[1:]]
            await client.close_session()
        finally:
            await client.close()
        return client._samples(first), client._samples(replay), rest, \
            server.stats_snapshot()

    first, replay, rest, snap = serve_test(scenario)
    # the replayed id returned the cached reply and advanced nothing:
    # the rest of the stream still matches the fault-free run
    assert first.tobytes() == replay.tobytes()
    got = np.concatenate([first] + rest)
    assert got.tobytes() == np.concatenate(expected).tobytes()
    assert snap.get("serve.requests.replayed") == 1


def test_aborted_push_stream_repushes_its_tail_without_double_applying():
    """The recovery ``push_stream`` documents — reconnect, RESUME,
    re-push the unacknowledged tail with ``push`` — replays what the
    server had already applied.  Before every PUSH carried an id the
    pipelined ones went out without, so this scenario applied 12 chunks
    of 8 and diverged from the direct session at output 127, with no
    error anywhere."""
    chunks = smooth_chunks(8)
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        outs = []
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            with pytest.raises(ProtocolError) as ei:
                async for out in client.push_stream(chunks, window=4):
                    outs.append(out)
                    if len(outs) == 2:
                        client._writer.transport.abort()
            assert ei.value.code in RETRYABLE
            outs += [await client.push(c) for c in chunks[len(outs):]]
            await client.close_session()
        finally:
            await client.close()
        return outs, client.resumes, server.stats_snapshot()

    outs, resumes, snap = serve_test(scenario)
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert resumes == 1
    assert snap.get("serve.chunks.in") == 8
    assert snap.get("serve.requests.replayed") >= 1


def test_client_reconnects_and_resumes_transparently():
    chunks = smooth_chunks(8)
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=5,
                                           retry_seed=0, backoff=0.01)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            outs = [await client.push(c) for c in chunks[:4]]
            client._writer.transport.abort()  # the network "fails"
            outs += [await client.push(c) for c in chunks[4:]]
            await client.close_session()
        finally:
            await client.close()
        return outs, client.resumes, server.stats_snapshot()

    outs, resumes, snap = serve_test(scenario)
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert resumes == 1
    assert snap.get("serve.sessions.resumed") == 1


def test_resume_restores_from_checkpoint_after_reclaim():
    chunks = smooth_chunks(8)
    expected = smooth_expected(chunks)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=5,
                                           retry_seed=0, backoff=0.01)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            outs = [await client.push(c) for c in chunks[:4]]
            client._writer.transport.abort()
            await asyncio.sleep(0.05)  # let the server park the session
            # simulate the resume_ttl passing: the sweep reclaims the
            # parked session but keeps its checkpoint restorable
            server._sweep_resume(
                now=time.monotonic() + server.config.resume_ttl + 1)
            outs += [await client.push(c) for c in chunks[4:]]
            await client.close_session()
        finally:
            await client.close()
        return outs, server.stats_snapshot()

    outs, snap = serve_test(
        scenario, config=ServeConfig(resume_ttl=30.0))
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert snap.get("serve.sessions.restored") == 1


def test_resume_after_reclaim_far_into_a_stream_is_bitwise():
    chunks = smooth_chunks(LONG_PUSHES + 2, chunk=LONG_CHUNK)
    expected = smooth_expected(chunks, backend="plan")

    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=5,
                                           retry_seed=0, backoff=0.01)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            outs = [await client.push(c) for c in chunks[:LONG_PUSHES]]
            client._writer.transport.abort()
            await asyncio.sleep(0.05)  # let the server park the session
            server._sweep_resume(
                now=time.monotonic() + server.config.resume_ttl + 1)
            outs += [await client.push(c) for c in chunks[LONG_PUSHES:]]
            await client.close_session()
        finally:
            await client.close()
        return outs, server.stats_snapshot()

    outs, snap = serve_test(scenario)
    assert (np.concatenate(outs).tobytes()
            == np.concatenate(expected).tobytes())
    assert snap.get("serve.sessions.restored") == 1


def test_expired_token_is_resume_lost():
    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=3,
                                           retry_seed=0, backoff=0.01)
        try:
            await client.open(dsl=CHAOS_DSL, backend="plan",
                              resumable=True)
            await client.push(smooth_chunks(1)[0])
            client._writer.transport.abort()
            await asyncio.sleep(0.05)
            # both the session and its checkpoint age out
            server._sweep_resume(
                now=time.monotonic() + 2 * server.config.resume_ttl + 1)
            server._sweep_resume(
                now=time.monotonic() + 2 * server.config.resume_ttl + 1)
            with pytest.raises(ProtocolError) as ei:
                await client.push(smooth_chunks(1)[0])
            return ei.value.code
        finally:
            await client.close()

    assert serve_test(scenario) == "resume-lost"


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


def test_shutdown_drains_and_reports_final_stats():
    chunks = smooth_chunks(3)

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        try:
            await client.open(dsl=CHAOS_DSL)
            for c in chunks:
                await client.push(c)
            await client.close_session()
        finally:
            await client.close()
        final = await server.shutdown()
        # the dump captured the traffic, and the books balance
        assert "serve.requests" in final
        assert server.final_stats == final
        assert server.pool.accounting()["outstanding"] == 0
        # the listener is gone: new connections are refused
        with pytest.raises((ConnectionError, OSError)):
            await ServeClient.connect(path=path)
        return True

    assert serve_test(scenario)


def test_aclose_waits_for_inflight_requests():
    """Satellite fix: teardown must drain in-flight work instead of
    cancelling worker futures under a running request."""

    async def scenario(server, path):
        client = await ServeClient.connect(path=path)
        await client.open(dsl=CHAOS_DSL, backend="plan")
        chunk = smooth_chunks(1, chunk=1 << 20)[0]

        async def slow_push():
            return await client.push(chunk)

        task = asyncio.ensure_future(slow_push())
        # wait until the push is genuinely in flight (or already done —
        # then aclose is trivially safe and the assertion still bites)
        while server._inflight == 0 and not task.done():
            await asyncio.sleep(0.001)
        await server.aclose()  # must not kill the in-flight push
        out = await task
        await client.close()
        return len(out)

    # inline_fast_path=0 forces every request onto the worker pool —
    # the path the satellite fix protects
    assert serve_test(scenario,
                      config=ServeConfig(inline_fast_path=0)) > 0


# ---------------------------------------------------------------------------
# The chaos harness itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clients, chunks", [(3, 6), (8, 12)])
def test_mini_chaos_run_holds_parity_and_leaks_nothing(clients, chunks):
    """The two configurations whose tally over repeated runs is known
    (the seed alone does not fix a run — see ``chaos.py``)."""
    r = run_chaos(clients=clients, chunks=chunks, seed=20260807)
    assert r["violations"] == []
    assert r["leaked"] == 0
    assert r["missing_classes"] == []
    assert faults.ACTIVE is None  # harness uninstalled its plan
    # recovery really ran: a green run cannot mean no fault ever flew
    assert r["degraded"] > 0
    assert r["retries"] > 0
