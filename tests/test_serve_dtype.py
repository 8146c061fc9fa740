"""The one wire: dtype-tagged chunks behind a request id.

Every chunk on the wire — PUSH, FEED, the ARR reply — is one dtype tag
byte ahead of the samples, whatever the session's numeric policy, and
every session-advancing request (PUSH, FEED, RUN) leads with a request
id, whether or not the session is resumable.  Served output is bitwise
the direct session's for every dtype, a resumable session replays a
repeated id, and every mismatch (wrong tag, ragged or missing body)
surfaces as a typed error frame, never a silent cast.
"""

import numpy as np
import pytest

from repro.apps import BENCHMARKS, split_app
from repro.errors import ProtocolError
from repro.numeric import POLICIES
from repro.serve import ServeClient
from repro.serve import protocol as P
from repro.session import StreamSession
from test_serve import FIR_PARAMS, fir_inputs, serve_test


def direct_outputs(chunks, dtype):
    _source, body = split_app(BENCHMARKS["FIR"](**FIR_PARAMS))
    session = StreamSession(body, backend="plan", dtype=dtype)
    try:
        out = [session.push(c) for c in chunks]
    finally:
        session.close()
    return np.concatenate([o for o in out if len(o)])


# ---------------------------------------------------------------------------
# Tagged array codec
# ---------------------------------------------------------------------------


class TestTaggedCodec:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_roundtrip_preserves_dtype(self, name):
        policy = POLICIES[name]
        arr = policy.cast(np.linspace(-3.0, 7.0, 41))
        payload = P.encode_array_tagged(arr, policy)
        assert payload[0] == policy.wire_tag
        back = P.decode_array_tagged(payload, expected=policy)
        assert back.dtype == policy.dtype
        np.testing.assert_array_equal(back, arr)
        # without an expectation the tag alone selects the dtype
        assert P.decode_array_tagged(payload).dtype == policy.dtype

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError) as ei:
            P.decode_array_tagged(b"")
        assert ei.value.code == "bad-request"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError) as ei:
            P.decode_array_tagged(bytes([250]) + b"\x00" * 8)
        assert ei.value.code == "bad-request"

    def test_ragged_body_rejected(self):
        payload = bytes([POLICIES["f32"].wire_tag]) + b"\x00" * 7
        with pytest.raises(ProtocolError) as ei:
            P.decode_array_tagged(payload)  # 7 is not a multiple of 4
        assert ei.value.code == "bad-request"

    def test_tag_disagreement_is_dtype_mismatch(self):
        payload = P.encode_array_tagged(np.zeros(4, np.float32),
                                        POLICIES["f32"])
        with pytest.raises(ProtocolError) as ei:
            P.decode_array_tagged(payload, expected=POLICIES["c64"])
        assert ei.value.code == "dtype-mismatch"


# ---------------------------------------------------------------------------
# Served round trips
# ---------------------------------------------------------------------------


def test_served_f32_push_matches_direct_session():
    inputs = fir_inputs(600)
    chunks = [inputs[:250], inputs[250:251], inputs[251:600]]
    expected = direct_outputs(chunks, "f32")

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, dtype="f32")
            got = [await client.push(c) for c in chunks]
            await client.close_session()
            return np.concatenate(got)

    out = serve_test(scenario)
    assert out.dtype == np.float32
    # the wire carries f32 both ways and the session computes in f32:
    # served output is bitwise the local session's
    np.testing.assert_array_equal(out, expected)
    # and it tracks the float64 run at the policy tolerances
    ref = direct_outputs(chunks, None)
    np.testing.assert_allclose(out.astype(np.float64), ref,
                               rtol=POLICIES["f32"].rtol,
                               atol=POLICIES["f32"].atol)


def test_served_complex_push_roundtrip():
    rng = np.random.default_rng(3)
    chunk = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    expected = direct_outputs([chunk], "c64")

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, dtype="c64")
            return await client.push(chunk)

    out = serve_test(scenario)
    assert out.dtype == np.complex64
    np.testing.assert_array_equal(out, expected)


def test_tagged_feed_then_run():
    inputs = fir_inputs(256)

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS,
                              dtype="float32")  # aliases resolve too
            count = await client.feed(inputs)
            assert count == len(inputs)
            return await client.run(64)

    out = serve_test(scenario)
    assert out.dtype == np.float32 and len(out) == 64


# ---------------------------------------------------------------------------
# Mismatch gating: typed error frames, sessions survive
# ---------------------------------------------------------------------------


def test_wrongly_tagged_chunks_are_dtype_mismatch():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, dtype="f32")
            wrong = P.encode_array_tagged(np.zeros(8, np.complex64),
                                          POLICIES["c64"])
            with pytest.raises(ProtocolError) as ei:
                await client._request(P.PUSH, P.encode_request(1 << 40, wrong))
            assert ei.value.code == "dtype-mismatch"
            # error frames, not disconnects: the session still serves
            out = await client.push(np.zeros(64))
            assert out.dtype == np.float32

    serve_test(scenario)


def test_tagged_chunk_to_default_session_is_dtype_mismatch():
    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS)  # f64
            wrong = P.encode_array_tagged(np.zeros(8, np.float32),
                                          POLICIES["f32"])
            with pytest.raises(ProtocolError) as ei:
                await client._request(P.PUSH, P.encode_request(1 << 40, wrong))
            assert ei.value.code == "dtype-mismatch"
            out = await client.push(np.zeros(64))
            assert out.dtype == np.float64

    serve_test(scenario)


# ---------------------------------------------------------------------------
# The wire, stated once
# ---------------------------------------------------------------------------


def test_kind_table_is_nine_requests_and_four_responses():
    requests = ("OPEN", "PUSH", "FEED", "RUN", "RESET", "CLOSE", "STATS",
                "PING", "RESUME")
    responses = ("OK", "ARR", "TXT", "ERR")
    assert P.REQUEST_NAMES == {getattr(P, name): name.lower()
                               for name in requests}
    kinds = {name: value for name, value in vars(P).items()
             if name.isupper() and not name.startswith("_")
             and isinstance(value, int)
             and name != "DEFAULT_MAX_FRAME_BYTES"}
    assert sorted(kinds) == sorted(requests + responses)
    assert len(set(kinds.values())) == 13


RUN_N = 64


@pytest.mark.parametrize("resumable", (False, True),
                         ids=("plain", "resumable"))
@pytest.mark.parametrize("dtype", ("f64", "f32", "c64"))
@pytest.mark.parametrize("op", ("push", "feed+run", "run"))
def test_one_wire_for_every_request_dtype_and_session_kind(
        op, dtype, resumable):
    """PUSH | FEED+RUN | RUN  x  f64 | f32 | c64  x  resumable or not:
    served == direct session bitwise.  Every request is sent twice under
    one id: a resumable session replays the second from its reply cache
    and advances once; a non-resumable session ignores the id and runs
    the request again — so the direct session it must equal ran each
    request twice."""
    policy = POLICIES[dtype]
    chunk = policy.cast(fir_inputs(256))
    mode = "pull" if op == "run" else "push"
    run_body = RUN_N.to_bytes(4, "big")
    requests = {"push": [(P.PUSH, P.encode_array_tagged(chunk, policy))],
                "feed+run": [(P.FEED, P.encode_array_tagged(chunk, policy)),
                             (P.RUN, run_body)],
                "run": [(P.RUN, run_body)]}[op]

    def apply(session, kind):
        if kind == P.RUN:
            return session.run(RUN_N)
        return session.push(chunk) if kind == P.PUSH \
            else session.feed(chunk)

    program = BENCHMARKS["FIR"](**FIR_PARAMS)
    direct = StreamSession(program if mode == "pull"
                           else split_app(program)[1],
                           backend="plan", dtype=dtype)
    want = [apply(direct, kind) for kind, _body in requests
            for _ in range(1 if resumable else 2)]
    # then one more round through the client's own methods
    want += [apply(direct, kind) for kind, _body in requests]
    direct.close()

    async def scenario(server, path):
        async with await ServeClient.connect(path=path) as client:
            await client.open(app="fir", params=FIR_PARAMS, mode=mode,
                              dtype=dtype, resumable=resumable)

            def value(frame):
                return frame.u64() if frame.kind == P.OK \
                    else client._samples(frame)

            got = []
            for i, (kind, body) in enumerate(requests):
                payload = P.encode_request((1 << 40) + i, body)
                first = await client._request(kind, payload)
                again = await client._request(kind, payload)
                got.append(value(first))
                if resumable:
                    assert (again.kind, again.payload) \
                        == (first.kind, first.payload)
                else:
                    got.append(value(again))

            # malformed requests are typed error frames; nothing below
            # advances, poisons or disconnects the session
            async def refused(kind, payload):
                with pytest.raises(ProtocolError) as ei:
                    await client._request(kind, payload)
                return ei.value.code

            for kind, body in requests:
                assert await refused(kind, body[:5]) == "bad-request"
                assert await refused(kind, P.encode_request(7, b"")) \
                    == "bad-request"  # an id and nothing else
                assert await refused(kind, P.encode_request(7, body[:-1])) \
                    == "bad-request"  # ragged
                if kind != P.RUN:
                    other = POLICIES["c128" if dtype == "f64" else "f64"]
                    wrong = P.encode_array_tagged(np.zeros(8), other)
                    assert await refused(kind, P.encode_request(7, wrong)) \
                        == "dtype-mismatch"

            if op == "push":
                got.append(await client.push(chunk))
            if op == "feed+run":
                got.append(await client.feed(chunk))
            if op != "push":
                got.append(await client.run(RUN_N))
            return got, server.stats_snapshot()

    got, snap = serve_test(scenario)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == policy.dtype
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w  # FEED's item count
    assert snap.get("serve.requests.replayed", 0) \
        == (len(requests) if resumable else 0)


def test_resumable_f32_session_survives_drop_and_resume():
    """Resumable and non-float64 at once — refused while the id-stamped
    requests had no dtype tag.  The connection drops mid-stream; the
    client reconnects, RESUMEs and finishes bitwise equal to an
    uninterrupted plan-backend f32 session."""
    inputs = fir_inputs(8 * 256)
    chunks = [inputs[i:i + 256] for i in range(0, len(inputs), 256)]
    expected = direct_outputs(chunks, "f32")

    async def scenario(server, path):
        client = await ServeClient.connect(path=path, retries=5,
                                           retry_seed=0, backoff=0.01)
        try:
            await client.open(app="fir", params=FIR_PARAMS,
                              resumable=True, dtype="f32")
            outs = [await client.push(c) for c in chunks[:4]]
            client._writer.transport.abort()  # the network "fails"
            outs += [await client.push(c) for c in chunks[4:]]
            await client.close_session()
        finally:
            await client.close()
        return np.concatenate(outs), client.resumes, \
            server.stats_snapshot()

    out, resumes, snap = serve_test(scenario)
    assert out.dtype == np.float32
    assert out.tobytes() == expected.tobytes()
    assert resumes == 1
    assert snap.get("serve.sessions.resumed") == 1
