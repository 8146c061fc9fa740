"""Numeric-policy differential suite.

Every benchmark app runs under the float32 policy on all three backends
and must agree with the float64 interpreter reference at the policy's
documented tolerances (rtol=1e-4, atol=1e-5).  The linear apps
additionally run under the complex policies on the plan backend —
complex samples flow through the same extracted matmul/FFT kernels, so
real inputs must come back with a vanishing imaginary part.  Push
sessions, chunk dtype gating, and the dtype-keyed plan cache are
covered here too; the analytic-vs-calibrated cost model has its own
suite in ``test_calibration_cache.py``.
"""

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS, source_values, split_app
from repro.errors import ChunkDtypeError
from repro.exec import clear_plan_cache, plan_cache_stats
from repro.numeric import POLICIES
from repro.runtime import run_graph
from test_apps import SMALL_PARAMS

BACKENDS = ("interp", "compiled", "plan")
APPS = sorted(SMALL_PARAMS)

#: Apps whose small configurations are linear end-to-end — the only
#: ones where complex samples are mathematically meaningful (nonlinear
#: constructs like clips and atan have no canonical complex extension).
LINEAR_APPS = ("FIR", "FilterBank")


def _n_out(name: str) -> int:
    return 16 if name == "Radar" else 32


def _build(name):
    return BENCHMARKS[name](**SMALL_PARAMS[name])


def _reference(name):
    """Float64 interpreter output: the suite's ground truth."""
    return np.asarray(run_graph(_build(name), _n_out(name),
                                backend="interp"), dtype=np.float64)


# ---------------------------------------------------------------------------
# Pull sessions: all apps x all backends under f32; linear apps complex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", APPS)
def test_f32_matches_f64_reference(name, backend):
    policy = POLICIES["f32"]
    ref = _reference(name)
    with repro.compile(_build(name), backend=backend,
                       dtype="f32") as session:
        assert session.policy is policy
        out = session.run(_n_out(name))
    assert out.dtype == np.float32
    np.testing.assert_allclose(out.astype(np.float64), ref,
                               rtol=policy.rtol, atol=policy.atol,
                               err_msg=f"{name}/{backend} under f32")


@pytest.mark.parametrize("name", APPS)
def test_f32_plan_keeps_the_f64_kernels(name):
    """The reduced-precision policy forfeits no batched kernel — every
    node gets the step it gets under f64, over float32 rings — which is
    why an f32 plan is not slower than the scalar backend (the cause of
    the retired ``f32 >= 1.0`` wall-clock bars)."""
    def steps(session):
        return [(s.name, s.step_kind) for s in session.report().steps]

    with repro.compile(_build(name), backend="plan") as wide, \
            repro.compile(_build(name), backend="plan",
                          dtype="f32") as narrow:
        assert steps(narrow) == steps(wide)
        assert {r.dtype for r in narrow._executor.rings} \
            == {np.dtype(np.float32)}


@pytest.mark.parametrize("dtype", ("c64", "c128"))
@pytest.mark.parametrize("name", LINEAR_APPS)
def test_complex_policies_on_linear_apps(name, dtype):
    policy = POLICIES[dtype]
    ref = _reference(name)
    with repro.compile(_build(name), backend="plan",
                       dtype=dtype) as session:
        assert session.policy is policy
        out = session.run(_n_out(name))
    assert out.dtype == policy.dtype
    # real inputs through a linear program: the complex run reproduces
    # the real reference, imaginary part included (allclose compares
    # both components against ref + 0j)
    np.testing.assert_allclose(out.astype(np.complex128),
                               ref.astype(np.complex128),
                               rtol=policy.rtol, atol=policy.atol,
                               err_msg=f"{name} under {dtype}")


@pytest.mark.parametrize("name", LINEAR_APPS)
def test_f64_policy_is_bitwise_identical_to_default(name):
    """Spelling out the default must change nothing: dtype="f64" output
    is bit-for-bit the no-dtype output."""
    with repro.compile(_build(name), backend="plan") as plain:
        out_plain = plain.run(_n_out(name))
    with repro.compile(_build(name), backend="plan",
                       dtype="float64") as spelled:
        out_spelled = spelled.run(_n_out(name))
    np.testing.assert_array_equal(out_spelled, out_plain)


# ---------------------------------------------------------------------------
# Push sessions (the ISSUE acceptance path: FIR + FilterBank f32 e2e)
# ---------------------------------------------------------------------------


def _push_chunks(name, dtype, inputs):
    _source, body = split_app(_build(name))
    with repro.compile(body, backend="plan", dtype=dtype) as session:
        outs = [session.push(c) for c in np.array_split(inputs, 7)]
        out = np.concatenate([o for o in outs if len(o)])
    return out


@pytest.mark.parametrize("name", LINEAR_APPS)
def test_f32_push_session_parity(name):
    policy = POLICIES["f32"]
    source, _body = split_app(_build(name))
    inputs = np.asarray(source_values(source, 512))
    out64 = _push_chunks(name, None, inputs)
    out32 = _push_chunks(name, "f32", inputs)
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert len(out32) == len(out64) > 0
    np.testing.assert_allclose(out32.astype(np.float64), out64,
                               rtol=policy.rtol, atol=policy.atol)


def test_complex_push_session():
    """A genuinely complex chunk through a complex-policy FIR: c64 must
    track c128 at the single-precision tolerances."""
    policy = POLICIES["c64"]
    rng = np.random.default_rng(7)
    inputs = (rng.standard_normal(512)
              + 1j * rng.standard_normal(512)).astype(np.complex128)
    narrow = _push_chunks("FIR", "c64", inputs)
    wide = _push_chunks("FIR", "c128", inputs)
    assert narrow.dtype == np.complex64 and wide.dtype == np.complex128
    assert len(narrow) == len(wide) > 0
    np.testing.assert_allclose(narrow.astype(np.complex128), wide,
                               rtol=policy.rtol, atol=policy.atol)


def test_chunk_dtype_gate_follows_the_policy():
    _source, body = split_app(_build("FIR"))
    with repro.compile(body, backend="plan", dtype="f32") as session:
        with pytest.raises(ChunkDtypeError):
            session.push(np.array([1 + 2j, 3 - 1j]))
        # the session survives the rejection
        assert session.push(np.zeros(64)).dtype == np.float32
    _source, body = split_app(_build("FIR"))
    with repro.compile(body, backend="plan", dtype="c64") as session:
        with pytest.raises(ChunkDtypeError):
            session.push(np.array(["a", "b"]))
        out = session.push(np.full(64, 1 + 1j))
        assert out.dtype == np.complex64


def test_feed_casts_to_the_policy():
    _source, body = split_app(_build("FIR"))
    with repro.compile(body, backend="compiled", dtype="f32") as session:
        session.feed(np.arange(128.0))  # float64 input: cast, not error
        assert session.run(8).dtype == np.float32


# ---------------------------------------------------------------------------
# Plan cache: dtype is part of the key
# ---------------------------------------------------------------------------


def test_plan_cache_is_dtype_keyed():
    clear_plan_cache()
    with repro.compile(_build("FIR"), backend="plan") as s64:
        s64.run(8)
    misses = plan_cache_stats()["misses"]
    with repro.compile(_build("FIR"), backend="plan", dtype="f32") as s32:
        s32.run(8)
    # same graph, different policy: must NOT hit the f64 entry
    assert plan_cache_stats()["misses"] > misses
    with repro.compile(_build("FIR"), backend="plan", dtype="f32") as again:
        again.run(8)
    assert plan_cache_stats()["hits"] >= 1
    clear_plan_cache()
