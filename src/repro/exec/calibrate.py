"""Empirical cost-model calibration (the paper's §5 ATLAS argument).

The selection DP prices implementations with analytic FLOP formulas, but
the paper's own measurements (and ATLAS before it) show that constant
factors are machine facts, not model facts: the relative throughput of a
dense matmul vs. an FFT convolution — and the block length at which the
lifted state-space kernel runs fastest — vary with cache sizes, SIMD
width, and the BLAS/pocketfft builds actually installed.  This module
measures exactly those constants once per machine and dtype:

* **matmul** ns-per-flop of a dense ``(B, e) @ (e, u)`` product, per
  filter-depth bucket ``e`` in :data:`MATMUL_BUCKETS`;
* **fft** ns-per-flop of a batched rfft → pointwise product → irfft
  round trip (the plan backend's frequency kernel), per FFT-size bucket
  in :data:`FFT_BUCKETS` — both priced in the *analytic* flop units the
  DP uses, so their ratio slots directly into
  :func:`~repro.selection.costs.batched_frequency_cost` in place of the
  modeled :data:`~repro.selection.costs.FFT_THROUGHPUT_PENALTY`;
* the fastest **stateful block length** among :data:`STATEFUL_BLOCKS`,
  replacing the budget-derived 64 in
  :func:`~repro.exec.kernels.stateful_block_length`.

Results persist as JSON under ``$REPRO_CALIBRATION_DIR`` (default
``~/.cache/repro``) together with a machine fingerprint
(platform/python/numpy); a fingerprint or version mismatch makes the
file invisible — consumers see "no calibration" and fall back to the
analytic constants, never a stale machine's numbers.  FLOP *counts* are
never calibrated, only time constants: profiles stay bit-identical
whether or not a calibration file exists.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time

import numpy as np

from ..frequency.fftlib import frequency_block_counts

#: Bump when the measurement protocol changes; old files are ignored.
CALIBRATION_VERSION = 2

#: Filter-depth buckets (columns of the dense matmul) measured.
MATMUL_BUCKETS = (16, 64, 256)

#: FFT sizes measured (the overlap-save sizes small/medium/large
#: frequency filters actually pick).
FFT_BUCKETS = (256, 1024, 4096)

#: Candidate block lengths for the lifted stateful kernel.
STATEFUL_BLOCKS = (16, 32, 64, 128, 256, 512)


def machine_fingerprint() -> dict:
    """Identity of the machine + numeric stack a calibration is valid on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def calibration_path() -> str:
    """Where the calibration file lives (``$REPRO_CALIBRATION_DIR``
    overrides the default ``~/.cache/repro``)."""
    base = os.environ.get("REPRO_CALIBRATION_DIR")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(base, "calibration.json")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _best_time(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs (one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _randn(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(x.astype(dtype))


def _measure_matmul(dtype, e: int, rng) -> float:
    """ns per analytic flop of a dense (B, e) @ (e, u) product.

    "Analytic flop" is the DP's real-arithmetic unit (2·B·e·u regardless
    of dtype): a complex dtype's extra real work shows up as larger
    measured ns-per-flop, which is exactly the constant the DP needs.
    """
    B, u = 512, 8
    X = _randn(rng, (B, e), dtype)
    A = _randn(rng, (e, u), dtype)
    flops = 2.0 * B * e * u
    t = _best_time(lambda: X @ A)
    return t * 1e9 / flops


def _measure_fft(dtype, n: int, rng) -> float:
    """ns per analytic flop of the batched overlap-save convolution.

    Mirrors the plan backend's frequency kernel: one batched forward
    transform, a pointwise spectrum product against ``u`` kernels, one
    batched inverse.  Priced with the same :func:`frequency_block_counts`
    formula the DP uses, so the fft/matmul ratio is dimensionless.
    """
    k, u = 32, 4
    is_complex = np.dtype(dtype).kind == "c"
    blocks = _randn(rng, (k, n), dtype)
    kernels = _randn(rng, (n // 4, u), dtype)
    if is_complex:
        H = np.fft.fft(kernels, n=n, axis=0)

        def run():
            X = np.fft.fft(blocks, n=n, axis=1)
            Y = X[:, :, None] * H[None, :, :]
            np.fft.ifft(Y, n=n, axis=1)
    else:
        H = np.fft.rfft(kernels, n=n, axis=0)

        def run():
            X = np.fft.rfft(blocks, n=n, axis=1)
            Y = X[:, :, None] * H[None, :, :]
            np.fft.irfft(Y, n=n, axis=1)

    flops = float(frequency_block_counts(n, u).flops) * k
    t = _best_time(run)
    return t * 1e9 / flops


def _measure_stateful_block(policy, rng) -> int:
    """The fastest lifted block length for this policy's dtype.

    Runs the kernel itself — :class:`~repro.exec.kernels.
    StatefulLinearStep` over a biquad, 4096 firings a call — at each
    candidate ``B``.  Nothing in it loops per block any more, so what
    ``B`` trades is dense recomputation inside a block (grows with
    ``B``) against the rows of the boundary lift and the shapes the
    installed BLAS is fast at; on the box this was written on f32 ran
    2.7x slower at 128 than at 64.  That is a machine fact, which is why
    it is measured.
    """
    from ..linear.state import from_difference_equation
    from ..profiling import NullProfiler
    from .kernels import (StatefulLinearStep, stateful_group_length,
                          stateful_lift)
    from .ring import RingBuffer

    firings = 4096
    node = from_difference_equation([0.2, 0.4, 0.2], [0.4, -0.2])
    group = stateful_group_length(node.state_dim)
    x = _randn(rng, firings, policy.dtype)
    best_b, best_t = STATEFUL_BLOCKS[0], float("inf")
    for b in STATEFUL_BLOCKS:
        ring_in = RingBuffer("in", 2 * firings, dtype=policy.dtype)
        ring_out = RingBuffer("out", 2 * firings, dtype=policy.dtype)
        lifts = {k: stateful_lift(node, k, group, policy.dtype)
                 for k in {b, 1}}
        step = StatefulLinearStep(ring_in, ring_out, (
            node, (), b, group, lifts, policy), NullProfiler())

        def run():
            ring_in.push_array(x)
            step.execute(firings)
            ring_out.pop_block(firings)

        t = _best_time(run, repeats=9)
        if t < best_t:
            best_b, best_t = b, t
    return best_b


def _measure_dtype(policy) -> dict:
    dtype = policy.dtype
    rng = np.random.default_rng(1234)
    return {
        "matmul_ns_per_flop": {str(e): _measure_matmul(dtype, e, rng)
                               for e in MATMUL_BUCKETS},
        "fft_ns_per_flop": {str(n): _measure_fft(dtype, n, rng)
                            for n in FFT_BUCKETS},
        "stateful_block": _measure_stateful_block(policy, rng),
    }


# ---------------------------------------------------------------------------
# The calibration record
# ---------------------------------------------------------------------------


class Calibration:
    """Measured machine constants, per dtype name (``"f64"``, ...)."""

    def __init__(self, fingerprint: dict, dtypes: dict | None = None):
        self.fingerprint = fingerprint
        #: dtype name -> {"matmul_ns_per_flop": {bucket: ns},
        #:                "fft_ns_per_flop": {bucket: ns},
        #:                "stateful_block": int}
        self.dtypes: dict = dtypes if dtypes is not None else {}

    @staticmethod
    def _nearest(table: dict, target: int) -> float | None:
        if not table:
            return None
        key = min(table, key=lambda k: abs(int(k) - target))
        return float(table[key])

    def matmul_ns_per_flop(self, policy_name: str = "f64",
                           e: int = 64) -> float | None:
        d = self.dtypes.get(policy_name)
        if d is None:
            return None
        return self._nearest(d.get("matmul_ns_per_flop", {}), e)

    def fft_ns_per_flop(self, policy_name: str = "f64",
                        n: int = 1024) -> float | None:
        d = self.dtypes.get(policy_name)
        if d is None:
            return None
        return self._nearest(d.get("fft_ns_per_flop", {}), n)

    def fft_matmul_ratio(self, policy_name: str = "f64", peek: int = 64,
                         fft_size: int = 1024) -> float | None:
        """Measured per-flop cost of the FFT path relative to the dense
        matmul — the empirical replacement for the modeled
        :data:`~repro.selection.costs.FFT_THROUGHPUT_PENALTY`."""
        f = self.fft_ns_per_flop(policy_name, fft_size)
        m = self.matmul_ns_per_flop(policy_name, peek)
        if not f or not m:
            return None
        return f / m

    @property
    def stateful_block(self) -> dict:
        """dtype name -> measured best stateful block length."""
        return {name: int(d["stateful_block"])
                for name, d in self.dtypes.items()
                if d.get("stateful_block")}

    def to_json(self) -> dict:
        return {"version": CALIBRATION_VERSION,
                "fingerprint": self.fingerprint,
                "dtypes": self.dtypes}


# ---------------------------------------------------------------------------
# Persistence and the process-wide active record
# ---------------------------------------------------------------------------

_UNLOADED = object()
_ACTIVE: object = _UNLOADED


def load_calibration() -> Calibration | None:
    """The on-disk calibration, or None (absent, corrupt, wrong version,
    or measured on a different machine/stack)."""
    try:
        with open(calibration_path(), encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    if data.get("version") != CALIBRATION_VERSION:
        return None
    if data.get("fingerprint") != machine_fingerprint():
        return None
    dtypes = data.get("dtypes")
    if not isinstance(dtypes, dict):
        return None
    return Calibration(data["fingerprint"], dtypes)


def save_calibration(cal: Calibration) -> str:
    """Atomically persist ``cal``; returns the path written.

    The temp file gets a unique per-writer name (``mkstemp`` in the
    destination directory): concurrent cold calibrators — e.g. parallel
    workers racing to warm the same cache — each stage a private file
    and the ``os.replace`` publishes whole records only.  A fixed temp
    name would let two writers interleave into one file before either
    rename, leaving corrupt JSON on disk.
    """
    import tempfile

    path = calibration_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(cal.to_json(), f, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def active_calibration() -> Calibration | None:
    """The calibration consulted by cost models and kernels.

    Loaded from disk lazily, once per process; absent/invalid files give
    None and every consumer falls back to analytic constants.  Tests
    redirect ``$REPRO_CALIBRATION_DIR`` and call
    :func:`reset_calibration_cache` around the change.
    """
    global _ACTIVE
    if _ACTIVE is _UNLOADED:
        _ACTIVE = load_calibration()
    return _ACTIVE  # type: ignore[return-value]


def reset_calibration_cache() -> None:
    """Forget the loaded calibration; the next consumer re-reads disk."""
    global _ACTIVE
    _ACTIVE = _UNLOADED


@contextlib.contextmanager
def analytic_only():
    """Temporarily hide any calibration: cost models and kernels fall
    back to their analytic constants inside the block.  Used to put the
    measured and modeled decisions side by side."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = prev


def ensure_calibration(dtypes=("f64",), force: bool = False):
    """Measure any missing dtypes and persist; returns
    ``(calibration, measured_names)``.

    ``measured_names`` is empty when every requested dtype was already
    on disk for this machine (the warm path re-measures nothing) —
    CI's calibration smoke asserts exactly that.
    """
    from ..numeric import resolve_policy

    cal = load_calibration()
    if cal is None:
        cal = Calibration(machine_fingerprint())
    measured: list[str] = []
    for spec in dtypes:
        pol = resolve_policy(spec)
        if force or pol.name not in cal.dtypes:
            cal.dtypes[pol.name] = _measure_dtype(pol)
            measured.append(pol.name)
    if measured:
        save_calibration(cal)
    global _ACTIVE
    _ACTIVE = cal
    return cal, measured


def main(argv=None) -> int:
    """``python -m repro.exec.calibrate [--dtype ...] [--force]``"""
    import argparse

    from ..numeric import DTYPE_CHOICES

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.calibrate",
        description="Measure and persist per-machine cost-model "
                    "constants (matmul/FFT throughput, stateful block size).")
    parser.add_argument("--dtype", action="append", choices=DTYPE_CHOICES,
                        help="dtype to calibrate (repeatable; default f64)")
    parser.add_argument("--force", action="store_true",
                        help="re-measure even if already calibrated")
    args = parser.parse_args(argv)
    dtypes = args.dtype or ["f64"]
    _, measured = ensure_calibration(dtypes, force=args.force)
    print(json.dumps({"measured": measured, "reused": not measured,
                      "path": calibration_path()}))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
