"""Calibration persistence, invalidation, and cost-model consumption.

These are the fast unit tests: calibration *files* are hand-written
(valid, corrupt, stale, or deliberately distorted), never measured —
the real microbenchmark run lives in ``benchmarks/test_calibration.py``
and the CI calibration smoke.  The distorted-file tests are the
load-bearing ones: a calibration claiming an absurdly slow FFT must
visibly flip the selection DP from frequency replacement back to the
dense matmul, proving the DP prices with the measured constants rather
than the modeled :data:`~repro.selection.costs.FFT_THROUGHPUT_PENALTY`.
"""

import json
import os

import numpy as np
import pytest

from repro.apps import fir
from repro.exec import calibrate as C
from repro.exec.kernels import stateful_block_length
from repro.selection import select_optimizations
from repro.selection.costs import (batched_direct_cost,
                                   batched_frequency_cost)


@pytest.fixture(autouse=True)
def calib_dir(tmp_path, monkeypatch):
    """Point the calibration store at an empty throwaway directory."""
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
    C.reset_calibration_cache()
    yield tmp_path
    C.reset_calibration_cache()


def _record(fft_ns=2.0, matmul_ns=1.0, block=128, version=None,
            fingerprint=None, dtypes=("f64",)):
    return {
        "version": C.CALIBRATION_VERSION if version is None else version,
        "fingerprint": fingerprint or C.machine_fingerprint(),
        "dtypes": {name: {
            "matmul_ns_per_flop": {str(e): matmul_ns
                                   for e in C.MATMUL_BUCKETS},
            "fft_ns_per_flop": {str(n): fft_ns for n in C.FFT_BUCKETS},
            "stateful_block": block,
        } for name in dtypes},
    }


def _write(data) -> str:
    path = C.calibration_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(data, str):
            f.write(data)
        else:
            json.dump(data, f)
    C.reset_calibration_cache()
    return path


# ---------------------------------------------------------------------------
# Persistence round trip and invalidation
# ---------------------------------------------------------------------------


def test_round_trip():
    cal = C.Calibration(C.machine_fingerprint(),
                        _record(fft_ns=3.5)["dtypes"])
    path = C.save_calibration(cal)
    assert path == C.calibration_path()
    loaded = C.load_calibration()
    assert loaded is not None
    assert loaded.dtypes == cal.dtypes
    assert loaded.fft_ns_per_flop("f64", 1024) == 3.5
    assert loaded.fft_matmul_ratio("f64", peek=64, fft_size=1024) == 3.5


def test_absent_and_corrupt_files_are_invisible():
    assert C.load_calibration() is None  # nothing written yet
    _write("{ not json")
    assert C.load_calibration() is None
    _write([1, 2, 3])  # valid JSON, wrong shape
    assert C.load_calibration() is None
    _write({"version": C.CALIBRATION_VERSION,
            "fingerprint": C.machine_fingerprint(), "dtypes": "nope"})
    assert C.load_calibration() is None


def test_version_mismatch_invalidates():
    _write(_record(version=C.CALIBRATION_VERSION + 1))
    assert C.load_calibration() is None


def test_fingerprint_mismatch_invalidates():
    fp = C.machine_fingerprint()
    fp["numpy"] = "0.0.1-some-other-build"
    _write(_record(fingerprint=fp))
    assert C.load_calibration() is None
    # same file with the real fingerprint loads fine
    _write(_record())
    assert C.load_calibration() is not None


def test_nearest_bucket_lookup():
    cal = C.Calibration(C.machine_fingerprint(), {
        "f64": {"matmul_ns_per_flop": {"16": 1.0, "64": 2.0, "256": 3.0},
                "fft_ns_per_flop": {"256": 10.0, "1024": 20.0},
                "stateful_block": 128}})
    assert cal.matmul_ns_per_flop("f64", 16) == 1.0
    assert cal.matmul_ns_per_flop("f64", 70) == 2.0
    assert cal.matmul_ns_per_flop("f64", 10_000) == 3.0
    assert cal.fft_ns_per_flop("f64", 300) == 10.0
    assert cal.matmul_ns_per_flop("f32", 16) is None  # not calibrated
    assert cal.fft_matmul_ratio("c64") is None


def test_active_calibration_is_lazy_and_resettable():
    assert C.active_calibration() is None
    # write the file WITHOUT resetting: the cached None must stand —
    # only an explicit reset re-reads disk
    with open(C.calibration_path(), "w", encoding="utf-8") as f:
        json.dump(_record(fft_ns=7.0), f)
    assert C.active_calibration() is None
    C.reset_calibration_cache()
    active = C.active_calibration()
    assert active is not None
    assert active.fft_ns_per_flop("f64", 256) == 7.0


def test_warm_path_measures_nothing():
    """ensure_calibration with every requested dtype already on disk
    must return measured=[] — re-measuring would defeat the cache."""
    _write(_record(dtypes=("f64", "f32")))
    cal, measured = C.ensure_calibration(dtypes=("f64", "f32"))
    assert measured == []
    assert set(cal.dtypes) == {"f64", "f32"}
    # and the warm load becomes the process-wide active record
    assert C.active_calibration() is cal


def test_concurrent_writers_never_corrupt_the_file(calib_dir):
    """Many processes saving simultaneously must leave one valid record.

    Regression test for the fixed-temp-name race: every writer staged
    into ``calibration.json.tmp``, so two cold calibrators could
    interleave writes into the same temp file before either rename,
    publishing corrupt JSON.  With per-writer unique temp files each
    ``os.replace`` is atomic and the survivor is one of the written
    records, intact."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=_save_worker, args=(i,)) for i in range(8)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    C.reset_calibration_cache()
    loaded = C.load_calibration()
    assert loaded is not None, "concurrent writers corrupted the file"
    assert set(loaded.stateful_block.values()) <= {16, 32, 64, 128,
                                                   256, 512}
    # no orphaned temp files left behind
    leftovers = [f for f in os.listdir(calib_dir) if f.endswith(".tmp")]
    assert leftovers == []


def _save_worker(i: int) -> None:
    blocks = (16, 32, 64, 128, 256, 512)
    cal = C.Calibration(C.machine_fingerprint(),
                        _record(fft_ns=float(i + 1),
                                block=blocks[i % len(blocks)])["dtypes"])
    for _ in range(20):
        C.save_calibration(cal)


# ---------------------------------------------------------------------------
# Consumption: the DP and the scan kernel must use the measured numbers
# ---------------------------------------------------------------------------


def _fir_choices(taps=256):
    result = select_optimizations(fir.build(taps=taps),
                                  cost_model="batched")
    return {cfg.choice for cfg in result.decisions.values()}


def test_distorted_calibration_flips_the_dp_decision():
    """A 256-tap FIR prefers frequency replacement under the analytic
    2.0x penalty; a calibration claiming a 500x-slower FFT must flip
    the same DP call back to the dense linear collapse."""
    with C.analytic_only():
        assert "freq" in _fir_choices()
    _write(_record(fft_ns=500.0, matmul_ns=1.0))
    assert "freq" not in _fir_choices()
    # and a near-free FFT pulls even a shallow filter into freq
    _write(_record(fft_ns=1e-6, matmul_ns=1.0))
    assert "freq" in _fir_choices(taps=16)


def test_distorted_calibration_moves_the_cost_itself():
    from repro.linear.node import LinearNode

    node = LinearNode(A=np.full((256, 1), 1.0 / 256), b=np.zeros(1),
                      peek=256, pop=1, push=1)
    _write(_record(fft_ns=500.0, matmul_ns=1.0))
    assert batched_frequency_cost(node) > batched_direct_cost(node)
    with C.analytic_only():
        assert batched_frequency_cost(node) < batched_direct_cost(node)


def test_calibrated_stateful_block_cap():
    """pop=push=1 makes the block length equal the cap, so the kernel
    must return the measured block verbatim — and the budget's 64
    without a calibration."""
    assert stateful_block_length(1, 1) == 64
    _write(_record(block=32))
    assert stateful_block_length(1, 1) == 32
    with C.analytic_only():
        assert stateful_block_length(1, 1) == 64
    _write(_record(block=512))
    assert stateful_block_length(1, 1) == 512
