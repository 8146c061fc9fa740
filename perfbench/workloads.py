"""The eight workloads: their programs, fixed work, inputs and oracle.

Every workload starts from DSL *text* (the ``.str`` files under
``src/repro/apps/dsl`` plus the two float->float tops below) and ends at
output arrays, so compile, planning and the source/sink harness are all
inside the measurement.  What each workload is for — the layer that
bounds it, the optimisation it would (or would not) show — is recorded
once, in ``BENCHMARK.json`` (``why``) and at length in ``README.md``.

The work per round is fixed (``call`` × ``calls``): it is the same on
every commit, so ``run_wall_s``, ``peak_rss_mb`` and the FLOP counts are
comparable across commits and a run only decides how many rounds fit in
its ``--seconds``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
#: the suite's canonical DSL sources
DSL_DIR = os.path.join(SRC, "repro", "apps", "dsl")

#: outputs that count as "the first output" of a cold start
FIRST_OUTPUTS = 64


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` — and
    fail, rather than pick up some installed copy, when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program to measure: {SRC}/repro "
                         "is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


#: float->float tops the benchmark adds to the suite's DSL: the bodies of
#: the FIR and IIR apps (``apps.iir.cascade`` composes the same cascade in
#: Python; a no-argument top is also what a serve ``OPEN`` can name).
BODY_TOPS = """
float->float pipeline FIRBody {
    add LowPassFilter(1.0, pi / 3.0, 256, 0);
}

float->float pipeline IIRBody {
    add DCBlocker(0.995);
    add Biquad(0.2929, 0.5858, 0.2929, 0.0000, -0.1716);
    add Biquad(0.1867, 0.3734, 0.1867, 0.4629, -0.2097);
    add Biquad(0.3913, -0.7826, 0.3913, 0.3695, -0.1958);
}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pull" | "push" | "compile" | "serve"
    files: tuple = ()  # DSL files the program text is made of
    top: str = ""
    args: tuple = ()
    #: registry app whose ``split_app`` source/body the traced run times
    app: str | None = None
    call: int = 0  # outputs per run() / samples per push
    calls: int = 0  # timed calls per round — the fixed work
    #: distinct input chunks; the pushes cycle through them
    chunks: int = 16
    #: oracle prefix: outputs (pull) or input samples (push) the interp
    #: backend computes, sized to about a second of interpreter time
    ref_items: int = 0

    @property
    def quick_calls(self) -> int:
        """Fixed work of a ``--quick`` round: a tenth."""
        return max(1, self.calls // 10)

    def source_text(self) -> str:
        parts = []
        for name in self.files:
            with open(os.path.join(DSL_DIR, name + ".str"),
                      encoding="utf-8") as fh:
                parts.append(fh.read())
        return "\n".join(parts) + BODY_TOPS


_W = [
    Workload("fir_pull", "pull",  # source-bound
             files=("common", "fir"), top="FIRProgram", args=(256,),
             app="FIR", call=8192, calls=12, ref_items=1024),
    Workload("vocoder_pull", "pull",  # nonlinear-fallback-bound
             files=("common", "echo", "vocoder"), top="ChannelVocoder",
             args=(100, 50, 4, 64), app="Vocoder",
             call=128, calls=8, ref_items=48),
    Workload("radar_pull", "pull",  # sources + fallbacks + matmuls
             files=("radar",), top="Radar", args=(12, 4, 8, 4, 8, 1),
             app="Radar", call=1024, calls=120, ref_items=1024),
    Workload("filterbank_push", "push",  # kernel-bound, sustained session
             files=("common", "filterbank"), top="FilterBankPipeline",
             args=(3, 100), call=4096, calls=2400, ref_items=512),
    Workload("iir_push", "push",  # stateful scan
             files=("common", "iir"), top="IIRBody",
             call=4096, calls=1920, ref_items=4096),
    Workload("fir_push_small", "push",  # per-call-overhead-bound
             files=("common",), top="FIRBody",
             call=64, calls=65536, chunks=256, ref_items=1024),
    Workload("compile_cold", "compile",  # a call is one pass over the 12 apps
             call=FIRST_OUTPUTS, calls=2, ref_items=FIRST_OUTPUTS),
    Workload("serve_fir", "serve",  # wire/protocol/pool-bound
             files=("common",), top="FIRBody",
             call=2048, calls=1600, ref_items=1024),
]

WORKLOADS = {w.name: w for w in _W}

#: closed-loop client connections of ``serve_fir`` (<= nproc here)
SERVE_CONNECTIONS = 2


# ---------------------------------------------------------------------------
# Inputs and oracle (run once per invocation, in the parent)
# ---------------------------------------------------------------------------


def make_inputs(w: Workload, seed: int):
    """The workload's generated input, a function of ``seed`` alone.

    Push and serve workloads get seeded Gaussian samples; ``compile_cold``
    gets its app order; pull workloads use the apps' built-in sources, so
    the seed does not change them (an empty array).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    if w.kind in ("push", "serve"):
        return rng.standard_normal(w.call * w.chunks)
    if w.kind == "compile":
        from repro import apps
        return rng.permutation(len(apps.BENCHMARKS))
    return np.zeros(0)


def reference(w: Workload, inputs):
    """Expected output prefix from ``backend="interp", optimize="none"``
    — never the plan/auto path under test."""
    import numpy as np
    import repro

    if w.kind == "compile":
        from repro import apps
        rows = []
        for build in apps.BENCHMARKS.values():
            s = repro.compile(build(), backend="interp", optimize="none")
            rows.append(s.run(w.ref_items))
            s.close()
        return np.stack(rows)
    s = repro.compile(w.source_text(), top=w.top, args=w.args,
                      backend="interp", optimize="none")
    try:
        if w.kind == "pull":
            return s.run(w.ref_items)
        return s.push(inputs[:w.ref_items])
    finally:
        s.close()


def matches(out, ref, policy) -> bool:
    """``out`` agrees with the oracle prefix at the policy tolerance."""
    import numpy as np

    n = min(len(out), len(ref))
    return bool(n) and bool(np.allclose(out[:n], ref[:n], rtol=policy.rtol,
                                        atol=policy.atol))


def tail(samples) -> tuple[float, float]:
    """``(percentile, value)``: the highest of the usual percentiles that
    still has at least ten samples beyond it (the median when none has)."""
    xs = sorted(samples)
    n = len(xs)
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (1 - pct / 100) >= 10:
            best = pct
    return best, xs[min(n - 1, int(n * best / 100))]


def hermetic_env(cwd: str) -> dict:
    """Child environment: a private empty calibration dir, so the cost
    constants are the analytic ones and DP decisions are deterministic;
    a fixed hash seed, so set and dict order do not vary run to run."""
    env = dict(os.environ)
    env["REPRO_CALIBRATION_DIR"] = os.path.join(cwd, "calibration")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env

