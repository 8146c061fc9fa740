"""perfbench: end-to-end and per-layer benchmark, DSL text -> outputs.

    python perfbench/run.py [--workload W] [--seed S] [--seconds T]
                            [--rounds R] [--trace 0|1] [--quick] [--out FILE]

Without ``--workload`` all eight workloads run, interleaved round by
round (this box drifts 10-25 % between back-to-back runs; interleaving
spreads the drift over every workload), then each gets one traced run.
With ``--workload`` (the form ``BENCHMARK.json``'s driver uses) one
workload runs, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Each round of a workload is a fresh child process (``worker.py``) doing a
fixed amount of work; a run lasts as many rounds as fit in ``--seconds``
(or exactly ``--rounds``).  Outputs are checked against the ``interp``
backend.  Metric names, units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as W

MIN_ROUNDS = 3


def load_spec() -> dict:
    with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(args, rounds: dict) -> dict:
    import numpy
    from repro.exec.calibrate import machine_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=W.ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {"machine": machine_fingerprint(), "nproc": os.cpu_count(),
            "numpy": numpy.__version__, "commit": commit, "seed": args.seed,
            "rounds": rounds, "quick": args.quick}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def prepare(w: W.Workload, seed: int, scratch: str, quick: bool) -> float:
    """Write the workload's inputs and oracle reference where its
    children will look; returns the oracle's wall time."""
    import numpy as np

    if quick:
        # a quarter of the oracle prefix, but never so little that a push
        # body's latency (about 300 samples) leaves the reference empty
        from dataclasses import replace
        w = replace(w, ref_items=w.ref_items // 4 if w.kind == "compile"
                    else max(w.ref_items // 4, min(w.ref_items, 384)))
    os.makedirs(os.path.join(scratch, w.name), exist_ok=True)
    inputs = W.make_inputs(w, seed)
    t0 = time.perf_counter()
    ref = W.reference(w, inputs)
    reference_s = time.perf_counter() - t0
    if not ref.size:
        raise RuntimeError(f"{w.name}: the oracle produced no output")
    np.save(os.path.join(scratch, w.name, "inputs.npy"), inputs)
    np.save(os.path.join(scratch, w.name, "reference.npy"), ref)
    return reference_s


def run_child(w: W.Workload, scratch: str, calls: int, trace: int) -> dict:
    """One round: a fresh ``worker.py`` process, cwd in the scratch dir."""
    cwd = os.path.join(scratch, w.name)
    proc = subprocess.run(
        [sys.executable, os.path.join(W.HERE, "worker.py"),
         "--workload", w.name, "--calls", str(calls), "--trace", str(trace),
         "--spawned", repr(time.time())],
        cwd=cwd, env=W.hermetic_env(cwd), stdout=subprocess.PIPE, text=True,
        timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{w.name}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


#: units of the metrics that are times, which ``drift`` scales
TIME_UNITS = ("s", "ms", "us", "ns")


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """``(values, sample counts)`` of the end-to-end metrics, samples
    pooled across rounds.  Every time is first multiplied by its round's
    ``drift`` (see ``worker.Yardstick``): the machine's speed during that
    round relative to its usual speed."""
    calls = [t * r["drift"] for r in rounds for t in r["call_s"]]
    compiles = [t * r["drift"] for r in rounds for t in r["compile_s"]]
    firsts = [t * r["drift"] for r in rounds for t in r["first_output_s"]]
    p50 = statistics.median(calls)
    outputs = sum(r["outputs"] for r in rounds)
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["drift"]
                                     for r in rounds),
        "compile_s": statistics.median(compiles),
        "first_output_s": statistics.median(firsts),
        "outputs_per_s": outputs / len(calls) / p50,
        # the least-disturbed round, not the median one: what disturbs this
        # sum only ever adds to it (the same buffer doubling costs 20 ms or
        # 300 ms, depending on whether the VM hands out memory the host has
        # already backed), so the minimum is what the program itself costs
        "run_wall_s": min(sum(r["call_s"]) * r["drift"] for r in rounds),
        "call_p50_ms": p50 * 1e3,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "flops_per_output": rounds[0]["flops"] / rounds[0]["flops_outputs"],
    }
    counts = dict.fromkeys(values, len(rounds))
    counts.update(compile_s=len(compiles), first_output_s=len(firsts),
                  outputs_per_s=len(calls), call_p50_ms=len(calls))
    return values, counts


def tally(rounds: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # FLOPs are a count: rounds of equal work must agree exactly
    if len({(r["flops"], r["flops_outputs"]) for r in rounds}) > 1:
        failed += 1
    return attempted, failed


def per_layer(spec, traced: dict, untraced: dict, reference_s: float) -> dict:
    """Every per-layer metric of the spec; 0 where the workload has no
    such layer."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = dict(traced["layers"])
    unknown = set(layers) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    layers = {k: v * traced["drift"] if units[k] in TIME_UNITS else v
              for k, v in layers.items()}
    # median call, not the sum: one allocator stall in either single round
    # would swamp a difference of a few percent
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced["call_s"]) * traced["drift"]
        / (statistics.median(untraced["call_s"]) * untraced["drift"]) - 1.0)
    layers["perfbench.reference_s"] = reference_s
    layers["perfbench.drift"] = traced["drift"]
    return {name: float(layers.get(name, 0.0)) for name in units}


def with_units(values: dict, metrics: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in metrics}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def show(title: str, values: dict, metrics: list[dict], counts=None) -> None:
    print(f"\n{title}")
    units = {m["name"]: m["unit"] for m in metrics}
    for name, value in values.items():
        n = f"  n={counts[name]}" if counts else ""
        print(f"  {name:<34}{value:>16.6g} {units[name]:<6}{n}")


def measure_rounds(todo, scratch, calls, n_rounds, seconds) -> dict:
    """Rounds of every workload, interleaved: each round runs every
    workload once.  Exactly ``n_rounds``, or — when that is None — at
    least ``MIN_ROUNDS`` and then as many as end within ``seconds``."""
    rounds: dict[str, list] = {w.name: [] for w in todo}
    start = last = time.perf_counter()
    took = done = 0
    while (done < n_rounds if n_rounds
           else done < MIN_ROUNDS or last - start + took / 2 < seconds):
        for w in todo:
            rounds[w.name].append(run_child(w, scratch, calls[w.name], 0))
        done += 1
        took, last = time.perf_counter() - last, time.perf_counter()
    return rounds


def report_end_to_end(w, rounds: list[dict], spec) -> dict:
    values, counts = end_to_end(rounds)
    attempted, failed = tally(rounds)
    seed_note = ("" if w.kind in ("push", "serve", "compile")
                 else "  (built-in source: the seed changes no input)")
    show(f"{w.name}: end to end, {len(rounds)} rounds, failed "
         f"{failed}/{attempted}{seed_note}", values, spec["end_to_end"],
         counts)
    calls = [t * r["drift"] * 1e3 for r in rounds for t in r["call_s"]]
    pct, value = W.tail(calls)
    print(f"  call tail: p{pct:g} = {value:.6g} ms, max = {max(calls):.6g} "
          f"ms  n={len(calls)};  machine drift "
          f"{statistics.median(r['drift'] for r in rounds):.3f}")
    each = [end_to_end([r])[0] for r in rounds]
    return {"end_to_end": with_units(values, spec["end_to_end"]),
            "samples": counts, "attempted": attempted, "failed": failed,
            # each round alone, for compare.py's spread
            "per_round": {m: [e[m] for e in each] for m in values}}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(W.WORKLOADS),
                   help="run one workload (default: all eight)")
    p.add_argument("--seed", type=int, default=0,
                   help="drives the Gaussian input of the push/serve "
                        "workloads and compile_cold's app order; the pull "
                        "workloads use the apps' own sources")
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload (default: "
                        "BENCHMARK.json run_seconds)")
    p.add_argument("--rounds", type=int,
                   help="exactly this many rounds instead of --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end run only; 1: traced run only "
                        "(default: both)")
    p.add_argument("--quick", action="store_true",
                   help="one round of about a tenth of the work")
    p.add_argument("--out", help="write the full record here as JSON")
    args = p.parse_args(argv)

    spec = load_spec()
    W.add_src_to_path()
    todo = [W.WORKLOADS[n] for n in
            ([args.workload] if args.workload else W.WORKLOADS)]
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"]) * len(todo)
    n_rounds = 1 if args.quick and args.rounds is None else args.rounds
    calls = {w.name: w.quick_calls if args.quick else w.calls for w in todo}
    scratch = os.path.join(W.OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)

    cells: dict[str, dict] = {w.name: {} for w in todo}
    traced_runs = []
    try:
        reference_s = {w.name: prepare(w, args.seed, scratch, args.quick)
                       for w in todo}
        rounds = {w.name: [] for w in todo}
        if args.trace != 1:
            rounds = measure_rounds(todo, scratch, calls, n_rounds, seconds)
            for w in todo:
                cells[w.name] = report_end_to_end(w, rounds[w.name], spec)
        if args.trace != 0:
            for w in todo:
                if not rounds[w.name]:  # the untraced twin of the traced run
                    rounds[w.name] = [run_child(w, scratch, calls[w.name], 0)]
                traced = run_child(w, scratch, calls[w.name], 1)
                traced_runs.append(traced)
                values = per_layer(spec, traced, rounds[w.name][-1],
                                   reference_s[w.name])
                show(f"{w.name}: per layer (traced run)", values,
                     spec["per_layer"])
                cells[w.name]["per_layer"] = with_units(values,
                                                        spec["per_layer"])
                shutil.copy(os.path.join(scratch, w.name,
                                         f"trace-{w.name}.json"), W.OUT_DIR)
        record = {"workloads": cells, "provenance": provenance(
            args, {n: len(r) for n, r in rounds.items()})}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    # every child counts: the rounds of each workload and the traced runs
    tallies = [tally(rs) for rs in rounds.values()]
    attempted = sum(a for a, _ in tallies) \
        + sum(t["attempted"] for t in traced_runs)
    failed = sum(f for _, f in tallies) \
        + sum(t["failed"] for t in traced_runs)
    print(f"\nfailed_share = {failed / attempted:.6g} "
          f"({failed}/{attempted} calls)")
    if args.workload:
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": cells[args.workload][
                "per_layer" if args.trace == 1 else "end_to_end"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
