"""Per-layer measurements of the traced run.

Each layer is measured from outside, by timing calls into its public
functions under a :mod:`trace` span and reading the counts those calls
return.  The dict :func:`measure` returns holds every per-layer metric
the worker can see; ``run.py`` adds the three that need both runs
(``trace.overhead_pct``, ``perfbench.reference_s``) and writes ``0`` for
a metric that does not apply to the workload (a push workload has no
source; only ``serve_fir`` has a wire).

Which end-to-end metric each layer metric should move is tabled in
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter

import numpy as np

import repro
import workloads as W
from repro import apps, dsl, linear, selection
from repro import exec as rexec
from repro.graph.streams import Filter, PrimitiveFilter, walk

#: walks of one program through the compile layers (medians reported)
PIPELINE_REPEATS = 3
#: source items fed to a pull app's body alone
BODY_ITEMS = 8192
#: samples/outputs run through the compiled (scalar) backend
COMPILED_ITEMS = {"pull": 512, "push": 2048, "serve": 2048}


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# compile pipeline: dsl -> linear -> selection -> exec.optimize -> exec.plan
# ---------------------------------------------------------------------------


def programs_of(w: W.Workload, order):
    """``[(load, source_bytes)]``: ``load()`` elaborates a fresh graph
    from DSL text."""
    if w.kind == "compile":
        names = list(apps.BENCHMARKS)
        return [(apps.BENCHMARKS[names[i]], 0) for i in order]
    text = w.source_text()
    return [(lambda: dsl.load_source(text, w.top, *w.args,
                                     fingerprint=True),
             len(text.encode()))]


def compile_layers(w: W.Workload, order, tracer) -> dict:
    """Walk each of the workload's programs through the compile layers one
    public call at a time.  Counts and times are summed over programs;
    a single program is walked ``PIPELINE_REPEATS`` times and each time
    is the median, because one millisecond-scale sample is mostly noise."""
    m = Counter()
    kinds = Counter()
    programs = programs_of(w, order)
    repeats = 1 if len(programs) > 1 else PIPELINE_REPEATS
    stages = ("dsl.load_source", "linear.analyze",
              "selection.select_optimizations", "exec.optimize_stream",
              "session.compile.cold_plan", "session.compile.warm")
    seconds = dict.fromkeys(stages, 0.0)

    def timed(stage, fn, *args, **kw):
        t0 = time.perf_counter()
        with tracer.span(stage):
            out = fn(*args, **kw)
        samples[stage].append(time.perf_counter() - t0)
        return out

    for load, nbytes in programs:
        samples = {stage: [] for stage in stages}
        for _ in range(repeats):
            dsl.clear_source_cache()
            rexec.clear_plan_cache()
            with tracer.span("layers.compile_pipeline"):
                g = timed("dsl.load_source", load)
                lmap = timed("linear.analyze", linear.analyze, g)
                sel = timed("selection.select_optimizations",
                            selection.select_optimizations, g, lmap,
                            cost_model="batched", stateful=True)
                opt = timed("exec.optimize_stream", rexec.optimize_stream,
                            load(), "auto")
                s = timed("session.compile.cold_plan", repro.compile,
                          load(), optimize="auto")
                for _ in range(3):
                    timed("session.compile.warm", repro.compile, load(),
                          optimize="auto").close()
            stats = rexec.plan_cache_stats()
            rep = s.report()
            s.close()
        for stage in stages:
            seconds[stage] += statistics.median(samples[stage])
        leaves = [x for x in walk(g)
                  if isinstance(x, (Filter, PrimitiveFilter))]
        lin = sum(lmap.is_linear(x) or lmap.is_stateful_linear(x)
                  for x in leaves)
        m["dsl.source_bytes"] += nbytes
        m["dsl.graph_nodes"] += sum(1 for _ in walk(g))
        m["linear.nodes_linear"] += lin
        m["linear.nodes_rejected"] += len(leaves) - lin
        m["selection.decisions"] += len(sel.decisions)
        m["selection.cost"] += sel.cost
        m["exec.optimize.nodes_after"] += sum(1 for _ in walk(opt))
        m["cache.hits"] += stats["hits"]
        m["cache.lookups"] += stats["hits"] + stats["misses"]
        m["exec.plan.islands"] += len(rep.islands)
        kinds.update(st.step_kind for st in rep.steps)
    if w.kind == "compile":
        m["dsl.source_bytes"] = sum(
            os.path.getsize(os.path.join(W.DSL_DIR, f))
            for f in os.listdir(W.DSL_DIR) if f.endswith(".str"))
    steps = sum(kinds.values())
    analyze_s = seconds["linear.analyze"]
    dp_s = seconds["selection.select_optimizations"]
    optimize_s = seconds["exec.optimize_stream"]
    leaves_n = m["linear.nodes_linear"] + m["linear.nodes_rejected"]
    return {
        "dsl.load_ms": ms(seconds["dsl.load_source"]),
        "dsl.source_bytes": m["dsl.source_bytes"],
        "dsl.graph_nodes": m["dsl.graph_nodes"],
        "linear.analyze_ms": ms(analyze_s),
        "linear.nodes_linear": m["linear.nodes_linear"],
        "linear.nodes_rejected": m["linear.nodes_rejected"],
        "linear.extract_ratio": m["linear.nodes_linear"] / leaves_n,
        "selection.dp_ms": ms(dp_s),
        "selection.decisions": m["selection.decisions"],
        "selection.cost": m["selection.cost"],
        "exec.optimize_ms": ms(optimize_s),
        # optimize_stream(auto) redoes analysis and the DP inside: what is
        # left is the rewrite itself
        "exec.optimize.self_ms": ms(max(0.0, optimize_s - analyze_s - dp_s)),
        "exec.optimize.nodes_after": m["exec.optimize.nodes_after"],
        # graph -> session minus the optimize stage: planning, probing
        # and schedule simulation
        "exec.plan_ms": ms(max(
            0.0, seconds["session.compile.cold_plan"] - optimize_s)),
        "exec.plan.steps_total": steps,
        "exec.plan.steps_fallback": kinds["fallback"],
        "exec.plan.steps_matmul": kinds["matmul"],
        "exec.plan.steps_freq": kinds["freq-opt"] + kinds["freq-naive"],
        "exec.plan.steps_stateful": kinds["stateful"],
        "exec.plan.islands": m["exec.plan.islands"],
        "exec.plan.fallback_share": kinds["fallback"] / steps,
        "exec.cache.warm_compile_ms": ms(seconds["session.compile.warm"]),
        # push sessions carry a single-use ChunkSource, which the plan
        # cache never stores: their ratio is 0 by construction today
        "exec.cache.hit_ratio": m["cache.hits"] / m["cache.lookups"],
    }


# ---------------------------------------------------------------------------
# run-time layers
# ---------------------------------------------------------------------------


def session_layers(w, result) -> dict:
    calls = result["call_s"]
    pct, value = W.tail(calls)
    grown = max(0.0, result["rss_mb"] - result["rss_mb_start"])
    return {
        "session.compile_ms": ms(result["compile_s"][0]),
        "session.first_call_ms": ms(result["first_output_s"][0]
                                    - result["compile_s"][0]),
        "session.call_tail_ms": ms(value),
        "session.call_tail_pct": pct,
        "session.call_max_ms": ms(max(calls)),
        "session.calls": len(calls),
        "session.per_call_us": statistics.median(calls) * 1e6,
        # compile_cold keeps no session alive: growth per output is moot
        "session.rss_mb_per_Mout": 0.0 if w.kind == "compile"
        else grown / (result["outputs"] / 1e6),
    }


def open_session(w, **kw):
    return repro.compile(w.source_text(), top=w.top, args=w.args, **kw)


def flops_removed_pct(w, chunks) -> float:
    """100·(1 − auto/none) FLOPs per output on equal work (Fig. 5-1)."""
    per_output = {}
    calls = max(1, min(w.calls // 8, 65536 // w.call))
    for mode in ("auto", "none"):
        s = open_session(w, optimize=mode)
        for i in range(calls):
            if w.kind == "pull":
                s.run(w.call)
            else:
                s.push(chunks[i % len(chunks)])
        per_output[mode] = s.profile.counts.flops / s.outputs_produced
        s.close()
    return 100.0 * (1.0 - per_output["auto"] / per_output["none"])


def runtime_layers(w, chunks, result, tracer) -> dict:
    """Kernel, source and scalar-backend numbers for a session workload."""
    plan_us = (statistics.median(result["call_s"]) * len(result["call_s"])
               / result["outputs"] * 1e6)
    out = {}
    if w.kind == "pull":
        with tracer.span("apps.split_app"):
            source, body = apps.split_app(apps.BENCHMARKS[w.app]())
        t0 = time.perf_counter()
        with tracer.span("apps.source_values"):
            values = np.asarray(apps.source_values(source, BODY_ITEMS))
        source_s = time.perf_counter() - t0
        s = repro.compile(body, optimize="auto")
        s.push(values[:BODY_ITEMS // 8])  # warm-up
        flops0, out0 = s.profile.counts.flops, s.outputs_produced
        t0 = time.perf_counter()
        with tracer.span("session.push.body"):
            s.push(values[BODY_ITEMS // 8:])
        body_s = time.perf_counter() - t0
        flops = s.profile.counts.flops - flops0
        body_us = body_s / (s.outputs_produced - out0) * 1e6
        s.close()
        out["runtime.source_us_per_item"] = source_s / BODY_ITEMS * 1e6
        out["runtime.source_share"] = 1.0 - body_us / plan_us
    else:
        # the session is the body; scale its lifetime FLOPs to the timed calls
        body_s, body_us = sum(result["call_s"]), plan_us
        flops = result["flops"] * result["outputs"] / result["flops_outputs"]
    out["exec.kernels.ns_per_flop"] = body_s * 1e9 / flops
    out["exec.kernels.body_us_per_output"] = body_us

    s = open_session(w, backend="compiled", optimize="none")
    n = COMPILED_ITEMS[w.kind]
    t0 = time.perf_counter()
    with tracer.span("session.compiled_backend"):
        produced = len(s.run(min(n, w.call)) if w.kind == "pull"
                       else s.push(np.resize(chunks, n)))
    out["runtime.compiled_us_per_output"] = \
        (time.perf_counter() - t0) / produced * 1e6
    s.close()
    out["runtime.plan_speedup"] = \
        out["runtime.compiled_us_per_output"] / plan_us
    return out


def parallel_layers(tracer) -> dict:
    """FilterBank pull on one worker and on two: the ROADMAP item 5
    keep-or-delete number.  No workload runs ``workers > 1``."""
    from repro.parallel import pool

    walls, flops = {}, {}
    n = 16384
    for workers in (1, 2):
        s = repro.compile(apps.filterbank.build(), optimize="auto",
                          workers=workers)
        s.run(n // 4)  # warm-up: starts the pool, ships the plan
        before = pool.pool_stats() or {"busy_seconds": 0.0, "tasks": 0}
        t0 = time.perf_counter()
        with tracer.span(f"session.run.workers{workers}"):
            s.run(n)
        walls[workers] = time.perf_counter() - t0
        flops[workers] = s.profile.counts.flops
        after = pool.pool_stats() or before
        s.close()
    pool.shutdown_pool()
    busy = after["busy_seconds"] - before["busy_seconds"]
    return {
        "parallel.w2_speedup": walls[1] / walls[2],
        "parallel.pool_busy_share": busy / (2 * walls[2]),
        "parallel.dispatches": after["tasks"] - before["tasks"],
        "parallel.flops_equal": float(flops[1] == flops[2]),
    }


def calibrate_layers(tracer) -> dict:
    """Time the calibrator, then count the apps whose kernel-class census
    changes between analytic and freshly measured cost constants.  Runs
    last: it installs a calibration in this process."""
    from repro.exec import calibrate

    def census():
        out = {}
        for name, build in apps.BENCHMARKS.items():
            rexec.clear_plan_cache()
            s = repro.compile(build(), optimize="auto")
            out[name] = Counter(st.step_kind for st in s.report().steps)
            s.close()
        return out

    with calibrate.analytic_only():
        analytic = census()
    t0 = time.perf_counter()
    with tracer.span("exec.calibrate.ensure_calibration"):
        calibrate.ensure_calibration(("f64",), force=True)
    measure_s = time.perf_counter() - t0
    measured = census()
    os.remove(calibrate.calibration_path())  # later children stay analytic
    return {
        "exec.calibrate.measure_s": measure_s,
        "exec.calibrate.decisions_flipped":
            sum(analytic[k] != measured[k] for k in analytic),
    }


async def serve_probe(path: str, w, chunk, tracer) -> dict:
    """Wire-side numbers of ``serve_fir``, taken while the server is up."""
    from repro.numeric import DEFAULT_POLICY
    from repro.serve import ServeClient, parse_stats, protocol

    text = w.source_text()
    client = await ServeClient.connect(path=path)
    try:
        pings, opens = [], []
        for _ in range(200):
            t0 = time.perf_counter()
            with tracer.span("serve.ping"):
                await client.ping()
            pings.append(time.perf_counter() - t0)
        for _ in range(5):  # the timed connections parked this program
            t0 = time.perf_counter()
            with tracer.span("serve.open.warm"):
                await client.open(dsl=text, top=w.top, optimize="auto")
            opens.append(time.perf_counter() - t0)
            await client.close_session()
        stats = parse_stats(await client.stats())
    finally:
        await client.close()
    codec = []
    for _ in range(200):
        t0 = time.perf_counter()
        with tracer.span("serve.protocol.codec"):
            protocol.decode_array_tagged(
                protocol.encode_array_tagged(chunk, DEFAULT_POLICY))
        codec.append(time.perf_counter() - t0)
    return {
        "serve.ping_us": statistics.median(pings) * 1e6,
        "serve.codec_us_per_frame": statistics.median(codec) * 1e6,
        "serve.open_ms": ms(statistics.median(opens)),
        "serve.requests": stats.get("serve.requests", 0.0),
        "serve.error_frames": stats.get("serve.errors", 0.0),
        "serve.sessions_compiled": stats.get("serve.sessions.compiled", 0.0),
        "serve.sessions_recycled": stats.get("serve.sessions.recycled", 0.0),
    }


def measure(w: W.Workload, inputs, tracer, result) -> dict:
    """Every per-layer metric this workload's traced child can see."""
    out = compile_layers(w, inputs if w.kind == "compile" else None, tracer)
    out.update(session_layers(w, result))
    if w.kind == "compile":
        out.update(calibrate_layers(tracer))
        return out
    chunks = (inputs.reshape(w.chunks, w.call) if w.kind != "pull"
              else None)
    out["flops_removed_pct"] = flops_removed_pct(w, chunks)
    if w.kind != "serve":
        out.update(runtime_layers(w, chunks, result, tracer))
    else:
        # kernels and the scalar backend are seen through the in-process
        # twin session; the served calls are the wire's numbers
        extras = result.pop("serve")
        inproc = extras.pop("inproc_push_s")
        twin = dict(result, call_s=[inproc] * w.chunks,
                    outputs=result["flops_outputs"])
        out.update(runtime_layers(w, chunks, twin, tracer))
        calls = sorted(result["call_s"])
        out.update(extras)
        out.update({
            "serve.inproc_push_ms": ms(inproc),
            "serve.wire_share": 1.0 - inproc / statistics.median(calls),
            "serve.req_p90_ms": ms(calls[int(len(calls) * 0.90)]),
            "serve.req_p99_ms": ms(calls[int(len(calls) * 0.99)]),
        })
    if w.name == "filterbank_push":
        out.update(parallel_layers(tracer))
    return out
