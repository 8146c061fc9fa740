"""One round of one workload, in a fresh process.

``run.py`` starts this file once per round so every round pays its own
import, compile and warm-up (``setup_s``) and starts from an empty plan
cache and a fresh allocator.  The timed region is the workload's fixed
work only; it excludes import, input loading, the cold compile and one
warm-up call.  The result is one JSON object on the last line of stdout.

With ``--trace 1`` the same work runs under :mod:`trace` spans and the
per-layer measurements of :mod:`layers` are added.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import workloads as W
from trace import Tracer

W.add_src_to_path()

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import apps, dsl  # noqa: E402
from repro import exec as rexec  # noqa: E402

#: extra cold starts after the timed work, so ``compile_s`` and
#: ``first_output_s`` get several samples per round: at least COLD_MIN,
#: then more until COLD_BUDGET_S is spent, at most COLD_MAX
COLD_MIN, COLD_MAX, COLD_BUDGET_S = 3, 8, 0.25


def cold_repeats():
    """Yields once per extra cold start the round should make."""
    t0 = time.perf_counter()
    for i in range(COLD_MAX):
        if i >= COLD_MIN and time.perf_counter() - t0 >= COLD_BUDGET_S:
            return
        yield i


class Tally:
    """Attempted/failed calls; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: FAILED {what}", file=sys.stderr)


def rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process, in MB.  Read from ``VmHWM``, which
    starts afresh at exec; ``ru_maxrss`` would not do, it carries over
    the parent's peak."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Yardstick:
    """A fixed mix of interpreter and NumPy work, timed between the
    measured calls, that tells how fast the machine is *right now*.

    This box slows down and speeds up by 10-40 % in episodes of about ten
    seconds, for every kind of work alike (an interpreter loop, an FFT
    and small array operations stay within 1.5 % of each other while
    each drifts by 7 %).  A round lasts 2-3 s, so it sits inside one
    episode: every time the round measures is multiplied by
    ``drift`` = nominal yardstick time / the round's median yardstick
    time, which takes the episode out.  The yardstick uses nothing from
    ``src/``, so a change to the program cannot move it.
    """

    #: the yardstick's time on this box in its usual state (so ``drift``
    #: is about 1 here and reported times read as plain wall time)
    NOMINAL_S = 7.0e-4
    #: sample again once this much time has passed
    EVERY_S = 0.025

    def __init__(self):
        self.samples: list[float] = []
        self._x = np.random.default_rng(0).standard_normal(4096)
        self._next = 0.0

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        acc = 0.0
        for i in range(6000):
            acc += i * 0.5
        x = self._x
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(x) * 2.0)
        y = x[:256]
        for _ in range(150):
            y = y * 1.0001 + 0.5
        t1 = clock()
        self.samples.append(t1 - t0)
        self._next = t1 + self.EVERY_S

    def maybe(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def burst(self, n: int = 15) -> None:
        for _ in range(n):
            self.sample()

    def drift(self) -> float:
        return self.NOMINAL_S / float(np.median(self.samples))


@dataclass
class Round:
    """Everything one round's runner needs."""

    w: W.Workload
    inputs: np.ndarray
    ref: np.ndarray
    calls: int  # the fixed work: timed calls this round
    spawned: float  # time.time() when the parent started this process
    tracer: Tracer
    tally: Tally = field(default_factory=Tally)
    yard: Yardstick = field(default_factory=Yardstick)

    def ready(self) -> float:
        """Set-up is over: returns ``setup_s`` and takes the first
        yardstick samples, next to the set-up they will normalise."""
        setup_s = time.time() - self.spawned
        self.yard.burst()
        return setup_s


def timed_calls(rd: Round, fn, args, span: str, check) -> list[float]:
    """Call ``fn(arg)`` for each arg, timing each call alone; ``check``
    and the yardstick run between calls, outside the timed region."""
    times = []
    clock = time.perf_counter
    tracer, yard = rd.tracer, rd.yard
    for arg in args:
        yard.maybe()
        out = None
        t0 = clock()
        try:
            if tracer.enabled:
                with tracer.span(span):
                    out = fn(arg)
            else:
                out = fn(arg)
        except Exception:  # a failed call is a result, not a crash
            traceback.print_exc(file=sys.stderr)
        times.append(clock() - t0)
        check(out)
    return times


# ---------------------------------------------------------------------------
# pull and push workloads: one session from DSL text
# ---------------------------------------------------------------------------


class PrefixCheck:
    """Checks each call's output for shape and finiteness, and the
    stream's first outputs against the oracle prefix once enough came."""

    def __init__(self, rd: Round, policy, head):
        self.rd, self.policy = rd, policy
        self.pending = [head]  # None once the prefix has been compared

    def __call__(self, out) -> None:
        w = self.rd.w
        ok = (out is not None and out.ndim == 1
              and bool(np.isfinite(out).all())
              and (w.kind != "pull" or len(out) == w.call))
        if ok and self.pending is not None:
            self.pending.append(out)
            if sum(map(len, self.pending)) >= len(self.rd.ref):
                ok = W.matches(np.concatenate(self.pending), self.rd.ref,
                               self.policy)
                self.pending = None
        self.rd.tally.add(ok, f"{w.name} call")

    def finish(self) -> None:
        if self.pending is not None:
            self.rd.tally.add(False, f"{self.rd.w.name}: never produced "
                              f"the {len(self.rd.ref)}-output oracle prefix")


def cold_start(rd: Round, chunks):
    """DSL text -> ready session -> first outputs, with the source and
    plan caches cleared.  Returns ``(session, compile_s, first_output_s,
    outputs, pushes_used)``."""
    dsl.clear_source_cache()
    rexec.clear_plan_cache()
    w = rd.w
    text = w.source_text()
    t0 = time.perf_counter()
    with rd.tracer.span("session.compile"):
        s = repro.compile(text, top=w.top, args=w.args, optimize="auto")
    t1 = time.perf_counter()
    outs, used = [], 0
    with rd.tracer.span("session.first_call"):
        if w.kind == "pull":
            outs.append(s.run(W.FIRST_OUTPUTS))
        else:
            while sum(map(len, outs)) < W.FIRST_OUTPUTS:
                outs.append(s.push(chunks[used % len(chunks)]))
                used += 1
    t2 = time.perf_counter()
    return s, t1 - t0, t2 - t0, np.concatenate(outs), used


def run_session(rd: Round) -> dict:
    w = rd.w
    chunks = (None if w.kind == "pull"
              else rd.inputs.reshape(w.chunks, w.call))

    def call_args(start: int, n: int) -> list:
        """Arguments of ``n`` calls: output counts, or the input chunks
        from position ``start`` of their cycle."""
        if chunks is None:
            return [w.call] * n
        return [chunks[i % len(chunks)] for i in range(start, start + n)]

    s, compile_s, first_s, head, used = cold_start(rd, chunks)
    check = PrefixCheck(rd, s.policy, head)
    call = s.run if w.kind == "pull" else s.push
    span = "session.run" if w.kind == "pull" else "session.push"
    # warm-up: one call of the timed shape (fills lazy kernels and rings)
    check(call(call_args(used, 1)[0]))
    setup_s = rd.ready()
    rss_start = rss_mb()
    before = s.outputs_produced
    times = timed_calls(rd, call, call_args(used + 1, rd.calls), span, check)
    check.finish()
    result = {
        "setup_s": setup_s, "call_s": times,
        "outputs": s.outputs_produced - before,
        "flops": s.profile.counts.flops,
        "flops_outputs": s.outputs_produced,
        "rss_mb_start": rss_start, "rss_mb": rss_mb(),
        "compile_s": [compile_s], "first_output_s": [first_s],
    }
    s.close()
    for _ in cold_repeats():
        rd.yard.maybe()
        s, compile_s, first_s, head, _ = cold_start(rd, chunks)
        rd.tally.add(W.matches(head, rd.ref, s.policy),
                     f"{w.name} cold start")
        s.close()
        result["compile_s"].append(compile_s)
        result["first_output_s"].append(first_s)
    return result


# ---------------------------------------------------------------------------
# compile_cold: all twelve apps, caches cleared before each
# ---------------------------------------------------------------------------


def cold_app(name: str, tracer: Tracer):
    """Registry app ``name``: DSL text -> graph -> session -> first 64
    outputs, nothing cached.  Returns ``(session, out, t_compile, t_all)``."""
    dsl.clear_source_cache()
    rexec.clear_plan_cache()
    t0 = time.perf_counter()
    with tracer.span("compile_cold.app"):
        with tracer.span("dsl.load"):
            graph = apps.BENCHMARKS[name]()
        with tracer.span("session.compile"):
            s = repro.compile(graph, optimize="auto")
        t1 = time.perf_counter()
        with tracer.span("session.first_call"):
            out = s.run(W.FIRST_OUTPUTS)
    return s, out, t1 - t0, time.perf_counter() - t0


def run_compile(rd: Round) -> dict:
    """A "call" is one pass over the twelve apps; ``compile_s`` and
    ``first_output_s`` are the pass's mean per app.  (Sums over a pass
    repeat far better than a median over twelve different programs.)"""
    names = list(apps.BENCHMARKS)
    s, _, _, _ = cold_app(names[0], Tracer(False))  # warm-up
    s.close()
    result = {"setup_s": rd.ready(), "call_s": [], "compile_s": [],
              "first_output_s": [], "outputs": 0, "flops": 0,
              "flops_outputs": 0, "rss_mb_start": rss_mb()}
    for _ in range(rd.calls):
        compile_s = total_s = 0.0
        for idx in rd.inputs:  # the seed's app order
            name = names[idx]
            rd.yard.maybe()
            try:
                s, out, t_compile, t_all = cold_app(name, rd.tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rd.tally.add(False, f"compile_cold {name}")
                continue
            rd.tally.add(len(out) == W.FIRST_OUTPUTS
                         and W.matches(out, rd.ref[idx], s.policy),
                         f"compile_cold {name}")
            compile_s += t_compile
            total_s += t_all
            result["outputs"] += len(out)
            result["flops"] += s.profile.counts.flops
            result["flops_outputs"] += s.outputs_produced
            s.close()
        result["call_s"].append(total_s)
        result["compile_s"].append(compile_s / len(names))
        result["first_output_s"].append(total_s / len(names))
    result["rss_mb"] = rss_mb()
    return result


# ---------------------------------------------------------------------------
# serve_fir: a server process, closed-loop connections from this process
# ---------------------------------------------------------------------------

SOCKET = "serve.sock"  # relative: unix socket paths are length-limited


class Server:
    """The ``serve_child.py`` process, bound to ``SOCKET`` in the cwd."""

    def __enter__(self):
        self.peak_rss_mb = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(W.HERE, "serve_child.py"), SOCKET],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"serve_child did not start: {line!r}")
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.peak_rss_mb = rss_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


async def serve_round(rd: Round, extras: dict) -> dict:
    from repro.numeric import DEFAULT_POLICY
    from repro.serve import ServeClient

    w, tracer, tally = rd.w, rd.tracer, rd.tally
    text = w.source_text()
    chunks = rd.inputs.reshape(w.chunks, w.call)
    per_conn = rd.calls // W.SERVE_CONNECTIONS

    async def cold_open(tag: str) -> tuple[float, float]:
        """OPEN a program no cache has seen (a comment makes the text,
        and so the server's plan-cache key, new) and push until the first
        outputs arrive.  Returns ``(compile_s, first_output_s)``."""
        client = await ServeClient.connect(path=SOCKET)
        try:
            t0 = time.perf_counter()
            with tracer.span("serve.open"):
                await client.open(dsl=text + f"\n/* {tag} */\n", top=w.top,
                                  optimize="auto")
            t1 = time.perf_counter()
            outs, i = [], 0
            with tracer.span("serve.first_push"):
                while sum(map(len, outs)) < W.FIRST_OUTPUTS:
                    outs.append(await client.push(chunks[i % len(chunks)]))
                    i += 1
            t2 = time.perf_counter()
        finally:
            await client.close()
        tally.add(W.matches(np.concatenate(outs), rd.ref, DEFAULT_POLICY),
                  "serve_fir cold start")
        return t1 - t0, t2 - t0

    async def closed_loop(k: int, client, check, times: list) -> int:
        """One connection: the next PUSH goes out when the reply came."""
        outputs = 0
        for i in range(1, per_conn + 1):
            if k == 0:
                rd.yard.maybe()
            out = None
            t0 = time.perf_counter()
            try:
                if tracer.enabled:
                    with tracer.span("serve.push"):
                        out = await client.push(chunks[i % len(chunks)])
                else:
                    out = await client.push(chunks[i % len(chunks)])
            except Exception:
                traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - t0)
            check(out)
            outputs += len(out) if out is not None else 0
        check.finish()
        return outputs

    result = {"compile_s": [], "first_output_s": []}

    async def cold(tag):
        compile_s, first_s = await cold_open(tag)
        result["compile_s"].append(compile_s)
        result["first_output_s"].append(first_s)

    await cold("cold 0")
    clients, checks, times = [], [], []
    try:
        # every connection is open and warm before any timed PUSH goes out
        for _ in range(W.SERVE_CONNECTIONS):
            client = await ServeClient.connect(path=SOCKET)
            clients.append(client)
            await client.open(dsl=text, top=w.top, optimize="auto")
            checks.append(PrefixCheck(rd, DEFAULT_POLICY, np.zeros(0)))
            checks[-1](await client.push(chunks[0]))
        result.update(setup_s=rd.ready(), rss_mb_start=rss_mb())
        outputs = await asyncio.gather(*[
            closed_loop(k, client, check, times)
            for k, (client, check) in enumerate(zip(clients, checks))])
    finally:
        for client in clients:
            await client.close()
    result.update(call_s=times, outputs=sum(outputs))
    for i in cold_repeats():
        rd.yard.maybe()
        await cold(f"cold {i + 1}")
    if tracer.enabled:
        import layers
        extras.update(
            await layers.serve_probe(SOCKET, w, chunks[0], tracer))
    return result


def run_serve(rd: Round) -> dict:
    w = rd.w
    extras: dict = {}
    with Server() as server:
        result = asyncio.run(serve_round(rd, extras))
    # the server's profile is not reachable from outside: count FLOPs on
    # an in-process session of the same program fed the same chunks
    chunks = rd.inputs.reshape(w.chunks, w.call)
    s = repro.compile(w.source_text(), top=w.top, args=w.args,
                      optimize="auto")
    t0 = time.perf_counter()
    for c in chunks:
        s.push(c)
    extras["inproc_push_s"] = (time.perf_counter() - t0) / len(chunks)
    result.update(flops=s.profile.counts.flops,
                  flops_outputs=s.outputs_produced,
                  rss_mb=rss_mb() + server.peak_rss_mb, serve=extras)
    s.close()
    return result


# ---------------------------------------------------------------------------

RUNNERS = {"pull": run_session, "push": run_session,
           "compile": run_compile, "serve": run_serve}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(W.WORKLOADS))
    p.add_argument("--spawned", type=float, required=True,
                   help="time.time() when the parent started this process")
    p.add_argument("--calls", type=int, required=True,
                   help="timed calls this round (the workload's fixed work)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)

    w = W.WORKLOADS[args.workload]
    rd = Round(w, np.load("inputs.npy"), np.load("reference.npy"),
               args.calls, args.spawned, Tracer(bool(args.trace)))
    result = RUNNERS[w.kind](rd)
    rd.yard.burst()
    result["drift"] = rd.yard.drift()
    if args.trace:
        import layers
        result["layers"] = layers.measure(w, rd.inputs, rd.tracer, result)
        rd.tracer.write(f"trace-{w.name}.json")
    result.update(attempted=rd.tally.attempted, failed=rd.tally.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
