"""Chaos harness: fault-injected serving must stay bitwise-correct.

:func:`run_chaos` drives N concurrent resumable clients through the
full serving stack while a seeded :class:`~repro.faults.FaultPlan`
injects failures at every site class — kernel raises mid-advance, plan
cache lookups, pool compiles (every ``OPEN`` builds a fresh session),
and the wire (corrupted frames, dropped connections, truncated writes,
latency).  The harness then checks the one property the whole recovery
design exists for:

    **every client-visible output is bitwise-equal to the fault-free
    run** — degradation, retries, and RESUME are invisible except in
    the metrics.

The workload program is a 2-tap DSL smoother chosen because its plan
and compiled backends are bitwise-identical (a single fused expression
per output; no reassociation), so a mid-stream plan→compiled
degradation cannot show up as a least-significant-bit wobble and every
parity failure is a real protocol bug.  The fault-free baseline is
computed with *direct* sessions (no server), so the comparison also
spans the entire wire encoding.

Checks beyond parity, all read from the returned dict:

* **no leaked sessions** — ``leaked``
  (``SessionPool.accounting()["outstanding"]``) must be zero after
  shutdown: every session ever compiled was closed;
* **coverage** — ``missing_classes`` lists the site classes (kernel /
  cache / pool / wire) that never fired, so a green run can't mean
  "the faults never happened";
* **recovery actually ran** — ``degraded`` and ``retries`` are nonzero.

**The seed does not fix the run.**  Each site's RNG is shared by every
client and consumed in task-scheduling order, so which request draws
which roll varies from run to run: at ``(clients, chunks) = (8, 12)``
forty runs of one seed read ``degraded`` 3–5 and ``retries`` 59–67.
A client can therefore draw more consecutive faults than it has
retries: an ``OPEN`` attempt survives the default rates (wire both
ways, ``pool.compile``, ``cache.lookup``) about four times in ten, and
with 8 retries the ungated ``(3, 12)`` gave up in 7 of 22 runs and
``(8, 12)`` in 1 of 20.  The default budget is therefore 16 (the worst
request of 80 runs needed 11), and a client that still exhausts it is
reported as a named entry of ``violations`` — never as a traceback out
of ``asyncio.gather``.  Gate only configurations whose tally over
repeated runs is known; ``tests/test_faults.py`` names them.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import faults
from repro.errors import ProtocolError
from repro.serve import ServeClient, ServeConfig, StreamServer

__all__ = ["CHAOS_DSL", "DEFAULT_RATES", "run_chaos"]

#: The workload: bitwise-identical across all three backends (each
#: output is one fused multiply-add; no sum reassociation), which is
#: what lets the harness demand *bitwise* parity across mid-stream
#: backend degradations.
CHAOS_DSL = """
float->float filter Smooth {
  work push 1 pop 1 peek 2 {
    push(0.75 * peek(0) + 0.25 * peek(1));
    pop();
  }
}
"""

#: Default injection rates: every site class exercised, transport
#: faults at or above the 5% the acceptance bar asks for.
DEFAULT_RATES = {
    "kernel.step": 0.05,
    "cache.lookup": 0.35,
    "pool.compile": 0.25,
    "wire.corrupt": 0.05,
    "wire.drop": 0.05,
    "wire.truncate": 0.03,
    "wire.latency": 0.10,
}


def _client_inputs(index: int, chunks: int, chunk: int) -> list:
    """Client ``index``'s deterministic input chunks."""
    rng = np.random.default_rng(10_000 + index)
    return [rng.standard_normal(chunk) for _ in range(chunks)]


def _baseline(inputs: list) -> list:
    """Fault-free expected outputs, computed on direct sessions."""
    from repro.dsl import compile_source
    from repro.session import StreamSession

    graph = compile_source(CHAOS_DSL)
    session = StreamSession(graph, backend="compiled")
    try:
        return [session.push(c) for c in inputs]
    finally:
        session.close()


async def _chaos_client(index: int, host: str, port: int,
                        inputs: list, retries: int) -> dict:
    """One resumable client pushing its chunks under the fault storm."""
    client = await ServeClient.connect(
        host, port, retries=retries, retry_seed=500 + index,
        backoff=0.02, backoff_cap=0.25)
    outputs = []
    gave_up = None
    try:
        await client.open(dsl=CHAOS_DSL, backend="plan", resumable=True)
        for chunk in inputs:
            outputs.append(await client.push(chunk))
        await client.close_session()
    except ProtocolError as exc:
        gave_up = (f"gave up after {len(outputs)}/{len(inputs)} chunks "
                   f"and {client.retries_used} retries ({exc.code}): {exc}")
    finally:
        await client.close()
    return {"index": index, "outputs": outputs, "gave_up": gave_up,
            "retries": client.retries_used, "resumes": client.resumes}


async def _run(clients: int, chunks: int, chunk: int, seed: int,
               rates: dict, retries: int) -> dict:
    expected = {i: _baseline(_client_inputs(i, chunks, chunk))
                for i in range(clients)}

    config = ServeConfig(resume_ttl=10.0, drain_deadline=5.0,
                         request_timeout=30.0)
    server = StreamServer(config)
    host, port = await server.start()

    plan = faults.FaultPlan(seed=seed, rates=rates)
    faults.install(plan)
    try:
        results = await asyncio.gather(*(
            _chaos_client(i, host, port,
                          _client_inputs(i, chunks, chunk), retries)
            for i in range(clients)))
    finally:
        faults.uninstall()

    snap = server.stats_snapshot()
    await server.aclose()

    violations = []
    for r in results:
        if r["gave_up"]:
            violations.append(f"client {r['index']}: {r['gave_up']}")
            continue
        got = np.concatenate([np.asarray(o) for o in r["outputs"]]) \
            if r["outputs"] else np.empty(0)
        want = np.concatenate(expected[r["index"]]) \
            if expected[r["index"]] else np.empty(0)
        if got.tobytes() != want.tobytes():
            diff = "length mismatch" if len(got) != len(want) else \
                f"maxdiff {np.max(np.abs(got - want)):.3e}"
            violations.append(f"client {r['index']}: {diff}")

    fired_by_class = plan.fired_by_class()
    missing = [cls for cls in ("kernel", "cache", "pool", "wire")
               if fired_by_class.get(cls, 0) == 0]

    return {
        "fired": plan.counts()["fired"],
        "missing_classes": missing,
        "violations": violations,
        "retries": sum(r["retries"] for r in results),
        "resumes": sum(r["resumes"] for r in results),
        "degraded": int(snap.get("serve.requests.degraded", 0)),
        "replayed": int(snap.get("serve.requests.replayed", 0)),
        "leaked": server.pool.accounting()["outstanding"],
    }


def run_chaos(clients: int = 8, chunks: int = 12, chunk: int = 64,
              seed: int = 20260807, rates: dict | None = None,
              retries: int = 16) -> dict:
    """Run the chaos harness; returns the result dict (see module
    docstring for the checks it encodes)."""
    if rates is None:
        rates = DEFAULT_RATES
    return asyncio.run(_run(clients, chunks, chunk, seed, rates, retries))
