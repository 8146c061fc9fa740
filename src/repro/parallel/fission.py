"""Data-parallel fission: replicate linear leaves behind split/join.

A linear filter processes disjoint (or sliding) windows of one stream;
``k``-way fission turns it into a ``SplitJoin`` of ``k`` replicas, each
handling every ``k``-th firing, so the parallel scheduler can run them
on different cores.  Two constructions:

* **Round-robin cloning** — ``peek == pop`` stateless leaves partition
  the input exactly: ``roundrobin(o,...,o)`` deals each firing's window
  to one replica, the clone executes the identical kernel on it, and
  ``roundrobin(u,...,u)`` reassembles outputs in firing order.  No
  redundant work, and the replica arithmetic is literally the fused
  kernel's, so outputs are bitwise identical.

* **State-monoid lift** — lookahead (``peek > pop``) and stateful
  leaves fission through :func:`~repro.linear.expansion.expand_firings`:
  the ``k``-firing block operator expresses firing ``i``'s outputs (its
  column slice) and the full ``k``-step state advance in terms of the
  *block-start* state, so replica ``i`` keeps the complete (tiny) state
  trajectory locally while computing only its own outputs.  Every
  replica duplicates the window (``Duplicate`` splitter) and the state
  advance; the per-output work — the dominant term for peek-heavy
  filters — is split ``k`` ways.  Summation regrouping makes this path
  1e-9-close rather than bitwise.

Both paths preserve **exact FLOP accounting**: each replica carries
``account_counts`` — the *original* per-firing counts — so ``k``
replicas firing ``F/k`` times report precisely what the fused filter
reports for ``F`` firings (the planner honors the override).

Fission is priced against the fused kernel by
:func:`~repro.selection.costs.fission_speedup` (calibrated cost model);
unprofitable leaves are left alone.  Leaves inside a ``FeedbackLoop``
are never fissioned — replicas raise lookahead, which would shrink the
cycle's delay budget.
"""

from __future__ import annotations

from ..graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                             RoundRobin, SplitJoin, Stream)
from ..linear.expansion import expand_firings
from ..linear.filters import LinearFilter
from ..linear.node import LinearNode
from ..selection.costs import fission_speedup

#: Minimum modeled speedup before a leaf is worth replicating.
FISSION_THRESHOLD = 1.2


def fission_stream(stream: Stream, workers: int, policy=None) -> Stream:
    """Replicate profitable linear leaves ``workers`` ways
    (non-destructive; returns ``stream`` itself when nothing fissions).
    """
    if workers <= 1:
        return stream
    return _rewrite(stream, workers, policy)


def _rewrite(s: Stream, k: int, policy) -> Stream:
    if isinstance(s, Pipeline):
        kids = [_rewrite(c, k, policy) for c in s.children]
        if all(a is b for a, b in zip(kids, s.children)):
            return s
        return Pipeline(kids, name=s.name)
    if isinstance(s, SplitJoin):
        # sibling branches already run in parallel: replicas inside a
        # wide splitjoin would oversubscribe the pool, so the budget
        # divides across branches
        inner = k // len(s.children)
        if inner < 2:
            return s
        kids = [_rewrite(c, inner, policy) for c in s.children]
        if all(a is b for a, b in zip(kids, s.children)):
            return s
        return SplitJoin(s.splitter, kids, s.joiner, name=s.name)
    if isinstance(s, FeedbackLoop):
        return s
    fissioned = _fission_leaf(s, k, policy)
    return s if fissioned is None else fissioned


def _candidate(s: Stream):
    """``(node, counts, backend)`` for a fissionable leaf, else None.

    ``counts`` is the exact per-firing accounting the fused form would
    report — the replicas' ``account_counts`` override.
    """
    if isinstance(s, LinearFilter):
        return s.linear_node, s.counts, s.backend
    if isinstance(s, Filter):
        from ..exec.planner import _vectorize_decision
        params, _reason = _vectorize_decision(s)
        if params is None:
            return None
        node, counts = params
        return node, counts, "direct"
    return None


def _fission_leaf(s: Stream, k: int, policy) -> Stream | None:
    cand = _candidate(s)
    if cand is None:
        return None
    node, counts, backend = cand
    o, u = node.pop, node.push
    if o < 1 or u < 1 or node.peek < o:
        return None
    if fission_speedup(node, k, policy=policy) < FISSION_THRESHOLD:
        return None
    name = getattr(s, "name", "filter")
    if not node.state_dim and node.peek == o:
        # round-robin clone path: firings read disjoint windows
        reps = [LinearFilter(node, name=f"{name}.fis{i}", backend=backend)
                for i in range(k)]
        split: Duplicate | RoundRobin = RoundRobin((o,) * k)
    else:
        # state-monoid lift path: replica i is firing i's columns of the
        # k-firing node, over the whole state advance
        ex = expand_firings(node, k)
        reps = []
        for i in range(k):
            cols = slice(ex.push - (i + 1) * u, ex.push - i * u)
            rnode = LinearNode(ex.A[:, cols], ex.b[cols], ex.peek, ex.pop,
                               u, As=ex.As[:, cols], Cx=ex.Cx, Cs=ex.Cs,
                               bs=ex.bs, s0=ex.s0)
            reps.append(LinearFilter(rnode, name=f"{name}.fis{i}",
                                     backend=backend))
        split = Duplicate()
    for rep in reps:
        rep.account_counts = counts
    return SplitJoin(split, reps, RoundRobin((u,) * k),
                     name=f"{name}.fission{k}")
