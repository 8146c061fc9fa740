"""Plan compilation: flattened graph + steady schedule -> batched steps.

The scalar executor (:class:`~repro.runtime.executor.FlatGraph`) fires
nodes one item at a time, data-driven.  The plan backend observes that the
firing *sequence* of an acyclic stream graph is fully determined by the
static I/O rates, so it splits execution into two phases:

1. **Rate simulation** — an integer-only transcription of
   ``FlatGraph.advance``'s control flow (source pass, topological drain
   sweep, early stop once the sink holds ``n_outputs``).  No data moves; the
   simulator only tracks channel occupancies and accumulates *pending
   firing counts* per node.  Because it replicates the scalar executor's
   loop structure exactly — including the final pass's early-break
   behavior — every node's total firing count matches the scalar backends,
   which is what makes FLOP accounting bit-identical.  The rates are
   static, so a call's firings are a function of the integer state it
   starts from (occupancies, init phases, source budgets) and of the call
   alone, and every call simulates them afresh over the plan's read-only
   rate tables: a push is the sources firing ``k`` times and one sweep
   (:meth:`PlanExecutor._jump` — a pass is an action on the occupancies
   that composes), and a pull is one walk of the sink's demand back to
   the sources (:meth:`PlanExecutor._demand`), which names the pass that
   reaches the target, one jump over the passes before it and that pass
   run literally — O(nodes) a call, whatever the schedule's period.

2. **Batched execution** — pending counts are flushed in flattening
   (topological) order: each node executes all of its pending firings as
   one batched step (:mod:`repro.exec.kernels`) over ndarray ring buffers.
   For a linear filter this is a single ``(B·mult, peek) @ (peek, push)``
   matrix product covering every firing in the chunk.

Topological full-batch execution is valid because within every simulated
pass producers fire before consumers, so cumulative counts at any pass
boundary are a feasible prefix schedule.  Runs larger than
:data:`DEFAULT_CHUNK_OUTPUTS` flush in chunks to bound buffer memory.

**Feedback loops** execute as *islands*: each outermost ``FeedbackLoop``
flattens into a contiguous node slice (recorded by
:class:`~repro.runtime.executor.FlatGraph`) that the planner collapses
into one :class:`~repro.exec.kernels.FeedbackStep` whose external rates
are measured by an integer *island probe* (:func:`probe_island`) — the
rest of the graph stays acyclic and batches exactly as before.  Inside
the island, members fire data-driven through their ordinary batched
kernels, with lookahead bounded by the loop's delay ring, so a linear
loop body still advances ``delay`` iterations per matmul.

**Sibling branches** execute as one step per stage: the plan is built
over the *quotient* of the flat graph by branch symmetry.  The ``b``
branches of a splitjoin that are the same program with other
coefficients (:func:`_sibling_stages` has the exact
conditions) see the same occupancies in every sweep, so they fire in
lockstep — a product of stream homomorphisms is a homomorphism into the
product of their state monoids — and the planner gives each stage one
rate record, one step and one ``(b, capacity)`` ring instead of ``b`` of
each (Radar: 57 nodes in 12 steps, 45 in 11 under ``auto``).  Every
flat node fires exactly as often as it would on its own, so outputs,
FLOPs and the schedule are those of the unquotiented plan; a splitjoin
that does not match plans node by node (orbits of size 1), and
:func:`plan_report` says on its splitter's row what kept a near miss
apart.

The planner *bails out* to the scalar compiled executor only for graphs
it cannot batch safely: nodes that consume nothing yet have inputs
(unbounded drain), unknown primitive sources whose exhaustion behavior
the rate simulator cannot model, and feedback islands whose external
rates the probe cannot certify (sources or collectors inside the cycle,
no external input/output, or a schedule that never reaches a periodic
regime).  Filters whose fields update *affinely* (IIR) run through the
lifted :class:`~repro.exec.kernels.StatefulLinearStep`, a chain of them
as one step over their pipeline combination; sources (``pop 0``, no
prework) whose state recurs within the build's scratch firings through
the table replay of :class:`~repro.exec.kernels.PeriodicSourceStep`;
stateless non-linear filters and sources with an additive counter
through :class:`~repro.exec.kernels.LaneStep`, and
sources pushing sums of sinusoids of an int counter through one
:class:`~repro.exec.kernels.SinusoidStep` where sibling rows share its
basis or a linear reader folds onto it; the rest — prework, array or
non-additive state — through :class:`~repro.exec.kernels.FallbackStep`.
:func:`plan_report` says which kernel each node got and why not a
faster one, and names each feedback island with its member kernels.

A plan is built whole, once per graph content (:mod:`repro.exec.cache`):
:func:`build_plan` runs the ``optimize=`` rewrite and derives everything
an executor reads into one :class:`~repro.exec.cache.PlanEntry`, step
operators and layout included, and :func:`instantiate`, the one way to
run an entry — compile, cache hit, ``reset``, :func:`plan_report` —
only allocates rings, runners and state.

The executor is **resumable**: simulator state (occupancies, pending
counts, init phases, source budgets) persists across
:meth:`PlanExecutor.advance` calls, and
:meth:`PlanExecutor.drain_available` drives a push session's fed input
to quiescence in one jump — this is what backs ``repro.compile(...)``
sessions.  Either pops what it returns off the
sink (the Collector's output ring, else the graph's output ring).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from ..errors import (CombinationError, InterpError, SchedulingError,
                      StreamGraphError)
from ..graph.identity import shape_digest
from ..graph.scheduler import steady_state
from ..graph.streams import Duplicate, Filter, Stream
from ..ir import nodes as N
from ..ir.interp import Interpreter
from ..ir.pycodegen import LaneCode, LaneReject, emit_lanes, sinusoid_form
from ..linear.extraction import extract_filter
from ..linear.filters import ConstantSourceFilter, LinearFilter
from ..linear.pipeline_comb import combine_pipeline_pair
from ..numeric import DEFAULT_POLICY, NumericPolicy, resolve_policy
from ..profiling import Counts, NullProfiler, Profiler
from ..runtime.builtins import (ChunkSource, Collector, FunctionSource,
                                Identity, ListSource)
from ..runtime.channels import Channel, restored, state_of
from ..runtime.executor import (_NULL_CHANNEL, FeedbackRegion, FlatGraph,
                                make_runner)
from . import kernels as K
from .cache import PLAN_CACHE, PlanEntry
from .optimize import fission_stream, optimize_stream
from .ring import RingBuffer

#: Flush batched work once this many sink outputs are pending (bounds ring
#: memory for very long runs while keeping batches large).  Read at each
#: drive, so a test may patch it to force many flushes.
DEFAULT_CHUNK_OUTPUTS = 1 << 16

_PROBE_INPUT = 0.5  # probe value dodging singularities (log 0, 1/0, ...)


# ---------------------------------------------------------------------------
# Vectorizability of IR filters
# ---------------------------------------------------------------------------


def _probe_firing_counts(filt: Filter) -> Counts | None:
    """FLOP counts of one ``work`` firing, measured with the interpreter.

    Valid as the per-firing cost of *every* firing when the filter has no
    data-dependent control flow (the planner checks before calling):
    mutable fields change *values* across firings, never the op mix.
    Returns None when probing fails.
    """
    fields = state_of(filt.fields)
    profiler = Profiler()
    ch_in = Channel("probe-in")
    ch_in.push_block([_PROBE_INPUT] * filt.peek)
    ch_out = Channel("probe-out")
    try:
        Interpreter(fields, profiler).run(filt.work, ch_in, ch_out)
    except Exception:
        return None
    return profiler.counts.copy()


def _vectorize_decision(filt: Filter):
    """((node, counts), None) when an IR filter can run as a batched
    kernel — its :class:`~repro.linear.node.LinearNode`, for the matmul
    step when it has no state and the lifted stateful step when it has —
    or (None, reason) explaining the fallback."""
    if filt.prework is not None:
        return None, "has prework (first firing differs from steady state)"
    if N.has_data_dependent_control(filt.work.body):
        return None, "data-dependent control flow"
    if filt.pop <= 0 or filt.push <= 0:
        return None, "pops or pushes nothing (no batched window/output)"
    result = extract_filter(filt)
    if not result.is_linear:
        return None, f"not linear: {result.reason or 'unknown'}"
    node = result.node
    if (node.peek, node.pop, node.push) != (filt.peek, filt.pop, filt.push):
        return None, ("extracted node rates disagree with declared "
                      "peek/pop/push")
    counts = _probe_firing_counts(filt)
    if counts is None:
        return None, "FLOP-count probe firing failed"
    return (node, counts), None


def _lane_decision(filt: Filter, memo: dict,
                   varying: frozenset = frozenset()):
    """(:class:`~repro.ir.pycodegen.LaneCode`, None) when ``filt`` has a
    lane form, else (None, reason).  ``memo`` shares one emission — and
    later one compiled function — among filters of one
    :func:`~repro.graph.identity.shape_digest` (Radar's 12 sources):
    emission reads the code and the field types, never a value.
    ``varying`` names the float fields the form is to take one value per
    sibling of."""
    key = shape_digest(filt), varying
    verdict = memo.get(key)
    if verdict is None:
        try:
            verdict = emit_lanes(filt.work, filt.fields, filt.name, varying)
        except LaneReject as exc:
            verdict = str(exc)
        memo[key] = verdict
    if isinstance(verdict, LaneCode):
        return verdict, None
    return None, verdict


# ---------------------------------------------------------------------------
# Feedback islands: external-rate probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IslandRates:
    """Measured external behavior of one feedback island.

    After an optional prologue firing (``init_pop`` externals in,
    ``init_push`` outputs out — covering enqueued-value transients,
    prework, and peek lookahead build-up), every firing consumes ``pop``
    externals and produces ``push`` outputs, returning the cycle's
    internal channel state to the same occupancies.
    """

    pop: int
    push: int
    init_pop: int
    init_push: int

    @property
    def has_init(self) -> bool:
        return (self.init_pop, self.init_push) != (0, 0)


#: Extra periodic units tried when the greedy schedule's cycle is a
#: multiple of the balance-equation steady state.
_PROBE_PERIODS = 4


def probe_island(flat: FlatGraph, region) -> tuple[IslandRates | None, str]:
    """Measure a feedback island's external rates by integer simulation.

    Feeds externals into the island one at a time, greedily draining the
    cycle after each (the occupancy-only transcription of the scalar
    executor's data-driven loop — confluence makes the quiescent state
    schedule-independent), and looks for the periodic regime where
    ``pop`` more externals always yield ``push`` more outputs with
    identical channel occupancies.  Returns ``(rates, "")`` or
    ``(None, reason)`` when the island has no certifiable rate facade.
    """
    nodes = flat.nodes[region.start:region.stop]
    try:
        ss = steady_state(region.stream)
    except (SchedulingError, StreamGraphError) as exc:
        return None, f"cycle is unschedulable: {exc}"
    if ss.pop <= 0:
        return None, ("consumes no external input (self-sustaining "
                      "cycle cannot be paced)")
    if ss.push <= 0:
        return None, "produces no external output"
    for node in nodes:
        if not node.inputs:
            return None, (f"node {node.name} has no inputs: a source "
                          "inside a cycle fires unboundedly")
        if isinstance(node.stream, Collector):
            return None, (f"contains sink {node.name}: per-item "
                          "collection cannot cross the island boundary")

    # channel registry local to the probe (ids, initial occupancies)
    chan_ids: dict[int, int] = {}
    occ: list[int] = []

    def cid(ch):
        key = id(ch)
        idx = chan_ids.get(key)
        if idx is None:
            idx = len(occ)
            chan_ids[key] = idx
            occ.append(len(ch))  # enqueued values pre-fill the back edge
        return idx

    ext_in = cid(nodes[0].inputs[0])  # the loop joiner's external tape
    split_node = next(n for n in nodes
                      if n.kind == "splitter"
                      and n.splitter is region.stream.splitter)
    ext_out = cid(split_node.outputs[0])

    recs = [_record([cid(ch) for ch in node.inputs],
                    [cid(ch) for ch in node.outputs], *_steady_rates(node),
                    _init_rates(node)) for node in nodes]
    fired = [False] * len(recs)

    def drain():
        # occupancy-only mirror of FeedbackStep's drain loop: any change
        # to the init gating or batch sizing there must land here too,
        # or the probe certifies a schedule the step will not execute
        progress = True
        while progress:
            progress = False
            for j, (ins, outs, first) in enumerate(recs):
                if first is not None and not fired[j]:
                    if any(occ[c] < need for c, need, _ in first[0]):
                        continue
                    for c, _, o in first[0]:
                        occ[c] -= o
                    for c, u in first[1]:
                        occ[c] += u
                    fired[j] = progress = True
                n = K.feasible_firings((occ[c] for c, _, _ in ins), ins)
                if n:
                    for c, _, o in ins:
                        occ[c] -= o * n
                    for c, u in outs:
                        occ[c] += u * n
                    fired[j] = progress = True

    def snapshot():
        state = tuple(v for i, v in enumerate(occ) if i != ext_out)
        return state + tuple(f for f, (_, _, first) in zip(fired, recs)
                             if first is not None)

    c_lim = 4 * ss.pop + sum(occ) + sum(need for ins, _, _ in recs
                                        for _, need, _ in ins) + 32
    c_max = c_lim + _PROBE_PERIODS * ss.pop
    drain()
    snaps = [(snapshot(), occ[ext_out])]
    for c in range(1, c_max + 1):
        occ[ext_in] += 1
        drain()
        snaps.append((snapshot(), occ[ext_out]))
        for m in range(1, _PROBE_PERIODS + 1):
            pop = m * ss.pop
            if c < pop:
                break
            state, outs = snaps[c - pop]
            if state == snaps[c][0] and \
                    snaps[c][1] - outs == m * ss.push:
                return IslandRates(pop=pop, push=m * ss.push,
                                   init_pop=c - pop, init_push=outs), ""
    return None, ("schedule never reaches a periodic regime within "
                  f"{c_max} externals (is the delay ring long enough?)")


# ---------------------------------------------------------------------------
# Bailout detection
# ---------------------------------------------------------------------------

_KNOWN_SOURCES = (ListSource, FunctionSource, ConstantSourceFilter,
                  ChunkSource)


def plan_bailout_reason(stream: Stream,
                        flat: FlatGraph | None = None,
                        island_rates: dict | None = None) -> str | None:
    """Why ``stream`` cannot be compiled to a plan (None = plannable).

    Pass a dict as ``island_rates`` to receive each certified feedback
    island's probed :class:`IslandRates` (keyed by region start index),
    as :func:`build_plan` keeps them.
    """
    if flat is None:
        flat = FlatGraph(stream, NullProfiler(), backend="compiled")
    in_island = set()
    for region in flat.feedback_regions:
        in_island.update(range(region.start, region.stop))
    for i, node in enumerate(flat.nodes):
        if node.inputs and sum(_steady_rates(node)[1]) == 0:
            return (f"node {node.name} has inputs but pops nothing: "
                    "batch size is unbounded")
        if not node.inputs and i not in in_island and \
                node.kind == "primitive" and \
                not isinstance(node.stream, _KNOWN_SOURCES):
            return (f"source {node.name}: unknown primitive type "
                    f"{type(node.stream).__name__}, exhaustion behavior "
                    "not statically known")
    for region in flat.feedback_regions:
        rates, reason = probe_island(flat, region)
        if rates is None:
            return f"feedback island {region.stream.name}: {reason}"
        if island_rates is not None:
            island_rates[region.start] = rates
    return None


# ---------------------------------------------------------------------------
# Rate records for the integer simulator
# ---------------------------------------------------------------------------


def _record(in_ids, out_ids, needs, pops, pushes, init=None) -> tuple:
    """A rate record, ``(ins, outs, first)``: ``(ring, need, pop)`` an
    input and ``(ring, push)`` an output of a steady firing, and the
    ``(ins, outs)`` of a first firing that differs (``init``: its
    needs, pops and pushes — prework, a primitive's init rates, an
    island's prologue), else None.  Read-only: whether that first
    firing is still to come is an executor's state."""
    first = None if init is None else (
        tuple(zip(in_ids, init[0], init[1])), tuple(zip(out_ids, init[2])))
    return (tuple(zip(in_ids, needs, pops)), tuple(zip(out_ids, pushes)),
            first)


def _leaf_rates(node, peek: int, pop: int, push: int) -> tuple:
    """(needs, pops, pushes) of a leaf firing at these rates."""
    ins = bool(node.inputs)
    return [peek] * ins, [pop] * ins, [push] * bool(node.outputs)


def _steady_rates(node) -> tuple[list[int], list[int], list[int]]:
    """(needs, pops, pushes) of a steady firing, aligned with channels."""
    if node.kind in ("filter", "primitive"):
        s = node.stream.work if node.kind == "filter" else node.stream
        return _leaf_rates(node, s.peek, s.pop, s.push)
    if node.kind == "splitter":
        if isinstance(node.splitter, Duplicate):
            return [1], [1], [1] * len(node.outputs)
        w = list(node.splitter.weights)
        total = sum(w)
        return [total], [total], w
    # joiner
    w = list(node.joiner.weights)
    return w[:], w[:], [sum(w)]


def _init_rates(node):
    """(needs, pops, pushes) of a first firing that differs, else None."""
    s = node.stream
    if node.kind == "filter" and s.prework is not None:
        pw = s.prework
        return _leaf_rates(node, pw.peek, pw.pop, pw.push)
    if node.kind == "primitive":
        init = (s.init_peek, s.init_pop, s.init_push)
        if init != (None, None, None):
            return _leaf_rates(node, *(
                v if i is None else i
                for i, v in zip(init, (s.peek, s.pop, s.push))))
    return None


# ---------------------------------------------------------------------------
# The build: what a plan is, derived once per cache entry
# ---------------------------------------------------------------------------


def _decide(filt: Filter, source: bool, memo: dict):
    """Kernel decision for an IR filter: linear first, then lanes;
    the reason names both when neither applies.  A source is only
    ever a lane candidate, and only when a counter drives it — one
    without state has period 1, which the table replay serves."""
    if source:
        code, why = _lane_decision(filt, memo)
        if code is not None and code.counters:
            return code, None
        return None, ("not lane-convertible: "
                      + (why or "no counter to vectorise over"))
    params, reason = _vectorize_decision(filt)
    if params is None and filt.prework is None:
        params, why = _lane_decision(filt, memo)
        if params is None:
            reason = f"{reason}; not lane-convertible: {why}"
    return params, reason if params is None else None


def _stacked_kernel(flat: FlatGraph, decisions: dict, index: int):
    """How flat node ``index`` would run, if as one of the two kernels
    that stack along a sibling axis: ``("matmul", linear node,
    per-firing counts, filter name)`` or ``("lanes", code)``; None for
    any other."""
    node = flat.nodes[index]
    s = node.stream
    if node.kind == "filter":
        params = decisions[index]
        if isinstance(params, LaneCode):
            return "lanes", params
        if params is not None and not params[0].state_dim:
            return "matmul", *params, None
    elif isinstance(s, LinearFilter) and not s.linear_node.state_dim:
        return "matmul", s.linear_node, s.counts, s.name
    return None


def _stateful_kernel(flat: FlatGraph, decisions: dict, index: int):
    """``(linear node with state, (per-firing counts, filter name))``
    when flat node ``index`` would run as a stateful step, else None."""
    node = flat.nodes[index]
    s = node.stream
    if node.kind == "filter":
        params = decisions[index]
        if isinstance(params, tuple) and params[0].state_dim:
            return params[0], (params[1], None)
    elif isinstance(s, LinearFilter) and s.linear_node.state_dim:
        return s.linear_node, (s.counts, s.name)
    return None


def _stateful_chains(flat: FlatGraph, decisions: dict) -> list:
    """``(members, node)`` per maximal run of two or more flat nodes,
    outside feedback loops, that would each be a stateful step, each
    the one reader of the channel the one before writes, peeking and
    popping what it pushes: a firing of ``node``, their
    ``combine_pipeline``, is a firing of each, so no firing count
    moves.  A chain stops where combination refuses, where its state
    outgrows the lift's budget at one block a boundary lift (``k >
    128``; on a 2-vCPU Xeon biquad cascades ran 1.9x faster fused at
    128, even at 256), and before the graph-output writer when no
    Collector is the sink: its capped last sweep would cap them all."""
    nodes = flat.nodes
    readers = Counter(id(ch) for n in nodes for ch in n.inputs)
    sink = None if flat.collectors else flat.output_channel
    skip = {j for r in flat.feedback_regions
            for j in range(r.start, r.stop)}
    kernels = [None if j in skip or len(n.inputs) != 1 or
               len(n.outputs) != 1 else _stateful_kernel(flat, decisions, j)
               for j, n in enumerate(nodes)]
    chains: list = []
    for head, first in enumerate(kernels):
        if first is None or chains and head <= chains[-1][0][-1]:
            continue
        members, prev, node = [head], first[0], first[0]
        for j in range(head + 1, len(nodes)):
            ch, nxt = nodes[j - 1].outputs[0], kernels[j]
            if nxt is None or nodes[j].inputs[0] is not ch or \
                    readers[id(ch)] > 1 or nodes[j].outputs[0] is sink \
                    or (nxt[0].peek, nxt[0].pop) != (prev.push,) * 2:
                break
            try:
                fused = combine_pipeline_pair(node, nxt[0])
            except CombinationError:
                break
            if fused.state_dim > math.isqrt(K._STATEFUL_LIFT_ELEMS):
                break
            members.append(j)
            prev, node = nxt[0], fused
        if len(members) > 1:
            chains.append((members, node))
    return chains


def _sibling_stages(flat: FlatGraph, decisions: dict, region, memo: dict):
    """``stages[k][j]``, the flat index of the ``k``-th node of
    ``region``'s ``j``-th branch, when the branches are *siblings*:
    outside any feedback loop, split by ``duplicate`` or equal
    weights and joined by equal weights, each a run of as many leaf
    filters that agree stage by stage — the same stacking kernel
    (:func:`_stacked_kernel`): ``matmul`` at the same rates,
    ``lanes`` of one :func:`~repro.graph.identity.shape_digest` with
    the same state, and nothing but the values of float fields
    apart.  Such branches see the same occupancies in every
    sweep and fire in lockstep, so a stage is one step over a
    ``(b, .)`` ring at no change in any node's firing count.  A
    ``lanes`` stage whose rows differ in float fields is recoded in
    ``decisions`` to take them as columns.

    Otherwise: why not, as the plan report prints it on the
    splitter's row — the empty string for a splitjoin that does not
    look the part to begin with.
    """
    nodes = flat.nodes
    bounds = region.starts + [region.join]
    length = bounds[1] - bounds[0]
    if region.in_feedback or len(region.starts) < 2 or length < 1 or \
            any(hi - lo != length for lo, hi in zip(bounds, bounds[1:])) \
            or any(nodes[i].kind not in ("filter", "primitive")
                   for i in range(bounds[0], region.join)):
        return ""
    split, join = nodes[region.split], nodes[region.join]
    for what, router in (("split", split.splitter),
                         ("join", join.joiner)):
        weights = set(getattr(router, "weights", (1,)))
        if len(weights) > 1:
            return f"not fused: {what} weights differ"
        if 0 in weights:
            return ""
    stages = [[start + k for start in region.starts]
              for k in range(length)]
    feeds = split.outputs  # what each branch's next node reads
    recoded = []  # (stage, lane code taking its differing fields)
    for k, members in enumerate(stages):
        lead = nodes[members[0]]
        kernels = [_stacked_kernel(flat, decisions, m) for m in members]
        kernel = kernels[0]
        if kernel is None:
            return f"not fused: stage {k} has no stacking kernel"
        apart: set[str] = set()  # float fields of differing value
        for j, m in enumerate(members):
            what = _sibling_mismatch(lead, kernel, nodes[m], kernels[j],
                                     feeds[j], k == 0, apart)
            if what:
                return (f"not fused: branch {j} differs at stage {k} "
                        f"({what})")
        if kernel[0] == "lanes" and apart - kernel[1].varying:
            code, why = _lane_decision(lead.stream, memo, frozenset(apart))
            if code is None:
                return (f"not fused: stage {k} differs in "
                        f"{', '.join(sorted(apart))} ({why})")
            recoded.append((members, code))
        feeds = [nodes[m].outputs[0] for m in members]
    for members, code in recoded:
        for m in members:
            decisions[m] = code
    return stages


def _sibling_mismatch(lead, lead_kernel, node, kernel, feed,
                      first: bool, apart: set) -> str | None:
    """What keeps ``node`` from riding in ``lead``'s step, if
    anything; float fields that merely differ in value are added to
    ``apart``."""
    if len(node.outputs) != 1 or len(node.inputs) != len(lead.inputs) \
            or (node.inputs and node.inputs[0] is not feed) \
            or not (node.inputs or first):
        return "wiring"
    if kernel is None or kernel[0] != lead_kernel[0]:
        return "kernel"
    if kernel[0] == "matmul":
        return "rates" if _steady_rates(node) != _steady_rates(lead) \
            else None
    # lanes: one shape (code, rates, field types) is one lane code
    if shape_digest(node.stream) != shape_digest(lead.stream):
        return "work function"
    state = node.stream.mutable_fields | set(kernel[1].counters)
    for name, a in lead.stream.fields.items():
        b = node.stream.fields[name]
        if isinstance(a, np.ndarray):
            same = a.tobytes() == b.tobytes()
        else:  # repr is exact and tells 0.0 from -0.0
            same = repr(a) == repr(b)
        if same:
            continue
        if name in state:
            return f"state {name}"
        if type(a) is not float or type(b) is not float:
            return f"field {name} is not a float"
        apart.add(name)
    return None


def _sinusoid(flat: FlatGraph, decisions: dict, members: list):
    """Counter sources ``members`` (siblings) as one
    :class:`~repro.exec.kernels.SinusoidStep` where that removes work —
    ``b > 1`` rows share its basis, or its reader (linear, popping whole
    firings) folds onto it: ``(forms, folds)``.  Else None, or why they
    have no sinusoid form."""
    nodes = [flat.nodes[m] for m in members]
    code = decisions[members[0]]
    try:
        forms = [sinusoid_form(code, n.stream.work, n.runner.fields)
                 for n in nodes]
        if len({(f.step, f.omegas.tobytes()) for f in forms}) > 1:
            raise LaneReject("frequencies differ across siblings")
    except LaneReject as exc:
        return f"not a sinusoid: {exc}"
    reader = next((i for i, n in enumerate(flat.nodes)
                   if nodes[0].outputs[0] in n.inputs), None)
    kernel = None if reader is None else \
        _stacked_kernel(flat, decisions, reader)
    folds = kernel is not None and kernel[0] == "matmul" \
        and kernel[1].pop % forms[0].coef.shape[1] == 0
    if len(nodes) == 1 and not folds:
        return None
    return forms, folds


def _plan(flat: FlatGraph, fuse: bool) -> dict:
    """The decision fields of a :class:`~repro.exec.cache.PlanEntry`
    over a plannable ``flat``: all but the island rates (the bailout
    check probes them) and the layout (:func:`_layout`)."""
    nodes = flat.nodes
    memo: dict = {}  # lane codes by shape (see _lane_decision)
    # kernel decisions first: which branches are siblings hangs on them
    decisions, reasons = {}, {}
    for i, node in enumerate(nodes):
        if node.kind == "filter":
            decisions[i], reasons[i] = _decide(
                node.stream, not node.inputs and node.stream.prework is None,
                memo)
    siblings = []
    for region in flat.splitjoins if fuse else ():
        stages = _sibling_stages(flat, decisions, region, memo)
        if isinstance(stages, list):
            siblings.append((region.split, region.join, stages))
        else:
            reasons[region.split] = stages
    chains = {members[0]: (members, node)
              for members, node in _stateful_chains(flat, decisions)}
    stage_of = {members[0]: members
                for _, _, stages in siblings for members in stages}
    riders = {m for members in stage_of.values() for m in members[1:]}
    sinusoids = {}
    for i, code in decisions.items():
        if isinstance(code, LaneCode) and not nodes[i].inputs and \
                nodes[i].stream.prework is None and i not in riders:
            form = _sinusoid(flat, decisions, stage_of.get(i, [i]))
            if isinstance(form, str):
                reasons[i] = form
            elif form is not None:
                sinusoids[i] = form
    return dict(decisions=decisions, siblings=siblings, chains=chains,
                sinusoids=sinusoids,
                reasons={i: why for i, why in reasons.items() if why})


def _source_table(filt: Filter, policy: NumericPolicy):
    """Fire source ``filt`` on a scratch runner until the state about to
    fire recurs: ``(table, None)``, its :class:`~repro.exec.kernels.
    PeriodicSourceStep` table, or ``(None, why not)`` once
    :data:`~repro.exec.kernels.SOURCE_RECURRENCE_LIMIT` firings pass
    without (or one raises: the scalar runner raises it in turn)."""
    profiler, tape = Profiler(), Channel("scratch")
    runner = make_runner(filt, profiler)
    fields, names = runner.fields, sorted(filt.mutable_fields)
    seen: dict = {}  # state key -> the firing it preceded
    cum = [Counts()]
    for i in range(K.SOURCE_RECURRENCE_LIMIT):
        # repr is exact for ints and floats and tells 0.0 from -0.0 and
        # 1 from 1.0, which == on the values would not
        key = ",".join([v.tobytes().hex() if isinstance(v, np.ndarray)
                        else repr(v) for v in map(fields.__getitem__, names)])
        first = seen.setdefault(key, i)
        if first != i:
            return (K.shared(tape.state(), policy.dtype), first,
                    i - first, tuple(cum)), None
        try:
            runner.fire(_NULL_CHANNEL, tape)
        except Exception as exc:
            return None, f"firing {i} raises {type(exc).__name__}"
        cum.append(profiler.counts.copy())
    return None, ("state did not recur within "
                  f"{K.SOURCE_RECURRENCE_LIMIT} firings")


def _step_maker(flat: FlatGraph, plan: dict, policy: NumericPolicy,
                members: list, in_ids: list, out_ids: list, basis: dict,
                pos: int):
    """``make(executor, ins, outs)``: the step at outer position ``pos``
    firing flat nodes ``members`` (a node, a sibling stage or a stateful
    chain) over rings ``ins`` and ``outs``, its operator derived here,
    once; runners only for the steps that fire through one.  ``basis``:
    the ring of a folded sinusoid source -> ``(pos, op)``."""
    from ..frequency.filters import (Decimator, NaiveFreqFilter,
                                     OptimizedFreqFilter)

    index = members[0]
    node = flat.nodes[index]
    s = node.stream
    decisions, reasons = plan["decisions"], plan["reasons"]

    def kernel(cls, op):  # a cls(ring in, ring out, op, profiler) step
        return lambda ex, ins, outs: cls(ins[0], outs[0], op, ex.profiler)

    # (the b branches of a fused splitjoin are one ring, one weight)
    if node.kind == "splitter":
        if isinstance(node.splitter, Duplicate):
            return lambda ex, ins, outs: K.DuplicateSplitStep(ins[0], outs)
        weights = list(node.splitter.weights)
        return lambda ex, ins, outs: K.RoundRobinSplitStep(
            ins[0], outs, weights[:len(outs)])
    if node.kind == "joiner":
        weights = list(node.joiner.weights)
        return lambda ex, ins, outs: K.RoundRobinJoinStep(
            ins, outs[0], weights[:len(ins)])
    stacked = [_stacked_kernel(flat, decisions, m) for m in members]
    if stacked[0] is not None and stacked[0][0] == "matmul":
        lines = [k[1] for k in stacked], [k[2:] for k in stacked]
        if in_ids[0] in basis:
            source, op = basis[in_ids[0]]
            reader = K.fold(op, *lines, policy)
            return lambda ex, ins, outs: K.SinusoidStep(
                reader, None, ins[0], outs[0], ex.profiler, ex.steps[source])
        return kernel(K.MatmulStep, K.MatmulStep.operator(*lines, policy))
    # one node or a chain (a stateful node never has siblings)
    chain = [_stateful_kernel(flat, decisions, m) for m in members]
    if chain[0] is not None:
        lifted = plan["chains"][index][1] if len(members) > 1 \
            else chain[0][0]
        return kernel(K.StatefulLinearStep, K.StatefulLinearStep.operator(
            lifted, [k[1] for k in chain], policy))
    if node.kind == "filter":
        code = decisions[index]
        if isinstance(code, LaneCode) and index not in plan["sinusoids"]:
            columns = K.lane_columns(code,
                                     [flat.nodes[m].stream for m in members])
            return lambda ex, ins, outs: K.LaneStep(
                [ex.own_node(m) for m in members], ins[0], outs[0], code,
                columns, policy)
        if isinstance(code, LaneCode):
            forms, folds = plan["sinusoids"][index]
            op = K.SinusoidStep.operator(forms)
            if folds:  # its reader folds it on: it writes nothing
                basis[out_ids[0]] = pos, op
                op = (None, *op[1:])
            return lambda ex, ins, outs: K.SinusoidStep(
                op, [ex.own_node(m) for m in members], None, outs[0],
                ex.profiler)
        if not in_ids and s.prework is None:
            table, why = _source_table(s, policy)
            if table is not None:
                reasons.pop(index, None)  # its detail says what it is
                return kernel(K.PeriodicSourceStep, table)
            # and its reason why its firings are not lanes either
            reasons[index] = "; ".join(filter(None, (why,
                                                     reasons.get(index))))
    elif isinstance(s, NaiveFreqFilter):
        return kernel(K.NaiveFreqStep, K.NaiveFreqStep.operator(s, policy))
    elif isinstance(s, OptimizedFreqFilter):
        return kernel(K.OptimizedFreqStep,
                      K.OptimizedFreqStep.operator(s, policy))
    elif isinstance(s, Collector):
        return lambda ex, ins, outs: K.CollectorStep(
            ins[0], ex.own_node(index).runner)
    elif isinstance(s, ChunkSource):
        return lambda ex, ins, outs: K.ChunkSourceStep(
            outs[0], ex.own_node(index).runner)
    elif isinstance(s, ListSource):
        values = K.shared(s.values, policy.dtype)
        return lambda ex, ins, outs: K.ListSourceStep(outs[0], values)
    elif isinstance(s, FunctionSource):
        return lambda ex, ins, outs: K.FunctionSourceStep(outs[0], s.fn,
                                                          policy)
    elif isinstance(s, ConstantSourceFilter):  # period 1, no FLOPs
        return kernel(K.PeriodicSourceStep, (
            K.shared(s.values, policy.dtype), 0, 1, (Counts(), Counts())))
    elif isinstance(s, Identity):
        return lambda ex, ins, outs: K.IdentityStep(ins[0], outs[0])
    elif isinstance(s, Decimator):
        return lambda ex, ins, outs: K.DecimatorStep(ins[0], outs[0], s.o,
                                                     s.u)
    else:
        reasons[index] = ("no batched kernel for primitive type "
                          + type(s).__name__)
    return lambda ex, ins, outs: K.FallbackStep(ex.own_node(index), ins[0],
                                                outs[0])


@dataclass(frozen=True)
class PlanStep:
    """A position of a plan's outer schedule, or an island member: the
    flat node it fires (a stage's or chain's first) or the island's
    :class:`~repro.runtime.executor.FeedbackRegion`, the flat indices it
    fires, its rate record (:func:`_record`), its maker."""

    entry: object
    orbit: object
    rates: tuple
    make: Callable


def _island_maker(region, rates: IslandRates, members: list) -> Callable:
    """``make`` of a feedback island's step: its ``members``' steps
    behind the island's rate facade; the loop joiner reads the gate."""
    def make(ex, ins, outs):
        steps = []
        for p in members:
            rings = ex.rings_of(p.rates[0])
            steps.append(K.IslandMember(
                p.make(ex, rings, ex.rings_of(p.rates[1])), rings, p.rates))
        return K.FeedbackStep(region.stream.name, ins[0],
                              steps[0].in_rings[0], steps, rates)
    return make


def _layout(flat: FlatGraph, plan: dict, islands: dict,
            policy: NumericPolicy) -> dict:
    """The executor half of a plannable build, as
    :class:`~repro.exec.cache.PlanEntry` fields: the ring table (the
    graph output's first), the outer schedule, the positions of the
    sink and the push feed, and the simulator's tables: ``sweep``, the
    ``(position, ins, outs, first)`` of every step that reads, in
    order, its inputs that pop nothing left out — none if one of them
    is a ring nothing fills, as it never fires; a Collector sink pushes
    one item a firing onto a count past the last ring — and
    ``sources``, the ``(position, outs, first, budget)`` of every step
    that does not, ``budget`` its firings (a ListSource's items, a
    ChunkSource's 0: the feed ring's, read at each call) or None.
    Every distinct channel gets a ring, which starts holding what the
    channel holds (a feedback back edge, the loop's enqueued values).
    The quotients: a fused splitjoin keeps one ring per level (``b``
    channels, ``b`` rows) and one step per stage, a stateful chain is
    one lifted step, each planned at its first node; a feedback island
    is one :class:`~repro.exec.kernels.FeedbackStep` facade."""
    nodes = flat.nodes
    chan_ids: dict[int, int] = {}
    rings: list = []  # (name, rows, prefill)

    def ring_of(ch):
        idx = chan_ids.get(id(ch))
        if idx is None:
            idx = chan_ids[id(ch)] = len(rings)
            rings.append((ch.name, 1, tuple(ch.state()) or None))
        return idx

    ring_of(flat.output_channel)
    ring_of(flat.input_channel)
    stage_of: dict[int, list[int]] = {
        head: members for head, (members, _) in plan["chains"].items()}
    fused_ends: set[int] = set()  # fused splitters and joiners
    for split, join, stages in plan["siblings"]:
        levels = [nodes[split].outputs] + [
            [nodes[m].outputs[0] for m in members] for members in stages]
        for level in levels:
            for ch in level:
                chan_ids[id(ch)] = len(rings)
            rings.append((level[0].name, len(level), None))
        stage_of.update((members[0], members) for members in stages)
        fused_ends.update((split, join))
    riders = {m for members in stage_of.values() for m in members[1:]}
    island_start = {r.start: r for r in flat.feedback_regions}
    basis: dict = {}
    outer: list[PlanStep] = []

    def planned(i) -> PlanStep:
        node = nodes[i]
        # a chain writes its last member's channel (a sibling stage's
        # rows share one ring and one rate)
        members = stage_of.get(i, [i])
        last = nodes[members[-1]]
        in_ids = [ring_of(ch) for ch in node.inputs]
        out_ids = [ring_of(ch) for ch in last.outputs]
        needs, pops, pushes = _steady_rates(node)[:2] + \
            _steady_rates(last)[2:]
        if i in fused_ends:
            # b equal-weight channels are one ring at one rate
            if node.kind == "splitter":
                out_ids, pushes = out_ids[:1], pushes[:1]
            else:
                in_ids, needs, pops = in_ids[:1], needs[:1], pops[:1]
        if i in island_start:
            # the loop joiner reads externals through a private gate
            # ring so the island cannot outrun its simulated schedule
            in_ids = [len(rings)] + in_ids[1:]
            rings.append((f"{node.name}.gate", 1, None))
        rates = _record(in_ids, out_ids, needs, pops, pushes,
                        _init_rates(node))
        return PlanStep(node, members, rates, _step_maker(
            flat, plan, policy, members, in_ids, out_ids, basis, len(outer)))

    i = 0
    while i < len(nodes):
        region = island_start.get(i)
        if region is None:
            if i not in riders:
                outer.append(planned(i))
            i += 1
            continue
        rates = islands[region.start]
        members = [planned(j) for j in range(region.start, region.stop)]
        split_node = next(
            n for n in nodes[region.start:region.stop]
            if n.kind == "splitter" and n.splitter is region.stream.splitter)
        facade = _record([ring_of(nodes[region.start].inputs[0])],
                         [ring_of(split_node.outputs[0])], [rates.pop],
                         [rates.pop], [rates.push],
                         ([rates.init_pop], [rates.init_pop],
                          [rates.init_push]) if rates.has_init else None)
        outer.append(PlanStep(region, range(region.start, region.stop),
                              facade, _island_maker(region, rates, members)))
        i = region.stop
    # the sink an executor watches: the first Collector, else the
    # (last) writer of the graph output ring
    sink = max((k for k, p in enumerate(outer)
                if any(r == 0 for r, _ in p.rates[1])), default=None)
    if flat.collectors:
        sink = next(k for k, p in enumerate(outer)
                    if p.entry is flat.collectors[0])
    feed = next((k for k, p in enumerate(outer)
                 if isinstance(p.entry.stream, ChunkSource)), None)
    sweep, sources = [], []
    fed = {r for r, ring in enumerate(rings) if ring[2]}  # rings written
    for k, p in enumerate(outer):
        ins, outs, first = p.rates
        if ins:
            ins = tuple(i for i in ins if i[2])
            if any(r not in fed for r, _, _ in ins):
                continue  # (it never fires)
            if k == sink and flat.collectors:  # (see PlanExecutor._out)
                outs = ((len(rings), 1),)
            fed.update(r for r, _ in outs)
            sweep.append((k, ins, outs, first))
            continue
        fed.update(r for r, _ in outs)
        s = p.entry.stream
        budget = len(s.values) if isinstance(s, ListSource) else \
            0 if isinstance(s, ChunkSource) else None
        sources.append((k, outs, first, budget))
    return dict(rings=rings, outer=outer, sink=sink, feed=feed,
                sweep=tuple(sweep), sources=tuple(sources))


# ---------------------------------------------------------------------------
# The plan executor
# ---------------------------------------------------------------------------


def _supplying(owed: list, outs: tuple, first: tuple | None) -> int:
    """The firings of a step with outputs ``outs`` that add the items
    ``owed`` asks of each, the first at ``first``'s rates if given (a
    step that pushes nothing where items are owed adds what it can)."""
    f = 0
    for j, (r, u) in enumerate(outs):
        rest = owed[r]
        if rest > 0:
            k = 0
            if first is not None:
                rest -= first[1][j][1]
                k = 1
            if rest > 0 and u:
                k += -(-rest // u)  # ceil
            if k > f:
                f = k
    return f


class PlanExecutor:
    """Executes a flattened acyclic graph in batched steady-state chunks.

    Mirrors :class:`FlatGraph`'s ``advance``/``drain_available``
    interface and observable behavior (outputs, FLOP counts, deadlock
    errors); only the execution strategy differs.
    """

    #: Whether :func:`build_plan` plans a serial executor over the
    #: quotient of the flat graph by sibling symmetry
    #: (:func:`_sibling_stages`).
    fuse_siblings = True

    def __init__(self, plan: PlanEntry, profiler: Profiler | None = None):
        #: the build this executor instantiates (:func:`build_plan`),
        #: shared with every other executor of its cache entry
        self.plan = plan
        #: the plan's flattened graph: topology (its runners never fire)
        self.flat = plan.flat
        self.profiler = NullProfiler() if profiler is None else profiler
        #: numeric policy: rings are allocated and kernels compute in this
        #: dtype (float64 default — the seed behavior, bit for bit)
        self.policy = plan.policy
        self.rings: list[RingBuffer] = [
            self._new_ring(name, prefill, rows)
            for name, rows, prefill in plan.rings]
        #: per outer position: the flat node (of a sibling stage, the
        #: first branch's) or the FeedbackRegion, and the flat indices
        #: its step fires
        self.outer_entries = [p.entry for p in plan.outer]
        self.orbits = [p.orbit for p in plan.outer]
        self.steps: list[K.Step] = []
        for p in plan.outer:  # (a folded reader reads its source's step)
            self.steps.append(p.make(self, self.rings_of(p.rates[0]),
                                     self.rings_of(p.rates[1])))
        # the sink the executor watches: the Collector's runner, else
        # the graph output ring (None)
        self._sink_index = plan.sink
        sink = None if plan.sink is None else self.steps[plan.sink]
        self._sink = sink.sink if isinstance(sink, K.CollectorStep) else None
        # where the simulator counts outputs, and what a sink firing adds
        # there: a Collector's firings on a slot past the last ring, else
        # the items the sink pushes onto ring 0
        self._out, self._gain = len(self.rings), 1
        if self._sink is None:
            self._out, self._gain = 0, 0 if plan.sink is None else \
                dict(plan.outer[plan.sink].rates[1]).get(0, 0)
        #: the push harness's feed (see :attr:`FlatGraph.feed`)
        self.feed = None if plan.feed is None else self.steps[plan.feed].feed
        # the simulator's state: occupancies (pre-filled rings start
        # occupied), firings pending, the steps whose first firing is
        # still to come, the firings left to finite sources
        self._occ = [len(r) for r in self.rings] + [0]
        self._pending = [0] * len(self.steps)
        self._unfired = {k for k, p in enumerate(plan.outer)
                         if p.rates[2] is not None}
        self._left = {k: b for k, _, _, b in plan.sources if b is not None}
        self._passes = 0  # lifetime passes, however they were advanced
        #: how many jumps advanced them / how many ran one by one
        self.jumps = 0
        self.passes_literal = 0
        # resumable-session cursors (see advance/drain_available)
        self._returned = 0  # outputs handed out to the caller
        self._out_popped = 0  # items popped off the graph output ring
        if plan.layout is None:  # ring names and rows, step kinds
            plan.layout = (tuple(r[:2] for r in plan.rings),
                           tuple(type(s).__name__ for s in self.steps))
        #: what a state fits, derived once per plan entry
        self.layout = plan.layout

    # -- construction hooks -------------------------------------------------
    def _new_ring(self, name: str, prefill=None, rows: int = 1) -> RingBuffer:
        """Channel-storage hook: the parallel executor overrides this to
        allocate shared-memory rings workers can attach to."""
        return RingBuffer(name, prefill=prefill, dtype=self.policy.dtype,
                          rows=rows)

    def rings_of(self, ios: tuple) -> list:
        """The rings of a rate record's ``ins`` or ``outs``; a void tape
        for none."""
        return [self.rings[io[0]] for io in ios] or [_NULL_CHANNEL]

    def own_node(self, i: int):
        """Flat node ``i`` with a runner of this executor's own."""
        node = self.flat.nodes[i]
        return replace(node, runner=make_runner(node.stream, self.profiler,
                                                dtype=self.policy.dtype))

    def close(self) -> None:
        """Release execution resources (no-op for the serial executor;
        the parallel subclass detaches/unlinks shared memory here)."""

    # -- integer rate simulation ------------------------------------------
    def _produced(self) -> int:
        """Total sink outputs since construction (including ones already
        taken by the caller — the out ring's pops are tracked so the
        count stays cumulative across session advances)."""
        return self._out_popped + self._occ[self._out]

    def buffers(self) -> tuple[int, int]:
        """Items of storage behind the feed ring and behind the sink."""
        sink = self._sink or self.rings[0]
        return (self.feed.buffer.capacity if self.feed else 0,
                sink.capacity)

    def _sweep(self, target) -> None:
        """One drain sweep, transcribing :meth:`FlatGraph._drain`.

        Nodes drain fully in flattening (topological) order.  Once the
        sink reaches ``target`` the scalar executor's loop fires each
        remaining fireable node exactly once before stopping; we replicate
        that to keep firing counts — and therefore FLOP counts —
        identical.
        """
        occ, pending, unfired = self._occ, self._pending, self._unfired
        sink, gain = self._sink_index, self._gain
        hit = self._produced() >= target
        for pos, ins, outs, first in self.plan.sweep:
            if first is not None and pos in unfired:
                if any(occ[r] < need for r, need, _ in first[0]):
                    continue
                for r, _, o in first[0]:
                    occ[r] -= o
                for r, u in first[1]:
                    occ[r] += u
                pending[pos] += 1
                unfired.discard(pos)
                if pos == sink and not hit and self._produced() >= target:
                    hit = True
                    continue
                if hit:
                    continue
            if len(ins) == 1:  # (most steps)
                (r, need, o), = ins
                n = (occ[r] - need) // o
            else:
                r = None
                n = min([(occ[r] - need) // o for r, need, o in ins])
            if n < 0:  # (``n + 1`` firings fit)
                continue
            if hit:
                n = 1
            else:
                n += 1
                if pos == sink and gain:
                    # (the deficit's ceil)
                    cap = -((self._produced() - target) // gain)
                    if n >= cap:
                        n, hit = cap, True
            if r is None:
                for r, _, o in ins:
                    occ[r] -= o * n
            else:
                occ[r] -= o * n
            for r, u in outs:
                occ[r] += u * n
            pending[pos] += n

    def _fire_sources(self, k: int) -> bool:
        """The source half of ``k`` passes: every source fires ``k``
        times, a finite one until it runs dry."""
        occ, pending, unfired, left = (self._occ, self._pending,
                                       self._unfired, self._left)
        progress = False
        for pos, outs, first, _ in self.plan.sources:
            n = k
            if pos in left:
                n = min(k, left[pos])
                if n > 0:
                    left[pos] -= n
            if n <= 0:
                continue
            if first is not None and pos in unfired:
                unfired.discard(pos)
                for r, u in first[1]:
                    occ[r] += u
                pending[pos] += 1
                n -= 1
            for r, u in outs:
                occ[r] += u * n
            pending[pos] += n
            progress = True
        return progress

    def _jump(self, k: int) -> None:
        """Advance ``k`` full passes at once.

        A pass in which the sink stays short of its target drains every
        consumer, and an acyclic static-rate graph is determinate: the
        quiescent occupancies depend on how often each source has fired,
        not on how the firings were grouped into passes.  So ``k`` such
        passes are the sources firing ``k`` times and one uncapped sweep.
        """
        self._fire_sources(k)
        self._sweep(math.inf)
        self._passes += k
        self.jumps += 1

    def integers(self) -> tuple:
        """The integer half of the state: occupancies, the steps whose
        first firing is to come, finite sources' budgets, firings
        pending, and the sink, pass and output counters."""
        return (tuple(self._occ), tuple(sorted(self._unfired)),
                tuple(self._left.values()), tuple(self._pending),
                (self._passes, self.jumps, self.passes_literal,
                 self._returned, self._out_popped))

    def set_integers(self, ints: tuple) -> None:
        occ, unfired, left, self._pending[:], counters = ints
        self._occ[:] = occ
        self._unfired = set(unfired)
        self._left = dict(zip(self._left, left))
        (self._passes, self.jumps, self.passes_literal, self._returned,
         self._out_popped) = counters

    def state(self) -> tuple:
        """``(integer half, float half)``: :meth:`integers`; every
        ring's items and every step's state, copied."""
        return self.integers(), state_of([self.rings, self.steps])

    def set_state(self, state: tuple) -> None:
        """Take up a :meth:`state` of an executor of this layout."""
        self.set_integers(state[0])
        restored([self.rings, self.steps], state[1])

    def _passes_left(self):
        """Passes until every source has run dry (inf: one never does)."""
        if len(self._left) < len(self.plan.sources):
            return math.inf
        return max(self._left.values(), default=0)

    def _demand(self, goal: int) -> int:
        """The first pass at which the sink reaches ``goal`` total
        outputs — 0 when the leftovers of the last call do — by walking
        its demand backwards: a node's ``f`` next firings need ``need +
        (f - 1) * pop`` items on each input, the channel's producer
        fires ``ceil(owed / push)`` times to supply what the channel
        does not hold, and a source fires once a pass.  A pending first
        firing is the first of the ``f``, at its own rates.  Exact: a
        jump :meth:`_drive` sizes by it must stop short of ``goal``.
        """
        occ, unfired = self._occ, self._unfired
        owed = [0] * len(occ)  # items each channel's producer must add
        owed[self._out] = goal - self._produced()
        for pos, ins, outs, first in reversed(self.plan.sweep):
            if first is not None and pos in unfired:
                f = _supplying(owed, outs, first)
                if not f:
                    continue
                steady = f - 1
                for (r, need, o), (_, need0, o0) in zip(ins, first[0]):
                    items = need + (steady - 1) * o if steady else 0
                    owed[r] = max(need0, o0 + items) - occ[r]
                continue
            if len(outs) == 1:  # (most steps)
                (r, u), = outs
                f = -(-owed[r] // u) if u else 0  # ceil
            else:
                f = max([-(-owed[r] // u) if u else 0 for r, u in outs],
                        default=0)
            if f <= 0:
                continue
            if len(ins) == 1:
                (r, need, o), = ins
                owed[r] = need + (f - 1) * o - occ[r]
            else:
                for r, need, o in ins:
                    owed[r] = need + (f - 1) * o - occ[r]
        passes = 0  # a source fires once a pass
        for pos, outs, first, _ in self.plan.sources:
            f = _supplying(owed, outs, first if pos in unfired else None)
            if f > passes:
                passes = f
        return passes

    # -- batched flush -----------------------------------------------------
    def _flush(self) -> None:
        pending = self._pending
        for i, step in enumerate(self.steps):
            n = pending[i]
            if n:
                step.execute(n)
                pending[i] = 0

    # -- the drive -----------------------------------------------------------
    def _refresh_feed(self) -> None:
        """The feed's budget: what sessions fed its ring between calls."""
        if self.feed is not None:
            self._left[self.plan.feed] = len(self.feed.buffer)

    def _drive(self, target: int, max_passes: int) -> None:
        """Simulate + flush until the sink holds ``target`` total outputs.

        Drain-first transcription of :meth:`FlatGraph._drive`: leftover
        occupancy from a previous advance is swept before any source
        fires, which is what keeps incremental firing counts identical
        to a single cold run of the same total.  Only the pass in which
        the sink reaches ``target`` stops early, so only that one runs
        literally: per :data:`DEFAULT_CHUNK_OUTPUTS` outputs, one
        :meth:`_demand` walk names it, the passes before it are one
        :meth:`_jump` (whose sweep drains the leftovers too), and a
        jump that reaches the goal is a :class:`SchedulingError`.
        ``max_passes`` bounds the passes of this call, jumped or literal.
        """
        self._refresh_feed()
        pending, sink = self._pending, self._sink_index
        passes, leftovers = 0, True
        while self._produced() < target:
            goal = min(target, self._produced() + DEFAULT_CHUNK_OUTPUTS)
            k = min(self._demand(goal) - 1, self._passes_left(),
                    max_passes - passes)
            if k > 0:
                self._jump(k)
                if self._produced() >= goal:
                    raise SchedulingError(
                        f"a jump of {k} passes reached {goal} outputs: "
                        "the demand walk overshot")
                passes += k
            elif leftovers:
                self._sweep(target)
                if k < 0:  # the leftovers reach the goal
                    leftovers = False
                    continue
            leftovers = False
            passes += 1
            if passes > max_passes:
                raise InterpError("executor pass limit exceeded")
            self._passes += 1
            self.passes_literal += 1
            progress = self._fire_sources(1)
            self._sweep(target)
            if sink is not None and pending[sink] >= DEFAULT_CHUNK_OUTPUTS:
                self._flush()
            if not progress and self._produced() < target:
                self._flush()
                raise InterpError(
                    f"deadlock: no source progress, "
                    f"{self._produced()}/{target} outputs")
        self._flush()

    def _take(self, n: int) -> np.ndarray:
        """Pop the next ``n`` already-produced outputs off the sink."""
        if self._sink is not None:
            out = self._sink.take(n)
        else:
            out = self.rings[0].pop_block_array(n)
            self._occ[0] -= n
            self._out_popped += n
        self._returned += n
        return out

    # -- public API ---------------------------------------------------------
    def advance(self, n: int, max_passes: int = 10_000_000) -> np.ndarray:
        """Produce and return the *next* ``n`` outputs (resumable).

        Consecutive calls continue the stream: ring occupancy, stateful
        carries, feedback-island phases, and source positions persist,
        and total firing counts after ``advance(k1); advance(k2)`` equal
        one cold run of ``k1 + k2`` outputs.
        """
        self._drive(self._returned + n, max_passes)
        return self._take(n)

    def drain_available(self, max_passes: int = 10_000_000) -> np.ndarray:
        """Greedily fire everything the fed input admits; return the new
        outputs.  Used by ``StreamSession.push``: no output target, so
        no pass stops early and the whole drain is one jump — as many
        passes as the finite sources have items left."""
        self._refresh_feed()
        k = self._passes_left()
        if k > max_passes:
            raise InterpError("executor pass limit exceeded")
        self._jump(k)
        self._flush()
        return self._take(self._produced() - self._returned)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_plan(stream: Stream, optimize: str = "none",
               policy: NumericPolicy = DEFAULT_POLICY,
               workers: int = 1) -> PlanEntry:
    """Plan ``stream`` whole, into one :class:`~repro.exec.cache.PlanEntry`.

    The rewritten graph (``workers > 1`` adds
    :func:`~repro.exec.optimize.fission_stream`) is flattened once and
    checked for a bailout, which probes the feedback islands; a
    plannable one then gets its kernel decisions, sibling stages,
    stateful chains and sinusoid forms, and its ring layout and outer
    schedule with every step's operator (:func:`_layout`)."""
    optimized = fission_stream(optimize_stream(stream, optimize,
                                               policy=policy),
                               workers, policy=policy)
    flat = FlatGraph(optimized, dtype=policy.dtype)
    islands: dict = {}
    bailout = plan_bailout_reason(optimized, flat, island_rates=islands)
    if bailout:
        plan = dict(decisions={}, siblings=[], chains={}, sinusoids={},
                    reasons={}, rings=[], outer=[], sink=None, feed=None,
                    sweep=(), sources=())
    else:
        # (the parallel executor's shared-memory rings have one row)
        plan = _plan(flat, workers == 1 and PlanExecutor.fuse_siblings)
        plan.update(_layout(flat, plan, islands, policy))
    return PlanEntry(pin=stream, optimized=optimized, bailout=bailout,
                     policy=policy, workers=workers, flat=flat,
                     islands=islands, **plan)


def instantiate(entry: PlanEntry, profiler: Profiler | None = None):
    """A fresh executor of ``entry``'s plan, profiling into ``profiler``:
    the scalar :class:`FlatGraph` on a bailout, else a
    :class:`PlanExecutor` (the parallel one when ``entry.workers > 1``),
    which allocates state and derives nothing."""
    if entry.bailout is not None:
        return FlatGraph(entry.optimized, profiler, dtype=entry.policy.dtype)
    if entry.workers > 1:
        from ..parallel.executor import ParallelPlanExecutor
        return ParallelPlanExecutor(entry, profiler)
    return PlanExecutor(entry, profiler)


def compiled_plan_for(stream: Stream, profiler: Profiler | None = None,
                      optimize: str = "none", cache=None, dtype=None,
                      workers: int = 1):
    """Compile ``stream``; return ``(executor, entry)``.

    ``entry`` is :func:`build_plan`'s, from ``cache`` (default: the
    process-wide :data:`~repro.exec.cache.PLAN_CACHE`) keyed by the
    graph's content, or private with ``cache=False`` (as the cache's
    is for a single-use graph); ``executor`` is
    :func:`instantiate`'s.

    ``executor`` is the scalar compiled :class:`FlatGraph` (same
    ``advance`` interface) when the graph cannot be batched — see
    :func:`plan_bailout_reason`; the verdict is on ``entry.bailout``.

    ``workers > 1`` compiles for the parallel engine: the optimized
    graph additionally passes the fission rewrite
    (:func:`~repro.exec.optimize.fission_stream`), the executor is a
    :class:`~repro.parallel.executor.ParallelPlanExecutor` scheduling
    step chains onto a worker pool, and the plan cache keys on the
    worker count.
    """
    policy = resolve_policy(dtype)
    build = partial(build_plan, stream, optimize, policy, workers)
    if cache is False:
        entry = build()
    else:
        entry = (PLAN_CACHE if cache is None else cache).entry_for(
            stream, optimize, build, policy=policy, workers=workers)
    return instantiate(entry, profiler), entry


# ---------------------------------------------------------------------------
# Plan introspection
# ---------------------------------------------------------------------------


@dataclass
class StepReport:
    """How one flattened node is realized inside a plan; its census
    :attr:`key` is ``step_kind`` and ``tags``."""

    index: int
    name: str
    node_kind: str  # 'filter' | 'primitive' | 'splitter' | 'joiner'
    step_kind: str  # Step.kind of the chosen kernel
    #: why the node runs through FallbackStep; for a periodic source,
    #: its transient length and period; for lanes, what was converted;
    #: for the splitter of look-alike branches, why they run apart
    reason: str | None
    #: sibling nodes the step fires at once (``name`` is the first's)
    width: int = 1
    #: the kernel's own :attr:`~repro.exec.kernels.Step.tags`, then
    #: ``fused`` (``width > 1``) or ``chained`` (a stateful chain's lift)
    tags: tuple = ()

    @property
    def label(self) -> str:
        return self.name if self.width == 1 else f"{self.name} ×{self.width}"

    @property
    def key(self) -> str:
        """The row's census key: ``kind`` or ``kind[tag,…]``."""
        return self.step_kind + (f"[{','.join(self.tags)}]" * bool(self.tags))


@dataclass
class IslandReport:
    """One feedback island: its rate facade and member kernels."""

    name: str
    delay: int
    rates: IslandRates
    steps: list[StepReport] = field(default_factory=list)
    #: island firings so far and the drain rounds they took (both 0 for
    #: a plan that has not run).  Every round is one Python-level call
    #: of each member kernel, and the enqueued delay caps how many
    #: firings a round advances: at ``rounds >= firings`` the loop
    #: iterates per sample, whatever kernels its members got
    firings: int = 0
    rounds: int = 0

    @property
    def per_sample(self) -> bool:
        return self.rounds >= self.firings > 0

    def __str__(self) -> str:
        head = (f"feedback island {self.name}: delay={self.delay}, "
                f"pop/push per firing={self.rates.pop}/{self.rates.push}")
        if self.rates.has_init:
            head += (f", prologue={self.rates.init_pop}"
                     f"/{self.rates.init_push}")
        lines = [head]
        for s in self.steps:
            lines.append(f"  {s.name.ljust(24)}{s.step_kind.ljust(12)}"
                         + (s.reason or ""))
        return "\n".join(lines)


@dataclass
class PlanReport:
    """Which kernels a plan chose, and why nodes fell back to scalar.

    Render with ``str(report)`` or read :attr:`steps` /
    :attr:`fallbacks` / :attr:`islands`; a feedback island is one
    ``feedback`` row plus a section listing its member kernels.
    :meth:`census` is which kernels the plan reached, as data.
    """

    program: str
    optimize: str
    bailout: str | None
    steps: list[StepReport] = field(default_factory=list)
    islands: list[IslandReport] = field(default_factory=list)
    nodes: int = 0  # flattened nodes behind ``steps``
    #: schedule simulation so far (all 0 for a plan that has not run):
    #: passes advanced in total, the jumps that advanced them, and the
    #: passes simulated one by one (the last of each drive)
    passes: int = 0
    jumps: int = 0
    passes_literal: int = 0
    #: a live session's :attr:`~repro.session.StreamSession.buffers`
    buffers: tuple | None = None

    @property
    def members(self) -> list[StepReport]:
        return [s for isl in self.islands for s in isl.steps]

    @property
    def fallbacks(self) -> list[StepReport]:
        """The scalar rows, an island's members included."""
        return [s for s in self.steps + self.members
                if s.step_kind == "fallback"]

    def census(self) -> Counter:
        """Rows by :attr:`StepReport.key`, a member's as ``island:<key>``."""
        return Counter([s.key for s in self.steps]
                       + ["island:" + s.key for s in self.members])

    def __str__(self) -> str:
        title = f"plan report: {self.program} (optimize={self.optimize})"
        lines = [title, "=" * len(title)]
        held = ([] if self.buffers is None else
                ["buffers: in {} / out {}".format(*self.buffers)])
        if self.bailout is not None:
            lines.append(f"whole-graph bailout to compiled: {self.bailout}")
            return "\n".join(lines + held)
        name_w = max([len(s.label) for s in self.steps] + [4]) + 2
        kind_w = max([len(s.step_kind) for s in self.steps] + [10]) + 2
        lines.append("node".ljust(name_w) + "step".ljust(kind_w)
                     + "detail")
        lines.append("-" * (name_w + kind_w + 15))
        for s in self.steps:
            lines.append(s.label.ljust(name_w) + s.step_kind.ljust(kind_w)
                         + (s.reason or ""))
        n_fb = sum(s.width for s in self.fallbacks)
        summary = (f"{self.nodes} nodes in {len(self.steps)} steps, "
                   f"{n_fb} fall back")
        slow = sum(isl.per_sample for isl in self.islands)
        if slow:
            summary += (f", {slow} "
                        + ("island iterates" if slow == 1
                           else "islands iterate") + " per sample")
        lines.append(summary)
        lines.append(f"schedule: {self.passes} passes, "
                     f"{self.jumps} jumps, "
                     f"{self.passes_literal} literal passes")
        lines += held
        for isl in self.islands:
            lines.append(str(isl))
        return "\n".join(lines)


def report_for_executor(executor: PlanExecutor, program: str,
                        optimize: str = "none") -> PlanReport:
    """Build a :class:`PlanReport` from an already-compiled executor.

    Used by ``StreamSession.report()`` so reporting on a live session
    re-probes nothing; :func:`plan_report` builds a throwaway executor
    and routes through here.
    """
    flat = executor.flat
    rep = PlanReport(program=program, optimize=optimize, bailout=None,
                     nodes=len(flat.nodes),
                     passes=executor._passes, jumps=executor.jumps,
                     passes_literal=executor.passes_literal)
    for pos, (entry, step, orbit) in enumerate(zip(
            executor.outer_entries, executor.steps, executor.orbits)):
        if isinstance(entry, FeedbackRegion):
            rates = executor.plan.islands[entry.start]
            n_members = entry.stop - entry.start
            rep.steps.append(StepReport(
                pos, f"{entry.stream.name} [feedback island: "
                     f"{n_members} nodes, delay {entry.stream.delay}]",
                "feedback", "feedback",
                f"{step.rounds} rounds for {step.firings} firings "
                f"({step.rounds / step.firings:.3g} a firing)"
                if step.firings else None))
            isl = IslandReport(entry.stream.name, entry.stream.delay,
                               rates, firings=step.firings,
                               rounds=step.rounds)
            for j, member in enumerate(step.members, entry.start):
                node, mstep = flat.nodes[j], member.step
                isl.steps.append(StepReport(
                    j, node.name, node.kind, mstep.kind,
                    mstep.detail or executor.plan.reasons.get(j),
                    tags=mstep.tags))
            rep.islands.append(isl)
        else:
            reason = "; ".join(filter(None, (
                step.detail, executor.plan.reasons.get(orbit[0])))) or None
            name, width, grouped = entry.name, len(orbit), "fused"
            if isinstance(step, K.StatefulLinearStep):  # orbit: a chain
                name, width = " → ".join(flat.nodes[j].name for j in orbit), 1
                grouped = "chained"
            rep.steps.append(StepReport(
                pos, name, entry.kind, step.kind, reason, width,
                step.tags + (grouped,) * (len(orbit) > 1)))
    return rep


def plan_report(stream: Stream, optimize: str = "none") -> PlanReport:
    """Explain how ``stream`` would execute under the plan backend."""
    executor, entry = compiled_plan_for(stream, optimize=optimize,
                                        cache=False)
    name = getattr(stream, "name", "?")
    if entry.bailout is not None:
        return PlanReport(program=name, optimize=optimize,
                          bailout=entry.bailout)
    return report_for_executor(executor, name, optimize)
