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
   which is what makes FLOP accounting bit-identical.  Only that final
   pass is simulated on its own: a pass is an action on the channel
   occupancies that composes, so the ``k`` passes before it are the
   sources firing ``k`` times and one sweep
   (:meth:`PlanExecutor._jump`), and ``k`` follows from walking the
   sink's demand back to the sources (:meth:`PlanExecutor._demand`) —
   O(nodes) per call, whatever the schedule's period.  A call's firing
   counts are a function of the integer state it starts from
   (occupancies, init phases, source budgets), so each executor keeps
   the counts of the states it has simulated and a call that finds its
   state there replays them without simulating
   (:meth:`PlanExecutor._scheduled`): a lookup when the state recurs,
   else the walk.

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
each (Radar: 45 nodes, 11 steps).  Every flat node fires exactly as
often as it would on its own, so outputs, FLOPs and the schedule are
those of the unquotiented plan; a splitjoin that does not match plans
node by node (orbits of size 1), and :func:`plan_report` says on its
splitter's row what kept a near miss apart.

The planner *bails out* to the scalar compiled executor only for graphs
it cannot batch safely: nodes that consume nothing yet have inputs
(unbounded drain), unknown primitive sources whose exhaustion behavior
the rate simulator cannot model, and feedback islands whose external
rates the probe cannot certify (sources or collectors inside the cycle,
no external input/output, or a schedule that never reaches a periodic
regime).  Filters whose fields update *affinely* (IIR) run through the
lifted :class:`~repro.exec.kernels.StatefulLinearStep`, a chain of them
as one step over their pipeline combination; sources (``pop
0``, no prework) through :class:`~repro.exec.kernels.PeriodicSourceStep`
until their state recurs; stateless non-linear filters and sources with
an additive counter through :class:`~repro.exec.kernels.LaneStep`, and
sources pushing sums of sinusoids of an int counter through one
:class:`~repro.exec.kernels.SinusoidStep` where sibling rows share its
basis or a linear reader folds onto it; the rest — prework, array or
non-additive state — through :class:`~repro.exec.kernels.FallbackStep`.
:func:`plan_report` says which kernel each node got and why not a
faster one, and names each feedback island with its member kernels.

A plan is built whole, once per graph content (:mod:`repro.exec.cache`):
:func:`build_plan` runs the ``optimize=`` rewrite and derives everything
an executor reads into one :class:`~repro.exec.cache.PlanEntry`, and
:func:`instantiate`, the one way to run an entry — compile, cache hit,
``reset``, :func:`plan_report` — only allocates rings, steps and state.

The executor is **resumable**: simulator state (occupancies, pending
counts, source budgets) persists across :meth:`PlanExecutor.advance`
calls, and :meth:`PlanExecutor.drain_available` drives a push session's
fed input to quiescence in one jump — this is what backs
``repro.compile(...)`` sessions.  Either pops what it returns off the
sink (the Collector's output ring, else the graph's output ring).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .. import faults
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
from ..runtime.channels import Channel
from ..runtime.executor import _NULL_CHANNEL, FlatGraph, _IRRunner
from . import kernels as K
from .cache import PLAN_CACHE, PlanEntry
from .optimize import fission_stream, optimize_stream
from .ring import RingBuffer

#: Flush batched work once this many sink outputs are pending (bounds ring
#: memory for very long runs while keeping batches large).  Read at each
#: drive, so a test may patch it to force many flushes.
DEFAULT_CHUNK_OUTPUTS = 1 << 16

#: Simulated calls an executor keeps for replay.  A full table is
#: emptied, or dropped for good if none of its calls has replayed.
SCHEDULE_TABLE_SIZE = 256

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
    fields = {k: (v.copy() if isinstance(v, np.ndarray) else v)
              for k, v in filt.fields.items()}
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

    recs = []
    for node in nodes:
        in_ids = [cid(ch) for ch in node.inputs]
        out_ids = [cid(ch) for ch in node.outputs]
        needs, pops, pushes = _steady_rates(node)
        has_init, init_needs, init_pops, init_pushes = _init_rates(node)
        recs.append(_SimNode(len(recs), in_ids, out_ids, needs, pops,
                             pushes, has_init, init_needs, init_pops,
                             init_pushes))

    def drain():
        # occupancy-only mirror of FeedbackStep's drain loop: any change
        # to the init gating or batch sizing there must land here too,
        # or the probe certifies a schedule the step will not execute
        progress = True
        while progress:
            progress = False
            for sn in recs:
                if sn.has_init and not sn.fired:
                    if not all(occ[c] >= need for c, need
                               in zip(sn.in_ids, sn.init_needs)):
                        continue
                    for c, o in zip(sn.in_ids, sn.init_pops):
                        occ[c] -= o
                    for c, u in zip(sn.out_ids, sn.init_pushes):
                        occ[c] += u
                    sn.fired = True
                    progress = True
                n = K.feasible_firings((occ[c] for c in sn.in_ids),
                                       sn.needs, sn.pops)
                if n:
                    for c, o in zip(sn.in_ids, sn.pops):
                        occ[c] -= o * n
                    for c, u in zip(sn.out_ids, sn.pushes):
                        occ[c] += u * n
                    sn.fired = True
                    progress = True

    def snapshot():
        state = tuple(v for i, v in enumerate(occ) if i != ext_out)
        return state + tuple(sn.fired for sn in recs if sn.has_init)

    c_lim = 4 * ss.pop + sum(occ) + sum(sum(sn.needs) for sn in recs) + 32
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


@dataclass
class _SimNode:
    """Static I/O rates of one flattened node, with a one-shot init phase."""

    index: int
    in_ids: list[int]
    out_ids: list[int]
    needs: list[int]
    pops: list[int]
    pushes: list[int]
    # first-firing (prework / init) overrides, aligned with in/out ids
    has_init: bool = False
    init_needs: list[int] = field(default_factory=list)
    init_pops: list[int] = field(default_factory=list)
    init_pushes: list[int] = field(default_factory=list)
    fired: bool = False
    remaining: int | None = None  # finite sources (ListSource)


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
    """(has_init, needs, pops, pushes) for the first firing."""
    s = node.stream
    if node.kind == "filter" and s.prework is not None:
        pw = s.prework
        return (True, *_leaf_rates(node, pw.peek, pw.pop, pw.push))
    if node.kind == "primitive":
        init = (s.init_peek, s.init_pop, s.init_push)
        if init != (None, None, None):
            return (True, *_leaf_rates(node, *(
                v if i is None else i
                for i, v in zip(init, (s.peek, s.pop, s.push)))))
    return False, [], [], []


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
    """The plan fields of a :class:`~repro.exec.cache.PlanEntry` over
    a plannable ``flat``, but for the island rates (the bailout check
    probes them)."""
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


# ---------------------------------------------------------------------------
# The plan executor
# ---------------------------------------------------------------------------


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

    def __init__(self, flat: FlatGraph, plan: PlanEntry):
        self.flat = flat
        self.profiler = flat.profiler
        #: the build this executor instantiates (:func:`build_plan`),
        #: shared with every other executor of its cache entry
        self.plan = plan
        #: numeric policy: rings are allocated and kernels compute in this
        #: dtype (float64 default — the seed behavior, bit for bit)
        self.policy = plan.policy
        #: ring id -> the SinusoidStep writing it, its reader to fold on
        self._sinusoids: dict[int, K.SinusoidStep] = {}

        # channel registry: every distinct Channel gets a ring and an
        # index; rings inherit the channel's current contents (a feedback
        # back edge starts holding the loop's enqueued values)
        self._chan_ids: dict[int, int] = {}
        self.rings: list[RingBuffer] = []

        def ring_of(ch):
            key = id(ch)
            idx = self._chan_ids.get(key)
            if idx is None:
                idx = len(self.rings)
                self._chan_ids[key] = idx
                self.rings.append(self._new_ring(ch.name,
                                                 prefill=ch.snapshot()))
            return idx

        self._out_chan = ring_of(flat.output_channel)
        ring_of(flat.input_channel)

        #: the push harness's feed (see :attr:`FlatGraph.feed`) and the
        #: sim node whose ``remaining`` is refreshed from its ring
        #: before every drive (sessions feed the ring between calls)
        self.feed = flat.feed
        self._feed_node: _SimNode | None = None

        nodes = flat.nodes
        # the quotients: a fused splitjoin keeps one ring per level (b
        # channels, b rows) and one step per stage, a stateful chain is
        # one lifted step; each is planned at its first node, and the
        # others ride along
        stage_of: dict[int, list[int]] = {
            head: members for head, (members, _) in plan.chains.items()}
        fused_ends: set[int] = set()  # fused splitters and joiners
        for split, join, stages in plan.siblings:
            levels = [nodes[split].outputs] + [
                [nodes[m].outputs[0] for m in members] for members in stages]
            for level in levels:
                for ch in level:
                    self._chan_ids[id(ch)] = len(self.rings)
                self.rings.append(self._new_ring(level[0].name,
                                                 rows=len(level)))
            stage_of.update((members[0], members) for members in stages)
            fused_ends.update((split, join))
        riders = {m for members in stage_of.values() for m in members[1:]}

        island_start = {r.start: r for r in flat.feedback_regions}

        def planned(i):
            """Planned node ``i``'s ring wiring, rates and batched step:
            ``(in ids, out ids, (needs, pops, pushes), init rates,
            step)``."""
            node = nodes[i]
            # a chain writes its last member's channel (a sibling
            # stage's rows share one ring and one rate)
            last = nodes[stage_of.get(i, [i])[-1]]
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
                in_ids = [len(self.rings)] + in_ids[1:]
                self.rings.append(self._new_ring(f"{node.name}.gate"))
            return (in_ids, out_ids, (needs, pops, pushes), _init_rates(node),
                    self._make_step(stage_of.get(i, [i]), in_ids, out_ids))

        # the acyclic outer schedule, each feedback region collapsed into
        # a single FeedbackStep facade
        self.sim_nodes: list[_SimNode] = []
        self.steps: list[K.Step] = []
        #: per outer position: the flat node (of a sibling stage, the
        #: first branch's), or the FeedbackRegion
        self.outer_entries: list = []
        #: per outer position: the flat indices the step fires
        self.orbits: list = []
        outer_of_flat: dict[int, int] = {}
        i = 0
        while i < len(nodes):
            region = island_start.get(i)
            if region is None:
                if i not in riders:
                    node = nodes[i]
                    in_ids, out_ids, rates, init, step = planned(i)
                    sn = _SimNode(len(self.sim_nodes), in_ids, out_ids,
                                  *rates, *init)
                    if isinstance(node.stream, ListSource):
                        sn.remaining = len(node.stream.values)
                    elif isinstance(node.stream, ChunkSource):
                        sn.remaining = 0
                        self._feed_node = sn
                    outer_of_flat[i] = len(self.sim_nodes)
                    self.sim_nodes.append(sn)
                    self.steps.append(step)
                    self.outer_entries.append(node)
                    self.orbits.append(stage_of.get(i, [i]))
                i += 1
                continue
            rates = plan.islands[region.start]
            members = []
            for j in range(region.start, region.stop):
                in_ids, _, (needs, pops, _), (has_init, init_needs, _, _), \
                    step = planned(j)
                members.append(K.IslandMember(
                    step, [self.rings[r] for r in in_ids],
                    needs, pops, has_init, init_needs))
            split_node = next(
                n for n in nodes[region.start:region.stop]
                if n.kind == "splitter"
                and n.splitter is region.stream.splitter)
            ext_in = ring_of(nodes[region.start].inputs[0])
            ext_out = ring_of(split_node.outputs[0])
            step = K.FeedbackStep(  # the joiner reads the gate ring
                region.stream.name, self.rings[ext_in],
                members[0].in_rings[0], members, rates.pop, rates.push,
                init_pop=rates.init_pop if rates.has_init else None,
                init_push=rates.init_push if rates.has_init else None)
            sn = _SimNode(len(self.sim_nodes), [ext_in], [ext_out],
                          [rates.pop], [rates.pop], [rates.push],
                          rates.has_init, [rates.init_pop],
                          [rates.init_pop], [rates.init_push])
            self.sim_nodes.append(sn)
            self.steps.append(step)
            self.outer_entries.append(region)
            self.orbits.append(range(region.start, region.stop))
            i = region.stop

        self.sources = [sn for sn in self.sim_nodes if not sn.in_ids]
        self.consumers = [sn for sn in self.sim_nodes if sn.in_ids]

        # the sink the executor watches: first Collector, else graph out
        self._sink = None  # the Collector's runner
        self._sink_index: int | None = None
        if flat.collectors:
            coll = flat.collectors[0]
            flat_idx = next(i for i, n in enumerate(flat.nodes)
                            if n is coll)
            self._sink = coll.runner
            self._sink_index = outer_of_flat[flat_idx]
        else:
            for sn in self.sim_nodes:
                if self._out_chan in sn.out_ids:
                    self._sink_index = sn.index
        self._sink_fires = 0  # cumulative collector firings (sim)
        # persistent simulator state (pre-filled rings start occupied)
        self._occ = [len(r) for r in self.rings]
        self._pending = [0] * len(self.sim_nodes)
        self._pending_outputs = 0
        self._passes = 0  # lifetime passes, however they were advanced
        #: how many jumps advanced them / how many ran one by one
        self.jumps = 0
        self.passes_literal = 0
        #: schedule replay (:meth:`_scheduled`): simulator input -> what
        #: the call flushed and left behind (None once given up); calls
        #: that needed a schedule, and how many of them replayed one
        self._schedules: dict | None = {}
        self.calls = 0
        self.replayed = 0
        # resumable-session cursors (see advance/drain_available)
        self._returned = 0  # outputs handed out to the caller
        self._out_popped = 0  # items popped off the graph output ring

    # -- ring construction ------------------------------------------------
    def _new_ring(self, name: str, prefill=None, rows: int = 1) -> RingBuffer:
        """Channel-storage hook: the parallel executor overrides this to
        allocate shared-memory rings workers can attach to."""
        return RingBuffer(name, prefill=prefill, dtype=self.policy.dtype,
                          rows=rows)

    def close(self) -> None:
        """Release execution resources (no-op for the serial executor;
        the parallel subclass detaches/unlinks shared memory here)."""

    # -- step construction ------------------------------------------------
    def _make_step(self, members, in_ids, out_ids) -> K.Step:
        """The step firing flat nodes ``members``: one node, or the
        sibling nodes of one stage of a fused splitjoin."""
        from ..frequency.filters import (Decimator, NaiveFreqFilter,
                                         OptimizedFreqFilter)

        index = members[0]
        node = self.flat.nodes[index]

        def rin(j=0):
            return self.rings[in_ids[j]] if in_ids else _NULL_CHANNEL

        def rout(j=0):
            return self.rings[out_ids[j]] if out_ids else _NULL_CHANNEL

        # (the b branches of a fused splitjoin are one ring, one weight)
        if node.kind == "splitter":
            outs = [self.rings[i] for i in out_ids]
            if isinstance(node.splitter, Duplicate):
                return K.DuplicateSplitStep(rin(), outs)
            return K.RoundRobinSplitStep(
                rin(), outs, list(node.splitter.weights[:len(outs)]))
        if node.kind == "joiner":
            ins = [self.rings[i] for i in in_ids]
            return K.RoundRobinJoinStep(
                ins, rout(), list(node.joiner.weights[:len(ins)]))
        plan = self.plan
        stacked = [_stacked_kernel(self.flat, plan.decisions, m)
                   for m in members]
        if stacked[0] is not None and stacked[0][0] == "matmul":
            lines = [k[1] for k in stacked], [k[2:] for k in stacked]
            if in_ids[0] in self._sinusoids:
                return self._sinusoids[in_ids[0]].fold(*lines, rout(),
                                                       self.policy)
            return K.MatmulStep(rin(), rout(), *lines, self.profiler,
                                policy=self.policy)
        # one node or a chain (a stateful node never has siblings)
        chain = [_stateful_kernel(self.flat, plan.decisions, m)
                 for m in members]
        if chain[0] is not None:
            lifted = plan.chains[index][1] if len(members) > 1 \
                else chain[0][0]
            return K.StatefulLinearStep(
                rin(), rout(), lifted, [k[1] for k in chain],
                self.profiler, policy=self.policy)
        s = node.stream
        if node.kind == "filter":
            params = plan.decisions[index]
            if isinstance(params, LaneCode):
                nodes = [self.flat.nodes[m] for m in members]
                if index not in plan.sinusoids:
                    return K.LaneStep(nodes, rin(), rout(), params,
                                      self.policy)
                forms, folds = plan.sinusoids[index]
                step = K.SinusoidStep(nodes, forms, rout(), self.profiler)
                if folds:
                    self._sinusoids[out_ids[0]] = step
                return step
            if not in_ids and s.prework is None:
                # its reason says why its scalar firings, should the
                # state never recur, are not lanes either
                return K.PeriodicSourceStep(node, _NULL_CHANNEL, rout(),
                                            self.profiler, self.policy)
            return K.FallbackStep(node, rin(), rout())
        # primitives
        if isinstance(s, NaiveFreqFilter):
            return K.NaiveFreqStep(rin(), rout(), s, self.profiler,
                                   policy=self.policy)
        if isinstance(s, OptimizedFreqFilter):
            return K.OptimizedFreqStep(rin(), rout(), s, self.profiler,
                                       policy=self.policy)
        if isinstance(s, Collector):
            return K.CollectorStep(rin(), node.runner)
        if isinstance(s, ChunkSource):
            return K.ChunkSourceStep(rout(), node.runner.buffer)
        if isinstance(s, ListSource):
            return K.ListSourceStep(rout(), s.values, self.policy)
        if isinstance(s, FunctionSource):
            return K.FunctionSourceStep(rout(), s.fn, self.policy)
        if isinstance(s, ConstantSourceFilter):
            return K.PeriodicSourceStep.constant(s.values, rout(),
                                                 self.profiler, self.policy)
        if isinstance(s, Identity):
            return K.IdentityStep(rin(), rout())
        if isinstance(s, Decimator):
            return K.DecimatorStep(rin(), rout(), s.o, s.u)
        step = K.FallbackStep(node, rin(), rout())
        step.detail = ("no batched kernel for primitive type "
                       + type(s).__name__)
        return step

    # -- integer rate simulation ------------------------------------------
    def _produced(self) -> int:
        """Total sink outputs since construction (including ones already
        taken by the caller — the out ring's pops are tracked so the
        count stays cumulative across session advances)."""
        if self._sink is not None:
            return self._sink_fires
        return self._out_popped + self._occ[self._out_chan]

    def buffers(self) -> tuple[int, int]:
        """Items of storage behind the feed ring and behind the sink."""
        sink = self._sink or self.rings[self._out_chan]
        return (self.feed.buffer.capacity if self.feed else 0,
                sink.capacity)

    def _sim_fire(self, sn: _SimNode, n: int, init: bool) -> None:
        occ = self._occ
        pops = sn.init_pops if init else sn.pops
        pushes = sn.init_pushes if init else sn.pushes
        for cid, o in zip(sn.in_ids, pops):
            occ[cid] -= o * n
        for cid, u in zip(sn.out_ids, pushes):
            occ[cid] += u * n
        self._pending[sn.index] += n
        sn.fired = True
        if sn.index == self._sink_index:
            if self._sink is not None:
                self._sink_fires += n
            self._pending_outputs += n

    def _in_init_phase(self, sn: _SimNode) -> bool:
        return sn.has_init and not sn.fired

    def _feasible_steady(self, sn: _SimNode) -> int:
        """Max consecutive steady firings given current occupancies."""
        occ = self._occ
        return K.feasible_firings((occ[cid] for cid in sn.in_ids),
                                  sn.needs, sn.pops)

    def _sweep(self, n_outputs: int) -> None:
        """One drain sweep, transcribing :meth:`FlatGraph._drain`.

        Nodes drain fully in flattening (topological) order.  Once the
        sink reaches ``n_outputs`` the scalar executor's loop fires each
        remaining fireable node exactly once before stopping; we replicate
        that to keep firing counts — and therefore FLOP counts —
        identical.
        """
        hit = self._produced() >= n_outputs
        for sn in self.consumers:
            if self._in_init_phase(sn):
                ok = all(self._occ[cid] >= need for cid, need
                         in zip(sn.in_ids, sn.init_needs))
                if not ok:
                    continue
                self._sim_fire(sn, 1, init=True)
                if hit:
                    continue
                if sn.index == self._sink_index and \
                        self._produced() >= n_outputs:
                    hit = True
                    continue
            if hit:
                if self._feasible_steady(sn) > 0:
                    self._sim_fire(sn, 1, init=False)
                continue
            n = self._feasible_steady(sn)
            if n <= 0:
                continue
            if sn.index == self._sink_index:
                gain = (1 if self._sink is not None
                        else (sn.pushes[sn.out_ids.index(self._out_chan)]
                              if self._out_chan in sn.out_ids else 0))
                if gain > 0 and not math.isinf(n_outputs):
                    deficit = n_outputs - self._produced()
                    cap = -(-deficit // gain)  # ceil
                    if n >= cap:
                        n = cap
                        hit = True
            self._sim_fire(sn, n, init=False)

    def _fire_sources(self, k: int) -> bool:
        """The source half of ``k`` passes: every source fires ``k``
        times, a finite one until it runs dry."""
        progress = False
        for sn in self.sources:
            n = k if sn.remaining is None else min(k, sn.remaining)
            if n <= 0:
                continue
            if sn.remaining is not None:
                sn.remaining -= n
            if self._in_init_phase(sn):
                self._sim_fire(sn, 1, init=True)
                n -= 1
            if n:
                self._sim_fire(sn, n, init=False)
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

    def _phases(self) -> tuple:
        """Every node's init phase and source budget."""
        return tuple([(sn.fired, sn.remaining) for sn in self.sim_nodes])

    def _set_phases(self, phases: tuple) -> None:
        for sn, (fired, remaining) in zip(self.sim_nodes, phases):
            sn.fired, sn.remaining = fired, remaining

    def _checkpoint(self) -> tuple:
        """Everything a jump changes, for :meth:`_rollback`."""
        return (self._occ[:], self._pending[:], self._pending_outputs,
                self._sink_fires, self._passes, self.jumps, self._phases())

    def _rollback(self, saved: tuple) -> None:
        (self._occ, self._pending, self._pending_outputs, self._sink_fires,
         self._passes, self.jumps, phases) = saved
        self._set_phases(phases)

    def _passes_left(self):
        """Passes until every source has run dry (inf: one never does)."""
        return max((math.inf if sn.remaining is None else sn.remaining
                    for sn in self.sources), default=0)

    def _demand(self, goal: int) -> int:
        """The first pass at which the sink reaches ``goal`` total
        outputs, by walking its demand backwards: a node's ``f`` next
        firings need ``need + (f - 1) * pop`` items on each input, the
        channel's producer fires ``ceil(owed / push)`` times to supply
        what the channel does not hold, and a source fires once a pass.
        A pending init firing is the first of the ``f``, at its own
        rates.  :meth:`_drive` takes this as a hint and checks it
        against the sweep.
        """
        occ = self._occ
        owed = [0] * len(occ)  # items each channel's producer must add
        deficit = goal - self._produced()
        collector = None  # a Collector sink fires once per output
        if self._sink is None:
            owed[self._out_chan] = deficit
        else:
            collector = self._sink_index
        passes = 0
        for sn in reversed(self.sim_nodes):
            init = self._in_init_phase(sn)
            f = deficit if sn.index == collector else 0
            for j, cid in enumerate(sn.out_ids):
                if owed[cid] > 0:
                    rest = owed[cid] - (sn.init_pushes[j] if init else 0)
                    u = sn.pushes[j]
                    f = max(f, init + (-(-rest // u)  # ceil
                                       if rest > 0 and u else 0))
            if not f:
                continue
            if not sn.in_ids:
                passes = max(passes, f)
            steady = f - init
            for j, cid in enumerate(sn.in_ids):
                items = sn.needs[j] + (steady - 1) * sn.pops[j] \
                    if steady else 0
                if init:
                    items = max(sn.init_needs[j], sn.init_pops[j] + items)
                owed[cid] = items - occ[cid]
        return passes

    # -- batched flush -----------------------------------------------------
    def _flush(self) -> None:
        pending = self._pending
        for i, step in enumerate(self.steps):
            n = pending[i]
            if n:
                step.execute(n)
                pending[i] = 0
        self._pending_outputs = 0

    def _flush_taped(self, tape: list) -> None:
        """:meth:`_flush`, noting on ``tape`` what it fires."""
        if any(self._pending):
            tape.append(self._pending[:])
        self._flush()

    # -- schedule replay -----------------------------------------------------
    def _scheduled(self, call: tuple, simulate, *args) -> None:
        """``simulate(*args, tape)`` — a simulated call that flushes
        through :meth:`_flush_taped` onto ``tape`` — or its replay.

        Everything the simulator reads is ``call`` (the target or pass
        budget, relative to what the sink holds) and the integer state:
        occupancies and every node's init phase and source budget.  So
        the first call from a state runs the simulation and keeps the
        pending vectors it flushed, the state it left and its counter
        deltas; a later call from the same state sets that state and
        fires the vectors through :meth:`_flush` (which the parallel
        executor overrides), simulating nothing.  A call that raises is
        not kept, and one that starts with firings still pending (a
        flush raised) is simulated and not kept.  When the table fills
        it is emptied — or dropped, if no call has replayed yet: the
        executor's states do not recur, and from then on every call is
        simulated with no bookkeeping.
        """
        self.calls += 1
        pending = self._pending
        if self._schedules is None or any(pending):
            simulate(*args, [])
            return
        key = (call, tuple(self._occ), self._phases())
        kept = self._schedules.get(key)
        if kept is not None:
            tape, occ, phases, sink, passes, jumps, literal = kept
            self._occ[:] = occ
            self._set_phases(phases)
            self._sink_fires += sink
            self._passes += passes
            self.jumps += jumps
            self.passes_literal += literal
            self.replayed += 1
            for vector in tape:
                pending[:] = vector
                self._flush()
            return
        before = (self._sink_fires, self._passes, self.jumps,
                  self.passes_literal)
        tape: list = []
        simulate(*args, tape)
        if len(self._schedules) >= SCHEDULE_TABLE_SIZE:
            if not self.replayed:
                self._schedules = None
                return
            self._schedules.clear()
        self._schedules[key] = (
            tape, tuple(self._occ), self._phases(),
            self._sink_fires - before[0], self._passes - before[1],
            self.jumps - before[2], self.passes_literal - before[3])

    # -- reentrant drive loop -----------------------------------------------
    def _refresh_feed(self) -> None:
        if self._feed_node is not None:
            self._feed_node.remaining = len(self.feed.buffer)

    def _drive(self, target: int, max_passes: int) -> None:
        """Bring the sink to ``target`` total outputs: :meth:`_simulate`
        once per state, replayed when the state recurs."""
        self._refresh_feed()
        if self._produced() >= target:
            return
        self._scheduled(("drive", target - self._produced(), max_passes),
                        self._simulate, target, max_passes)

    def _simulate(self, target: int, max_passes: int, tape: list) -> None:
        """Simulate + flush until the sink holds ``target`` total outputs.

        Drain-first transcription of :meth:`FlatGraph._drive`: leftover
        occupancy from a previous advance is swept before any source
        fires, which is what keeps incremental firing counts identical
        to a single cold run of the same total.  Only the pass in which
        the sink reaches ``target`` stops early, so only that one runs
        literally: the passes before it are one :meth:`_jump`, sized by
        :meth:`_demand` and tried on saved state — a jump that would
        reach the goal is undone and halved.  ``max_passes`` bounds the
        passes of this call, jumped or literal.
        """
        self._sweep(target)
        passes = 0
        while self._produced() < target:
            goal = min(target, self._produced() + DEFAULT_CHUNK_OUTPUTS)
            k = min(self._demand(goal) - 1, self._passes_left(),
                    max_passes - passes)
            while k > 0:
                saved = self._checkpoint()
                self._jump(k)
                if self._produced() < goal:
                    passes += k
                    break
                self._rollback(saved)
                k //= 2
            passes += 1
            if passes > max_passes:
                raise InterpError("executor pass limit exceeded")
            self._passes += 1
            self.passes_literal += 1
            progress = self._fire_sources(1)
            self._sweep(target)
            if self._pending_outputs >= DEFAULT_CHUNK_OUTPUTS:
                self._flush_taped(tape)
            if not progress and self._produced() < target:
                self._flush()
                raise InterpError(
                    f"deadlock: no source progress, "
                    f"{self._produced()}/{target} outputs")
        self._flush_taped(tape)

    def _take(self, n: int) -> np.ndarray:
        """Pop the next ``n`` already-produced outputs off the sink."""
        if self._sink is not None:
            out = self._sink.take(n)
        else:
            out_ring = self.rings[self._out_chan]
            out = out_ring.pop_block_array(n)
            self._occ[self._out_chan] -= n
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
        self._scheduled(("drain", k, max_passes), self._drain, k)
        return self._take(self._produced() - self._returned)

    def _drain(self, k: int, tape: list) -> None:
        self._jump(k)
        self._flush_taped(tape)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_plan(stream: Stream, optimize: str = "none",
               policy: NumericPolicy = DEFAULT_POLICY, workers: int = 1,
               profiler: Profiler | None = None):
    """Plan ``stream`` whole: ``(entry, flat)``, the
    :class:`~repro.exec.cache.PlanEntry` and the flat graph (profiling
    into ``profiler``) it was planned over, for the first executor.

    The rewritten graph (``workers > 1`` adds
    :func:`~repro.exec.optimize.fission_stream`) is flattened once and
    checked for a bailout, which probes the feedback islands; a
    plannable one then gets its kernel decisions, sibling stages,
    stateful chains and sinusoid forms."""
    optimized = fission_stream(optimize_stream(stream, optimize,
                                               policy=policy),
                               workers, policy=policy)
    flat = FlatGraph(optimized, profiler, dtype=policy.dtype)
    islands: dict = {}
    bailout = plan_bailout_reason(optimized, flat, island_rates=islands)
    # (the parallel executor's shared-memory rings have one row)
    plan = dict(decisions={}, siblings=[], chains={}, sinusoids={},
                reasons={}) if bailout else \
        _plan(flat, workers == 1 and PlanExecutor.fuse_siblings)
    return PlanEntry(pin=stream, optimized=optimized, bailout=bailout,
                     policy=policy, workers=workers, islands=islands,
                     **plan), flat


def instantiate(entry: PlanEntry, profiler: Profiler | None = None,
                flat: FlatGraph | None = None):
    """A fresh executor of ``entry``'s plan over ``flat`` (by default a
    new flattening of ``entry.optimized``): the scalar
    :class:`FlatGraph` on a bailout, else a :class:`PlanExecutor`, the
    parallel one when ``entry.workers > 1``."""
    if flat is None:
        flat = FlatGraph(entry.optimized, profiler, dtype=entry.policy.dtype)
    if entry.bailout is not None:
        return flat
    if entry.workers > 1:
        from ..parallel.executor import ParallelPlanExecutor
        return ParallelPlanExecutor(flat, entry)
    return PlanExecutor(flat, entry)


def compiled_plan_for(stream: Stream, profiler: Profiler | None = None,
                      optimize: str = "none", cache=None, dtype=None,
                      workers: int = 1):
    """Compile ``stream``; return ``(executor, entry)``.

    ``entry`` is :func:`build_plan`'s, from ``cache`` (default: the
    process-wide :data:`~repro.exec.cache.PLAN_CACHE`) keyed by the
    graph's content, or private with ``cache=False`` (as the cache's
    is for a single-use graph).  A miss flattens the graph once.

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
    built: list = []  # the (entry, flat) this call built, if it missed

    def build() -> PlanEntry:
        built.append(build_plan(stream, optimize, policy, workers, profiler))
        return built[-1][0]

    if cache is False:
        entry = build()
    else:
        entry = (PLAN_CACHE if cache is None else cache).entry_for(
            stream, optimize, build, policy=policy, workers=workers)
    flat = built[0][1] if built and built[0][0] is entry else None
    return instantiate(entry, profiler, flat), entry


def plan_executor_for(stream: Stream, profiler: Profiler | None = None,
                      optimize: str = "none", cache=None, dtype=None,
                      workers: int = 1):
    """Compile ``stream`` into a :class:`PlanExecutor` — see
    :func:`compiled_plan_for` (this drops the cache entry)."""
    return compiled_plan_for(stream, profiler, optimize=optimize,
                             cache=cache, dtype=dtype, workers=workers)[0]


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
    #: passes simulated one by one (the last of each drive); the calls
    #: that needed a schedule, and those that replayed a kept one
    passes: int = 0
    jumps: int = 0
    passes_literal: int = 0
    calls: int = 0
    replayed: int = 0
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
                ["buffers: in {} / out {} / journal {}".format(*self.buffers)])
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
                     f"{self.passes_literal} literal passes, "
                     f"{self.replayed} of {self.calls} calls replayed")
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
    from ..runtime.executor import FeedbackRegion

    flat = executor.flat
    rep = PlanReport(program=program, optimize=optimize, bailout=None,
                     nodes=len(flat.nodes),
                     passes=executor._passes, jumps=executor.jumps,
                     passes_literal=executor.passes_literal,
                     calls=executor.calls, replayed=executor.replayed)
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
            reason = executor.plan.reasons.get(orbit[0])
            if isinstance(step, K.PeriodicSourceStep):
                step = _settled_source(step, executor.policy)
                if step.period or reason is None:
                    reason = step.detail
                else:
                    reason = f"{step.detail}; {reason}"
            else:
                reason = "; ".join(filter(None, (step.detail, reason))) \
                    or None
            name, width, grouped = entry.name, len(orbit), "fused"
            if isinstance(step, K.StatefulLinearStep):  # orbit: a chain
                name, width = " → ".join(flat.nodes[j].name for j in orbit), 1
                grouped = "chained"
            rep.steps.append(StepReport(
                pos, name, entry.kind, step.kind, reason, width,
                step.tags + (grouped,) * (len(orbit) > 1)))
    return rep


def _settled_source(step: K.PeriodicSourceStep, policy: NumericPolicy):
    """``step`` once its recurrence search is over.  A search still
    running (the source has fired fewer times than the limit) is a pure
    function of the filter's initial state, so a scratch twin fired
    into a throwaway ring reaches the same verdict without touching
    the live stream."""
    if step.detail is not None:
        return step
    node = step.node
    twin = K.PeriodicSourceStep(
        replace(node, runner=_IRRunner(node.stream, NullProfiler(),
                                       "compiled")),
        _NULL_CHANNEL, RingBuffer("scratch", dtype=policy.dtype),
        NullProfiler(), policy)
    with faults.suppress():  # not a step of the stream
        twin.execute(K.SOURCE_RECURRENCE_LIMIT)
    return twin


def plan_report(stream: Stream, optimize: str = "none") -> PlanReport:
    """Explain how ``stream`` would execute under the plan backend."""
    executor, entry = compiled_plan_for(stream, optimize=optimize,
                                        cache=False)
    name = getattr(stream, "name", "?")
    if entry.bailout is not None:
        return PlanReport(program=name, optimize=optimize,
                          bailout=entry.bailout)
    return report_for_executor(executor, name, optimize)
