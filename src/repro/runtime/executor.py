"""Data-driven execution of stream graphs.

Reproduces the StreamIt uniprocessor backend + runtime library: the
hierarchical graph is flattened into leaf nodes (filters, splitters,
joiners) connected by FIFO channels, then fired data-driven in passes until
the requested number of outputs has been collected at the sink.

Three execution backends exist:

* ``interp``  — the reference tree-walking interpreter (exact per-op
  FLOP accounting),
* ``compiled`` — generated Python (the default; static per-block FLOP
  accounting; ~50x faster),
* ``plan``    — the vectorized steady-state engine (:mod:`repro.exec`):
  batches many firings per node, running linear filters as NumPy matrix
  products over ndarray ring buffers.  Output values (to 1e-9) and FLOP
  counts are identical to the scalar backends; feedback loops run as
  batched *islands* (value-identical; tail-of-run firing counts may
  differ by one loop iteration), and the rare graphs the planner cannot
  batch at all (unknown primitive sources, unprobeable cycles) silently
  fall back to ``compiled``.

All execution state lives in channels and runners, and the drive loop
is reentrant, so a :class:`repro.session.StreamSession` can pause and
resume the same graph indefinitely.  Outputs leave an executor one way:
:meth:`FlatGraph.advance` (the next ``n``) or :meth:`~FlatGraph.
drain_available` (all the fed input completes) pops them off the sink —
the :class:`~.builtins.Collector`'s output ring, or the graph's output
channel — as an ndarray the caller owns.  ``run_graph``/``run_stream``
are one-shot wrappers over a session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InterpError, StreamGraphError
from ..graph.scheduler import steady_state
from ..graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                             PrimitiveFilter, RoundRobin, SplitJoin, Stream)
from ..ir.interp import Interpreter
from ..ir.pycodegen import compile_work
from .builtins import ChunkSource, Collector, ListSource
from .channels import Channel, Stateful, state_of
from ..profiling import NullProfiler, Profiler


class _IRRunner(Stateful):
    """Executes an IR filter: prework once (if any), then work."""

    STATE = ("fields", "fired_init")

    def __init__(self, filt: Filter, profiler: Profiler, backend: str):
        self.filt = filt
        self.profiler = profiler
        # fields are copied so a graph can be executed repeatedly
        self.fields = state_of(filt.fields)
        self.fired_init = filt.prework is None
        if backend == "interp":
            interp = Interpreter(self.fields, profiler)
            self._run_work = lambda wf, ci, co: interp.run(wf, ci, co)
        elif backend == "compiled":
            self._compiled = {}
            self._run_work = self._run_compiled
        else:
            raise ValueError(f"unknown backend {backend!r}")

    def _run_compiled(self, wf, ch_in, ch_out):
        fn = self._compiled.get(id(wf))
        if fn is None:
            fn = compile_work(wf, self.fields, self.filt.name)
            self._compiled[id(wf)] = fn
        fn(ch_in.peek, ch_in.pop, ch_out.push, self.fields,
           self.profiler.bulk)

    def current_work(self):
        return self.filt.prework if not self.fired_init else self.filt.work

    def fire(self, ch_in, ch_out):
        wf = self.current_work()
        self._run_work(wf, ch_in, ch_out)
        self.fired_init = True


def make_runner(stream, profiler: Profiler, backend: str = "compiled",
                dtype=np.float64):
    """A fresh runner of leaf ``stream`` (fields, feed or output ring its
    own) counting into ``profiler``; a Collector's ring is ``dtype``."""
    if isinstance(stream, Filter):
        return _IRRunner(stream, profiler, backend)
    if isinstance(stream, Collector):
        return stream.make_runner(profiler, dtype)
    return stream.make_runner(profiler)


@dataclass
class _Node(Stateful):
    """A flattened execution node."""

    STATE = ("prim_fired_init", "runner")

    name: str
    kind: str  # 'filter' | 'primitive' | 'splitter' | 'joiner'
    inputs: list[Channel] = field(default_factory=list)
    outputs: list[Channel] = field(default_factory=list)
    runner: object = None
    stream: object = None
    splitter: object = None  # Duplicate | RoundRobin for splitters
    joiner: object = None  # RoundRobin for joiners
    prim_fired_init: bool = False

    # ------------------------------------------------------------------
    def required_inputs(self) -> list[int]:
        """Items needed on each input channel to fire once."""
        if self.kind == "filter":
            wf = self.runner.current_work()
            return [wf.peek]
        if self.kind == "primitive":
            s = self.stream
            if s.init_peek is not None and not self.prim_fired_init:
                return [s.init_peek]
            return [s.peek]
        if self.kind == "splitter":
            if isinstance(self.splitter, Duplicate):
                return [1]
            return [self.splitter.total]
        # joiner
        return list(self.joiner.weights)

    def can_fire(self) -> bool:
        return all(len(ch) >= need
                   for ch, need in zip(self.inputs, self.required_inputs()))

    def fire(self, profiler: Profiler) -> None:
        if self.kind in ("filter", "primitive"):
            ch_in = self.inputs[0] if self.inputs else _NULL_CHANNEL
            ch_out = self.outputs[0] if self.outputs else _NULL_CHANNEL
            self.runner.fire(ch_in, ch_out)
            self.prim_fired_init = True
        elif self.kind == "splitter":
            src = self.inputs[0]
            if isinstance(self.splitter, Duplicate):
                v = src.pop()
                for out in self.outputs:
                    out.push(v)
            else:
                for out, w in zip(self.outputs, self.splitter.weights):
                    for _ in range(w):
                        out.push(src.pop())
        else:  # joiner
            out = self.outputs[0]
            for ch, w in zip(self.inputs, self.joiner.weights):
                for _ in range(w):
                    out.push(ch.pop())


class _NullChannelType(Channel):
    """Channel for unused endpoints (void input of sources, etc.)."""

    def push(self, v):
        raise InterpError("push on void tape")

    def pop(self):
        raise InterpError("pop on void tape")

    def peek(self, i):
        raise InterpError("peek on void tape")


_NULL_CHANNEL = _NullChannelType("void")


@dataclass
class FeedbackRegion:
    """The contiguous ``nodes[start:stop]`` slice one FeedbackLoop
    flattened into: joiner, body nodes, splitter, loop-path nodes.

    The slice is what the plan backend turns into a feedback *island*;
    everything the cycle touches (including nested loops) lives inside
    it, so the rest of the flattened graph stays acyclic.
    """

    stream: FeedbackLoop
    start: int
    stop: int


@dataclass
class SplitJoinRegion:
    """Where one SplitJoin flattened to: its splitter is ``nodes[split]``,
    branch ``j`` the slice ``nodes[starts[j]:starts[j + 1]]`` (the last
    one runs up to ``join``), its joiner ``nodes[join]``.  The plan
    backend looks here for branches it can run as one step."""

    stream: SplitJoin
    split: int
    starts: list[int]
    join: int
    in_feedback: bool


class FlatGraph(Stateful):
    """A flattened stream graph ready for execution; its state is its
    output cursors and passes, channels' items and nodes' states."""

    STATE = ("_returned", "_out_popped", "_passes", "channels", "nodes")

    def __init__(self, stream: Stream, profiler: Profiler | None = None,
                 backend: str = "compiled", dtype=np.float64):
        self.stream = stream
        self.profiler = profiler if profiler is not None else NullProfiler()
        self.backend = backend
        #: dtype of the outputs handed out (the session policy's): the
        #: Collector's ring stores in it
        self.dtype = np.dtype(dtype)
        self.nodes: list[_Node] = []
        #: outermost FeedbackLoop slices, in flattening order
        self.feedback_regions: list[FeedbackRegion] = []
        #: every SplitJoin, outermost first
        self.splitjoins: list[SplitJoinRegion] = []
        self._feedback_depth = 0
        self.input_channel = Channel("graph-in")
        self.output_channel = Channel("graph-out")
        #: every channel made, the graph output's and input's first
        self.channels = [self.output_channel, self.input_channel]
        out = self._flatten(stream, self.input_channel)
        # replace dangling output with the graph output channel
        if out is not None:
            for node in self.nodes:
                node.outputs = [self.output_channel if ch is out else ch
                                for ch in node.outputs]
        self.collectors = [n for n in self.nodes
                           if isinstance(n.stream, Collector)]
        self._sources = [n for n in self.nodes if not n.inputs]
        #: the push harness's :class:`~.builtins.ChunkFeed` (None for a
        #: complete program): ``StreamSession.feed`` writes into it
        self.feed = next((n.runner for n in self._sources
                          if isinstance(n.stream, ChunkSource)), None)
        # resumable-drive state (see advance/drain_available)
        self._returned = 0  # outputs handed out past runs
        self._out_popped = 0  # items popped off the graph output channel
        self._passes = 0
        #: what a state fits: channel names and rows, node kinds
        self.layout = (tuple((ch.name, 1) for ch in self.channels),
                       tuple(node.kind for node in self.nodes))

    # ------------------------------------------------------------------
    def _new_channel(self) -> Channel:
        self.channels.append(Channel(f"ch{len(self.channels) - 1}"))
        return self.channels[-1]

    def _flatten(self, stream: Stream, ch_in: Channel) -> Channel | None:
        """Wire ``stream`` reading from ``ch_in``; return its output channel."""
        if isinstance(stream, (Filter, PrimitiveFilter)):
            if isinstance(stream, Filter):
                kind, pw = "filter", stream.prework
                reads = stream.pop or stream.peek
                writes = stream.push or (pw and pw.push)
            else:
                kind = "primitive"
                reads = stream.peek or stream.pop or stream.init_peek \
                    or stream.init_pop
                writes = stream.push or stream.init_push
            node = _Node(name=stream.name, kind=kind, stream=stream,
                         inputs=[ch_in] if reads else [],
                         runner=make_runner(stream, self.profiler,
                                            self.backend, self.dtype))
            out = self._new_channel() if writes else None
            if out is not None:
                node.outputs = [out]
            self.nodes.append(node)
            return out
        if isinstance(stream, Pipeline):
            cur = ch_in
            for child in stream.children:
                cur = self._flatten(child, cur)
            return cur
        if isinstance(stream, SplitJoin):
            split_node = _Node(name=f"{stream.name}.split", kind="splitter",
                               splitter=stream.splitter, inputs=[ch_in])
            region = SplitJoinRegion(stream, len(self.nodes), [], 0,
                                     self._feedback_depth > 0)
            self.splitjoins.append(region)
            self.nodes.append(split_node)
            branch_outs = []
            for child in stream.children:
                branch_in = self._new_channel()
                split_node.outputs.append(branch_in)
                region.starts.append(len(self.nodes))
                branch_outs.append(self._flatten(child, branch_in))
            join_node = _Node(name=f"{stream.name}.join", kind="joiner",
                              joiner=stream.joiner)
            join_node.inputs = branch_outs
            out = self._new_channel()
            join_node.outputs = [out]
            region.join = len(self.nodes)
            self.nodes.append(join_node)
            return out
        if isinstance(stream, FeedbackLoop):
            start = len(self.nodes)
            self._feedback_depth += 1
            loop_to_join = self._new_channel()
            for v in stream.enqueued:
                loop_to_join.push(v)
            join_node = _Node(name=f"{stream.name}.join", kind="joiner",
                              joiner=stream.joiner,
                              inputs=[ch_in, loop_to_join])
            body_in = self._new_channel()
            join_node.outputs = [body_in]
            self.nodes.append(join_node)
            body_out = self._flatten(stream.body, body_in)
            split_node = _Node(name=f"{stream.name}.split", kind="splitter",
                               splitter=stream.splitter, inputs=[body_out])
            out = self._new_channel()
            split_to_loop = self._new_channel()
            split_node.outputs = [out, split_to_loop]
            self.nodes.append(split_node)
            loop_out = self._flatten(stream.loop, split_to_loop)
            # feed the loop stream's output back into the joiner
            for node in self.nodes:
                node.outputs = [loop_to_join if ch is loop_out else ch
                                for ch in node.outputs]
            self._feedback_depth -= 1
            if self._feedback_depth == 0:
                self.feedback_regions.append(
                    FeedbackRegion(stream, start, len(self.nodes)))
            return out
        raise TypeError(f"cannot flatten {stream!r}")

    # -- reentrant drive loop ------------------------------------------
    #
    # The drain loop is split so a StreamSession can advance the same
    # graph repeatedly: all execution state lives in channels and
    # runners, and the loop structure is drain-first (a no-op on a cold
    # graph, so one-shot firing counts are unchanged) — which is what
    # makes ``advance(k1); advance(k2)`` fire exactly the same nodes as
    # a single run to ``k1 + k2``.

    def produced(self) -> int:
        """Total sink outputs since construction (including consumed)."""
        if self.collectors:
            return self.collectors[0].runner.produced()
        return self._out_popped + len(self.output_channel)

    def buffers(self) -> tuple[int, int]:
        """Items of storage behind the feed ring and behind the sink."""
        sink = (self.collectors[0].runner if self.collectors
                else self.output_channel)
        return (self.feed.buffer.capacity if self.feed else 0,
                sink.capacity)

    def _drain(self, target: float) -> None:
        """Fire consumers until quiescent, transcribed from the original
        inner loop: once the sink reaches ``target``, each remaining
        fireable node fires at most once more before the loop stops."""
        produced = self.produced
        busy = True
        while busy:
            busy = False
            for node in self.nodes:
                if node.inputs:
                    while node.can_fire():
                        node.fire(self.profiler)
                        busy = True
                        if produced() >= target:
                            busy = False
                            break
            if produced() >= target:
                break

    def _fire_sources(self) -> bool:
        progress = False
        for node in self._sources:
            try:
                node.fire(self.profiler)
                progress = True
            except IndexError:
                pass  # finite source exhausted
        return progress

    def _drive(self, target: float, max_passes: int) -> None:
        """Drain leftovers, then alternate source passes and drains
        until the sink holds ``target`` total outputs.

        ``max_passes`` bounds *this* call (a runaway guard), not the
        session lifetime — long-lived sessions accumulate passes in
        ``self._passes`` without ever tripping it.
        """
        if self.produced() >= target:
            # already satisfied (a prior advance overshot): firing
            # anything here would break incremental firing-count parity
            return
        self._drain(target)
        passes = 0
        while self.produced() < target:
            passes += 1
            self._passes += 1
            if passes > max_passes:
                raise InterpError("executor pass limit exceeded")
            if not self._fire_sources():
                raise InterpError(
                    f"deadlock: no source progress, "
                    f"{self.produced()}/{target} outputs")
            self._drain(target)

    def _take(self, n: int) -> np.ndarray:
        """Pop the next ``n`` already-produced outputs off the sink."""
        if self.collectors:
            out = self.collectors[0].runner.take(n)
        else:
            out = np.asarray(self.output_channel.pop_block_array(n),
                             dtype=self.dtype)
            self._out_popped += n
        self._returned += n
        return out

    def advance(self, n: int, max_passes: int = 10_000_000) -> np.ndarray:
        """Produce and return the *next* ``n`` outputs (resumable).

        Consecutive calls continue the stream: channel occupancy, filter
        fields, and source positions carry over, and the total firing
        counts after ``advance(k1); advance(k2)`` equal a single cold
        run of ``k1 + k2`` outputs.
        """
        self._drive(self._returned + n, max_passes)
        return self._take(n)

    #: Per-pass cap on greedy source firings (keeps an accidentally
    #: unbounded source inside a push graph from spinning forever in a
    #: single pass; finite sources stop at exhaustion anyway).
    _GREEDY_SOURCE_BLOCK = 1 << 16

    def drain_available(self, max_passes: int = 10_000_000) -> np.ndarray:
        """Greedily fire everything the fed input admits; return the new
        outputs.  Used by ``StreamSession.push``: no output target, no
        deadlock — the loop simply stops when the finite sources run
        dry and the graph is quiescent.  Sources fire in blocks (valid
        at quiescence targets: SDF confluence makes the totals
        independent of feed granularity)."""
        progress = True
        passes = 0
        while progress:
            passes += 1
            self._passes += 1
            if passes > max_passes:
                raise InterpError("executor pass limit exceeded")
            self._drain(math.inf)
            progress = False
            for node in self._sources:
                for _ in range(self._GREEDY_SOURCE_BLOCK):
                    try:
                        node.fire(self.profiler)
                    except IndexError:
                        break  # finite source exhausted
                    progress = True
        return self._take(self.produced() - self._returned)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def run_graph(stream: Stream, n_outputs: int,
              profiler: Profiler | None = None, *,
              backend: str = "compiled",
              optimize: str = "none") -> list[float]:
    """Run a complete (void->void or void->float) program graph.

    ``optimize`` rewrites the graph with the paper's optimization passes
    first (``none`` | ``linear`` | ``freq`` | ``auto`` — see
    :func:`repro.exec.optimize.optimize_stream`); under the ``plan``
    backend the rewrite and the compiled plan are cached across calls
    by graph content.

    One-shot wrapper over :class:`repro.session.StreamSession` — the
    session API (``repro.compile``) is the way in when the plan should
    be compiled once and amortized across many calls, and it returns
    ``np.ndarray``.
    """
    from ..session import StreamSession  # deferred: session imports us
    session = StreamSession(stream, backend=backend, optimize=optimize,
                            profiler=profiler, _program_mode=True)
    return session.run(n_outputs).tolist()


def run_stream(stream: Stream, inputs, n_outputs: int,
               profiler: Profiler | None = None, *,
               backend: str = "compiled",
               optimize: str = "none") -> list[float]:
    """Run a float->float ``stream`` on ``inputs``; collect ``n_outputs``.

    The program run is ``ListSource(inputs)`` + ``stream`` +
    :class:`~repro.runtime.builtins.Collector`.
    """
    program = Pipeline([ListSource(inputs), stream, Collector()],
                       name="harness")
    return run_graph(program, n_outputs, profiler, backend=backend,
                     optimize=optimize)


def count_ops(stream: Stream, n_outputs: int, inputs=None,
              backend: str = "compiled",
              optimize: str = "none") -> Profiler:
    """Run and return the profiler (FLOP counts) for ``n_outputs`` outputs."""
    profiler = Profiler()
    if inputs is None:
        run_graph(stream, n_outputs, profiler, backend=backend,
                  optimize=optimize)
    else:
        run_stream(stream, inputs, n_outputs, profiler, backend=backend,
                   optimize=optimize)
    return profiler


def sanity_check_schedulable(stream: Stream) -> None:
    """Raise if the stream has no steady-state schedule."""
    try:
        steady_state(stream)
    except Exception as exc:  # re-raise with context
        raise StreamGraphError(
            f"stream {stream.name} is not schedulable: {exc}") from exc
