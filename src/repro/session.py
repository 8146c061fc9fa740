"""Compile-once streaming sessions: the :class:`StreamSession` API.

The paper's premise is that linear analysis pays off when a plan is
built once and amortized over many firings.  ``run_graph`` replans,
re-flattens, and re-fills sources on every call; a session compiles the
program once and then advances it incrementally — a stream program is a
state-carrying homomorphism, so the natural API is a persistent object
that consumes input chunks and advances carried state, not a batch
function.

Entry point::

    import repro

    session = repro.compile(program, backend="plan", optimize="auto")
    first = session.run(4096)      # np.ndarray — resumable
    more = session.run(4096)       # continues the stream
    print(session.profile.counts.flops)

Every session's outputs leave through one sink: the program's
:class:`~repro.runtime.builtins.Collector` (or its output channel),
whose output ring belongs to the live executor, stores in the policy
dtype, and is *popped* by every ``run``/``push``.  A session retains one
call of output and its carried filter state — never the stream — pull
and push alike.

Float->float graphs (no source of their own) compile into a *push*
session: an ndarray-native harness (:class:`~repro.runtime.builtins.
ChunkSource` feeding the graph, a ``Collector`` at the sink) is injected
internally, and input arrives incrementally.  Both harness nodes are
stateless; ``feed`` writes into the executor's feed ring, so a push
session also holds at most one chunk of input::

    fir = repro.compile(low_pass_filter(1.0, math.pi / 3, 256))
    for chunk in chunks:                # any chunk sizes
        out = fir.push(chunk)           # np.ndarray of completed outputs

**State-carry semantics.**  Consecutive ``run``/``push`` calls continue
the stream exactly where it stopped: channel occupancy (peek lookahead
windows), stateful filter fields, state-space carries ``s``, FFT partial
sums, and feedback-island delay rings all persist, and total firing
counts — therefore FLOP counts — after any sequence of advances equal a
single batch run of the same total.  ``reset()`` rewinds to the initial
state without recompiling; the compiled plan itself is immutable.

**Cache pinning.**  A plan-backend session holds its
:class:`~repro.exec.cache.PlanEntry` directly: repeated ``run``/``push``
calls never touch the plan cache (zero replanning, zero
re-fingerprinting), and mutating a filter's coefficient array in place
after ``compile`` does *not* invalidate the session — the plan is
pinned to the coefficients it was compiled with (kernels copied them at
compile time).  A fresh ``repro.compile`` of the mutated graph misses
the cache and recompiles, exactly like ``run_graph``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (ChunkDtypeError, CompileOptionError,
                     SessionClosedError, StreamGraphError)
from .graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                            PrimitiveFilter, SplitJoin, Stream)
from .numeric import NumericPolicy, resolve_policy
from .profiling import Profiler
from .runtime.builtins import ChunkSource, Collector, ListSource
from .runtime.executor import FlatGraph

__all__ = ["StreamSession", "SessionSnapshot", "compile"]


@dataclass(frozen=True)
class SessionSnapshot:
    """A checkpoint of a :class:`StreamSession`: its state, copied.

    The plan is shared, and a session's state *is* its checkpoint, so
    a snapshot is O(state) however long the session has streamed: the
    executor's (a plan executor's integer half — occupancies, phases,
    source budgets, counters — and float half — ring contents, carries,
    FFT partials, runner fields, source positions), the items produced
    and fed, and the profile.  It ``fits`` sessions of its backend,
    optimize mode, dtype and executor layout (rings, step kinds).
    """

    fits: tuple
    state: tuple
    produced: int
    fed: int
    profile: Profiler | None


# ---------------------------------------------------------------------------
# Boundary-rate detection (mirrors FlatGraph._flatten's channel wiring)
# ---------------------------------------------------------------------------


def _consumes_external_input(s: Stream) -> bool:
    """Whether the flattened graph would read the graph input channel."""
    if isinstance(s, Filter):
        # exact mirror of FlatGraph._flatten's wiring: prework rates are
        # deliberately not consulted, because the flattener wires no
        # input channel for them either (a filter whose steady work has
        # pop=peek=0 but whose prework pops is unexecutable everywhere)
        return bool(s.pop or s.peek)
    if isinstance(s, PrimitiveFilter):
        return bool(s.peek or s.pop or s.init_peek or s.init_pop)
    if isinstance(s, Pipeline):
        return _consumes_external_input(s.children[0])
    if isinstance(s, SplitJoin):
        # a splitter nominally reads the boundary channel, but when every
        # branch starts with its own source (Radar's antenna bank) the
        # split output dangles and the program needs no external input
        if not any(_consumes_external_input(c) for c in s.children):
            return False
        if isinstance(s.splitter, Duplicate):
            return True
        return sum(s.splitter.weights) > 0
    if isinstance(s, FeedbackLoop):
        return s.joiner.weights[0] > 0
    raise TypeError(f"cannot analyze {s!r}")


def _produces_output(s: Stream) -> bool:
    """Whether the flattened graph would wire an output channel."""
    if isinstance(s, Filter):
        return bool(s.push or (s.prework and s.prework.push))
    if isinstance(s, PrimitiveFilter):
        return bool(s.push or s.init_push)
    if isinstance(s, Pipeline):
        return _produces_output(s.children[-1])
    # SplitJoin joiners and FeedbackLoop splitters always wire an output
    return True


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class StreamSession:
    """A compiled stream program with incremental ndarray push/pull.

    Build with :func:`repro.compile`.  All three backends share the
    interface; only the execution strategy differs:

    * ``run(n)`` — produce the *next* ``n`` outputs (complete programs,
      or push sessions with enough fed input).
    * ``push(chunk)`` — feed a chunk and return every output it
      completes (push sessions only).
    * ``feed(chunk)`` — feed without draining (pair with ``run``).
    * ``reset()`` — rewind the stream without recompiling.
    * ``report()`` — the plan's kernel choices (no re-planning).
    * ``profile`` — the session's cumulative :class:`Profiler`.
    """

    def __init__(self, stream: Stream, *, backend: str = "plan",
                 optimize: str = "none", profiler: Profiler | None = None,
                 dtype=None, workers: int = 1,
                 _program_mode: bool | None = None):
        from .exec.optimize import OPTIMIZE_MODES
        if backend not in ("interp", "compiled", "plan"):
            raise CompileOptionError("backend", backend,
                                     ("interp", "compiled", "plan"))
        if optimize not in OPTIMIZE_MODES:
            raise CompileOptionError("optimize", optimize, OPTIMIZE_MODES)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and backend != "plan":
            raise ValueError(
                f"workers={workers} requires backend='plan': the "
                f"scalar {backend!r} backend has no parallel engine")
        #: worker-process count for the parallel plan executor (1 =
        #: serial in-process execution, the default)
        self.workers = workers
        #: the session's :class:`~repro.numeric.NumericPolicy` — dtype of
        #: inputs/outputs/kernels plus the differential tolerance contract
        self.policy: NumericPolicy = resolve_policy(dtype)
        self.stream = stream
        self._closed = False
        self.backend = backend
        self.optimize = optimize
        self._profiler = profiler
        self._produced_total = 0

        if _program_mode is None:
            program_mode = not _consumes_external_input(stream)
        else:
            program_mode = _program_mode
        #: whether input arrives through feed/push (a float->float
        #: graph) and how many items have been fed since the last reset
        self._push_mode = not program_mode
        self._fed = 0
        if program_mode:
            self._program = stream
        else:
            parts = [ChunkSource(dtype=self.policy.dtype), stream]
            if _produces_output(stream):
                parts.append(Collector())
            self._program = Pipeline(
                parts, name=f"{getattr(stream, 'name', 'stream')}.session")

        self._entry = None
        self._optimized = None  # scalar backends: the rewritten program
        self._executor = self._build_executor()
        if self._push_mode:
            self._check_push_sources()  # before the pin: it may refuse
        if self._entry is not None:
            self._entry.acquire()

    # -- compilation -------------------------------------------------------
    def _build_executor(self):
        """An initial-state executor: the plan is compiled once, then
        instantiated; a scalar rewrite is made once, then flattened."""
        if self.backend == "plan":
            from .exec.planner import compiled_plan_for, instantiate
            if self._entry is not None:
                return instantiate(self._entry, self._profiler)
            executor, self._entry = compiled_plan_for(
                self._program, self._profiler, optimize=self.optimize,
                dtype=self.policy, workers=self.workers)
            return executor
        if self._optimized is None:
            program = self._program
            if self.optimize != "none":
                from .exec.optimize import optimize_stream
                program = optimize_stream(program, self.optimize,
                                          policy=self.policy)
            self._optimized = program
        return FlatGraph(self._optimized, self._profiler, self.backend,
                         dtype=self.policy.dtype)

    def _check_push_sources(self) -> None:
        """Reject push graphs with internal *unbounded* sources.

        ``push`` drains greedily until the fed input runs dry; a source
        the input does not bound (``FunctionSource``, an IR source
        filter, a constant source) never runs dry, so the drain would
        spin and grow channels instead of quiescing.  Such graphs are
        still runnable as complete programs via ``run_graph`` /
        pull-mode ``compile``.
        """
        flat = getattr(self._executor, "flat", self._executor)
        for node in flat.nodes:
            if node.inputs:
                continue
            if isinstance(node.stream, (ChunkSource, ListSource)):
                continue  # the harness feed / a finite source
            raise StreamGraphError(
                f"stream {getattr(self.stream, 'name', '?')} contains "
                f"unbounded source {node.name}: greedy push drains can "
                "never quiesce — compile it as a complete program "
                "instead")

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the session is unusable)."""
        return self._closed

    def close(self) -> None:
        """Release the session's compiled resources; idempotent.

        Unpins the held :class:`~repro.exec.cache.PlanEntry` (so the plan
        cache's LRU may evict it once no live session holds it), drops
        the executor with its feed and output rings, and marks the
        session closed —
        every subsequent ``run``/``push``/``feed``/``reset`` raises
        :class:`~repro.errors.SessionClosedError`.  Long-lived processes
        (servers, pools) that compile many graphs must close sessions
        they retire, or every plan ever compiled stays resident.
        """
        if self._closed:
            return
        self._closed = True
        if self._entry is not None:
            self._entry.release()
            self._entry = None
        if self._executor is not None:
            # the parallel executor retires worker caches and unlinks
            # shared memory here; other executors have no-op/absent close
            getattr(self._executor, "close", lambda: None)()
        self._executor = None
        self._optimized = None

    def __enter__(self) -> "StreamSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                f"session over {getattr(self.stream, 'name', '?')} is "
                "closed")

    # -- introspection -----------------------------------------------------
    @property
    def profile(self) -> Profiler | None:
        """Cumulative FLOP counts across every run/push of this session."""
        return self._profiler

    @property
    def cache_entry(self):
        """The pinned :class:`~repro.exec.cache.PlanEntry` (plan backend)."""
        return self._entry

    @property
    def bailout(self) -> str | None:
        """Why the plan backend fell back to scalar execution, if it did."""
        if self._entry is not None and self._entry.bailout is not None:
            return self._entry.bailout
        return None

    @property
    def consumed(self) -> int:
        """Items of fed input the graph has consumed (push sessions)."""
        return self._fed - self.pending_input

    @property
    def outputs_produced(self) -> int:
        """Total outputs this session has returned so far."""
        return self._produced_total

    @property
    def pending_input(self) -> int:
        """Items fed but not yet consumed (push sessions) — the
        quantity a server bounds for backpressure."""
        if not self._push_mode:
            raise StreamGraphError(
                "consumed and pending_input are only defined for push "
                "sessions")
        return 0 if self._closed else len(self._executor.feed.buffer)

    @property
    def buffers(self) -> tuple[int, int]:
        """``(in, out)``: the items of storage this session holds for
        stream data — the live executor's feed ring and its sink
        (allocated capacity).  Both stay bounded however long a session
        streams, pull or push."""
        return self._executor.buffers() if self._executor else (0, 0)

    def report(self):
        """The plan's kernel choices for this program (no re-planning
        for live plan sessions; advisory for scalar sessions), with the
        session's :attr:`buffers` as its footer."""
        from .exec.planner import (PlanExecutor, PlanReport, plan_report,
                                   report_for_executor)
        self._check_open()
        name = getattr(self.stream, "name", "?")
        if isinstance(self._executor, PlanExecutor):
            rep = report_for_executor(self._executor, name, self.optimize)
        elif self.bailout is not None:
            rep = PlanReport(program=name, optimize=self.optimize,
                             bailout=self.bailout)
        else:
            rep = plan_report(self._program, self.optimize)
        rep.buffers = self.buffers
        return rep

    # -- execution ---------------------------------------------------------
    def run(self, n: int) -> np.ndarray:
        """Produce and return the next ``n`` outputs.

        Resumable: consecutive calls continue the stream, and the total
        work after ``run(k1); run(k2)`` is identical — values and FLOP
        counts — to one ``run(k1 + k2)``.  On a push session this
        consumes previously fed input and raises the executor's deadlock
        error when not enough has been fed.

        Outputs are returned in the session's policy dtype (float64
        unless ``compile(..., dtype=...)`` said otherwise): the sink
        stores in it.  Scalar backends evaluate in Python floats and
        cast on the way into the sink; the plan backend computed
        natively in the policy dtype.
        """
        self._check_open()
        out = self._executor.advance(n)
        self._produced_total += n
        return out

    def feed(self, chunk) -> int:
        """Feed input without draining; returns the item count added.

        Chunks must be numeric data castable to the session dtype
        (float/int/bool, plus complex under a complex policy); string,
        object, and real-policy-rejected complex dtypes raise
        :class:`~repro.errors.ChunkDtypeError`.
        """
        self._check_open()
        if not self._push_mode:
            raise StreamGraphError(
                f"stream {getattr(self.stream, 'name', '?')} has its own "
                "sources; feed/push apply to float->float sessions only")
        count = self._executor.feed.feed(chunk)
        self._fed += count
        return count

    def push(self, chunk) -> np.ndarray:
        """Feed a chunk and return every output it completes.

        Chunking is semantically invisible: pushing an input split into
        arbitrary chunks produces bitwise-identical outputs and FLOP
        counts to pushing it whole.
        """
        self.feed(chunk)
        out = self._executor.drain_available()
        self._produced_total += len(out)
        return out

    def _rebuild_executor(self) -> None:
        """Swap in a fresh initial-state executor (reset/restore core)."""
        if self._executor is not None:
            getattr(self._executor, "close", lambda: None)()
        self._executor = self._build_executor()
        self._produced_total = 0
        self._fed = 0

    def reset(self) -> None:
        """Rewind the stream to its initial state without recompiling.

        Channel occupancy, filter state, island rings, and source
        positions reset; the compiled plan (and its pinned cache entry)
        is reused as-is.  The cumulative profile is kept.
        """
        self._check_open()
        self._rebuild_executor()

    # -- checkpoint / recovery ---------------------------------------------
    def _fits(self) -> tuple:
        return (self.backend, self.optimize, self.policy.name,
                self._executor.layout)

    def snapshot(self) -> SessionSnapshot:
        """A checkpoint of the current stream position: a copy of the
        session's state (:class:`SessionSnapshot`), O(state)."""
        self._check_open()
        if self.workers > 1:
            raise StreamGraphError("a workers > 1 session cannot snapshot: "
                                   "its runners live in worker processes")
        return SessionSnapshot(self._fits(), self._executor.state(),
                               self._produced_total, self._fed,
                               copy.deepcopy(self._profiler))

    def restore(self, snap: SessionSnapshot) -> None:
        """Rewind (or advance) to ``snap``: a fresh executor, built as
        :meth:`reset` builds one, takes up its state, the profile its
        copy; nothing is replayed.  A session ``snap`` does not fit
        raises :class:`~repro.errors.StreamGraphError`."""
        self._check_open()
        mine = self._fits()
        if snap.fits != mine:
            raise StreamGraphError(
                f"snapshot of a {'/'.join(snap.fits[:3])} session does not "
                f"fit this {'/'.join(mine[:3])} session: backend, optimize "
                "mode, dtype and executor layout must all match")
        self._rebuild_executor()
        self._executor.set_state(snap.state)
        self._produced_total, self._fed = snap.produced, snap.fed
        if self._profiler is not None and snap.profile is not None:
            vars(self._profiler).update(copy.deepcopy(vars(snap.profile)))


def compile(stream: Stream | str, *, top: str | None = None, args=(),
            backend: str = "plan",
            optimize: str = "none", profiler: Profiler | None = None,
            dtype=None, workers: int = 1) -> StreamSession:
    """Compile ``stream`` once into a resumable :class:`StreamSession`.

    ``stream`` is either a stream graph or DSL source text: a string
    parses and elaborates through the cached DSL frontend (``top``
    selects the stream to instantiate, default the last declared;
    ``args`` are its instantiation arguments).  Either way the plan
    cache keys on the graph's content
    (:func:`~repro.graph.identity.content_id`), so recompiling the same
    program — as text or as a rebuilt graph — hits it.

    ``backend`` is one of ``"interp"`` / ``"compiled"`` / ``"plan"``
    (default — the vectorized engine; graphs it cannot batch fall back
    to scalar execution inside the session, see ``session.bailout``).
    ``optimize`` is the pre-plan rewrite mode (``"none"`` | ``"linear"``
    | ``"freq"`` | ``"auto"``).  A complete program (it has its own
    sources) yields a *pull* session driven by ``session.run(n)``; a
    float->float graph yields a *push* session driven by
    ``session.push(chunk)``.  The session profiles into ``profiler``
    (default: a fresh :class:`Profiler`, exposed as
    ``session.profile``).

    ``dtype`` selects the session's numeric policy: ``"f64"`` (default),
    ``"f32"``, ``"c64"``, or ``"c128"`` (numpy dtypes and common aliases
    like ``"float32"`` also resolve).  Inputs are cast to it, outputs
    are returned in it, the plan backend allocates rings and computes
    kernels natively in it, and ``session.policy`` carries the matching
    comparison tolerances.

    ``workers`` > 1 (plan backend only) executes the compiled plan on
    the parallel engine: kernel regions are scheduled across a pool of
    worker processes over shared-memory rings, and profitable linear
    leaves are replicated data-parallel (:mod:`repro.parallel`).
    Outputs match ``workers=1`` within the policy's tolerances (bitwise
    on round-robin-fissioned and region-parallel paths) and FLOP
    accounting is exact.
    """
    if isinstance(stream, str):
        from .dsl import load_source
        stream = load_source(stream, top, *args)
    elif top is not None or args:
        raise TypeError("top/args only apply when compiling DSL source "
                        "text")
    if profiler is None:
        profiler = Profiler()
    return StreamSession(stream, backend=backend, optimize=optimize,
                         profiler=profiler, dtype=dtype, workers=workers)
