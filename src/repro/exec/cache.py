"""Plan caching: structural fingerprints and the compiled-plan cache.

Planning a graph is not free: the ``optimize=`` rewrite runs whole-graph
linear analysis (and possibly the selection DP), the planner probes every
IR filter for vectorizability (extraction + one interpreted firing), and
every feedback island is probed for its external rates.  For Radar this
planning work dominates the actual batched execution several times over.

The cache keys all of it on a **content fingerprint** of the stream
graph: a hash over the hierarchy (construct types, splitter/joiner
weights, feedback delays and enqueued values), each IR filter's printed
work/prework functions and field values, and each known primitive's
defining data (source values, linear-node matrices, FFT sizes).  Content
hashing means a *rebuilt* graph with identical coefficients hits the
cache, while mutating a field array in place changes the fingerprint and
cleanly invalidates the entry.

Values the fingerprinter cannot encode by content degrade in two
explicit ways:

* **identity-pin** — field values of unknown type hash by ``id()``; the
  entry pins the stream so the id cannot be recycled while it lives.
* **single-use** — opaque *callables* (``FunctionSource.fn``) and
  unknown primitives are snapshotted by content where possible (code
  bytes, closure cells, ``__dict__`` state); when no stable snapshot
  exists the whole fingerprint is flagged unstable and the entry is
  **not stored**: mutating such an object in place must never reuse a
  stale plan, so every run re-plans.

A :class:`PlanEntry` carries everything reusable across runs:

* the rewritten (post-``optimize``) stream,
* the whole-graph bailout verdict,
* per-node vectorization *decisions* (linear node + probed FLOP counts,
  or the fallback reason) so a cache hit skips extraction entirely,
* each feedback island's probed external rates.

Mutable execution state (ring buffers — a push session's feed and
output rings among them — fallback runners, profilers) and the firing
schedule are *never* in this cache; every run builds a fresh executor
around the shared immutable plan and drives it live.  The schedule is
per executor: :meth:`~repro.exec.planner.PlanExecutor._scheduled`
simulates a call once per integer state (O(nodes), whatever the
schedule's period) and replays it when the state recurs.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import faults as _faults
from ..graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                             PrimitiveFilter, RoundRobin, SplitJoin, Stream)
from ..ir.printer import work_to_str
from ..linear.extraction import clear_extraction_results
from ..numeric import DEFAULT_POLICY, NumericPolicy

_UNSET = object()  # bailout not yet computed


# ---------------------------------------------------------------------------
# Stable value tokens
# ---------------------------------------------------------------------------


def _stable_token(value, depth: int = 0) -> str | None:
    """A process-independent content encoding of ``value``, or None.

    ``repr`` is not safe as a fingerprint ingredient: default reprs
    embed memory addresses (rebuilt graphs miss; recycled addresses can
    alias) and ndarray/dict reprs truncate (distinct values collide).
    This encodes the types we can do exactly — tagged so ``1`` , ``1.0``
    and ``"1"`` stay distinct — and refuses the rest.
    """
    if depth > 8:
        return None
    if value is None or isinstance(value, (bool, int, float, complex,
                                           str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, np.generic):
        return f"np:{value.dtype.str}:{value.item()!r}"
    if isinstance(value, np.ndarray):
        return (f"arr:{value.dtype.str}:{value.shape}:"
                + value.tobytes().hex())
    if isinstance(value, (tuple, list)):
        items = [_stable_token(v, depth + 1) for v in value]
        if any(t is None for t in items):
            return None
        return f"{type(value).__name__}:[" + ",".join(items) + "]"
    if isinstance(value, dict):
        pairs = []
        for k, v in value.items():
            kt = _stable_token(k, depth + 1)
            vt = _stable_token(v, depth + 1)
            if kt is None or vt is None:
                return None
            pairs.append(f"{kt}={vt}")
        return "dict:{" + ",".join(sorted(pairs)) + "}"
    if isinstance(value, (set, frozenset)):
        items = [_stable_token(v, depth + 1) for v in value]
        if any(t is None for t in items):
            return None
        return f"{type(value).__name__}:{{" + ",".join(sorted(items)) + "}"
    return None


def _code_token(code, depth: int = 0) -> str | None:
    consts = []
    for c in code.co_consts:
        if isinstance(c, types.CodeType):  # nested lambda/function
            t = _code_token(c, depth + 1)
        else:
            t = _stable_token(c, depth + 1)
        if t is None:
            return None
        consts.append(t)
    return (f"code:{code.co_code.hex()}:[" + ",".join(consts) + "]:"
            + ",".join(code.co_names))


def _ref_token(value, depth: int) -> str | None:
    """Token for a value a function *references* (global or closure):
    plain data, a module (stable by name), or another callable."""
    t = _stable_token(value, depth)
    if t is not None:
        return t
    if isinstance(value, types.ModuleType):
        return f"module:{value.__name__}"
    return _callable_token(value, depth)


def _globals_token(fn: types.FunctionType, depth: int) -> str | None:
    """Snapshot of the module globals ``fn``'s code actually reads.

    Identical code bytes reading different globals (``GAIN = 1.0`` in
    one module, ``100.0`` in another) must not collide, so every
    ``co_names`` entry bound in ``fn.__globals__`` — including names
    referenced from nested code objects — joins the fingerprint.
    Builtins and pure attribute names are absent from ``__globals__``
    and are skipped.
    """
    names: set[str] = set()

    def collect(code):
        names.update(code.co_names)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                collect(const)

    collect(fn.__code__)
    parts = []
    for name in sorted(names):
        if name not in fn.__globals__:
            continue
        t = _ref_token(fn.__globals__[name], depth + 1)
        if t is None:
            return None
        parts.append(f"{name}={t}")
    return "{" + ",".join(parts) + "}"


def _callable_token(fn, depth: int = 0) -> str | None:
    """Content snapshot of a callable including its mutable state
    (closure cells, defaults, referenced globals, bound instance
    state), or None when no stable snapshot exists."""
    if depth > 4:
        return None
    if isinstance(fn, types.BuiltinFunctionType):
        base = f"builtin:{getattr(fn, '__module__', '')}.{fn.__qualname__}"
        self_obj = getattr(fn, "__self__", None)
        if self_obj is None or isinstance(self_obj, types.ModuleType):
            return base  # math.sin and friends: stable by name
        # bound builtin (d.__getitem__): the receiver IS the state
        t = _stable_token(self_obj, depth + 1)
        if t is None:
            return None
        return f"{base}:{t}"
    if isinstance(fn, functools.partial):
        inner = _callable_token(fn.func, depth + 1)
        args = _stable_token(fn.args, depth + 1)
        kw = _stable_token(fn.keywords, depth + 1)
        if inner is None or args is None or kw is None:
            return None
        return f"partial:{inner}:{args}:{kw}"
    if isinstance(fn, types.MethodType):
        inner = _callable_token(fn.__func__, depth + 1)
        self_state = _stable_token(getattr(fn.__self__, "__dict__", None),
                                   depth + 1)
        if inner is None or self_state is None:
            return None
        return (f"method:{type(fn.__self__).__qualname__}:"
                f"{inner}:{self_state}")
    if isinstance(fn, types.FunctionType):
        code = _code_token(fn.__code__)
        if code is None:
            return None
        defaults = _stable_token(fn.__defaults__, depth + 1)
        kwdefaults = _stable_token(fn.__kwdefaults__, depth + 1)
        globals_tok = _globals_token(fn, depth)
        if defaults is None or kwdefaults is None or globals_tok is None:
            return None
        cells = []
        for cell in fn.__closure__ or ():
            try:
                t = _ref_token(cell.cell_contents, depth + 1)
            except ValueError:  # empty cell
                t = "cell:empty"
            if t is None:
                return None
            cells.append(t)
        return (f"fn:{code}:{defaults}:{kwdefaults}:{globals_tok}:["
                + ",".join(cells) + "]")
    return None


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


class _Fingerprinter:
    """Accumulates the digest plus the *stability* verdict.

    ``single_use`` flips when some reachable state had to be hashed by
    object identity *and* could be mutated invisibly (opaque callables,
    unknown primitives without a snapshotable ``__dict__``): such a
    fingerprint is only valid for the very run that computed it.
    """

    def __init__(self):
        self.h = hashlib.blake2b(digest_size=16)
        self.single_use = False

    def _u(self, *parts) -> None:
        for p in parts:
            self.h.update(str(p).encode())
            self.h.update(b"\x1f")

    def _array(self, arr) -> None:
        arr = np.asarray(arr)
        self._u(arr.dtype.str, arr.shape)
        self.h.update(arr.tobytes())

    def _fields(self, fields: dict) -> None:
        for key in sorted(fields):
            value = fields[key]
            if isinstance(value, np.ndarray):
                self._u("arr", key)
                self._array(value)
                continue
            token = _stable_token(value)
            if token is not None:
                self._u("val", key, token)
            else:
                # identity-pin: the entry pins the stream, so the id
                # cannot be recycled while the entry lives
                self._u("pin", key, id(value))

    def _linear_node(self, node) -> None:
        self._u("node", node.peek, node.pop, node.push)
        for arr in (node.A, node.b, node.As, node.Cx, node.Cs, node.bs,
                    node.s0):
            self._array(arr)

    def _primitive(self, s: PrimitiveFilter) -> None:
        # imports deferred: these modules import graph machinery themselves
        from ..frequency.filters import Decimator, _FreqBase
        from ..linear.filters import ConstantSourceFilter, LinearFilter
        from ..runtime.builtins import (ArrayCollector, ChunkSource,
                                        Collector, FunctionSource, Identity,
                                        ListSource)

        self._u(s.peek, s.pop, s.push, s.init_peek, s.init_pop, s.init_push)
        if isinstance(s, (ChunkSource, ArrayCollector)):
            # a push harness: the feed and output rings are runner
            # state, so the node is its type, rates and dtype
            self._u(s.dtype.str)
        elif isinstance(s, ListSource):
            self._array(np.asarray(s.values, dtype=float))
        elif isinstance(s, ConstantSourceFilter):
            self._array(s.values)
        elif isinstance(s, FunctionSource):
            token = _callable_token(s.fn)
            if token is not None:
                self._u("fn", token)
            else:
                self._u("fn-id", id(s.fn))
                self.single_use = True
        elif isinstance(s, LinearFilter):
            self._u(s.backend)
            self._linear_node(s.linear_node)
        elif isinstance(s, _FreqBase):
            self._u(s.backend, s.n)
            self._linear_node(s.linear_node_time_domain)
        elif isinstance(s, (Decimator, Identity, Collector)):
            pass  # fully described by type + rates
        else:
            node = getattr(s, "linear_node", None)
            if node is not None:  # e.g. redundancy-elimination filters
                self._linear_node(node)
                return
            # unknown primitive: snapshot its instance state by content
            state = _stable_token(getattr(s, "__dict__", None))
            if state is not None:
                self._u("prim", type(s).__qualname__, state)
            else:
                self._u("id", id(s))
                self.single_use = True

    def stream(self, s: Stream) -> None:
        cached = getattr(s, "_source_fingerprint", None)
        if cached is not None:
            # DSL-loaded (a whole program, or a push session's body
            # inside its harness): the source digest stands in for the walk
            self.h.update(cached[0])
            self.single_use |= cached[1]
            return
        self._u(type(s).__name__, getattr(s, "name", ""))
        if isinstance(s, Filter):
            self._u(work_to_str(s.work),
                    work_to_str(s.prework) if s.prework is not None else "-",
                    sorted(s.mutable_fields))
            self._fields(s.fields)
        elif isinstance(s, PrimitiveFilter):
            self._primitive(s)
        elif isinstance(s, Pipeline):
            self._u(len(s.children))
            for c in s.children:
                self.stream(c)
        elif isinstance(s, SplitJoin):
            self._u(str(s.splitter), str(s.joiner), len(s.children))
            for c in s.children:
                self.stream(c)
        elif isinstance(s, FeedbackLoop):
            self._u(str(s.joiner), str(s.splitter), s.delay, s.enqueued)
            self.stream(s.body)
            self.stream(s.loop)
        else:
            raise TypeError(f"cannot fingerprint {s!r}")


def fingerprint_stream(stream: Stream) -> tuple[bytes, bool]:
    """(content digest, single_use) of a stream graph.

    Graphs elaborated from DSL source via the fingerprinting loader
    carry a precomputed ``_source_fingerprint`` — the digest of the
    (source text, top, args) triple — which short-circuits the walk
    wherever it appears: the source text *is* the cache key, so
    recompiling the same program hits the plan cache without re-hashing
    the graph.
    """
    fp = _Fingerprinter()
    fp.stream(stream)
    return fp.h.digest(), fp.single_use


def stream_fingerprint(stream: Stream) -> bytes:
    """Content digest of a stream graph (structure + coefficients)."""
    return fingerprint_stream(stream)[0]


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class PlanEntry:
    """Immutable plan artifacts shared by every run of one (graph, mode).

    The fingerprint covers source *values* (a ``ListSource``'s data feeds
    the outputs and the exhaustion schedule, and ``entry.optimized``
    embeds the first caller's source objects), so sharing is only safe
    between content-identical graphs; ``run_stream`` with per-call-unique
    inputs therefore misses by design, bounded by the LRU.
    """

    pin: Stream  # keeps id()-fingerprinted objects alive
    optimized: Stream | None = None
    bailout: object = _UNSET  # str | None once computed
    #: node index -> (LinearNode, Counts) or (None, reason)
    decisions: dict | None = None
    #: feedback-region start index -> IslandRates (probe results)
    islands: dict | None = None
    #: live holders (sessions) of this entry; pinned entries survive the
    #: cache's LRU trim so a long-lived session's plan is never dropped
    #: out from under it while recompiles churn the cache
    pins: int = 0
    #: numeric policy the plan was built for; part of the cache key (a
    #: float32 plan's rings and spectra must never serve a float64 run)
    policy: NumericPolicy = DEFAULT_POLICY
    #: worker count the plan was built for; part of the cache key — a
    #: ``workers=4`` entry's ``optimized`` graph embeds fission replicas
    #: a serial run must never execute
    workers: int = 1

    def acquire(self) -> "PlanEntry":
        """Register a live holder (a session); pairs with :meth:`release`."""
        self.pins += 1
        return self

    def release(self) -> None:
        """Drop one holder registration (``StreamSession.close``)."""
        if self.pins > 0:
            self.pins -= 1


class PlanCache:
    """LRU cache of :class:`PlanEntry` keyed by
    (fingerprint, optimize, dtype).

    Structure mutations hold a lock — the serving layer compiles on
    worker threads against this one shared cache.  Entry *contents*
    (optimized graph, decisions, ...) are filled in lock-free by
    ``compiled_plan_for``; concurrent fillers of one entry compute
    equivalent values, so last-writer-wins is benign.
    """

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def entry_for(self, stream: Stream, optimize: str,
                  policy: NumericPolicy = DEFAULT_POLICY,
                  workers: int = 1) -> PlanEntry:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("cache.lookup")
        digest, single_use = fingerprint_stream(stream)
        with self._lock:
            key = (digest, optimize, policy.name, workers)
            if single_use:
                # unsnapshotable mutable state reachable: never store (a
                # later in-place mutation would replay a stale plan), and
                # drop any entry a pre-fix fingerprint may have left behind
                self.misses += 1
                self._entries.pop(key, None)
                return PlanEntry(pin=stream, policy=policy,
                                 workers=workers)
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
            entry = PlanEntry(pin=stream, policy=policy, workers=workers)
            self._entries[key] = entry
            self._trim()
            return entry

    def _trim(self) -> None:
        """Evict least-recently-used *unpinned* entries past the cap
        (caller holds the lock).

        Entries held by live sessions (``pins > 0``) are skipped: the
        session owns a direct reference anyway, so dropping the cache
        slot would only force the next content-identical compile to
        rebuild a plan that is still resident.  When every entry is
        pinned the cache temporarily exceeds ``max_entries``.
        """
        excess = len(self._entries) - self.max_entries
        if excess <= 0:
            return
        for key in [k for k, e in self._entries.items() if e.pins <= 0]:
            del self._entries[key]
            excess -= 1
            if excess <= 0:
                return

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide cache used by ``run_graph(..., backend="plan")``.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict:
    """Hit/miss/entry counters of the global plan cache."""
    return PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Drop every cached plan, and the extraction results plans are
    built from (test isolation, coefficient sweeps)."""
    PLAN_CACHE.clear()
    clear_extraction_results()
