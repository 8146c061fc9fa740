"""Stream identity: the one answer to "is this the same program?".

Linear extraction (§3.1) is a pure function of a filter's work function
and its constant fields, so two filters that are the same program are
the same thing to every reader: the plan cache and the serve pool
(:func:`content_id`), the extractor's memo (:func:`value_digest`), and
the lane-code memo and sibling fusion (:func:`shape_digest`).

A leaf's **shape** is its work and prework code, which fields ``work``
writes, and each field's name and type.  Code is immutable, so its
digest is taken once (:attr:`~repro.ir.nodes.WorkFunction.digest`).
Siblings that fuse are one shape over other state values (Hou et al.,
*Stream programs are monoid homomorphisms with state*).  Its **values**
are hashed on every call: a field array mutated in place must change
the digest.  :func:`content_id` extends that over a graph — construct
types and names, router weights, feedback delays and enqueued values,
each known primitive's defining data — so a rebuilt graph with equal
coefficients, from DSL text or not, has the same id.

Values not encodable by content degrade explicitly.  A field value of
unknown type hashes by ``id()`` (*identity-pin*): a plan-cache entry
pins its stream so the id is not recycled while it lives, and
:func:`value_digest` answers None.  Opaque callables and unknown
primitives are snapshotted by content (code bytes, closure cells,
``__dict__``) where possible; otherwise the id is *single-use* and the
plan cache never stores it, so an in-place mutation cannot replay a
stale plan.
"""

from __future__ import annotations

import functools
import hashlib
import types

import numpy as np

from .streams import (FeedbackLoop, Filter, Pipeline, PrimitiveFilter,
                      SplitJoin, Stream)

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
# Digests
# ---------------------------------------------------------------------------


class _Digest:
    """A digest, ``pinned`` if a field value was hashed by identity and
    ``single_use`` if state no snapshot can see was (the id is then
    valid for one run only)."""

    def __init__(self):
        self.h = hashlib.blake2b(digest_size=16)
        self.pinned = False
        self.single_use = False

    def _u(self, *parts) -> None:
        for p in parts:
            self.h.update(str(p).encode())
            self.h.update(b"\x1f")

    def _array(self, arr) -> None:
        arr = np.asarray(arr)
        self._u(arr.dtype.str, arr.shape)
        self.h.update(arr.tobytes())

    def shape(self, filt: Filter) -> None:
        self.h.update(filt.work.digest)
        self.h.update(b"-" if filt.prework is None else filt.prework.digest)
        self._u(sorted(filt.mutable_fields), sorted(
            (k, v.dtype.str if isinstance(v, np.ndarray)
             else type(v).__name__) for k, v in filt.fields.items()))

    def values(self, fields: dict) -> None:
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
                self._u("pin", key, id(value))
                self.pinned = True

    def _linear_node(self, node) -> None:
        self._u("node", node.peek, node.pop, node.push)
        for arr in (node.A, node.b, node.As, node.Cx, node.Cs, node.bs,
                    node.s0):
            self._array(arr)

    def _primitive(self, s: PrimitiveFilter) -> None:
        # imports deferred: these modules import graph machinery themselves
        from ..frequency.filters import Decimator, _FreqBase
        from ..linear.filters import ConstantSourceFilter, LinearFilter
        from ..runtime.builtins import (ChunkSource, Collector,
                                        FunctionSource, Identity, ListSource)

        self._u(s.peek, s.pop, s.push, s.init_peek, s.init_pop, s.init_push)
        if isinstance(s, ChunkSource):
            # a push harness: the feed ring is runner state, so the
            # node is its type, rates and dtype
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
            pass  # fully described by type + rates (a sink's ring is
            # runner state, in the executor's dtype)
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
        self._u(type(s).__name__, getattr(s, "name", ""))
        if isinstance(s, Filter):
            self.shape(s)
            self.values(s.fields)
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


def shape_digest(filt: Filter) -> bytes:
    """The code of a leaf filter and the names and types of its fields —
    never a field's value: what lane emission reads, and what siblings
    that fuse share."""
    d = _Digest()
    d.shape(filt)
    return d.h.digest()


def value_digest(filt: Filter) -> bytes | None:
    """The shape plus the field values: all that extraction reads.  None
    when a value could only be hashed by identity (its id may be
    recycled once the filter is gone)."""
    d = _Digest()
    d.shape(filt)
    d.values(filt.fields)
    return None if d.pinned else d.h.digest()


def content_id(stream: Stream) -> tuple[bytes, bool]:
    """(value digest, single_use) of a stream graph: the plan-cache and
    serve-pool key.  ``single_use`` ids must not be stored."""
    d = _Digest()
    d.stream(stream)
    return d.h.digest(), d.single_use
