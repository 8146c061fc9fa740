"""Linear extraction: dataflow analysis over work-function IR.

Implements the thesis' Algorithms 1 and 2 (§3.2): a flow-sensitive forward
symbolic execution that tracks, for every program variable, a linear form
``(v, c)`` meaning *value = x·v + c* in terms of the input items.  All loop
iterations are executed symbolically (loop bounds in filter work functions
are small compile-time constants); branches on non-constant conditions are
executed on both sides and joined with the confluence operator.

Deviations from the thesis pseudocode:

* Branch conditions that evaluate to constants take the known side only
  (strictly more precise, identical soundness).
* Filter fields that ``work`` never writes are treated as compile-time
  constants (the values computed by ``init``).
* Fields written in ``work`` are persistent state.  The thesis makes them
  ⊤; here each scalar of one is a symbolic component ``s_j`` appended to
  ``x`` (the §7.1 extension), so pushes yield rows of ``[A | As] + b``
  and the fields' final values rows of ``[Cx | Cs] + bs``.  **A state
  slot is kept iff it is observable** — it reaches a push through
  ``As``, directly or via the ``Cs`` of a slot that does.  An
  unobservable slot is dropped whatever its update (a filter all of
  whose state is dead is the thesis' stateless node, ``k = 0``); an
  observable slot whose update is not affine rejects the filter.

On success, extraction yields the filter's :class:`LinearNode`; on failure
it records a human-readable reason (`ExtractionResult.reason`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonLinearError
from ..graph.streams import Filter, PrimitiveFilter, Stream
from ..ir import nodes as N
from .lattice import BOTTOM, TOP, LinearForm, constant_of, join_env
from .node import LinearNode

#: statements one extraction may execute symbolically before it gives
#: up.  The largest app filter (Vocoder's ``CorrPeak``) runs 5 554;
#: exhausting the budget — ``for i<1100 { for j<1100 { s = s + 1.0 } }``
#: arriving over serve ``OPEN`` — is the worst case and costs 0.8-0.9 s
#: on the 2-vCPU box this was measured on (6.3-6.8 s when every constant
#: carried a vector), and ends in a rejection, not an exception.
_MAX_SYMBOLIC_ITERS = 1_000_000

#: floats an extractor may keep in unit vectors it has already built
#: (128 KiB): ``CorrPeak`` peeks each of 100 positions 100 times, FIR(256)
#: each of 256 once — and 256 kept vectors of 256 would be 512 KiB of
#: peak RSS for nothing
_UNIT_CACHE_FLOATS = 1 << 14


@dataclass
class _State:
    """Mutable symbolic execution state (Algorithm 2's tuple)."""

    env: dict  # variable -> number | LinearForm | TOP | list of those
    A: list  # per push column: its vec_dim coefficients, or BOTTOM
    b: list
    popcount: int
    pushcount: int

    def copy(self) -> "_State":
        env = {}
        for k, v in self.env.items():
            env[k] = list(v) if isinstance(v, list) else v
        return _State(env, self.A[:], self.b[:], self.popcount,
                      self.pushcount)


class _Extractor:
    def __init__(self, filt: Filter):
        self.filt = filt
        wf = filt.work
        self.peek_rate = wf.peek
        self.pop_rate = wf.pop
        self.push_rate = wf.push
        #: (field name, array length | None for scalars) of the mutable
        #: fields with a numeric initial value, sorted by name — the
        #: candidate state slots, in the order of the extracted node's
        #: state vector (arrays flattened in place)
        self.state_fields: list[tuple[str, int | None]] = []
        s0: list[float] = []
        for name in sorted(filt.mutable_fields):
            init = filt.fields.get(name)
            if isinstance(init, np.ndarray) and init.ndim == 1:
                self.state_fields.append((name, len(init)))
                s0.extend(init.tolist())
            elif isinstance(init, (bool, int, float)):
                self.state_fields.append((name, None))
                s0.append(float(init))
        self.s0 = np.asarray(s0, dtype=float)
        #: length of every LinearForm vector: the input window, then one
        #: component per candidate state slot
        self.vec_dim = wf.peek + len(s0)
        self.iters = 0
        #: the coefficients of a pushed constant (shared, never written)
        self._no_taps = np.zeros(self.vec_dim)
        #: component index -> its unit form, for the first
        #: ``_UNIT_CACHE_FLOATS`` worth of components asked for
        self._units: dict[int, LinearForm] = {}
        self._units_kept = _UNIT_CACHE_FLOATS // max(self.vec_dim, 1)
        #: constant array field -> its elements as Python numbers
        self._arrays: dict[str, list] = {}
        self._eval = {
            N.Const: self._eval_const, N.Var: self._eval_var,
            N.Index: self._eval_index, N.Peek: self._eval_peek,
            N.Pop: self._eval_pop, N.Un: self._eval_un,
            N.Call: self._eval_call, N.Bin: self._eval_bin,
        }
        self._exec = {
            N.Assign: self._exec_assign, N.PushS: self._exec_push,
            N.PopS: self._exec_pop, N.Decl: self._exec_decl,
            N.For: self._exec_for, N.If: self._exec_if,
        }

    # -- helpers -----------------------------------------------------------
    def fail(self, reason: str):
        raise NonLinearError(reason)

    def _component(self, index: int) -> LinearForm:
        """The form of one component of ``[x | s]``; input item
        ``peek(pos)`` is component ``peek - 1 - pos`` (x-convention)."""
        unit = self._units.get(index)
        if unit is None:
            v = np.zeros(self.vec_dim)
            v[index] = 1.0
            unit = LinearForm(v, 0)
            if len(self._units) < self._units_kept:
                self._units[index] = unit
        return unit

    def _field_value(self, name: str):
        """Constant fields fold to their values (an array's elements as
        Python numbers); a mutable field that is no state slot (nothing
        numeric to start from) is ⊤."""
        if name in self.filt.mutable_fields:
            return TOP
        fv = self._arrays.get(name)
        if fv is None:
            fv = self.filt.fields.get(name, None)
            if isinstance(fv, np.ndarray):
                fv = fv.tolist() if fv.dtype.kind == "f" \
                    else [int(v) for v in fv]
                self._arrays[name] = fv
            elif isinstance(fv, np.generic):
                fv = fv.item()
        return fv

    # -- expression evaluation (Algorithm 2's cases) -----------------------
    def eval(self, e: N.Expr, st: _State):
        return self._eval[type(e)](e, st)

    def _eval_const(self, e: N.Const, st: _State):
        return e.value

    def _eval_var(self, e: N.Var, st: _State):
        v = st.env.get(e.name)
        if v is None:
            v = self._field_value(e.name)
            if v is None:
                self.fail(f"undefined variable {e.name!r}")
        if type(v) is list:
            self.fail(f"array {e.name!r} used as a scalar")
        return v

    def _eval_index(self, e: N.Index, st: _State):
        idx = self._const_int(self.eval(e.index, st))
        if idx is None:
            return TOP
        arr = st.env.get(e.base)
        if arr is None:
            arr = self._field_value(e.base)
            if arr is TOP:
                return TOP
            if type(arr) is not list:
                self.fail(f"unknown array {e.base!r}")
        elif type(arr) is not list:
            self.fail(f"{e.base!r} is not an array")
        if not 0 <= idx < len(arr):
            self.fail(f"{e.base}[{idx}] out of bounds")
        return arr[idx]

    def _eval_peek(self, e: N.Peek, st: _State):
        idx = self._const_int(self.eval(e.index, st))
        if idx is None:
            return TOP
        pos = st.popcount + idx
        if not 0 <= pos < self.peek_rate:
            self.fail(f"peek({idx}) after {st.popcount} pops is outside "
                      f"the declared peek window of {self.peek_rate}")
        return self._component(self.peek_rate - 1 - pos)

    def _eval_pop(self, e: N.Pop, st: _State):
        if st.popcount >= self.pop_rate and \
                st.popcount >= self.peek_rate:
            self.fail("pop beyond declared rates")
        st.popcount += 1
        return self._component(self.peek_rate - st.popcount)

    def _eval_un(self, e: N.Un, st: _State):
        v = self.eval(e.operand, st)
        if v is TOP:
            return TOP
        if e.op == "-":
            return v * -1
        c = constant_of(v)
        return TOP if c is None else int(not c)

    def _eval_call(self, e: N.Call, st: _State):
        args = [constant_of(self.eval(a, st)) for a in e.args]
        if None in args:
            return TOP  # e.g. |linear| is not linear
        return N.INTRINSIC_IMPL[e.fn](*args)

    def _const_int(self, v):
        if type(v) is int:
            return v
        c = constant_of(v)
        return None if c is None else int(c)

    def _eval_bin(self, e: N.Bin, st: _State):
        op = e.op
        # (the busiest call site: dispatch here, without eval()'s frame)
        a = self._eval[type(e.left)](e.left, st)
        b = self._eval[type(e.right)](e.right, st)
        if a is TOP or b is TOP:
            # addition of TOP to anything taints; comparisons on TOP taint
            return TOP
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            # a form times a number is the common case; two forms are a
            # product only if the taps of one have all cancelled
            if type(a) is not LinearForm:
                return b * a
            if type(b) is not LinearForm:
                return a * b
            x, y = constant_of(a), constant_of(b)
            if x is not None:
                return b * x
            return TOP if y is None else a * y
        y = constant_of(b)
        if op == "/":
            if y is None or y == 0:
                return TOP
            x = constant_of(a) if isinstance(y, int) else None
            if isinstance(x, int):
                return N.c_int_div(x, y)
            return a * (1.0 / y)
        # remaining ops are linear only when both operands are constants
        x = constant_of(a)
        if x is None or y is None:
            return TOP
        if op == "%" and y == 0:
            self.fail("modulo by zero")
        return N.FOLD[op](x, y)

    # -- statements ---------------------------------------------------------
    def exec_block(self, stmts, st: _State):
        for s in stmts:
            self.iters += 1
            if self.iters > _MAX_SYMBOLIC_ITERS:
                self.fail("symbolic execution budget exceeded")
            self._exec[type(s)](s, st)

    def _exec_assign(self, s: N.Assign, st: _State):
        self._store(s.target, self.eval(s.value, st), st)

    def _exec_push(self, s: N.PushS, st: _State):
        v = self.eval(s.value, st)
        if st.pushcount >= self.push_rate:
            self.fail("more pushes than the declared push rate")
        col = self.push_rate - 1 - st.pushcount
        if v is TOP:
            self.fail(f"push #{st.pushcount} is not an affine function "
                      f"of the input")
        if type(v) is LinearForm:
            st.A[col], st.b[col] = v.v, v.c
        else:
            st.A[col], st.b[col] = self._no_taps, v
        st.pushcount += 1

    def _exec_pop(self, s: N.PopS, st: _State):
        if st.popcount >= self.peek_rate:
            self.fail("pop beyond the declared peek window")
        st.popcount += 1

    def _exec_decl(self, s: N.Decl, st: _State):
        if s.size is not None:
            st.env[s.name] = [0.0 if s.ty == "float" else 0] * s.size
        elif s.init is not None:
            st.env[s.name] = self.eval(s.init, st)
        else:
            st.env[s.name] = 0.0 if s.ty == "float" else 0

    def _store(self, target, v, st: _State):
        if isinstance(target, N.Var):
            name = target.name
            if name in self.filt.fields and name not in st.env:
                # a write to a field that is no state slot: reads of it
                # are ⊤ already, so the filter may still be linear only
                # if no push depends on it
                return
            st.env[name] = v
        else:
            idx = self._const_int(self.eval(target.index, st))
            if idx is None:
                self.fail(f"array store to {target.base!r} with a "
                          f"non-constant index")
            if target.base in self.filt.fields and target.base not in st.env:
                return  # an array that is no state slot; reads are ⊤
            arr = st.env.get(target.base)
            if not isinstance(arr, list):
                self.fail(f"store to unknown array {target.base!r}")
            if not 0 <= idx < len(arr):
                self.fail(f"{target.base}[{idx}] out of bounds")
            arr[idx] = v

    def _exec_for(self, s: N.For, st: _State):
        start = self._const_int(self.eval(s.start, st))
        step = self._const_int(self.eval(s.step, st))
        if start is None or step is None or step == 0:
            self.fail(f"loop over {s.var!r} has unresolvable bounds")
        i = start
        while True:
            stop = self._const_int(self.eval(s.stop, st))
            if stop is None:
                self.fail(f"loop over {s.var!r} has a non-constant bound")
            if not ((i < stop) if step > 0 else (i > stop)):
                break
            st.env[s.var] = i
            self.exec_block(s.body, st)
            after = self._const_int(st.env.get(s.var))
            if after is None:
                self.fail(f"loop variable {s.var!r} became non-constant")
            i = after + step
        st.env[s.var] = i

    def _exec_if(self, s: N.If, st: _State):
        cond = constant_of(self.eval(s.cond, st))
        if cond is not None:
            # constant condition: take the known side (precision refinement)
            self.exec_block(s.then if cond else s.orelse, st)
            return
        st2 = st.copy()
        self.exec_block(s.then, st)
        self.exec_block(s.orelse, st2)
        if st.popcount != st2.popcount or st.pushcount != st2.pushcount:
            self.fail("branches push/pop different amounts")
        st.env = join_env(st.env, st2.env)
        # both sides wrote the same columns: the last ``pushcount``
        for col in range(self.push_rate - st.pushcount, self.push_rate):
            b1, b2 = st.b[col], st2.b[col]
            if b1 != b2:
                self.fail("branches push different constants")
            a1, a2 = st.A[col], st2.A[col]
            if a1 is not a2 and not np.array_equal(a1, a2):
                self.fail("branches push different coefficients")

    # -- toplevel (Algorithm 1) ---------------------------------------------
    def _run_symbolic(self) -> tuple[np.ndarray, np.ndarray, _State]:
        """Execute work symbolically; the ``(vec_dim, u)`` matrix of
        stacked ``[A ; As]`` rows, the offsets, and the final state (the
        fields' updates)."""
        if self.push_rate == 0:
            self.fail("sink filters (push 0) have no linear node")
        if self.pop_rate == 0:
            self.fail("source filters (pop 0) have no linear node")
        st = _State(env={}, A=[BOTTOM] * self.push_rate,
                    b=[BOTTOM] * self.push_rate, popcount=0, pushcount=0)
        slot = self.peek_rate  # state components follow the window's
        for name, size in self.state_fields:
            if size is None:
                st.env[name] = self._component(slot)
            else:
                st.env[name] = [self._component(slot + i)
                                for i in range(size)]
            slot += size or 1
        self.exec_block(self.filt.work.body, st)
        if st.pushcount != self.push_rate:
            self.fail(f"work pushed {st.pushcount} of {self.push_rate} items")
        A = np.zeros((self.vec_dim, self.push_rate))
        for col, taps in enumerate(st.A):
            A[:, col] = taps
        return A, np.array(st.b, dtype=float), st

    def run(self) -> LinearNode:
        M, b, st = self._run_symbolic()
        e = self.peek_rate
        # per candidate slot: its update as a linear form, or the name
        # of its field when the update is not one
        updates: list = []
        for name, size in self.state_fields:
            vals = st.env.get(name)
            vals = [vals] if size is None else vals
            if not isinstance(vals, list) or len(vals) != (size or 1):
                vals = [TOP] * (size or 1)  # joined away or shadowed
            for v in vals:
                if isinstance(v, (int, float)):
                    v = LinearForm(self._no_taps, v)
                updates.append(v if type(v) is LinearForm else name)
        keep = {int(j) for j in np.flatnonzero(M[e:].any(axis=1))}
        frontier = sorted(keep)
        while frontier:
            update = updates[frontier.pop()]
            if isinstance(update, str):
                self.fail(f"state field {update!r} update is not an affine "
                          "function of the input and state")
            for j in np.flatnonzero(update.v[e:]):
                if int(j) not in keep:
                    keep.add(int(j))
                    frontier.append(int(j))
        slots = sorted(keep)
        rows = [e + j for j in slots]
        C = np.zeros((self.vec_dim, len(slots)))
        for col, j in enumerate(slots):
            C[:, col] = updates[j].v
        return LinearNode(
            M[:e], b, e, self.pop_rate, self.push_rate, As=M[rows],
            Cx=C[:e], Cs=C[rows], bs=[updates[j].c for j in slots],
            s0=self.s0[slots])


@dataclass
class ExtractionResult:
    """Outcome of linear extraction for one filter."""

    node: LinearNode | None
    reason: str | None = None

    @property
    def is_linear(self) -> bool:
        return self.node is not None


def _prework_gate(filt: Filter) -> str | None:
    """Why prework makes steady-``work`` extraction unsound (None = sound).

    A prework that writes fields leaves steady state differing from the
    ``init`` values extraction folds as constants; one that pops or
    pushes shifts the steady tape alignment.  A pure peek-prologue
    (waiting for lookahead to accumulate) does neither.
    """
    if filt.prework is None:
        return None
    mutated = sorted(N.assigned_names(filt.prework.body) & set(filt.fields))
    if mutated:
        return "prework mutates state fields: " + ", ".join(mutated)
    if filt.prework.pop or filt.prework.push:
        return ("prework pops or pushes items (init rates differ from "
                "steady work)")
    return None


#: results by content — ``(work, prework, field bytes)`` -> (result,
#: the IR objects, pinned so their ids stay theirs).  ``analyze`` and the
#: planner's vectorize decision ask about the same filter, and the
#: elaborator hands the look-alike stages of a bank one work function.
#: Extraction reads nothing else, so a hit is the answer.  Emptied with
#: the plans, by ``exec.clear_plan_cache()``, and when full (one dict
#: operation each: serve compiles on several threads).
_results: dict[tuple, tuple] = {}
_RESULTS_KEPT = 256


def clear_extraction_results() -> None:
    _results.clear()


def _content_key(filt: Filter) -> tuple:
    fields = tuple(
        (name, value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray) else (name, type(value), repr(value))
        for name, value in filt.fields.items())
    return id(filt.work), id(filt.prework), filt.mutable_fields, fields


def extract_filter(filt: Stream) -> ExtractionResult:
    """Run linear extraction on a leaf filter.

    Succeeds when every push and every observable field update is an
    affine function of the input window and the prior field values;
    ``result.node.state_dim`` says how much state the filter carries
    (``0``: the thesis' stateless node).  Primitive filters advertise
    their own linearity via a ``linear_node`` attribute (e.g. the matrix
    filter produced by an earlier combination).
    """
    if isinstance(filt, PrimitiveFilter):
        node = getattr(filt, "linear_node", None)
        if node is not None:
            return ExtractionResult(node)
        return ExtractionResult(None, "primitive filter without linear form")
    if not isinstance(filt, Filter):
        return ExtractionResult(None, f"{filt!r} is not a leaf filter")
    key = _content_key(filt)
    known = _results.get(key)
    if known is not None:
        return known[0]
    reason = _prework_gate(filt)
    if reason is not None:
        result = ExtractionResult(None, reason)
    else:
        try:
            result = ExtractionResult(_Extractor(filt).run())
        except NonLinearError as exc:
            result = ExtractionResult(None, exc.reason)
    if len(_results) >= _RESULTS_KEPT:
        _results.clear()
    _results[key] = (result, filt.work, filt.prework)
    return result
