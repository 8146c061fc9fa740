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

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonLinearError
from ..graph.streams import Filter, PrimitiveFilter, Stream
from ..ir import nodes as N
from .lattice import BOTTOM, TOP, LinearForm, join, join_env
from .node import LinearNode

_MAX_SYMBOLIC_ITERS = 1_000_000

_FOLDABLE = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "atan": math.atan,
    "atan2": math.atan2, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "abs": abs, "floor": math.floor,
    "ceil": math.ceil, "pow": pow, "min": min, "max": max, "round": round,
}


@dataclass
class _State:
    """Mutable symbolic execution state (Algorithm 2's tuple)."""

    env: dict  # variable -> LinearForm | TOP | array (list of values)
    A: list  # peek x push entries, LinearForm coefficients or BOTTOM/TOP
    b: list
    popcount: int
    pushcount: int

    def copy(self) -> "_State":
        env = {}
        for k, v in self.env.items():
            env[k] = list(v) if isinstance(v, list) else v
        return _State(env, [col[:] for col in self.A], self.b[:],
                      self.popcount, self.pushcount)


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

    # -- helpers -----------------------------------------------------------
    def fail(self, reason: str):
        raise NonLinearError(reason)

    def const(self, c) -> LinearForm:
        return LinearForm.constant(c, self.vec_dim)

    def _component(self, index: int) -> LinearForm:
        v = np.zeros(self.vec_dim)
        v[index] = 1.0
        return LinearForm(v, 0)

    def _input_coeff(self, pos: int) -> LinearForm:
        """Coefficient 1 for input item ``peek(pos)`` (x-convention)."""
        return self._component(self.peek_rate - 1 - pos)

    def _field_value(self, name: str):
        """Constant fields fold to their values; a mutable field that is
        no state slot (nothing numeric to start from) is ⊤."""
        if name in self.filt.mutable_fields:
            return TOP
        return self.filt.fields.get(name, None)

    # -- expression evaluation (Algorithm 2's cases) -----------------------
    def eval(self, e: N.Expr, st: _State):
        if isinstance(e, N.Const):
            return self.const(e.value)
        if isinstance(e, N.Var):
            if e.name in st.env:
                return st.env[e.name]
            fv = self._field_value(e.name)
            if fv is TOP:
                return TOP
            if fv is None:
                self.fail(f"undefined variable {e.name!r}")
            if isinstance(fv, np.ndarray):
                self.fail(f"array {e.name!r} used as a scalar")
            return self.const(fv)
        if isinstance(e, N.Index):
            idx = self._const_int(self.eval(e.index, st),
                                  f"index into {e.base!r}")
            if idx is None:
                return TOP
            if e.base in st.env:
                arr = st.env[e.base]
                if not isinstance(arr, list):
                    self.fail(f"{e.base!r} is not an array")
                if not 0 <= idx < len(arr):
                    self.fail(f"{e.base}[{idx}] out of bounds")
                return arr[idx]
            fv = self._field_value(e.base)
            if fv is TOP:
                return TOP
            if isinstance(fv, np.ndarray):
                if not 0 <= idx < len(fv):
                    self.fail(f"{e.base}[{idx}] out of bounds")
                v = fv[idx]
                return self.const(float(v) if fv.dtype.kind == "f" else int(v))
            self.fail(f"unknown array {e.base!r}")
        if isinstance(e, N.Peek):
            idx = self._const_int(self.eval(e.index, st), "peek index")
            if idx is None:
                return TOP
            pos = st.popcount + idx
            if not 0 <= pos < self.peek_rate:
                self.fail(f"peek({idx}) after {st.popcount} pops is outside "
                          f"the declared peek window of {self.peek_rate}")
            return self._input_coeff(pos)
        if isinstance(e, N.Pop):
            if st.popcount >= self.pop_rate and \
                    st.popcount >= self.peek_rate:
                self.fail("pop beyond declared rates")
            lf = self._input_coeff(st.popcount)
            st.popcount += 1
            return lf
        if isinstance(e, N.Un):
            v = self.eval(e.operand, st)
            if e.op == "-":
                return TOP if v is TOP else v.scale(-1)
            if v is TOP:
                return TOP
            if v.is_constant:
                return self.const(int(not v.c))
            return TOP
        if isinstance(e, N.Call):
            args = [self.eval(a, st) for a in e.args]
            if any(a is TOP for a in args):
                return TOP
            if all(a.is_constant for a in args):
                return self.const(_FOLDABLE[e.fn](*(a.c for a in args)))
            return TOP  # e.g. |linear| is not linear
        if isinstance(e, N.Bin):
            return self._eval_bin(e, st)
        self.fail(f"unsupported expression {e!r}")  # pragma: no cover

    def _const_int(self, v, what: str):
        if v is TOP or v is BOTTOM:
            return None
        if not v.is_constant:
            return None
        return int(v.c)

    def _eval_bin(self, e: N.Bin, st: _State):
        op = e.op
        a = self.eval(e.left, st)
        b = self.eval(e.right, st)
        if a is TOP or b is TOP:
            # addition of TOP to anything taints; comparisons on TOP taint
            return TOP
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            if a.is_constant:
                return b.scale(a.c)
            if b.is_constant:
                return a.scale(b.c)
            return TOP
        if op == "/":
            if b.is_constant and b.c != 0:
                if a.is_constant and isinstance(a.c, int) \
                        and isinstance(b.c, int):
                    q = abs(a.c) // abs(b.c)
                    return self.const(
                        q if (a.c >= 0) == (b.c >= 0) else -q)
                return a.scale(1.0 / b.c)
            return TOP
        # remaining ops are linear only when both operands are constants
        if a.is_constant and b.is_constant:
            x, y = a.c, b.c
            if op == "%":
                if y == 0:
                    self.fail("modulo by zero")
                if isinstance(x, int) and isinstance(y, int):
                    q = abs(x) // abs(y)
                    q = q if (x >= 0) == (y >= 0) else -q
                    return self.const(x - q * y)
                return self.const(math.fmod(x, y))
            table = {
                "==": lambda: int(x == y), "!=": lambda: int(x != y),
                "<": lambda: int(x < y), "<=": lambda: int(x <= y),
                ">": lambda: int(x > y), ">=": lambda: int(x >= y),
                "&&": lambda: int(bool(x) and bool(y)),
                "||": lambda: int(bool(x) or bool(y)),
                "&": lambda: int(x) & int(y), "|": lambda: int(x) | int(y),
                "^": lambda: int(x) ^ int(y),
                "<<": lambda: int(x) << int(y),
                ">>": lambda: int(x) >> int(y),
            }
            return self.const(table[op]())
        return TOP

    # -- statements ---------------------------------------------------------
    def exec_block(self, stmts, st: _State):
        for s in stmts:
            self.exec_stmt(s, st)

    def exec_stmt(self, s: N.Stmt, st: _State):
        self.iters += 1
        if self.iters > _MAX_SYMBOLIC_ITERS:
            self.fail("symbolic execution budget exceeded")
        if isinstance(s, N.Assign):
            v = self.eval(s.value, st)
            self._store(s.target, v, st)
        elif isinstance(s, N.PushS):
            v = self.eval(s.value, st)
            if st.pushcount >= self.push_rate:
                self.fail("more pushes than the declared push rate")
            col = self.push_rate - 1 - st.pushcount
            if v is TOP:
                self.fail(f"push #{st.pushcount} is not an affine function "
                          f"of the input")
            for i in range(self.vec_dim):
                st.A[i][col] = v.v[i]
            st.b[col] = v.c
            st.pushcount += 1
        elif isinstance(s, N.PopS):
            if st.popcount >= self.peek_rate:
                self.fail("pop beyond the declared peek window")
            st.popcount += 1
        elif isinstance(s, N.Decl):
            if s.size is not None:
                zero = self.const(0.0 if s.ty == "float" else 0)
                st.env[s.name] = [zero] * s.size
            elif s.init is not None:
                st.env[s.name] = self.eval(s.init, st)
            else:
                st.env[s.name] = self.const(0.0 if s.ty == "float" else 0)
        elif isinstance(s, N.For):
            self._exec_for(s, st)
        elif isinstance(s, N.If):
            self._exec_if(s, st)
        else:  # pragma: no cover
            self.fail(f"unsupported statement {s!r}")

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
            idx = self._const_int(self.eval(target.index, st),
                                  f"store index into {target.base!r}")
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
        start = self._const_int(self.eval(s.start, st), "loop start")
        step = self._const_int(self.eval(s.step, st), "loop step")
        if start is None or step is None or step == 0:
            self.fail(f"loop over {s.var!r} has unresolvable bounds")
        i = start
        while True:
            stop = self._const_int(self.eval(s.stop, st), "loop stop")
            if stop is None:
                self.fail(f"loop over {s.var!r} has a non-constant bound")
            if not ((i < stop) if step > 0 else (i > stop)):
                break
            st.env[s.var] = self.const(i)
            self.exec_block(s.body, st)
            after = st.env.get(s.var)
            if isinstance(after, LinearForm) and after.is_constant:
                i = int(after.c) + step
            else:
                self.fail(f"loop variable {s.var!r} became non-constant")
        st.env[s.var] = self.const(i)

    def _exec_if(self, s: N.If, st: _State):
        cond = self.eval(s.cond, st)
        if cond is not TOP and cond.is_constant:
            # constant condition: take the known side (precision refinement)
            self.exec_block(s.then if cond.c else s.orelse, st)
            return
        st2 = st.copy()
        self.exec_block(s.then, st)
        self.exec_block(s.orelse, st2)
        if st.popcount != st2.popcount or st.pushcount != st2.pushcount:
            self.fail("branches push/pop different amounts")
        st.env = join_env(st.env, st2.env)
        for col in range(self.push_rate):
            if st.b[col] is not BOTTOM or st2.b[col] is not BOTTOM:
                joined_b = join(self._as_lf(st.b[col]),
                                self._as_lf(st2.b[col]))
                if joined_b is TOP:
                    self.fail("branches push different constants")
                st.b[col] = joined_b.c if isinstance(joined_b, LinearForm) \
                    else joined_b
            for i in range(self.vec_dim):
                a1, a2 = st.A[i][col], st2.A[i][col]
                if a1 is BOTTOM and a2 is BOTTOM:
                    continue
                if (a1 is BOTTOM) != (a2 is BOTTOM) or a1 != a2:
                    self.fail("branches push different coefficients")

    def _as_lf(self, v):
        if v is BOTTOM or v is TOP:
            return v
        return self.const(v)

    # -- toplevel (Algorithm 1) ---------------------------------------------
    def _run_symbolic(self) -> tuple[np.ndarray, np.ndarray, _State]:
        """Execute work symbolically; the ``(vec_dim, u)`` matrix of
        stacked ``[A ; As]`` rows, the offsets, and the final state (the
        fields' updates)."""
        if self.push_rate == 0:
            self.fail("sink filters (push 0) have no linear node")
        if self.pop_rate == 0:
            self.fail("source filters (pop 0) have no linear node")
        st = _State(
            env={},
            A=[[BOTTOM] * self.push_rate for _ in range(self.vec_dim)],
            b=[BOTTOM] * self.push_rate,
            popcount=0,
            pushcount=0,
        )
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
        b = np.zeros(self.push_rate)
        for col in range(self.push_rate):
            if st.b[col] is BOTTOM or st.b[col] is TOP:
                self.fail(f"output column {col} never written")
            b[col] = st.b[col]
            for i in range(self.vec_dim):
                entry = st.A[i][col]
                if entry is BOTTOM or entry is TOP:
                    self.fail(f"matrix entry [{i},{col}] unresolved")
                A[i, col] = entry
        return A, b, st

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
            updates += [v if isinstance(v, LinearForm) else name
                        for v in vals]
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
    reason = _prework_gate(filt)
    if reason is not None:
        return ExtractionResult(None, reason)
    try:
        return ExtractionResult(_Extractor(filt).run())
    except NonLinearError as exc:
        return ExtractionResult(None, exc.reason)
