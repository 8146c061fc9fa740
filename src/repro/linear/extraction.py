"""Linear extraction: the reference interpreter run over affine forms.

Implements the thesis' Algorithms 1 and 2 (§3.2): a forward symbolic
execution tracking every program variable as a linear form ``(v, c)``,
*value = x·v + c* in the input items.  That execution is
:class:`~repro.ir.interp.Interpreter` itself over the domain of
:mod:`.lattice`: :class:`_Extractor` is its own input and output tape
(``peek``/``pop`` give unit forms, ``push`` records a column) and decides
only what a number never needs deciding — a branch on a form runs both
arms and joins them, a non-affine operation is ⊤, a loop bound must be a
constant.  Every loop iteration runs, within a budget.

Deviations from the thesis pseudocode:

* Branch conditions that evaluate to constants take the known side only
  (strictly more precise, identical soundness).
* Filter fields that ``work`` never writes are treated as compile-time
  constants (the values computed by ``init``).
* Float fields written in ``work`` are persistent state.  The thesis
  makes them ⊤; here each scalar of one is a symbolic component ``s_j``
  appended to ``x`` (the §7.1 extension), so pushes yield rows of
  ``[A | As] + b`` and the fields' final values rows of ``[Cx | Cs] +
  bs``.  **A state slot is kept iff it is observable** — it reaches a
  push through ``As``, directly or via the ``Cs`` of a slot that does.
  An unobservable slot is dropped whatever its update (a filter all of
  whose state is dead is the thesis' stateless node, ``k = 0``); an
  observable slot whose update is not affine rejects the filter.  Any
  other written field (an int one, whose stores truncate, or one with
  no numeric start) is ⊤.
* The interpreter's semantics are the reference: ``&&``/``||``
  short-circuit, loop bounds are read once, an int store truncates (an
  int's ⊤ is ``INT_TOP``); a constant ``x % 0`` rejects the filter.

On success, extraction yields the filter's :class:`LinearNode`; on failure
it records a human-readable reason (`ExtractionResult.reason`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonLinearError
from ..graph.identity import value_digest
from ..graph.streams import Filter, PrimitiveFilter, Stream
from ..ir import nodes as N
from ..ir.interp import Interpreter
from ..profiling import NullProfiler
from .lattice import (INT_TOP, TOP, LinearForm, Top, constant_of, join,
                      join_env)
from .node import LinearNode

#: floats an extractor may keep in unit vectors it has already built
#: (128 KiB): ``CorrPeak`` peeks each of 100 positions 100 times, FIR(256)
#: each of 256 once — and 256 kept vectors of 256 would be 512 KiB of
#: peak RSS for nothing
_UNIT_CACHE_FLOATS = 1 << 14

_NO_PROFILE = NullProfiler()


def _copy(value):
    return value[:] if type(value) is list else value


class _Extractor(Interpreter):
    """The interpreter over affine forms, its own tapes: one ``run`` of
    ``work`` leaves the pushed forms in ``_pushes`` and the fields' final
    values in ``fields``; :meth:`linear_node` reads the node off them."""

    error = NonLinearError
    #: the largest app filter (Vocoder's ``CorrPeak``) charges 10 800 loop
    #: steps; one from serve ``OPEN`` that exhausts the budget, however
    #: wide its loop bodies, is rejected in under a second (2 vCPUs)
    loop_budget = 1_000_000
    overrun = "symbolic execution budget exceeded"

    def __init__(self, filt: Filter):
        self.filt = filt
        wf = filt.work
        self.peek_rate, self.pop_rate, self.push_rate = \
            wf.peek, wf.pop, wf.push
        #: (field name, array length | None for scalars) of the written
        #: float fields, sorted by name — the candidate state slots, in
        #: the order of the extracted node's state vector (arrays
        #: flattened in place)
        self.state_fields: list[tuple[str, int | None]] = []
        s0: list[float] = []
        for name in sorted(filt.mutable_fields):
            init = filt.fields.get(name)
            if isinstance(init, np.ndarray) and init.ndim == 1 \
                    and init.dtype.kind == "f":
                self.state_fields.append((name, len(init)))
                s0.extend(init.tolist())
            elif isinstance(init, float):
                self.state_fields.append((name, None))
                s0.append(init)
        self.s0 = np.asarray(s0, dtype=float)
        #: length of every LinearForm vector: the input window, then one
        #: component per candidate state slot
        self.vec_dim = wf.peek + len(s0)
        #: the coefficients of a pushed constant (shared, never written)
        self._no_taps = np.zeros(self.vec_dim)
        #: component index -> its unit form, for the first
        #: ``_UNIT_CACHE_FLOATS`` worth of components asked for
        self._units: dict[int, LinearForm] = {}
        self._units_kept = _UNIT_CACHE_FLOATS // max(self.vec_dim, 1)
        # the symbolic field store: constants as Python numbers (arrays
        # as lists of them), state slots as unit forms, other written
        # fields ⊤
        fields = {}
        for name, value in filt.fields.items():
            if name in filt.mutable_fields:
                value = INT_TOP if type(value) is int else TOP
            elif isinstance(value, (np.ndarray, np.generic)):
                value = value.tolist()
            fields[name] = value
        slot = self.peek_rate  # state components follow the window's
        for name, size in self.state_fields:
            fields[name] = self._component(slot) if size is None else \
                [self._component(slot + i) for i in range(size)]
            slot += size or 1
        super().__init__(fields, _NO_PROFILE)
        self._pushes: list = []  # what work pushed, in order

    def _component(self, index: int) -> LinearForm:
        """The form of one component of ``[x | s]``; input item
        ``peek(pos)`` is component ``peek - 1 - pos`` (x-convention)."""
        unit = self._units.get(index)
        if unit is None:
            v = np.zeros(self.vec_dim)
            v[index] = 1.0
            unit = LinearForm(v, 0.0)
            if len(self._units) < self._units_kept:
                self._units[index] = unit
        return unit

    def _column(self, v) -> tuple:
        """A pushed value's (taps, offset)."""
        return (v.v, v.c) if type(v) is LinearForm else (self._no_taps, v)

    # -- the tapes ------------------------------------------------------
    def peek(self, idx):
        if idx is INT_TOP:
            return TOP
        pos = self._popped + idx
        if not 0 <= pos < self.peek_rate:
            self.fail(f"peek({idx}) after {self._popped} pops is outside "
                      f"the declared peek window of {self.peek_rate}")
        return self._component(self.peek_rate - 1 - pos)

    def pop(self):
        return self.peek(0)  # (counted by the interpreter)

    def push(self, v):
        if self._pushed >= self.push_rate:
            self.fail("more pushes than the declared push rate")
        if v is TOP:
            self.fail(f"push #{self._pushed} is not an affine function "
                      f"of the input")
        self._pushes.append(v)

    # -- the domain's decisions (see Interpreter) -------------------------
    @staticmethod
    def _truth(v):
        c = v if type(v) is int else constant_of(v)
        return None if c is None else bool(c)

    @staticmethod
    def _int(v):
        if type(v) is int:  # (a loop index: the common case)
            return v
        c = constant_of(v)
        return INT_TOP if c is None else int(c)

    def _number(self, v):
        c = constant_of(v)
        if type(c) is not int:
            self.fail("loop bound is not a constant int")
        return c

    def _abstract(self, op, a, b=None):
        """Algorithm 2's cases: a form is closed under ``+ -`` and scaling
        by a number; a call (its arguments are ``a``), or any other
        operator, of values that are all constants folds; anything else
        is ⊤."""
        if isinstance(a, Top) or isinstance(b, Top):
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
        if op in N.INTRINSIC_IMPL:
            consts = [constant_of(x) for x in a]
            return TOP if None in consts else N.INTRINSIC_IMPL[op](*consts)
        x, y = constant_of(a), constant_of(b)
        if op == "/":  # (a form is a float: never C's int division)
            return TOP if y is None or y == 0 else a * (1.0 / y)
        return TOP if x is None or y is None else N.FOLD[op](x, y)

    @staticmethod
    def _new_array(ty, size):
        return [0.0 if ty == "float" else 0] * size

    def _element(self, arr, idx):
        if arr is TOP or idx is INT_TOP:
            return TOP
        if type(arr) is not list:
            self.fail("a scalar is indexed")
        if not 0 <= idx < len(arr):
            self.fail(f"index {idx} is outside an array of {len(arr)}")
        return arr[idx]

    def _store_element(self, arr, idx, value):
        if idx is INT_TOP:
            self.fail("array store with a non-constant index")
        if arr is not TOP:  # (one that is no state slot: reads are ⊤)
            arr[idx] = self._coerce_like(self._element(arr, idx), value)

    def _coerce_like(self, old, new):
        if type(old) is int or old is INT_TOP:
            return self._int(new)
        # a form is a float already; ``* 1.0`` makes either ⊤ a float's
        return new if type(new) is LinearForm else new * 1.0

    def _fork(self, s: N.If, env: dict):
        """Both arms of an ``if`` on a form, from one state (the then-arm
        on copies); they must pop and push alike, and the variables join."""
        fields, names = self.fields, self.filt.mutable_fields
        then_env = {k: _copy(v) for k, v in env.items()}
        self.fields = {**fields, **{k: _copy(fields[k]) for k in names}}
        tape, n = (self._popped, self._pushed), len(self._pushes)
        self._block(s.then, then_env)
        then_fields, self.fields = self.fields, fields
        then_tape, then_pushes = (self._popped, self._pushed), \
            self._pushes[n:]
        (self._popped, self._pushed), self._pushes[n:] = tape, []
        self._block(s.orelse, env)
        if (self._popped, self._pushed) != then_tape:
            self.fail("branches push/pop different amounts")
        for v, w in zip(reversed(then_pushes), reversed(self._pushes[n:])):
            (a1, b1), (a2, b2) = self._column(v), self._column(w)
            if b1 != b2:
                self.fail("branches push different constants")
            if a1 is not a2 and not np.array_equal(a1, a2):
                self.fail("branches push different coefficients")
        self._pushes[n:] = then_pushes
        env.update(join_env(then_env, env))
        for k in names:
            fields[k] = join(then_fields[k], fields[k])

    # -- toplevel (Algorithm 1) ---------------------------------------------
    def linear_node(self) -> LinearNode:
        if self.push_rate == 0:
            self.fail("sink filters (push 0) have no linear node")
        if self.pop_rate == 0:
            self.fail("source filters (pop 0) have no linear node")
        self.run(self.filt.work, self, self)
        # the ``(vec_dim, u)`` matrix of stacked ``[A ; As]`` rows
        M = np.zeros((self.vec_dim, self.push_rate))
        b = np.zeros(self.push_rate)
        for col, v in enumerate(reversed(self._pushes)):
            M[:, col], b[col] = self._column(v)
        e = self.peek_rate
        # per candidate slot: its update as a linear form, or the name
        # of its field when the update is not one
        updates: list = []
        for name, size in self.state_fields:
            vals = self.fields[name]
            if size is None or type(vals) is not list:
                vals = [vals] if size is None else [TOP] * size
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


#: results by the filter's :func:`~repro.graph.identity.value_digest`.
#: ``analyze`` and the planner's vectorize decision ask about the same
#: filter, a bank's look-alike stages are one program, and a graph
#: rebuilt from its source is the same programs again.  Extraction reads
#: nothing else, so a hit is the answer.  Emptied with the plans, by
#: ``exec.clear_plan_cache()``, and when full (one dict operation each:
#: serve compiles on several threads).
_results: dict[bytes, ExtractionResult] = {}
_RESULTS_KEPT = 256


def clear_extraction_results() -> None:
    _results.clear()


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
    key = value_digest(filt)
    known = _results.get(key)
    if known is not None:
        return known
    reason = _prework_gate(filt)
    if reason is not None:
        result = ExtractionResult(None, reason)
    else:
        try:
            result = ExtractionResult(_Extractor(filt).linear_node())
        except NonLinearError as exc:
            result = ExtractionResult(None, exc.reason)
        except (ArithmeticError, ValueError) as exc:  # x % 0, log(-1), ...
            result = ExtractionResult(None, f"{type(exc).__name__}: {exc}")
    if key is not None:
        if len(_results) >= _RESULTS_KEPT:
            _results.clear()
        _results[key] = result
    return result
