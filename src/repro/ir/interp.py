"""Reference tree-walking interpreter for work-function IR, generic over
its value domain.

Executes one firing of a :class:`~repro.ir.nodes.WorkFunction` against a
pair of tapes (anything with ``peek(i)``/``pop()``/``push(v)``),
reporting every floating-point operation to the active profiler.  This
is the semantic reference: the generated-Python backend
(:mod:`repro.ir.pycodegen`) is tested against it, and the linear
extractor (:mod:`repro.linear.extraction`) *is* it, run over affine
forms instead of numbers.

The walk dispatches through type-keyed tables and charges its loops to
one budget per firing (:meth:`Interpreter._for`).  A value the concrete
domain never produces (an :class:`Abstract` one) that needs a decision
goes to a hook, which a subclass for another domain overrides:

* ``_truth(v)`` — a branch's side; None: fork both arms and join them,
* ``_int(v)`` / ``_number(v)`` — an index or int store / a loop bound,
* ``_abstract(op, a, b)`` — an operator with an abstract operand (a
  call: ``op`` is the function, ``a`` its arguments),
* ``_new_array`` / ``_element`` / ``_store_element`` — local arrays and
  element access, ``_coerce_like`` — what an assignment keeps,
* ``_fork`` — both arms of an ``if`` (the concrete domain has none).
"""

from __future__ import annotations

import operator
import sys

import numpy as np

from ..errors import InterpError
from ..profiling import Profiler
from . import nodes as N

_COUNTED_INTRINSICS = frozenset(
    {"sin", "cos", "tan", "atan", "atan2", "exp", "log", "sqrt", "pow"})

#: float-op category of each binary operator with a float operand
BIN_CATEGORY = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                "%": "fdiv", "==": "fcmp", "!=": "fcmp", "<": "fcmp",
                "<=": "fcmp", ">": "fcmp", ">=": "fcmp"}

#: complex counts as floating for op accounting and promotion: under a
#: complex numeric policy, scalar evaluation carries complex samples
#: through the same float-typed DSL expressions
_FLOATS = (float, complex)


class Abstract:
    """Marker base of the values of a non-concrete domain (the linear
    extractor's forms and ⊤): whatever meets one goes through a hook."""

    __slots__ = ()


class Interpreter:
    """Interprets work-function bodies for a single filter instance.

    ``fields`` maps field names to scalars or numpy arrays; the dict (and
    array contents) are mutated in place by field assignments, which is how
    stateful filters carry state between firings.
    """

    #: the exception every failure raises
    error = InterpError
    #: loop steps (:meth:`_for`) one firing may take, and what running
    #: out says: no cap over numbers, as in generated code
    loop_budget = sys.maxsize
    overrun = "loop step budget exceeded"

    def __init__(self, fields: dict, profiler: Profiler):
        self.fields = fields
        self.profiler = profiler
        self._ch_in = self._ch_out = None
        self._popped = self._pushed = self._budget = 0
        self._eval = {
            N.Const: self._const, N.Var: self._var, N.Index: self._index,
            N.Peek: self._peek, N.Pop: self._pop, N.Bin: self._bin,
            N.Un: self._un, N.Call: self._call,
        }
        self._exec = {
            N.Assign: self._assign, N.PushS: self._push, N.PopS: self._pop,
            N.For: self._for, N.If: self._if, N.Decl: self._decl,
        }

    def fail(self, reason: str):
        raise self.error(reason)

    # ------------------------------------------------------------------
    def run(self, wf: N.WorkFunction, ch_in, ch_out) -> None:
        """Execute one firing of ``wf``: read from ch_in, write to ch_out.

        Reentrant: per-firing tape state is saved and restored, so a
        probe firing (e.g. the planner's FLOP-count probe while a paused
        session holds this runner mid-stream) cannot corrupt an
        in-flight firing's pop/push accounting.
        """
        frame = (self._ch_in, self._ch_out, self._popped, self._pushed,
                 self._budget)
        self._ch_in, self._ch_out = ch_in, ch_out
        self._popped = self._pushed = 0
        self._budget = self.loop_budget
        try:
            self._block(wf.body, {})
            if self._popped != wf.pop:
                self.fail(f"work popped {self._popped} items, "
                          f"declared pop {wf.pop}")
            if self._pushed != wf.push:
                self.fail(f"work pushed {self._pushed} items, "
                          f"declared push {wf.push}")
        finally:
            (self._ch_in, self._ch_out, self._popped, self._pushed,
             self._budget) = frame

    # -- statements -----------------------------------------------------
    def _block(self, stmts, env):
        ex = self._exec
        for s in stmts:
            ex[type(s)](s, env)

    def _assign(self, s, env):
        value = self._eval[type(s.value)](s.value, env)
        target = s.target
        if type(target) is N.Var:
            name = target.name
            if name in env:
                env[name] = self._coerce_like(env[name], value)
            elif name in self.fields:
                self.fields[name] = self._coerce_like(self.fields[name], value)
            else:
                env[name] = value
        else:  # Index
            idx = self._int(self._eval[type(target.index)](target.index, env))
            self._store_element(self._array(target.base, env), idx, value)

    def _push(self, s, env):
        v = self._eval[type(s.value)](s.value, env)
        # ``* 1.0`` instead of ``float()``: bit-exact for floats,
        # coerces ints, passes complex through (complex policies)
        self._ch_out.push(v * 1.0)
        self._pushed += 1

    def _for(self, s, env):
        """Bounds are evaluated once, and the body never writes the loop
        variable (:class:`~repro.ir.nodes.For`): the trip count is known
        on entry, and charged then — a step per trip and body statement."""
        ev = self._eval
        start, stop, step = (self._number(ev[type(x)](x, env))
                             for x in (s.start, s.stop, s.step))
        if step == 0:
            self.fail("loop step of zero")
        trips = range(start, stop, step)
        self._budget -= len(trips) * (1 + s.body_size)
        if self._budget < 0:
            self.fail(self.overrun)
        var, body, block = s.var, s.body, self._block
        for i in trips:
            env[var] = i
            block(body, env)
        env[var] = start + len(trips) * step

    def _if(self, s, env):
        c = self._truth(self._eval[type(s.cond)](s.cond, env))
        if c is None:
            self._fork(s, env)
        else:
            self._block(s.then if c else s.orelse, env)

    def _decl(self, s, env):
        if s.size is not None:
            env[s.name] = self._new_array(s.ty, s.size)
            return
        v = 0 if s.init is None else self._eval[type(s.init)](s.init, env)
        env[s.name] = v * 1.0 if s.ty == "float" else self._int(v)

    def _array(self, name, env):
        arr = env.get(name)
        if arr is None:
            arr = self.fields.get(name)
            if arr is None:
                self.fail(f"unknown array {name!r}")
        return arr

    # -- expressions ----------------------------------------------------
    @staticmethod
    def _const(e, env):
        return e.value

    def _var(self, e, env):
        v = env.get(e.name)
        if v is None:
            v = self.fields.get(e.name)
            if v is None:
                self.fail(f"unknown variable {e.name!r}")
        return v

    def _index(self, e, env):
        idx = self._int(self._eval[type(e.index)](e.index, env))
        return self._element(self._array(e.base, env), idx)

    def _peek(self, e, env):
        return self._ch_in.peek(
            self._int(self._eval[type(e.index)](e.index, env)))

    def _pop(self, e, env):  # (a PopS too)
        v = self._ch_in.pop()
        self._popped += 1
        return v

    def _bin(self, e, env):
        op = e.op
        if op == "&&" or op == "||":
            return self._logic(e, env)
        ev = self._eval
        a = ev[type(e.left)](e.left, env)
        b = ev[type(e.right)](e.right, env)
        if isinstance(a, Abstract) or isinstance(b, Abstract):
            return self._abstract(op, a, b)
        cat = BIN_CATEGORY.get(op)
        if cat and (isinstance(a, _FLOATS) or isinstance(b, _FLOATS)):
            self.profiler.op(cat)
        return N.FOLD[op](a, b)

    def _logic(self, e, env):
        """``&&`` / ``||``: the right operand runs only when the left one
        does not decide."""
        a = self._eval[type(e.left)](e.left, env)
        t = self._truth(a)
        if t is None:
            # the right operand runs on some inputs only: fine unless it
            # moves the tape
            popped = self._popped
            b = self._eval[type(e.right)](e.right, env)
            if self._popped != popped:
                self.fail(f"pop() under {e.op} of an undecided operand")
            return self._abstract(e.op, a, b)
        if t == (e.op == "||"):
            return int(t)
        b = self._eval[type(e.right)](e.right, env)
        u = self._truth(b)
        return self._abstract(e.op, a, b) if u is None else int(u)

    def _un(self, e, env):
        v = self._eval[type(e.operand)](e.operand, env)
        if e.op == "-":
            if isinstance(v, Abstract):
                return self._abstract("*", v, -1)
            if isinstance(v, _FLOATS):
                self.profiler.op("fneg")
            return -v
        if isinstance(v, Abstract):
            return self._abstract("==", v, 0)
        return int(not v)

    def _call(self, e, env):
        args = [self._eval[type(a)](a, env) for a in e.args]
        if any(isinstance(a, Abstract) for a in args):
            return self._abstract(e.fn, args)
        if e.fn in _COUNTED_INTRINSICS:
            self.profiler.op("fcall")
        elif e.fn == "abs" and any(isinstance(a, _FLOATS) for a in args):
            self.profiler.op("fabs")
        return N.INTRINSIC_IMPL[e.fn](*args)

    # -- the concrete domain's decisions ----------------------------------
    _truth, _int = staticmethod(bool), staticmethod(int)
    _number = staticmethod(operator.index)  # as range() would

    @staticmethod
    def _new_array(ty, size):
        return np.zeros(size) if ty == "float" else np.zeros(size, dtype=int)

    @staticmethod
    def _element(arr, idx):
        v = arr[idx]
        return float(v) if isinstance(v, (float, np.floating)) else int(v)

    @staticmethod
    def _store_element(arr, idx, value):
        arr[idx] = value

    @staticmethod
    def _coerce_like(old, new):
        if isinstance(old, _FLOATS):
            return new * 1.0
        return int(new) if type(old) is int else new
