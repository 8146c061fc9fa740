"""Reference tree-walking interpreter for work-function IR.

Executes one firing of a :class:`~repro.ir.nodes.WorkFunction` against a
pair of channels, reporting every floating-point operation to the active
profiler.  This is the semantic reference: the faster generated-Python
backend (:mod:`repro.ir.pycodegen`) is tested against it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InterpError
from ..profiling import Profiler
from . import nodes as N

_MAX_LOOP_ITERS = 10_000_000

_COUNTED_INTRINSICS = frozenset(
    {"sin", "cos", "tan", "atan", "atan2", "exp", "log", "sqrt", "pow"})


def _is_float(v) -> bool:
    # complex counts as floating for op accounting and promotion: under
    # a complex numeric policy, scalar evaluation carries complex
    # samples through the same float-typed DSL expressions
    return isinstance(v, (float, complex))


class Interpreter:
    """Interprets work-function bodies for a single filter instance.

    ``fields`` maps field names to scalars or numpy arrays; the dict (and
    array contents) are mutated in place by field assignments, which is how
    stateful filters carry state between firings.
    """

    def __init__(self, fields: dict, profiler: Profiler):
        self.fields = fields
        self.profiler = profiler
        self._ch_in = None
        self._ch_out = None
        self._popped = 0
        self._pushed = 0

    # ------------------------------------------------------------------
    def run(self, wf: N.WorkFunction, ch_in, ch_out) -> None:
        """Execute one firing of ``wf``: read from ch_in, write to ch_out.

        Reentrant: per-firing tape state is saved and restored, so a
        probe firing (e.g. the planner's FLOP-count probe while a paused
        session holds this runner mid-stream) cannot corrupt an
        in-flight firing's pop/push accounting.
        """
        frame = (self._ch_in, self._ch_out, self._popped, self._pushed)
        env: dict[str, object] = {}
        self._ch_in = ch_in
        self._ch_out = ch_out
        self._popped = 0
        self._pushed = 0
        try:
            self._exec_block(wf.body, env)
            if self._popped != wf.pop:
                raise InterpError(
                    f"work popped {self._popped} items, "
                    f"declared pop {wf.pop}")
            if self._pushed != wf.push:
                raise InterpError(
                    f"work pushed {self._pushed} items, "
                    f"declared push {wf.push}")
        finally:
            self._ch_in, self._ch_out, self._popped, self._pushed = frame

    # ------------------------------------------------------------------
    def _exec_block(self, stmts, env):
        for s in stmts:
            self._exec_stmt(s, env)

    def _exec_stmt(self, s, env):
        if isinstance(s, N.Assign):
            v = self._eval(s.value, env)
            self._store(s.target, v, env)
        elif isinstance(s, N.PushS):
            v = self._eval(s.value, env)
            # ``* 1.0`` instead of ``float()``: bit-exact for floats,
            # coerces ints, passes complex through (complex policies)
            self._ch_out.push(v * 1.0)
            self._pushed += 1
        elif isinstance(s, N.PopS):
            self._ch_in.pop()
            self._popped += 1
        elif isinstance(s, N.For):
            start = self._eval(s.start, env)
            stop = self._eval(s.stop, env)
            step = self._eval(s.step, env)
            if step == 0:
                raise InterpError("loop step of zero")
            i, iters = start, 0
            while (i < stop) if step > 0 else (i > stop):
                env[s.var] = i
                self._exec_block(s.body, env)
                i = env[s.var] + step
                iters += 1
                if iters > _MAX_LOOP_ITERS:
                    raise InterpError("loop iteration bound exceeded")
            env[s.var] = i
        elif isinstance(s, N.If):
            c = self._eval(s.cond, env)
            if c:
                self._exec_block(s.then, env)
            else:
                self._exec_block(s.orelse, env)
        elif isinstance(s, N.Decl):
            if s.size is not None:
                env[s.name] = np.zeros(s.size) if s.ty == "float" \
                    else np.zeros(s.size, dtype=int)
            elif s.init is not None:
                v = self._eval(s.init, env)
                env[s.name] = v * 1.0 if s.ty == "float" else int(v)
            else:
                env[s.name] = 0.0 if s.ty == "float" else 0
        else:  # pragma: no cover
            raise InterpError(f"unknown statement {s!r}")

    def _store(self, target, value, env):
        if isinstance(target, N.Var):
            name = target.name
            if name in env:
                env[name] = self._coerce_like(env[name], value)
            elif name in self.fields:
                self.fields[name] = self._coerce_like(self.fields[name], value)
            else:
                env[name] = value
        else:  # Index
            idx = self._eval(target.index, env)
            arr = self._lookup_array(target.base, env)
            arr[int(idx)] = value

    @staticmethod
    def _coerce_like(old, new):
        if isinstance(old, (float, complex)):
            return new * 1.0
        if isinstance(old, int) and not isinstance(old, bool):
            return int(new)
        return new

    def _lookup_array(self, name, env):
        if name in env:
            return env[name]
        if name in self.fields:
            return self.fields[name]
        raise InterpError(f"unknown array {name!r}")

    # ------------------------------------------------------------------
    def _eval(self, e, env):
        if isinstance(e, N.Const):
            return e.value
        if isinstance(e, N.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self.fields:
                return self.fields[e.name]
            raise InterpError(f"unknown variable {e.name!r}")
        if isinstance(e, N.Index):
            idx = int(self._eval(e.index, env))
            arr = self._lookup_array(e.base, env)
            v = arr[idx]
            return float(v) if isinstance(v, (float, np.floating)) else int(v)
        if isinstance(e, N.Peek):
            idx = int(self._eval(e.index, env))
            return self._ch_in.peek(idx)
        if isinstance(e, N.Pop):
            self._popped += 1
            return self._ch_in.pop()
        if isinstance(e, N.Bin):
            return self._eval_bin(e, env)
        if isinstance(e, N.Un):
            v = self._eval(e.operand, env)
            if e.op == "-":
                if _is_float(v):
                    self.profiler.op("fneg")
                return -v
            return int(not v)
        if isinstance(e, N.Call):
            args = [self._eval(a, env) for a in e.args]
            if e.fn in _COUNTED_INTRINSICS:
                self.profiler.op("fcall")
            elif e.fn == "abs" and any(_is_float(a) for a in args):
                self.profiler.op("fabs")
            return N.INTRINSIC_IMPL[e.fn](*args)
        raise InterpError(f"unknown expression {e!r}")  # pragma: no cover

    def _eval_bin(self, e, env):
        op = e.op
        if op == "&&":
            return int(bool(self._eval(e.left, env))
                       and bool(self._eval(e.right, env)))
        if op == "||":
            return int(bool(self._eval(e.left, env))
                       or bool(self._eval(e.right, env)))
        a = self._eval(e.left, env)
        b = self._eval(e.right, env)
        fl = _is_float(a) or _is_float(b)
        if op == "+":
            if fl:
                self.profiler.op("fadd")
            return a + b
        if op == "-":
            if fl:
                self.profiler.op("fsub")
            return a - b
        if op == "*":
            if fl:
                self.profiler.op("fmul")
            return a * b
        if op == "/":
            if fl:
                self.profiler.op("fdiv")
                return a / b
            return N.c_int_div(a, b)
        if op == "%":
            if fl:
                self.profiler.op("fdiv")
                return math.fmod(a, b)
            return a - N.c_int_div(a, b) * b
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if fl:
                self.profiler.op("fcmp")
            result = {"==": a == b, "!=": a != b, "<": a < b,
                      "<=": a <= b, ">": a > b, ">=": a >= b}[op]
            return int(result)
        # bit-level ops: ints only
        ia, ib = int(a), int(b)
        if op == "&":
            return ia & ib
        if op == "|":
            return ia | ib
        if op == "^":
            return ia ^ ib
        if op == "<<":
            return ia << ib
        if op == ">>":
            return ia >> ib
        raise InterpError(f"unknown operator {op!r}")  # pragma: no cover
