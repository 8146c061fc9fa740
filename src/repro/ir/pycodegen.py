"""Generate fast Python functions from work-function IR.

This is the reproduction of the StreamIt uniprocessor backend: where the
paper's compiler emits C that is compiled with ``gcc -O2``, we emit Python
source compiled with :func:`compile`/``exec``.  The generated function has
signature ``work(peek, pop, push, F)`` where ``peek``/``pop``/``push`` are
bound channel methods and ``F`` is the filter's field dict.

Float-op accounting is *static per basic block*: at generation time we count
the float operations in each straight-line region and emit a single bulk
counter update that executes once per region execution, giving dynamic
counts identical to the tree interpreter at a fraction of the cost.  A
loop whose body has no ``if`` is one region: its update runs once, after
the loop, for ``len(range(...))`` executions.

Type inference: locals declared ``int`` (including loop variables) are ints;
everything else (peeks, pops, float fields/locals) is a float.  An operation
is a float-op when any operand is float, mirroring the interpreter.

:func:`emit_lanes` generates a second form of the same work function
that evaluates a block of consecutive firings per call, with NumPy
arrays where the scalar form has floats (the plan backend's
:class:`~repro.exec.kernels.LaneStep`); its counts are each block's
static counts times the lanes that ran the block.  A lane is one firing
of one filter: the arrays may carry a leading axis of sibling filters
that differ in the value of some float field only, and the form is
written over the last axis so it does not care.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InterpError, IRError
from ..profiling import CATEGORIES, Counts
from . import nodes as N
from .interp import _COUNTED_INTRINSICS


class _TypeEnv:
    """Tracks which names are known ints; fields contribute their dtype."""

    def __init__(self, fields: dict):
        self.int_names: set[str] = set()
        self.float_names: set[str] = set()
        for name, value in fields.items():
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                self.int_names.add(name)
            elif isinstance(value, np.ndarray) and value.dtype.kind == "i":
                self.int_names.add(name)
            else:
                self.float_names.add(name)

    def declare(self, name: str, ty: str):
        if ty == "int":
            self.int_names.add(name)
            self.float_names.discard(name)
        else:
            self.float_names.add(name)
            self.int_names.discard(name)

    def is_int(self, e: N.Expr) -> bool:
        """True when the expression is statically known to be an int."""
        if isinstance(e, N.Const):
            return isinstance(e.value, int)
        if isinstance(e, N.Var):
            return e.name in self.int_names
        if isinstance(e, N.Index):
            return e.base in self.int_names
        if isinstance(e, (N.Peek, N.Pop)):
            return False
        if isinstance(e, N.Un):
            return self.is_int(e.operand) if e.op == "-" else True
        if isinstance(e, N.Bin):
            if e.op in ("&&", "||", "&", "|", "^", "<<", ">>",
                        "==", "!=", "<", "<=", ">", ">="):
                return True
            return self.is_int(e.left) and self.is_int(e.right)
        if isinstance(e, N.Call):
            if e.fn in ("floor", "ceil", "round"):
                return True
            if e.fn in ("abs", "min", "max"):
                return all(self.is_int(a) for a in e.args)
            return False
        return False


#: float-op category of each binary operator with a float operand
_BIN_CATEGORY = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                 "%": "fdiv", "==": "fcmp", "!=": "fcmp", "<": "fcmp",
                 "<=": "fcmp", ">": "fcmp", ">=": "fcmp"}


class _Emitter:
    #: suffix of every emitted count: how many firings run the block
    times = ""

    def __init__(self, tenv: _TypeEnv):
        self.tenv = tenv
        self.lines: list[str] = []
        self.pending = Counts()  # float-ops owed for the current block
        self.uid = 0  # numbers the temporaries

    def emit(self, line: str, indent: int):
        self.lines.append("    " * indent + line)

    def flush_counts(self, indent: int, trips: str = ""):
        """Emit a counter bump for the ops accumulated in this region
        (``trips``: how often a loop ran it)."""
        c = self.pending
        if c.flops == 0:
            self.pending = Counts()
            return
        args = ", ".join(f"{k}={getattr(c, k)}{trips}{self.times}"
                         for k in CATEGORIES if getattr(c, k))
        self.emit(f"_bulk({args})", indent)
        self.pending = Counts()

    # -- expressions --------------------------------------------------
    def expr(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            return repr(e.value)
        if isinstance(e, N.Var):
            return self._name(e.name)
        if isinstance(e, N.Index):
            return f"{self._name(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, N.Peek):
            return f"peek({self.expr(e.index)})"
        if isinstance(e, N.Pop):
            return "pop()"
        if isinstance(e, N.Un):
            if e.op == "-":
                if not self.tenv.is_int(e.operand):
                    self.pending.fneg += 1
                return f"(-{self.expr(e.operand)})"
            return f"(0 if {self.expr(e.operand)} else 1)"
        if isinstance(e, N.Call):
            return self._call(e)
        if isinstance(e, N.Bin):
            return self._bin(e)
        raise IRError(f"cannot generate code for {e!r}")

    def _name(self, name: str) -> str:
        return f"_v_{name}"

    def _count_call(self, e: N.Call) -> None:
        if e.fn in _COUNTED_INTRINSICS:
            self.pending.fcall += 1
        elif e.fn == "abs" and not all(self.tenv.is_int(a) for a in e.args):
            self.pending.fabs += 1

    def _count_bin(self, e: N.Bin) -> bool:
        """Count ``e`` if it is a float op; returns whether both
        operands are ints."""
        both_int = self.tenv.is_int(e.left) and self.tenv.is_int(e.right)
        if not both_int and e.op in _BIN_CATEGORY:
            cat = _BIN_CATEGORY[e.op]
            setattr(self.pending, cat, getattr(self.pending, cat) + 1)
        return both_int

    def _call(self, e: N.Call) -> str:
        args = ", ".join(self.expr(a) for a in e.args)
        self._count_call(e)
        fn = {"abs": "abs", "pow": "pow", "min": "min", "max": "max",
              "round": "round"}.get(e.fn, f"_math.{e.fn}")
        return f"{fn}({args})"

    def _bin(self, e: N.Bin) -> str:
        op = e.op
        if op == "&&":
            return f"(1 if ({self.expr(e.left)} and {self.expr(e.right)}) else 0)"
        if op == "||":
            return f"(1 if ({self.expr(e.left)} or {self.expr(e.right)}) else 0)"
        l, r = self.expr(e.left), self.expr(e.right)
        both_int = self._count_bin(e)
        if op == "/" and both_int:
            return f"_idiv({l}, {r})"
        if op == "%":
            return f"_imod({l}, {r})" if both_int else f"_math.fmod({l}, {r})"
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return f"(1 if {l} {op} {r} else 0)"
        return f"({l} {op} {r})"  # + - * / & | ^ << >>

    # -- statements ---------------------------------------------------
    def block(self, stmts: tuple[N.Stmt, ...], indent: int):
        for s in stmts:
            self.stmt(s, indent)
        self.flush_counts(indent)

    def stmt(self, s: N.Stmt, indent: int):
        if isinstance(s, N.Decl):
            self.tenv.declare(s.name, s.ty)
            if s.size is not None:
                zero = "0.0" if s.ty == "float" else "0"
                self.emit(f"{self._name(s.name)} = [{zero}] * {s.size}", indent)
            else:
                init = self.expr(s.init) if s.init is not None else (
                    "0.0" if s.ty == "float" else "0")
                if s.ty == "float":
                    # ``x * 1.0`` instead of ``float(x)``: bit-exact for
                    # floats, coerces ints, and passes complex through
                    # (the plan backend's scalar fallback may carry
                    # complex samples under a complex numeric policy)
                    self.emit(f"{self._name(s.name)} = {init} * 1.0",
                              indent)
                else:
                    self.emit(f"{self._name(s.name)} = int({init})", indent)
        elif isinstance(s, N.Assign):
            rhs = self.expr(s.value)
            if isinstance(s.target, N.Var):
                self.emit(f"{self._name(s.target.name)} = {rhs}", indent)
            else:
                self.emit(
                    f"{self._name(s.target.base)}"
                    f"[{self.expr(s.target.index)}] = {rhs}", indent)
        elif isinstance(s, N.PushS):
            # same ``* 1.0`` normalization as float declarations
            self.emit(f"push({self.expr(s.value)} * 1.0)", indent)
        elif isinstance(s, N.PopS):
            self.emit("pop()", indent)
        elif isinstance(s, N.If):
            # flush ops owed before the branch, then count each arm inside it
            cond = self.expr(s.cond)
            self.flush_counts(indent)
            self.emit(f"if {cond}:", indent)
            if s.then:
                self.block(s.then, indent + 1)
            else:
                self.emit("pass", indent + 1)
            if s.orelse:
                self.emit("else:", indent)
                self.block(s.orelse, indent + 1)
        elif isinstance(s, N.For):
            self.tenv.declare(s.var, "int")
            r = "range(%s)" % ", ".join(map(self.expr,
                                            (s.start, s.stop, s.step)))
            if _straight_line(s.body):
                # every iteration owes the same counts: one bump after
                # the loop for all of them, not one an iteration
                self.uid += 1
                self.emit(f"_r{self.uid} = {r}", indent)
                r = f"_r{self.uid}"
                owed, self.pending = self.pending, Counts()
                self._loop(s, r, indent)
                self.flush_counts(indent, trips=f" * len({r})")
                self.pending = owed
            else:
                self.flush_counts(indent)
                self._loop(s, r, indent)
                self.flush_counts(indent + 1)
        else:  # pragma: no cover
            raise IRError(f"cannot generate code for {s!r}")

    def _loop(self, s: N.For, r: str, indent: int):
        """The loop itself over the iterable ``r``; its body's counts
        are left pending."""
        self.emit(f"for {self._name(s.var)} in {r}:", indent)
        for inner in s.body:
            self.stmt(inner, indent + 1)
        if not s.body:
            self.emit("pass", indent + 1)


def _straight_line(stmts: tuple[N.Stmt, ...]) -> bool:
    """No ``if`` anywhere: each execution owes the same float-ops."""
    return not any(isinstance(s, N.If) for s in N.walk_stmts(stmts))


_idiv = N.c_int_div


def _imod(a: int, b: int) -> int:
    return a - _idiv(a, b) * b


def compile_work(wf: N.WorkFunction, fields: dict, name: str = "work"):
    """Compile a work function to a Python callable.

    Returns ``fn(peek, pop, push, fields, bulk)`` where ``bulk`` is the
    profiler's :meth:`~repro.runtime.profiler.Profiler.bulk` method.  Field
    reads/writes go through the ``fields`` dict so state persists across
    firings and is shared with the interpreter.
    """
    tenv = _TypeEnv(fields)
    em = _Emitter(tenv)
    name = "".join(c if c.isalnum() or c == "_" else "_" for c in name) \
        or "work"
    if name[0].isdigit():
        name = f"f_{name}"
    em.emit(f"def _{name}(peek, pop, push, _F, _bulk):", 0)
    # Bind fields to locals on entry; write back mutated scalars on exit.
    field_names = sorted(fields)
    for fname in field_names:
        em.emit(f"_v_{fname} = _F[{fname!r}]", 1)
    em.block(wf.body, 1)
    written = N.assigned_names(wf.body)
    for fname in field_names:
        value = fields[fname]
        if fname in written and not isinstance(value, np.ndarray):
            em.emit(f"_F[{fname!r}] = _v_{fname}", 1)
    src = "\n".join(em.lines) + "\n"
    namespace = {"_math": math, "_idiv": _idiv, "_imod": _imod}
    exec(compile(src, f"<generated:{name}>", "exec"), namespace)
    fn = namespace[f"_{name}"]
    fn.__repro_source__ = src
    return fn


# ---------------------------------------------------------------------------
# Lane form: one call evaluates a block of consecutive firings
# ---------------------------------------------------------------------------


class LaneReject(Exception):
    """The work function has no lane form; ``str(exc)`` says why."""


class LaneBailout(Exception):
    """Raised by lane code when this block must be fired scalar."""


class _NoSliceForm(Exception):
    """The expression cannot be evaluated along a loop axis."""


def _ramp(start, step, n: int, subtract: bool) -> np.ndarray:
    """``start, start ± step, ...`` (``n + 1`` values) by sequential
    accumulation, so entry ``i`` is bit for bit what ``i`` scalar updates
    leave in the field — for ints and for floats."""
    if isinstance(start, (int, np.integer)):
        last = start - step * n if subtract else start + step * n
        if not -2 ** 63 <= min(start, last) <= max(start, last) < 2 ** 63:
            raise LaneBailout  # Python ints grow, int64 would wrap
        seq = np.empty(n + 1, dtype=np.int64)
    else:
        seq = np.empty(n + 1, dtype=np.float64)
    seq[0] = start
    seq[1:] = step
    return (np.subtract if subtract else np.add).accumulate(seq)


# Python's two-argument min/max: ``b if b < a else a`` (keeps ``a`` on
# ties and NaNs, where np.minimum/np.maximum do not)
def _min2(a, b):
    return np.where(b < a, b, a)


def _max2(a, b):
    return np.where(b > a, b, a)


def _taken(mask: np.ndarray, lanes: int) -> int:
    """How many of ``lanes`` lanes ``mask`` selects.  A mask computed
    from values some axis does not vary along is short of that axis,
    and stands for every lane it broadcasts to.  int(): the profile's
    counts stay Python ints."""
    return int(np.count_nonzero(mask)) * (lanes // mask.size)


def _gather(a: np.ndarray, r: range, offset: int) -> np.ndarray:
    """``a[..., offset + j]`` for ``j`` in ``r``, along a new last axis:
    a slice of ``a`` (a view) where the indices run upwards inside it,
    else the indices themselves, which wrap and raise as the loop's
    would."""
    if not r:
        return a[..., :0]
    lo, hi = offset + r[0], offset + r[-1]
    if r.step > 0 and lo >= 0 and hi < a.shape[-1]:
        return a[..., lo:hi + 1:r.step]
    return a[..., offset + np.asarray(r)]


def _accumulate(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``((acc + t[0]) + t[1]) + ...`` over the last axis of ``terms``:
    ``np.add.accumulate`` is the sequential sum (as in :func:`_ramp`),
    so the result is bit for bit what the loop ``acc = acc + t[j]``
    leaves.  Adds in place when ``terms`` is a temporary; a view (of
    the input ring, of a field) or a narrower array is copied first."""
    if not terms.shape[-1]:
        return acc
    if terms.base is not None or terms.shape[:-1] != acc.shape \
            or terms.dtype != acc.dtype:
        full = np.empty(np.broadcast_shapes(acc.shape + (1,), terms.shape),
                        np.result_type(acc, terms))
        full[...] = terms
        terms = full
    np.add(acc, terms[..., 0], out=terms[..., 0])
    return np.add.accumulate(terms, axis=-1)[..., -1]


_LANE_NAMESPACE = {"_np": np, "_math": math, "_idiv": _idiv, "_imod": _imod,
                   "_ramp": _ramp, "_min2": _min2, "_max2": _max2,
                   "_taken": _taken, "_gather": _gather,
                   "_accumulate": _accumulate, "_InterpError": InterpError}

_LANE_CALLS = {"sin": "_np.sin", "cos": "_np.cos", "tan": "_np.tan",
               "atan": "_np.arctan", "atan2": "_np.arctan2",
               "exp": "_np.exp", "log": "_np.log", "sqrt": "_np.sqrt",
               "abs": "_np.abs", "pow": "_np.power",
               "min": "_min2", "max": "_max2"}

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


class _Arm:
    """One arm of an if-converted branch while it is being emitted."""

    def __init__(self):
        self.pushes: list[str] = []  # temporaries holding pushed values
        self.pops = 0
        #: False inside a loop or lane-invariant ``if`` of the arm,
        #: where tape operations cannot be counted at generation time
        self.static = True
        self.declared: set[str] = set()


class _LaneEmitter(_Emitter):
    """Emits the lane form of a work function.

    Every float local, peek and pop is an array whose last axis is the
    ``_n`` firings, ints and immutable fields stay Python scalars shared
    by all lanes, and an expression over scalars only is emitted exactly
    as the scalar emitter would.  A branch on lane values is
    if-converted: both arms run on every lane and ``np.where`` keeps,
    per lane, the locals and pushes of the arm that lane took.  A loop
    stays a Python loop over the arrays, except a reduction loop (``acc
    = acc + E``, see :meth:`_reduce`): one expression with the
    iterations along one more axis.

    ``varying`` names the float fields whose value differs between the
    sibling filters one call evaluates (bound to ``(siblings, 1)``
    columns): lane values like any other, so whatever has no lane form
    — a ``math`` call, a loop bound — rejects them by name.
    """

    def __init__(self, tenv: _TypeEnv, counters: dict,
                 varying: frozenset = frozenset()):
        super().__init__(tenv)
        self.counters = counters
        self.lanes = set(counters) | varying  # names bound to lane arrays
        self.times = " * _N"
        self.mask: str | None = None  # lanes running the current arm
        self.arm: _Arm | None = None
        #: names declared inside an arm that has since been merged
        self.out_of_scope: set[str] = set()
        self.branches = 0
        self.loops = False
        self.reduced = 0  # loops emitted as one accumulate

    def varying(self, e: N.Expr) -> bool:
        return any(isinstance(x, (N.Peek, N.Pop))
                   or isinstance(x, N.Var) and x.name in self.lanes
                   for x in N.walk_exprs(e))

    def _tape_op(self, pops: int = 0) -> None:
        """A push, or ``pops`` pops, at the current position."""
        if self.arm is not None:
            if not self.arm.static:
                raise LaneReject("push/pop in a loop or nested branch "
                                 "under a data-dependent branch")
            self.arm.pops += pops

    # -- expressions --------------------------------------------------
    def expr(self, e: N.Expr) -> str:
        if isinstance(e, N.Var) and e.name in self.out_of_scope:
            raise LaneReject(f"local {e.name} is declared under a "
                             "data-dependent branch and used outside it")
        if isinstance(e, (N.Peek, N.Index)) and self.varying(e.index):
            what = "peek" if isinstance(e, N.Peek) else "array"
            raise LaneReject(f"lane-varying {what} index")
        if isinstance(e, N.Peek):
            return f"_win[..., _p + {self.expr(e.index)}]"
        if isinstance(e, N.Pop):
            self._tape_op(pops=1)
            return "_pop()"
        if isinstance(e, N.Un) and e.op == "!" and self.varying(e):
            return f"_np.where({self.cond(e)}, 1, 0)"
        return super().expr(e)

    def cond(self, e: N.Expr) -> str:
        """``e`` as a per-lane truth value."""
        if self.varying(e):
            if isinstance(e, N.Bin) and e.op in ("&&", "||"):
                if any(isinstance(x, N.Pop) for x in N.walk_exprs(e.right)):
                    raise LaneReject("pop() under a short-circuit operator")
                fn = "and" if e.op == "&&" else "or"
                return (f"_np.logical_{fn}({self.cond(e.left)}, "
                        f"{self.cond(e.right)})")
            if isinstance(e, N.Bin) and e.op in _COMPARISONS:
                l, r = self.expr(e.left), self.expr(e.right)
                self._count_bin(e)
                return f"({l} {e.op} {r})"
            if isinstance(e, N.Un) and e.op == "!":
                return f"_np.logical_not({self.cond(e.operand)})"
        return f"({self.expr(e)} != 0)"

    def _call(self, e: N.Call) -> str:
        if not self.varying(e):
            return super()._call(e)
        fn = _LANE_CALLS.get(e.fn)
        if fn is None or (fn in ("_min2", "_max2") and len(e.args) != 2):
            raise LaneReject(f"{e.fn}() of a lane-varying value")
        args = ", ".join(self.expr(a) for a in e.args)
        self._count_call(e)
        return f"{fn}({args})"

    def _bin(self, e: N.Bin) -> str:
        if not self.varying(e):
            return super()._bin(e)
        if e.op in ("&&", "||") or e.op in _COMPARISONS:
            return f"_np.where({self.cond(e)}, 1, 0)"
        l, r = self.expr(e.left), self.expr(e.right)
        if self._count_bin(e) or e.op not in _BIN_CATEGORY:
            # int64 lanes would wrap where Python ints grow
            raise LaneReject(f"integer {e.op!r} on a lane-varying value")
        if e.op == "%":
            return f"_np.fmod({l}, {r})"
        return f"({l} {e.op} {r})"

    # -- statements ---------------------------------------------------
    def _declare(self, name: str) -> None:
        self.out_of_scope.discard(name)
        if self.arm is not None:
            self.arm.declared.add(name)

    def _spread(self, value: N.Expr | None) -> str:
        """``value`` as a float lane array."""
        if value is None:
            return "_np.full(_n, 0.0)"
        code = self.expr(value)
        if not self.varying(value):
            return f"_np.full(_n, {code} * 1.0)"
        # arrays are only ever rebound, never written: no copy needed
        return f"{code} * 1.0" if self.tenv.is_int(value) else code

    def _push(self, value: str, indent: int) -> None:
        self._tape_op()
        if self.arm is None:
            self.emit(f"_out[..., _k] = {value}", indent)
            self.emit("_k += 1", indent)
        else:
            self.uid += 1
            self.emit(f"_u{self.uid} = {value}", indent)
            self.arm.pushes.append(f"_u{self.uid}")

    def stmt(self, s: N.Stmt, indent: int):
        if isinstance(s, N.Decl):
            if s.size is not None:
                raise LaneReject(f"declares a local array ({s.name})")
            self._declare(s.name)
            if s.ty == "float":
                self.tenv.declare(s.name, "float")
                code = self._spread(s.init)
                self.lanes.add(s.name)
                self.emit(f"{self._name(s.name)} = {code}", indent)
            elif s.init is not None and self.varying(s.init):
                raise LaneReject(f"lane-varying int local {s.name}")
            else:
                super().stmt(s, indent)
        elif isinstance(s, N.Assign):
            self._assign(s, indent)
        elif isinstance(s, N.PushS):
            self._push(self.expr(s.value), indent)
        elif isinstance(s, N.PopS):
            self._tape_op(pops=1)
            self.emit("_p += 1", indent)
        elif isinstance(s, N.If) and self.varying(s.cond):
            self._if_convert(s, indent)
        elif isinstance(s, (N.If, N.For)):
            if isinstance(s, N.For):
                if any(map(self.varying, (s.start, s.stop, s.step))):
                    raise LaneReject("lane-varying loop bound")
                self._declare(s.var)
                self.loops = True
            arm = self.arm
            was_static = arm is not None and arm.static
            if arm is not None:
                arm.static = False
            super().stmt(s, indent)
            if arm is not None:
                arm.static = was_static
        else:  # pragma: no cover
            raise IRError(f"cannot generate code for {s!r}")

    def _loop(self, s: N.For, r: str, indent: int):
        terms = self._reduce(s, r)
        if terms is None:
            return super()._loop(s, r, indent)
        self.reduced += 1
        acc = self._name(s.body[0].target.name)
        self.emit(f"{acc} = _accumulate({acc}, {terms})", indent)
        # ... and the variable ends where the loop leaves it
        self.emit(f"for {self._name(s.var)} in {r}[-1:]: pass", indent)

    def _reduce(self, s: N.For, r: str) -> str | None:
        """The terms of a reduction loop — a body of the one statement
        ``acc = acc + E``, ``acc`` a lane local that ``E`` does not
        read, ``E`` without ``pop()`` — as one expression with the
        iterations ``r`` along a new last axis, one iteration's counts
        left pending; None for any other loop."""
        if len(s.body) != 1 or not isinstance(s.body[0], N.Assign):
            return None
        acc, value = s.body[0].target, s.body[0].value
        if not (isinstance(acc, N.Var) and acc.name in self.lanes
                and isinstance(value, N.Bin) and value.op == "+"
                and value.left == acc):
            return None
        inside = list(N.walk_exprs(value.right))
        if N.Var(s.var) not in inside or acc in inside \
                or any(isinstance(x, N.Pop) for x in inside):
            return None
        owed = self.pending.copy()
        try:
            terms = self._terms(value.right, N.Var(s.var), r)
        except _NoSliceForm:
            self.pending = owed
            return None
        self._count_bin(value)
        return terms

    def _terms(self, e: N.Expr, var: N.Var, r: str) -> str:
        """``e`` for every ``var`` in ``r`` at once: lane values gain a
        last axis of length 1, ``peek(var ± c)`` and ``field[var ± c]``
        become the slice the loop walks, and arithmetic broadcasts the
        two.  Of the calls only ``sqrt`` and ``abs``: exact whoever
        computes them, where the loop may hand a libm call to ``math``
        or to NumPy."""
        if var not in N.walk_exprs(e):
            code = self.expr(e)
            return f"{code}[..., None]" if self.varying(e) else code
        if isinstance(e, N.Peek):
            return f"_gather(_win, {r}, _p + {self._offset(e.index, var)})"
        if isinstance(e, N.Index) and e.base not in self.tenv.int_names:
            return (f"_gather({self._name(e.base)}, {r}, "
                    f"{self._offset(e.index, var)})")
        if isinstance(e, N.Un) and e.op == "-":
            self.pending.fneg += 1
            return f"(-{self._terms(e.operand, var, r)})"
        if isinstance(e, N.Bin) and e.op in ("+", "-", "*", "/"):
            left = self._terms(e.left, var, r)
            right = self._terms(e.right, var, r)
            self._count_bin(e)
            return f"({left} {e.op} {right})"
        if isinstance(e, N.Call) and e.fn in ("sqrt", "abs"):
            (arg,) = e.args
            arg = self._terms(arg, var, r)
            self._count_call(e)
            return f"{_LANE_CALLS[e.fn]}({arg})"
        raise _NoSliceForm

    def _offset(self, index: N.Expr, var: N.Var) -> str:
        """``c`` of an index ``var + c``, ``c + var`` or ``var - c``
        with ``c`` an int all lanes and iterations share."""
        if index == var:
            return "0"
        if isinstance(index, N.Bin) and index.op in ("+", "-"):
            c = index.right if index.left == var else index.left
            if (index.left == var or index.op == "+" and index.right == var) \
                    and var not in N.walk_exprs(c) and not self.varying(c) \
                    and self.tenv.is_int(c):
                return ("(-%s)" if index.op == "-" else "%s") % self.expr(c)
        raise _NoSliceForm

    def _assign(self, s: N.Assign, indent: int) -> None:
        name = s.target.name  # never an Index: see _find_counters
        if name in self.counters:
            # the one top-level ``f = f ± c`` (see _find_counters)
            self._count_bin(s.value)
            self.emit(f"_v_{name} = _a_{name}[1:]", indent)
        elif name in self.tenv.int_names:
            if self.varying(s.value):
                raise LaneReject(f"lane-varying int local {name}")
            if self.mask is not None and name not in self.arm.declared:
                raise LaneReject(f"int local {name} assigned under a "
                                 "data-dependent branch")
            super().stmt(s, indent)
        else:
            if name in self.out_of_scope:
                raise LaneReject(f"local {name} is declared under a "
                                 "data-dependent branch and used outside it")
            code = self._spread(s.value)
            if name not in self.lanes:  # first seen here: an implicit decl
                self._declare(name)
                self.lanes.add(name)
            self.emit(f"{self._name(name)} = {code}", indent)

    def _if_convert(self, s: N.If, indent: int) -> None:
        self.uid += 1
        k = self.uid
        self.branches += 1
        cond = self.cond(s.cond)
        self.flush_counts(indent)
        self.emit(f"_c{k} = {cond}", indent)
        outer = (self.mask, self.times, self.arm)
        merged = sorted((N.assigned_names(s.then) | N.assigned_names(s.orelse))
                        & (self.lanes - set(self.counters)
                           - self.out_of_scope))
        for name in merged:
            self.emit(f"_s{k}_{name} = _v_{name}", indent)
        self.emit(f"_p{k} = _p", indent)
        if self.mask is None:
            masks = (f"_c{k}", f"~_c{k}")
        else:
            masks = (f"({self.mask} & _c{k})", f"({self.mask} & ~_c{k})")
        live = outer[1].removeprefix(" * ")
        self.emit(f"_nt{k} = _taken({masks[0]}, _N)", indent)
        self.emit(f"_ne{k} = {live} - _nt{k}", indent)
        arms = []
        for body, mask, count in ((s.then, masks[0], f"_nt{k}"),
                                  (s.orelse, masks[1], f"_ne{k}")):
            self.arm = arm = _Arm()
            self.mask, self.times = mask, f" * {count}"
            self.block(body, indent)
            arms.append(arm)
            self.out_of_scope |= arm.declared
            if body is s.then:
                # park the then-values, rewind for the else arm
                for name in merged:
                    self.emit(f"_t{k}_{name} = _v_{name}", indent)
                    self.emit(f"_v_{name} = _s{k}_{name}", indent)
                self.emit(f"_p = _p{k}", indent)
        self.mask, self.times, self.arm = outer
        then, orelse = arms
        if then.pops != orelse.pops or \
                len(then.pushes) != len(orelse.pushes):
            raise LaneReject("branch arms pop or push different counts")
        for name in merged:
            self.emit(f"_v_{name} = _np.where(_c{k}, _t{k}_{name}, "
                      f"_v_{name})", indent)
        if then.pops:
            self._tape_op(pops=then.pops)
        for a, b in zip(then.pushes, orelse.pushes):
            self._push(f"_np.where(_c{k}, {a}, {b})", indent)


def _find_counters(wf: N.WorkFunction, fields: dict) -> dict:
    """The fields ``wf`` writes, each required to be an additive
    counter: a scalar whose only write is one unconditional top-level
    ``f = f ± c`` with ``c`` a constant or an immutable scalar field.
    Returns ``{field: (op, c)}``.  Array writes of any kind are
    rejected here."""
    writes = [s for s in N.walk_stmts(wf.body) if isinstance(s, N.Assign)]
    for s in writes:
        if isinstance(s.target, N.Index):
            raise LaneReject(f"writes array {s.target.base}")
    counters = {}
    for name in sorted({s.target.name for s in writes} & set(fields)):
        sites = [s for s in writes if s.target.name == name]
        if len(sites) != 1 or not any(s is sites[0] for s in wf.body):
            raise LaneReject(f"field {name} is written more than once or "
                             "under control flow")
        v = sites[0].value
        step = getattr(v, "right", None)
        if not (isinstance(v, N.Bin) and v.op in ("+", "-")
                and v.left == N.Var(name)
                and (isinstance(step, N.Const)
                     or isinstance(step, N.Var) and step.name in fields
                     and not any(w.target.name == step.name
                                 for w in writes)
                     and not isinstance(fields[step.name], np.ndarray))):
            raise LaneReject(f"field {name} is not an additive counter "
                             f"({name} = {name} +/- c)")
        counters[name] = (v.op, step)
    return counters


class LaneCode:
    """The lane form of one work function: generated source, compiled on
    first use.  ``function()(win, out, fields, n, lanes, bulk)``
    evaluates ``n`` firings over the ``(n, peek)`` window ``win`` into
    the ``(n, push)`` block ``out`` — or ``n`` firings of each of ``b``
    sibling filters, ``win`` and ``out`` with a leading axis of length
    ``b``, the fields named in ``varying`` as ``(b, 1)`` columns and
    ``lanes = b * n`` — reports each block's counts times the lanes
    that ran it, and leaves the counters' final values in ``fields``;
    it touches ``fields`` last, so a call that raises has changed
    nothing.  The function runs with NumPy's division, overflow and
    domain errors raised rather than warned about."""

    def __init__(self, source: str, entry: str, detail: str,
                 counters: tuple, varying: frozenset = frozenset()):
        self.source = source
        self.entry = entry
        self.detail = detail  # what the plan report prints
        self.counters = counters
        self.varying = varying  # fields it takes one value per sibling of
        self._fn = None

    def function(self):
        if self._fn is None:
            namespace = dict(_LANE_NAMESPACE)
            exec(compile(self.source, f"<lanes:{self.entry}>", "exec"),
                 namespace)
            # as a decorator: an errstate object is entered once only
            self._fn = np.errstate(divide="raise", over="raise",
                                   invalid="raise", under="ignore")(
                namespace[self.entry])
        return self._fn


def lane_key(wf: N.WorkFunction, fields: dict,
             varying: frozenset = frozenset()) -> tuple:
    """What :func:`emit_lanes` depends on: the IR text (``repr`` tells
    ``1`` from ``1.0``, ``==`` on the nodes would not), each field's
    type and which fields are lanes — never a field's value, so equal
    filters share one :class:`LaneCode`."""
    return (repr(wf), tuple(sorted(
        (k, v.dtype.kind if isinstance(v, np.ndarray) else type(v).__name__)
        for k, v in fields.items())), tuple(sorted(varying)))


def emit_lanes(wf: N.WorkFunction, fields: dict, name: str = "work",
               varying: frozenset = frozenset()) -> LaneCode:
    """Generate the lane form of ``wf``, the float scalar fields named
    in ``varying`` taken as lane values (see :class:`_LaneEmitter`);
    raises :class:`LaneReject` with the reason when the body has
    none."""
    # counters and field types are resolved by name over the whole body
    shadowed = N.declared_names(wf.body) & set(fields)
    if shadowed:
        raise LaneReject(f"local {min(shadowed)} shadows a field")
    counters = _find_counters(wf, fields)
    tenv = _TypeEnv(fields)
    for fname, (_, step) in counters.items():
        if fname in tenv.int_names and not tenv.is_int(step):
            raise LaneReject(f"int counter {fname} with a float step")
        if isinstance(step, N.Var) and step.name in varying:
            raise LaneReject(f"counter {fname} steps by lane-varying "
                             f"field {step.name}")
    em = _LaneEmitter(tenv, counters, varying)
    entry = "_lanes_" + "".join(c if c.isalnum() else "_" for c in name)
    em.emit(f"def {entry}(_win, _out, _F, _n, _N, _bulk):", 0)
    for fname in sorted(fields):
        em.emit(f"_v_{fname} = _F[{fname!r}]", 1)
    for fname, (op, step) in counters.items():
        em.emit(f"_a_{fname} = _ramp(_v_{fname}, {em.expr(step)}, _n, "
                f"{op == '-'})", 1)
        em.emit(f"_v_{fname} = _a_{fname}[:-1]", 1)
    em.emit("_p = _k = 0", 1)
    em.emit("def _pop():", 1)
    em.emit("nonlocal _p", 2)
    em.emit("_p += 1", 2)
    em.emit("return _win[..., _p - 1]", 2)
    em.block(wf.body, 1)
    em.emit(f"if _p != {wf.pop} or _k != {wf.push}:", 1)
    em.emit("raise _InterpError('work popped %d and pushed %d items, "
            f"declared pop {wf.pop} push {wf.push}' % (_p, _k))", 2)
    for fname in counters:
        em.emit(f"_F[{fname!r}] = _a_{fname}[_n].item()", 1)
    detail = ([f"if-converted {em.branches} branches"] * bool(em.branches)
              + [f"counter {c}" for c in counters]
              + ["loops" + f" ({em.reduced} reduced)" * bool(em.reduced)]
              * em.loops)
    return LaneCode("\n".join(em.lines) + "\n", entry,
                    ", ".join(detail) or "straight-line", tuple(counters),
                    varying)
