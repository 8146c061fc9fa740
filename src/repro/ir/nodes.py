"""IR node definitions for the C-like work-function language.

The thesis analyzes filters whose ``work`` functions are written in an
imperative, C-like language with three tape primitives (``peek``, ``pop``,
``push``).  This module defines the expression and statement forms of that
language as immutable dataclasses.  The same IR is consumed by

* the concrete interpreter (:mod:`repro.ir.interp`) that runs filters,
* the Python code generator (:mod:`repro.ir.pycodegen`) used for fast
  execution, and
* the symbolic executor of the linear extraction analysis
  (:mod:`repro.linear.extraction`).
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for all expressions."""


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (int or float)."""

    value: Union[int, float]


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a scalar local variable or filter field."""

    name: str


@dataclass(frozen=True)
class Index(Expr):
    """An array element reference ``base[index]``."""

    base: str
    index: Expr


@dataclass(frozen=True)
class Peek(Expr):
    """``peek(index)`` — read the input tape without consuming."""

    index: Expr


@dataclass(frozen=True)
class Pop(Expr):
    """``pop()`` — consume and return the head of the input tape."""


#: Binary operators understood by the IR.  Arithmetic, comparison, logical
#: and bit-level operators follow C semantics.
BINARY_OPS = frozenset(
    {"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
     "&&", "||", "&", "|", "^", "<<", ">>"}
)

UNARY_OPS = frozenset({"-", "!"})

#: Intrinsic math functions (map onto libm / x87 transcendental ops) and
#: what each computes on numbers.
INTRINSIC_IMPL = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "atan": math.atan,
    "atan2": math.atan2, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "abs": abs, "floor": math.floor,
    "ceil": math.ceil, "pow": pow, "min": min, "max": max, "round": round,
}
INTRINSICS = frozenset(INTRINSIC_IMPL)


def c_int_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_div(a, b):
    both = isinstance(a, int) and isinstance(b, int)
    return c_int_div(a, b) if both else a / b


def _c_mod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a - c_int_div(a, b) * b
    return math.fmod(a, b)


#: ``FOLD[op](a, b)``: what a binary operator computes on two numbers
#: (C-truncating int division and remainder, int-valued comparisons): the
#: interpreter's semantics, and the interpreter's own code for them — in
#: either of its domains — and the elaborator's constant folding.
FOLD = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_div, "%": _c_mod,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "&": lambda a, b: int(a) & int(b), "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
}


@dataclass(frozen=True)
class Bin(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Un(Expr):
    """A unary operation ``op operand``."""

    op: str
    operand: Expr

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Call(Expr):
    """A call to a math intrinsic, e.g. ``sin(x)``."""

    fn: str
    args: tuple[Expr, ...]

    def __post_init__(self):
        if self.fn not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.fn!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for all statements."""


@dataclass(frozen=True)
class Decl(Stmt):
    """Declare a local variable: ``float x = init`` or ``float[size] x``."""

    name: str
    ty: str  # 'float' | 'int'
    size: int | None = None  # None => scalar, else array length
    init: Expr | None = None

    def __post_init__(self):
        if self.ty not in ("float", "int"):
            raise ValueError(f"unknown type {self.ty!r}")


@dataclass(frozen=True)
class Assign(Stmt):
    """Assign to a scalar variable, field, or array element."""

    target: Union[Var, Index]
    value: Expr


@dataclass(frozen=True)
class PushS(Stmt):
    """``push(value)`` as a statement."""

    value: Expr


@dataclass(frozen=True)
class PopS(Stmt):
    """``pop()`` as a statement (value discarded)."""


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) { then } else { orelse }``."""

    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class For(Stmt):
    """Counted loop ``for (ty var = start; var < stop; var += step)``.

    ``start``/``stop``/``step`` are evaluated once on entry; the loop runs
    while ``var < stop`` (or ``var > stop`` for a negative constant step).
    The body may not assign, declare or loop over ``var`` (constructing
    such a loop raises ``ValueError``), so the trip count is known on
    entry, to the interpreter and to generated code (a ``range``) alike.
    This covers every loop in the benchmark suite and keeps bounds
    resolvable for the symbolic executor.
    """

    var: str
    start: Expr
    stop: Expr
    body: tuple[Stmt, ...]
    step: Expr = field(default_factory=lambda: Const(1))

    def __post_init__(self):
        if self.var in assigned_names(self.body):
            raise ValueError(f"the body of the loop over {self.var!r} "
                             "assigns it")

    @cached_property
    def body_size(self) -> int:
        """Statements in the body, a nested loop's counted once: the most
        one trip runs, besides the extra trips of its nested loops."""
        return sum(1 for _ in walk_stmts(self.body))


@dataclass(frozen=True)
class WorkFunction:
    """A work (or prework) function: I/O rates plus a statement body.

    ``peek`` is the maximum index peeked + 1, ``pop``/``push`` the number of
    items consumed/produced per invocation.  Rates must be compile-time
    constants, as in StreamIt.
    """

    peek: int
    pop: int
    push: int
    body: tuple[Stmt, ...]

    def __post_init__(self):
        if self.peek < self.pop:
            raise ValueError(
                f"peek rate ({self.peek}) must be >= pop rate ({self.pop})")
        if min(self.peek, self.pop, self.push) < 0:
            raise ValueError("rates must be non-negative")

    @cached_property
    def digest(self) -> bytes:
        """The identity of this code, taken once: a digest of its printed
        form, which reprs floats (``1`` and ``1.0``, ``0.0`` and ``-0.0``
        print apart; ``==`` on the nodes would not tell them)."""
        from .printer import work_to_str
        return hashlib.blake2b(work_to_str(self).encode(),
                               digest_size=16).digest()


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_exprs(node: Expr):
    """Yield ``node`` and every sub-expression, pre-order."""
    yield node
    if isinstance(node, Bin):
        yield from walk_exprs(node.left)
        yield from walk_exprs(node.right)
    elif isinstance(node, Un):
        yield from walk_exprs(node.operand)
    elif isinstance(node, Call):
        for a in node.args:
            yield from walk_exprs(a)
    elif isinstance(node, Index):
        yield from walk_exprs(node.index)
    elif isinstance(node, Peek):
        yield from walk_exprs(node.index)


def walk_stmts(stmts: tuple[Stmt, ...]):
    """Yield every statement in ``stmts``, recursing into bodies, pre-order."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then)
            yield from walk_stmts(s.orelse)
        elif isinstance(s, For):
            yield from walk_stmts(s.body)


def stmt_exprs(s: Stmt):
    """Yield the top-level expressions appearing directly in statement ``s``."""
    if isinstance(s, Decl):
        if s.init is not None:
            yield s.init
    elif isinstance(s, Assign):
        yield s.target
        yield s.value
    elif isinstance(s, PushS):
        yield s.value
    elif isinstance(s, If):
        yield s.cond
    elif isinstance(s, For):
        yield s.start
        yield s.stop
        yield s.step


def has_data_dependent_control(stmts: tuple[Stmt, ...]) -> bool:
    """True when per-execution op counts may depend on tape values.

    Branches select different op mixes at runtime, and ``&&``/``||``
    short-circuit in the interpreter; counted loops with constant bounds
    are fine.  The plan backend uses this to decide whether one probed
    firing's FLOP counts generalize to every firing.
    """
    for s in walk_stmts(stmts):
        if isinstance(s, If):
            return True
        for e in stmt_exprs(s):
            for sub in walk_exprs(e):
                if isinstance(sub, Bin) and sub.op in ("&&", "||"):
                    return True
    return False


def assigned_names(stmts: tuple[Stmt, ...]) -> set[str]:
    """Names of all variables/arrays written anywhere in ``stmts``."""
    names = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Assign):
            t = s.target
            names.add(t.name if isinstance(t, Var) else t.base)
        elif isinstance(s, Decl):
            names.add(s.name)
        elif isinstance(s, For):
            names.add(s.var)
    return names


def declared_names(stmts: tuple[Stmt, ...]) -> set[str]:
    """Names declared locally (Decl or loop variables) in ``stmts``."""
    names = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Decl):
            names.add(s.name)
        elif isinstance(s, For):
            names.add(s.var)
    return names
