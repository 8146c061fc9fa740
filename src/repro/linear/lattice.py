"""Abstract values for linear extraction (thesis §3.2, Figure 3-2): the
domain the interpreter (:mod:`repro.ir.interp`) runs over when it
extracts.

Every program value is tracked as a *linear form* ``(v, c)``: at runtime
the value equals ``x·v + c`` where ``x`` is the input vector and ``v`` a
``peek``-length column vector.  Values that cannot be expressed this way
are ⊤ (an int's: INT_TOP); join of unequal values is ⊤.  BOTTOM (⊥)
marks a variable one branch arm never defined.  Both :class:`LinearForm`
and ⊤ are :class:`~repro.ir.interp.Abstract`: the interpreter hands
every operation on one to the extractor.

**A constant is a plain Python number** — the ``int`` or ``float`` the
program computed, with no vector at all: loop indices, array indices,
coefficients read from fields and everything folded from them never
allocate, and the interpreter computes them as it computes any number.
A :class:`LinearForm` exists only for a value that was built from
``peek``/``pop``/state, and is float-valued (its ``c`` is a float); one
whose taps have all cancelled (``pop() - peek(0)``) still counts as the
constant ``c`` (:func:`constant_of`), as the thesis' ``v = 0`` does.

A form's vector is never written after construction, so forms share
vectors freely (``x - 3`` keeps ``x.v``).
"""

from __future__ import annotations

import numpy as np

from ..ir.interp import Abstract


class Top(Abstract):
    """⊤ — value not expressible as an affine function of the input.  As
    an array, every element is ⊤.  An int's is :data:`INT_TOP`, so a store
    into an int that was ⊤ still truncates; ``* 1.0`` (a float store) of
    either is the float's :data:`TOP`."""

    def __mul__(self, k):
        return TOP

    def __repr__(self):
        return "⊤" if self is TOP else "⊤int"


TOP, INT_TOP = Top(), Top()
#: ⊥ — what a variable one branch arm never defined joins from
BOTTOM = object()


class LinearForm(Abstract):
    """``value = x · v + c`` for a value with taps on the input."""

    __slots__ = ("v", "c", "_tapped")

    def __init__(self, v: np.ndarray, c: float):
        self.v = v
        self.c = c
        self._tapped = None  # whether v has a non-zero: asked, then kept

    @property
    def tapped(self) -> bool:
        """False once every tap has cancelled: the form is the constant
        ``c``.  (An extractor's unit forms are asked thousands of times.)"""
        if self._tapped is None:
            self._tapped = bool(self.v.any())
        return self._tapped

    # arithmetic with another form or a number; adding a constant adds
    # ``+0.0`` to every tap (which clears a ``-0.0`` one), subtracting
    # one leaves them as they are
    def __add__(self, other):
        if type(other) is LinearForm:
            return LinearForm(self.v + other.v, self.c + other.c)
        return LinearForm(self.v + 0.0, self.c + other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is LinearForm:
            return LinearForm(self.v - other.v, self.c - other.c)
        return LinearForm(self.v, self.c - other)

    def __rsub__(self, other):
        return LinearForm(0.0 - self.v, other - self.c)

    def __mul__(self, k) -> "LinearForm":
        """Scaled by the number ``k`` (by 1: itself, as ``c`` is a
        float already)."""
        if k == 1:
            return self
        return LinearForm(self.v * k, self.c * k)

    def __eq__(self, other):
        if isinstance(other, LinearForm):
            return (self.c == other.c and self.v.shape == other.v.shape
                    and bool(np.array_equal(self.v, other.v)))
        if isinstance(other, (int, float)):  # a constant: no taps
            return self.c == other and not self.tapped
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        taps = {i: x for i, x in enumerate(self.v) if x}
        return f"LF(v={taps}, c={self.c})"


def constant_of(value):
    """The number ``value`` always equals, or None when it has none:
    ⊤, ⊥, an array, or a form with a tap left."""
    if type(value) is LinearForm:
        return None if value.tapped else value.c
    return value if isinstance(value, (int, float)) else None


def join(a, b):
    """The confluence operator ⊔ on abstract values (branch merge);
    arrays join element by element."""
    if a is BOTTOM or a is b:
        return b
    if b is BOTTOM:
        return a
    if type(a) is list and type(b) is list and len(a) == len(b):
        return [join(x, y) for x, y in zip(a, b)]
    if a == b:
        return a
    return INT_TOP if type(a) is int or a is INT_TOP else TOP


def join_env(env1: dict, env2: dict) -> dict:
    """Pointwise join of two variable environments."""
    return {k: join(env1.get(k, BOTTOM), env2.get(k, BOTTOM))
            for k in env1.keys() | env2.keys()}
