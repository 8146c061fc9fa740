"""Abstract values for linear extraction (thesis §3.2, Figure 3-2).

Every program value is tracked as a *linear form* ``(v, c)``: at runtime
the value equals ``x·v + c`` where ``x`` is the input vector and ``v`` a
``peek``-length column vector.  Values that cannot be expressed this way
are TOP (⊤); join of unequal values is TOP.  BOTTOM (⊥) marks matrix/
vector entries not yet written.

**A constant is a plain Python number** — the ``int`` or ``float`` the
program computed, with no vector at all: loop indices, array indices,
coefficients read from fields and everything folded from them never
allocate.  Int-ness is the number's own type, so loop bounds, array
indices and peek offsets stay resolvable.  A :class:`LinearForm` exists
only for a value that was built from ``peek``/``pop``/state; one whose
taps have all cancelled (``pop() - peek(0)``) still counts as the
constant ``c`` (:func:`constant_of`), as the thesis' ``v = 0`` does.

A form's vector is never written after construction, so forms share
vectors freely (``x - 3`` keeps ``x.v``).
"""

from __future__ import annotations

import numpy as np


class _Top:
    """⊤ — value not expressible as an affine function of the input."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊤"


class _Bottom:
    """⊥ — not yet defined."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊥"


TOP = _Top()
BOTTOM = _Bottom()


class LinearForm:
    """``value = x · v + c`` for a value with taps on the input."""

    __slots__ = ("v", "c", "_tapped")

    def __init__(self, v: np.ndarray, c: float | int):
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
        """Scaled by the number ``k``."""
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
    """The confluence operator ⊔ on abstract values (branch merge)."""
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    return a if a == b else TOP


def join_env(env1: dict, env2: dict) -> dict:
    """Pointwise join of two variable environments."""
    out = {}
    for k in env1.keys() | env2.keys():
        out[k] = join(env1.get(k, BOTTOM), env2.get(k, BOTTOM))
    return out
