"""The linear node representation (thesis §3.1, Definition 1, with the
§7.1 state part as one form).

A linear node ``Λ = {A, b, e, o, u}`` abstracts a stream block computing the
affine map ``y = x·A + b`` where

* ``x`` is an ``e``-element row vector with ``x[i] = peek(e-1-i)``,
* ``A`` is an ``e × u`` matrix, ``b`` a ``u``-element row vector,
* the ``u`` outputs are pushed starting with ``y[u-1]`` down to ``y[0]``
  (so the *j*-th ``push`` statement writes column ``u-1-j``), and
* ``o`` items are popped after pushing.

Hence entry ``A[e-1-i, u-1-j]`` is the coefficient of ``peek(i)`` in the
*j*-th output and ``b[u-1-j]`` its constant offset.

A node may also carry a ``k``-element state vector ``s`` across firings
(the thesis' §7.1 extension — IIR filters, the computation inside
feedbackloops):

    y  = x·A  + s·As + b          (outputs)
    s' = x·Cx + s·Cs + bs         (next state, from ``s0``)

The stateless node of Definition 1 is the ``k = 0`` case — the state
arrays default to zero width, and every term they appear in vanishes —
so extraction, expansion, combination, costing and replacement are each
written once, over this form (a stream function is a monoid homomorphism
with state; Hou et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearNode:
    """An affine stream block with rates (peek, pop, push) and ``k >= 0``
    state variables.

    Shapes: ``A (e,u)``, ``b (u,)``, ``As (k,u)``, ``Cx (e,k)``,
    ``Cs (k,k)``, ``bs (k,)``, initial state ``s0 (k,)``; ``k`` is the
    length of ``s0`` and a state array left out is all zeros.
    """

    A: np.ndarray
    b: np.ndarray
    peek: int
    pop: int
    push: int
    As: np.ndarray | None = None
    Cx: np.ndarray | None = None
    Cs: np.ndarray | None = None
    bs: np.ndarray | None = None
    s0: np.ndarray | None = None

    def __post_init__(self):
        e, u = self.peek, self.push
        k = 0 if self.s0 is None else len(self.s0)
        for name, shape in (("A", (e, u)), ("b", (u,)), ("As", (k, u)),
                            ("Cx", (e, k)), ("Cs", (k, k)), ("bs", (k,)),
                            ("s0", (k,))):
            value = getattr(self, name)
            if value is None:  # a state array left out is all zeros
                arr = np.zeros(shape)
            else:
                arr = np.asarray(value, dtype=float)
                if arr.shape != shape:
                    raise ValueError(
                        f"{name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        if self.pop <= 0:
            raise ValueError("linear node must pop at least one item")
        if self.peek < self.pop:
            raise ValueError("peek must be >= pop")

    @property
    def state_dim(self) -> int:
        """``k``, the number of state variables (0: Definition 1)."""
        return len(self.s0)

    # ------------------------------------------------------------------
    @staticmethod
    def from_coefficients(coeffs_per_push, offsets, pop: int,
                          peek: int | None = None) -> "LinearNode":
        """Build from natural per-push coefficient lists.

        ``coeffs_per_push[j][i]`` is the coefficient of ``peek(i)`` in the
        *j*-th pushed value; ``offsets[j]`` its constant term.  This is the
        human-friendly layout; the constructor converts to the thesis'
        reversed convention.
        """
        u = len(coeffs_per_push)
        if peek is None:
            peek = max((len(c) for c in coeffs_per_push), default=pop)
            peek = max(peek, pop)
        A = np.zeros((peek, u))
        for j, coeffs in enumerate(coeffs_per_push):
            for i, c in enumerate(coeffs):
                A[peek - 1 - i, u - 1 - j] = c
        b = np.zeros(u)
        for j, off in enumerate(offsets):
            b[u - 1 - j] = off
        return LinearNode(A, b, peek, pop, u)

    # ------------------------------------------------------------------
    def coefficient(self, push_index: int, peek_index: int) -> float:
        """Coefficient of ``peek(peek_index)`` in push number ``push_index``."""
        return float(self.A[self.peek - 1 - peek_index,
                            self.push - 1 - push_index])

    def offset(self, push_index: int) -> float:
        return float(self.b[self.push - 1 - push_index])

    def apply(self, window: np.ndarray) -> np.ndarray:
        """The first firing: ``window`` is ``[peek(0), ..., peek(e-1)]``.

        Returns outputs in push order ``[y_0, ..., y_{u-1}]``.
        """
        if np.shape(window) != (self.peek,):
            raise ValueError(f"window must have {self.peek} items")
        return self.reference_run(window, 1)

    def reference_run(self, inputs, firings: int) -> np.ndarray:
        """Run ``firings`` firings over ``inputs`` from ``s0``;
        concatenated outputs.

        A straightforward oracle used by tests and the frequency/redundancy
        modules to validate optimized implementations.
        """
        inputs = np.asarray(inputs, dtype=float)
        s = self.s0
        out = []
        pos = 0
        for _ in range(firings):
            window = inputs[pos:pos + self.peek]
            if len(window) < self.peek:
                raise ValueError("not enough input for requested firings")
            x = window[::-1]  # x[i] = peek(e-1-i)
            y = x @ self.A + s @ self.As + self.b
            s = x @ self.Cx + s @ self.Cs + self.bs
            out.append(y[::-1])  # y[u-1] is pushed first
            pos += self.pop
        return np.concatenate(out) if out else np.zeros(0)

    def is_stable(self) -> bool:
        """Spectral radius of Cs < 1 (BIBO stability of the state part)."""
        if self.state_dim == 0:
            return True
        return bool(np.max(np.abs(np.linalg.eigvals(self.Cs))) < 1.0)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Non-zero matrix entries (drives the direct cost function)."""
        return sum(int(np.count_nonzero(m))
                   for m in (self.A, self.As, self.Cx, self.Cs))

    @property
    def nnz_b(self) -> int:
        return int(np.count_nonzero(self.b)) + int(np.count_nonzero(self.bs))

    def column_spans(self) -> list[tuple[int, int]]:
        """Per column of ``A`` (first_nonzero, last_nonzero+1); (0, 0) if
        all-zero.

        The direct matrix-multiply code generator skips leading/trailing
        zeros in each column (thesis §5.4, Figure 5-7).
        """
        spans = []
        for j in range(self.push):
            nz = np.nonzero(self.A[:, j])[0]
            if len(nz) == 0:
                spans.append((0, 0))
            else:
                spans.append((int(nz[0]), int(nz[-1]) + 1))
        return spans

    def __str__(self):
        state = f", k={self.state_dim}" if self.state_dim else ""
        return (f"LinearNode(e={self.peek}, o={self.pop}, u={self.push}"
                f"{state}, nnz={self.nnz})")
