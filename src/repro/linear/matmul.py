"""Matrix-multiply backends for collapsed linear filters.

The paper generates C code for collapsed linear nodes in two flavours:
unrolled expressions for small nodes and an indexed loop nest that skips
the zero runs at the top and bottom of each column for large nodes
(Figure 5-7); it also experiments with calling ATLAS (§5.4).  We mirror
this with two backends:

* ``direct`` — a per-column dot over the non-zero span, vectorized with
  numpy but FLOP-accounted exactly like the scalar loop nest;
* ``blas``   — a dense ``window @ A`` (numpy's BLAS), our ATLAS stand-in;
  FLOP accounting reflects the dense product a BLAS kernel performs.
  Stateless nodes only: the paper has no dense accounting for a state
  update, and nothing here runs one.
"""

from __future__ import annotations

import numpy as np

from ..profiling import Counts
from ..runtime.channels import Stateful
from .node import LinearNode


def direct_cost_counts(node: LinearNode) -> Counts:
    """Float ops of one firing of the direct (zero-span-skipping) kernel
    — the backend-independent accounting contract of a linear leaf.

    Per output column: one multiply per entry of ``A``'s non-zero span
    (the loop nest of Figure 5-7) and per non-zero of ``As``, one add
    per term beyond the first, plus one add when ``b`` is non-zero.  A
    state component costs the same over the non-zeros of its ``Cx`` and
    ``Cs`` columns — the scalar expression the interpreter would run.
    """
    c = Counts()

    def column(terms: int, offset: float) -> None:
        c.fmul += terms
        c.fadd += max(terms - 1, 0) + int(offset != 0.0)

    for j, (lo, hi) in enumerate(node.column_spans()):
        column(hi - lo + int(np.count_nonzero(node.As[:, j])), node.b[j])
    for j in range(node.state_dim):
        column(int(np.count_nonzero(node.Cx[:, j]))
               + int(np.count_nonzero(node.Cs[:, j])), node.bs[j])
    return c


def blas_cost_counts(node: LinearNode) -> Counts:
    """Float ops of one dense matrix-vector product (e mults+adds per col)."""
    if node.state_dim:
        raise ValueError("the blas backend runs stateless linear nodes only")
    c = Counts()
    c.fmul = node.peek * node.push
    c.fadd = node.peek * node.push  # multiply-accumulate pairs + b add
    return c


def cost_counts(node: LinearNode, backend: str = "direct") -> Counts:
    """Per-firing float ops of ``node`` under a matmul backend."""
    if backend == "direct":
        return direct_cost_counts(node)
    if backend == "blas":
        return blas_cost_counts(node)
    raise ValueError(f"unknown matmul backend {backend!r}")


class _DirectKernel(Stateful):
    """Column-span matrix multiply (the paper's generated loop nest),
    carrying the node's state across firings when it has one."""

    def __init__(self, node: LinearNode):
        self.node = node
        self.spans = node.column_spans()
        # Pre-slice columns; window is reversed so x[i] = peek(e-1-i).
        self.cols = [node.A[lo:hi, j] for j, (lo, hi) in enumerate(self.spans)]
        self.s = node.s0

    STATE = ("s",)

    def fire_window(self, window: np.ndarray) -> np.ndarray:
        """window = [peek(0), ..., peek(e-1)] -> outputs in push order."""
        x = window[::-1]
        node = self.node
        y = np.empty(node.push)
        for j, ((lo, hi), col) in enumerate(zip(self.spans, self.cols)):
            y[j] = x[lo:hi] @ col if hi > lo else 0.0
        y += node.b
        if node.state_dim:
            y += self.s @ node.As
            self.s = x @ node.Cx + self.s @ node.Cs + node.bs
        return y[::-1]


class _BlasKernel(Stateful):
    """Dense matrix multiply (the ATLAS stand-in)."""

    def __init__(self, node: LinearNode):
        self.node = node

    def fire_window(self, window: np.ndarray) -> np.ndarray:
        y = window[::-1] @ self.node.A + self.node.b
        return y[::-1]


def make_kernel(node: LinearNode, backend: str = "direct"):
    if backend == "direct":
        return _DirectKernel(node)
    if backend == "blas":
        return _BlasKernel(node)
    raise ValueError(f"unknown matmul backend {backend!r}")
