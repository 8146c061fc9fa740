"""Pipeline combination (thesis §3.3.2, Transformation 2).

Two adjacent linear nodes Λ1 → Λ2 collapse into one node with
``A' = A1ᵉ·A2ᵉ`` and ``b' = b1ᵉ·A2ᵉ + b2ᵉ`` after expanding both sides so
the intermediate channel rates match:

* ``chanPop  = lcm(u1, o2)`` — items crossing the channel per combined
  firing (any common multiple is legal; the lcm keeps matrices small),
* ``chanPeek = chanPop + e2 - o2`` — extra items Λ2 peeks are *recomputed*
  by the expanded Λ1 (overlapping outputs), trading computation for the
  inter-filter buffer a linear node cannot hold.

The combined state is the concatenation ``(s1, s2)``: Λ2 reads Λ1's
output ``y1 = x·A1ᵉ + s1·As1ᵉ + b1ᵉ`` as its window (reversal conventions
cancel because both sides use the same ordering), so Λ1's state reaches
the outputs and Λ2's state through Λ2's input maps.  Λ1's recomputed
outputs never advance its state (:func:`~repro.linear.expansion.expand`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import CombinationError
from .expansion import check_size, expand
from .node import LinearNode


def combine_pipeline_pair(n1: LinearNode, n2: LinearNode,
                          chan_pop: int | None = None) -> LinearNode:
    """Collapse two linear nodes connected in a pipeline; refused
    (:class:`CombinationError`, "too large") when the result or either
    expanded operand would exceed
    :data:`~repro.linear.expansion.MAX_MATRIX_ELEMS`."""
    u1, o1, e1 = n1.push, n1.pop, n1.peek
    u2, o2, e2 = n2.push, n2.pop, n2.peek
    if chan_pop is None:
        chan_pop = math.lcm(u1, o2)
    else:
        if chan_pop % u1 or chan_pop % o2:
            raise CombinationError(
                f"chanPop={chan_pop} must be a common multiple of "
                f"u1={u1} and o2={o2}")
    chan_peek = chan_pop + e2 - o2

    # Λ1 expands to produce chanPeek items (the extra e2-o2 items Λ2 peeks
    # are regenerated each firing) and pops the inputs for chanPop outputs;
    # Λ2 expands to consume chanPeek (peeking) / chanPop (popping).  The
    # operands are lcm-sized whatever the result is: size all three first.
    firings_needed = math.ceil(chan_peek / u1)
    e1_exp = (firings_needed - 1) * o1 + e1
    o1_exp = (chan_pop // u1) * o1
    u2_exp = (chan_pop // o2) * u2
    k1, k2 = n1.state_dim, n2.state_dim
    check_size(e1_exp, chan_peek, k1)
    check_size(chan_peek, u2_exp, k2)
    check_size(e1_exp, u2_exp, k1 + k2)
    n1e = expand(n1, e1_exp, o1_exp, chan_peek)
    n2e = expand(n2, chan_peek, chan_pop, u2_exp)

    A = n1e.A @ n2e.A
    b = n1e.b @ n2e.A + n2e.b
    if not k1 + k2:
        return LinearNode(A, b, n1e.peek, n1e.pop, n2e.push)
    Cs = np.zeros((k1 + k2, k1 + k2))
    Cs[:k1, :k1] = n1e.Cs
    Cs[:k1, k1:] = n1e.As @ n2e.Cx
    Cs[k1:, k1:] = n2e.Cs
    return LinearNode(
        A, b, n1e.peek, n1e.pop, n2e.push,
        As=np.vstack([n1e.As @ n2e.A, n2e.As]),
        Cx=np.hstack([n1e.Cx, n1e.A @ n2e.Cx]), Cs=Cs,
        bs=np.concatenate([n1e.bs, n1e.b @ n2e.Cx + n2e.bs]),
        s0=np.concatenate([n1e.s0, n2e.s0]))


def combine_pipeline(nodes: list[LinearNode]) -> LinearNode:
    """Collapse a whole pipeline of linear nodes, left to right (every
    partial result within :data:`~repro.linear.expansion.MAX_MATRIX_ELEMS`)."""
    if not nodes:
        raise CombinationError("empty pipeline")
    return functools.reduce(combine_pipeline_pair, nodes)
