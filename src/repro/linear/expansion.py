"""Linear expansion (thesis §3.3.1, Transformation 1).

Expansion rescales a linear node to rates ``(e', o', u')`` while preserving
the input/output relationship: copies of ``A`` are placed along the
diagonal starting from the bottom-right corner, each copy offset by ``o``
rows (items popped between firings) and ``u`` columns (items pushed).
Partial copies are clipped at the matrix edges; rows that no copy reaches
stay zero (items peeked but unused).

With state (``k > 0``) the copies are firings of one trajectory: the
state update ``s' = x·Cx + s·Cs + bs`` is a monoid action on affine maps,
so before firing ``t`` the state is an affine function of the expanded
window and the block-start state, and firing ``t``'s copy gains that
function threaded through ``As`` — stacked powers of ``Cs`` (Hou et
al.'s state-monoid composition).  The expanded state update is the
composition of the ``o'/o`` firings the node *advances*; copies beyond
those are recomputation, re-derived by the next firing exactly like the
overlapping columns a stateless expansion introduces.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CombinationError
from .node import LinearNode

#: Largest node a combination may build, its expanded operands included:
#: ``(e + k)·(u + k)`` entries, 32 MB of float64 at the bound.  Beyond it
#: a container is treated as non-linear (the paper's practical limit on
#: Radar, §5.2) — and since operands are ``lcm × lcm`` of the rates,
#: the refusal has to come from the rates, before anything is allocated.
MAX_MATRIX_ELEMS = 4_000_000


def check_size(peek: int, push: int, state_dim: int = 0) -> None:
    """Refuse a node of these rates if it is too large to build."""
    if (peek + state_dim) * (push + state_dim) > MAX_MATRIX_ELEMS:
        raise CombinationError(
            f"combined matrix too large ({peek + state_dim} x "
            f"{push + state_dim})")


def expand(node: LinearNode, peek: int, pop: int, push: int) -> LinearNode:
    """Expand ``node`` to rates ``(peek, pop, push)``.

    The new node is fully interchangeable with a sequence of firings of the
    original when ``push = n*u`` and ``pop = n*o``; other rates are used as
    intermediate forms by the combination rules (which account for the
    recomputation they introduce).  A node with state must advance a
    whole number of the firings it computes, each inside the window.
    """
    e, o, u, k = node.peek, node.pop, node.push, node.state_dim
    if (peek, pop, push) == (e, o, u):
        return node
    e2, o2, u2 = peek, pop, push
    A2 = np.zeros((e2, u2))
    copies = math.ceil(u2 / u)
    for m in range(copies):
        row_off = e2 - e - m * o
        col_off = u2 - u - m * u
        # clip the copy of A to the destination bounds
        r0, r1 = max(row_off, 0), min(row_off + e, e2)
        c0, c1 = max(col_off, 0), min(col_off + u, u2)
        if r0 >= r1 or c0 >= c1:
            continue
        A2[r0:r1, c0:c1] += node.A[r0 - row_off:r1 - row_off,
                                   c0 - col_off:c1 - col_off]
    b2 = node.b[u - 1 - (u2 - 1 - np.arange(u2)) % u]
    if not k:
        return LinearNode(A2, b2, e2, o2, u2)

    advance, partial = divmod(o2, o)
    if partial or not 1 <= advance <= copies or \
            e2 < e + (copies - 1) * o:
        raise ValueError(
            f"a node with state cannot expand to rates ({e2}, {o2}, {u2}): "
            f"it must advance whole firings inside the window")
    As2 = np.zeros((k, u2))
    # before firing t the state is x'·G + s·H + c
    G, H, c = np.zeros((e2, k)), np.eye(k), np.zeros(k)
    for t in range(copies):
        row_off = e2 - e - t * o
        col_off = u2 - u - t * u
        cols, clip = slice(max(col_off, 0), col_off + u), max(-col_off, 0)
        A2[:, cols] += (G @ node.As)[:, clip:]
        As2[:, cols] = (H @ node.As)[:, clip:]
        b2[cols] += (c @ node.As)[clip:]
        G = G @ node.Cs
        G[row_off:row_off + e] += node.Cx
        H = H @ node.Cs
        c = c @ node.Cs + node.bs
        if t + 1 == advance:
            Cx2, Cs2, bs2 = G, H, c
    return LinearNode(A2, b2, e2, o2, u2, As=As2, Cx=Cx2, Cs=Cs2, bs=bs2,
                      s0=node.s0)


def expand_firings(node: LinearNode, n: int) -> LinearNode:
    """Expand to exactly ``n`` consecutive firings (fully interchangeable)."""
    if n < 1:
        raise ValueError("the number of firings must be positive")
    e, o, u = node.peek, node.pop, node.push
    return expand(node, e + (n - 1) * o, n * o, n * u)
