"""Splitjoin combination (thesis §3.3.3, Transformations 3 and 4).

Duplicate-splitter splitjoins of linear children collapse by (1) expanding
each child to its multiplicity in the steady state of the construct,
(2) padding all children to a common peek depth, and (3) interleaving the
children's columns in the order dictated by the roundrobin joiner.

Roundrobin-splitter splitjoins are first rewritten to duplicate splitters
by composing each child with a *decimator* linear node that keeps only the
items its branch would have received.

Both rules are stated for ``k = 0`` children: a child with state is
refused (collapsing state inside a splitjoin is a capability of its own,
not a case of these transformations).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CombinationError
from ..graph.streams import Duplicate, RoundRobin
from .expansion import check_size, expand
from .node import LinearNode
from .pipeline_comb import combine_pipeline_pair


def combine_duplicate_splitjoin(children: list[LinearNode],
                                join_weights: list[int]) -> LinearNode:
    """Collapse a duplicate splitjoin of linear children (Transformation 3)."""
    n = len(children)
    if n != len(join_weights):
        raise CombinationError("one joiner weight per child required")
    if any(w <= 0 for w in join_weights):
        raise CombinationError("joiner weights must be positive")
    if any(child.state_dim for child in children):
        raise CombinationError("a splitjoin child carries state")

    # joinRep: joiner cycles per steady state of the splitjoin
    join_rep = 1
    for child, w in zip(children, join_weights):
        join_rep = math.lcm(join_rep, math.lcm(child.push, w) // w)
    reps = [w * join_rep // child.push
            for child, w in zip(children, join_weights)]
    for child, w, rep in zip(children, join_weights, reps):
        if rep * child.push != w * join_rep:
            raise CombinationError("child push rate does not divide evenly")

    pops = {c.pop * r for c, r in zip(children, reps)}
    if len(pops) != 1:
        raise CombinationError(
            f"children consume at different rates {sorted(pops)}; "
            f"the splitjoin admits no steady-state schedule")

    max_peek = max(c.pop * r + c.peek - c.pop
                   for c, r in zip(children, reps))
    w_total = sum(join_weights)
    w_prefix = np.concatenate([[0], np.cumsum(join_weights)])
    u_out = join_rep * w_total
    # the expanded children are column blocks of the result: sizing it
    # from the rates sizes them all, before any is built
    check_size(max_peek, u_out)

    A = np.zeros((max_peek, u_out))
    b = np.zeros(u_out)
    for k, (c, r, w) in enumerate(zip(children, reps, join_weights)):
        node = expand(c, max_peek, c.pop * r, c.push * r)
        for p in range(node.push):
            cycle, offset = divmod(p, w)
            position = cycle * w_total + int(w_prefix[k]) + offset
            A[:, u_out - 1 - position] = node.A[:, node.push - 1 - p]
            b[u_out - 1 - position] = node.b[node.push - 1 - p]
    return LinearNode(A, b, max_peek, pops.pop(), u_out)


def decimator_node(split_weights: list[int], k: int) -> LinearNode:
    """The decimator for branch ``k`` of a roundrobin splitter.

    Consumes one full splitter cycle (``vTot`` items) and re-emits only the
    ``v_k`` items destined for branch ``k`` (Transformation 4).
    """
    v_total = sum(split_weights)
    v_prefix = [0]
    for w in split_weights:
        v_prefix.append(v_prefix[-1] + w)
    vk = split_weights[k]
    if vk <= 0:
        raise CombinationError("splitter weights must be positive")
    A = np.zeros((v_total, vk))
    # pushed item p (0-based) copies peek(vSum_k + p); column vk-1-p.
    for p in range(vk):
        peek_pos = v_prefix[k] + p
        A[v_total - 1 - peek_pos, vk - 1 - p] = 1.0
    return LinearNode(A, np.zeros(vk), v_total, v_total, vk)


def roundrobin_to_duplicate(children: list[LinearNode],
                            split_weights: list[int]) -> list[LinearNode]:
    """Rewrite roundrobin-splitter children for a duplicate splitter.

    Each child is prefixed with its branch decimator via pipeline
    combination (Transformation 4).
    """
    if len(children) != len(split_weights):
        raise CombinationError("one splitter weight per child required")
    return [combine_pipeline_pair(decimator_node(split_weights, k), child)
            for k, child in enumerate(children)]


def combine_splitjoin(splitter, children: list[LinearNode],
                      joiner: RoundRobin) -> LinearNode:
    """Collapse any linear splitjoin into a single linear node."""
    weights = list(joiner.weights)
    if isinstance(splitter, Duplicate):
        return combine_duplicate_splitjoin(children, weights)
    rewritten = roundrobin_to_duplicate(children, list(splitter.weights))
    return combine_duplicate_splitjoin(rewritten, weights)
