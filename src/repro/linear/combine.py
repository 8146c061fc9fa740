"""Whole-graph linear analysis and maximal combination.

Mirrors the paper's linear-analysis pass (§4.4): walk the hierarchical
stream graph bottom-up, compute a linear node for every stream where the
combination rules apply, and optionally *replace* maximal linear regions
with collapsed :class:`LinearFilter` leaves ("maximal linear replacement").

Within a pipeline whose children are only partially linear, maximal
*contiguous runs* of linear children are collapsed (the paper wraps such
runs in their own pipeline before replacing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CombinationError
from ..graph.streams import (FeedbackLoop, Filter, Pipeline, PrimitiveFilter,
                             SplitJoin, Stream)
from .extraction import extract_filter
from .filters import LinearFilter
from .node import LinearNode
from .pipeline_comb import combine_pipeline
from .splitjoin_comb import combine_splitjoin


@dataclass
class LinearityMap:
    """Maps stream objects (by id) to their linear nodes, with reasons.

    A node with ``state_dim > 0`` is the §7.1 state-space form of a
    stream whose fields update affinely — IIR sections, DC blockers, the
    pipelines that contain them; the thesis' linear streams are the
    ``state_dim == 0`` ones.
    """

    nodes: dict[int, LinearNode] = field(default_factory=dict)
    reasons: dict[int, str] = field(default_factory=dict)

    def node_for(self, stream: Stream) -> LinearNode | None:
        return self.nodes.get(id(stream))

    def is_linear(self, stream: Stream) -> bool:
        """Linear in the thesis' sense: a node without state."""
        node = self.node_for(stream)
        return node is not None and not node.state_dim

    def is_stateful_linear(self, stream: Stream) -> bool:
        node = self.node_for(stream)
        return node is not None and node.state_dim > 0

    def view(self, stateful: bool) -> "LinearityMap":
        """This map as a rewrite sees it — the one place ``stateful=``
        is read: ``False`` is the thesis' view, nodes that carry state
        left out."""
        if stateful:
            return self
        return LinearityMap({i: node for i, node in self.nodes.items()
                             if not node.state_dim}, self.reasons)

    def reason_for(self, stream: Stream) -> str | None:
        return self.reasons.get(id(stream))


def analyze(stream: Stream) -> LinearityMap:
    """Compute linear nodes for every stream in the hierarchy.

    A container whose combination the rules refuse — a child with state
    under a splitjoin, matrices beyond
    :data:`~repro.linear.expansion.MAX_MATRIX_ELEMS` — is treated as
    non-linear, with the refusal as its reason.
    """
    lmap = LinearityMap()

    def visit(s: Stream) -> LinearNode | None:
        if isinstance(s, (Filter, PrimitiveFilter)):
            result = extract_filter(s)
            if result.is_linear:
                lmap.nodes[id(s)] = result.node
            else:
                lmap.reasons[id(s)] = result.reason or "not linear"
            return result.node
        if isinstance(s, (Pipeline, SplitJoin)):
            child_nodes = [visit(c) for c in s.children]
            if any(n is None for n in child_nodes):
                lmap.reasons[id(s)] = "non-linear child"
                return None
            try:
                if isinstance(s, Pipeline):
                    node = combine_pipeline(child_nodes)
                else:
                    node = combine_splitjoin(s.splitter, child_nodes,
                                             s.joiner)
            except CombinationError as exc:
                lmap.reasons[id(s)] = str(exc)
                return None
            lmap.nodes[id(s)] = node
            return node
        if isinstance(s, FeedbackLoop):
            visit(s.body)
            visit(s.loop)
            lmap.reasons[id(s)] = ("feedbackloop collapse is not "
                                   "implemented (its members run as a "
                                   "plan island)")
            return None
        raise TypeError(f"unknown stream {s!r}")

    visit(stream)
    return lmap


def rate_preserving_run(nodes: list) -> bool:
    """True when collapsing this pipeline run cannot deadlock a cycle:
    lookahead-free children (peek == pop) firing once each per combined
    firing (adjacent push == pop) leave the input demand unchanged, so
    the collapsed leaf needs exactly the items the first child needed —
    the cycle's delay budget is untouched."""
    if any(n.peek != n.pop for n in nodes):
        return False
    return all(a.push == b.pop for a, b in zip(nodes, nodes[1:]))


def _replace(s: Stream, lmap: LinearityMap, make_leaf,
             in_feedback: bool = False, combine: bool = True) -> Stream:
    node = lmap.node_for(s)
    is_leaf = isinstance(s, (Filter, PrimitiveFilter))
    if node is not None and (combine or is_leaf) and not (
            in_feedback and not is_leaf):
        # Inside a feedbackloop only leaf (rate-preserving) replacement is
        # safe: coarsening granularity can deadlock the cycle.  With
        # combination disabled only leaves are replaced.
        leaf = make_leaf(node, s, in_feedback)
        if leaf is not None:
            return leaf
    if is_leaf:
        return s

    def recurse(child, feedback=in_feedback):
        return _replace(child, lmap, make_leaf, feedback, combine)

    if isinstance(s, Pipeline):
        new_children = []
        run: list[Stream] = []

        def flush_run():
            if not run:
                return
            nodes = [lmap.node_for(c) for c in run]
            leaf = None
            if combine and len(run) > 1 and (
                    not in_feedback or rate_preserving_run(nodes)):
                sub = Pipeline(run, name=f"{s.name}.linear_run")
                try:
                    leaf = make_leaf(combine_pipeline(nodes), sub,
                                     in_feedback)
                except CombinationError:
                    pass
            if leaf is not None:
                new_children.append(leaf)
            else:
                new_children.extend(recurse(c) for c in run)
            run.clear()

        for child in s.children:
            if lmap.node_for(child) is not None:
                run.append(child)
            else:
                flush_run()
                new_children.append(recurse(child))
        flush_run()
        if len(new_children) == 1:
            return new_children[0]
        return Pipeline(new_children, name=s.name)
    if isinstance(s, SplitJoin):
        return SplitJoin(s.splitter,
                         [recurse(c) for c in s.children],
                         s.joiner, name=s.name)
    if isinstance(s, FeedbackLoop):
        return FeedbackLoop(
            recurse(s.body, feedback=True),
            recurse(s.loop, feedback=True),
            s.joiner, s.splitter, s.enqueued, name=s.name)
    raise TypeError(f"unknown stream {s!r}")


def maximal_linear_replacement(stream: Stream, backend: str = "direct",
                               lmap: LinearityMap | None = None,
                               combine: bool = True,
                               stateful: bool = False) -> Stream:
    """Replace every maximal linear region with a single LinearFilter.

    This is the paper's "linear replacement" configuration (§5.2).  With
    ``stateful=True`` (the plan pipeline's ``optimize="linear"``), regions
    whose node carries state — leaves and pipeline runs that are
    *state-space* linear, the §7.1 extension — collapse as well; the
    paper's configurations keep the default so the thesis figures
    measure exactly the thesis transformations.
    """
    if lmap is None:
        lmap = analyze(stream)

    def make_leaf(node: LinearNode, s: Stream, in_feedback: bool):
        return LinearFilter(node, name=f"Linear[{s.name}]", backend=backend)

    return _replace(stream, lmap.view(stateful), make_leaf, combine=combine)


def replace_with(stream: Stream, make_leaf,
                 lmap: LinearityMap | None = None,
                 combine: bool = True) -> Stream:
    """Generic maximal replacement with a caller-supplied leaf factory.

    ``make_leaf(node, stream, in_feedback)`` returns the replacement
    stream or ``None`` to leave the region untouched (used by frequency
    replacement, which declines regions where the transform does not
    apply).  ``in_feedback`` is True inside feedbackloops, where only
    rate-preserving leaf replacements are safe.  Only stateless
    (``state_dim == 0``) nodes are offered.
    """
    if lmap is None:
        lmap = analyze(stream)
    return _replace(stream, lmap.view(stateful=False), make_leaf,
                    combine=combine)
