"""Runtime filters implementing collapsed linear nodes.

``LinearFilter`` replaces a (sub)graph with a single matrix-multiply leaf —
what the paper calls *linear replacement*.  It carries its ``LinearNode``
so later passes (further combination, frequency replacement, the DP
selector) can keep reasoning about it.
"""

from __future__ import annotations

import numpy as np

from ..graph.streams import PrimitiveFilter
from ..profiling import Counts
from ..runtime.channels import Stateful
from .matmul import cost_counts, make_kernel
from .node import LinearNode


class LinearFilter(PrimitiveFilter):
    """A leaf filter executing ``y = x·A + s·As + b`` once per firing,
    its runner carrying the state ``s`` when the node has one."""

    #: fission replicas pin the *original* filter's per-firing counts
    #: here, so k replicas firing F/k times report exactly the fused
    #: filter's F-firing profile
    account_counts: Counts | None = None

    def __init__(self, node: LinearNode, name: str = "Linear",
                 backend: str = "direct"):
        self.linear_node = node
        self.name = name
        self.backend = backend
        self.peek = node.peek
        self.pop = node.pop
        self.push = node.push

    @property
    def counts(self) -> Counts:
        """Float ops one firing is accounted as."""
        if self.account_counts is not None:
            return self.account_counts
        return cost_counts(self.linear_node, self.backend)

    def make_runner(self, profiler):
        node = self.linear_node
        counts = self.counts
        name = self.name

        class _Runner(Stateful):
            STATE, kernel = ("kernel",), make_kernel(node, self.backend)

            def fire(self, ch_in, ch_out):
                window = ch_in.peek_block(node.peek)
                y = self.kernel.fire_window(window)
                ch_out.push_array(y)
                ch_in.pop_block(node.pop)
                profiler.add_counts(counts, filter_name=name)

        return _Runner()


class ConstantSourceFilter(PrimitiveFilter):
    """Pushes a fixed vector each firing (a linear node with e = o = 0).

    Used when an entire subgraph folds to constants; kept for completeness
    of the replacement machinery.
    """

    pop = 0
    peek = 0

    def __init__(self, values, name: str = "ConstSource"):
        # complex only when given complex (a constant under c64/c128)
        self.values = np.asarray(
            values, dtype=complex if np.iscomplexobj(values) else float)
        self.push = len(self.values)
        self.name = name

    def make_runner(self, profiler):
        values = self.values

        class _Runner(Stateful):
            def fire(self, ch_in, ch_out):
                ch_out.push_array(values)

        return _Runner()
