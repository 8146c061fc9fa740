"""Non-redundant code generation (thesis §4.2.3, Transformation 7).

``RedundantEliminationFilter`` executes a linear node while caching the
products that recur across firings.  Each reused tuple gets a circular
buffer of ``max_use + 1`` slots; ``init`` work pre-populates the buffer
with the values prior firings would have produced, so output is identical
to the plain linear filter from the very first item.

The firing plan is precomputed: a *store plan* (tuples multiplied and
cached this firing) and per-push *term plans* (cache reads or direct
multiplies).  FLOP accounting matches the generated scalar code; the
caching overhead (buffer indexing) is integer work, which — exactly as the
paper found — costs wall-clock time without costing FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.streams import PrimitiveFilter
from ..linear.node import LinearNode
from ..profiling import Counts
from ..runtime.channels import Stateful
from .analysis import RedundancyInfo, analyze_redundancy


@dataclass(frozen=True)
class _CachedTerm:
    buffer: int  # index into the tuple-state buffers
    use: int  # firings ago the value was stored


@dataclass(frozen=True)
class _DirectTerm:
    coeff: float
    pos: int


class RedundancyEliminationFilter(PrimitiveFilter):
    """Linear node implementation with cross-firing product caching."""

    def __init__(self, node: LinearNode, name: str = "NoRedund",
                 info: RedundancyInfo | None = None):
        self.linear_node = node
        self.name = name
        self.peek = node.peek
        self.pop = node.pop
        self.push = node.push
        self.info = info if info is not None else analyze_redundancy(node)
        self._build_plans()

    def _build_plans(self):
        info = self.info
        node = self.linear_node
        e, u = node.peek, node.push
        reused = sorted(info.reused)  # stable buffer numbering
        self._buffer_of = {t: i for i, t in enumerate(reused)}
        self._buffer_sizes = [info.max_use[t] + 1 for t in reused]
        self._store_plan = [(self._buffer_of[t], t[0], t[1]) for t in reused]
        # per-push terms, push order (push j reads column u-1-j)
        self._columns = []
        for j in range(u):
            col = u - 1 - j
            terms = []
            for row in range(e):
                c = node.A[row, col]
                if c == 0.0:
                    continue
                t = (float(c), e - 1 - row)
                hit = info.comp_map.get(t)
                if hit is not None:
                    ot, use = hit
                    terms.append(_CachedTerm(self._buffer_of[ot], use))
                else:
                    terms.append(_DirectTerm(float(c), e - 1 - row))
            self._columns.append((terms, float(node.b[col])))
        # FLOP accounting for one firing
        counts = Counts()
        counts.fmul = len(self._store_plan) + sum(
            1 for terms, _ in self._columns for term in terms
            if isinstance(term, _DirectTerm))
        for terms, b in self._columns:
            n_terms = len(terms) + (1 if b != 0.0 else 0)
            counts.fadd += max(n_terms - 1, 0)
        self.counts_per_firing = counts

    # ------------------------------------------------------------------
    def make_runner(self, profiler):
        node = self.linear_node
        o = node.pop
        store_plan = self._store_plan
        columns = self._columns
        buffer_sizes = self._buffer_sizes
        counts = self.counts_per_firing
        name = self.name
        info = self.info
        buffer_tuples = sorted(info.reused)

        class _Runner(Stateful):
            STATE = ("slots", "index", "primed")

            def __init__(self):
                self.slots = [np.zeros(sz) for sz in buffer_sizes]
                self.index = [0] * len(buffer_sizes)
                self.primed = False

            def _prime(self, ch_in):
                """initWork: fill slots with values of prior firings."""
                for b_idx, t in enumerate(buffer_tuples):
                    coeff, pos = t
                    for use in range(1, info.max_use[t] + 1):
                        self.slots[b_idx][use] = \
                            coeff * ch_in.peek(pos - o * use)
                        profiler.bulk(fmul=1)
                self.primed = True

            def fire(self, ch_in, ch_out):
                if not self.primed:
                    self._prime(ch_in)
                slots, index = self.slots, self.index
                for b_idx, coeff, pos in store_plan:
                    slots[b_idx][index[b_idx]] = coeff * ch_in.peek(pos)
                for terms, b in columns:
                    total = b
                    for term in terms:
                        if isinstance(term, _CachedTerm):
                            buf = term.buffer
                            size = buffer_sizes[buf]
                            total += slots[buf][(index[buf] + term.use)
                                                % size]
                        else:
                            total += term.coeff * ch_in.peek(term.pos)
                    ch_out.push(total)
                for b_idx, size in enumerate(buffer_sizes):
                    index[b_idx] = (index[b_idx] - 1) % size
                ch_in.pop_block(o)
                profiler.add_counts(counts, filter_name=name)

        return _Runner()
