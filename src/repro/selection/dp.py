"""Optimization selection via dynamic programming (thesis §4.3).

For every stream (and every contiguous child range of every container) the
selector evaluates three ways of realizing it:

* collapse the region and run it in the **time domain** (LINEAR),
* collapse the region and run it in the **frequency domain** (FREQ),
* leave it **uncollapsed** (NONE) — realized either by descending into a
  single child or by *cutting* the region into two sub-regions (pipeline
  ranges cut horizontally, splitjoin ranges vertically) whose costs add.

Costs are normalized per steady state of the whole program: a candidate
implementation of a region with push rate u' fires ``items_out / u'``
times per steady state, where ``items_out`` is the data volume crossing
the region's output edge (computed once from the original schedule).
Non-linear leaves cost zero under NONE, as in the thesis, so the search
concentrates on the linear portions.

Splitjoin cuts nest the range as two groups under an outer splitter and
joiner whose weights are the per-group sums — semantically identical to
the flat construct, which is what makes the cut a pure refactoring.

The result is both the minimal cost and the rebuilt optimized graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CombinationError, SchedulingError, StreamGraphError
from ..frequency.filters import make_frequency_stream
from ..graph.scheduler import steady_state
from ..graph.streams import (Duplicate, FeedbackLoop, Filter, Pipeline,
                             PrimitiveFilter, RoundRobin, SplitJoin, Stream)
from ..linear.combine import LinearityMap, analyze, rate_preserving_run
from ..linear.filters import LinearFilter
from ..linear.node import LinearNode
from ..linear.pipeline_comb import combine_pipeline
from ..linear.splitjoin_comb import combine_splitjoin
from .costs import (DEFAULT_COST_BATCH, batched_direct_cost,
                    batched_frequency_cost, direct_cost, frequency_cost)


@dataclass
class Config:
    """A costed realization of a region (thesis Figure 4-3)."""

    cost: float
    stream: Stream
    choice: str  # 'linear' | 'stateful' | 'freq' | 'none' | 'cut'


@dataclass
class SelectionResult:
    stream: Stream
    cost: float
    decisions: dict


class OptimizationSelector:
    """Runs the DP over one program graph."""

    def __init__(self, program: Stream, lmap: LinearityMap | None = None,
                 min_freq_peek: int = 2, cost_model: str = "thesis",
                 batch: int = DEFAULT_COST_BATCH, stateful: bool = False,
                 policy=None):
        self.program = program
        if lmap is None:
            lmap = analyze(program)
        #: ``stateful`` keeps the linear nodes that carry state (§7.1;
        #: the plan pipeline's optimize="auto"); off by default so the
        #: paper's autosel configuration measures exactly the thesis
        #: transformations
        self.lmap = lmap.view(stateful)
        self.min_freq_peek = min_freq_peek
        #: numeric policy whose calibrated throughputs the batched model
        #: consults (None: the default float64 constants)
        self.policy = policy
        # the thesis prices, and builds, Transformation 6 + decimator;
        # the batched model what the plan backend runs, polyphase
        if cost_model == "thesis":
            self._direct_cost = direct_cost
            self._freq_cost = frequency_cost
            self._freq_strategy = "optimized"
        elif cost_model == "batched":
            self._direct_cost = lambda n: batched_direct_cost(
                n, batch, policy)
            self._freq_cost = lambda n: batched_frequency_cost(
                n, batch, policy=policy)
            self._freq_strategy = "polyphase"
        else:
            raise ValueError(f"unknown cost model {cost_model!r} "
                             "(expected 'thesis' or 'batched')")
        self.cost_model = cost_model
        self._memo: dict = {}
        self._region_nodes: dict = {}
        self._out_items: dict[int, float] = {}
        self._feedback_depth = 0
        self._compute_data_volumes()

    # ------------------------------------------------------------------
    # data volumes (the executionsPerSteadyState normalization)
    # ------------------------------------------------------------------
    def _compute_data_volumes(self):
        def visit(stream: Stream, mult: float):
            if isinstance(stream, (Filter, PrimitiveFilter)):
                self._out_items[id(stream)] = mult * stream.push
                return
            sub = steady_state(stream)
            self._out_items[id(stream)] = mult * sub.push
            if isinstance(stream, (Pipeline, SplitJoin)):
                for child in stream.children:
                    visit(child, mult * sub.multiplicity(child))
            elif isinstance(stream, FeedbackLoop):
                visit(stream.body, mult * sub.multiplicity(stream.body))
                visit(stream.loop, mult * sub.multiplicity(stream.loop))

        visit(self.program, 1.0)

    @staticmethod
    def _firings(items_out: float, push: int) -> float:
        return items_out / push if push else 0.0

    # ------------------------------------------------------------------
    # region linear nodes
    # ------------------------------------------------------------------
    def _node_for_range(self, container, lo: int, hi: int) \
            -> LinearNode | None:
        """Linear node of children[lo:hi] of a container, or None."""
        key = (id(container), lo, hi)
        if key in self._region_nodes:
            return self._region_nodes[key]
        node = None
        child_nodes = [self.lmap.node_for(c) for c in container.children[lo:hi]]
        if all(n is not None for n in child_nodes):
            try:
                if isinstance(container, Pipeline):
                    node = combine_pipeline(child_nodes)
                else:  # SplitJoin range
                    splitter = container.splitter
                    if isinstance(splitter, RoundRobin):
                        splitter = RoundRobin(splitter.weights[lo:hi])
                    joiner = RoundRobin(container.joiner.weights[lo:hi])
                    node = combine_splitjoin(splitter, child_nodes, joiner)
            except (CombinationError, SchedulingError):
                node = None
        self._region_nodes[key] = node
        return node

    # ------------------------------------------------------------------
    # collapse candidates (thesis Figure 4-5, getNodeCost)
    # ------------------------------------------------------------------
    def _collapse_configs(self, node: LinearNode, items_out: float,
                          label: str) -> list[Config]:
        configs = []
        firings = self._firings(items_out, node.push)
        configs.append(Config(firings * self._direct_cost(node),
                              LinearFilter(node, name=f"Linear[{label}]"),
                              "stateful" if node.state_dim else "linear"))
        if self._feedback_depth > 0 or node.state_dim:
            # frequency filters change granularity -> unsafe in a cycle;
            # and the transform is of a stateless convolution
            return configs
        if node.peek >= self.min_freq_peek:
            try:
                freq_stream = make_frequency_stream(
                    node, name=f"Freq[{label}]",
                    strategy=self._freq_strategy)
                configs.append(Config(firings * self._freq_cost(node),
                                      freq_stream, "freq"))
            except StreamGraphError:
                pass
        return configs

    # ------------------------------------------------------------------
    # the DP
    # ------------------------------------------------------------------
    def best(self, stream: Stream) -> Config:
        """Minimal-cost realization of a whole stream (ANY transform)."""
        key = id(stream)
        if key in self._memo:
            return self._memo[key]
        items_out = self._out_items.get(id(stream), 0.0)

        if isinstance(stream, (Filter, PrimitiveFilter)):
            node = self.lmap.node_for(stream)
            if node is None:
                result = Config(0.0, stream, "none")
            else:
                # a leaf with state (§7.1) is always replaced by the
                # explicit primitive: leaving it in place would cost the
                # same (the planner extracts the identical node)
                candidates = [] if node.state_dim else [Config(
                    self._firings(items_out, node.push)
                    * self._direct_cost(node),
                    stream, "none")]
                candidates += self._collapse_configs(node, items_out,
                                                     stream.name)
                result = min(candidates, key=lambda c: c.cost)
        elif isinstance(stream, (Pipeline, SplitJoin)):
            result = self._best_range(stream, 0, len(stream.children))
        elif isinstance(stream, FeedbackLoop):
            self._feedback_depth += 1
            body = self.best(stream.body)
            loop = self.best(stream.loop)
            self._feedback_depth -= 1
            result = Config(
                body.cost + loop.cost,
                FeedbackLoop(body.stream, loop.stream, stream.joiner,
                             stream.splitter, stream.enqueued,
                             name=stream.name),
                "none")
        else:
            raise TypeError(f"unknown stream {stream!r}")
        self._memo[key] = result
        return result

    def _rate_preserving_range(self, container, lo: int, hi: int) -> bool:
        """True when collapsing children[lo:hi] cannot deadlock a cycle
        (:func:`~repro.linear.combine.rate_preserving_run`)."""
        if not isinstance(container, Pipeline):
            return False
        nodes = [self.lmap.node_for(c) for c in container.children[lo:hi]]
        return all(n is not None for n in nodes) and \
            rate_preserving_run(nodes)

    def _range_items_out(self, container, lo: int, hi: int) -> float:
        if isinstance(container, Pipeline):
            return self._out_items.get(id(container.children[hi - 1]), 0.0)
        return sum(self._out_items.get(id(c), 0.0)
                   for c in container.children[lo:hi])

    def _best_range(self, container, lo: int, hi: int) -> Config:
        key = (id(container), lo, hi)
        if key in self._memo:
            return self._memo[key]

        if hi - lo == 1:
            # single child: its own best realization stands in directly
            # (for splitjoins the outer cut already routes its share).
            result = self.best(container.children[lo])
            self._memo[key] = result
            return result

        candidates: list[Config] = []

        # collapse the whole range (LINEAR / FREQ; a run containing
        # IIR-style leaves into one leaf with state, §7.1); multi-child
        # collapse usually coarsens granularity, so inside feedback
        # cycles it is allowed only when the combined unit demands no
        # more buffered input than the original finest-grained firing did
        node = None
        if self._feedback_depth == 0 or \
                self._rate_preserving_range(container, lo, hi):
            node = self._node_for_range(container, lo, hi)
        if node is not None:
            items_out = self._range_items_out(container, lo, hi)
            label = f"{container.name}[{lo}:{hi}]"
            candidates += self._collapse_configs(node, items_out, label)

        # cuts (NONE): every pivot splits the range in two
        for pivot in range(lo + 1, hi):
            left = self._best_range(container, lo, pivot)
            right = self._best_range(container, pivot, hi)
            cost = left.cost + right.cost
            if isinstance(container, Pipeline):
                stream = self._cut_pipeline(container, left.stream,
                                            right.stream)
            else:
                stream = self._cut_splitjoin(container, lo, pivot, hi,
                                             left, right)
            candidates.append(Config(cost, stream, "cut"))

        result = min(candidates, key=lambda c: c.cost)
        self._memo[key] = result
        return result

    @staticmethod
    def _cut_pipeline(container: Pipeline, left: Stream,
                      right: Stream) -> Pipeline:
        """Two realized halves in sequence; nested pipelines flatten."""
        parts: list[Stream] = []
        for part in (left, right):
            if isinstance(part, Pipeline):
                parts.extend(part.children)
            else:
                parts.append(part)
        return Pipeline(parts, name=container.name)

    @staticmethod
    def _cut_splitjoin(container: SplitJoin, lo: int, pivot: int,
                       hi: int, left: Config, right: Config) -> SplitJoin:
        """Realize the two groups of a cut with summed splitter/joiner
        weights, re-flattening nested cuts.

        Each realized group already encodes its internal routing (a
        collapse yields a leaf whose matrix absorbed the sliced splitter
        and joiner), so the groups plug in directly.  A group that is
        itself a *cut* of this container is spliced back into one flat
        splitjoin: one outer round pulls exactly one inner round, so the
        flat roundrobin emits the identical item sequence — and the
        executor materializes one splitter/joiner instead of a binary
        tree of them (per-item copies the batched backend would pay for).
        """
        dup = isinstance(container.splitter, Duplicate)
        w = container.joiner.weights
        v = None if dup else container.splitter.weights
        children: list[Stream] = []
        join_w: list[int] = []
        split_w: list[int] = []
        for cfg, (a, b) in ((left, (lo, pivot)), (right, (pivot, hi))):
            part = cfg.stream
            if cfg.choice == "cut" and b - a > 1:
                children.extend(part.children)
                join_w.extend(part.joiner.weights)
                if not dup:
                    split_w.extend(part.splitter.weights)
            else:
                children.append(part)
                join_w.append(sum(w[a:b]))
                if not dup:
                    split_w.append(sum(v[a:b]))
        splitter: Duplicate | RoundRobin = (
            Duplicate() if dup else RoundRobin(tuple(split_w)))
        return SplitJoin(splitter, children, RoundRobin(tuple(join_w)),
                         name=container.name)


def select_optimizations(program: Stream,
                         lmap: LinearityMap | None = None,
                         cost_model: str = "thesis",
                         batch: int = DEFAULT_COST_BATCH,
                         stateful: bool = False,
                         policy=None) \
        -> SelectionResult:
    """Run automatic optimization selection on a whole program.

    ``cost_model="thesis"`` prices scalar firings (§4.3.3);
    ``cost_model="batched"`` prices the plan backend's batched execution
    (dense BLAS matmuls, batch-amortized FFT setup) and is what
    ``optimize="auto"`` uses.  ``stateful=True`` additionally lets the
    DP see linear nodes that carry state — replace such leaves and
    collapse the pipeline runs that contain them (§7.1); the plan
    pipeline enables it, the paper's autosel configuration does not.
    Returns the rebuilt program realizing the minimal-cost configuration.
    """
    selector = OptimizationSelector(program, lmap, cost_model=cost_model,
                                    batch=batch, stateful=stateful,
                                    policy=policy)
    best = selector.best(program)
    return SelectionResult(stream=best.stream, cost=best.cost,
                           decisions=dict(selector._memo))
