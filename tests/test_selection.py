"""Optimization selection tests (thesis §4.3)."""

import numpy as np
import pytest

from repro.graph import Duplicate, Pipeline, RoundRobin, SplitJoin
from repro.ir import FilterBuilder
from repro.linear import LinearFilter, LinearNode
from repro.runtime import Collector, ListSource, run_stream
from repro.selection import (OptimizationSelector, direct_cost,
                             frequency_cost, select_optimizations)


def make_fir(coeffs, name="FIR"):
    n = len(coeffs)
    f = FilterBuilder(name, peek=n, pop=1, push=1)
    h = f.const_array("h", coeffs)
    with f.work():
        s = f.local("sum", 0.0)
        with f.loop("i", 0, n) as i:
            f.assign(s, s + h[i] * f.peek(i))
        f.push(s)
        f.pop()
    return f.build()


def make_nonlinear(name="NL"):
    f = FilterBuilder(name, peek=1, pop=1, push=1)
    with f.work():
        x = f.local("x", f.pop_expr())
        f.push(x * x)
    return f.build()


def rand_coeffs(n, seed=0):
    return np.random.default_rng(seed).normal(size=n).tolist()


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------


class TestCosts:
    def test_direct_cost_formula(self):
        node = LinearNode.from_coefficients(
            [[1.0, 0.0, 2.0]], [5.0], pop=1)
        assert direct_cost(node) == 185 + 2 * 1 + 1 + 3 * 2

    def test_frequency_wins_for_large_fir(self):
        big = LinearNode(np.ones((256, 1)), np.zeros(1), 256, 1, 1)
        assert frequency_cost(big) < direct_cost(big)

    def test_direct_wins_for_tiny_fir(self):
        tiny = LinearNode(np.ones((2, 1)), np.zeros(1), 2, 1, 1)
        assert direct_cost(tiny) < frequency_cost(tiny)

    def test_large_pop_penalizes_frequency(self):
        """The Radar property: pop 24 makes frequency catastrophic."""
        node = LinearNode(np.ones((24, 2)), np.zeros(2), 24, 24, 2)
        assert frequency_cost(node) > 10 * direct_cost(node)


# ---------------------------------------------------------------------------
# end-to-end selection
# ---------------------------------------------------------------------------


def equivalent_outputs(original, optimized, n_out=40, n_in=4000, seed=0):
    inputs = np.random.default_rng(seed).normal(size=n_in).tolist()
    a = run_stream(original, inputs, n_out)
    b = run_stream(optimized, inputs, n_out)
    np.testing.assert_allclose(a, b, atol=1e-8)


class TestSelection:
    def test_two_small_firs_combine_linear(self):
        """Adjacent small FIRs: combination wins, frequency does not."""
        pipe = Pipeline([make_fir([1.0, 2.0], "f1"),
                         make_fir([0.5, -0.5], "f2")])
        result = select_optimizations(pipe)
        assert isinstance(result.stream, LinearFilter)
        equivalent_outputs(pipe, result.stream)

    def test_large_fir_goes_to_frequency(self):
        coeffs = rand_coeffs(128, seed=1)
        pipe = Pipeline([make_fir(coeffs, "big")])
        result = select_optimizations(pipe)
        names = [type(s).__name__ for s in
                 ([result.stream] if not isinstance(result.stream, Pipeline)
                  else result.stream.children)]
        assert any("Freq" in n for n in names), names
        equivalent_outputs(pipe, result.stream, n_out=30)

    def test_nonlinear_children_left_alone(self):
        pipe = Pipeline([make_nonlinear("n1"), make_nonlinear("n2")])
        result = select_optimizations(pipe)
        assert result.cost == 0.0
        equivalent_outputs(pipe, result.stream)

    def test_linear_run_between_nonlinear(self):
        """A linear island inside a nonlinear pipeline gets collapsed."""
        pipe = Pipeline([
            make_nonlinear("pre"),
            make_fir([1.0, 1.0], "f1"),
            make_fir([1.0, -1.0], "f2"),
            make_nonlinear("post"),
        ])
        result = select_optimizations(pipe)
        assert isinstance(result.stream, Pipeline)
        kinds = [type(c).__name__ for c in result.stream.children]
        assert kinds.count("LinearFilter") == 1
        assert kinds.count("Filter") == 2
        equivalent_outputs(pipe, result.stream)

    def test_degrading_combination_avoided(self):
        """A column-vector times row-vector pipeline must NOT combine
        (the thesis' worst case: O(N) ops becoming O(N^2))."""
        n = 24
        down = FilterBuilder("down", peek=n, pop=1, push=1)
        with down.work():
            s = down.local("s", 0.0)
            with down.loop("i", 0, n) as i:
                down.assign(s, s + down.peek(i) * 3.0)
            down.push(s)
            down.pop()
        up = FilterBuilder("up", peek=1, pop=1, push=n)
        with up.work():
            v = up.local("v", up.pop_expr())
            with up.loop("i", 0, n):
                up.push(v * 2.0)
        pipe = Pipeline([down.build(), up.build()])
        selector = OptimizationSelector(pipe)
        best = selector.best(pipe)
        # combined: nnz = n*n; separate: nnz = n + n
        combined_node = selector._node_for_range(pipe, 0, 2)
        assert combined_node is not None
        assert best.choice == "cut"
        equivalent_outputs(pipe, best.stream)

    def test_splitjoin_selection_collapses(self):
        sj = SplitJoin(Duplicate(),
                       [make_fir([1.0, 2.0], "a"), make_fir([3.0, 4.0], "b")],
                       RoundRobin((1, 1)))
        prog = Pipeline([sj])
        result = select_optimizations(prog)
        assert isinstance(result.stream, LinearFilter)
        equivalent_outputs(prog, result.stream)

    def test_splitjoin_partial_linearity_cut(self):
        """One nonlinear branch: the linear branch still optimizes."""
        sj = SplitJoin(Duplicate(),
                       [make_fir(rand_coeffs(64, 2), "lin"),
                        make_nonlinear("nl")],
                       RoundRobin((1, 1)))
        prog = Pipeline([sj])
        result = select_optimizations(prog)
        equivalent_outputs(prog, result.stream, n_out=30)

    def test_selection_cost_not_worse_than_pure_strategies(self):
        """Autosel <= min(all-linear, all-freq) by construction; sanity
        check on a mixed program."""
        pipe = Pipeline([
            make_fir(rand_coeffs(96, 3), "big"),
            make_fir([1.0, -1.0], "small"),
        ])
        selector = OptimizationSelector(pipe)
        best = selector.best(pipe)
        node = selector._node_for_range(pipe, 0, 2)
        full_linear = selector._collapse_configs(node, 1.0, "x")[0].cost
        assert best.cost <= full_linear + 1e-9
        equivalent_outputs(pipe, best.stream, n_out=30)


# ---------------------------------------------------------------------------
# a cut of a child splitjoin is not a cut of its parent
# ---------------------------------------------------------------------------

_NESTED = """
void->float filter Ramp {
    int n;
    work push 1 { push(0.25 * n - 3.0); n = n + 1; }
}
float->float filter Clip {
    work pop 1 push 1 {
        float x = pop();
        if (x > 1.0) { push(1.0); } else { push(x); }
    }
}
float->float filter Gain(float g) {
    work pop 1 push 1 { push(g * pop()); }
}
float->float splitjoin Inner {
    split %(inner_split)s;
    add Clip();
    add Gain(2.0);
    join roundrobin(1, 1);
}
float->float splitjoin Outer {
    split roundrobin(%(share)d, 1);
    add Inner();
    add Gain(3.0);
    join roundrobin(%(joined)d, 1);
}
void->float pipeline Program { add Ramp(); add Outer(); }
"""


class TestCutOfNestedSplitJoin:
    """``Inner`` keeps a non-linear branch, so its best configuration is
    a cut; as the one-child half of ``Outer``'s cut it must stay a
    child.  Spliced into ``Outer`` it took the inner weights: a crash
    when the inner splitter is a duplicate, the wrong routing when a
    round of the inner one is not the outer share."""

    @staticmethod
    def check(**shape):
        from repro.dsl import load_source
        from repro.exec import optimize_stream
        from repro.runtime import run_graph

        def program():
            g = load_source(_NESTED % shape, "Program")
            return Pipeline(list(g.children) + [Collector()])

        outer = optimize_stream(program(), "auto").children[1]
        assert isinstance(outer, SplitJoin) and len(outer.children) == 2
        assert isinstance(outer.children[0], SplitJoin)  # still a child
        want = run_graph(program(), 60, backend="interp")
        for backend in ("compiled", "plan"):
            for mode in ("none", "auto"):
                got = run_graph(program(), 60, backend=backend,
                                optimize=mode)
                np.testing.assert_allclose(got, want, atol=1e-9,
                                           err_msg=f"{backend}/{mode}")

    def test_nested_duplicate_under_roundrobin_parent(self):
        # was: AttributeError: 'Duplicate' object has no attribute 'weights'
        self.check(inner_split="duplicate", share=1, joined=2)

    def test_nested_roundrobin_round_is_not_the_parents_share(self):
        # was: flat roundrobin(1, 1, 1) for roundrobin(4, 1) of (1, 1)
        self.check(inner_split="roundrobin(1, 1)", share=4, joined=4)
