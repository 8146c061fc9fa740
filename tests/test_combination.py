"""Pipeline and splitjoin combination tests, validated on the thesis'
worked examples (Figures 3-4 and 3-6) and on random-node equivalence,
the pipeline property stated once over the state sizes of both sides."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CombinationError
from repro.graph import Duplicate, RoundRobin
from repro.linear import (LinearNode, combine_duplicate_splitjoin,
                          combine_pipeline, combine_pipeline_pair,
                          combine_splitjoin, decimator_node,
                          roundrobin_to_duplicate)
from test_expansion import random_node


def test_figure_3_4_pipeline_combination():
    """Two FIR filters: A1=[1;2] (e=2), A2=[3;4;5] (e=3) => e=4 combined."""
    n1 = LinearNode.from_coefficients([[1.0, 2.0]], [0.0], pop=1)
    n2 = LinearNode.from_coefficients([[3.0, 4.0, 5.0]], [0.0], pop=1)
    combined = combine_pipeline_pair(n1, n2)
    assert (combined.peek, combined.pop, combined.push) == (4, 1, 1)
    # Verify against brute-force composition on a random input stream.
    rng = np.random.default_rng(0)
    x = rng.normal(size=16)
    mid = n1.reference_run(x, firings=15)
    expected = n2.reference_run(mid, firings=10)
    got = combined.reference_run(x, firings=10)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_pipeline_combination_composes_offsets():
    n1 = LinearNode.from_coefficients([[2.0]], [3.0], pop=1)   # y = 2x + 3
    n2 = LinearNode.from_coefficients([[5.0]], [-1.0], pop=1)  # z = 5y - 1
    combined = combine_pipeline_pair(n1, n2)
    # z = 10x + 14
    np.testing.assert_allclose(combined.apply(np.array([7.0])), [84.0])


def test_pipeline_combination_with_rate_mismatch():
    """u1=2 vs o2=3 forces expansion to chanPop=lcm(2,3)=6."""
    n1 = LinearNode.from_coefficients(
        [[1.0, 1.0], [2.0, 0.0]], [0.0, 0.0], pop=1)  # push 2 per pop 1
    n2 = LinearNode.from_coefficients([[1.0, 1.0, 1.0]], [0.0], pop=3)
    combined = combine_pipeline_pair(n1, n2)
    assert combined.push == 2  # 6 channel items / o2=3 * u2=1 = 2
    rng = np.random.default_rng(1)
    x = rng.normal(size=20)
    mid = n1.reference_run(x, firings=12)
    expected = n2.reference_run(mid, firings=6)
    got = combined.reference_run(x, firings=3)
    np.testing.assert_allclose(got, expected[:len(got)], atol=1e-12)


def test_pipeline_combination_with_downstream_peeking():
    """Downstream peeks (e2 > o2): upstream must regenerate overlap."""
    n1 = LinearNode.from_coefficients([[1.0, -1.0]], [0.0], pop=1)
    n2 = LinearNode.from_coefficients([[1.0, 2.0, 3.0, 4.0]], [0.0], pop=1)
    combined = combine_pipeline_pair(n1, n2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=30)
    mid = n1.reference_run(x, firings=29)
    expected = n2.reference_run(mid, firings=20)
    got = combined.reference_run(x, firings=20)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_combine_pipeline_many():
    nodes = [LinearNode.from_coefficients([[1.0, 1.0]], [0.0], pop=1)
             for _ in range(4)]
    combined = combine_pipeline(nodes)
    assert combined.peek == 5  # binomial smoothing depth
    # coefficients are binomial(4, k)
    window = np.eye(5)
    outs = [combined.apply(w)[0] for w in window]
    np.testing.assert_allclose(outs, [1, 4, 6, 4, 1])


def test_combine_pipeline_empty_fails():
    with pytest.raises(CombinationError):
        combine_pipeline([])


def test_figure_3_6_splitjoin_combination():
    """Duplicate splitjoin, children u=4 and u=1, joiner roundrobin(2,1)."""
    A1 = np.array([[1.0, 2.0, 3.0, 4.0],
                   [5.0, 6.0, 7.0, 8.0]])
    n1 = LinearNode(A1, np.zeros(4), 2, 2, 4)
    n2 = LinearNode(np.array([[9.0]]), np.array([10.0]), 1, 1, 1)
    combined = combine_duplicate_splitjoin([n1, n2], [2, 1])
    expected_A = np.array([
        [9.0, 1.0, 2.0, 0.0, 3.0, 4.0],
        [0.0, 5.0, 6.0, 9.0, 7.0, 8.0],
    ])
    np.testing.assert_array_equal(combined.A, expected_A)
    np.testing.assert_array_equal(combined.b,
                                  [10.0, 0.0, 0.0, 10.0, 0.0, 0.0])
    assert (combined.peek, combined.pop, combined.push) == (2, 2, 6)


def _run_duplicate_splitjoin(children, weights, inputs, cycles):
    """Oracle: simulate a duplicate splitjoin + roundrobin joiner."""
    outs = [list() for _ in children]
    for k, child in enumerate(children):
        firings = (len(inputs) - (child.peek - child.pop)) // child.pop
        outs[k] = list(child.reference_run(inputs, firings))
    result = []
    positions = [0] * len(children)
    for _ in range(cycles):
        for k, w in enumerate(weights):
            result.extend(outs[k][positions[k]:positions[k] + w])
            positions[k] += w
    return np.array(result)


def test_duplicate_splitjoin_equivalence_mismatched_rates():
    """Rates (o=3,u=2,w=2) vs (o=1,u=1,w=3): reps 1 and 3, equal pops."""
    n1 = LinearNode.from_coefficients(
        [[1.0, 2.0, 0.0], [0.5, 0.0, 1.0]], [0.0, 1.0], pop=3)
    n2 = LinearNode.from_coefficients([[3.0, 0.0, -1.0]], [0.5], pop=1)
    combined = combine_duplicate_splitjoin([n1, n2], [2, 3])
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    firings = 4
    got = combined.reference_run(x, firings=firings)
    expected = _run_duplicate_splitjoin(
        [n1, n2], [2, 3], x, cycles=firings * combined.push // 5)
    np.testing.assert_allclose(got, expected[:len(got)], atol=1e-12)


def test_duplicate_splitjoin_rejects_inconsistent_pops():
    n1 = LinearNode.from_coefficients([[1.0]], [0.0], pop=1)  # o=1, u=1
    n2 = LinearNode.from_coefficients([[1.0, 1.0]], [0.0], pop=2)  # o=2, u=1
    with pytest.raises(CombinationError):
        combine_duplicate_splitjoin([n1, n2], [1, 1])


def test_decimator_node_structure():
    """Transformation 4's decimator: keep branch k's segment of each cycle."""
    dec = decimator_node([2, 1], k=0)
    assert (dec.peek, dec.pop, dec.push) == (3, 3, 2)
    np.testing.assert_allclose(dec.apply(np.array([10.0, 20.0, 30.0])),
                               [10.0, 20.0])
    dec1 = decimator_node([2, 1], k=1)
    np.testing.assert_allclose(dec1.apply(np.array([10.0, 20.0, 30.0])),
                               [30.0])


def test_roundrobin_splitjoin_equivalence():
    """rr(1,1) split, identity children, rr(1,1) join == identity overall."""
    ident = LinearNode.from_coefficients([[1.0]], [0.0], pop=1)
    combined = combine_splitjoin(
        RoundRobin((1, 1)), [ident, ident], RoundRobin((1, 1)))
    x = np.arange(10, dtype=float)
    firings = 10 // combined.pop
    got = combined.reference_run(x, firings=firings)
    np.testing.assert_allclose(got, x[:len(got)])


def test_roundrobin_splitjoin_swap():
    """rr(1,1) split + rr joiner reading right child first swaps pairs."""
    ident = LinearNode.from_coefficients([[1.0]], [0.0], pop=1)
    neg = LinearNode.from_coefficients([[-1.0]], [0.0], pop=1)
    combined = combine_splitjoin(
        RoundRobin((1, 1)), [ident, neg], RoundRobin((1, 1)))
    got = combined.reference_run(np.array([1.0, 2.0, 3.0, 4.0]), firings=2)
    np.testing.assert_allclose(got, [1.0, -2.0, 3.0, -4.0])


def test_duplicate_splitjoin_three_children():
    a = LinearNode.from_coefficients([[1.0]], [0.0], pop=1)
    b = LinearNode.from_coefficients([[2.0]], [0.0], pop=1)
    c = LinearNode.from_coefficients([[3.0]], [0.0], pop=1)
    combined = combine_splitjoin(Duplicate(), [a, b, c],
                                 RoundRobin((1, 1, 1)))
    got = combined.reference_run(np.array([5.0, 7.0]), firings=2)
    np.testing.assert_allclose(got, [5, 10, 15, 7, 14, 21])


def run_in_sequence(n1, n2, x):
    """Every output of ``n2`` fed by ``n1`` over the input ``x``."""
    mid = n1.reference_run(x, (len(x) - n1.peek) // n1.pop + 1)
    return n2.reference_run(mid, (len(mid) - n2.peek) // n2.pop + 1)


@settings(max_examples=120, deadline=None)
@given(
    k1=st.sampled_from([0, 1, 3]), k2=st.sampled_from([0, 1, 3]),
    e1=st.integers(1, 4), o1=st.integers(1, 2), u1=st.integers(1, 3),
    e2=st.integers(1, 4), o2=st.integers(1, 3), u2=st.integers(1, 3),
    multiple=st.integers(1, 2), seed=st.integers(0, 10_000),
)
def test_property_pipeline_combination_equivalence(k1, k2, e1, o1, u1, e2, o2,
                                                   u2, multiple, seed):
    """pipeline(Λ1, Λ2) computes exactly the composed stream function —
    rate-changing, peeking (lookahead downstream of state included: Λ1's
    recomputed outputs must not advance its state), at the lcm and at a
    larger common multiple of the channel rates."""
    rng = np.random.default_rng(seed)
    n1 = random_node(rng, k1, max(e1, o1), o1, u1)
    n2 = random_node(rng, k2, max(e2, o2), o2, u2)
    chan_pop = multiple * math.lcm(u1, o2)
    combined = combine_pipeline_pair(n1, n2, chan_pop=chan_pop)
    assert combined.state_dim == k1 + k2
    assert combined.pop == chan_pop // u1 * o1
    assert combined.push == chan_pop // o2 * u2
    firings = 3
    x = rng.normal(size=combined.peek + (firings - 1) * combined.pop)
    got = combined.reference_run(x, firings=firings)
    np.testing.assert_allclose(got, run_in_sequence(n1, n2, x)[:len(got)],
                               atol=1e-9)


def test_splitjoin_combination_refuses_children_with_state():
    """Transformations 3 and 4 are stated for k = 0 children."""
    rng = np.random.default_rng(0)
    plain, state = random_node(rng, 0, 1, 1, 1), random_node(rng, 2, 1, 1, 1)
    for splitter in (Duplicate(), RoundRobin((1, 1))):
        with pytest.raises(CombinationError, match="carries state"):
            combine_splitjoin(splitter, [plain, state], RoundRobin((1, 1)))


# ---------------------------------------------------------------------------
# The size bound: a combination is sized from its rates and refused
# before anything is allocated (operands are lcm x lcm whatever the
# result is), under the one constant MAX_MATRIX_ELEMS
# ---------------------------------------------------------------------------


def traced_peak_mb(fn):
    """``(fn's result or the CombinationError it raised, peak MB)``."""
    import tracemalloc

    tracemalloc.start()
    try:
        try:
            result = fn()
        except CombinationError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def block_pipeline_source(n1, n2):
    """DSL text of ``pop n1 push n1`` -> ``pop n2 push n2`` copy blocks:
    both leaves are small, their channel is ``lcm(n1, n2)`` items."""
    block = """
    float->float filter Block%(n)d {
        work peek %(n)d pop %(n)d push %(n)d {
            for (int i = 0; i < %(n)d; i++) push(peek(i));
            for (int i = 0; i < %(n)d; i++) pop();
        }
    }"""
    return (block % {"n": n1} + block % {"n": n2} + """
    float->float pipeline Blocks { add Block%d(); add Block%d(); }
    """ % (n1, n2))


@pytest.mark.parametrize("n1, n2", [(61, 64), (127, 128)])
def test_oversized_pipeline_is_refused_before_it_is_built(n1, n2):
    """Regression: the 61/64 pair peaked at 366 MB (three 3 904² float64
    matrices; ~6 GB at 127/128) before answering "too large", because
    the check ran on the result.  Every rewrite leaves the two leaves
    where they are."""
    from repro.dsl import compile_source
    from repro.exec.optimize import optimize_stream
    from repro.graph.streams import Pipeline
    from repro.linear import analyze, maximal_linear_replacement
    from repro.selection import select_optimizations

    graph = compile_source(block_pipeline_source(n1, n2), "Blocks")
    lmap, peak = traced_peak_mb(lambda: analyze(graph))
    assert peak < 32
    assert [lmap.is_linear(c) for c in graph.children] == [True, True]
    assert lmap.node_for(graph) is None
    assert "too large" in lmap.reason_for(graph)

    rewrites = [
        lambda: maximal_linear_replacement(graph, lmap=lmap),
        lambda: select_optimizations(graph, lmap).stream,
        lambda: select_optimizations(graph, lmap, cost_model="batched",
                                     stateful=True).stream,
        lambda: optimize_stream(graph, "linear"),
        lambda: optimize_stream(graph, "auto"),
    ]
    for rewrite in rewrites:
        rewritten, peak = traced_peak_mb(rewrite)
        assert peak < 32
        assert isinstance(rewritten, Pipeline)
        assert [c.pop for c in rewritten.children] == [n1, n2]
    # frequency replacement turns each leaf into its own FFT pipeline
    rewritten, peak = traced_peak_mb(lambda: optimize_stream(graph, "freq"))
    assert peak < 32 and len(rewritten.children) == 2


def test_oversized_channel_is_refused_whatever_the_result_size():
    """1 -> 1000 into 1001 -> 1: the result is 1001 x 1000, the channel a
    million items and each operand a billion entries (90 s and 16 GB
    before the operands were sized)."""
    n1 = LinearNode(np.ones((1, 1000)), np.zeros(1000), 1, 1, 1000)
    n2 = LinearNode(np.ones((1001, 1)), np.zeros(1), 1001, 1001, 1)
    for combine in (lambda: combine_pipeline_pair(n1, n2),
                    lambda: combine_pipeline([n1, n2])):
        refusal, peak = traced_peak_mb(combine)
        assert isinstance(refusal, CombinationError)
        assert "too large" in str(refusal) and peak < 32


@pytest.mark.parametrize("splitter", [Duplicate(), RoundRobin((1, 1))],
                         ids=["duplicate", "roundrobin"])
def test_oversized_splitjoin_is_refused_before_it_is_built(splitter):
    """Identity blocks of 61 and 64 under a (1, 1) joiner: 3 904 joiner
    cycles per steady state, a 3 904 x 7 808 result (488 MB traced)."""
    blocks = [LinearNode(np.eye(n), np.zeros(n), n, n, n) for n in (61, 64)]
    refusal, peak = traced_peak_mb(
        lambda: combine_splitjoin(splitter, blocks, RoundRobin((1, 1))))
    assert isinstance(refusal, CombinationError)
    assert "too large" in str(refusal) and peak < 32


@settings(max_examples=60, deadline=None)
@given(
    k1=st.sampled_from([0, 1, 3]), k2=st.sampled_from([0, 1, 3]),
    e1=st.integers(1, 4), o1=st.integers(1, 3), u1=st.integers(1, 4),
    e2=st.integers(1, 5), o2=st.integers(1, 4), u2=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_size_bound_covers_operands_and_result(k1, k2, e1, o1, u1,
                                                        e2, o2, u2, seed):
    """The bound holds on all three matrices of a pair combination —
    whichever of the two expanded operands and the result is largest
    (with its state rows and columns) decides — and a refused pair
    expands nothing."""
    from unittest import mock

    from repro.linear import expansion, pipeline_comb

    rng = np.random.default_rng(seed)
    n1 = random_node(rng, k1, max(e1, o1), o1, u1)
    n2 = random_node(rng, k2, max(e2, o2), o2, u2)
    built = []

    def spy(node, *rates):
        built.append(expansion.expand(node, *rates))
        return built[-1]

    with mock.patch.object(pipeline_comb, "expand", spy):
        built.append(combine_pipeline_pair(n1, n2))
        largest = max((n.peek + n.state_dim) * (n.push + n.state_dim)
                      for n in built)
        with mock.patch.object(expansion, "MAX_MATRIX_ELEMS", largest):
            combine_pipeline_pair(n1, n2)
        del built[:]
        with mock.patch.object(expansion, "MAX_MATRIX_ELEMS", largest - 1):
            with pytest.raises(CombinationError, match="too large"):
                combine_pipeline_pair(n1, n2)
    assert not built


# ---------------------------------------------------------------------------
# In-loop combination: rate-preserving pipeline runs collapse inside
# feedback cycles; lookahead-bearing runs do not
# ---------------------------------------------------------------------------


def _mix2(name, a, b, c, d):
    from repro.ir import FilterBuilder

    f = FilterBuilder(name, peek=2, pop=2, push=2)
    with f.work():
        x = f.local("x", f.pop_expr())
        y = f.local("y", f.pop_expr())
        f.push(a * x + b * y)
        f.push(c * x + d * y)
    return f.build()


def _damp(gain=0.5):
    from repro.ir import FilterBuilder

    f = FilterBuilder("damp", peek=1, pop=1, push=1)
    g = f.const("g", gain)
    with f.work():
        f.push(g * f.pop_expr())
    return f.build()


def _loop_with_body(body):
    from repro.graph.streams import FeedbackLoop, RoundRobin

    return FeedbackLoop(body=body, loop=_damp(),
                        joiner=RoundRobin((1, 1)),
                        splitter=RoundRobin((1, 1)),
                        enqueued=[0.0, 0.0], name="fb")


def test_rate_preserving_chain_collapses_inside_feedback():
    """peek==pop children with matching rates combine into one leaf even
    inside a cycle — the collapsed unit demands no extra buffered input,
    so the delay budget is untouched."""
    from repro.graph.streams import Pipeline, walk
    from repro.linear import LinearFilter, maximal_linear_replacement
    from repro.runtime import run_stream
    from repro.selection import select_optimizations

    def make():
        return _loop_with_body(Pipeline(
            [_mix2("m1", .1, .2, .3, .4), _mix2("m2", .5, -.1, .2, .3)],
            name="chain"))

    replaced = maximal_linear_replacement(make())
    assert isinstance(replaced.body, LinearFilter)
    selected = select_optimizations(make()).stream
    assert isinstance(selected.body, LinearFilter)
    inputs = [float(i % 5) for i in range(40)]
    base = run_stream(make(), inputs, 20)
    for rewritten in (maximal_linear_replacement(make()),
                      select_optimizations(make()).stream):
        got = run_stream(rewritten, inputs, 20)
        np.testing.assert_allclose(got, base, atol=1e-9)


def test_lookahead_chain_stays_uncollapsed_inside_feedback():
    """A peeking child (peek > pop) makes the combined unit demand more
    buffered input than the original — collapsing it inside a cycle
    could deadlock, so it must not happen."""
    from repro.graph.streams import Pipeline
    from repro.ir import FilterBuilder
    from repro.linear import LinearFilter, maximal_linear_replacement

    f = FilterBuilder("peeker", peek=3, pop=2, push=2)
    with f.work():
        f.push(f.peek(0) + 0.5 * f.peek(2))
        f.push(f.peek(1))
        f.pop()
        f.pop()
    body = Pipeline([f.build(), _mix2("m", .1, .2, .3, .4)],
                    name="peek-chain")
    replaced = maximal_linear_replacement(_loop_with_body(body))
    # leaves are individually replaced, but the run is not combined
    assert not isinstance(replaced.body, LinearFilter)
    assert all(isinstance(c, LinearFilter)
               for c in replaced.body.children)
