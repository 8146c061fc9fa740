"""Linear expansion tests (thesis §3.3.1, validated on Figure 3-4), the
defining property stated once over the state size ``k``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linear import LinearNode, expand, expand_firings


def random_node(rng, k, e, o, u):
    """A random contracting node with the given state size and rates
    (``k = 0``: the thesis' stateless node)."""
    return LinearNode(
        rng.uniform(-1, 1, size=(e, u)), rng.uniform(-1, 1, size=u),
        e, o, u,
        As=rng.uniform(-1, 1, size=(k, u)),
        Cx=rng.uniform(-0.5, 0.5, size=(e, k)),
        Cs=rng.uniform(-0.4, 0.4, size=(k, k)) / max(k, 1),
        bs=rng.uniform(-0.2, 0.2, size=k),
        s0=rng.uniform(-1, 1, size=k))


def fir2():
    """The first filter of Figure 3-4: y = 2*peek(0) + peek(1), A1 = [1;2]
    in the thesis' layout (row 0 holds the peek(1) coefficient)."""
    return LinearNode.from_coefficients([[2.0, 1.0]], [0.0], pop=1)


def test_figure_3_4_expansion():
    """expand(A1, 4, 1, 3) from the worked pipeline example."""
    node = expand(fir2(), 4, 1, 3)
    expected = np.array([
        [1.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
        [0.0, 2.0, 1.0],
        [0.0, 0.0, 2.0],
    ])
    np.testing.assert_array_equal(node.A, expected)
    np.testing.assert_array_equal(node.b, np.zeros(3))
    assert (node.peek, node.pop, node.push) == (4, 1, 3)


def test_expand_identity():
    node = fir2()
    same = expand(node, node.peek, node.pop, node.push)
    np.testing.assert_array_equal(same.A, node.A)
    np.testing.assert_array_equal(same.b, node.b)


def test_expand_firings_equivalence():
    """k-firing expansion computes exactly k consecutive firings."""
    node = LinearNode.from_coefficients(
        [[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]], [1.0, -1.0], pop=2)
    k = 3
    expanded = expand_firings(node, k)
    assert expanded.pop == k * node.pop
    assert expanded.push == k * node.push
    rng = np.random.default_rng(42)
    inputs = rng.normal(size=expanded.peek)
    expected = node.reference_run(inputs, firings=k)
    got = expanded.apply(inputs[:expanded.peek])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_expand_b_replication():
    node = LinearNode.from_coefficients([[1.0], [2.0]], [5.0, 7.0], pop=1)
    expanded = expand_firings(node, 2)
    # push order per firing is (b=5, b=7, 5, 7)
    outs = expanded.apply(np.zeros(expanded.peek))
    np.testing.assert_allclose(outs, [5.0, 7.0, 5.0, 7.0])


def test_expand_pads_zero_rows_on_top():
    """e' larger than the copies need => zero rows at the top (extra peek)."""
    node = fir2()
    expanded = expand(node, 6, 1, 3)
    assert expanded.A.shape == (6, 3)
    np.testing.assert_array_equal(expanded.A[:2], np.zeros((2, 3)))


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([0, 1, 3]),
    e=st.integers(1, 6), o=st.integers(1, 4), u=st.integers(1, 4),
    n=st.integers(1, 4), blocks=st.integers(1, 3), seed=st.integers(0, 10_000),
)
def test_property_expansion_equals_repeated_firings(k, e, o, u, n, blocks,
                                                    seed):
    """expand_firings(node, n) ≡ n firings of node, block after block
    (the state it hands on included), for random nodes of any k."""
    e = max(e, o)
    rng = np.random.default_rng(seed)
    node = random_node(rng, k, e, o, u)
    expanded = expand_firings(node, n)
    assert expanded.state_dim == k
    assert (expanded.pop, expanded.push) == (n * o, n * u)
    inputs = rng.normal(size=expanded.peek + (blocks - 1) * expanded.pop)
    np.testing.assert_allclose(
        expanded.reference_run(inputs, firings=blocks),
        node.reference_run(inputs, firings=n * blocks),
        atol=1e-9,
    )


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([0, 1, 3]),
    e=st.integers(1, 5), o=st.integers(1, 3), u=st.integers(1, 4),
    advance=st.integers(1, 3), surplus=st.integers(0, 2),
    clip=st.integers(0, 3), seed=st.integers(0, 10_000),
)
def test_property_clipped_expansion_recomputes(k, e, o, u, advance, surplus,
                                               clip, seed):
    """The thesis' (e', o', u') form: the copies past the ``o'/o``
    firings the node advances are recomputation, and a ``u'`` that is no
    multiple of ``u`` clips the newest copy — every firing of the
    expanded node pushes the oldest ``u'`` items of its window's firings
    and leaves the state where ``advance`` firings put it."""
    e = max(e, o)
    rng = np.random.default_rng(seed)
    node = random_node(rng, k, e, o, u)
    copies = advance + surplus
    push = copies * u - min(clip, u - 1)
    expanded = expand(node, e + (copies - 1) * o, advance * o, push)
    firings = 3
    inputs = rng.normal(size=expanded.peek + (firings - 1) * expanded.pop)
    steps = node.reference_run(
        inputs, (len(inputs) - e) // o + 1).reshape(-1, u)
    want = [steps[t * advance:t * advance + copies].reshape(-1)[:push]
            for t in range(firings)]
    np.testing.assert_allclose(
        expanded.reference_run(inputs, firings), np.concatenate(want),
        atol=1e-9)


def test_expand_with_state_rejects_a_partial_advance():
    """State advances by whole firings, each inside the window."""
    node = random_node(np.random.default_rng(0), 2, 3, 2, 1)
    for rates in ((5, 3, 2), (5, 6, 2), (3, 2, 2)):
        with pytest.raises(ValueError):
            expand(node, *rates)


def test_expand_rejects_bad_k():
    with pytest.raises(ValueError):
        expand_firings(fir2(), 0)
