"""Tests for the stateful linear-node extension (thesis §7.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FeedbackLoop, Pipeline, RoundRobin
from repro.ir import FilterBuilder
from repro.linear import LinearFilter, LinearNode, combine_pipeline_pair
from repro.linear.state import from_difference_equation
from repro.runtime import run_stream


def iir_reference(b, a, x):
    """Direct evaluation of y[n] = sum b_k x[n-k] + sum a_j y[n-j]."""
    y = np.zeros(len(x))
    for n in range(len(x)):
        acc = 0.0
        for k, bk in enumerate(b):
            if n - k >= 0:
                acc += bk * x[n - k]
        for j, aj in enumerate(a, start=1):
            if n - j >= 0:
                acc += aj * y[n - j]
        y[n] = acc
    return y


class TestDifferenceEquation:
    def test_pure_fir_case(self):
        node = from_difference_equation([1.0, 0.5, 0.25], [])
        x = np.arange(1.0, 9.0)
        got = node.reference_run(x, firings=8)
        np.testing.assert_allclose(got, iir_reference([1, 0.5, 0.25], [], x))

    def test_first_order_iir(self):
        node = from_difference_equation([1.0], [0.5])
        x = np.ones(10)
        got = node.reference_run(x, firings=10)
        np.testing.assert_allclose(got, iir_reference([1.0], [0.5], x))

    def test_biquad(self):
        b, a = [0.2, 0.3, 0.1], [0.4, -0.25]
        rng = np.random.default_rng(0)
        x = rng.normal(size=32)
        node = from_difference_equation(b, a)
        np.testing.assert_allclose(node.reference_run(x, 32),
                                   iir_reference(b, a, x), atol=1e-12)

    def test_stability_check(self):
        assert from_difference_equation([1.0], [0.5]).is_stable()
        assert not from_difference_equation([1.0], [1.5]).is_stable()

    @settings(max_examples=40, deadline=None)
    @given(nb=st.integers(1, 4), na=st.integers(0, 3),
           seed=st.integers(0, 1000))
    def test_property_matches_reference(self, nb, na, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, size=nb).tolist()
        a = rng.uniform(-0.4, 0.4, size=na).tolist()  # keep it stable-ish
        x = rng.normal(size=24)
        node = from_difference_equation(b, a)
        np.testing.assert_allclose(node.reference_run(x, 24),
                                   iir_reference(b, a, x), atol=1e-9)


class TestStatefulComposition:
    def test_cascade_of_iirs(self):
        """(IIR1 ; IIR2) combined == running them in sequence."""
        n1 = from_difference_equation([1.0, 0.2], [0.3])
        n2 = from_difference_equation([0.5], [0.1, 0.05])
        combined = combine_pipeline_pair(n1, n2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        mid = n1.reference_run(x, 39)
        expected = n2.reference_run(mid, 39)
        got = combined.reference_run(x, 39)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_cascade_handles_rate_mismatch_via_expansion(self):
        """Rate-changing pairs now combine by expansion: an expander
        (1 -> 2) feeding an IIR composes into one (pop 1, push 2) node."""
        n1 = LinearNode.from_coefficients([[1.0], [2.0]], [0.5, 0.0], pop=1)
        n2 = from_difference_equation([1.0], [0.5])
        combined = combine_pipeline_pair(n1, n2)
        assert (combined.peek, combined.pop, combined.push) == (1, 1, 2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=32)
        mid = n1.reference_run(x, 32)
        np.testing.assert_allclose(combined.reference_run(x, 32),
                                   n2.reference_run(mid, 64), atol=1e-10)

    def test_cascade_downstream_lookahead(self):
        """Λ2 peeking ahead (e2 > o2) combines via recomputation firings
        of Λ1, without over-advancing Λ1's state."""
        n1 = from_difference_equation([1.0, 0.3], [0.4])
        n2 = LinearNode.from_coefficients([[1.0, -1.0, 0.5]], [0.0], pop=1)
        combined = combine_pipeline_pair(n1, n2)
        assert (combined.peek, combined.pop, combined.push) == (3, 1, 1)
        rng = np.random.default_rng(8)
        x = rng.normal(size=48)
        mid = n1.reference_run(x, 46)
        np.testing.assert_allclose(combined.reference_run(x, 30),
                                   n2.reference_run(mid, 30), atol=1e-10)

    def test_cascade_state_dim_concatenates(self):
        n1 = from_difference_equation([1.0, 0.1], [0.2])  # k=1
        n2 = from_difference_equation([1.0], [0.1, 0.2])  # k=2
        assert combine_pipeline_pair(n1, n2).state_dim == 3


class TestStatefulFilterRuntime:
    def test_filter_equivalence_with_simulation(self):
        node = from_difference_equation([0.3, 0.4], [0.25])
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=64)
        got = run_stream(LinearFilter(node), inputs.tolist(), 60)
        np.testing.assert_allclose(got, node.reference_run(inputs, 60),
                                   atol=1e-12)

    def test_replaces_feedbackloop_semantics(self):
        """A first-order recursive integrator built two ways: as a
        feedbackloop graph and as a stateful linear node."""
        g = FilterBuilder("LeakyAddDup", peek=2, pop=2, push=2)
        with g.work():
            t = g.local("t", g.pop_expr() + 0.5 * g.pop_expr())
            g.push(t)
            g.push(t)
        fwd = FilterBuilder("Fwd", peek=1, pop=1, push=1)
        with fwd.work():
            fwd.push(fwd.pop_expr())
        loop = FeedbackLoop(
            body=g.build(), loop=fwd.build(),
            joiner=RoundRobin((1, 1)), splitter=RoundRobin((1, 1)),
            enqueued=[0.0])
        node = from_difference_equation([1.0], [0.5])
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=50)
        via_graph = run_stream(loop, inputs.tolist(), 40)
        via_node = node.reference_run(inputs, 40)
        np.testing.assert_allclose(via_graph, via_node, atol=1e-10)

    def test_stateful_node_in_pipeline_with_stateless(self):
        iir = from_difference_equation([1.0], [0.3])
        fir = LinearNode.from_coefficients([[1.0, -1.0]], [0.0], pop=1)
        pipe = Pipeline([LinearFilter(iir), LinearFilter(fir)])
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=64)
        got = run_stream(pipe, inputs.tolist(), 50)
        mid = iir.reference_run(inputs, 63)
        expected = fir.reference_run(mid, 50)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("name, bad, want", [
        ("As", (1, 2), (1, 1)), ("Cx", (1, 1), (2, 1)),
        ("Cs", (2, 1), (1, 1)), ("bs", (2,), (1,)), ("s0", (1, 1), (1,))])
    def test_shape_validation(self, name, bad, want):
        """Only what the caller passed is checked (an array left out is
        built to shape), and a wrong one still says which and how."""
        state = dict(As=np.zeros((1, 1)), Cx=np.zeros((2, 1)),
                     Cs=np.zeros((1, 1)), bs=np.zeros(1), s0=np.zeros(1))
        state[name] = np.zeros(bad)
        with pytest.raises(ValueError) as exc:
            LinearNode(np.zeros((2, 1)), np.zeros(1), 2, 1, 1, **state)
        assert str(exc.value) == f"{name} has shape {bad}, expected {want}"
        del state[name]
        if name != "s0":  # s0 is what gives k
            node = LinearNode(np.zeros((2, 1)), np.zeros(1), 2, 1, 1,
                              **state)
            assert getattr(node, name).shape == want
            assert not getattr(node, name).any()
