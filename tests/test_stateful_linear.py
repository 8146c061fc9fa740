"""State-space linear analysis (§7.1): extraction, batching, parity.

The acceptance bar mirrors the stateless engine's: a stateful-linear
filter must produce identical values (to 1e-9) and identical FLOP
profiles under ``interp``, ``compiled``, and ``plan``, whether it runs
as the written IR, as an auto-extracted lifted kernel, or as a collapsed
:class:`~repro.linear.filters.LinearFilter` whose node carries state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.exec import RingBuffer, plan_report
from repro.graph import (Duplicate, Pipeline, RoundRobin, SplitJoin,
                         steady_state)
from repro.graph.identity import content_id
from repro.ir import FilterBuilder
from repro.linear import (LinearFilter, LinearNode, combine_pipeline_pair,
                          expand_firings, extract_filter)
from repro.linear.matmul import direct_cost_counts
from repro.linear.state import boundary_lift, from_difference_equation
from repro.profiling import CATEGORIES, Profiler
from repro.runtime import Channel, run_stream
from repro.selection import select_optimizations
from test_expansion import random_node

BACKENDS = ("interp", "compiled", "plan")


def biquad(b0, b1, b2, a1, a2, name="Biquad"):
    """Direct-form II transposed second-order section as IR."""
    f = FilterBuilder(name, peek=1, pop=1, push=1)
    cb0 = f.const("b0", b0)
    cb1 = f.const("b1", b1)
    cb2 = f.const("b2", b2)
    ca1 = f.const("a1", a1)
    ca2 = f.const("a2", a2)
    s1 = f.state("s1", 0.0)
    s2 = f.state("s2", 0.0)
    with f.work():
        x = f.local("x", f.pop_expr())
        y = f.local("y", cb0 * x + s1)
        f.assign(s1, cb1 * x + ca1 * y + s2)
        f.assign(s2, cb2 * x + ca2 * y)
        f.push(y)
    return f.build()


def assert_backends_agree(stream_builder, inputs, n_outputs,
                          check_flops=True):
    """Differential harness: interp vs compiled vs plan to 1e-9."""
    results, profilers = {}, {}
    for backend in BACKENDS:
        p = Profiler()
        results[backend] = run_stream(stream_builder(), list(inputs),
                                      n_outputs, p, backend=backend)
        profilers[backend] = p
    for backend in ("compiled", "plan"):
        np.testing.assert_allclose(results[backend], results["interp"],
                                   atol=1e-9, rtol=1e-9,
                                   err_msg=backend)
        if check_flops:
            for cat in CATEGORIES:
                assert getattr(profilers[backend].counts, cat) == \
                    getattr(profilers["interp"].counts, cat), \
                    f"{backend}: {cat} differs"
    return results["interp"]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


class TestStatefulExtraction:
    def test_biquad_extracts_to_difference_equation_node(self):
        b, a = [0.2, 0.3, 0.1], [0.4, -0.25]
        res = extract_filter(biquad(*b, *a))
        assert res.is_linear and res.node.state_dim == 2
        rng = np.random.default_rng(0)
        x = rng.normal(size=48)
        np.testing.assert_allclose(
            res.node.reference_run(x, 48),
            from_difference_equation(b, a).reference_run(x, 48), atol=1e-12)

    def test_state_array_fields_extract(self):
        g = FilterBuilder("DelayMix", peek=1, pop=1, push=1)
        d = g.state_array("d", [0.0, 0.0])
        with g.work():
            x = g.local("x", g.pop_expr())
            g.push(x + 0.5 * d[1])
            g.assign(d[1], d[0])
            g.assign(d[0], x)
        res = extract_filter(g.build())
        assert res.is_linear and res.node.state_dim == 2
        np.testing.assert_allclose(res.node.Cs, [[0, 1], [0, 0]])

    def test_nonlinear_state_update_refused(self):
        f = FilterBuilder("NL", peek=1, pop=1, push=1)
        s = f.state("s", 1.0)
        with f.work():
            x = f.local("x", f.pop_expr())
            f.push(x + s)
            f.assign(s, s * x)
        res = extract_filter(f.build())
        assert not res.is_linear and "not an affine" in res.reason

    def test_nonzero_initial_state_becomes_s0(self):
        f = FilterBuilder("Leaky", peek=1, pop=1, push=1)
        s = f.state("acc", 3.5)
        with f.work():
            f.assign(s, 0.5 * s + f.pop_expr())
            f.push(s)
        res = extract_filter(f.build())
        assert res.is_linear
        np.testing.assert_allclose(res.node.s0, [3.5])

    def test_stateless_filter_embeds_with_empty_state(self):
        f = FilterBuilder("Gain", peek=1, pop=1, push=1)
        with f.work():
            f.push(2.0 * f.pop_expr())
        res = extract_filter(f.build())
        assert res.is_linear and res.node.state_dim == 0


class TestPreworkGate:
    """Satellite fix: pure peek-prologue prework no longer blocks
    extraction; only prework that mutates fields (or shifts rates) does,
    with an accurate reason either way."""

    def _peek_prologue_filter(self):
        f = FilterBuilder("Peeky", peek=3, pop=1, push=1)
        h = f.const_array("h", [1.0, -1.0, 0.5])
        with f.prework(peek=3, pop=0, push=0):
            pass
        with f.work():
            s = f.local("s", 0.0)
            with f.loop("i", 0, 3) as i:
                f.assign(s, s + h[i] * f.peek(i))
            f.push(s)
            f.pop()
        return f.build()

    def test_pure_peek_prologue_extracts(self):
        res = extract_filter(self._peek_prologue_filter())
        assert res.is_linear
        assert res.node.peek == 3 and res.node.pop == 1

    def test_mutating_prework_refused_with_reason(self):
        f = FilterBuilder("MutPre", peek=1, pop=1, push=1)
        g = f.state("gain", 1.0)
        with f.prework(peek=1, pop=0, push=0):
            f.assign(g, 2.0)
        with f.work():
            f.push(g * f.pop_expr())
        res = extract_filter(f.build())
        assert not res.is_linear
        assert "prework mutates state fields: gain" in res.reason

    def test_rate_shifting_prework_refused_with_reason(self):
        f = FilterBuilder("Delay", peek=1, pop=1, push=1)
        with f.prework(peek=0, pop=0, push=1):
            f.push(0.0)
        with f.work():
            f.push(f.pop_expr())
        res = extract_filter(f.build())
        assert not res.is_linear
        assert "prework pops or pushes" in res.reason


# ---------------------------------------------------------------------------
# Exact FLOP accounting (satellite fix)
# ---------------------------------------------------------------------------


class TestStatefulCounts:
    def test_fadd_no_longer_mirrors_fmul(self):
        """Regression vs the old ``fadd = fmul`` shortcut: a 4-term row
        with a bias needs 4 adds for 4 muls; a 1-term row needs none."""
        filt = self._dense_form_filter()
        c = direct_cost_counts(extract_filter(filt).node)
        # y: 4 terms + bias -> 4 muls, 4 adds; s1': 2 terms -> 2 muls,
        # 1 add; s2': 1 term -> 1 mul, 0 adds
        assert (c.fmul, c.fadd) == (7, 5)

    def test_counts_match_interp_ground_truth(self):
        """The primitive's claimed counts equal the interp profile of an
        IR filter written in the same dense form — the convention
        :func:`~repro.linear.matmul.direct_cost_counts` uses for
        stateless leaves (one mul per nonzero term, one add per term
        beyond the first, one add per nonzero bias)."""
        filt = self._dense_form_filter()
        node = extract_filter(filt).node
        p_ir, p_leaf = Profiler(), Profiler()
        run_stream(filt, [1.0] * 20, 16, p_ir, backend="interp")
        run_stream(LinearFilter(node), [1.0] * 20, 16, p_leaf,
                   backend="interp")
        assert p_ir.counts.fmul == p_leaf.counts.fmul
        assert p_ir.counts.fadd == p_leaf.counts.fadd
        c = direct_cost_counts(node)
        assert p_leaf.counts.fmul == 16 * c.fmul
        assert p_leaf.counts.fadd == 16 * c.fadd

    @staticmethod
    def _dense_form_filter():
        """States written directly in state-space (dense) form, with
        non-unit coefficients so no terms fold away on extraction."""
        f = FilterBuilder("Dense", peek=2, pop=1, push=1)
        s1 = f.state("s1", 0.1)
        s2 = f.state("s2", 0.2)
        with f.work():
            f.push(0.5 * f.peek(0) + 0.25 * f.peek(1)
                   + 2.0 * s1 + 3.0 * s2 + 1.5)
            t = f.local("t", 0.3 * f.peek(0) + 0.7 * s2)
            f.assign(s2, 0.9 * s1)
            f.assign(s1, t)
            f.pop()
        return f.build()


# ---------------------------------------------------------------------------
# Differential: randomized stateful-linear bodies across all backends
# ---------------------------------------------------------------------------


def random_stateful_primitive(rng, k, e, u):
    """A random (stable-ish) node with ``k`` state variables as a
    runtime leaf."""
    return LinearFilter(random_node(rng, k, e, e, u),
                        name=f"Rand[{k},{e},{u}]")


class TestDifferentialRandomized:
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(0, 4), e=st.integers(1, 3), u=st.integers(1, 3),
           seed=st.integers(0, 10_000))
    def test_random_matrix_shapes(self, k, e, u, seed):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=600).tolist()
        n = 500 // max(1, (600 // (e * 120))) if e > 1 else 120
        n = min(120, (600 - e) // e * u)
        assert_backends_agree(
            lambda: random_stateful_primitive(
                np.random.default_rng(seed), k, e, u),
            inputs, max(4, n))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), chain=st.integers(1, 3))
    def test_random_biquad_chains(self, seed, chain):
        rng = np.random.default_rng(seed)
        sections = [
            (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
             rng.uniform(-0.4, 0.4), rng.uniform(-0.25, 0.25))
            for _ in range(chain)]

        def build():
            return Pipeline([biquad(*s, name=f"B{i}")
                             for i, s in enumerate(sections)])

        inputs = np.random.default_rng(seed + 1).normal(size=400).tolist()
        assert_backends_agree(build, inputs, 300)

    def test_stateful_inside_splitjoin(self):
        def build():
            return SplitJoin(
                Duplicate(),
                [biquad(0.2, 0.3, 0.1, 0.4, -0.25, "Wet"),
                 LinearFilter(LinearNode.from_coefficients(
                     [[0.7]], [0.0], pop=1), name="Dry")],
                RoundRobin((1, 1)), name="WetDry")

        rng = np.random.default_rng(5)
        assert_backends_agree(build, rng.normal(size=300).tolist(), 400)

    def test_stateful_inside_feedback_island(self):
        """A stateful-linear loop body runs through its lifted kernel
        inside the feedback island, value-identical to interp."""
        from repro.graph import FeedbackLoop

        def build():
            g = FilterBuilder("LeakyAddDup", peek=2, pop=2, push=2)
            s = g.state("acc", 0.0)
            with g.work():
                t = g.local("t", g.pop_expr() + 0.5 * g.pop_expr()
                            + 0.1 * s)
                g.assign(s, 0.5 * t)
                g.push(t)
                g.push(t)
            f = FilterBuilder("Fwd", peek=1, pop=1, push=1)
            with f.work():
                f.push(f.pop_expr())
            return FeedbackLoop(body=g.build(), loop=f.build(),
                                joiner=RoundRobin((1, 1)),
                                splitter=RoundRobin((1, 1)),
                                enqueued=[0.0] * 8)

        rng = np.random.default_rng(11)
        ins = rng.normal(size=300).tolist()
        ri = run_stream(build(), ins, 250, backend="interp")
        rp = run_stream(build(), ins, 250, backend="plan")
        np.testing.assert_allclose(rp, ri, atol=1e-9)
        from repro.runtime import Collector, ListSource
        rep = plan_report(Pipeline([ListSource(ins), build(), Collector()]))
        kinds = {s.name: s.step_kind
                 for isl in rep.islands for s in isl.steps}
        assert kinds["LeakyAddDup"] == "stateful"

    def test_stateful_chain_collapses_under_optimize(self):
        """optimize="linear" collapses the cascade into ONE stateful
        leaf; values still match the unoptimized run."""
        sections = [(0.2, 0.3, 0.1, 0.4, -0.25),
                    (0.5, -0.2, 0.05, 0.3, -0.1)]

        def build():
            return Pipeline([biquad(*s, name=f"B{i}")
                             for i, s in enumerate(sections)])

        rng = np.random.default_rng(6)
        inputs = rng.normal(size=400).tolist()
        base = run_stream(build(), inputs, 300)
        for backend in BACKENDS:
            got = run_stream(build(), inputs, 300, backend=backend,
                             optimize="linear")
            np.testing.assert_allclose(got, base, atol=1e-9, rtol=1e-9)
        from repro.linear import maximal_linear_replacement
        collapsed = maximal_linear_replacement(build(), stateful=True)
        assert isinstance(collapsed, LinearFilter)
        assert collapsed.linear_node.state_dim == 4
        # the paper's configuration (stateful=False) leaves the cascade
        assert isinstance(maximal_linear_replacement(build()), Pipeline)

    def test_selection_dp_prices_stateful_leaves(self):
        pipe = Pipeline([biquad(0.2, 0.3, 0.1, 0.4, -0.25, "B0"),
                         biquad(0.5, -0.2, 0.05, 0.3, -0.1, "B1")])
        for model in ("thesis", "batched"):
            result = select_optimizations(pipe, cost_model=model,
                                          stateful=True)
            assert result.cost > 0  # stateful leaves are no longer free
            rng = np.random.default_rng(7)
            inputs = rng.normal(size=200).tolist()
            np.testing.assert_allclose(
                run_stream(result.stream, inputs, 150),
                run_stream(pipe, inputs, 150), atol=1e-9, rtol=1e-9)

    def test_selection_dp_default_keeps_thesis_semantics(self):
        """The paper's autosel configuration (stateful=False default)
        leaves stateful filters untouched, like the thesis."""
        pipe = Pipeline([biquad(0.2, 0.3, 0.1, 0.4, -0.25, "B0")])
        result = select_optimizations(pipe)
        assert not isinstance(result.stream, LinearFilter)
        assert result.cost == 0.0  # non-linear leaves are free under NONE


# ---------------------------------------------------------------------------
# The lifted kernel under plan-backend mechanics
# ---------------------------------------------------------------------------


class TestStatefulPlanMechanics:
    def test_chunked_runs_preserve_state(self, monkeypatch):
        """Chunk flushes smaller than the lift block and repeated
        executes must thread the state carry exactly."""
        from repro.exec import compiled_plan_for, planner
        from repro.runtime import Collector, ListSource

        rng = np.random.default_rng(8)
        inputs = rng.normal(size=600).tolist()
        prog = Pipeline([ListSource(inputs),
                         biquad(0.2, 0.3, 0.1, 0.4, -0.25),
                         Collector()])
        expected = run_stream(biquad(0.2, 0.3, 0.1, 0.4, -0.25),
                              inputs, 500, backend="interp")
        monkeypatch.setattr(planner, "DEFAULT_CHUNK_OUTPUTS", 16)
        ex = compiled_plan_for(prog, Profiler(), cache=False)[0]
        np.testing.assert_allclose(ex.advance(500), expected, atol=1e-9)

    def test_plan_report_names_stateful_steps(self):
        from repro.runtime import Collector, ListSource

        prog = Pipeline([ListSource([0.0] * 64),
                         biquad(0.2, 0.3, 0.1, 0.4, -0.25),
                         Collector()])
        rep = plan_report(prog)
        kinds = {s.name: s.step_kind for s in rep.steps}
        assert kinds["Biquad"] == "stateful"
        assert not rep.fallbacks

    def test_stateful_leaf_fingerprints_by_content(self):
        node = extract_filter(
            biquad(0.2, 0.3, 0.1, 0.4, -0.25)).node
        f1 = content_id(LinearFilter(node, name="S"))
        f2 = content_id(LinearFilter(node, name="S"))
        assert f1 == f2
        other = extract_filter(
            biquad(0.21, 0.3, 0.1, 0.4, -0.25)).node
        assert content_id(
            LinearFilter(other, name="S")) != f1

    def test_combination_respects_rate_changes(self):
        up = from_difference_equation([1.0, 0.2], [0.3])
        down = extract_filter(self._decimating_mixer()).node
        combined = combine_pipeline_pair(up, down)
        rng = np.random.default_rng(10)
        x = rng.normal(size=120)
        mid = up.reference_run(x, 100)
        np.testing.assert_allclose(combined.reference_run(x, 50),
                                   down.reference_run(mid, 50), atol=1e-9)

    @staticmethod
    def _decimating_mixer():
        f = FilterBuilder("Mix2", peek=2, pop=2, push=1)
        s = f.state("s", 0.0)
        with f.work():
            a = f.local("a", f.pop_expr())
            b = f.local("b", f.pop_expr())
            f.push(a + 0.5 * b + s)
            f.assign(s, 0.25 * a)
        return f.build()


# ---------------------------------------------------------------------------
# The scan-free kernel against the reference simulator
# ---------------------------------------------------------------------------


def kernel_step(node, policy=None, profiler=None):
    """A :class:`StatefulLinearStep` over private rings."""
    from repro.exec.kernels import StatefulLinearStep
    from repro.numeric import DEFAULT_POLICY

    policy = policy or DEFAULT_POLICY
    return StatefulLinearStep(
        RingBuffer("in", dtype=policy.dtype),
        RingBuffer("out", dtype=policy.dtype),
        StatefulLinearStep.operator(
            node, [(direct_cost_counts(node), None)], policy),
        profiler or Profiler())


def fire(step, x, n) -> np.ndarray:
    """Feed ``x``, execute ``n`` firings, drain what they pushed."""
    step.ring_in.push_array(x)
    step.execute(n)
    out = step.ring_out.pop_block_array(len(step.ring_out))
    step.ring_in.pop_block(len(step.ring_in))  # the peek-ahead residue
    return out


def reference(node, x, n) -> np.ndarray:
    """``node.reference_run`` — which is real-valued — on inputs of any
    dtype: the node is affine, so a complex stream is its real part's output
    plus ``i`` times the imaginary part's with the offsets taken out."""
    if not np.iscomplexobj(x):
        return node.reference_run(x, n)
    zero = node.reference_run(np.zeros(len(x)), n)
    return node.reference_run(x.real, n) + 1j * (
        node.reference_run(x.imag, n) - zero)


class TestScanFreeKernel:
    RATES = [(1, 1, 1), (3, 2, 3), (4, 1, 2)]  # (peek, pop, push)

    @pytest.mark.parametrize("dtype", ["f64", "f32", "c128"])
    @pytest.mark.parametrize("rates", RATES)
    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    def test_matches_simulate_around_block_and_group_edges(self, k, rates,
                                                           dtype):
        from repro.numeric import POLICIES

        policy = POLICIES[dtype]
        e, o, u = rates
        rng = np.random.default_rng(1000 * k + 10 * e + u)
        node = random_node(rng, k, e, o, u)
        profiler = Profiler()
        step = kernel_step(node, policy, profiler)
        B, G = step.block, step.group
        per_firing = policy.adjust_counts(direct_cost_counts(node))
        for n in (1, B - 1, B, B + 1, B * G - 1, B * G + 3, 3 * B * G + 5):
            x = rng.normal(size=(n - 1) * o + e)
            if policy.is_complex:
                x = x + 1j * rng.normal(size=len(x))
            x = x.astype(policy.dtype)
            step.set_state([np.asarray(node.s0, dtype=policy.dtype)])
            before = profiler.counts.copy()
            got = fire(step, x, n)
            np.testing.assert_allclose(
                got, reference(node, x, n), rtol=policy.rtol,
                atol=policy.atol, err_msg=f"n={n}")
            assert profiler.counts - before == per_firing.scaled(n)
        assert len(step.lifts) <= 2

    def test_lift_cache_is_bounded_whatever_sizes_are_called(self):
        """Every remainder used to get a lift of its own, kept forever
        (120 of them per step after 300 pushes of 1-700 samples); the
        operator holds the two its block lengths need, from the start."""
        rng = np.random.default_rng(3)
        node = from_difference_equation([0.2, 0.3, 0.1], [0.4, -0.25])
        step = kernel_step(node)
        sizes = rng.integers(1, 701, size=300).tolist()
        x = rng.normal(size=sum(sizes))
        got = np.concatenate([fire(step, x[a - n:a], n)
                              for n, a in zip(sizes, np.cumsum(sizes))])
        assert sorted(step.lifts) == [1, step.block]
        np.testing.assert_allclose(got, node.reference_run(x, len(x)),
                                   rtol=1e-9, atol=1e-12)

    def test_no_python_pass_per_block(self):
        """Up to ``B·G`` firings are one pass: 64 blocks cost the calls
        one block costs (give or take the rings' housekeeping), where a
        pass per block would add several for each of the other 63."""
        import cProfile
        import pstats

        node = from_difference_equation([0.2, 0.3, 0.1], [0.4, -0.25])
        step = kernel_step(node)
        assert step.block * step.group >= 4096
        x = np.random.default_rng(4).normal(size=4096)
        fire(step, x, 4096)  # grows the rings

        def calls(n):
            prof = cProfile.Profile()
            step.ring_in.push_array(x[:n])
            prof.runcall(step.execute, n)
            return pstats.Stats(prof).total_calls

        assert abs(calls(4096) - calls(step.block)) <= 4

    def test_state_continues_bit_identically(self):
        """What the parallel engine does between dispatches: the state
        leaves one step object and enters a fresh one mid-stream."""
        rng = np.random.default_rng(5)
        node = random_node(rng, 2, 3, 2, 1)
        x = rng.normal(size=2 * 1000 + 1)
        whole = kernel_step(node)
        first = fire(whole, x[:2 * 333 + 1], 333)
        fresh = kernel_step(node)
        fresh.set_state(whole.state())
        tail = x[2 * 333:]
        assert np.array_equal(fire(fresh, tail, 667), fire(whole, tail, 667))
        np.testing.assert_allclose(
            np.concatenate([first, fire(kernel_step(node), x, 1000)[333:]]),
            node.reference_run(x, 1000), rtol=1e-9, atol=1e-12)

    def test_unstable_node_stays_finite(self):
        """``Cs = 2``: the states are finite for 64 firings, and stay 0
        for ever on a silent input — but ``Cs^(B·g)`` overflows within
        one group, and ``inf·0`` must not reach the outputs."""
        node = LinearNode([[0.5]], [0.25], 1, 1, 1, As=[[1.0]], Cx=[[1.0]],
                          Cs=[[2.0]], s0=[0.0])
        x = np.random.default_rng(6).normal(size=64)
        got = fire(kernel_step(node), x, 64)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, node.reference_run(x, 64), rtol=1e-9)
        silent = fire(kernel_step(node), np.zeros(5000), 5000)
        assert np.array_equal(silent, np.full(5000, 0.25))
        T, P = boundary_lift(np.array([[2.0 ** 64]]), 128)
        assert np.isfinite(T).all() and np.isfinite(P).all()
        assert T.shape == (8, 9) and P[0, -1] == 2.0 ** 512

    def test_pure_accumulator_over_many_groups(self):
        node = LinearNode([[0.0]], [0.0], 1, 1, 1, As=[[1.0]], Cx=[[1.0]],
                          Cs=[[1.0]], s0=[0.0])
        x = np.random.default_rng(7).normal(size=100_000)
        got = fire(kernel_step(node), x, len(x))
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, node.reference_run(x, len(x)),
                                   rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3])
    def test_boundary_lift_is_expand_of_the_boundary_node(self, k):
        """``s' = d + s·C`` with the entry state as output, written as a
        LinearNode (the reversal matrices are the x- and y-conventions)
        and lifted by the general routine."""
        rng = np.random.default_rng(k)
        C = rng.uniform(-0.6, 0.6, size=(k, k))
        s0 = rng.normal(size=k)
        flip = np.eye(k)[::-1]
        node = LinearNode(np.zeros((k, k)), np.zeros(k), k, k, k, As=flip,
                          Cx=flip, Cs=C, s0=s0)
        G = 5
        lifted = expand_firings(node, G)
        d = rng.normal(size=G * k)
        T, P = boundary_lift(C, G)
        states = d @ T + s0 @ P
        np.testing.assert_allclose(states[:G * k], lifted.reference_run(d, 1),
                                   atol=1e-12)
        np.testing.assert_allclose(
            states[G * k:], d[::-1] @ lifted.Cx + s0 @ lifted.Cs, atol=1e-12)


# ---------------------------------------------------------------------------
# IIR app acceptance
# ---------------------------------------------------------------------------


class TestIIRApp:
    def test_no_fallback_for_cascade_stages(self):
        from repro.apps import iir

        rep = plan_report(iir.build())
        stage_kinds = {s.name: s.step_kind for s in rep.steps
                       if s.name.startswith(("Biquad", "DCBlocker"))}
        assert stage_kinds and set(stage_kinds.values()) == {"stateful"}

    def test_app_differential_all_optimize_modes(self):
        from repro.apps import iir
        from repro.runtime import run_graph

        base = run_graph(iir.build(), 200, backend="interp")
        for backend in BACKENDS:
            for mode in ("none", "linear", "auto"):
                got = run_graph(iir.build(), 200, backend=backend,
                                optimize=mode)
                np.testing.assert_allclose(got, base, atol=1e-9, rtol=1e-9,
                                           err_msg=f"{backend}/{mode}")


# ---------------------------------------------------------------------------
# Scheduler regression (zero-weight splitjoin truncation)
# ---------------------------------------------------------------------------


def test_zero_weight_splitjoin_steady_state_is_integral():
    """Regression: a zero-weight roundrobin branch solved first used to
    zero out every fractional multiplicity (pop=0, Expander mult 0)."""
    def expander(k):
        f = FilterBuilder("Expander", peek=1, pop=1, push=k)
        with f.work():
            x = f.local("x", f.pop_expr())
            for _ in range(k):
                f.push(x)
        return f.build()

    def fir4():
        f = FilterBuilder("fir", peek=4, pop=1, push=1)
        with f.work():
            s = f.local("s", 0.0)
            for i in range(4):
                f.assign(s, s + f.peek(i))
            f.push(s)
            f.pop()
        return f.build()

    sj = SplitJoin(RoundRobin((0, 1)), [fir4(), expander(2)],
                   RoundRobin((0, 1)))
    ss = steady_state(sj)
    assert ss.pop == 1 and ss.push == 2
    assert ss.multiplicity(sj.children[1]) == 1  # the Expander fires
    assert ss.multiplicity(sj.children[0]) == 0  # dead branch stays dead
    assert all(isinstance(m, int) for m in ss.mult.values())


# ---------------------------------------------------------------------------
# RingBuffer scalar error parity with Channel (satellite)
# ---------------------------------------------------------------------------


class TestRingChannelErrorParity:
    """The compiled fallback runners execute over rings; scalar tape
    errors must match Channel's exactly (type and trigger condition)."""

    @pytest.mark.parametrize("make", [Channel, RingBuffer])
    def test_pop_from_empty_raises(self, make):
        ch = make("t")
        with pytest.raises(InterpError, match="pop from empty channel"):
            ch.pop()

    @pytest.mark.parametrize("make", [Channel, RingBuffer])
    def test_peek_bounds(self, make):
        ch = make("t")
        ch.push(1.0)
        ch.push(2.0)
        assert ch.peek(1) == 2.0
        with pytest.raises(InterpError, match="peek"):
            ch.peek(2)
        with pytest.raises(InterpError, match="peek"):
            ch.peek(-1)

    @pytest.mark.parametrize("make", [Channel, RingBuffer])
    def test_peek_after_pops_tracks_head(self, make):
        ch = make("t")
        for v in (1.0, 2.0, 3.0):
            ch.push(v)
        assert ch.pop() == 1.0
        assert ch.peek(0) == 2.0
        with pytest.raises(InterpError):
            ch.peek(2)

    @pytest.mark.parametrize("make", [Channel, RingBuffer])
    def test_block_ops_raise_identically(self, make):
        ch = make("t")
        ch.push_block([1.0, 2.0])
        with pytest.raises(InterpError, match="peek_block"):
            ch.peek_block(3)
        with pytest.raises(InterpError, match="pop_block"):
            ch.pop_block(3)
        with pytest.raises(InterpError, match="pop_block_array"):
            ch.pop_block_array(3)
