"""Linear extraction analysis tests (thesis §3.2, Algorithms 1-2)."""

import time

import numpy as np
import pytest

from repro.ir import FilterBuilder, call
from repro.linear import analyze, extract_filter


def build_example_filter():
    """The thesis' Figure 3-1 ExampleFilter."""
    f = FilterBuilder("ExampleFilter", peek=3, pop=1, push=2)
    with f.work():
        f.push(3 * f.peek(2) + 5 * f.peek(1))
        f.push(2 * f.peek(2) + f.peek(0) + 6)
        f.pop()
    return f.build()


def test_figure_3_1_extraction():
    result = extract_filter(build_example_filter())
    assert result.is_linear
    node = result.node
    assert (node.peek, node.pop, node.push) == (3, 1, 2)
    assert node.coefficient(0, 2) == 3.0
    assert node.coefficient(0, 1) == 5.0
    assert node.coefficient(1, 2) == 2.0
    assert node.coefficient(1, 0) == 1.0
    assert node.offset(1) == 6.0
    assert node.offset(0) == 0.0


def test_fir_filter_extraction():
    """Loop-based FIR: coefficients land in the right positions."""
    coeffs = [0.5, -1.5, 2.0, 0.25]
    f = FilterBuilder("FIR", peek=4, pop=1, push=1)
    h = f.const_array("h", coeffs)
    with f.work():
        s = f.local("sum", 0.0)
        with f.loop("i", 0, 4) as i:
            f.assign(s, s + h[i] * f.peek(i))
        f.push(s)
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    node = result.node
    for i, c in enumerate(coeffs):
        assert node.coefficient(0, i) == pytest.approx(c)


def test_pop_as_expression():
    f = FilterBuilder("Doubler", peek=1, pop=1, push=1)
    with f.work():
        f.push(2 * f.pop_expr())
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.coefficient(0, 0) == 2.0


def test_peek_after_pop_shifts_index():
    """After a pop, peek(i) refers to original index popcount + i."""
    f = FilterBuilder("Shifty", peek=3, pop=2, push=1)
    with f.work():
        f.pop()
        f.push(f.peek(1))  # original peek(2)
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.coefficient(0, 2) == 1.0
    assert result.node.coefficient(0, 1) == 0.0


def test_compressor_is_linear():
    """Compressor(M): push first of M, discard rest (Figure A-4)."""
    m = 4
    f = FilterBuilder("Compressor", peek=m, pop=m, push=1)
    with f.work():
        f.push(f.pop_expr())
        with f.loop("i", 0, m - 1):
            f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    node = result.node
    assert node.coefficient(0, 0) == 1.0
    assert node.nnz == 1


def test_expander_is_linear():
    """Expander(L): push the input then L-1 zeros (Figure A-5)."""
    f = FilterBuilder("Expander", peek=1, pop=1, push=3)
    with f.work():
        f.push(f.pop_expr())
        with f.loop("i", 0, 2):
            f.push(0.0)
    result = extract_filter(f.build())
    assert result.is_linear
    node = result.node
    assert node.coefficient(0, 0) == 1.0
    assert node.coefficient(1, 0) == 0.0
    assert node.coefficient(2, 0) == 0.0


def test_product_of_inputs_is_nonlinear():
    f = FilterBuilder("Squarer", peek=1, pop=1, push=1)
    with f.work():
        x = f.local("x", f.pop_expr())
        f.push(x * x)
    result = extract_filter(f.build())
    assert not result.is_linear
    assert "affine" in result.reason


def test_data_dependent_branch_is_nonlinear():
    """ThresholdDetector-style filter: branch on input taints the push."""
    f = FilterBuilder("Thresh", peek=1, pop=1, push=1)
    with f.work():
        t = f.local("t", f.pop_expr())
        cond = f.if_(t > 0.5)
        with cond:
            f.assign(t, 1.0)
        with cond.otherwise():
            f.assign(t, 0.0)
        f.push(t)
    result = extract_filter(f.build())
    assert not result.is_linear


def test_branches_agreeing_stay_linear():
    """Both branches assign the same linear form: join succeeds."""
    f = FilterBuilder("Agree", peek=2, pop=1, push=1)
    g = f.const("g", 3.0)
    with f.work():
        t = f.local("t", 0.0)
        cond = f.if_(g > 1.0)  # constant condition, known side taken
        with cond:
            f.assign(t, f.peek(0) * 2.0)
        with cond.otherwise():
            f.assign(t, f.peek(1))
        f.push(t)
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.coefficient(0, 0) == 2.0


def test_branch_on_input_with_divergent_pushes_fails():
    f = FilterBuilder("Diverge", peek=2, pop=1, push=1)
    with f.work():
        cond = f.if_(f.peek(0) > 0.0)
        with cond:
            f.push(f.peek(1))
        with cond.otherwise():
            f.push(2 * f.peek(1))
        f.pop()
    result = extract_filter(f.build())
    assert not result.is_linear


def test_mutable_state_is_a_state_slot():
    """Fields written in work are persistent state: the thesis' ⊤ is one
    symbolic slot per scalar, so an accumulator is linear *with state* —
    and still not linear in the thesis' sense."""
    f = FilterBuilder("Accumulator", peek=1, pop=1, push=1)
    acc = f.state("acc", 0.0)
    with f.work():
        f.assign(acc, acc + f.pop_expr())
        f.push(acc)
    filt = f.build()
    result = extract_filter(filt)
    assert result.is_linear and result.node.state_dim == 1
    lmap = analyze(filt)
    assert lmap.is_stateful_linear(filt) and not lmap.is_linear(filt)
    assert lmap.view(stateful=False).node_for(filt) is None


def dead_state_filter(affine: bool):
    """``push(2*peek(0)); n = <update>; pop()`` — no push reads ``n``."""
    f = FilterBuilder("Dead", peek=1, pop=1, push=1)
    n = f.state("n", 0.0)
    with f.work():
        f.push(2.0 * f.peek(0))
        f.assign(n, n + 1.0 if affine else f.peek(0) * f.peek(0))
        f.pop()
    return f.build()


@pytest.mark.parametrize("affine", [True, False])
def test_unobservable_state_is_dropped_whatever_its_update(affine):
    """A slot is kept iff it is observable: dead state, affine or not,
    leaves the thesis' stateless node."""
    result = extract_filter(dead_state_filter(affine))
    assert result.is_linear and result.node.state_dim == 0
    np.testing.assert_array_equal(result.node.A, [[2.0]])


def test_slot_observable_only_through_another_slot_is_kept():
    """``b`` reaches no push directly (its ``As`` row is zero) but feeds
    ``a``, which does (its ``Cs`` row is not): both are kept; ``c``
    feeds nothing and goes."""
    f = FilterBuilder("Chain", peek=1, pop=1, push=1)
    a, b, c = f.state("a", 0.5), f.state("b", 0.25), f.state("c", 0.0)
    with f.work():
        x = f.local("x", f.pop_expr())
        f.push(x + a)
        f.assign(a, 0.5 * b)
        f.assign(b, x)
        f.assign(c, c + x * x)
    filt = f.build()
    node = extract_filter(filt).node
    assert node.state_dim == 2
    np.testing.assert_array_equal(node.As, [[1.0], [0.0]])
    np.testing.assert_array_equal(node.Cs, [[0.0, 0.0], [0.5, 0.0]])
    np.testing.assert_array_equal(node.s0, [0.5, 0.25])
    from repro.runtime import run_stream

    x = np.random.default_rng(3).normal(size=24)
    np.testing.assert_allclose(run_stream(filt, x.tolist(), 24),
                               node.reference_run(x, 24), atol=1e-12)


def test_observable_state_with_a_nonaffine_update_names_the_field():
    """``push(acc + x); acc = x*x``: the push *is* affine in input and
    state — what rejects the filter is the update, and the one reason
    says so wherever it is read."""
    from repro.exec import plan_report
    from repro.graph import Pipeline
    from repro.runtime import Collector, ListSource

    f = FilterBuilder("SquareLag", peek=1, pop=1, push=1)
    acc = f.state("acc", 0.0)
    with f.work():
        x = f.local("x", f.pop_expr())
        f.push(acc + x)
        f.assign(acc, x * x)
    filt = f.build()
    reason = extract_filter(filt).reason
    assert reason == ("state field 'acc' update is not an affine function "
                      "of the input and state")
    assert analyze(filt).reason_for(filt) == reason
    rep = plan_report(Pipeline([ListSource([0.0] * 8), filt, Collector()]))
    row = next(s for s in rep.steps if s.name == "SquareLag")
    assert row.step_kind != "stateful" and reason in row.reason


def test_constant_folding_through_intrinsics():
    f = FilterBuilder("Scaled", peek=1, pop=1, push=1)
    with f.work():
        f.push(call("cos", 0.0) * f.peek(0))
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.coefficient(0, 0) == pytest.approx(1.0)


def test_intrinsic_of_input_is_nonlinear():
    f = FilterBuilder("Sine", peek=1, pop=1, push=1)
    with f.work():
        f.push(call("sin", f.pop_expr()))
    assert not extract_filter(f.build()).is_linear


def test_division_by_constant_is_linear():
    f = FilterBuilder("Halver", peek=1, pop=1, push=1)
    with f.work():
        f.push(f.pop_expr() / 2.0)
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.coefficient(0, 0) == pytest.approx(0.5)


def test_division_by_input_is_nonlinear():
    f = FilterBuilder("Div", peek=2, pop=1, push=1)
    with f.work():
        f.push(f.peek(0) / f.peek(1))
        f.pop()
    assert not extract_filter(f.build()).is_linear


def test_local_array_accumulation():
    """Linear forms flow through local arrays with constant indices."""
    f = FilterBuilder("ArrayFlow", peek=2, pop=1, push=1)
    with f.work():
        arr = f.local_array("tmp", 2)
        f.assign(arr[0], f.peek(0) * 2.0)
        f.assign(arr[1], f.peek(1) - 1.0)
        f.push(arr[0] + arr[1])
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    node = result.node
    assert node.coefficient(0, 0) == 2.0
    assert node.coefficient(0, 1) == 1.0
    assert node.offset(0) == -1.0


def test_affine_offset_extracted():
    f = FilterBuilder("Offset", peek=1, pop=1, push=1)
    with f.work():
        f.push(f.pop_expr() + 42.0)
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.offset(0) == 42.0


def test_source_and_sink_not_linear():
    src = FilterBuilder("Src", peek=0, pop=0, push=1)
    with src.work():
        src.push(1.0)
    assert not extract_filter(src.build()).is_linear

    sink = FilterBuilder("Sink", peek=1, pop=1, push=0)
    with sink.work():
        sink.pop()
    assert not extract_filter(sink.build()).is_linear


def test_extracted_node_matches_execution():
    """End-to-end: extraction result reproduces the work function."""
    from repro.runtime import run_stream

    filt = build_example_filter()
    result = extract_filter(filt)
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=20).tolist()
    executed = run_stream(filt, inputs, n_outputs=10)
    firings = 5
    predicted = result.node.reference_run(np.array(inputs), firings=firings)
    np.testing.assert_allclose(executed, predicted[:10], atol=1e-12)


def test_nested_loops():
    f = FilterBuilder("Nested", peek=4, pop=1, push=1)
    with f.work():
        s = f.local("s", 0.0)
        with f.loop("i", 0, 2) as i:
            with f.loop("j", 0, 2) as j:
                f.assign(s, s + f.peek(2 * i + j))
        f.push(s)
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    assert all(result.node.coefficient(0, k) == 1.0 for k in range(4))


def test_loop_bound_from_field_constant():
    f = FilterBuilder("FieldBound", peek=3, pop=1, push=1)
    n = f.const("N", 3)
    with f.work():
        s = f.local("s", 0.0)
        with f.loop("i", 0, n) as i:
            f.assign(s, s + f.peek(i))
        f.push(s)
        f.pop()
    result = extract_filter(f.build())
    assert result.is_linear
    assert result.node.nnz == 3


def test_exhausting_the_statement_budget_is_a_rejection():
    """1100 x 1100 iterations of one statement is 2.42 M loop steps (a
    trip and a statement each) against a budget of 1 M: the filter a
    serve client could ``OPEN`` with.  It is told no (and falls back to
    scalar firing); nothing raises."""
    result = extract_filter(spin_filter(1100, 1))
    assert not result.is_linear
    assert result.reason == "symbolic execution budget exceeded"


def spin_filter(trips: int, width: int):
    """``trips`` x ``trips`` iterations of ``width`` statements."""
    f = FilterBuilder("Spin", peek=1, pop=1, push=1)
    with f.work():
        s = f.local("s", 0.0)
        with f.loop("i", 0, trips):
            with f.loop("j", 0, trips):
                for _ in range(width):
                    f.assign(s, s + 1.0)
        f.push(f.pop_expr() + s)
    return f.build()


def test_the_budget_charges_the_body_not_just_the_trips():
    """10 000 iterations are few, but of a 200-statement body they are
    2 M statements: rejected once the 1 M budget is spent (under a
    second on a 2-vCPU box), not after 2 M or more."""
    filt = spin_filter(100, 200)
    start = time.perf_counter()
    result = extract_filter(filt)
    assert result.reason == "symbolic execution budget exceeded"
    assert time.perf_counter() - start < 5.0


def test_same_filter_is_extracted_once_until_plans_are_cleared():
    """``analyze`` and the planner ask about the same filter: the second
    answer is the first, by content — a rebuilt filter (other IR
    objects) is the same program, another coefficient is another
    filter, and ``clear_plan_cache`` forgets both."""
    from repro.exec import clear_plan_cache

    filt = build_example_filter()
    first = extract_filter(filt)
    assert extract_filter(filt) is first
    rebuilt = build_example_filter()
    assert rebuilt.work is not filt.work
    assert extract_filter(rebuilt) is first

    def gain(value):
        f = FilterBuilder("Gain", peek=1, pop=1, push=1)
        g = f.const_array("g", [value])
        with f.work():
            f.push(g[0] * f.pop_expr())
        return f.build()

    two = extract_filter(gain(2.0))
    assert extract_filter(gain(2.0)) is two
    assert extract_filter(gain(3.0)) is not two
    clear_plan_cache()
    again = extract_filter(filt)
    assert again is not first
    np.testing.assert_array_equal(again.node.A, first.node.A)


def test_extraction_follows_a_field_edited_in_place():
    f = FilterBuilder("Gain", peek=1, pop=1, push=1)
    g = f.const_array("g", [2.0])
    with f.work():
        f.push(g[0] * f.pop_expr())
    filt = f.build()
    assert extract_filter(filt).node.coefficient(0, 0) == 2.0
    filt.fields["g"][0] = 3.0
    assert extract_filter(filt).node.coefficient(0, 0) == 3.0
