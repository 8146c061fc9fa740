"""The interpreter is the reference, and the linear extractor is that
interpreter over affine forms: programs on which the two used to
disagree, run under every backend and plan mode against ``interp``.

Each program below gave a wrong answer under some plan mode (or under
``compiled``) while the extractor had its own walk of the work IR: a
``pop()`` behind a short-circuited ``||`` shifted its window, a ``for``
bound it re-read every iteration, a float it stored into an ``int``
untruncated.  The ``*_after_join`` ones check that a variable that
joined to ⊤ keeps its type, so the next store into it is precise again.
"""

import numpy as np
import pytest

from repro.dsl import compile_source
from repro.errors import DSLError
from repro.linear import extract_filter
from repro.runtime import run_stream

PROGRAMS = {
    # ``1 || ...`` decides: the pop() never runs
    "short_circuit": """\
float->float filter F {
    work peek 2 pop 1 push 1 {
        int t = 1 || pop() > 0.0;
        push(peek(0));
        pop();
    }
}""",
    # the same, deciding a branch whose arms agree
    "short_circuit_branch": """\
float->float filter F {
    work peek 2 pop 1 push 1 {
        int z = 0;
        float y = peek(1);
        if (z == 0 || pop() > 0.0) {
            y = peek(0);
        }
        push(y);
        pop();
    }
}""",
    # the bound is read once: four taps, though n shrinks
    "bound_read_once": """\
float->float filter F {
    work peek 4 pop 1 push 1 {
        int n = 4;
        float s = 0.0;
        for (int i = 0; i < n; i++) {
            n = n - 1;
            s = s + peek(i);
        }
        push(s);
        pop();
    }
}""",
    # 1.5 stored into an int is 1
    "int_store": """\
float->float filter F {
    work pop 1 push 1 {
        int k = 0;
        k = 1.5;
        push(pop() * k);
    }
}""",
    # what the pushes truncate: an int local, an int field, an element
    # of a local int array
    "int_store_of_input": """\
float->float filter F {
    int last = 0;
    work pop 1 push 3 {
        int[2] q;
        int k = 0;
        float x = pop();
        k = x;
        q[1] = x * 2.0;
        last = x + 0.25;
        push(k);
        push(q[1]);
        push(last);
    }
}""",
    # a variable that joined to ⊤ holds what it is assigned next
    "reassigned_after_join": """\
float->float filter F {
    work peek 2 pop 1 push 1 {
        float y = 0.0;
        if (peek(0) > 0.0) {
            y = peek(0);
        } else {
            y = peek(1);
        }
        y = peek(1);
        push(y);
        pop();
    }
}""",
    # ... and an int one still truncates it: k is 2
    "int_reassigned_after_join": """\
float->float filter F {
    work pop 1 push 1 {
        int k = 0;
        if (peek(0) > 0.0) {
            k = 1;
        } else {
            k = 3;
        }
        k = 2.5;
        push(pop() * k);
    }
}""",
    # ... and so does a state slot: last is the previous input
    "state_reassigned_after_join": """\
float->float filter F {
    float last = 0.0;
    work pop 1 push 1 {
        float x = peek(0);
        push(last);
        if (x > 0.0) {
            last = x;
        } else {
            last = 2.0 * x;
        }
        last = x;
        pop();
    }
}""",
}

MODES = ["none", "linear", "freq", "auto"]
N_OUT = 48


def inputs():
    return np.random.default_rng(27).normal(scale=4.0, size=4 * N_OUT + 8)


def outputs(name, **kw):
    graph = compile_source(PROGRAMS[name])
    return np.asarray(run_stream(graph, inputs(), N_OUT, **kw))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_compiled_agrees_with_interp(name):
    np.testing.assert_array_equal(outputs(name, backend="compiled"),
                                  outputs(name, backend="interp"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_plan_mode_agrees_with_interp(name, mode):
    np.testing.assert_allclose(
        outputs(name, backend="plan", optimize=mode),
        outputs(name, backend="interp"), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name, node", [
    ("short_circuit", [[1.0]]), ("short_circuit_branch", [[1.0]]),
    ("bound_read_once", [[1.0]] * 4), ("int_store", [[1.0]]),
    ("reassigned_after_join", [[1.0], [0.0]]),
    ("int_reassigned_after_join", [[2.0]])])
def test_the_extracted_node_is_the_interpreters(name, node):
    """Each affine program extracts, to the taps the interpreter runs."""
    result = extract_filter(compile_source(PROGRAMS[name]))
    assert result.is_linear, result.reason
    a = result.node.A
    np.testing.assert_array_equal(a[-len(node):], node)
    assert not a[:-len(node)].any()


def test_a_state_slot_reassigned_after_a_join_extracts():
    node = extract_filter(
        compile_source(PROGRAMS["state_reassigned_after_join"])).node
    assert node is not None and node.state_dim == 1
    np.testing.assert_array_equal(node.As, [[1.0]])
    np.testing.assert_array_equal(node.Cx, [[1.0]])


def test_a_store_of_an_input_into_an_int_is_not_affine():
    result = extract_filter(compile_source(PROGRAMS["int_store_of_input"]))
    assert result.reason == "push #0 is not an affine function of the input"


@pytest.mark.parametrize("decl, error", [
    ("int z = 0; int w = 7;", "ZeroDivisionError"),
    ("float z = 0.0; float w = 7.0;", "ValueError")])
def test_a_constant_modulo_by_zero_on_one_arm_is_a_rejection(decl, error):
    """Both arms of a branch on a form run, so ``w % z`` is folded on a
    path the filter may never take: the filter is rejected, with the
    fold's error as the reason, and nothing raises."""
    source = f"""\
float->float filter F {{
    work pop 1 push 1 {{
        {decl}
        if (peek(0) > 0.0) {{
            w = w % z;
        }}
        push(pop() + w);
    }}
}}"""
    result = extract_filter(compile_source(source))
    assert not result.is_linear
    assert result.reason.startswith(error + ": ")


def test_a_loop_may_not_assign_its_own_variable():
    """The trip count is fixed on entry (``ir.nodes.For``): a body that
    writes the loop variable is refused where the IR is built, and the
    elaborator points at the loop."""
    source = """\
float->float filter F {
    work pop 1 push 1 {
        float s = pop();
        for (int i = 0; i < 4; i++) {
            i = i + 1;
            s = s + 1.0;
        }
        push(s);
    }
}"""
    with pytest.raises(DSLError) as info:
        compile_source(source)
    err = info.value
    assert err.code == "elab-loop-var-assigned"
    assert "the body of the loop over 'i' assigns it" in err.render()
    span = err.diagnostics[0].span
    assert (span.line, span.col) == (4, 9)
