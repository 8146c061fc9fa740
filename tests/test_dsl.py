"""Tests for the textual mini-StreamIt front end."""

import math

import numpy as np
import pytest

from repro.dsl import compile_source, parse, tokenize
from repro.errors import DSLError
from repro.graph import FeedbackLoop, Filter, Pipeline, SplitJoin
from repro.linear import analyze, extract_filter
from repro.runtime import run_stream

FIR_SOURCE = """
float->float filter FIRFilter(int N) {
    float[N] weights;
    init {
        for (int i = 0; i < N; i++) {
            weights[i] = 1.0 / (i + 1);
        }
    }
    work push 1 pop 1 peek N {
        float sum = 0;
        for (int i = 0; i < N; i++) {
            sum += weights[i] * peek(i);
        }
        push(sum);
        pop();
    }
}
"""


class TestLexer:
    def test_tokens(self):
        toks = tokenize("float->float filter F { work push 1 { push(0.5); } }")
        kinds = [t.kind for t in toks]
        assert kinds[-1] == "eof"
        texts = [t.text for t in toks[:3]]
        assert texts == ["float", "->", "float"]

    def test_comments_skipped(self):
        toks = tokenize("// line\n/* block\nmore */ x")
        assert [t.text for t in toks if t.kind != "eof"] == ["x"]

    def test_numbers(self):
        toks = tokenize("3 3.5 1e3 2.5e-2")
        assert [t.kind for t in toks[:-1]] == ["int", "float", "float",
                                               "float"]

    def test_error_position(self):
        with pytest.raises(DSLError) as e:
            tokenize("x @ y")
        assert "line 1" in str(e.value)


class TestParserAndElaborator:
    def test_fir_filter_elaborates(self):
        filt = compile_source(FIR_SOURCE, "FIRFilter", 4)
        assert isinstance(filt, Filter)
        assert (filt.peek, filt.pop, filt.push) == (4, 1, 1)
        np.testing.assert_allclose(filt.fields["weights"],
                                   [1, 0.5, 1 / 3, 0.25])

    def test_fir_filter_is_linear(self):
        filt = compile_source(FIR_SOURCE, "FIRFilter", 3)
        result = extract_filter(filt)
        assert result.is_linear
        assert result.node.coefficient(0, 1) == pytest.approx(0.5)

    def test_fir_filter_runs(self):
        filt = compile_source(FIR_SOURCE, "FIRFilter", 2)
        out = run_stream(filt, [2.0, 4.0, 6.0], 2)
        np.testing.assert_allclose(out, [2 + 2, 4 + 3])

    def test_pipeline_with_loop(self):
        src = FIR_SOURCE + """
        float->float pipeline Chain(int K, int N) {
            for (int i = 0; i < K; i++) {
                add FIRFilter(N);
            }
        }
        """
        pipe = compile_source(src, "Chain", 3, 4)
        assert isinstance(pipe, Pipeline)
        assert len(pipe.children) == 3

    def test_splitjoin(self):
        src = FIR_SOURCE + """
        float->float splitjoin Bank {
            split duplicate;
            add FIRFilter(2);
            add FIRFilter(3);
            join roundrobin(1, 1);
        }
        """
        sj = compile_source(src, "Bank")
        assert isinstance(sj, SplitJoin)
        assert len(sj.children) == 2
        lmap = analyze(sj)
        assert lmap.is_linear(sj)

    def test_feedbackloop(self):
        src = """
        float->float filter AddDup {
            work peek 2 pop 2 push 2 {
                float t = pop() + pop();
                push(t);
                push(t);
            }
        }
        float->float filter Fwd {
            work pop 1 push 1 { push(pop()); }
        }
        float->float feedbackloop Integrator {
            join roundrobin(1, 1);
            body AddDup();
            loop Fwd();
            split roundrobin(1, 1);
            enqueue 0;
        }
        """
        loop = compile_source(src, "Integrator")
        assert isinstance(loop, FeedbackLoop)
        out = run_stream(loop, [1.0, 2.0, 3.0], 3)
        assert out == [1.0, 3.0, 6.0]

    def test_downsample_program(self):
        """The thesis' Figure 2-2 Downsample example, end to end."""
        src = """
        float->float filter Compressor(int M) {
            work peek M pop M push 1 {
                push(pop());
                for (int i = 0; i < M - 1; i++) pop();
            }
        }
        float->float filter Gain(float g) {
            work pop 1 push 1 { push(g * pop()); }
        }
        float->float pipeline Downsample {
            add Gain(2.0);
            add Compressor(2);
        }
        """
        pipe = compile_source(src)
        out = run_stream(pipe, [1.0, 2.0, 3.0, 4.0], 2)
        assert out == [2.0, 6.0]
        lmap = analyze(pipe)
        assert lmap.is_linear(pipe)
        node = lmap.node_for(pipe)
        assert (node.peek, node.pop, node.push) == (2, 2, 1)

    def test_prework_delay(self):
        src = """
        float->float filter Delay {
            prework push 1 { push(0.0); }
            work pop 1 push 1 { push(pop()); }
        }
        """
        filt = compile_source(src)
        out = run_stream(filt, [5.0, 6.0], 3)
        assert out == [0.0, 5.0, 6.0]

    def test_stateful_filter_detected(self):
        src = """
        float->float filter Acc {
            float state;
            work pop 1 push 1 {
                state = state + pop();
                push(state);
            }
        }
        """
        filt = compile_source(src)
        assert "state" in filt.mutable_fields
        assert extract_filter(filt).node.state_dim == 1

    def test_init_leaves_scalar_fields_their_declared_types(self):
        """``init`` runs as generated Python: an int stored in a float
        field, or a NumPy scalar read back out of an array, must not be
        what the field holds afterwards."""
        src = """
        float->float filter Gain {
            float[2] h;
            float g;
            float first;
            int half;
            init {
                h[0] = 3; h[1] = 0.25;
                g = 2;
                first = h[0];
                half = 7 / 2.0;
            }
            work pop 1 push 1 { push(g * pop()); }
        }
        """
        fields = compile_source(src).fields
        assert [type(fields[k]) for k in ("g", "first", "half")] \
            == [float, float, int]
        assert (fields["g"], fields["first"], fields["half"]) == (2.0, 3.0, 3)
        assert fields["h"].dtype == np.float64
        assert fields["h"].tolist() == [3.0, 0.25]

    def test_init_cannot_touch_the_tapes(self):
        for stmt in ("push(1.0);", "float x = pop();", "float x = peek(0);"):
            src = ("float->float filter F { float g; init { %s } "
                   "work pop 1 push 1 { push(pop()); } }" % stmt)
            with pytest.raises(DSLError) as excinfo:
                compile_source(src)
            assert excinfo.value.code == "elab-init-io"

    def test_pi_and_intrinsics(self):
        src = """
        void->float filter CosSource {
            int n;
            work push 1 {
                push(cos(pi / 4 * n));
                n = n + 1;
            }
        }
        """
        filt = compile_source(src)
        from repro.graph import Pipeline as P
        from repro.runtime import Collector, run_graph

        out = run_graph(P([filt, Collector()]), 3)
        np.testing.assert_allclose(
            out, [1.0, math.cos(math.pi / 4), math.cos(math.pi / 2)],
            atol=1e-12)

    def test_if_else_in_work(self):
        src = """
        float->float filter Clip {
            work pop 1 push 1 {
                float t = pop();
                if (t > 1.0) { push(1.0); } else { push(t); }
            }
        }
        """
        filt = compile_source(src)
        out = run_stream(filt, [0.5, 3.0], 2)
        assert out == [0.5, 1.0]


class TestDSLErrors:
    def test_unknown_stream(self):
        with pytest.raises(DSLError):
            compile_source(FIR_SOURCE, "Nope")

    def test_arity_mismatch(self):
        with pytest.raises(DSLError):
            compile_source(FIR_SOURCE, "FIRFilter")

    def test_missing_work(self):
        with pytest.raises(DSLError):
            parse("float->float filter F { init { } }")

    def test_missing_join(self):
        src = FIR_SOURCE + """
        float->float splitjoin Bad {
            split duplicate;
            add FIRFilter(2);
        }
        """
        with pytest.raises(DSLError):
            compile_source(src, "Bad")

    def test_nonconstant_loop_rejected_structurally(self):
        with pytest.raises(DSLError):
            parse("""
            float->float filter F {
                work pop 1 push 1 { while (true) { push(pop()); } }
            }
            """)
