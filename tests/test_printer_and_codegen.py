"""Printer output and generated-Python source inspection tests."""

import numpy as np
import pytest

from repro.ir import (FilterBuilder, call, compile_work, expr_to_str,
                      work_to_str)
from repro.ir import nodes as N
from repro.ir.interp import Interpreter
from repro.profiling import Profiler
from repro.runtime import Channel


class TestPrinter:
    def test_expr_precedence_minimal_parens(self):
        e = N.Bin("+", N.Var("a"), N.Bin("*", N.Var("b"), N.Var("c")))
        assert expr_to_str(e) == "a + b * c"
        e2 = N.Bin("*", N.Bin("+", N.Var("a"), N.Var("b")), N.Var("c"))
        assert expr_to_str(e2) == "(a + b) * c"

    def test_unary_and_calls(self):
        e = N.Un("-", N.Call("sqrt", (N.Peek(N.Const(0)),)))
        assert expr_to_str(e) == "-sqrt(peek(0))"

    def test_statement_forms(self):
        f = FilterBuilder("P", peek=2, pop=1, push=1)
        with f.work():
            t = f.local("t", f.peek(0) + f.peek(1))
            cond = f.if_(t > 0.0)
            with cond:
                f.push(t)
            with cond.otherwise():
                f.push(-t)
            f.pop()
        text = work_to_str(f.build().work)
        assert "if (t > 0.0) {" in text
        assert "} else {" in text
        assert text.startswith("work peek 2 pop 1 push 1 {")

    def test_array_decl_and_for(self):
        f = FilterBuilder("A", peek=1, pop=1, push=1)
        with f.work():
            arr = f.local_array("buf", 4)
            with f.loop("i", 0, 4) as i:
                f.assign(arr[i], 0.0)
            f.push(f.pop_expr())
        text = work_to_str(f.build().work)
        assert "float[4] buf;" in text
        assert "for (int i = 0; i < 4; i++) {" in text


class TestCodegen:
    def _run(self, wf, fields, inputs):
        prof = Profiler()
        fn = compile_work(wf, fields, "t")
        ch_in, ch_out = Channel(), Channel()
        ch_in.push_block(inputs)
        fn(ch_in.peek, ch_in.pop, ch_out.push, fields, prof.bulk)
        return ch_out.state(), prof

    def test_source_attached(self):
        f = FilterBuilder("G", peek=1, pop=1, push=1)
        with f.work():
            f.push(2.0 * f.pop_expr())
        filt = f.build()
        fn = compile_work(filt.work, dict(filt.fields), filt.name)
        assert "def _G(" in fn.__repro_source__
        # pushes normalize with ``* 1.0`` (float-exact, complex-safe)
        assert "* 1.0)" in fn.__repro_source__

    def test_block_level_flop_batching(self):
        """Counts are emitted per straight-line region, once per pass."""
        f = FilterBuilder("Loopy", peek=4, pop=1, push=1)
        with f.work():
            s = f.local("s", 0.0)
            with f.loop("i", 0, 4) as i:
                f.assign(s, s + 1.5 * f.peek(i))
            f.push(s)
            f.pop()
        filt = f.build()
        out, prof = self._run(filt.work, dict(filt.fields),
                              [1.0, 2.0, 3.0, 4.0])
        assert out == [pytest.approx(15.0)]
        assert prof.counts.fmul == 4
        assert prof.counts.fadd == 4

    def test_straight_line_loops_owe_their_counts_once(self):
        """No ``if`` in the body: every iteration owes the same ops, so
        one bump after the loop pays for all of them — the inner loop's
        inside the outer, whose variable bounds it."""
        f = FilterBuilder("Nest", peek=4, pop=1, push=1)
        with f.work():
            s = f.local("s", 0.0)
            with f.loop("i", 0, 3) as i:
                f.assign(s, s * 0.5)
                with f.loop("j", i, 4) as j:
                    f.assign(s, s + f.peek(i) * f.peek(j))
            f.push(s)
            f.pop()
        filt = f.build()
        out, prof = self._run(filt.work, dict(filt.fields),
                              [1.0, 2.0, 3.0, 4.0])
        ref, ch_in, ch_out = Profiler(), Channel(), Channel()
        ch_in.push_block([1.0, 2.0, 3.0, 4.0])
        Interpreter(dict(filt.fields), ref).run(filt.work, ch_in, ch_out)
        assert out == ch_out.state()
        assert prof.counts == ref.counts
        assert (prof.counts.fadd, prof.counts.fmul) == (9, 12)
        src = compile_work(filt.work, dict(filt.fields),
                           "t").__repro_source__
        bumps = [line for line in src.splitlines() if "_bulk(" in line]
        assert [line.strip() for line in bumps] == [
            "_bulk(fadd=1 * len(_r2), fmul=1 * len(_r2))",
            "_bulk(fmul=1 * len(_r1))"]
        indent = lambda line: len(line) - len(line.lstrip())
        assert indent(bumps[0]) == 8 and indent(bumps[1]) == 4

    def test_a_branch_in_the_body_keeps_per_iteration_counts(self):
        f = FilterBuilder("Cond", peek=3, pop=1, push=1)
        with f.work():
            s = f.local("s", 0.0)
            with f.loop("i", 0, 3) as i:
                with f.if_(f.peek(i) > 0.0):
                    f.assign(s, s + f.peek(i))
            f.push(s)
            f.pop()
        filt = f.build()
        out, prof = self._run(filt.work, dict(filt.fields), [1.0, -2.0, 3.0])
        assert out == [4.0]
        assert (prof.counts.fcmp, prof.counts.fadd) == (3, 2)
        src = compile_work(filt.work, dict(filt.fields),
                           "t").__repro_source__
        assert "len(" not in src

    def test_branch_counts_follow_execution(self):
        f = FilterBuilder("B", peek=1, pop=1, push=1)
        with f.work():
            t = f.local("t", f.pop_expr())
            cond = f.if_(t > 0.0)
            with cond:
                f.push(t * 2.0)
            with cond.otherwise():
                f.push(t)
        filt = f.build()
        out1, p1 = self._run(filt.work, dict(filt.fields), [5.0])
        out2, p2 = self._run(filt.work, dict(filt.fields), [-5.0])
        assert out1 == [10.0] and out2 == [-5.0]
        assert p1.counts.fmul == 1 and p2.counts.fmul == 0

    def test_weird_filter_names_sanitized(self):
        f = FilterBuilder("Adder(10)!", peek=1, pop=1, push=1)
        with f.work():
            f.push(f.pop_expr())
        filt = f.build()
        fn = compile_work(filt.work, dict(filt.fields), filt.name)
        assert "def _Adder_10__(" in fn.__repro_source__

    def test_scalar_field_writeback(self):
        f = FilterBuilder("Acc", peek=1, pop=1, push=1)
        acc = f.state("acc", 0.0)
        with f.work():
            f.assign(acc, acc + f.pop_expr())
            f.push(acc)
        filt = f.build()
        fields = dict(filt.fields)
        fn = compile_work(filt.work, fields, filt.name)
        prof = Profiler()
        ch_in, ch_out = Channel(), Channel()
        ch_in.push_block([1.0, 2.0])
        fn(ch_in.peek, ch_in.pop, ch_out.push, fields, prof.bulk)
        fn(ch_in.peek, ch_in.pop, ch_out.push, fields, prof.bulk)
        assert ch_out.state() == [1.0, 3.0]
        assert fields["acc"] == 3.0

    def test_array_field_shared_in_place(self):
        f = FilterBuilder("Ring", peek=1, pop=1, push=1)
        buf = f.state_array("buf", [0.0, 0.0])
        idx = f.state("idx", 0)
        with f.work():
            f.assign(buf[idx], f.pop_expr())
            f.push(buf[idx])
            f.assign(idx, (idx + 1) % 2)
        filt = f.build()
        fields = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                  for k, v in filt.fields.items()}
        fn = compile_work(filt.work, fields, filt.name)
        ch_in, ch_out = Channel(), Channel()
        ch_in.push_block([7.0, 8.0])
        prof = Profiler()
        fn(ch_in.peek, ch_in.pop, ch_out.push, fields, prof.bulk)
        fn(ch_in.peek, ch_in.pop, ch_out.push, fields, prof.bulk)
        assert list(fields["buf"]) == [7.0, 8.0]

    def test_intrinsics_compile(self):
        f = FilterBuilder("M", peek=2, pop=1, push=1)
        with f.work():
            f.push(call("max", call("abs", f.peek(0)), f.peek(1)))
            f.pop()
        filt = f.build()
        out, _ = self._run(filt.work, dict(filt.fields), [-3.0, 2.0])
        assert out == [3.0]
