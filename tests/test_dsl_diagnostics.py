"""Golden-file tests for DSL diagnostics.

These pin the *exact* rendered output — code, message, location, and
caret snippet — for representative frontend errors.  The rendered text
is part of the frontend's contract (serve clients and tooling display
it verbatim; ``.code`` is machine-dispatchable), so changes here must
be deliberate.
"""

import textwrap

import pytest

from repro.dsl import parse, tokenize
from repro.errors import Diagnostic, DSLError, SourceSpan


def _fails(source: str) -> DSLError:
    with pytest.raises(DSLError) as excinfo:
        parse(source)
    return excinfo.value


MISSING_SEMI = """\
float->float filter F {
    work pop 1 push 1 {
        float x = pop()
        push(x);
    }
}
"""

MISSING_SEMI_GOLDEN = """\
error[dsl-expected]: expected ';' after statement at line 3, col 24
  3 |         float x = pop()
     |                        ^"""


def test_missing_semicolon_golden():
    err = _fails(MISSING_SEMI)
    assert err.code == "dsl-expected"
    assert len(err.diagnostics) == 1
    assert err.render(MISSING_SEMI) == MISSING_SEMI_GOLDEN
    # the source is attached by the frontend, so render() alone works too
    assert err.render() == MISSING_SEMI_GOLDEN


THREE_ERRORS = """\
float->float filter F {
    work pop 1 push 1 {
        float x = pop()
        push(x;
    }
}
float->float pipeline P {
    add F(;
}
"""

THREE_ERRORS_GOLDEN = """\
error[dsl-expected]: expected ';' after statement at line 3, col 24
  3 |         float x = pop()
     |                        ^
error[dsl-expected]: expected ')' (found op ';') at line 4, col 15
  4 |         push(x;
     |               ^
error[dsl-expected-expr]: expected an expression (found op ';') at line 8, col 11
  8 |     add F(;
     |           ^"""


def test_recovery_reports_all_three_errors():
    """Regression: panic-mode recovery resynchronizes at ``;``/``}`` and
    keeps parsing — one parse reports all three errors, spanning two
    stream declarations, not just the first."""
    err = _fails(THREE_ERRORS)
    assert len(err.diagnostics) == 3
    assert [d.code for d in err.diagnostics] == \
        ["dsl-expected", "dsl-expected", "dsl-expected-expr"]
    assert [d.span.line for d in err.diagnostics] == [3, 4, 8]
    assert err.render(THREE_ERRORS) == THREE_ERRORS_GOLDEN


BAD_CHAR = ("float->float filter F "
            "{ work push 1 { push(0 @ 1); } }\n")

BAD_CHAR_GOLDEN = """\
error[dsl-bad-char]: unexpected character '@' at line 1, col 46
  1 | float->float filter F { work push 1 { push(0 @ 1); } }
     |                                              ^
error[dsl-expected]: expected ')' (found int '1') at line 1, col 48
  1 | float->float filter F { work push 1 { push(0 @ 1); } }
     |                                                ^"""


def test_lexer_error_golden():
    """A lexer error is a diagnostic like any other: the parser keeps
    going over the remaining token stream."""
    err = _fails(BAD_CHAR)
    assert err.code == "dsl-bad-char"
    assert err.render(BAD_CHAR) == BAD_CHAR_GOLDEN


NO_WORK_GOLDEN = """\
error[dsl-no-work]: filter 'F' has no work function at line 1, col 21
  1 | float->float filter F { init { } }
     |                     ^"""


def test_missing_work_golden():
    err = _fails("float->float filter F { init { } }\n")
    assert err.code == "dsl-no-work"
    assert err.render("float->float filter F { init { } }\n") \
        == NO_WORK_GOLDEN


BAD_KIND_GOLDEN = """\
error[dsl-expected-stream-kind]: expected filter/pipeline/splitjoin/feedbackloop (found ident 'gizmo') at line 1, col 14
  1 | float->float gizmo F { }
     |              ^^^^^"""


def test_bad_stream_kind_golden_multichar_caret():
    """The caret underline covers the whole offending token."""
    err = _fails("float->float gizmo F { }\n")
    assert err.code == "dsl-expected-stream-kind"
    assert err.render("float->float gizmo F { }\n") == BAD_KIND_GOLDEN


class TestLexerSpans:
    def test_token_spans_cover_text(self):
        toks = tokenize("float->float filter Foo")
        by_text = {t.text: t for t in toks if t.kind != "eof"}
        arrow = by_text["->"]
        assert (arrow.line, arrow.col, arrow.end_col) == (1, 6, 8)
        ident = by_text["Foo"]
        assert (ident.col, ident.end_col) == (21, 24)

    def test_spans_track_newlines(self):
        toks = tokenize("x\n  y\n/* multi\nline */ z")
        y = next(t for t in toks if t.text == "y")
        assert (y.line, y.col) == (2, 3)
        z = next(t for t in toks if t.text == "z")
        assert (z.line, z.col) == (4, 9)

    def test_number_span_width(self):
        tok = tokenize("  2.5e-2  ")[0]
        assert tok.kind == "float"
        assert (tok.col, tok.end_col) == (3, 9)


class TestDiagnosticAPI:
    def test_describe_one_liner(self):
        d = Diagnostic("dsl-expected", "expected ';'", SourceSpan(3, 24))
        assert d.describe() == \
            "expected ';' at line 3, col 24 [dsl-expected]"

    def test_render_without_source_omits_snippet(self):
        d = Diagnostic("dsl-expected", "expected ';'", SourceSpan(3, 24))
        assert d.render() == "error[dsl-expected]: expected ';' " \
                             "at line 3, col 24"

    def test_hint_rendered(self):
        d = Diagnostic("dsl-no-work", "filter 'F' has no work function",
                       hint="every filter needs a work block")
        assert d.render().endswith(
            "\n  hint: every filter needs a work block")

    def test_multi_error_str_lists_all(self):
        err = _fails(THREE_ERRORS)
        text = str(err)
        assert text.startswith("3 errors: ")
        assert text.count("[dsl-expected]") == 2
        assert "[dsl-expected-expr]" in text


@pytest.mark.parametrize("literal", ["1e", "1e+", "2.5E-", "1..2", "1.2.3"])
def test_malformed_number_is_a_diagnostic_not_a_value_error(literal):
    """An exponent without digits used to lex as a ``float`` token and
    die in the parser's ``float()`` — from ``repro.compile``, and so from
    serve ``OPEN``.  Every malformed literal is ``dsl-bad-number`` over
    its whole text."""
    import repro

    source = ("float->float filter F { work pop 1 push 1 "
              f"{{ push(pop() * {literal}); }} }}")
    with pytest.raises(DSLError) as excinfo:
        repro.compile(source)
    first = excinfo.value.diagnostics[0]
    start = source.index(literal) + 1
    assert first.code == "dsl-bad-number"
    assert first.message == f"malformed number {literal!r}"
    assert first.span == SourceSpan(1, start, 1, start + len(literal))
