"""Lexer for the mini-StreamIt DSL.

Tokenizes a StreamIt-like surface syntax (thesis §2.1, Figure 2-2):
stream declarations, filter work functions with push/pop/peek, pipelines,
splitjoins and feedbackloops.

Every token carries its full source span (start *and* end), so
multi-character tokens, numbers, and comments that span newlines all
report the extent of the offending text rather than a single start
position.  The :class:`Lexer` recovers from bad input — it records a
:class:`~repro.errors.Diagnostic` and keeps scanning — so a single pass
surfaces every lexical error alongside the parser's syntax errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import Diagnostic, DSLError, SourceSpan

KEYWORDS = frozenset({
    "filter", "pipeline", "splitjoin", "feedbackloop",
    "work", "prework", "init", "add", "split", "join", "body", "loop",
    "enqueue", "duplicate", "roundrobin",
    "push", "pop", "peek",
    "float", "int", "void", "boolean",
    "for", "if", "else", "while", "return", "true", "false", "pi",
})

#: multi-character operators, longest first
OPERATORS = [
    "->", "++", "--", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=",
    "&&", "||", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
]

#: everything the scanner can meet, one alternative per kind of lexeme in
#: the order they are tried; ``bad`` takes the one character nothing else
#: wants.  A number is scanned generously (every digit and dot, then an
#: exponent with or without digits) so a malformed literal is reported
#: whole; :data:`_WELL_FORMED` then says whether it is one.
_LEXEME = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*(?s:.*?)\*/)"
    r"|(?P<unterminated>/\*(?s:.*))"
    r"|(?P<number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d*)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + r")"
    r"|(?P<bad>(?s:.))")

_WELL_FORMED = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'keyword' | 'int' | 'float' | 'op' | 'eof'
    text: str
    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def __post_init__(self):
        if self.end_line <= 0:
            object.__setattr__(self, "end_line", self.line)
        if self.end_col <= 0:
            object.__setattr__(self, "end_col", self.col + len(self.text))

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.end_line, self.end_col)

    def __repr__(self):
        return f"Token({self.kind}:{self.text!r}@{self.line}:{self.col})"


class Lexer:
    """Scans source text into tokens, collecting diagnostics on the way.

    ``scan()`` always returns a complete token list (terminated by an
    ``eof`` token); lexical errors land in ``self.diagnostics`` instead
    of aborting the scan, so the parser can report them together with
    its own errors.
    """

    def __init__(self, source: str):
        self.source = source
        self.diagnostics: list[Diagnostic] = []

    def _error(self, code: str, message: str, span: SourceSpan,
               hint: str | None = None) -> None:
        self.diagnostics.append(Diagnostic(code, message, span, hint))

    def scan(self) -> list[Token]:
        tokens: list[Token] = []
        source = self.source
        match = _LEXEME.match
        pos, n = 0, len(source)
        line = 1
        line_start = 0  # offset of the first character of ``line``
        while pos < n:
            m = match(source, pos)
            kind = m.lastgroup
            text = m.group()
            col = pos - line_start + 1
            pos = m.end()
            if kind == "space" or kind == "comment":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = pos - len(text) + text.rindex("\n") + 1
            elif kind == "op":
                tokens.append(Token("op", text, line, col,
                                    line, col + len(text)))
            elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
                tokens.append(Token(
                    "keyword" if text in KEYWORDS else "ident", text,
                    line, col, line, col + len(text)))
            elif kind == "number":
                if _WELL_FORMED.fullmatch(text):
                    tokens.append(Token(
                        "int" if text.isdigit() else "float", text,
                        line, col, line, col + len(text)))
                else:
                    # the span covers the whole malformed literal
                    self._error("dsl-bad-number",
                                f"malformed number {text!r}",
                                SourceSpan(line, col, line, col + len(text)))
            elif kind == "unterminated":
                # the offending text is the whole unterminated comment,
                # through end of input
                first = line
                if "\n" in text:
                    line += text.count("\n")
                    line_start = pos - len(text) + text.rindex("\n") + 1
                self._error("dsl-unterminated-comment",
                            "unterminated block comment",
                            SourceSpan(first, col, line,
                                       pos - line_start + 1),
                            hint="close it with '*/'")
            else:
                # ``bad``, or a word led by a numeral that is no letter
                # ('²'): skip one character and resume after it
                pos += 1 - len(text)
                self._error("dsl-bad-char",
                            f"unexpected character {text[0]!r}",
                            SourceSpan(line, col, line, col + 1))
        col = n - line_start + 1
        tokens.append(Token("eof", "", line, col, line, col))
        return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`DSLError` carrying *all*
    lexical diagnostics if any text failed to scan."""
    lexer = Lexer(source)
    tokens = lexer.scan()
    if lexer.diagnostics:
        raise DSLError(diagnostics=lexer.diagnostics, source=source)
    return tokens
