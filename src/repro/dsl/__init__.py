"""Textual mini-StreamIt front end: lexer, parser, elaborator, loader.

This is the canonical program representation: source text parses (with
panic-mode error recovery reporting every syntax error as a structured
:class:`~repro.errors.Diagnostic`), elaborates into a stream graph, and
flows into the plan cache keyed by the graph's content.  The
benchmark apps under ``repro.apps`` are themselves ``.str`` programs
loaded through :func:`load_source`.
"""

from .elaborator import Elaborator, compile_source
from .lexer import Lexer, Token, tokenize
from .loader import clear_source_cache, load_source
from .parser import Parser, TokenStream, parse

__all__ = ["tokenize", "Token", "Lexer", "parse", "Parser", "TokenStream",
           "Elaborator", "compile_source", "load_source", "clear_source_cache"]
