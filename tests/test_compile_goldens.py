"""Goldens of the compile path: what the lexer and the linear extractor
produced at the parent of the PR that rewrote both (PR 23), recorded
before either was touched.

``tests/golden/extraction.json`` holds, for every leaf filter of the 12
apps and of the programs ``python -m repro.dsl.fuzz --seed 0 --count
200`` generates, either the first 16 hex digits of
``sha256(A|b|As|Cx|Cs|bs|s0 bytes and shapes, rates)`` or the rejection
reason; ``tests/golden/frontend.json`` a digest of the
``(kind, text, line, col, end_line, end_col)`` list of every ``.str``
source under ``apps/dsl``, and one of every leaf's field store as
``init`` left it (name, Python type, dtype, bytes) per app and for the
200 fuzz programs together.  The lexer's diagnostics on malformed input
are the literal ``DIAGNOSTICS`` table below.

``python tests/test_compile_goldens.py`` rewrites the two files from the
tree it runs on; a diff in them is an extractor or lexer change to
review, never noise.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import apps
from repro.dsl import Lexer, compile_source
from repro.dsl.fuzz import generate
from repro.graph.streams import Filter, leaf_filters
from repro.linear import extract_filter

GOLDEN = Path(__file__).parent / "golden"
DSL_DIR = Path(apps.__file__).parent / "dsl"
FUZZ_SEED, FUZZ_COUNT = 0, 200


def verdict(leaf) -> str:
    """The extracted node's digest, or why there is none."""
    result = extract_filter(leaf)
    node = result.node
    if node is None:
        return result.reason
    h = hashlib.sha256()
    for arr in (node.A, node.b, node.As, node.Cx, node.Cs, node.bs, node.s0):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(repr((node.peek, node.pop, node.push)).encode())
    return h.hexdigest()[:16]


def leaf_verdicts(graph) -> list[list[str]]:
    return [[leaf.name, verdict(leaf)] for leaf in leaf_filters(graph)]


def fuzz_graph(index: int):
    program = generate(FUZZ_SEED * 1_000_003 + index)
    return compile_source(program.source, program.top)


def token_digest(source: str) -> str:
    lexer = Lexer(source)
    rows = [(t.kind, t.text, t.line, t.col, t.end_line, t.end_col)
            for t in lexer.scan()]
    assert not lexer.diagnostics
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return f"{len(rows)} tokens {digest}"


def fields_digest(graphs) -> str:
    """Every IR leaf's fields: value bits, dtype and int-vs-float."""
    h = hashlib.sha256()
    for graph in graphs:
        for leaf in leaf_filters(graph):
            if isinstance(leaf, Filter):
                for name, value in sorted(leaf.fields.items()):
                    dtype = getattr(value, "dtype", "")
                    h.update(f"{leaf.name}.{name}:{type(value).__name__}:"
                             f"{dtype}:".encode())
                    h.update(value.tobytes() if dtype != "" else
                             repr(value).encode())
    return h.hexdigest()[:16]


def frontend() -> dict:
    return {
        "tokens": {p.name: token_digest(p.read_text())
                   for p in sorted(DSL_DIR.glob("*.str"))},
        "fields": {app: fields_digest([build()])
                   for app, build in sorted(apps.BENCHMARKS.items())},
        "fuzz_fields": fields_digest(map(fuzz_graph, range(FUZZ_COUNT))),
    }


@functools.lru_cache
def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("app", sorted(apps.BENCHMARKS))
def test_app_leaves_extract_to_the_recorded_nodes(app):
    recorded = load("extraction.json")["apps"][app]
    assert leaf_verdicts(apps.BENCHMARKS[app]()) == recorded


def test_every_app_leaf_is_recorded():
    """183 IR filters and the 12 primitive sinks."""
    recorded = load("extraction.json")["apps"]
    assert sum(map(len, recorded.values())) == 183 + 12


@pytest.mark.parametrize("block", range(0, FUZZ_COUNT, 25))
def test_fuzz_leaves_extract_to_the_recorded_nodes(block):
    recorded = load("extraction.json")["fuzz"]
    for index in range(block, block + 25):
        assert leaf_verdicts(fuzz_graph(index)) == recorded[index], \
            f"fuzz program {index}"


def test_sources_lex_and_elaborate_to_the_recorded_tokens_and_fields():
    assert frontend() == load("frontend.json")


#: source -> the lexer's full ``(code, (line, col, end_line, end_col))``
#: list, and the ``kind text`` of every token it still produced
DIAGNOSTICS = {
    "x /* never closed\n  y": (
        [("dsl-unterminated-comment", (1, 3, 2, 4))], ["ident x", "eof "]),
    "/*/": ([("dsl-unterminated-comment", (1, 1, 1, 4))], ["eof "]),
    "a @ b $\n #c": (
        [("dsl-bad-char", (1, 3, 1, 4)), ("dsl-bad-char", (1, 7, 1, 8)),
         ("dsl-bad-char", (2, 2, 2, 3))],
        ["ident a", "ident b", "ident c", "eof "]),
    "x = 1..2;": ([("dsl-bad-number", (1, 5, 1, 9))],
                  ["ident x", "op =", "op ;", "eof "]),
    "x = 1.2.3 + 4;": (
        [("dsl-bad-number", (1, 5, 1, 10))],
        ["ident x", "op =", "op +", "int 4", "op ;", "eof "]),
    "y = 1.2.3e-4;": ([("dsl-bad-number", (1, 5, 1, 13))],
                      ["ident y", "op =", "op ;", "eof "]),
    "/* one\n   two\n*/ z /* a */ // b\n@": (
        [("dsl-bad-char", (4, 1, 4, 2))], ["ident z", "eof "]),
    "1. .5 1.e3 7 2.5e-2 ->>=<<= pi_2 if": (
        [], ["float 1.", "float .5", "float 1.e3", "int 7", "float 2.5e-2",
             "op ->", "op >=", "op <<", "op =", "ident pi_2", "keyword if",
             "eof "]),
}


@pytest.mark.parametrize("source", DIAGNOSTICS)
def test_lexer_diagnostics_and_recovery(source):
    lexer = Lexer(source)
    tokens = [f"{t.kind} {t.text}" for t in lexer.scan()]
    found = [(d.code, (d.span.line, d.span.col, d.span.end_line,
                       d.span.end_col)) for d in lexer.diagnostics]
    assert (found, tokens) == DIAGNOSTICS[source]


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    rows = [f'{json.dumps(app)}: {json.dumps(leaf_verdicts(build()))}'
            for app, build in sorted(apps.BENCHMARKS.items())]
    fuzz = [json.dumps(leaf_verdicts(fuzz_graph(i)))
            for i in range(FUZZ_COUNT)]
    (GOLDEN / "extraction.json").write_text(
        '{"apps": {\n' + ",\n".join(rows) + '\n},\n"fuzz": [\n'
        + ",\n".join(fuzz) + "\n]}\n")
    sections = [
        f"{json.dumps(key)}: " + (json.dumps(value) if isinstance(value, str)
                                  else json.dumps(value, indent=0))
        for key, value in frontend().items()]
    (GOLDEN / "frontend.json").write_text(
        "{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    write()
