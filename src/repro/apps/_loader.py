"""Elaborate benchmark graphs from the canonical ``.str`` sources.

The DSL files under ``apps/dsl/`` are the single source of truth for
the benchmark suite; every ``repro.apps.<app>.build()`` is a thin
loader that concatenates the app's source files, elaborates its top
stream through the cached :func:`repro.dsl.loader.load_source` path,
and appends the measurement Collector.  The plan cache keys an app
graph by its content, as it does any graph, so a caller that mutates
coefficients in place gets a new plan.

Elaborated streams carry their declaration names (``Compressor``); the
loaders rename clones to the suite's historical instance names
(``Compressor(3)``, ``branch2``, ``FrontLowPass``) so reports, dot
exports, and plan listings are unchanged.  Renaming a clone is safe —
every load returns a fresh ``clone_stream`` copy.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ..graph.streams import Filter, Pipeline, SplitJoin, Stream, walk
from ..runtime.builtins import Collector

#: Directory holding the canonical DSL sources.
DSL_DIR = os.path.join(os.path.dirname(__file__), "dsl")


@lru_cache(maxsize=None)
def dsl_source(*names: str) -> str:
    """The concatenated text of ``apps/dsl/<name>.str`` files."""
    parts = []
    for name in names:
        with open(os.path.join(DSL_DIR, name + ".str"),
                  encoding="utf-8") as fh:
            parts.append(fh.read())
    return "\n".join(parts)


def canonicalize_names(stream: Stream) -> Stream:
    """Rename library instances to their historical builder names.

    DSL instances carry their declaration name; the Python builders
    parameterized some of them (``Compressor(3)``, ``Expander(2)``,
    ``Adder(4)``, ``BandStopFilter.split``).  The parameter is always
    recoverable from the instance's rates.
    """
    for s in walk(stream):
        if isinstance(s, Filter):
            if s.name == "Compressor":
                s.name = f"Compressor({s.pop})"
            elif s.name == "Expander":
                s.name = f"Expander({s.push})"
            elif s.name == "Adder":
                s.name = f"Adder({s.peek})"
        elif isinstance(s, SplitJoin) and s.name == "BandStopSplit":
            s.name = "BandStopFilter.split"
    return stream


def load_unit(files, top: str, *args) -> Stream:
    """Elaborate one stream declaration (no measurement harness)."""
    from ..dsl.loader import load_source

    if isinstance(files, str):
        files = (files,)
    return canonicalize_names(load_source(dsl_source(*files), top, *args))


def load_app(files, top: str, *args,
             printer_name: str = "FloatPrinter") -> Pipeline:
    """Elaborate a benchmark top and append its Collector sink."""
    g = load_unit(files, top, *args)
    return Pipeline(list(g.children) + [Collector(printer_name)],
                    name=g.name)
