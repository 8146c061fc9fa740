"""Cached DSL source -> stream-graph loading.

``load_source`` is the memoized path from source text to an
instantiated graph: parsing is cached per source string and elaboration
per ``(source, top, args)`` triple, with every call returning a
fresh :func:`~repro.graph.streams.clone_stream` copy so callers can run
or mutate their graph without perturbing the cache.

The text keys these caches only.  A loaded graph is identified
like any other, by its content (:func:`~repro.graph.identity.content_id`):
a clone whose coefficients are mutated in place is a new program to the
plan cache, and a graph re-elaborated after :func:`clear_source_cache`
is the same one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DSLError
from ..graph.streams import Stream, clone_stream
from .ast import Program
from .elaborator import Elaborator
from .parser import parse

#: elaborated prototypes kept per process; beyond this the oldest
#: entries are dropped (insertion order ~ LRU for our access pattern)
_MAX_GRAPHS = 128

_graphs: dict[tuple, Stream] = {}


@lru_cache(maxsize=64)
def _parsed(source: str) -> Program:
    return parse(source)


def _freeze(arg):
    """A hashable, content-identifying form of an instantiation arg."""
    if isinstance(arg, (list, tuple, np.ndarray)):
        a = np.asarray(arg, dtype=float)
        return ("arr", a.shape, a.tobytes())
    if isinstance(arg, (bool, np.bool_)):
        return ("b", bool(arg))
    if isinstance(arg, (int, np.integer)):
        return ("i", int(arg))
    if isinstance(arg, (float, np.floating)):
        return ("f", float(arg))
    raise TypeError(f"cannot use {type(arg).__name__} as a DSL argument")


def load_source(source: str, top: str | None = None, *args,
                fingerprint: bool = False) -> Stream:
    """Parse + elaborate (cached), returning a fresh graph clone.

    ``fingerprint`` is accepted and ignored: a graph's plan-cache key is
    its content, however it was loaded.
    """
    key = source, top, tuple(map(_freeze, args))
    proto = _graphs.get(key)
    if proto is None:
        program = _parsed(source)
        if not program.order:
            # defer to compile_source's error path for the diagnostic
            from .elaborator import compile_source
            return compile_source(source, top, *args)
        name = top if top is not None else program.order[-1]
        try:
            proto = Elaborator(program).instantiate(name, *args)
        except DSLError as e:
            if e.source is None:
                e.source = source
            raise
        while len(_graphs) >= _MAX_GRAPHS:
            del _graphs[next(iter(_graphs))]
        _graphs[key] = proto
    return clone_stream(proto)


def clear_source_cache() -> None:
    """Drop all cached parses and elaborated prototypes (for tests)."""
    _parsed.cache_clear()
    _graphs.clear()
