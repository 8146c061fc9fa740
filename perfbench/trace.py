"""In-memory spans around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index
of the span that was open when this one started (-1 at top level) and
``call`` is one identifier shared by every span of the same outermost
call.  Spans stay in a list until :meth:`Tracer.write` dumps them at the
end of the run; a layer's *self time* is its span minus the part its
child spans (those whose ``parent`` is its index) cover.

Spans are recorded from the benchmark's own files only — spans inside
``src/repro`` are a later issue (ROADMAP item 6).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`span` a no-op so
    the untraced run executes the same code path."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, call]
        self._open: list[int] = []
        self._calls = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        if self._open:
            parent = self._open[-1]
            call = self.spans[parent][4]
        else:
            parent = -1
            call = self._calls
            self._calls += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, call])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "call")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
