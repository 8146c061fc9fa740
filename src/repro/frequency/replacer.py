"""Maximal frequency replacement over whole stream graphs (§5.2).

Walks the hierarchy like linear replacement, but implements each maximal
linear region in the frequency domain.  Regions where the transform is
not applicable or obviously degenerate (peek 1 with nothing to convolve)
fall back to time-domain linear replacement, matching the implementation
note that frequency replacement builds on the combination machinery.
"""

from __future__ import annotations

from ..errors import StreamGraphError
from ..graph.streams import Stream
from ..linear.combine import LinearityMap, analyze, replace_with
from ..linear.filters import LinearFilter
from ..linear.node import LinearNode
from .filters import make_frequency_stream


def maximal_frequency_replacement(stream: Stream,
                                  strategy: str = "optimized",
                                  backend: str = "fftw",
                                  lmap: LinearityMap | None = None,
                                  min_peek: int = 2,
                                  fft_size: int | None = None,
                                  combine: bool = True) -> Stream:
    """Replace every maximal linear region with a frequency implementation.

    ``min_peek`` guards the degenerate case: a node that peeks a single
    item performs no convolution and stays in the time domain — as does,
    under ``strategy="polyphase"``, one whose phases have a single tap.
    """
    if lmap is None:
        lmap = analyze(stream)

    def make_leaf(node: LinearNode, s: Stream, in_feedback: bool):
        if node.peek < min_peek or in_feedback:
            # frequency filters change firing granularity, which would
            # deadlock a feedback cycle; fall back to the matrix form
            return LinearFilter(node, name=f"Linear[{s.name}]")
        try:
            return make_frequency_stream(node, name=f"Freq[{s.name}]",
                                         strategy=strategy, backend=backend,
                                         fft_size=fft_size)
        except StreamGraphError:
            return LinearFilter(node, name=f"Linear[{s.name}]")

    return replace_with(stream, make_leaf, lmap, combine=combine)
