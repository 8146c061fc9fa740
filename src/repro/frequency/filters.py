"""Frequency-domain replacement filters (thesis §4.1).

A linear node ``{A, b, e, o, u}`` is a bank of ``u`` convolutions (one per
output column) when viewed at pop rate 1; both transformations implement
those convolutions by FFT -> pointwise multiply -> IFFT, then recover the
declared pop rate with a :class:`Decimator` that keeps the first ``u`` of
every ``u*o`` outputs.

* :class:`NaiveFreqFilter` (Transformation 5): overlap-save with hop ``m``
  — each firing peeks ``m+e-1`` items, pops ``m``, pushes ``u*m``; the
  ``e-1``-item head and tail of each block are discarded.
* :class:`OptimizedFreqFilter` (Transformation 6): disjoint blocks of
  ``r = m+e-1`` inputs; the partial head/tail sums of adjacent blocks are
  *added* to recover the ``e-1`` boundary outputs, so every firing pushes
  ``u*r`` outputs (``u*m`` on the first firing, before partials exist).

The FFT size follows the thesis: ``N = 2^ceil(lg 2e)``, ``m = N-2e+1``;
both can be overridden for the Figure 5-12 sweep.

That is the paper's construction, and what the figures count.  For
``o > 1`` it convolves at every input offset and the decimator then
drops ``o-1`` of every ``o`` results — why §5 finds that "frequency
loses badly for large pop".  The plan pipeline instead builds
:class:`OptimizedFreqFilter` at the node's own pop rate (strategy
``"polyphase"``): input item ``i`` is item ``i // o`` of phase ``i % o``,
and output column ``j`` is the sum over the ``o`` phases of pop-1
convolutions of ``e' = ceil(e/o)`` taps.  A block of ``o*r'`` inputs
costs ``o`` forward and ``u`` inverse transforms of size
``N' = fft_size_for(e')`` and pushes ``u*r'`` outputs, none discarded;
at ``o = 1`` it is Transformation 6 itself.
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamGraphError
from ..graph.streams import Pipeline, PrimitiveFilter, Stream
from ..linear.node import LinearNode
from ..profiling import Counts
from ..runtime.channels import Stateful
from .fftlib import FrequencyKernel, fft_size_for, phase_taps


def _push_kernels(node: LinearNode, phases: int = 1) -> np.ndarray:
    """(e, u) array whose column j is the impulse response of push j.

    Push j uses matrix column ``u-1-j``; the convolution kernel is that
    column as-is: ``out_j[i] = sum_k A[k, u-1-j] * in[i+e-1-k]``.

    With ``o = phases > 1``: an (e', o, u) array, ``e' = ceil(e/o)``.
    The coefficient of ``peek(q*o + p)`` is tap ``e'-1-q`` of push j's
    response to phase ``p``; taps past ``peek(e-1)`` are zero.
    """
    if phases == 1:
        return node.A[:, ::-1]
    taps = phase_taps(node.peek, phases)
    by_peek = np.zeros((taps * phases, node.push), dtype=node.A.dtype)
    by_peek[:node.peek] = node.A[::-1, ::-1]  # row d: peek(d)'s coefficients
    return by_peek.reshape(taps, phases, node.push)[::-1]


def _push_offsets(node: LinearNode) -> np.ndarray:
    return node.b[::-1]


class Decimator(PrimitiveFilter):
    """Keeps the first ``u`` of every ``u*o`` items (Transformation 5)."""

    def __init__(self, o: int, u: int, name: str = "Decimator"):
        if o < 1 or u < 1:
            raise StreamGraphError("decimator rates must be positive")
        self.o = o
        self.u = u
        self.peek = u * o
        self.pop = u * o
        self.push = u
        self.name = name

    def make_runner(self, profiler):
        o, u = self.o, self.u

        class _Runner(Stateful):
            def fire(self, ch_in, ch_out):
                block = ch_in.peek_block(u * o)
                ch_out.push_array(block[:u])
                ch_in.pop_block(u * o)

        return _Runner()


class _FreqBase(PrimitiveFilter):
    def __init__(self, node: LinearNode, name: str, backend: str,
                 fft_size: int | None, phases: int = 1):
        if node.pop != phases or phases < 1:
            raise StreamGraphError(
                "frequency filters operate at pop 1; wrap with "
                "make_frequency_stream for o > 1")
        e = phase_taps(node.peek, phases)
        if phases > 1 and e < 2:
            raise StreamGraphError(
                f"polyphase: {phases} phases of peek {node.peek} leave "
                "fewer than 2 taps each")
        n = fft_size if fft_size is not None else fft_size_for(e)
        m = n - 2 * e + 1
        if m < 1:
            raise StreamGraphError(
                f"FFT size {n} too small for peek {e} (need >= {2 * e})")
        self.linear_node_time_domain = node
        self.name = name
        self.e = e
        self.u = node.push
        self.n = n
        self.m = m
        self.phases = phases
        self.backend = backend
        self.kernel = FrequencyKernel(_push_kernels(node, phases), n, backend)
        self.b_push = _push_offsets(node)
        self._b_adds = int(np.count_nonzero(self.b_push))


class NaiveFreqFilter(_FreqBase):
    """Transformation 5: overlapping blocks, partial sums discarded."""

    def __init__(self, node: LinearNode, name: str = "FreqNaive",
                 backend: str = "fftw", fft_size: int | None = None):
        super().__init__(node, name, backend, fft_size)
        self.peek = self.m + self.e - 1
        self.pop = self.m
        self.push = self.u * self.m

    def make_runner(self, profiler):
        e, m, u = self.e, self.m, self.u
        kernel, b_push = self.kernel, self.b_push
        counts = kernel.counts_per_block.copy()
        counts.fadd += self._b_adds * m  # adding b to each kept output
        name = self.name

        class _Runner(Stateful):
            def fire(self, ch_in, ch_out):
                x = ch_in.peek_block(m + e - 1)
                y = kernel.convolve_block(x)  # (n, u)
                kept = y[e - 1:e - 1 + m, :] + b_push
                ch_out.push_array(kept.reshape(-1))
                ch_in.pop_block(m)
                profiler.add_counts(counts, filter_name=name)

        return _Runner()


class OptimizedFreqFilter(_FreqBase):
    """Transformation 6: disjoint blocks, boundary outputs from partials —
    at the node's own pop rate ``o``, as ``o`` phases of ``e`` taps each
    (``e``, ``m``, ``r`` are a phase's; a firing pops ``o*r``)."""

    def __init__(self, node: LinearNode, name: str = "FreqOpt",
                 backend: str = "fftw", fft_size: int | None = None):
        super().__init__(node, name, backend, fft_size, phases=node.pop)
        r = self.m + self.e - 1
        self.r = r
        self.peek = self.phases * r
        self.pop = self.phases * r
        self.push = self.u * r
        self.init_peek = self.phases * r
        self.init_pop = self.phases * r
        self.init_push = self.u * self.m

    def make_runner(self, profiler):
        e, m, u, r = self.e, self.m, self.u, self.r
        block = self.pop
        kernel, b_push = self.kernel, self.b_push
        init_counts = kernel.counts_per_block.copy()
        init_counts.fadd += self._b_adds * m
        steady_counts = kernel.counts_per_block.copy()
        steady_counts.fadd += self._b_adds * r  # b on all r outputs/column
        steady_counts.fadd += u * (e - 1)  # partial-sum completion adds
        name = self.name

        class _Runner(Stateful):
            STATE = ("partials",)

            def __init__(self):
                self.partials: np.ndarray | None = None

            def fire(self, ch_in, ch_out):
                x = ch_in.peek_block(block)
                y = kernel.convolve_block(x)  # (n, u)
                if self.partials is None:
                    ch_out.push_array(
                        (y[e - 1:e - 1 + m, :] + b_push).reshape(-1))
                    profiler.add_counts(init_counts, filter_name=name)
                else:
                    head = y[:e - 1, :] + self.partials + b_push
                    ch_out.push_array(head.reshape(-1))
                    ch_out.push_array(
                        (y[e - 1:e - 1 + m, :] + b_push).reshape(-1))
                    profiler.add_counts(steady_counts, filter_name=name)
                self.partials = y[m + e - 1:m + 2 * e - 2, :].copy()
                ch_in.pop_block(block)

        return _Runner()


def make_frequency_stream(node: LinearNode, name: str = "Freq",
                          strategy: str = "optimized",
                          backend: str = "fftw",
                          fft_size: int | None = None) -> Stream:
    """Build the full frequency implementation of a linear node.

    Returns the frequency filter alone for ``o = 1``, or a pipeline of the
    pop-1 frequency filter and a decimator for ``o > 1`` (both
    transformations' final step).  ``strategy="polyphase"`` is
    Transformation 6 at pop ``o``, one filter and no decimator; it raises
    :class:`StreamGraphError` when the phases have fewer than 2 taps.
    """
    o = node.pop
    if strategy == "polyphase":
        if o > 1:
            return OptimizedFreqFilter(node, name=f"{name}.{strategy}",
                                       backend=backend, fft_size=fft_size)
        strategy = "optimized"  # what polyphase is at o = 1
    if o == 1:
        pop1 = node
    else:
        pop1 = LinearNode(node.A, node.b, node.peek, 1, node.push)
    cls = {"naive": NaiveFreqFilter, "optimized": OptimizedFreqFilter}
    try:
        freq_cls = cls[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    freq = freq_cls(pop1, name=f"{name}.{strategy}", backend=backend,
                    fft_size=fft_size)
    if o == 1:
        return freq
    return Pipeline([freq, Decimator(o, node.push, name=f"{name}.dec")],
                    name=name)
