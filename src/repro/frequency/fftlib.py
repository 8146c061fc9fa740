"""FFT kernels and cost models for frequency replacement.

The paper compares three FFT strategies (Figure 5-12): a *simple* FFT (the
textbook radix-2 algorithm of thesis §2.3), the *optimized* frequency
transformation, and *FFTW*.  We provide:

* :class:`CountedRadix2FFT` — an actual iterative radix-2 implementation
  whose butterflies are executed (vectorized per stage) and whose
  floating-point operations are counted dynamically; this is the "simple
  FFT".
* ``numpy.fft`` (rfft/irfft) as the FFTW stand-in for fast execution, with
  an analytic split-radix-real cost model (:func:`fftw_counts`).

The dynamic counts of the radix-2 implementation match the classic
closed form — ``N/2·lg N`` complex multiplies and ``N·lg N`` complex
additions — which :func:`simple_fft_counts` encodes; a unit test asserts
the counted implementation agrees with the formula.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ..profiling import Counts


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def fft_size_for(peek: int) -> int:
    """FFT size for a filter of depth ``e`` (thesis §4.1.2, adjusted).

    The thesis picks the first power of two >= 2e, but that degenerates
    when e is itself a power of two (N = 2e gives m = N - 2e + 1 = 1 fresh
    output per block — one FFT per output).  We keep doubling until the
    block yields at least ``e`` fresh outputs (m >= e), the standard
    overlap-save sizing rule; for non-power-of-two e the result usually
    matches the thesis' choice.
    """
    n = next_power_of_two(2 * peek)
    while n - 2 * peek + 1 < peek:
        n *= 2
    return n


def phase_taps(peek: int, phases: int) -> int:
    """Taps of each of the ``phases`` polyphase convolutions of a node
    peeking ``peek`` items: ``ceil(peek / phases)``."""
    return -(-peek // phases)


class CountedRadix2FFT:
    """Iterative decimation-in-time radix-2 FFT with op accounting.

    Butterfly stages are computed with numpy for speed, but the profiler
    counts are exactly those of the scalar loop nest: per stage, N/2
    complex multiplies (4 real mul + 2 real add each) and N complex
    additions/subtractions (2 real add each).
    """

    def __init__(self, n: int):
        if not is_power_of_two(n):
            raise ValueError(f"radix-2 FFT size must be a power of two: {n}")
        self.n = n
        self.stages = n.bit_length() - 1
        self._rev = self._bit_reverse_permutation(n)
        # twiddles per stage
        self._twiddles = []
        half = 1
        for _ in range(self.stages):
            w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
            self._twiddles.append(w)
            half *= 2
        self.counts_per_call = self._op_counts()

    @staticmethod
    def _bit_reverse_permutation(n: int) -> np.ndarray:
        bits = n.bit_length() - 1
        rev = np.zeros(n, dtype=int)
        for i in range(n):
            b = 0
            x = i
            for _ in range(bits):
                b = (b << 1) | (x & 1)
                x >>= 1
            rev[i] = b
        return rev

    def _op_counts(self) -> Counts:
        n, stages = self.n, self.stages
        c = Counts()
        # per stage: n/2 complex mults, n complex add/sub
        c.fmul = 4 * (n // 2) * stages
        c.fadd = (2 * (n // 2) + 2 * n) * stages
        return c

    def transform(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Compute the (I)FFT of ``x`` (length n, zero-pad to call)."""
        if len(x) != self.n:
            raise ValueError(f"input length {len(x)} != {self.n}")
        data = np.asarray(x, dtype=complex)[self._rev]
        for stage, w in enumerate(self._twiddles):
            tw = np.conj(w) if inverse else w
            half = 1 << stage
            size = half * 2
            data = data.reshape(-1, size)
            evens = data[:, :half]
            odds = data[:, half:] * tw
            data = np.concatenate([evens + odds, evens - odds], axis=1)
            data = data.reshape(-1)
        if inverse:
            data = data / self.n
        return data


def simple_fft_counts(n: int) -> Counts:
    """Closed-form op count of one radix-2 complex FFT of size ``n``."""
    stages = n.bit_length() - 1
    c = Counts()
    c.fmul = 4 * (n // 2) * stages
    c.fadd = (2 * (n // 2) + 2 * n) * stages
    return c


def fftw_counts(n: int) -> Counts:
    """Modeled op count of one FFTW real transform of size ``n``.

    FFTW uses split-radix kernels on half-complex (real-input) data.  A
    split-radix real-input FFT needs roughly ``(2/3)·N·lg N`` real
    multiplies and ``(4/3)·N·lg N`` additions — about 3x fewer multiplies
    than the textbook complex radix-2 algorithm.  (Substitution documented
    in DESIGN.md; absolute constants affect Fig 5-12(d) only by a scale
    factor.)
    """
    lg = n.bit_length() - 1
    c = Counts()
    c.fmul = math.ceil(2 * n * lg / 3)
    c.fadd = math.ceil(4 * n * lg / 3)
    return c


def elementwise_complex_mult_counts(n_points: int) -> Counts:
    """Ops of multiplying two complex vectors pointwise (4 mul + 2 add each)."""
    c = Counts()
    c.fmul = 4 * n_points
    c.fadd = 2 * n_points
    return c


def frequency_block_counts(n: int, u: int, phases: int = 1,
                           backend: str = "fftw") -> Counts:
    """Ops of one frequency block of size ``n``: ``phases`` forward and
    ``u`` inverse transforms, the ``phases x u`` spectrum products, and
    the complex adds that sum the phases of each of the ``u`` spectra."""
    if backend == "fftw":
        per_transform, points = fftw_counts(n), n // 2 + 1
    else:
        per_transform, points = simple_fft_counts(n), n
    c = per_transform.scaled(phases + u)
    c.add(elementwise_complex_mult_counts(points).scaled(phases * u))
    c.fadd += 2 * (phases - 1) * u * points
    return c


def _spectra(kernels: np.ndarray, n: int, transform) -> np.ndarray:
    """``transform`` of (e, u) impulse responses along axis 0: (bins, u).
    Polyphase (e, o, u) responses give (o, u, bins), bins innermost."""
    H = transform(kernels, n=n, axis=0)
    if H.ndim == 3:
        H = np.ascontiguousarray(np.moveaxis(H, 0, -1))
    return H


def _convolve_batch(blocks, H, n, forward, inverse, work: list):
    """``inverse(forward(blocks) * H)`` along axis 1 of a ``(k, len)`` stack.

    ``work`` is the calling step's workspace: it keeps the spectrum,
    product and result arrays of the longest batch so far, and a batch
    that fits transforms into their first ``k`` rows (``out=``).  A
    steady stream of batches then allocates nothing here — fresh arrays
    of this size (~150 KB each for a 300-tap filter) are what glibc trims off
    the heap and faults back in on every call.  The result is only
    valid until the next call with the same ``work``.

    A ``(k, len, o)`` stack is ``o`` interleaved phases (polyphase, ``H``
    of shape ``(o, u, bins)``): :func:`_convolve_phases`.
    """
    if blocks.ndim == 3:
        return _convolve_phases(blocks, H, n, forward, inverse, work)
    k = len(blocks)
    if not work or len(work[0]) < k:
        X = forward(blocks, n=n, axis=1)  # (k, n//2+1)
        Y = X[:, :, None] * H[None, :, :]  # (k, n//2+1, u)
        y = inverse(Y, n=n, axis=1)  # (k, n, u)
        work[:] = X, Y, y
        return y
    X, Y, y = (a[:k] for a in work)
    forward(blocks, n=n, axis=1, out=X)
    np.multiply(X[:, :, None], H[None, :, :], out=Y)
    return inverse(Y, n=n, axis=1, out=y)


def _convolve_phases(blocks, H, n, forward, inverse, work: list):
    """Polyphase :func:`_convolve_batch`: ``y_j = inverse(Σ_p
    forward(phase p) * H[p, j])`` for a ``(k, len, o)`` stack, returned
    as a ``(k, n, u)`` view of a ``(k, u, n)`` array.

    Every array keeps the bins innermost, so each ufunc runs one long
    inner loop instead of a length-``u`` one; the phase sum reduces the
    ``(k, o, u, bins)`` products into the workspace's ``(k, u, bins)``
    spectra (``out=``).  ``work`` as for :func:`_convolve_batch`.
    """
    k = len(blocks)
    phases = blocks.transpose(0, 2, 1)  # (k, o, len)
    if not work or len(work[0]) < k:
        X = forward(phases, n=n, axis=2)  # (k, o, bins)
        P = X[:, :, None, :] * H  # (k, o, u, bins)
        Y = np.add.reduce(P, axis=1)  # (k, u, bins)
        y = inverse(Y, n=n, axis=2)  # (k, u, n)
        work[:] = X, P, Y, y
    else:
        X, P, Y, y = (a[:k] for a in work)
        forward(phases, n=n, axis=2, out=X)
        np.multiply(X[:, :, None, :], H, out=P)
        np.add.reduce(P, axis=1, out=Y)
        inverse(Y, n=n, axis=2, out=y)
    return y.transpose(0, 2, 1)


class FrequencyKernel:
    """Precomputed frequency-domain machinery for one linear node column set.

    Handles both backends:

    * ``fftw``   — numpy rfft/irfft (fast), half-complex product, modeled
      split-radix-real counts;
    * ``simple`` — full complex transforms, counted with the radix-2
      closed form (execution still uses numpy for speed; the counted
      implementation is validated against numpy in unit tests).

    The spectra are transformed on first use: the selection DP builds a
    frequency candidate for every region it prices and runs few of them.
    """

    def __init__(self, kernels: np.ndarray, n: int, backend: str = "fftw"):
        """``kernels``: (e, u) array, column j = impulse response of push
        j; or (e, o, u) for ``o`` phases, ``[:, p, j]`` push j's response
        to phase p (:func:`_convolve_phases`)."""
        if backend not in ("fftw", "simple"):
            raise ValueError(f"unknown FFT backend {backend!r}")
        self.n = n
        self.backend = backend
        #: time-domain impulse responses, kept so :meth:`for_policy` can
        #: retransform them into another dtype's FFT path
        self.kernels = np.asarray(kernels)
        self.u = self.kernels.shape[-1]
        self.phases = 1 if self.kernels.ndim == 2 else self.kernels.shape[1]
        self.counts_per_block = frequency_block_counts(n, self.u, self.phases,
                                                       backend)
        self._typed: dict[str, "_TypedFrequencyKernel"] = {}

    @cached_property
    def H(self) -> np.ndarray:
        """(n//2+1, u) spectra; (o, u, n//2+1) for ``o`` phases."""
        return _spectra(self.kernels, self.n, np.fft.rfft)

    def for_policy(self, policy):
        """A convolution kernel computing in ``policy``'s dtype.

        The default float64 policy returns ``self`` (the seed behavior,
        bit for bit).  float32 keeps the real rfft/irfft path but holds
        ``H`` in complex64, so NumPy's precision-preserving FFT stays in
        single precision end-to-end; complex policies switch to the full
        complex fft/ifft pair (a real ``H`` spectrum cannot multiply a
        complex input's two-sided spectrum).  Typed variants are cached
        per policy name — the spectra are recomputed once, not per batch.
        """
        if policy is None or policy.is_default:
            return self
        cached = self._typed.get(policy.name)
        if cached is None:
            cached = _TypedFrequencyKernel(self, policy)
            self._typed[policy.name] = cached
        return cached

    def convolve_block(self, x: np.ndarray) -> np.ndarray:
        """Circular convolution of ``x`` (zero-padded to n) with each kernel.

        Returns an (n, u) array of time-domain results.  With ``o``
        phases ``x`` holds them interleaved, ``o`` items a row.
        """
        if self.phases > 1:
            return self.convolve_batch(x.reshape(1, -1, self.phases), [])[0]
        X = np.fft.rfft(x, n=self.n)
        Y = X[:, None] * self.H
        return np.fft.irfft(Y, n=self.n, axis=0)

    def convolve_batch(self, blocks: np.ndarray, work: list) -> np.ndarray:
        """Row-wise :meth:`convolve_block` over a ``(k, block_len)`` stack
        (``(k, block_len / o, o)`` with ``o`` phases).

        Returns a ``(k, n, u)`` array; row ``i`` equals
        ``convolve_block(blocks[i])``.  Used by the plan backend's batched
        frequency steps: one rfft/irfft call covers every firing in the
        batch (``work``: see :func:`_convolve_batch`).
        """
        return _convolve_batch(blocks, self.H, self.n, np.fft.rfft,
                               np.fft.irfft, work)


class _TypedFrequencyKernel:
    """A :class:`FrequencyKernel` view computing in a policy dtype.

    Shares the parent's sizes and analytic counts; only the spectra and
    the transform pair differ.  NumPy's pocketfft preserves single
    precision (``rfft(float32) -> complex64``), so the float32 variant
    is a true single-precision pipeline, not a downcast of f64 results.
    """

    def __init__(self, parent: FrequencyKernel, policy):
        self.n = parent.n
        self.u = parent.u
        self.backend = parent.backend
        self.counts_per_block = parent.counts_per_block
        self._complex = bool(policy.is_complex)
        self._kernels = np.asarray(parent.kernels, dtype=policy.dtype)

    @cached_property
    def H(self) -> np.ndarray:
        """Complex policies: (n, u) two-sided spectra, (o, u, n) with
        ``o`` phases."""
        return _spectra(self._kernels, self.n,
                        np.fft.fft if self._complex else np.fft.rfft)

    def convolve_batch(self, blocks: np.ndarray, work: list) -> np.ndarray:
        pair = ((np.fft.fft, np.fft.ifft) if self._complex
                else (np.fft.rfft, np.fft.irfft))
        return _convolve_batch(blocks, self.H, self.n, *pair, work)
