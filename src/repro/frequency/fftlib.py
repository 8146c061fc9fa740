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


def _convolve_batch(blocks, H, n, forward, inverse, work: list):
    """``inverse(forward(blocks) * H)`` along axis 1 of a ``(k, len)`` stack.

    ``work`` is the calling step's workspace: it keeps the spectrum,
    product and result arrays of the longest batch so far, and a batch
    that fits transforms into their first ``k`` rows (``out=``).  A
    steady stream of batches then allocates nothing here — fresh arrays
    of this size (3 x ~150 KB for FilterBank) are what glibc trims off
    the heap and faults back in on every call.  The result is only
    valid until the next call with the same ``work``.
    """
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


class FrequencyKernel:
    """Precomputed frequency-domain machinery for one linear node column set.

    Handles both backends:

    * ``fftw``   — numpy rfft/irfft (fast), half-complex product, modeled
      split-radix-real counts;
    * ``simple`` — full complex transforms, counted with the radix-2
      closed form (execution still uses numpy for speed; the counted
      implementation is validated against numpy in unit tests).
    """

    def __init__(self, kernels: np.ndarray, n: int, backend: str = "fftw"):
        """``kernels``: (e, u) array, column j = impulse response of push j."""
        if backend not in ("fftw", "simple"):
            raise ValueError(f"unknown FFT backend {backend!r}")
        self.n = n
        self.backend = backend
        self.u = kernels.shape[1]
        #: time-domain impulse responses, kept so :meth:`for_policy` can
        #: retransform them into another dtype's FFT path
        self.kernels = np.asarray(kernels)
        self.H = np.fft.rfft(kernels, n=n, axis=0)  # (n//2+1, u)
        if backend == "fftw":
            per_transform = fftw_counts(n)
            product_points = n // 2 + 1
        else:
            per_transform = simple_fft_counts(n)
            product_points = n
        self.counts_per_block = per_transform.scaled(1 + self.u)
        self.counts_per_block.add(
            elementwise_complex_mult_counts(product_points).scaled(self.u))
        self._typed: dict[str, "_TypedFrequencyKernel"] = {}

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

        Returns an (n, u) array of time-domain results.
        """
        X = np.fft.rfft(x, n=self.n)
        Y = X[:, None] * self.H
        return np.fft.irfft(Y, n=self.n, axis=0)

    def convolve_batch(self, blocks: np.ndarray, work: list) -> np.ndarray:
        """Row-wise :meth:`convolve_block` over a ``(k, block_len)`` stack.

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
        kernels = np.asarray(parent.kernels, dtype=policy.dtype)
        if self._complex:
            self.H = np.fft.fft(kernels, n=self.n, axis=0)  # (n, u)
        else:
            self.H = np.fft.rfft(kernels, n=self.n, axis=0)

    def convolve_block(self, x: np.ndarray) -> np.ndarray:
        if self._complex:
            X = np.fft.fft(x, n=self.n)
            return np.fft.ifft(X[:, None] * self.H, n=self.n, axis=0)
        X = np.fft.rfft(x, n=self.n)
        return np.fft.irfft(X[:, None] * self.H, n=self.n, axis=0)

    def convolve_batch(self, blocks: np.ndarray, work: list) -> np.ndarray:
        pair = ((np.fft.fft, np.fft.ifft) if self._complex
                else (np.fft.rfft, np.fft.irfft))
        return _convolve_batch(blocks, self.H, self.n, *pair, work)
