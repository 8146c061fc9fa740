"""Cost functions for optimization selection (thesis §4.3.3).

``direct_cost`` follows the thesis formula: a per-firing constant of 185
plus 2u, one unit per non-zero offset, and three per non-zero matrix entry
(multiply + add + load) — over the output map and, for a node with state
(§7.1), the state advance as well.

``frequency_cost`` is reconstructed (the thesis text of the formula is
partly garbled in our source); we make it *self-consistent with the
implementation*: the analytic FLOP count of one optimized frequency block,
normalized per node firing, plus the thesis' decimator penalty
``dec(s) = (o-1)*(185 + 4u)`` and the same 185 + 2u per-firing constant.
The decisive properties of the original are preserved:

* for pop = 1 and large peek, cost grows ~ lg e per output while the
  direct cost grows ~ 3e — frequency wins for big filters;
* every extra popped item multiplies the convolution work and adds the
  decimator penalty — frequency loses badly for large pop (the Radar
  case, thesis §5.2).

That is the *thesis* model, kept for the paper's configurations.  The
*batched* model (``batched_*``, ``optimize="auto"``) prices what the plan
backend runs instead: a node of pop ``o`` becomes one polyphase block
(:mod:`repro.frequency.filters`) — ``o`` phases of ``ceil(e/o)`` taps,
``o`` forward and ``u`` inverse transforms of the phase's FFT size per
``o*r'`` inputs — so pop multiplies no convolution work and there is no
decimator to price.
"""

from __future__ import annotations

from ..frequency.fftlib import (fft_size_for, frequency_block_counts,
                                phase_taps)
from ..linear.node import LinearNode

#: Per-firing constant overhead (function call, buffer management) used by
#: the thesis' cost model.
FIRING_OVERHEAD = 185.0


def direct_cost(node: LinearNode) -> float:
    """Estimated per-firing execution time of the direct implementation."""
    return (FIRING_OVERHEAD + 2.0 * node.push + node.nnz_b
            + 3.0 * node.nnz)


def decimator_cost(node: LinearNode) -> float:
    """dec(s) = (o - 1) * (185 + 4u): the cost of discarding extra outputs."""
    if node.pop <= 1:
        return 0.0
    return (node.pop - 1) * (FIRING_OVERHEAD + 4.0 * node.push)


def frequency_block_flops(peek: int, push: int,
                          fft_size: int | None = None,
                          phases: int = 1) -> float:
    """FLOPs of one optimized-frequency block per firing it covers: an
    (e, u) node at pop 1, or ``phases`` phases of ``peek`` taps each at
    pop ``phases``."""
    e, u = peek, push
    n = fft_size if fft_size is not None else fft_size_for(e)
    m = n - 2 * e + 1
    if m < 1:
        return float("inf")
    r = m + e - 1
    block = frequency_block_counts(n, u, phases)
    flops = block.flops + u * (e - 1) + u * r  # partials + offset adds
    return flops / r  # per firing (pretend pop-1 ones at phases = 1)


def frequency_cost(node: LinearNode, fft_size: int | None = None) -> float:
    """Estimated per-firing execution time of the frequency implementation."""
    per_input = frequency_block_flops(node.peek, node.push, fft_size)
    return (FIRING_OVERHEAD + 2.0 * node.push
            + node.pop * per_input
            + decimator_cost(node))


# ---------------------------------------------------------------------------
# Batched cost model (the plan backend's execution reality)
# ---------------------------------------------------------------------------
#
# The thesis model prices *scalar* firings: a 185-op call overhead per
# firing and per-push bookkeeping dominate small filters, which is why the
# DP can prefer leaving tiny filters alone.  The plan backend executes B
# firings per kernel dispatch, so those overheads amortize by 1/B and the
# arithmetic itself changes character: the direct implementation becomes a
# dense (B, e) @ (e, u) BLAS product (zero-skipping no longer applies),
# and a frequency block's FFT setup is shared across the whole batch —
# a polyphase block at the node's own pop rate, with no decimator.

#: Default batch size the batched cost model amortizes per-firing
#: overheads over (a conservative stand-in for plan chunk sizes, which
#: are typically much larger).
DEFAULT_COST_BATCH = 1024


def batched_direct_cost(node: LinearNode, batch: int = DEFAULT_COST_BATCH,
                        policy=None) -> float:
    """Per-firing cost of the plan backend's batched dense matmul — with
    state (``k > 0``: the lifted stateful kernel) plus the state advance
    and what the block structure adds: one Python pass per ``B·G``
    firings and, per block, a row of the boundary lift (``G·k x k`` of
    it), at the lengths the kernel will actually use (``B`` the
    calibrated one when a calibration cache is present).  Every state
    term vanishes at ``k = 0``."""
    k = node.state_dim
    carry = lift = 0.0
    if k:
        from ..exec.kernels import (stateful_block_length,  # no cycle
                                    stateful_group_length)

        block = stateful_block_length(node.pop, node.push, policy)
        group = stateful_group_length(k)
        carry = FIRING_OVERHEAD / (block * group)  # per-group state carry
        lift = 2.0 * group * k * k / block  # boundary lift
    return (FIRING_OVERHEAD / batch + carry + lift
            + 2.0 * (node.peek + k) * node.push  # dense output map
            + 2.0 * (node.peek + k) * k)  # dense state advance


#: Relative per-FLOP cost of the batched FFT path vs the dense BLAS
#: matmul: rfft -> pointwise complex product -> irfft streams several
#: large complex temporaries, so its effective throughput per counted
#: FLOP is a small factor worse than one fused GEMM.  This is the
#: *analytic fallback*; with a calibration cache present
#: (:mod:`repro.exec.calibrate`) the measured fft/matmul ns-per-flop
#: ratio of the actual machine replaces it.
FFT_THROUGHPUT_PENALTY = 2.0


def _fft_penalty(peek: int, fft_size: int, policy=None) -> float:
    """The FFT-vs-matmul throughput penalty: measured when a calibration
    for the policy's dtype exists, the modeled constant otherwise."""
    from ..exec.calibrate import active_calibration  # deferred: no cycle

    cal = active_calibration()
    if cal is not None:
        name = policy.name if policy is not None else "f64"
        ratio = cal.fft_matmul_ratio(name, peek=peek, fft_size=fft_size)
        if ratio is not None:
            return ratio
    return FFT_THROUGHPUT_PENALTY


def batched_frequency_cost(node: LinearNode,
                           batch: int = DEFAULT_COST_BATCH,
                           fft_size: int | None = None,
                           policy=None) -> float:
    """Per-firing cost of the plan backend's batched FFT convolution:
    the polyphase block of ``o = pop`` phases of ``ceil(e/o)`` taps
    (``fft_size`` is the phase's).

    The per-flop penalty of the FFT path relative to the dense matmul
    comes from the calibration cache when one is present for this
    machine (the empirically-tuned DP the paper argues for), else from
    the modeled :data:`FFT_THROUGHPUT_PENALTY` — looked up at the
    phase's taps and FFT size.
    """
    taps = phase_taps(node.peek, node.pop)
    n = fft_size if fft_size is not None else fft_size_for(taps)
    per_firing = frequency_block_flops(taps, node.push, n, node.pop)
    return (FIRING_OVERHEAD / batch
            + per_firing * _fft_penalty(taps, n, policy))


# ---------------------------------------------------------------------------
# Data-parallel fission — fissioned vs fused (parallel engine)
# ---------------------------------------------------------------------------

#: Modeled cost of dispatching one parallel task (pickling a message,
#: pipe round trip, cursor bookkeeping), in the same abstract units as
#: FIRING_OVERHEAD, amortized over the batch like it.
FISSION_DISPATCH_OVERHEAD = 50_000.0


def fission_speedup(node, k: int, batch: int = DEFAULT_COST_BATCH,
                    policy=None) -> float:
    """Estimated wall-clock speedup of ``k``-way data-parallel fission
    of a linear leaf over the fused batched kernel.

    ``peek == pop`` stateless leaves fission by round-robin cloning, so
    the parallel compute is exactly ``fused / k``.  Lookahead and
    stateful leaves go through the state-monoid lift: every replica
    reads the full ``k``-firing window ``E = e + (k-1)·o`` and repeats
    the (tiny) state advance, so per-replica work inflates by roughly
    ``(E + k_s) / (e + k_s)`` before dividing by ``k`` — peek-dominated
    filters amortize the inflation, shallow ones don't.  Split/join
    copies and task dispatch are charged as serial overhead.  All terms
    reuse the calibrated batched cost model, so a measured machine
    prices fission with the same constants as the selection DP.
    """
    if k <= 1:
        return 1.0
    ks = node.state_dim
    e, o, u = node.peek, node.pop, node.push
    fused = batched_direct_cost(node, batch, policy)
    if ks == 0 and e == o:
        compute = fused / k
        copies = o + u  # round-robin scatter + gather, serial
    else:
        E = e + (k - 1) * o
        # replica firing: dense output slice + full state advance, once
        # per k original firings, spread over k parallel replicas
        replica = (FIRING_OVERHEAD / batch
                   + 2.0 * (E + ks) * u
                   + 2.0 * (E + ks) * ks)
        compute = replica / k
        copies = o * k + u  # duplicate broadcast + gather, serial
    serial = copies + FISSION_DISPATCH_OVERHEAD / batch
    return fused / (compute + serial)
