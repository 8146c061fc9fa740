"""Builders for the state part of a linear node (thesis §7.1) that have
no stateless counterpart.

* :func:`from_difference_equation` — the node of a direct-form IIR
  filter ``y[n] = sum b_k x[n-k] + sum a_k y[n-k]``;
* :func:`boundary_lift` — expansion applied a second time, to the
  recurrence between block boundaries (``s' = drive + s·Cs``), in closed
  form: a block-Toeplitz stack of powers of ``Cs``.

The representation itself is :class:`~repro.linear.node.LinearNode`;
expansion, combination and costing are the one set of functions in
:mod:`repro.linear`.
"""

from __future__ import annotations

import numpy as np

from .node import LinearNode


def from_difference_equation(b_coeffs, a_coeffs) -> LinearNode:
    """Direct-form II transposed IIR: ``y[n] = Σ b_k·x[n-k] + Σ a_k·y[n-k]``.

    ``b_coeffs = [b0, b1, ..., bM]`` (feed-forward), ``a_coeffs =
    [a1, ..., aN]`` (feedback, note the paper-style positive-sum sign
    convention).  The node fires per input sample (e = o = u = 1), with
    state holding the delayed partial sums.
    """
    b = np.asarray(b_coeffs, dtype=float)
    a = np.asarray(a_coeffs, dtype=float)
    k = max(len(b) - 1, len(a))
    b_pad = np.zeros(k + 1)
    b_pad[:len(b)] = b
    a_pad = np.zeros(k)
    a_pad[:len(a)] = a
    # state s[i] = w_{i+1}: y = b0*x + s[0]
    # s'[i] = b_{i+1}*x + a_{i+1}*y + s[i+1]
    A = np.array([[b_pad[0]]])
    As = np.zeros((k, 1))
    if k:
        As[0, 0] = 1.0
    Cx = np.zeros((1, k))
    Cs = np.zeros((k, k))
    for i in range(k):
        # y = x*b0 + s[0]: expand a_{i+1}*y into x and s contributions
        Cx[0, i] = b_pad[i + 1] + a_pad[i] * b_pad[0]
        Cs[0, i] += a_pad[i]  # a_{i+1} * s[0] term
        if i + 1 < k:
            Cs[i + 1, i] += 1.0  # shift: s[i+1] feeds s'[i]
    return LinearNode(A, np.zeros(1), 1, 1, 1, As=As, Cx=Cx, Cs=Cs,
                      s0=np.zeros(k))


def _power_stack(C: np.ndarray, count: int) -> np.ndarray:
    """``C^0 .. C^(count-1)`` as a ``(count, k, k)`` array, by doubling
    (``log2(count)`` stacked products, no per-power loop)."""
    k = len(C)
    out = np.empty((count, k, k), dtype=C.dtype)
    out[0] = np.eye(k)
    m, step = 1, C  # step == C^m
    while m < count:
        w = min(m, count - m)
        out[m:m + w] = out[:w] @ step
        step = step @ step
        m += w
    return out


def boundary_lift(Cs: np.ndarray, blocks: int,
                  dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """Lift the state recurrence ``s_{g+1} = d_g + s_g·Cs`` over up to
    ``blocks`` steps: returns ``(T, P)`` such that, for ``G`` steps with
    drives ``d_0 .. d_{G-1}`` flattened into one row vector ``d``,

        [s_0, s_1, ..., s_G] = d · T + s_0 · P

    — every entry state and the exit state from two products.  The
    recurrence is itself a linear node with state (input ``d_g``, state
    ``s``, output the entry state), so this is
    :func:`~repro.linear.expansion.expand_firings` of that node in
    closed form: ``P`` stacks ``Cs^g`` side by side,
    ``T`` is block upper-triangular Toeplitz with ``Cs^(g-1-j)`` in
    block ``(j, g)``.  Both are causal, so their leading ``g·k`` rows
    and ``(g+1)·k`` columns are the lift over ``g < G`` steps.

    ``Cs`` here is usually already a block power ``Cs^B``.  When
    ``|λ(Cs)| > 1`` the powers overflow ``dtype`` long before the states
    they would multiply do; the zeros of ``T`` would turn those ``inf``
    into ``nan``, so ``G`` is halved until every power is finite
    (``G = 1`` is the plain recurrence and needs ``Cs`` alone).
    """
    k = len(Cs)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _power_stack(np.asarray(Cs, dtype=float),
                              blocks + 1).astype(dtype)
    G = blocks
    while G > 1 and not np.isfinite(powers[:G + 1]).all():
        G //= 2
    powers = powers[:G + 1]
    # a contracting Cs passes through the subnormals on its way to 0,
    # and a product against them runs at a third of the speed
    powers[np.abs(powers) < np.finfo(powers.dtype).tiny] = 0
    P = powers.transpose(1, 0, 2).reshape(k, (G + 1) * k)
    # block (j, g) = Cs^(g-1-j) above the diagonal, zero on and below it
    lag = np.arange(G + 1)[None, :] - 1 - np.arange(G)[:, None]
    T = np.where((lag >= 0)[:, :, None, None], powers[np.maximum(lag, 0)], 0)
    return T.transpose(0, 2, 1, 3).reshape(G * k, (G + 1) * k), P
