"""Stateful linear nodes — the thesis' §7.1 future-work extension.

A *stateful* linear node carries a state vector ``s`` across firings:

    y    = x·Ax + s·As + bx          (outputs, as in Definition 1)
    s'   = x·Cx + s·Cs + bs          (next state)

with ``x`` the input window in the standard reversed convention.  This
represents IIR filters and the computation inside feedbackloops, which
the stateless framework cannot express.

Provided here:

* :class:`StatefulLinearNode` — the representation plus a reference
  simulator;
* :func:`from_difference_equation` — build the node for a direct-form
  IIR filter ``y[n] = sum b_k x[n-k] + sum a_k y[n-k]``;
* :func:`expand_stateful` — Transformation 1 lifted to state: ``n``
  firings compose into one block operator (the state update is a monoid
  action, so the lifted matrices stack powers of ``Cs`` against the
  input window — Hou et al.'s state-monoid composition);
* :func:`boundary_lift` — the same lift applied a second time, to the
  recurrence between block boundaries (``s' = drive + s·Cs``), in closed
  form: a block-Toeplitz stack of powers of ``Cs``;
* :func:`combine_stateful_pipeline` — composition of two stateful nodes
  in sequence; rate-changing pairs reduce to the matched case via
  expansion (with recomputation columns when the downstream node peeks
  ahead, mirroring the stateless combination rules);
* :func:`stateful_cost_counts` — exact per-firing FLOP counts of the
  runtime leaf (the backend-independent accounting contract);
* :class:`StatefulLinearFilter` — a runtime leaf executing the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CombinationError
from ..graph.streams import PrimitiveFilter
from ..profiling import Counts


@dataclass(frozen=True)
class StatefulLinearNode:
    """An affine stream block with persistent state.

    Shapes: ``Ax (e,u)``, ``As (k,u)``, ``bx (u,)``, ``Cx (e,k)``,
    ``Cs (k,k)``, ``bs (k,)``, initial state ``s0 (k,)``.
    """

    Ax: np.ndarray
    As: np.ndarray
    bx: np.ndarray
    Cx: np.ndarray
    Cs: np.ndarray
    bs: np.ndarray
    s0: np.ndarray
    peek: int
    pop: int
    push: int

    def __post_init__(self):
        e, u = self.peek, self.push
        k = len(self.s0)
        object.__setattr__(self, "Ax", np.asarray(self.Ax, dtype=float))
        object.__setattr__(self, "As", np.asarray(self.As, dtype=float))
        object.__setattr__(self, "bx", np.asarray(self.bx, dtype=float))
        object.__setattr__(self, "Cx", np.asarray(self.Cx, dtype=float))
        object.__setattr__(self, "Cs", np.asarray(self.Cs, dtype=float))
        object.__setattr__(self, "bs", np.asarray(self.bs, dtype=float))
        object.__setattr__(self, "s0", np.asarray(self.s0, dtype=float))
        if self.Ax.shape != (e, u):
            raise ValueError(f"Ax shape {self.Ax.shape} != ({e},{u})")
        if self.As.shape != (k, u):
            raise ValueError(f"As shape {self.As.shape} != ({k},{u})")
        if self.Cx.shape != (e, k):
            raise ValueError(f"Cx shape {self.Cx.shape} != ({e},{k})")
        if self.Cs.shape != (k, k):
            raise ValueError(f"Cs shape {self.Cs.shape} != ({k},{k})")
        if self.bx.shape != (u,) or self.bs.shape != (k,):
            raise ValueError("offset vector shapes do not match rates")

    @property
    def state_dim(self) -> int:
        return len(self.s0)

    # ------------------------------------------------------------------
    def simulate(self, inputs, firings: int) -> np.ndarray:
        """Reference execution: concatenated outputs of ``firings`` firings."""
        inputs = np.asarray(inputs, dtype=float)
        s = self.s0.copy()
        out = []
        pos = 0
        for _ in range(firings):
            window = inputs[pos:pos + self.peek]
            if len(window) < self.peek:
                raise ValueError("not enough input")
            x = window[::-1]
            y = x @ self.Ax + s @ self.As + self.bx
            s = x @ self.Cx + s @ self.Cs + self.bs
            out.append(y[::-1])
            pos += self.pop
        return np.concatenate(out) if out else np.zeros(0)

    def is_stable(self) -> bool:
        """Spectral radius of Cs < 1 (BIBO stability of the state part)."""
        if self.state_dim == 0:
            return True
        return bool(np.max(np.abs(np.linalg.eigvals(self.Cs))) < 1.0)


def from_difference_equation(b_coeffs, a_coeffs) -> StatefulLinearNode:
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
    Ax = np.array([[b_pad[0]]])
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
    return StatefulLinearNode(
        Ax=Ax, As=As, bx=np.zeros(1), Cx=Cx, Cs=Cs, bs=np.zeros(k),
        s0=np.zeros(k), peek=1, pop=1, push=1)


def from_stateless(node) -> StatefulLinearNode:
    """Embed a stateless LinearNode as a stateful node with k = 0."""
    return StatefulLinearNode(
        Ax=node.A, As=np.zeros((0, node.push)), bx=node.b,
        Cx=np.zeros((node.peek, 0)), Cs=np.zeros((0, 0)), bs=np.zeros(0),
        s0=np.zeros(0), peek=node.peek, pop=node.pop, push=node.push)


def expand_stateful(node: StatefulLinearNode, firings: int,
                    advance: int | None = None) -> StatefulLinearNode:
    """Lift ``firings`` consecutive firings into one block operator.

    The state update ``s' = x·Cx + s·Cs + bs`` is a monoid action on
    affine maps, so ``n`` firings compose exactly: the lifted ``As``
    stacks ``As·Cs^t`` blocks, the lifted ``Ax`` threads the input
    window through the same powers, and the lifted state update is the
    ``n``-fold composition.  The expanded node is fully interchangeable
    with ``firings`` firings of the original.

    ``advance`` (default ``firings``) caps how many firings the *state*
    (and the pop rate) actually advances: with ``advance < firings`` the
    trailing firings are recomputation — their outputs are produced from
    the deterministic state trajectory but re-derived on the next firing
    (the stateful analogue of the overlap columns stateless expansion
    introduces), which is what rate-changing pipeline combination needs
    when the downstream node peeks ahead.
    """
    if firings < 1:
        raise ValueError("firings must be positive")
    if advance is None:
        advance = firings
    if not 0 <= advance <= firings:
        raise ValueError("advance must lie in [0, firings]")
    e, o, u = node.peek, node.pop, node.push
    k = node.state_dim
    E = e + (firings - 1) * o
    U = firings * u
    Ax2 = np.zeros((E, U))
    As2 = np.zeros((k, U))
    bx2 = np.zeros(U)
    # affine state trackers: before firing t, s_t = x'·G + s0·H + c
    G = np.zeros((E, k))
    H = np.eye(k)
    c = np.zeros(k)
    Cx2, Cs2, bs2 = G.copy(), H.copy(), c.copy()  # advance == 0 case
    for t in range(firings):
        # firing t reads x' rows [off, off+e): x_t[i] = peek(t*o + e-1-i)
        off = E - e - t * o
        cols = slice(U - (t + 1) * u, U - t * u)
        Ax2[:, cols] = G @ node.As
        Ax2[off:off + e, cols] += node.Ax
        As2[:, cols] = H @ node.As
        bx2[cols] = node.bx + c @ node.As
        G = G @ node.Cs
        G[off:off + e, :] += node.Cx
        H = H @ node.Cs
        c = c @ node.Cs + node.bs
        if t + 1 == advance:
            Cx2, Cs2, bs2 = G.copy(), H.copy(), c.copy()
    return StatefulLinearNode(
        Ax=Ax2, As=As2, bx=bx2, Cx=Cx2, Cs=Cs2, bs=bs2, s0=node.s0,
        peek=E, pop=advance * o, push=U)


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
    recurrence is itself a stateful linear node (input ``d_g``, state
    ``s``, output the entry state), so this is :func:`expand_stateful`
    of that node in closed form: ``P`` stacks ``Cs^g`` side by side,
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


def _combine_matched(n1: StatefulLinearNode, n2: StatefulLinearNode,
                     window: int) -> StatefulLinearNode:
    """Compose with Λ2 reading the oldest ``window`` of Λ1's ``u1``
    outputs per firing (``window == e2 == o2·(combined firings)``).

    The combined state is the concatenation (s1, s2); Λ2 sees Λ1's
    output ``y1 = x·Ax1 + s1·As1 + bx1`` as its input window (reversal
    conventions cancel because both sides use the same ordering).  When
    ``u1 > window`` the surplus columns are recomputation — they exist
    only to advance Λ1's state consistently and are sliced away here.
    """
    u1 = n1.push
    lo = u1 - window  # oldest `window` stream items are y1[lo:]
    k1, k2 = n1.state_dim, n2.state_dim
    Axs, Ass, bxs = n1.Ax[:, lo:], n1.As[:, lo:], n1.bx[lo:]
    Ax = Axs @ n2.Ax
    As = np.vstack([Ass @ n2.Ax, n2.As])
    bx = bxs @ n2.Ax + n2.bx
    # state updates: s1' as in Λ1; s2' = y1·Cx2 + s2·Cs2 + bs2
    Cx = np.hstack([n1.Cx, Axs @ n2.Cx])
    Cs = np.zeros((k1 + k2, k1 + k2))
    Cs[:k1, :k1] = n1.Cs
    Cs[:k1, k1:] = Ass @ n2.Cx
    Cs[k1:, k1:] = n2.Cs
    bs = np.concatenate([n1.bs, bxs @ n2.Cx + n2.bs])
    return StatefulLinearNode(
        Ax=Ax, As=As, bx=bx, Cx=Cx, Cs=Cs, bs=bs,
        s0=np.concatenate([n1.s0, n2.s0]),
        peek=n1.peek, pop=n1.pop, push=n2.push)


def combine_stateful_pipeline(n1: StatefulLinearNode,
                              n2: StatefulLinearNode) -> StatefulLinearNode:
    """Compose two stateful nodes in sequence (``Λ1 ; Λ2``).

    Rate-matched pairs (``u1 == e2 == o2``, the IIR-cascade case)
    compose directly; rate-changing pairs are first expanded to a common
    block — ``lcm(u1, o2)`` items per combined firing — and when Λ2
    peeks ahead (``e2 > o2``) Λ1 gains recomputation firings so the
    lookahead window is covered without over-advancing its state.
    """
    if n1.push < 1 or n2.pop < 1:
        raise CombinationError(
            "stateful combination requires data flow (u1 >= 1, o2 >= 1)")
    if n1.push == n2.peek and n2.peek == n2.pop:
        return _combine_matched(n1, n2, n2.peek)
    block = math.lcm(n1.push, n2.pop)
    k1 = block // n1.push  # upstream firings actually advanced
    k2 = block // n2.pop  # downstream firings per combined firing
    n2x = expand_stateful(n2, k2)
    # Λ1 must exhibit e2' outputs per combined firing while only
    # advancing k1: any surplus firings are recomputation columns.
    total = max(k1, -(-n2x.peek // n1.push))  # ceil(e2' / u1)
    n1x = expand_stateful(n1, total, advance=k1)
    return _combine_matched(n1x, n2x, n2x.peek)


def stateful_cost_counts(node: StatefulLinearNode) -> Counts:
    """Exact float ops of one firing, per output/state component.

    Mirrors :func:`~repro.linear.matmul.direct_cost_counts`'s convention
    (the interp ground truth for the equivalent scalar expression): each
    component ``y_j`` / ``s'_j`` costs one multiply per nonzero term, one
    add per term beyond the first, and one add for a nonzero offset —
    *not* one add per multiply, which over-counts single-term rows and
    misses nonzero biases.
    """
    c = Counts()
    for A, B, bias in ((node.Ax, node.As, node.bx),
                       (node.Cx, node.Cs, node.bs)):
        for j in range(A.shape[1]):
            terms = (int(np.count_nonzero(A[:, j]))
                     + int(np.count_nonzero(B[:, j])))
            c.fmul += terms
            c.fadd += max(terms - 1, 0)
            if bias[j] != 0.0:
                c.fadd += 1
    return c


class StatefulLinearFilter(PrimitiveFilter):
    """Runtime leaf executing a stateful linear node."""

    def __init__(self, node: StatefulLinearNode,
                 name: str = "StatefulLinear"):
        self.stateful_node = node
        self.name = name
        self.peek = node.peek
        self.pop = node.pop
        self.push = node.push

    def make_runner(self, profiler):
        node = self.stateful_node
        counts = stateful_cost_counts(node)
        name = self.name

        class _Runner:
            def __init__(self):
                self.s = node.s0.copy()

            def fire(self, ch_in, ch_out):
                window = ch_in.peek_block(node.peek)
                x = window[::-1]
                y = x @ node.Ax + self.s @ node.As + node.bx
                self.s = x @ node.Cx + self.s @ node.Cs + node.bs
                ch_out.push_array(y[::-1])
                ch_in.pop_block(node.pop)
                profiler.add_counts(counts, filter_name=name)

        return _Runner()
