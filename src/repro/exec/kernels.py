"""Batched step kernels executed by the plan backend.

Each step executes ``n`` consecutive firings of one flattened graph node
against :class:`~repro.exec.ring.RingBuffer` channels — or of ``b``
*sibling* nodes at once, the look-alike branches of a splitjoin the
planner found to differ in coefficients only: :class:`MatmulStep` and
:class:`LaneStep` take the siblings' coefficients stacked along a
leading axis, read a ``(b, ·)`` ring and write one, and the splitter
and joiner steps on either side scatter into and gather from such a
ring with one transposed copy.  A plain step is the ``b = 1`` case of
the same class, its arrays without the axis.

* :class:`MatmulStep` — a linear filter's ``n`` firings collapse into one
  ``(n, peek) @ (peek, push)`` NumPy matrix product over a strided window
  view of the input ring (the paper's "linear filters are matrix
  multiplications", applied across firings instead of within one);
* :class:`StatefulLinearStep` — a stateful-linear filter's firings lift
  twice, into blocks and then over the block boundaries: four matmuls
  per 4096 firings or so, no Python per block;
* splitter/joiner steps become reshape + strided scatter/gather;
* trivial primitives (identity, decimator, sources, collector) become
  block transfers;
* :class:`PeriodicSourceStep` replays an IR source's outputs from the
  table the planner fired once, at build, until its state recurred;
* :class:`LaneStep` evaluates ``n`` firings of a stateless non-linear
  filter, or of a counter-driven source, as one call of its generated
  lane form — NumPy ufuncs over the ``(n, peek)`` window;
* :class:`SinusoidStep` — sources that push sums of sinusoids of a
  counter as one ``(sin, cos)`` basis, their linear reader folded on;
* :class:`FallbackStep` fires the node's existing scalar runner (compiled
  work function or primitive runner) ``n`` times — the escape hatch for
  prework, array state and unknown primitives, with exact FLOP-count
  parity;
* :class:`FeedbackStep` executes a whole feedback island — the flattened
  cycle of one FeedbackLoop — data-driven behind a fixed-rate facade,
  its members firing through their own batched kernels with lookahead
  bounded by the loop's delay ring.

FLOP accounting: every step reports exactly the operations the scalar
backends would have counted for the same firings, so profiles are
bit-identical across ``interp``/``compiled``/``plan``.

A step is its executor's state (rings, carries, counters, runners) over
an *operator* that depends on the graph alone: the tuple a kernel's
``operator`` makes (a source's table, a lane step's columns).  The
planner derives each once per plan entry, every executor of the entry
shares it, and its arrays are read-only (:func:`shared`), so a kernel
writing one fails instead of corrupting another session.
"""

from __future__ import annotations

import math

import numpy as np

from .. import faults as _faults
from ..errors import InterpError
from ..ir.pycodegen import LaneBailout
from ..numeric import DEFAULT_POLICY, NumericPolicy
from ..profiling import Counts, Profiler
from ..runtime.channels import Channel, Stateful


class Step(Stateful):
    """One plan step: executes batched firings of a single node."""

    #: debugging/introspection label set by the planner
    kind = "step"

    #: True when the parallel executor syncs the step's state between the
    #: parent's step (the authority) and a worker's cached copy.
    carries_state = False

    #: what the plan report prints beside the kind, if anything
    detail: str | None = None

    #: this step's variant of ``kind``, the plan report's ``kind[tag,…]``
    tags: tuple = ()

    def execute(self, n: int) -> None:
        raise NotImplementedError


def _merged(accounts, policy: NumericPolicy) -> tuple:
    """``(counts, name)`` accounts in the policy's units, one per name,
    the unnamed ones summed."""
    merged: dict = {}
    for counts, name in accounts:
        merged.setdefault(name, Counts()).add(policy.adjust_counts(counts))
    return tuple((counts, name) for name, counts in merged.items())


def shared(a, dtype=None) -> np.ndarray:
    """``a`` as an operator array: a private contiguous copy, read-only."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


class MatmulStep(Step):
    """Batched affine map ``Y = X[:, ::-1] @ A + b`` for a linear node —
    for ``b`` sibling nodes of equal rates, one ``(b, n, peek) @
    (b, peek, push)`` product into a ``(b, ·)`` ring.

    ``accounts`` pairs each node's per-firing counts with the name they
    are attributed to: set for :class:`~repro.linear.filters.
    LinearFilter` leaves (whose scalar runners attribute counts per
    filter), ``None`` for IR filters, matching the compiled backend's
    aggregate-only accounting.
    """

    kind = "matmul"

    @staticmethod
    def operator(nodes, accounts, policy: NumericPolicy) -> tuple:
        """``(peek, pop, push, A, b, taps, accounts)``."""
        first = nodes[0]
        # row i <=> peek(i), column j <=> the j-th item pushed (y[u-1]
        # goes first), so the product lands in the ring as it stands;
        # stored in the policy dtype so it computes natively in it (f32
        # GEMM, complex GEMM, ...)
        A = np.stack([node.A[::-1, ::-1] for node in nodes])
        b = np.stack([node.b[::-1] for node in nodes])[:, None, :]
        if len(nodes) == 1:
            A, b = A[0], b[0, 0]
        A = shared(A, policy.dtype)
        # pop == push == 1 (an n-tap sliding filter, the FIR shape):
        # consecutive windows overlap in all but one element, and BLAS
        # forces a dense (n, peek) copy of the strided view first — a
        # 1-D correlation computes the same column without materializing
        # the window matrix (~5x on a 256-tap FIR).  np.correlate
        # conjugates its second argument, so complex taps are
        # pre-conjugated to keep the plain product semantics.
        taps = None
        if first.pop == 1 and first.push == 1 and first.peek >= 1:
            taps = A.reshape(len(nodes), -1)
            taps = shared(np.conj(taps)) if policy.is_complex else taps
        return (first.peek, first.pop, first.push, A,
                shared(b, policy.dtype) if b.any() else None, taps,
                _merged(accounts, policy))

    def __init__(self, ring_in, ring_out, op: tuple, profiler: Profiler):
        self.ring_in = ring_in
        self.ring_out = ring_out
        self.op = op
        (self.peek, self.pop, self.push, self.A, self.b, self._taps,
         self.accounts) = op
        self.profiler = profiler

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        out = self.ring_out.alloc_push(n * self.push)
        Y = out.reshape(out.shape[:-1] + (n, self.push))
        if self._taps is None:
            # window rows are [peek(0)..peek(e-1)]; A was pre-reversed so
            # that X @ A == (X[:, ::-1]) @ A_thesis, avoiding a strided copy
            np.matmul(self.ring_in.window_view(n, self.pop, self.peek),
                      self.A, out=Y)
        else:
            taps = self._taps
            x = self.ring_in.peek_block(n + self.peek - 1)
            for xr, yr, t in zip(x.reshape(len(taps), -1),
                                 out.reshape(len(taps), -1), taps):
                yr[:] = np.correlate(xr, t, "valid")
        if self.b is not None:
            Y += self.b
        self.ring_in.pop_block(n * self.pop)
        for counts, name in self.accounts:
            self.profiler.add_counts(counts, times=n, filter_name=name)


#: Element budget of the lifted operators of :class:`StatefulLinearStep`.
#: The boundary lift over ``G`` blocks is ``G·k x (G+1)·k`` and gets all
#: of it (``G·k = 128``); the block lift is ``B·o x B·u`` and is paid by
#: every firing, not once per block, so it gets a quarter (``B = 64`` at
#: ``o = u = 1``).  Measured on ``IIRBody`` as the planner runs it, one
#: chain of ``k = 7``, one ``push(4096)`` pinned to one core of a 2-vCPU
#: Xeon, min of 3 sessions x 500 pushes in us — f64 by ``G·k``, f32, c128
#: at ``G·k = 128`` (the four steps it replaces ran 151 at ``B = 64``,
#: ``G·k = 128``):
#:
#: ====  ====  ====  ====  ====  ====  ====
#: B     64    128   256   512   f32   c128
#: ====  ====  ====  ====  ====  ====  ====
#: 16    320   206   258   354   309   318
#: 32    265   176   141   203   119   305
#: 64    125   83    68    94    69    158
#: 128   92    72    85    66    73    210
#: 256   147   94    97    103   71    271
#: ====  ====  ====  ====  ====  ====  ====
#:
#: ``B = 64 .. 128`` by ``G·k = 128 .. 512`` lie within run-to-run noise,
#: and none beats ``B = 64``, ``G·k = 128`` under every dtype (``B = 128``
#: costs c128 a third, a lone f32 biquad 2x), so the budget stays.
#: Deriving the two lifts took 2.8 / 3.1 / 2.2 / 6.1 ms by ``G·k``, paid
#: once per plan entry, never by a session.
_STATEFUL_LIFT_ELEMS = 1 << 14


def stateful_block_length(pop: int, push: int,
                          policy: NumericPolicy | None = None) -> int:
    """Lifted block length ``B`` of :class:`StatefulLinearStep` for a
    node with the given rates — the single source of truth, also read
    by the selection cost model to price the kernel.

    With a calibration cache present (:mod:`repro.exec.calibrate`), the
    budget's ``B = 64`` at ``pop = push = 1`` is replaced by the block
    length the kernel actually ran fastest at for the policy dtype; the
    ``1/sqrt(pop*push)`` scaling is kept either way.  FLOP accounting is
    block-size independent, so calibration never perturbs profiles.
    """
    cap = math.isqrt(_STATEFUL_LIFT_ELEMS // 4)
    from .calibrate import active_calibration
    cal = active_calibration()
    if cal is not None:
        name = (policy or DEFAULT_POLICY).name
        cap = cal.stateful_block.get(name, cap)
    ou = max(1, pop * push)
    return max(1, min(cap, int((cap * cap / ou) ** 0.5)))


def stateful_group_length(state_dim: int) -> int:
    """Block boundaries ``G`` one boundary lift of
    :class:`StatefulLinearStep` spans, for a node of ``state_dim``
    state variables.  A state wider than the budget's side gives 1: the
    boundary recurrence taken one block at a time."""
    return max(1, math.isqrt(_STATEFUL_LIFT_ELEMS) // max(1, state_dim))


def stateful_lift(node, b: int, group: int, dtype) -> tuple:
    """The operators of :class:`StatefulLinearStep` at block length
    ``b``: ``b`` firings of ``node`` lifted into one, and the boundary
    recurrence lifted over ``group`` blocks."""
    from ..linear.expansion import expand_firings
    from ..linear.state import boundary_lift

    ex = expand_firings(node, b)

    def offset(v):
        return shared(v, dtype) if v.any() else None

    G, T, P = group, None, None
    if ex.state_dim:
        T, P = boundary_lift(ex.Cs, G, dtype)
        G = len(T) // ex.state_dim  # fewer if Cs^b overflows
        T, P = shared(T), shared(P)
    # rows reversed like MatmulStep's (window rows are [peek(0)..
    # peek(E-1)], the node uses the x-convention); output columns
    # reversed too, into push order (y[U-1] first)
    return (G, ex.peek, ex.pop, ex.push, shared(ex.A[::-1, ::-1], dtype),
            shared(ex.As[:, ::-1], dtype), offset(ex.b[::-1]),
            shared(ex.Cx[::-1], dtype), offset(ex.bs), T, P)


class StatefulLinearStep(Step):
    """Batched kernel of a linear node with state: ``n`` firings of
    ``y = x·A + s·As + b``, ``s' = x·Cx + s·Cs + bs`` as four matmuls
    per ``B·G`` of them.

    The state update is a monoid action, so ``B`` firings compose into
    one *lifted* affine operator (:func:`~repro.linear.expansion.
    expand_firings` — stacked powers of ``Cs`` threaded against the
    input window), and the recurrence that is left between blocks,
    ``s_{b+1} = drive_b + s_b·Cs^B``, is a stateful linear node again
    and lifts the same way over ``G`` boundaries
    (:func:`~repro.linear.state.boundary_lift`).  A *group* of ``G``
    blocks is then:

    1. ``(G, E) @ (E, B·u)`` — the lifted input map of every block,
    2. ``(G, E) @ (E, k)`` — each block's state *drive*,
    3. ``(G·k,) @ (G·k, (G+1)·k)`` — the entry state of every block and
       the group's exit state,
    4. ``(G, k) @ (k, B·u)`` — each block's entry state added into its
       outputs.

    No Python runs per block; there is one pass per group — 1152
    firings at ``k = 7`` (IIR), while a state of ``k >= 128`` variables
    has ``G = 1``, the boundary recurrence taken one block at a time.
    The products are deliberately not batched across groups: a group's
    operands fit in L2, and a product four groups tall is where the
    BLAS starts waking its thread pool, which on a 2-core container
    cost milliseconds a call — a batch of 16384 firings ran 7.6 ms as
    one product per operator, 0.12 ms group by group.

    The ``n mod B`` firings left over run through the same four
    products at block length 1 (the node itself), so the operator holds
    two lifts whatever sizes the step is called with, both derived with
    the plan; the step itself holds only the state ``s``.  ``node`` may
    be a chain's pipeline combination, one lift for all; FLOP accounting
    reports each member's scalar per-firing counts times ``n`` under its
    name (``accounts``, as :class:`MatmulStep`; the parity contract),
    not the lift's recomputation.
    """

    kind = "stateful"

    @staticmethod
    def operator(node, accounts, policy: NumericPolicy) -> tuple:
        """``(node, accounts, block, group, lifts, policy)``, ``lifts``
        by block length: ``block`` and 1."""
        block = stateful_block_length(node.pop, node.push, policy)
        group = stateful_group_length(node.state_dim)
        return (node, _merged(accounts, policy), block, group,
                {b: stateful_lift(node, b, group, policy.dtype)
                 for b in {block, 1}}, policy)

    def __init__(self, ring_in, ring_out, op: tuple, profiler: Profiler):
        self.ring_in = ring_in
        self.ring_out = ring_out
        self.op = op
        (self.node, self.accounts, self.block, self.group, self.lifts,
         self.policy) = op
        # state with lookahead or a rate change: a collapsed mixed run
        self.tags = ("mixed",) * (self.node.peek > self.node.pop
                                  or self.node.pop != self.node.push)
        self.s = np.array(self.node.s0, dtype=self.policy.dtype)
        self.profiler = profiler

    carries_state = True
    STATE = ("s",)

    @property
    def detail(self) -> str:
        """``k``; the four products' multiply-adds per output of a group."""
        G, E, _, U, *_ = self.lifts[self.block]
        k = len(self.s)
        macs = (G * (E * (U + k) + k * U) + ((G + 1) * k) ** 2) / (G * U)
        return f"k={k}, {macs:.0f} MACs/output"

    def _run_blocks(self, blocks: int, b: int) -> None:
        """Execute ``blocks`` consecutive lifted firings of block size
        ``b``, a group at a time: one window view, four matmuls."""
        G, E, pop, U, Axr, As, bx, Cxr, bs, T, P = self.lifts[b]
        k = len(self.s)
        for done in range(0, blocks, G):
            g = min(G, blocks - done)
            X = self.ring_in.window_view(g, pop, E)
            Y = self.ring_out.alloc_push(g * U).reshape(g, U)
            np.matmul(X, Axr, out=Y)
            if bx is not None:
                Y += bx
            if k:
                drive = X @ Cxr
                if bs is not None:
                    drive += bs
                # the lift over g <= G boundaries is the leading corner
                cols = (g + 1) * k
                states = drive.reshape(-1) @ T[:g * k, :cols]
                states += self.s @ P[:, :cols]
                Y += states[:g * k].reshape(g, k) @ As
                self.s = states[g * k:]
            self.ring_in.pop_block(g * pop)

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        full, rest = divmod(n, self.block)
        if full:
            self._run_blocks(full, self.block)
        if rest:
            self._run_blocks(rest, 1)
        for counts, name in self.accounts:
            self.profiler.add_counts(counts, times=n, filter_name=name)


#: Cap on the ``k * n * (u + 1)`` complex workspace of one batched FFT
#: call; larger batches are processed in slices to bound memory.
_MAX_FFT_BLOCK_ELEMS = 1 << 21


class NaiveFreqStep(Step):
    """Batched Transformation 5: overlap-save FFT convolution per chunk.

    ``k`` firings of a :class:`~repro.frequency.filters.NaiveFreqFilter`
    collapse into one stacked rfft -> pointwise product -> irfft over the
    ``(k, m+e-1)`` window view of the input ring (windows overlap by
    ``e-1``, stride ``m``).  FLOP accounting is the scalar runner's
    per-block counts scaled by ``k``.
    """

    kind = "freq-naive"

    @staticmethod
    def operator(filt, policy: NumericPolicy) -> tuple:
        """``(filt, kernel, b_row, counts, rows)``."""
        counts = filt.kernel.counts_per_block.copy()
        counts.fadd += int(np.count_nonzero(filt.b_push)) * filt.m
        # one firing's offsets, flat like the (k, m*u) rows they go to
        return (filt, filt.kernel.for_policy(policy),
                shared(np.tile(filt.b_push, filt.m), policy.dtype),
                policy.adjust_counts(counts),
                max(1, _MAX_FFT_BLOCK_ELEMS // (filt.kernel.n * (filt.u + 1))))

    def __init__(self, ring_in, ring_out, op: tuple, profiler: Profiler):
        self.ring_in = ring_in
        self.ring_out = ring_out
        self.op = op
        filt, self.kernel, self.b_row, self.counts, self.rows = op
        self.e, self.m, self.u = filt.e, filt.m, filt.u
        self.profiler = profiler
        self.name = filt.name
        self.detail = f"N={filt.n}"
        self._work: list = []  # FFT workspace (fftlib._convolve_batch)

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        e, m, u = self.e, self.m, self.u
        while n:
            k = min(n, self.rows)
            X = self.ring_in.window_view(k, m, m + e - 1)
            y = self.kernel.convolve_batch(X, self._work)  # (k, n_fft, u)
            np.add(y.reshape(k, -1)[:, (e - 1) * u:(e - 1 + m) * u],
                   self.b_row,
                   out=self.ring_out.alloc_push(k * m * u).reshape(k, -1))
            self.ring_in.pop_block(k * m)
            self.profiler.add_counts(self.counts, times=k,
                                     filter_name=self.name)
            n -= k


class OptimizedFreqStep(Step):
    """Batched Transformation 6: disjoint FFT blocks with partial sums.

    Within a batch, firing ``i``'s boundary outputs are completed with the
    tail partials of firing ``i-1`` (block-shifted in one vectorized add);
    the last block's tail is carried across batches — and across the
    chunk-flush boundary — exactly like the scalar runner's ``partials``
    state.  The first-ever firing pushes only the ``u*m`` interior outputs
    (the filter's declared init rate).

    A polyphase filter (``o`` phases) reads its window as ``(k, r, o)``
    and gets its results as a view of ``(k, u, n_fft)`` rows
    (:func:`~repro.frequency.fftlib._convolve_phases`); its steady
    firings assemble in that layout, so no add runs a length-``u``
    inner loop.
    """

    kind = "freq-opt"

    @staticmethod
    def operator(filt, policy: NumericPolicy) -> tuple:
        """``(filt, kernel, b_push, b_col, b_row, init_counts,
        steady_counts, rows, policy)``: the polyphase assembly adds
        ``b_col`` per output column, if at all; the rows of outputs add
        ``b_row`` flat, ``(k, r*u)``, because a length-``u`` inner loop
        is what makes an ufunc slow; ``o`` phases multiply a row's
        workspace by about ``o`` (``o*u`` products)."""
        b_push = shared(filt.b_push, policy.dtype)
        b_adds = int(np.count_nonzero(filt.b_push))
        init_counts = filt.kernel.counts_per_block.copy()
        init_counts.fadd += b_adds * filt.m
        steady_counts = filt.kernel.counts_per_block.copy()
        steady_counts.fadd += b_adds * filt.r
        steady_counts.fadd += filt.u * (filt.e - 1)
        return (filt, filt.kernel.for_policy(policy), b_push,
                b_push[:, None] if filt.b_push.any() else None,
                shared(np.tile(b_push, filt.r)),
                policy.adjust_counts(init_counts),
                policy.adjust_counts(steady_counts),
                max(1, _MAX_FFT_BLOCK_ELEMS
                    // (filt.kernel.n * (filt.u + 1) * filt.phases)), policy)

    def __init__(self, ring_in, ring_out, op: tuple, profiler: Profiler):
        self.ring_in = ring_in
        self.ring_out = ring_out
        self.op = op
        (filt, self.kernel, self.b_push, self.b_col, self.b_row,
         self.init_counts, self.steady_counts, self.rows, self.policy) = op
        self.e, self.m, self.u, self.r = filt.e, filt.m, filt.u, filt.r
        self.o = filt.phases
        self.detail = f"N={filt.n}" + (f", {self.o} phases"
                                       if self.o > 1 else "")
        self.tags = ("polyphase",) * (self.o > 1)
        self.profiler = profiler
        self.name = filt.name
        self.partials: np.ndarray | None = None
        self._work: list = []  # FFT workspace (fftlib._convolve_batch)

    carries_state = True
    STATE = ("partials",)  # None: the first firing is not yet taken

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        e, m, u, r, o = self.e, self.m, self.u, self.r, self.o
        while n:
            k = min(n, self.rows)
            X = self.ring_in.window_view(k, o * r, o * r)
            if o > 1:
                X = X.reshape(k, r, o)
            y = self.kernel.convolve_batch(X, self._work)  # (k, n_fft, u)
            tails = y[:, m + e - 1:m + 2 * e - 2, :]  # (k, e-1, u)
            if self.partials is None:
                # very first firing: interior outputs only (init push u*m)
                mids = y[:, e - 1:e - 1 + m, :] + self.b_push  # (k, m, u)
                self.ring_out.push_array(mids[0].reshape(-1))
                self.profiler.add_counts(self.init_counts,
                                         filter_name=self.name)
                if k > 1:
                    out = np.empty((k - 1, r, u), dtype=self.policy.dtype)
                    out[:, :e - 1] = y[1:, :e - 1] + tails[:-1] + self.b_push
                    out[:, e - 1:] = mids[1:]
                    self.ring_out.push_array(out.reshape(-1))
                    self.profiler.add_counts(self.steady_counts, times=k - 1,
                                             filter_name=self.name)
            else:
                if o > 1:
                    self._assemble_phases(y, k)
                else:
                    # straight into the ring, rows flat ((k, r*u): see
                    # b_row), each row's boundary outputs completed by
                    # the tail of the row before it
                    y2, h = y.reshape(k, -1), (e - 1) * u
                    out = self.ring_out.alloc_push(k * r * u).reshape(k, -1)
                    np.add(y2[0, :h], self.partials.reshape(-1),
                           out=out[0, :h])
                    np.add(y2[1:, :h], tails[:-1].reshape(k - 1, h),
                           out=out[1:, :h])
                    out[:, :h] += self.b_row[:h]
                    np.add(y2[:, h:r * u], self.b_row[h:], out=out[:, h:])
                self.profiler.add_counts(self.steady_counts, times=k,
                                         filter_name=self.name)
            self.partials = tails[-1].copy()
            self.ring_in.pop_block(k * o * r)
            n -= k

    def _assemble_phases(self, y, k: int) -> None:
        """The steady firings of a polyphase batch, straight into the
        ring, in the kernel's ``(k, u, n_fft)`` layout: ``out[i, j]`` is
        output column ``j`` of block ``i`` — contiguous reads, long
        strided writes."""
        e, m, r = self.e, self.m, self.r
        y = y.transpose(0, 2, 1)  # the kernel's rows, contiguous
        out = self.ring_out.alloc_push(k * r * self.u).reshape(k, r, -1)
        out = out.transpose(0, 2, 1)
        np.add(y[0, :, :e - 1], self.partials.T, out=out[0, :, :e - 1])
        np.add(y[1:, :, :e - 1], y[:-1, :, m + e - 1:m + 2 * e - 2],
               out=out[1:, :, :e - 1])
        out[:, :, e - 1:] = y[:, :, e - 1:r]
        if self.b_col is not None:
            out += self.b_col


def fire_scalar(node, ring_in, ring_out, n: int) -> None:
    """Fire ``node``'s scalar runner ``n`` times against the rings."""
    fire = node.runner.fire
    for _ in range(n):
        fire(ring_in, ring_out)


class FallbackStep(Step):
    """Scalar escape hatch: fire the node's existing runner ``n`` times."""

    kind = "fallback"
    STATE = ("nodes",)  # their runners

    def __init__(self, node, ring_in, ring_out):
        self.node = node
        self.nodes = [node]
        self.ring_in = ring_in
        self.ring_out = ring_out

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        fire_scalar(self.node, self.ring_in, self.ring_out, n)


#: Fewest firings :class:`LaneStep` evaluates as lanes: the measured
#: cost crossover.  A lane call costs a fixed 8-19 us of NumPy dispatch
#: whatever ``n`` is, a scalar firing of a small body 1.3-1.5 us.
#: Measured here (f64, best of 300, lanes vs scalar in us) at n = 8 /
#: 12 / 16: Radar ``InputGenerate`` 12.2 vs 11.1 / 12.4 vs 15.6 / 12.6
#: vs 19.9, ``Magnitude`` 8.2 vs 12.2 / 8.3 vs 16.8 / 8.3 vs 21.0,
#: ``Detector`` 8.6 vs 10.3 / 8.5 vs 14.1 / 8.5 vs 17.7, Vocoder
#: ``CenterClip`` 12.0 vs 12.8 / 12.0 vs 17.4 / 11.9 vs 21.5,
#: ``FMDemodulator`` (peek > pop: strided window) 18.9 vs 12.8 / 18.9 vs
#: 17.6 / 18.7 vs 22.6.  The cheapest bodies break even at 8-12 and
#: loop-heavy ones at once (Vocoder's ``CorrPeak``, its nest
#: interchanged: 4 lanes 0.48 ms vs 23 ms, best of 300 / 40, pinned).
LANE_MIN_FIRINGS = 12


def lane_columns(code, streams) -> dict:
    """The fields sibling filters ``streams`` differ in
    (``code.varying``) as the ``(b, 1)`` columns a lane call takes."""
    return {name: shared([[s.fields[name]] for s in streams])
            for name in code.varying}


class LaneStep(FallbackStep):
    """``n`` firings of a stateless non-linear filter, or of a source
    driven by additive counters, as one call of its lane form
    (:func:`~repro.ir.pycodegen.emit_lanes`): NumPy ufuncs over the
    ``(n, peek)`` window, one ``(n, push)`` block out.  ``nodes`` of
    length ``b > 1`` are sibling filters sharing that form — the same
    work function, the same state, float fields of differing value
    (``code.varying``) — and one call evaluates all of them: a
    ``(b, n, peek)`` window, those fields as ``(b, 1)`` columns.

    Values are computed in float64 (complex128 under a complex policy)
    whatever the ring dtype, as the scalar runner computes them from
    ``.item()`` values.  The lane call is all-or-nothing: when NumPy
    flags a division, overflow or domain error in any lane — also one
    the scalar path would never have evaluated, both arms of an
    if-converted branch run everywhere — or an int counter would leave
    int64, nothing has been committed and the scalar runners fire the
    batch, each sibling's against its own row, with Python's own
    semantics for the case.  Such a batch pays for both paths, so the
    step counts them: the report shows ``refired k/N lane batches``, and
    a step that refires most of its batches reports itself as the
    ``fallback`` it is.  Batches under :data:`LANE_MIN_FIRINGS` lanes
    (``b * n``) fire scalar too; the counters live in every sibling's
    ``runner.fields`` either way.  ``columns`` is the plan's
    (:func:`lane_columns`).
    """

    def __init__(self, nodes, ring_in, ring_out, code, columns: dict,
                 policy: NumericPolicy = DEFAULT_POLICY):
        super().__init__(nodes[0], ring_in, ring_out)
        self.nodes = nodes
        self.code = code
        self.tags = ("interchanged",) * bool(code.interchanged)
        self.dtype = np.dtype(np.complex128 if policy.is_complex
                              else np.float64)
        self.batches = self.refired = 0  # lane calls made / abandoned
        self.columns = columns
        self._meter = Profiler()

    @property
    def kind(self) -> str:
        return "fallback" if 2 * self.refired > self.batches else "lanes"

    @property
    def detail(self) -> str:
        if not self.refired:
            return self.code.detail
        return (f"{self.code.detail}; refired {self.refired}/{self.batches} "
                "lane batches scalar")

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        if n * len(self.nodes) >= LANE_MIN_FIRINGS:
            self.batches += 1
            if self._lanes(n):
                return
            self.refired += 1
        if len(self.nodes) == 1:
            fire_scalar(self.node, self.ring_in, self.ring_out, n)
        else:
            self._fire_rows(n)

    def _lanes(self, n: int) -> bool:
        wf = self.node.stream.work
        nodes = self.nodes
        win = out = None
        if wf.peek:
            win = self.ring_in.window_view(n, wf.pop, wf.peek)
            if win.dtype != self.dtype:
                win = win.astype(self.dtype)
        if wf.push:
            out = self.ring_out.alloc_push(n * wf.push)
            out = out.reshape(out.shape[:-1] + (n, wf.push))
        fields = self.node.runner.fields
        if self.columns:
            fields = {**fields, **self.columns}
        meter = self._meter
        meter.counts = Counts()
        try:
            self.code.function()(win, out, fields, n, n * len(nodes),
                                 meter.bulk)
        except (ArithmeticError, ValueError, LaneBailout):
            if wf.push:
                self.ring_out.retract(n * wf.push)
            return False
        if wf.pop:
            self.ring_in.pop_block(n * wf.pop)
        for name in self.code.counters:
            for node in nodes:  # (the first one's anew, if it was a copy)
                node.runner.fields[name] = fields[name]
        self.node.runner.profiler.add_counts(meter.counts)
        return True

    def _fire_rows(self, n: int) -> None:
        """``n`` scalar firings of every sibling, each over its own row
        of the rings."""
        wf = self.node.stream.work
        rows_in = rows_out = [None] * len(self.nodes)
        if wf.peek:
            rows_in = self.ring_in.peek_block((n - 1) * wf.pop + wf.peek)
        if wf.push:
            rows_out = self.ring_out.alloc_push(n * wf.push)
        for node, row_in, row_out in zip(self.nodes, rows_in, rows_out):
            tape_in, tape_out = Channel("row-in"), Channel("row-out")
            if row_in is not None:
                tape_in.push_array(row_in)
            fire_scalar(node, tape_in, tape_out, n)
            if row_out is not None:
                row_out[:] = tape_out.state()
        if wf.pop:
            self.ring_in.pop_block(n * wf.pop)


def fold(source: tuple, nodes, accounts,
         policy: NumericPolicy = DEFAULT_POLICY) -> tuple:
    """The operator of the reader of the sources of
    :class:`SinusoidStep` operator ``source``: linear ``nodes`` popping
    whole firings, :class:`MatmulStep`'s ``accounts``.  Window item
    ``i`` from counter ``c`` is ``basis(c) @ R(d_i) @ C[:, i % push]``,
    ``R(d)`` turning each ``(sin, cos)`` pair by ``ω·d``, ``d_i =
    step·(i // push)``: so ``M = Σ_i R(d_i) C[:, i % push] ⊗ A[i]``, and
    ``c`` is the sources' counter less a ``step`` a firing the ring
    holds.  The sources then write nothing into that ring, and nothing
    reads it."""
    coef, counter, stride, omegas, _, push, _ = source
    first, K = nodes[0], len(omegas)
    i = np.arange(first.peek)
    angle = np.multiply.outer(omegas, stride * (i // push))
    cos, sin = np.cos(angle), np.sin(angle)
    C = coef[..., i % push]  # item i's column; const last
    W = np.concatenate((cos * C[:, :K] - sin * C[:, K:-1],
                        sin * C[:, :K] + cos * C[:, K:-1], C[:, -1:]),
                       axis=1)
    # rows and columns as MatmulStep orders them (window, push order)
    coef = W @ np.stack([node.A[::-1, ::-1] for node in nodes])
    coef[:, -1] += np.stack([node.b[::-1] for node in nodes])
    return (shared(coef), counter, stride * (first.pop // push), omegas,
            first.pop, first.push, _merged(accounts, policy))


class SinusoidStep(Step):
    """``n`` firings of ``b`` sibling sources of one sinusoid form
    (:func:`~repro.ir.pycodegen.sinusoid_form`), or of their linear
    reader folded on (:func:`fold`; ``source`` is then the sources'
    step): one basis of the shared frequencies straight from the int
    counter, ``ω·(c0 + step·i)`` in float64 (so nothing drifts), times a
    row of coefficients each, cast into the ring.  Values are the
    graph's to ``k·ulp(ω·c)·‖C‖`` (the graph rounds ``ω·c + θ``; ``θ`` is
    in ``C`` here); the counter lives in the siblings' ``runner.fields``
    as for a :class:`LaneStep`.
    """

    kind = "sinusoid"
    STATE = ("nodes",)  # the counter is in the sources' runners

    @staticmethod
    def operator(forms) -> tuple:
        """``(coef, counter, stride, omegas, pop, push, accounts)`` of
        the sources of ``forms``, one a sibling row: ``coef`` is ``(b,
        2K + 1, push)``, the constant last, against a basis row of ones
        (a broadcast add over ``push`` items is a short loop), None
        where a reader folds the sources on."""
        lead = forms[0]
        coef = shared(np.stack([f.coef for f in forms]))
        return (coef, lead.counter, lead.step, shared(lead.omegas), 0,
                coef.shape[-1], ((lead.counts.scaled(len(forms)), None),))

    def __init__(self, op: tuple, nodes, ring_in, ring_out,
                 profiler: Profiler, source: "SinusoidStep | None" = None):
        self.op = op
        (self.coef, self.counter, self.stride, self.omegas, self.pop,
         self.push, self.accounts) = op
        self.ring_in, self.ring_out = ring_in, ring_out
        self.profiler = profiler
        self.source = source or self
        self.nodes = nodes if source is None else []  # a reader: none
        if source is None:
            self.detail = (f"{len(self.omegas)} frequencies, "
                           f"counter {self.counter}")
        else:
            self.kind, self.tags = "matmul", ("folded",)
            self.detail = f"folded onto {source.nodes[0].name}'s basis"

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        source = self.source
        start = source.nodes[0].runner.fields[source.counter]
        if self.ring_in is not None:  # from the oldest item in the ring
            start -= source.stride * (len(self.ring_in) // source.push)
            self.ring_in.pop_block(n * self.pop)
        else:
            for node in self.nodes:
                node.runner.fields[self.counter] = start + self.stride * n
        out = self.ring_out.alloc_push(n * self.push)
        if self.coef is not None:
            # a row per basis column: every ufunc runs over n contiguous
            K = len(self.omegas)
            basis = np.empty((2 * K + 1, n))
            angle = np.multiply.outer(
                self.omegas, start + self.stride * np.arange(n, dtype=float))
            np.sin(angle, out=basis[:K])
            np.cos(angle, out=basis[K:-1])
            basis[-1] = 1.0
            Y = out.reshape(len(self.coef), n, self.push)
            if Y.dtype == self.coef.dtype:
                np.matmul(basis.T, self.coef, out=Y)
            else:  # computed in double, as LaneStep does, then cast
                Y[...] = basis.T @ self.coef
        for counts, name in self.accounts:
            self.profiler.add_counts(counts, times=n, filter_name=name)


#: Scalar firings the planner takes of a source without its state
#: recurring before it stops looking — hence also the longest transient
#: + cycle a table of :class:`PeriodicSourceStep` holds.
SOURCE_RECURRENCE_LIMIT = 1024


class PeriodicSourceStep(Step):
    """Table replay of a source whose state recurs.

    A ``pop 0`` filter is a closed system: what a firing pushes, counts
    and leaves behind is a function of its mutable fields alone, so once
    a state repeats the source is a transient followed by a cycle
    forever.  The planner fires it once, at build, until that happens,
    into its table ``(outputs, transient, period, cum)``: the firings'
    outputs and ``cum[k]``, the counts of the first ``k``.
    ``execute(n)`` is a slice of the transient's outputs and a
    phase-offset ``np.tile`` of the cycle's, plus the exact counts of
    the firings they stand for.  The step itself holds only its firing
    count, the replay phase.
    """

    kind = "periodic-source"
    STATE = ("fired",)

    def __init__(self, ring_in, ring_out, table: tuple, profiler: Profiler):
        self.ring_in = ring_in  # the void tape, as FallbackStep holds it
        self.ring_out = ring_out
        self.table = table
        self.outputs, self.transient, self.period, self._cum = table
        self.profiler = profiler
        self.fired = 0

    @property
    def detail(self) -> str:
        return f"transient {self.transient}, period {self.period}"

    def _counts(self, m: int) -> Counts:
        """The counts of the source's first ``m`` firings."""
        T, P, cum = self.transient, self.period, self._cum
        if m <= T + P:
            return cum[m]
        laps, rest = divmod(m - T, P)
        counts = (cum[T + P] - cum[T]).scaled(laps)
        counts.add(cum[T + rest])
        return counts

    def execute(self, n: int) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("kernel.step")
        f, T, P = self.fired, self.transient, self.period
        u = len(self.outputs) // (T + P)
        head = min(n, max(T - f, 0))  # firings left in the transient
        if head:
            self.ring_out.push_array(self.outputs[f * u:(f + head) * u])
        if n > head:
            phase = (f + head - T) % P
            laps = -(-(phase + n - head) // P)
            self.ring_out.push_array(np.tile(self.outputs[T * u:], laps)[
                phase * u:(phase + n - head) * u])
        self.fired = f + n
        if self._cum[-1].flops:
            self.profiler.add_counts(self._counts(f + n) - self._counts(f))


def feasible_firings(haves, ins) -> int:
    """Max consecutive steady firings the per-input occupancies admit,
    ``ins`` a rate record's ``(ring, need, pop)`` per input.

    The batch-size formula of the island probe and the island drain, so
    a certified island executes exactly the schedule that was probed
    (the planner's sweep inlines it).
    """
    n = None
    for have, (_, need, o) in zip(haves, ins):
        if have < need:
            return 0
        if o > 0:
            k = (have - need) // o + 1
            if n is None or k < n:
                n = k
    return n if n is not None else 0


class IslandMember(Stateful):
    """One node of a feedback island: its kernel, input rings and
    firing rates (the planner's rate record: ``(ins, outs, first)``).

    ``feasible`` mirrors the scalar executor's ``can_fire`` but returns
    the *largest* batch the current ring occupancies admit, so a loop
    with ``delay`` enqueued items advances up to ``delay`` iterations per
    drain round through one batched kernel call each.
    """

    __slots__ = ("step", "in_rings", "rates", "fired")
    STATE = ("fired", "step")

    def __init__(self, step: Step, in_rings, rates):
        self.step = step
        self.in_rings = in_rings
        self.rates = rates
        self.fired = False

    def feasible(self) -> int:
        return feasible_firings((len(r) for r in self.in_rings),
                                self.rates[0])


class FeedbackStep(Step):
    """Executes a feedback island: the flattened cycle of one
    FeedbackLoop (joiner, body, splitter, loop path — nested loops
    included) behind a fixed-rate facade the acyclic planner can batch
    around.

    ``execute(n)`` admits exactly the externals the ``n`` island firings
    are entitled to (``init_pop`` once, then ``pop`` each) through a
    private *gate* ring, then fires members data-driven until quiescent.
    Members run their ordinary batched kernels — a linear loop body is
    one matmul over every iteration the delay ring's lookahead allows —
    so only the cycle's true sequential dependency is paid per round.
    The gate is what makes batching upstream safe: producers may flush
    arbitrarily large blocks into ``ring_in`` without the island racing
    ahead of its simulated schedule.
    """

    kind = "feedback"
    STATE = ("_fired_init", "members")  # their rings: the executor's

    #: Drain-round ceiling; a healthy island consumes ≥1 external per
    #: cycle iteration, so this only trips on planner bugs.
    MAX_ROUNDS = 100_000_000

    def __init__(self, name: str, ring_in, gate, members: list[IslandMember],
                 rates):
        self.name = name
        self.ring_in = ring_in
        self.gate = gate
        self.members = members
        self.rates = rates  # the planner's IslandRates
        self._fired_init = False
        #: island firings so far, and the drain rounds that made
        #: progress on them: one round a firing is a loop iterating
        #: per sample (what the plan report says of it)
        self.firings = 0
        self.rounds = 0

    def execute(self, n: int) -> None:
        self.firings += n
        take = 0
        if self.rates.has_init and not self._fired_init:
            take += self.rates.init_pop
            n -= 1
        self._fired_init = True
        take += n * self.rates.pop
        if take:
            self.gate.push_array(self.ring_in.pop_block_array(take))
        # ring-backed mirror of probe_island's drain loop: init gating
        # and batch sizing must stay identical or the certified rates
        # diverge from what actually executes
        rounds = 0
        progress = True
        while progress:
            rounds += 1
            if rounds > self.MAX_ROUNDS:
                raise InterpError(
                    f"feedback island {self.name!r}: drain did not "
                    "quiesce (planner bug)")
            progress = False
            for m in self.members:
                first = m.rates[2]
                if first is not None and not m.fired:
                    ok = all(len(r) >= need for r, (_, need, _)
                             in zip(m.in_rings, first[0]))
                    if not ok:
                        continue
                    m.step.execute(1)
                    m.fired = True
                    progress = True
                k = m.feasible()
                if k:
                    m.step.execute(k)
                    m.fired = True
                    progress = True
        self.rounds += rounds - 1  # the last one found nothing to fire


class DuplicateSplitStep(Step):
    kind = "dup-split"

    def __init__(self, ring_in, rings_out):
        self.ring_in = ring_in
        self.rings_out = rings_out

    def execute(self, n: int) -> None:
        block = self.ring_in.peek_block(n)
        for ring in self.rings_out:  # a (b, .) ring takes it on every row
            ring.push_array(block)
        self.ring_in.pop_block(n)


def _by_row(cols: np.ndarray, n: int, w: int) -> np.ndarray:
    """A ring's ``(n, rows * w)`` columns of a roundrobin block — ``w``
    items a firing for each of its rows in turn — viewed as the
    ``(rows, n, w)`` array they are on its tape."""
    return cols.reshape(n, -1, w).transpose(1, 0, 2)


class RoundRobinSplitStep(Step):
    """``weights[i]`` items a firing to every row of ``rings_out[i]``:
    one ring a branch, or the one ``(b, .)`` ring of ``b`` sibling
    branches of equal weight."""

    kind = "rr-split"

    def __init__(self, ring_in, rings_out, weights):
        self.ring_in = ring_in
        self.rings_out = rings_out
        self.weights = weights
        self.total = sum(w * r.rows for r, w in zip(rings_out, weights))

    def execute(self, n: int) -> None:
        block = self.ring_in.peek_block(n * self.total)
        block = block.reshape(n, self.total)
        off = 0
        for ring, w in zip(self.rings_out, self.weights):
            if w:
                cols = w * ring.rows
                ring.alloc_push(n * w).reshape(-1, n, w)[...] = \
                    _by_row(block[:, off:off + cols], n, w)
                off += cols
        self.ring_in.pop_block(n * self.total)


class RoundRobinJoinStep(Step):
    """The mirror image: ``weights[i]`` items a firing from every row of
    ``rings_in[i]``.

    From a many-row ring at ``w > 1``, each run of ``w`` items moves as
    one ``w * itemsize``-byte void item: a byte copy, so bit-exact for
    every dtype, and a fifth of the time on Radar's 12-row channel join
    (``w = 2``).  At ``w == 1`` there is nothing to group, and on one
    row the void view's fixed cost was not repaid at the apps' batches
    (Vocoder's ``roundrobin(1, 4)``: 15-27 firings), so both keep the
    element-wise copy."""

    kind = "rr-join"

    def __init__(self, rings_in, ring_out, weights):
        self.rings_in = rings_in
        self.ring_out = ring_out
        self.weights = weights
        self.total = sum(w * r.rows for r, w in zip(rings_in, weights))
        size = ring_out.dtype.itemsize
        self.runs = [np.dtype((np.void, w * size))
                     if w > 1 and r.rows > 1 else None
                     for r, w in zip(rings_in, weights)]

    def execute(self, n: int) -> None:
        out = self.ring_out.alloc_push(n * self.total).reshape(n, self.total)
        off = 0
        for ring, w, run in zip(self.rings_in, self.weights, self.runs):
            if w:
                cols = w * ring.rows
                if run is None:
                    _by_row(out[:, off:off + cols], n, w)[...] = \
                        ring.peek_block(n * w).reshape(-1, n, w)
                else:
                    out[:, off:off + cols].view(run)[...] = \
                        ring.peek_block(n * w).view(run).T
                ring.pop_block(n * w)
                off += cols


class CollectorStep(Step):
    kind = "collector"
    STATE = ("sink",)

    def __init__(self, ring_in, sink):
        self.ring_in = ring_in
        self.sink = sink  # the Collector's output ring

    def execute(self, n: int) -> None:
        self.sink.extend(self.ring_in.peek_block(n))
        self.ring_in.pop_block(n)


class ListSourceStep(Step):
    kind = "list-source"
    STATE = ("pos",)

    def __init__(self, ring_out, values: np.ndarray):
        self.ring_out = ring_out
        self.values = values  # in the ring's dtype
        self.pos = 0

    def execute(self, n: int) -> None:
        if self.pos + n > len(self.values):
            raise InterpError("plan fired exhausted ListSource")
        self.ring_out.push_array(self.values[self.pos:self.pos + n])
        self.pos += n


class ChunkSourceStep(Step):
    """Block transfer out of the executor's feed ring (:class:`~repro.
    runtime.builtins.ChunkFeed`) — the ndarray-native feed of a push
    session."""

    kind = "chunk-source"
    STATE = ("feed",)

    def __init__(self, ring_out, feed):
        self.ring_out = ring_out
        self.feed = feed  # what the session feeds
        self.buffer = feed.buffer

    def execute(self, n: int) -> None:
        buffer = self.buffer
        if n > len(buffer):
            raise InterpError("plan fired exhausted ChunkSource")
        self.ring_out.push_array(buffer.peek_block(n))
        buffer.pop_block(n)


class FunctionSourceStep(Step):
    kind = "function-source"
    STATE = ("pos",)

    def __init__(self, ring_out, fn,
                 policy: NumericPolicy = DEFAULT_POLICY):
        self.ring_out = ring_out
        self.fn = fn
        self.dtype = policy.dtype
        self.pos = 0

    def execute(self, n: int) -> None:
        fn = self.fn
        start = self.pos
        self.ring_out.push_array(
            np.fromiter((fn(i) for i in range(start, start + n)),
                        dtype=self.dtype, count=n))
        self.pos += n


class IdentityStep(Step):
    kind = "identity"

    def __init__(self, ring_in, ring_out):
        self.ring_in = ring_in
        self.ring_out = ring_out

    def execute(self, n: int) -> None:
        self.ring_out.push_array(self.ring_in.pop_block_array(n))


class DecimatorStep(Step):
    """Keep the first ``u`` of every ``u*o`` items, batched."""

    kind = "decimator"

    def __init__(self, ring_in, ring_out, o: int, u: int):
        self.ring_in = ring_in
        self.ring_out = ring_out
        self.o = o
        self.u = u

    def execute(self, n: int) -> None:
        u, uo = self.u, self.u * self.o
        self.ring_out.alloc_push(n * u).reshape(n, u)[...] = \
            self.ring_in.peek_block(n * uo).reshape(n, uo)[:, :u]
        self.ring_in.pop_block(n * uo)
