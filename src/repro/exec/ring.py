"""Preallocated ndarray ring buffers for the plan backend.

A :class:`RingBuffer` is a drop-in replacement for the list-based
:class:`~repro.runtime.channels.Channel` backed by a contiguous float64
ndarray.  The live region ``[_head, _tail)`` always stays contiguous (no
wraparound), so batched kernels can take zero-copy window views over it;
space consumed by popped items is reclaimed lazily — when an append no
longer fits, the live region is slid back to the front (or the buffer is
doubled), giving amortized O(1) push/pop with compaction work proportional
to the *live* data rather than a fixed head offset.

A ring built with ``rows = b > 1`` is the tape of ``b`` sibling branches
the planner runs as one step (:mod:`repro.exec.planner`, *sibling
orbits*): storage is ``(b, capacity)``, the rows share one head and one
tail — siblings fire in lockstep — and every block operation carries the
leading axis (``peek_block`` gives ``(b, n)``, ``window_view``
``(b, firings, peek)``).  With ``rows == 1`` storage stays 1-D and every
operation is what it was: the indexing is written over the last axis, so
one class serves both.

Scalar ``peek``/``pop``/``push`` keep exact :class:`Channel` semantics
(including error behavior) so the compiled fallback runners execute
unchanged over a (one-row) ring.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpError
from ..runtime.channels import Stateful

_MIN_CAPACITY = 64


class RingBuffer(Stateful):
    """A FIFO of samples over a contiguous, growable ndarray."""

    #: ``_cap`` is ``_buf.shape[-1]``, kept for :meth:`_reserve`: every
    #: push asks whether it fits, and the shape lookup cost as much as
    #: the rest of the question
    __slots__ = ("_buf", "_cap", "_head", "_tail", "name", "dtype")

    def __init__(self, name: str = "", capacity: int = _MIN_CAPACITY,
                 prefill=None, dtype=np.float64, rows: int = 1):
        """``prefill`` seeds the ring with initial items — the cyclic
        back edge of a feedback loop starts life holding the loop's
        ``enqueued`` values, exactly like the scalar executor's channel.
        ``dtype`` is the storage dtype (the session's numeric policy);
        everything pushed is cast into it on write.  ``rows > 1`` makes
        it the shared tape of that many lockstep siblings.
        """
        self.dtype = np.dtype(dtype)
        if prefill is not None:
            prefill = np.asarray(prefill, dtype=self.dtype)
            capacity = max(capacity, len(prefill))
        self._cap = max(capacity, _MIN_CAPACITY)
        self._buf = np.empty(self._cap if rows == 1 else (rows, self._cap),
                             dtype=self.dtype)
        self._head = 0
        self._tail = 0
        self.name = name
        if prefill is not None and len(prefill):
            self._buf[..., :len(prefill)] = prefill
            self._tail = len(prefill)

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def rows(self) -> int:
        """Sibling tapes sharing this ring's cursors (1: a plain ring)."""
        return 1 if self._buf.ndim == 1 else len(self._buf)

    @property
    def capacity(self) -> int:
        """Items of storage allocated per row (live, popped and free)."""
        return self._buf.shape[-1]

    # -- storage management ---------------------------------------------
    def _reserve(self, n: int) -> None:
        """Make room to append ``n`` items past ``_tail``."""
        cap = self._cap
        if self._tail + n <= cap:
            return
        buf = self._buf
        live = self._tail - self._head
        need = live + n
        if need > cap:
            while cap < need:
                cap *= 2
            new = np.empty(buf.shape[:-1] + (cap,), dtype=self.dtype)
            new[..., :live] = buf[..., self._head:self._tail]
            self._buf, self._cap = new, cap
        else:
            # slide live region to the front; cost is O(live), amortized
            # O(1) per popped item since head must have crossed cap/2
            buf[..., :live] = buf[..., self._head:self._tail]
        self._head = 0
        self._tail = live

    # -- tape primitives -------------------------------------------------
    def push(self, value: float) -> None:
        self._reserve(1)
        self._buf[self._tail] = value
        self._tail += 1

    def pop(self) -> float:
        if self._head >= self._tail:
            raise InterpError(f"pop from empty channel {self.name!r}")
        v = self._buf[self._head]
        self._head += 1
        return v.item()

    def peek(self, index: int) -> float:
        i = self._head + index
        if index < 0 or i >= self._tail:
            raise InterpError(
                f"peek({index}) beyond channel {self.name!r} "
                f"(holds {len(self)})")
        return self._buf[i].item()

    # -- block operations -------------------------------------------------
    def peek_block(self, n: int) -> np.ndarray:
        """First ``n`` items (of every row) as an ndarray view, without
        consuming.

        The view aliases the buffer; callers must not hold it across a
        subsequent push to the *same* ring (plan steps never do).
        """
        if len(self) < n:
            raise InterpError(
                f"peek_block({n}) beyond channel {self.name!r} "
                f"(holds {len(self)})")
        return self._buf[..., self._head:self._head + n]

    def window_view(self, firings: int, pop: int, peek: int) -> np.ndarray:
        """``(firings, peek)`` view of consecutive peek windows at stride
        ``pop`` — row ``i`` is ``[peek(0), ..., peek(e-1)]`` of firing
        ``i`` — with the sibling axis in front, ``(rows, firings, peek)``,
        on a many-row ring.
        """
        span = (firings - 1) * pop + peek
        if len(self) < span:
            raise InterpError(
                f"window_view({firings}x{peek}@{pop}) beyond channel "
                f"{self.name!r} (holds {len(self)}, needs {span})")
        # the strided view built directly: sliding_window_view spends
        # ~10 us validating what the span check above already established
        buf, size = self._buf, self.dtype.itemsize
        view = np.ndarray(buf.shape[:-1] + (firings, peek), self.dtype, buf,
                          self._head * size,
                          buf.strides[:-1] + (pop * size, size))
        view.flags.writeable = False  # rows may overlap
        return view

    def pop_block(self, n: int) -> None:
        """Discard the first ``n`` items."""
        if len(self) < n:
            raise InterpError(f"pop_block({n}) from channel {self.name!r}")
        self._head += n

    def pop_block_array(self, n: int) -> np.ndarray:
        """Consume and return the first ``n`` items as a fresh ndarray."""
        if len(self) < n:
            raise InterpError(
                f"pop_block_array({n}) from channel {self.name!r}")
        out = self._buf[..., self._head:self._head + n].copy()
        self._head += n
        return out

    def push_block(self, values) -> None:
        arr = np.asarray(values, dtype=self.dtype)
        self.push_array(arr)

    def push_array(self, values: np.ndarray) -> None:
        """Append the 1-D block ``values`` — on a many-row ring, to
        every row alike (rows that differ are written through
        :meth:`alloc_push`)."""
        n = len(values)
        self._reserve(n)
        self._buf[..., self._tail:self._tail + n] = values
        self._tail += n

    def alloc_push(self, n: int) -> np.ndarray:
        """Append ``n`` uninitialized items; return a writable view over them.

        Batched kernels fill the view in place, saving the intermediate
        array + copy of ``push_array``.  The view aliases the buffer, so it
        must be fully written before any further ring operation — or
        handed back whole with :meth:`retract`.
        """
        self._reserve(n)
        view = self._buf[..., self._tail:self._tail + n]
        self._tail += n
        return view

    def retract(self, n: int) -> None:
        """Take back the last ``n`` items of an :meth:`alloc_push` whose
        kernel gave up before committing."""
        self._tail -= n

    def state(self) -> np.ndarray:
        """The live items (of every row), as a copy."""
        return self._buf[..., self._head:self._tail].copy()

    def set_state(self, items: np.ndarray) -> None:
        """Hold exactly ``items`` (a :meth:`state`), copied in."""
        self._head = self._tail = 0
        self.alloc_push(items.shape[-1])[...] = items
