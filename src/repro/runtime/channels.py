"""FIFO channels (tapes) connecting stream nodes.

A channel supports the three StreamIt tape primitives — ``peek(i)``,
``pop()``, ``push(v)`` — plus block variants used by the vectorized
(matrix/FFT) kernels and the plan backend.  Storage is a Python list with
a head index; the dead prefix left by pops is reclaimed whenever it grows
past half of the backing list, so compaction cost is proportional to the
*live* buffer contents and amortized O(1) per popped item regardless of
how large the channel gets.

The plan backend's :class:`~repro.exec.ring.RingBuffer` implements the
same interface over a preallocated ndarray.

:class:`Stateful` is how every part of an executor names its state, once.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpError

#: Compact only once at least this many items are dead, so tiny channels
#: are not rewritten on every pop.
_MIN_COMPACT = 64


class Stateful:
    """A part of an executor — a channel or ring, a step, a runner, a
    node — whose mutable state is the attributes it names in
    :attr:`STATE`.  A checkpoint is these values (:func:`state_of`)."""

    __slots__ = ()
    STATE: tuple = ()

    def state(self) -> list:
        return [state_of(getattr(self, name)) for name in self.STATE]

    def set_state(self, state) -> None:
        for name, held in zip(self.STATE, state):
            setattr(self, name, restored(getattr(self, name), held))


def state_of(value):
    """``value``'s state: a :class:`Stateful` part's own, every array,
    list and dict copied, numbers and flags as they are."""
    if isinstance(value, Stateful):
        return value.state()
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [state_of(v) for v in value]
    if isinstance(value, dict):
        return {k: state_of(v) for k, v in value.items()}
    return value


def restored(value, held):
    """``value`` having taken up ``held``, a :func:`state_of` it: parts
    and dicts (a runner's fields) in place, else a copy of ``held``."""
    if isinstance(value, Stateful):
        value.set_state(held)
        return value
    if isinstance(value, list):
        return [restored(v, h) for v, h in zip(value, held)]
    if isinstance(value, dict):
        value.update(state_of(held))
        return value
    return state_of(held)


class Channel(Stateful):
    """A FIFO of floats with peeking."""

    __slots__ = ("_buf", "_head", "name")

    def __init__(self, name: str = ""):
        self._buf: list[float] = []
        self._head = 0
        self.name = name

    def __len__(self) -> int:
        return len(self._buf) - self._head

    @property
    def capacity(self) -> int:
        """Items of storage held (live plus the popped prefix)."""
        return len(self._buf)

    def _maybe_compact(self) -> None:
        """Reclaim the popped prefix once it dominates the backing list."""
        head = self._head
        if head >= _MIN_COMPACT and head * 2 >= len(self._buf):
            del self._buf[:head]
            self._head = 0

    # tape primitives ---------------------------------------------------
    def push(self, value: float) -> None:
        self._buf.append(value)

    def pop(self) -> float:
        if self._head >= len(self._buf):
            raise InterpError(f"pop from empty channel {self.name!r}")
        v = self._buf[self._head]
        self._head += 1
        self._maybe_compact()
        return v

    def peek(self, index: int) -> float:
        i = self._head + index
        if index < 0 or i >= len(self._buf):
            raise InterpError(
                f"peek({index}) beyond channel {self.name!r} "
                f"(holds {len(self)})")
        return self._buf[i]

    # block operations for vectorized kernels ---------------------------
    def peek_block(self, n: int) -> np.ndarray:
        """First ``n`` items as an ndarray, without consuming."""
        if len(self) < n:
            raise InterpError(
                f"peek_block({n}) beyond channel {self.name!r} "
                f"(holds {len(self)})")
        return np.asarray(self._buf[self._head:self._head + n])

    def pop_block(self, n: int) -> None:
        """Discard the first ``n`` items."""
        if len(self) < n:
            raise InterpError(f"pop_block({n}) from channel {self.name!r}")
        self._head += n
        self._maybe_compact()

    def pop_block_array(self, n: int) -> np.ndarray:
        """Consume and return the first ``n`` items as an ndarray."""
        if len(self) < n:
            raise InterpError(
                f"pop_block_array({n}) from channel {self.name!r}")
        out = np.asarray(self._buf[self._head:self._head + n])
        self._head += n
        self._maybe_compact()
        return out

    def push_block(self, values) -> None:
        """Append a block; accepts ndarrays (fast path) or any iterable."""
        if isinstance(values, np.ndarray):
            self._buf.extend(values.tolist())
        else:
            self._buf.extend(float(v) for v in values)

    def push_array(self, values: np.ndarray) -> None:
        self._buf.extend(values.tolist())

    def state(self) -> list[float]:
        """The live items, as a copy."""
        return self._buf[self._head:]

    def set_state(self, items: list[float]) -> None:
        """Hold exactly ``items`` (a :meth:`state`), copied in."""
        self._buf, self._head = list(items), 0
