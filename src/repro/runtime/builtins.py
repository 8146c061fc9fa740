"""Built-in primitive filters: test sources, the sink, and identity.

These are :class:`~repro.graph.streams.PrimitiveFilter` leaves used by the
executor's convenience entry points and by benchmark top-levels.  There is
one sink, :class:`Collector`: every program, app, harness and session ends
in an output ring that hands each output out once.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable

import numpy as np

from ..errors import ChunkDtypeError
from ..graph.streams import PrimitiveFilter


class ListSource(PrimitiveFilter):
    """Pushes values from a finite list, one per firing."""

    pop = 0
    peek = 0
    push = 1

    def __init__(self, values: Iterable[float], name: str = "ListSource"):
        self.values = [float(v) for v in values]
        self.name = name

    def make_runner(self, profiler):
        values = self.values
        pos = count()

        class _Runner:
            def fire(self, ch_in, ch_out):
                i = next(pos)
                if i >= len(values):
                    raise IndexError("ListSource exhausted")
                ch_out.push(values[i])

        return _Runner()


class ChunkSource(PrimitiveFilter):
    """Pushes values fed incrementally as ndarray chunks.

    The input side of a :class:`~repro.session.StreamSession` push
    harness.  The node is stateless — type, rates and dtype describe it,
    so content-identical push graphs share one cached plan; the feed
    ring is *runner state* (:class:`ChunkFeed`), created per executor
    like every channel.  Firings consume the ring one item at a time
    (scalar backends) or in blocks
    (:class:`~repro.exec.kernels.ChunkSourceStep`).  Like
    :class:`ListSource`, running dry raises ``IndexError`` from the
    scalar runner, which the executor treats as "finite source
    exhausted"; the plan backend models the same bound through the rate
    simulator's ``remaining`` counter.
    """

    pop = 0
    peek = 0
    push = 1

    def __init__(self, name: str = "ChunkSource", dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.name = name

    def make_runner(self, profiler):
        return ChunkFeed(self.name, self.dtype)


class ChunkFeed:
    """One executor's feed ring: what was fed and not yet consumed."""

    def __init__(self, name: str, dtype):
        from ..exec.ring import RingBuffer  # deferred: exec imports us
        self.dtype = dtype
        self.buffer = RingBuffer(f"{name}.buffer", dtype=dtype)

    def feed(self, values) -> int:
        """Append a chunk; returns the number of items added.

        Accepts numeric data castable to the session dtype: float/int/
        bool arrays or sequences (plus complex for complex policies);
        string, object, and other dtypes — and complex data pushed into
        a real-dtype session — raise
        :class:`~repro.errors.ChunkDtypeError` instead of whatever
        ``np.asarray`` would.
        """
        arr = np.asarray(values)
        kinds = "fiubc" if self.dtype.kind == "c" else "fiub"
        if arr.dtype.kind not in kinds:
            raise ChunkDtypeError(arr.dtype, complex_ok=self.dtype.kind == "c")
        arr = arr.astype(self.dtype, copy=False).ravel()
        self.buffer.push_array(arr)
        return len(arr)

    def fire(self, ch_in, ch_out):
        if not len(self.buffer):
            raise IndexError("ChunkSource exhausted")
        ch_out.push(self.buffer.pop())


class FunctionSource(PrimitiveFilter):
    """Pushes ``fn(n)`` for n = 0, 1, 2, ... — an unbounded source."""

    pop = 0
    peek = 0
    push = 1

    def __init__(self, fn: Callable[[int], float], name: str = "Source"):
        self.fn = fn
        self.name = name

    def make_runner(self, profiler):
        fn = self.fn
        counter = count()

        class _Runner:
            def fire(self, ch_in, ch_out):
                ch_out.push(float(fn(next(counter))))

        return _Runner()


class Collector(PrimitiveFilter):
    """Terminal sink: pops one item per firing into an output ring.

    The executor looks for a Collector to decide when ``n`` outputs have
    been produced.  Stateless like :class:`ChunkSource`: the ring is
    runner state, stored in the executor's dtype (the session policy's),
    and ``take`` *pops* it, so a session holds one call of output (plus
    the overshoot a run has not taken yet), never the stream.
    """

    pop = 1
    peek = 1
    push = 0

    def __init__(self, name: str = "Collector"):
        self.name = name

    def make_runner(self, profiler, dtype):
        return _RingSink(self.name, dtype)


class _RingSink:
    def __init__(self, name: str, dtype):
        from ..exec.ring import RingBuffer  # deferred: exec imports us
        self.collected = RingBuffer(f"{name}.out", dtype=dtype)
        self.taken = 0  #: outputs already handed out

    def fire(self, ch_in, ch_out):
        self.collected.push(ch_in.pop())

    def extend(self, block: np.ndarray) -> None:
        self.collected.push_array(block)

    def produced(self) -> int:
        return self.taken + len(self.collected)

    @property
    def capacity(self) -> int:
        return self.collected.capacity

    def take(self, n: int) -> np.ndarray:
        """Pop the next ``n`` outputs into an array the caller owns."""
        self.taken += n
        return self.collected.pop_block_array(n)


class Identity(PrimitiveFilter):
    """Passes items through unchanged (StreamIt's Identity filter)."""

    pop = 1
    peek = 1
    push = 1

    def __init__(self, name: str = "Identity"):
        self.name = name

    def make_runner(self, profiler):
        class _Runner:
            def fire(self, ch_in, ch_out):
                ch_out.push(ch_in.pop())

        return _Runner()
