"""Channel (tape) semantics tests."""

import numpy as np
import pytest

from repro.errors import InterpError
from repro.runtime import Channel


def test_fifo_order():
    ch = Channel("t")
    for v in (1.0, 2.0, 3.0):
        ch.push(v)
    assert [ch.pop(), ch.pop(), ch.pop()] == [1.0, 2.0, 3.0]


def test_peek_does_not_consume():
    ch = Channel()
    ch.push_block([10.0, 20.0])
    assert ch.peek(1) == 20.0
    assert len(ch) == 2
    assert ch.pop() == 10.0


def test_peek_out_of_range():
    ch = Channel("x")
    ch.push(1.0)
    with pytest.raises(InterpError):
        ch.peek(1)
    with pytest.raises(InterpError):
        ch.peek(-1)


def test_pop_empty():
    with pytest.raises(InterpError):
        Channel("e").pop()


def test_block_operations():
    ch = Channel()
    ch.push_array(np.arange(5.0))
    block = ch.peek_block(3)
    np.testing.assert_array_equal(block, [0.0, 1.0, 2.0])
    ch.pop_block(2)
    assert ch.pop() == 2.0
    assert len(ch) == 2


def test_block_underflow():
    ch = Channel()
    ch.push(1.0)
    with pytest.raises(InterpError):
        ch.peek_block(2)
    with pytest.raises(InterpError):
        ch.pop_block(2)


def test_compaction_preserves_contents():
    """Push/pop far past the compaction threshold."""
    ch = Channel()
    expected = []
    n = 20_000
    for i in range(n):
        ch.push(float(i))
        if i % 3 != 0:
            expected.append(ch.pop())
    while len(ch):
        expected.append(ch.pop())
    assert expected[:5] == sorted(expected[:5])
    assert len(expected) == n


def test_pop_block_array_returns_consumed_items():
    ch = Channel()
    ch.push_array(np.arange(6.0))
    got = ch.pop_block_array(4)
    np.testing.assert_array_equal(got, [0.0, 1.0, 2.0, 3.0])
    assert len(ch) == 2
    with pytest.raises(InterpError):
        ch.pop_block_array(3)


def test_push_block_accepts_ndarray():
    ch = Channel()
    ch.push_block(np.array([1.5, 2.5]))
    ch.push_block([3.5])
    assert ch.state() == [1.5, 2.5, 3.5]


def test_compaction_is_proportional_to_buffer():
    """The dead prefix never exceeds the live region (plus slack)."""
    ch = Channel()
    ch.push_block([float(i) for i in range(100_000)])
    for _ in range(99_000):
        ch.pop()
        # head may lag live data by at most max(live, _MIN_COMPACT)
        assert ch._head <= max(len(ch), 64)
    assert len(ch) == 1000
    assert ch.state()[0] == 99_000.0


def test_state_round_trips():
    ch = Channel()
    ch.push_block([1.0, 2.0, 3.0])
    ch.pop()
    held = ch.state()
    assert held == [2.0, 3.0]
    ch.push(4.0)  # the state is a copy
    other = Channel()
    other.set_state(held)
    assert other.pop() == 2.0 and other.state() == [3.0] == held[1:]
