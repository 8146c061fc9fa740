"""A checkpoint is the session's state: ``snapshot()`` copies O(state)
and ``restore()`` sets it on a fresh executor, replaying nothing.

* the snapshot of a session that has streamed 200 calls is no larger
  than the largest of its first 20, on every app and both executors;
* a snapshot restores as often as asked, each time to the same tail,
  values and FLOP counts alike;
* it fits only a session of its backend, optimize mode, dtype and
  executor layout, and a ``workers > 1`` session takes none.
"""

import numpy as np
import pytest

import repro
from repro.apps import BENCHMARKS, split_app
from repro.errors import StreamGraphError
from repro.parallel.pool import shutdown_pool

from test_exec_plan import SMALL_PARAMS


def small(app):
    return BENCHMARKS[app](**SMALL_PARAMS[app])


def size(snap) -> int:
    """Items a snapshot holds: array elements, list and dict entries,
    one a scalar."""
    def items(x):
        if isinstance(x, np.ndarray):
            return x.size
        if isinstance(x, (list, tuple)):
            return sum(map(items, x))
        if isinstance(x, dict):
            return sum(map(items, x.values()))
        return 1
    return items(snap.state)


@pytest.mark.parametrize("backend", ["plan", "compiled"])
@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_snapshot_size_does_not_grow_with_the_stream(app, backend):
    session = repro.compile(small(app), backend=backend)
    sizes = []
    for _ in range(200):
        session.run(8)
        sizes.append(size(session.snapshot()))
    assert max(sizes[20:]) <= max(sizes[:20]), sizes
    session.close()


@pytest.mark.parametrize("backend", ["plan", "compiled", "interp"])
@pytest.mark.parametrize("app", ["FIR", "IIR", "Echo", "TargetDetect",
                                 "Vocoder"])
def test_restoring_one_snapshot_twice_gives_one_tail(app, backend):
    session = repro.compile(small(app), backend=backend)
    session.run(40)
    snap = session.snapshot()
    tails, flops = [], []
    for _ in range(2):
        session.restore(snap)
        tails.append(np.concatenate([session.run(24) for _ in range(3)]))
        flops.append(session.profile.counts)
        assert session.outputs_produced == 40 + 72
    assert tails[0].tobytes() == tails[1].tobytes()
    assert flops[0] == flops[1]
    # the uninterrupted session, in the same calls (a stateful lift's
    # values depend on how its firings are batched)
    whole = repro.compile(small(app), backend=backend)
    whole.run(40)
    tail = np.concatenate([whole.run(24) for _ in range(3)])
    assert tail.tobytes() == tails[0].tobytes()
    assert whole.profile.counts == flops[0]


def test_a_push_snapshot_restores_into_a_fresh_session():
    _source, body = split_app(small("FIR"))
    chunks = np.random.default_rng(3).normal(size=(6, 50))
    first = repro.compile(body)
    head = [first.push(c) for c in chunks[:3]]
    snap = first.snapshot()
    first.close()
    second = repro.compile(body)
    second.restore(snap)
    assert second.consumed == 150 - second.pending_input
    got = np.concatenate(head + [second.push(c) for c in chunks[3:]])
    whole = repro.compile(body).push(chunks.reshape(-1))
    assert got.tobytes() == whole.tobytes()


def test_layout_is_derived_once_per_plan_entry():
    one, two = (repro.compile(small("Radar")) for _ in range(2))
    assert one.cache_entry is two.cache_entry
    assert one.snapshot().fits[3] is two.snapshot().fits[3]
    scalar = repro.compile(small("Radar"), backend="compiled")
    assert scalar.snapshot().fits[3] is scalar.snapshot().fits[3]


@pytest.mark.parametrize("other", [
    dict(backend="compiled"), dict(optimize="linear"), dict(dtype="f32"),
    dict(app="FilterBank")])
def test_restore_into_a_session_of_another_shape_raises(other):
    snap = repro.compile(small("FIR")).snapshot()
    options = dict(other)
    session = repro.compile(small(options.pop("app", "FIR")), **options)
    session.run(10)
    with pytest.raises(StreamGraphError, match="does not fit"):
        session.restore(snap)
    assert session.outputs_produced == 10  # left as it was


def test_a_parallel_session_takes_no_snapshot():
    _source, body = split_app(small("FIR"))
    session = repro.compile(body, workers=2)
    try:
        with pytest.raises(StreamGraphError, match="worker processes"):
            session.snapshot()
    finally:
        session.close()
        shutdown_pool()
