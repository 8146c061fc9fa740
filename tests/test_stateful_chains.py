"""Stateful chains: adjacent stateful-linear nodes as one lifted step.

The planner contracts a run of stateful nodes — each the one reader of
the channel before it, peeking and popping what that one pushes — into
one :class:`~repro.exec.kernels.StatefulLinearStep` over their pipeline
combination.  Values must still match ``interp`` at the policy's
tolerance, every filter's FLOP profile must still be ``compiled``'s
(counted per member, not from the lift), and a restored snapshot must
continue the stream.  Anything else — a stateless member, a rate
change, a fan-out, a loop, a sibling stage, the graph's own sink —
stays apart.
"""

import functools

import numpy as np
import pytest

import repro
from repro.exec import plan_report, planner
from repro.graph import Duplicate, FeedbackLoop, Pipeline, RoundRobin, \
    SplitJoin
from repro.linear import LinearFilter, LinearNode
from repro.linear.state import from_difference_equation
from repro.numeric import POLICIES
from repro.runtime import Collector, Identity, ListSource
from repro.runtime.executor import FlatGraph, _Node

#: (b, a) of ``y[n] = Σ b_k x[n-k] + Σ a_k y[n-k]``
SECTIONS = {
    "dc": ([1.0, -1.0], [0.995]),
    "lp": ([0.2929, 0.5858, 0.2929], [0.0, -0.1716]),
    "res": ([0.1867, 0.3734, 0.1867], [0.4629, -0.2097]),
    "notch": ([0.3913, -0.7826, 0.3913], [0.3695, -0.1958]),
    "third": ([0.1, 0.2, 0.2, 0.1], [0.5, -0.3, 0.1]),
    "near_unit": ([1.0, -1.0], [0.9999]),
    # a pole at 2 cancelled by a zero: the state stays 0 and the output
    # is the input, yet Cs^(B·G) overflows, so the boundary lift halves G
    "unstable": ([1.0, -2.0], [2.0]),
}

#: 2-6 sections each: stable, near-unit and unstable poles
CASCADES = {
    "two": ("dc", "lp"),
    "iir": ("dc", "lp", "res", "notch"),
    "six": ("dc", "lp", "res", "notch", "third", "near_unit"),
    "near_unit": ("near_unit", "res", "lp"),
    "unstable": ("lp", "unstable", "res"),
}

PUSHES = (1, 63, 64, 65, 4096, 4097)
RUNS = (1, 63, 64, 65, 4096)


def section(key, name=None):
    return LinearFilter(from_difference_equation(*SECTIONS[key]),
                        name=name or key)


def cascade(keys):
    return Pipeline([section(k, f"{k}{i}") for i, k in enumerate(keys)],
                    name="Cascade")


def inputs(policy, n, seed=0):
    """Complex normal samples, or their real part for a real policy."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return (z if policy.is_complex else z.real).astype(policy.dtype)


@functools.lru_cache(maxsize=None)
def interp_push(name, n, seed=0):
    """The interpreter's outputs for ``inputs(c128, n, seed)``, through
    their real and imaginary parts (the sections have no offset): the
    real part is what the real inputs give."""
    z = inputs(POLICIES["c128"], n, seed)

    def run(part):
        with repro.compile(cascade(CASCADES[name]), backend="interp") as s:
            return s.push(part)
    return run(z.real) + 1j * run(z.imag)


@functools.lru_cache(maxsize=None)
def compiled_profile(name, n):
    """The compiled backend's profile of ``interp_push(name, n).real``."""
    with repro.compile(cascade(CASCADES[name]), backend="compiled") as s:
        s.push(inputs(POLICIES["f64"], n))
        return s.profile


def chain_rows(report):
    return [s for s in report.steps if s.step_kind == "stateful"]


def per_filter(profile):
    return {name: c.copy() for name, c in profile.per_filter.items()}


# ---------------------------------------------------------------------------
# One step: values, profiles, snapshots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["f64", "f32", "c128"])
@pytest.mark.parametrize("name", sorted(CASCADES))
def test_push_chain_is_one_step(name, dtype):
    policy, keys = POLICIES[dtype], CASCADES[name]
    x = inputs(policy, sum(PUSHES))
    edges = np.cumsum((0,) + PUSHES)
    with repro.compile(cascade(keys), dtype=dtype) as plan:
        (row,) = chain_rows(plan.report())
        assert row.name == " → ".join(f"{k}{i}" for i, k in enumerate(keys))
        k = sum(from_difference_equation(*SECTIONS[s]).state_dim
                for s in keys)
        assert row.reason.startswith(f"k={k}, ")
        got = np.concatenate([plan.push(x[a:b])
                              for a, b in zip(edges, edges[1:])])
        if not policy.is_complex:
            scalar = compiled_profile(name, len(x))
            assert per_filter(plan.profile) == per_filter(scalar)
            assert plan.profile.counts == scalar.counts
    want = interp_push(name, len(x))
    np.testing.assert_allclose(got, want if policy.is_complex else want.real,
                               rtol=policy.rtol,
                               atol=policy.atol)


def test_unstable_section_halves_the_boundary_lift():
    with repro.compile(cascade(CASCADES["unstable"])) as s:
        (step,) = [st for st in s._executor.steps
                   if st.kind == "stateful"]
        s.push(inputs(POLICIES["f64"], 4096))
        assert step.lifts[step.block][0] < step.group


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_pull_chain_is_one_step(dtype):
    keys = CASCADES["six"]
    x = inputs(POLICIES["f64"], sum(PUSHES))

    def program():
        return Pipeline([ListSource(x.tolist()), cascade(keys),
                         Collector()])

    want = interp_push("six", len(x)).real[:sum(RUNS)]
    with repro.compile(program(), dtype=dtype) as plan, \
            repro.compile(program(), backend="compiled") as scalar:
        assert len(chain_rows(plan.report())) == 1
        got = np.concatenate([plan.run(n) for n in RUNS])
        for n in RUNS:
            scalar.run(n)
        assert per_filter(plan.profile) == per_filter(scalar.profile)
    policy = POLICIES[dtype]
    np.testing.assert_allclose(got, want, rtol=policy.rtol,
                               atol=policy.atol)


def test_snapshot_restore_mid_stream():
    x = inputs(POLICIES["f64"], 3 * 4097, seed=2)
    parts = np.split(x, 3)
    with repro.compile(cascade(CASCADES["iir"])) as s:
        s.push(parts[0])
        snap = s.snapshot()
        counts = s.profile.counts.copy()
        first = [s.push(p) for p in parts[1:]]
        s.restore(snap)
        assert s.profile.counts == counts
        again = [s.push(p) for p in parts[1:]]
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("optimize, flops", [("none", 30.0),
                                             ("linear", 58.0),
                                             ("auto", 37.0)])
def test_iir_app_runs_one_lift_whatever_it_counts(optimize, flops):
    """Every mode executes one ``k = 7`` lift; the count is the scalar
    program the mode chose (the IR sections, the collapsed node, the
    DP's pick)."""
    from repro.apps import iir
    from repro.runtime import run_graph
    from repro.profiling import Profiler

    rep = plan_report(iir.build(), optimize=optimize)
    (row,) = chain_rows(rep)
    assert row.reason.startswith("k=7, ")
    plan, scalar = Profiler(), Profiler()
    run_graph(iir.build(), 512, plan, backend="plan", optimize=optimize)
    run_graph(iir.build(), 512, scalar, backend="compiled",
              optimize=optimize)
    assert plan.counts == scalar.counts
    assert per_filter(plan) == per_filter(scalar)
    assert plan.flops / 512 == flops


def test_report_counts_the_macs_the_lift_saves():
    """The four separate steps' products against the one lift's."""
    from repro.apps import iir

    def macs(rows):
        return sum(float(r.reason.split(", ")[1].split()[0]) for r in rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_stateful_chains", lambda *a: [])
        apart = chain_rows(plan_report(iir.build()))
    (one,) = chain_rows(plan_report(iir.build()))
    assert len(apart) == 4
    assert macs(apart) > 3 * macs([one])


def test_parallel_engine_runs_the_chain():
    x = inputs(POLICIES["f64"], 4096, seed=3)
    with repro.compile(cascade(CASCADES["iir"])) as one, \
            repro.compile(cascade(CASCADES["iir"]), workers=2) as two:
        np.testing.assert_allclose(two.push(x), one.push(x), rtol=1e-12)
        assert len(chain_rows(two.report())) == 1
        assert per_filter(two.profile) == per_filter(one.profile)


# ---------------------------------------------------------------------------
# What stays apart
# ---------------------------------------------------------------------------


def fir(taps, name):
    return LinearFilter(LinearNode(np.array(taps, float)[:, None],
                                   np.zeros(1), len(taps), 1, 1), name=name)


def decimating(name):
    """A stateful node popping 2: ``y = a + b/2 + s``, ``s' = a/4``."""
    node = LinearNode([[0.5], [1.0]], [0.0], 2, 2, 1, As=[[1.0]],
                      Cx=[[0.0], [0.25]], Cs=[[0.0]], s0=[0.0])
    return LinearFilter(node, name=name)


def loop_around(body):
    return FeedbackLoop(body, Identity(), RoundRobin((1, 1)),
                        RoundRobin((1, 1)), enqueued=[0.0], name="Loop")


def rows_of(stream):
    """Which flat nodes each stateful step fires, by name."""
    return sorted(tuple(r.name.split(" → ")) for r in
                  chain_rows(plan_report(Pipeline(
                      [ListSource([0.0] * 8), stream, Collector()]))))


@pytest.mark.parametrize("stream, rows", [
    # a stateless member splits the run
    (Pipeline([section("dc", "a"), fir([0.5, 0.5], "f"),
               section("lp", "b")]), [("a",), ("b",)]),
    # a member popping 2 after one pushing 1; as a head it fuses
    (Pipeline([section("dc", "a"), decimating("d"), section("lp", "b")]),
     [("a",), ("d", "b")]),
    # a splitter reads the first; each branch is its own chain
    (Pipeline([section("dc", "a"),
               SplitJoin(Duplicate(),
                         [Pipeline([section("lp", "b"), section("res", "c")]),
                          section("notch", "d")], RoundRobin((1, 1))),
               section("lp", "e")]),
     [("a",), ("b", "c"), ("d",), ("e",)]),
    # a sibling stage (two FIRs of one shape) between two chains
    (Pipeline([section("dc", "a"), section("lp", "b"),
               SplitJoin(Duplicate(),
                         [fir([0.5, 0.5], "f"), fir([0.25, 0.75], "g")],
                         RoundRobin((1, 1))),
               section("res", "c"), section("notch", "d")]),
     [("a", "b"), ("c", "d")]),
])
def test_what_stays_apart(stream, rows):
    assert rows_of(stream) == rows


def test_loop_members_stay_apart():
    body = Pipeline([section("lp", "a"), section("res", "b")])
    program = Pipeline([ListSource(list(np.linspace(-1, 1, 200))),
                        loop_around(body), Collector()])
    rep = plan_report(program)
    assert not chain_rows(rep)
    (island,) = rep.islands
    assert [s.step_kind for s in island.steps].count("stateful") == 2
    with repro.compile(program) as plan, \
            repro.compile(program, backend="interp") as ref:
        np.testing.assert_allclose(plan.run(150), ref.run(150), rtol=1e-9,
                                   atol=1e-12)


def test_second_reader_of_an_inner_channel_stays_apart():
    flat = FlatGraph(Pipeline([ListSource([0.0] * 8), section("dc", "a"),
                               section("lp", "b"), Collector()]))
    a = next(n for n in flat.nodes if n.name == "a")
    flat.nodes.append(_Node(name="tap", kind="primitive",
                            stream=Collector("tap"), inputs=a.outputs))
    assert planner._plan(flat, fuse=True)["chains"] == {}


def test_graph_output_writer_stays_out_of_the_chain():
    """Without a Collector the node writing the graph's output is the
    sink, capped in the last sweep of a pull: fused, it would cap the
    whole chain and move the other members' firing counts."""
    x = inputs(POLICIES["f64"], 400, seed=4)

    def program():
        return Pipeline([ListSource(x.tolist()), cascade(CASCADES["iir"])])

    rep = plan_report(program())
    assert [r.name.count("→") for r in chain_rows(rep)] == [2, 0]
    with repro.compile(program()) as plan, \
            repro.compile(program(), backend="compiled") as scalar:
        for n in (1, 63, 100):
            np.testing.assert_allclose(plan.run(n), scalar.run(n),
                                       rtol=1e-9, atol=1e-12)
        assert plan.profile.counts == scalar.profile.counts
