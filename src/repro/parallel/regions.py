"""Partition a compiled plan into schedulable units + dependency DAG.

The planner's step list is already a topological order of the flattened
acyclic graph (feedback islands collapsed into single facade steps), so
every *step* is a schedulable unit.  Two refinements:

* consecutive offloadable single-in/single-out kernels whose connecting
  ring has no other consumer **chain** into one unit, so a pipeline like
  ``matmul -> decimator -> matmul`` ships as one task instead of three
  round trips;
* units containing only trivial transfers (identity/decimator) or any
  non-picklable machinery (sources, collectors, fallback runners,
  feedback islands, split/join scatter-gathers) stay **inline** — the
  scheduler runs them in the parent while offloaded units execute in
  workers.

Edges come from ring adjacency: each ring has exactly one producer step
and at most one consumer step, so unit ``P`` precedes unit ``C``
whenever a ring flows between them.  Executing any topological order of
this DAG with full per-flush batch counts is equivalent to the serial
flush: a step's output depends only on its input rings' contents, which
are complete once its producers ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec import kernels as K

#: step types a worker can execute (picklable, single-in/single-out,
#: all state carried through the Step carry API)
OFFLOADABLE = (K.MatmulStep, K.StatefulLinearStep, K.NaiveFreqStep,
               K.OptimizedFreqStep, K.IdentityStep, K.DecimatorStep)

#: step types that justify paying a dispatch round trip
HEAVY = (K.MatmulStep, K.StatefulLinearStep, K.NaiveFreqStep,
         K.OptimizedFreqStep)


@dataclass
class Unit:
    """One schedulable unit: a maximal chain of plan steps."""

    id: int
    step_indices: list[int] = field(default_factory=list)
    offload: bool = False
    #: unit ids this unit depends on / unlocks
    preds: set = field(default_factory=set)
    succs: set = field(default_factory=set)
    #: union of ring indices any member step reads or writes
    ring_ids: set = field(default_factory=set)


def build_units(executor) -> list[Unit]:
    """Group ``executor.steps`` into units and wire the DAG.

    ``executor`` is a :class:`~repro.exec.planner.PlanExecutor`: its
    plan's rate records give the ring wiring per step (a
    feedback island's interior rings are invisible here — only the
    facade's external in/out appear, keeping the island atomic).
    """
    steps = executor.steps
    wiring = [([r for r, *_ in p.rates[0]], [r for r, _ in p.rates[1]])
              for p in executor.plan.outer]  # (in rings, out rings)
    producer_of: dict[int, int] = {}  # ring id -> producing step index
    consumers_of: dict[int, list[int]] = {}
    for i, (in_ids, out_ids) in enumerate(wiring):
        for r in out_ids:
            producer_of[r] = i
        for r in in_ids:
            consumers_of.setdefault(r, []).append(i)

    units: list[Unit] = []
    unit_of: list[int] = [0] * len(steps)
    for i, step in enumerate(steps):
        in_ids, out_ids = wiring[i]
        chain_to = None
        if (isinstance(step, OFFLOADABLE) and len(in_ids) == 1
                and len(out_ids) <= 1):
            r = in_ids[0]
            p = producer_of.get(r)
            if (p is not None and p < i
                    and isinstance(steps[p], OFFLOADABLE)
                    and len(consumers_of.get(r, ())) == 1):
                cand = units[unit_of[p]]
                if cand.step_indices[-1] == p:
                    chain_to = cand
        if chain_to is not None:
            chain_to.step_indices.append(i)
            unit_of[i] = chain_to.id
        else:
            u = Unit(id=len(units), step_indices=[i])
            units.append(u)
            unit_of[i] = u.id
        units[unit_of[i]].ring_ids.update(in_ids)
        units[unit_of[i]].ring_ids.update(out_ids)

    for u in units:
        u.offload = any(isinstance(steps[i], HEAVY) for i in u.step_indices)

    for r, consumers in consumers_of.items():
        p = producer_of.get(r)
        if p is None:
            continue
        for c in consumers:
            pu, cu = unit_of[p], unit_of[c]
            if pu != cu:
                units[cu].preds.add(pu)
                units[pu].succs.add(cu)
    return units
