"""The kernel census of every app's plan, pinned as data.

``tests/golden/plan_census.json`` holds, per app (full size, as
``repro.apps.BENCHMARKS`` builds it) and per ``none | linear | freq |
auto`` under ``calibrate.analytic_only()``, the plan report's flattened
``nodes``, its ``steps``, its ``fallbacks`` (island members included)
and its :meth:`~repro.exec.planner.PlanReport.census`: rows by
``kind[tag,…]``, an island member's as ``island:<key>``.  A kernel that
stops being chosen, or a variant that stops being reached, is a diff in
one cell.

``python tests/test_plan_census.py`` rewrites the file from the tree it
runs on; a diff in it is a planner change to review, never noise.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.apps import BENCHMARKS
from repro.exec import calibrate, plan_report

GOLDEN = Path(__file__).parent / "golden" / "plan_census.json"
MODES = ("none", "linear", "freq", "auto")


def cell(app: str, mode: str) -> dict:
    """What the golden pins of ``app``'s plan under ``mode``."""
    with calibrate.analytic_only():
        rep = plan_report(BENCHMARKS[app](), optimize=mode)
    return {"nodes": rep.nodes, "steps": len(rep.steps),
            "fallbacks": sum(s.width for s in rep.fallbacks),
            "census": dict(sorted(rep.census().items()))}


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_plan_census_matches_golden(app, mode):
    assert cell(app, mode) == golden()[app][mode]


def test_golden_keeps_each_apps_kernels():
    """What each app's plan is known for, read off the golden itself, so
    a rewrite of the file cannot drop it unseen."""
    g = golden()
    # every FIR node batched, the ramp source a replayed table
    assert g["FIR"]["none"]["fallbacks"] == 0
    # the sinusoid sources, the fused channels and beams: nothing scalar
    assert g["Radar"]["none"]["nodes"] == 57
    assert g["Radar"]["none"]["steps"] == 12
    assert g["Radar"]["none"]["fallbacks"] == 0
    # the whole cascade one lifted chain behind a replayed source
    for mode in ("none", "auto"):
        iir = g["IIR"][mode]
        assert iir["fallbacks"] == 0 and "periodic-source" in iir["census"]
        assert {k: n for k, n in iir["census"].items()
                if k.startswith("stateful")} == {"stateful[chained]": 1}
    # the decimating region one polyphase FFT step, no decimator behind
    bank = g["FilterBank"]["auto"]["census"]
    assert "freq-opt[polyphase]" in bank
    assert not any(k.startswith("decimator") for k in bank)
    # CorrPeak's reduction nest interchanged, nothing scalar
    assert "lanes[interchanged]" in g["Vocoder"]["auto"]["census"]
    assert g["Vocoder"]["auto"]["fallbacks"] == 0


def write() -> None:
    rows = [f"{json.dumps(app)}: {{\n" + ",\n".join(
        f"  {json.dumps(mode)}: {json.dumps(cell(app, mode))}"
        for mode in MODES) + "\n}" for app in sorted(BENCHMARKS)]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    write()
