"""``results/`` holds exactly what the code builds.

A table under ``results/*.txt`` is counts only, so its bytes are a
function of the repository: rebuilt here and compared with the file,
never written (``python benchmarks/render.py`` writes).  A byte of
difference is a change to extraction, combination, the FLOP convention
or a price that nobody committed.
"""

from __future__ import annotations

import difflib
import os

import pytest

import render
from tables import TABLES


def stems(directory: str) -> set[str]:
    return {os.path.splitext(f)[0] for f in os.listdir(directory)
            if f.endswith(".txt")}


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_checked_in_bytes(name):
    rebuilt = TABLES[name]() + "\n"
    path = os.path.join(render.RESULTS, f"{name}.txt")
    with open(path, encoding="utf-8") as f:
        checked_in = f.read()
    assert rebuilt == checked_in, "".join(difflib.unified_diff(
        checked_in.splitlines(True), rebuilt.splitlines(True),
        f"results/{name}.txt", "rebuilt"))


def test_registries_and_results_name_the_same_tables():
    """No unpinned table under ``results/``, no stale one under
    ``results/timing/``."""
    assert stems(render.RESULTS) == set(TABLES)
    assert stems(os.path.join(render.RESULTS, "timing")) \
        == set(render.TIMING)


def test_timing_cells_keep_three_significant_digits():
    """``format_table``'s ``,.1f`` printed FIR's 0.12 and Echo's 0.052
    us/out both as ``0.1``."""
    assert [render.sig3(x) for x in (0.0521, 0.1234, 7.75, 24.21, 317.52,
                                     1149.4, -47.53, 0.0)] \
        == ["0.0521", "0.123", "7.75", "24.2", "318", "1,149", "-47.5",
            "0.0"]
    assert render.cells([["FIR", 8192, 0.0521]]) == [["FIR", 8192, "0.0521"]]
