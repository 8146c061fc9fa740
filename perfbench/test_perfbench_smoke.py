"""Smoke test of perfbench: schema, names, completeness, determinism.

Runs ``run.py --quick`` twice (side by side: there is no wall-clock
assertion here, so contention does not matter) and checks what must hold
on any machine: ``BENCHMARK.json`` is well formed, every workload reports
every metric, no call failed, and the metrics that are counts are
identical across the two runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from run import load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: metrics that are counts of what the compiler decided or the program
#: executed: equal inputs must give equal values
EXACT = re.compile(r"flops_per_output|flops_removed_pct|exec\.plan\.steps_"
                   r"|exec\.plan\.islands|linear\.nodes_|dsl\.graph_nodes"
                   r"|selection\.decisions|exec\.optimize\.nodes_after")


def test_benchmark_json_schema():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    names += [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_runs_are_complete_and_deterministic():
    spec = load_spec()
    os.makedirs(W.OUT_DIR, exist_ok=True)
    outs = [os.path.join(W.OUT_DIR, f"smoke-{os.getpid()}-{i}.json")
            for i in range(2)]
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", "7", "--out", out], stdout=subprocess.DEVNULL)
        for out in outs]
    try:
        for proc in procs:
            assert proc.wait(timeout=600) == 0
        records = []
        for out in outs:
            with open(out, encoding="utf-8") as fh:
                records.append(json.load(fh))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for out in outs:
            if os.path.exists(out):
                os.remove(out)

    for rec in records:
        assert set(rec["workloads"]) == set(W.WORKLOADS)
        prov = rec["provenance"]
        assert {"machine", "nproc", "numpy", "commit", "seed",
                "rounds"} <= set(prov)
        for name, got in rec["workloads"].items():
            assert got["failed"] == 0 and got["attempted"] > 0, name
            for kind in ("end_to_end", "per_layer"):
                want = {m["name"]: m["unit"] for m in spec[kind]}
                assert set(got[kind]) == set(want), (name, kind)
                for metric, cell in got[kind].items():
                    assert cell["unit"] == want[metric]
                    assert cell["value"] == cell["value"]  # not NaN
            assert all(cell["value"] > 0
                       for cell in got["end_to_end"].values()), name
            assert set(got["samples"]) == set(got["end_to_end"])

    a, b = (rec["workloads"] for rec in records)
    for name in W.WORKLOADS:
        for kind in ("end_to_end", "per_layer"):
            for metric, cell in a[name][kind].items():
                if EXACT.match(metric):
                    assert cell == b[name][kind][metric], (name, metric)

    layers = {n: {k: c["value"] for k, c in w["per_layer"].items()}
              for n, w in a.items()}
    # the shares the issue wants readable without a profiler
    assert layers["fir_pull"]["runtime.source_share"] > 0.5
    for name in ("filterbank_push", "iir_push", "fir_push_small"):
        assert layers[name]["exec.plan.fallback_share"] == 0
    assert layers["iir_push"]["flops_removed_pct"] < 0  # reported, not hidden
