"""Compare two perfbench records: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, the bound from ``BENCHMARK.json``, and a verdict —

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  the round-to-round spread of either side (see
  :func:`spread`) is wider than the bound, so the two cannot be told
  apart.

Per-layer metrics present in both records follow as ``info`` rows (they
have no bound).  Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

import workloads as W
from run import load_spec


def spread(values) -> float:
    """Round-to-round spread as a share of the median: twice the median
    absolute deviation, which is the interquartile range of a symmetric
    sample but, unlike quartiles of the 3-6 rounds a run has, is not
    thrown by one slow round."""
    mid = statistics.median(values)
    return 2 * statistics.median(abs(v - mid) for v in values) / abs(mid)


def verdict(a: float, b: float, metric: dict, spreads) -> str:
    bound = metric["bound"]
    if max(spreads) > bound:
        return "unresolved"
    worse = (b > a * (1 + bound) if metric["better"] == "lower"
             else b < a * (1 - bound))
    return "worse" if worse else "ok"


def rows(a: dict, b: dict, spec: dict):
    for name in W.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            if m not in wa.get("end_to_end", {}) or \
                    m not in wb.get("end_to_end", {}):
                continue
            va, vb = wa["end_to_end"][m]["value"], wb["end_to_end"][m]["value"]
            spreads = (spread(wa["per_round"][m]), spread(wb["per_round"][m]))
            yield (name, m, va, vb, metric["unit"], metric["bound"],
                   max(spreads), verdict(va, vb, metric, spreads))
        for metric in spec["per_layer"]:
            m = metric["name"]
            if m in wa.get("per_layer", {}) and m in wb.get("per_layer", {}):
                yield (name, m, wa["per_layer"][m]["value"],
                       wb["per_layer"][m]["value"], metric["unit"], None,
                       None, "info")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    a, b = records
    for side, rec in zip("AB", records):
        p = rec["provenance"]
        print(f"{side}: commit {p['commit'][:12]} seed {p['seed']} "
              f"rounds {p['rounds']} nproc {p['nproc']} numpy {p['numpy']} "
              f"{p['machine']['platform']}")
    print(f"{'workload':<16}{'metric':<34}{'A':>12}{'B':>12}  unit  "
          f"{'B/A':>7}  (base A)  bound  spread  verdict")
    bad = 0
    for name, m, va, vb, unit, bound, sp, v in rows(a, b, load_spec()):
        ratio = f"{vb / va:7.3f}" if va else "      -"
        extra = (f"{bound:5.3f}  {sp:6.3f}" if bound is not None
                 else "    -       -")
        print(f"{name:<16}{m:<34}{va:>12.5g}{vb:>12.5g}  {unit:<5} "
              f"{ratio}  ({va:.4g})  {extra}  {v}")
        bad += v == "worse"
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
