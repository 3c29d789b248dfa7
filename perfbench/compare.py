#!/usr/bin/env python3
"""Compare two result files of ``python -m perfbench``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both values, the median and
quartiles of each run's samples (per-pass sums for a timing, the probes for
``setup_s``), the ratio B/A, the metric's bound from ``BENCHMARK.json`` and a
verdict:

``better`` / ``worse``  B's value differs from A's by more than the bound;
``same``                it does not;
``unresolved``          the quartiles of A or B are further apart than the
                        bound (as a share of the median), so the run cannot
                        tell.

Metrics that repeat exactly for a seed (every ``.calls``, every ``sim.*``,
``runner.rounds``, ``trace.spans``) are compared for equality and the ones
that differ are listed; the two files must come from the same seed and scale.
The exit code is 1 when any row is ``worse``, when an exact metric differs
(simulated time, model quality or a call count changed) or when B failed a
larger share of its operations than A, and 2 when the files are not
comparable.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def is_exact(name: str) -> bool:
    """Whether a per-layer metric is a count that repeats exactly for a seed."""
    return name.endswith(".calls") or name.startswith("sim.") \
        or name in ("runner.rounds", "trace.spans")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict for one metric from the two ``{value, median, q1, q3}`` summaries."""
    for side in (a, b):
        if (side["q3"] - side["q1"]) / abs(side["median"]) > bound:
            return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, benchmark: dict) -> Dict[str, list]:
    """``{"rows": [...], "exact": [...], "failures": [...]}`` for two results."""
    rows: List[dict] = []
    exact: List[dict] = []
    failures: List[dict] = []
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            stats_a = result_a["end_to_end"][name]
            stats_b = result_b["end_to_end"][name]
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "a": stats_a, "b": stats_b,
                "ratio": stats_b["value"] / stats_a["value"],
                "bound": metric["bound"],
                "verdict": verdict(stats_a, stats_b, metric["better"],
                                   metric["bound"]),
            })
        for name, entry in result_a.get("per_layer", {}).items():
            other = result_b.get("per_layer", {}).get(name)
            if is_exact(name) and other is not None \
                    and other["value"] != entry["value"]:
                exact.append({"metric": name, "workload": workload,
                              "a": entry["value"], "b": other["value"]})
        share_a = result_a["ops_failed"] / result_a["ops_attempted"]
        share_b = result_b["ops_failed"] / result_b["ops_attempted"]
        if share_b > share_a:
            failures.append({"workload": workload, "a": share_a, "b": share_b})
    return {"rows": rows, "exact": exact, "failures": failures}


def _summary(stats: dict) -> str:
    return (f"{stats['value']:.4g} ({stats['median']:.4g} "
            f"[{stats['q1']:.4g}, {stats['q3']:.4g}])")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in argv + [_BENCHMARK]:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    a, b, _ = loaded
    taken = [{"seed": side.get("host", {}).get("seed"),
              "smoke": side.get("smoke")} for side in (a, b)]
    if taken[0] != taken[1]:
        print(f"not comparable: A was taken with {taken[0]}, B with {taken[1]}",
              file=sys.stderr)
        return 2
    report = compare(*loaded)
    print(f"{'metric':14s} {'workload':13s} {'A value (median [q1, q3])':36s} "
          f"{'B value (median [q1, q3])':36s} {'B/A':>7s} {'bound':>6s}  verdict")
    for row in report["rows"]:
        print(f"{row['metric']:14s} {row['workload']:13s} "
              f"{_summary(row['a']):36s} {_summary(row['b']):36s} "
              f"{row['ratio']:7.3f} {row['bound']:6.2f}  {row['verdict']}"
              f"  (base A = {row['a']['value']:.4g} {row['unit']})")
    if report["exact"]:
        print("exact metrics that differ:")
        for item in report["exact"]:
            print(f"  {item['workload']:13s} {item['metric']:28s} "
                  f"A {item['a']!r}  B {item['b']!r}")
    else:
        print("exact metrics: identical")
    for item in report["failures"]:
        print(f"failed operations rose on {item['workload']}: "
              f"{item['a']:.3f} -> {item['b']:.3f} of attempted")
    worse = [row for row in report["rows"] if row["verdict"] == "worse"]
    return 1 if worse or report["exact"] or report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
