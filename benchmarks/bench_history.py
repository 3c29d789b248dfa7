"""Append one perfbench run to the repository's performance history.

``perfbench/out/results.json`` is overwritten by every run and
``perfbench/baseline.json`` is frozen at the tree that introduced the
benchmark, so neither shows a trajectory. ``BENCH_history.jsonl`` at the
root of the repository does: one line per recorded run with the five
end-to-end metrics of each of the five workloads (value, plus the median
and quartiles of the run's own samples, which are its noise band), the
failed-operation count, and the host envelope the run was taken under (git
sha, ``nproc``, CPU model, Python and NumPy versions, seed, load average).
Numbers are only comparable between lines of the same host; a PR records its
parent and itself in one session so that each line has such a neighbour.

The two numbers a user of the repository waits on ride along in a
``user_facing`` column when they were measured in the same session:
``--tier1-seconds`` (wall seconds of ``python -m pytest -x -q``) and
``--reproduction`` (a ``REPRODUCTION.json`` written by ``repro reproduce
--fast``: its wall seconds in total and per benchmark, job count and claim
counts).

Usage::

    python3 -m perfbench --seed 0 --out perfbench/out
    python benchmarks/bench_history.py perfbench/out/results.json \
        --label "PR 13: chunk-level charge replay" \
        --tier1-seconds 95 --reproduction /tmp/repro/REPRODUCTION.json

``--history`` selects another history file (default: ``BENCH_history.jsonl``
at the repository root). The git sha is the one perfbench recorded, i.e. the
``HEAD`` of the tree it ran in: a run of uncommitted work carries its
parent's sha, which is what ``--label`` is for.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics of ``BENCHMARK.json``, in its order.
END_TO_END = ("setup_s", "run_wall_s", "points_per_s", "cpu_s", "peak_rss_mib")

#: The parts of perfbench's host envelope that say whether two lines are
#: comparable (thread pins and elapsed time are left in ``results.json``).
HOST_FIELDS = ("git_sha", "nproc", "cpu_model", "python", "numpy", "seed",
               "seconds_per_run", "load_1m_start", "load_1m_end")


def user_facing(tier1_seconds: Optional[float],
                reproduction: Optional[dict]) -> dict:
    """The ``user_facing`` column: whichever of the two numbers was measured."""
    column = {}
    if tier1_seconds is not None:
        column["tier1_s"] = float(tier1_seconds)
    if reproduction is not None:
        if reproduction.get("mode") != "fast":
            raise ValueError("the history tracks `reproduce --fast`; got a "
                             f"{reproduction.get('mode')!r} report")
        summary = reproduction["summary"]
        column["reproduce_fast"] = {
            "seconds_total": summary["seconds_total"],
            "jobs": reproduction["jobs"],
            "claims_passed": summary["claims_passed"],
            "claims_total": summary["claims_total"],
            "benchmark_seconds": {
                benchmark["id"]: benchmark["seconds"]
                for benchmark in reproduction["benchmarks"]
            },
        }
    return column


def history_row(results: dict, label: str,
                tier1_seconds: Optional[float] = None,
                reproduction: Optional[dict] = None) -> dict:
    """The history line for one ``results.json``."""
    if results.get("smoke"):
        raise ValueError("a --smoke run measures test-scale tasks; "
                         "it does not belong in the history")
    workloads = {}
    for name, workload in results["workloads"].items():
        row = {"ops_failed": workload["ops_failed"],
               "passes": workload["passes"]}
        for metric in END_TO_END:
            measured = workload["end_to_end"][metric]
            row[metric] = {
                key: measured[key]
                for key in ("value", "median", "q1", "q3") if key in measured
            }
        workloads[name] = row
    host = results["host"]
    row = {
        "label": label,
        "host": {field: host.get(field) for field in HOST_FIELDS},
        "workloads": workloads,
    }
    column = user_facing(tier1_seconds, reproduction)
    if column:
        row["user_facing"] = column
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path,
                        help="a results.json written by `python -m perfbench`")
    parser.add_argument("--label", required=True,
                        help="what this run measured, e.g. the PR title")
    parser.add_argument("--history", type=Path,
                        default=ROOT / "BENCH_history.jsonl")
    parser.add_argument("--tier1-seconds", type=float,
                        help="wall seconds of `python -m pytest -x -q` on "
                             "the same host, same session")
    parser.add_argument("--reproduction", type=Path,
                        help="the REPRODUCTION.json of a `repro reproduce "
                             "--fast` run of the same session")
    args = parser.parse_args(argv)
    reproduction = json.loads(args.reproduction.read_text()) \
        if args.reproduction else None
    row = history_row(json.loads(args.results.read_text()), args.label,
                      args.tier1_seconds, reproduction)
    with args.history.open("a") as history:
        history.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"{args.history}: appended {args.label!r} "
          f"({len(row['workloads'])} workloads, "
          f"sha {str(row['host']['git_sha'])[:7]})")
    return 0


def test_appends_one_line_per_run(tmp_path):
    """The committed baseline yields 5 workloads x 5 metrics, appended."""
    history = tmp_path / "history.jsonl"
    baseline = ROOT / "perfbench" / "baseline.json"
    for label in ("first", "second"):
        assert main([str(baseline), "--label", label,
                     "--history", str(history)]) == 0
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert [row["label"] for row in rows] == ["first", "second"]
    expected = json.loads(baseline.read_text())
    assert rows[0]["host"]["git_sha"] == expected["host"]["git_sha"]
    assert len(rows[0]["workloads"]) == 5
    for name, row in rows[0]["workloads"].items():
        for metric in END_TO_END:
            assert row[metric]["value"] == \
                expected["workloads"][name]["end_to_end"][metric]["value"]
    assert "user_facing" not in rows[0]


def test_user_facing_column(tmp_path):
    """Tier-1 seconds and the committed fast reproduction ride along."""
    history = tmp_path / "history.jsonl"
    assert main([str(ROOT / "perfbench" / "baseline.json"), "--label", "x",
                 "--history", str(history), "--tier1-seconds", "95.5",
                 "--reproduction", str(ROOT / "REPRODUCTION.json")]) == 0
    column = json.loads(history.read_text())["user_facing"]
    committed = json.loads((ROOT / "REPRODUCTION.json").read_text())
    assert column["tier1_s"] == 95.5
    assert column["reproduce_fast"] == {
        "seconds_total": committed["summary"]["seconds_total"],
        "jobs": committed["jobs"],
        "claims_passed": committed["summary"]["claims_passed"],
        "claims_total": committed["summary"]["claims_total"],
        "benchmark_seconds": {benchmark["id"]: benchmark["seconds"]
                              for benchmark in committed["benchmarks"]},
    }


if __name__ == "__main__":
    raise SystemExit(main())
