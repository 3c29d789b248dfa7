"""BENCHMARK.json against the driver's contract, and a smoke run of it all."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import measure
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert contract["paths"] == ["perfbench"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    # The driver's 4 + 22 per workload runs must fit 3420 s. A run measures a
    # fixed number of passes; 8 s on top for set-up probes and the digests.
    per_run = [w.passes(contract["run_seconds"]) * w.pass_s + 8
               for w in WORKLOADS.values()]
    assert 22 * sum(per_run) + 4 * max(per_run) <= 3420
    assert [w.passes(contract["run_seconds"]) for w in WORKLOADS.values()] \
        == [4, 5, 3, 3, 3]
    assert WORKLOADS["mf_dense"].passes(60) == 20  # --seconds buys passes
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_benchmark_json_lists_exactly_what_the_code_reports(contract):
    assert {w["name"]: w["why"] for w in contract["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} \
        == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} \
        == measure.PER_LAYER_UNITS


def test_smoke_run_of_all_five_workloads(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 60
    with open(tmp_path / "results.json", encoding="utf-8") as handle:
        results = json.load(handle)
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, workload in results["workloads"].items():
        assert workload["ops_failed"] == 0 and workload["correct"], name
        assert set(workload["end_to_end"]) == set(measure.END_TO_END_UNITS)
        assert set(workload["per_layer"]) == set(measure.PER_LAYER_UNITS)
        assert all(stats["value"] > 0 for stats in workload["end_to_end"].values())
        assert (tmp_path / f"trace_{name}.jsonl").exists()
        assert f"== {name}" in done.stdout
    for key in ("git_sha", "nproc", "cpu_model", "python", "numpy",
                "thread_pins", "seed", "load_1m_start", "load_1m_end",
                "elapsed_s"):
        assert key in results["host"]


def test_the_driver_line_and_the_bare_directory(tmp_path):
    run = os.path.join(ROOT, "perfbench", "run.py")
    done = subprocess.run(
        [sys.executable, run, "--workload", "mf_dense", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(measure.END_TO_END_UNITS)

    # Without the program (only BENCHMARK.json and perfbench/) it must fail.
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mf_dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and done.stdout.strip() == ""
