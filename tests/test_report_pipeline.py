"""Pipeline tests: smoke round-trip, failure isolation, selection, jsonify."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.report.pipeline import (
    DEFAULT_BENCHMARKS_DIR,
    REGISTRY,
    run_pipeline,
    to_jsonable,
)


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        payload = to_jsonable({
            "i": np.int64(3),
            "f": np.float32(0.5),
            "a": np.arange(3),
            "nested": {"t": (1, np.float64(2.0))},
        })
        assert payload == {"i": 3, "f": 0.5, "a": [0, 1, 2],
                           "nested": {"t": [1, 2.0]}}
        json.dumps(payload)  # must be serializable as-is

    def test_non_string_keys_become_strings(self):
        assert to_jsonable({1: {2.5: "x"}}) == {"1": {"2.5": "x"}}

    def test_unknown_objects_fall_back_to_str(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert to_jsonable({"o": Odd()}) == {"o": "<odd>"}


class TestSelection:
    def test_unknown_id_raises_with_known_ids_listed(self):
        with pytest.raises(ValueError, match="fig06"):
            run_pipeline(only=["not-a-benchmark"])

    def test_registry_is_complete(self):
        assert DEFAULT_BENCHMARKS_DIR.is_dir()
        for spec in REGISTRY:
            assert (DEFAULT_BENCHMARKS_DIR / f"{spec.module}.py").is_file(), \
                spec.module


class TestFailureIsolation:
    def test_broken_benchmark_is_contained(self, tmp_path):
        (tmp_path / "bench_table2_workloads.py").write_text(
            "def run():\n    raise RuntimeError('synthetic failure')\n")
        payload = run_pipeline(only=["table2"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path)
        entry = payload["benchmarks"][0]
        assert entry["status"] == "failed"
        assert "synthetic failure" in entry["error"]
        # Claims still evaluate (as failures), never silently disappear.
        assert entry["claims"]
        assert all(not v["passed"] for v in entry["claims"])
        assert payload["summary"]["benchmarks_failed"] == ["table2"]

    def test_import_error_is_contained(self, tmp_path):
        (tmp_path / "bench_table2_workloads.py").write_text("1/0\n")
        payload = run_pipeline(only=["table2"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path)
        assert payload["benchmarks"][0]["status"] == "failed"
        assert "ZeroDivisionError" in payload["benchmarks"][0]["error"]


class TestSharedCells:
    """fig01's five KGE cells are fig06's: when both run, fig01 reads them."""

    def _stubs(self, directory, fig06_body="return {'kge': 6}"):
        (directory / "bench_fig06_end_to_end.py").write_text(
            f"def run():\n    {fig06_body}\n")
        (directory / "bench_fig01_headline.py").write_text(
            "def run(figure6=None):\n    return {'read': figure6}\n")

    def _results(self, directory, only):
        payload = run_pipeline(only=only, fast=True, jobs=1,
                               benchmarks_dir=directory)
        return {entry["id"]: entry for entry in payload["benchmarks"]}

    def test_fig01_reads_fig06_when_both_run(self, tmp_path):
        self._stubs(tmp_path)
        entries = self._results(tmp_path, ["fig01", "fig06"])
        assert entries["fig01"]["result"] == {"read": {"kge": 6}}
        assert list(entries) == ["fig01", "fig06"]  # registry order kept

    def test_fig01_alone_runs_its_own_cells(self, tmp_path):
        self._stubs(tmp_path)
        assert self._results(tmp_path, ["fig01"])["fig01"]["result"] \
            == {"read": None}

    def test_a_failed_source_fails_its_reader(self, tmp_path):
        self._stubs(tmp_path, "raise RuntimeError('broken')")
        entry = self._results(tmp_path, ["fig01", "fig06"])["fig01"]
        assert entry["status"] == "failed"
        assert "reads benchmark fig06, which failed" in entry["error"]


class TestSmokeRoundTrip:
    """End-to-end: one real (cheap) benchmark through pipeline + CLI."""

    def test_table2_round_trips(self):
        payload = run_pipeline(only=["table2"], fast=True, jobs=1)
        entry = payload["benchmarks"][0]
        assert entry["status"] == "ok"
        assert entry["id"] == "table2"
        assert entry["seconds"] > 0
        assert "Table 2" in entry["stdout"]
        assert entry["result"]["kge"]["sampling_share"] > 0.2
        # Every registered table2 claim evaluated and passed.
        assert entry["claims"]
        assert all(v["passed"] for v in entry["claims"])
        assert payload["summary"]["claims_failed"] == 0
        json.dumps(payload)  # the full payload is JSON-clean

    def test_parallel_execution_matches_sequential(self):
        """Fork-worker scheduling never changes results, only wall-clock."""
        seq = run_pipeline(only=["table2", "fig03"], fast=True, jobs=1)
        par = run_pipeline(only=["table2", "fig03"], fast=True, jobs=2)
        assert ([b["id"] for b in par["benchmarks"]]
                == [b["id"] for b in seq["benchmarks"]])
        verdicts = [
            {v["id"]: v["passed"] for b in payload["benchmarks"]
             for v in b["claims"]}
            for payload in (seq, par)
        ]
        assert verdicts[0] == verdicts[1]
        # table2 is fully deterministic (dataset statistics, no wall-clock).
        seq_t2 = next(b for b in seq["benchmarks"] if b["id"] == "table2")
        par_t2 = next(b for b in par["benchmarks"] if b["id"] == "table2")
        assert seq_t2["result"] == par_t2["result"]
        assert seq_t2["stdout"] == par_t2["stdout"]

    def test_cli_reproduce_writes_reports(self, tmp_path, capsys):
        exit_code = main(["reproduce", "--fast", "--only", "fig03",
                          "--jobs", "1", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        payload = json.loads((tmp_path / "REPRODUCTION.json").read_text())
        assert payload["mode"] == "fast"
        assert [b["id"] for b in payload["benchmarks"]] == ["fig03"]
        markdown = (tmp_path / "REPRODUCTION.md").read_text()
        assert "# Reproduction report" in markdown
        assert "fig03" in markdown

    def test_cli_check_detects_regression(self, tmp_path):
        # Commit a report where a fig03 claim passed...
        committed = {
            "benchmarks": [{"id": "fig03", "claims": [
                {"id": "fig03.kge.sampling_present", "passed": True}]}],
        }
        committed_path = tmp_path / "committed.json"
        committed_path.write_text(json.dumps(committed))
        # ...then break the benchmark so the fresh claim fails.
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_fig03_skew.py").write_text(
            "def run():\n    raise RuntimeError('broken')\n")
        from repro.report.claims import compare_verdicts
        fresh = run_pipeline(only=["fig03"], fast=True, jobs=1,
                             benchmarks_dir=bench_dir)
        regressions = compare_verdicts(committed, fresh)
        assert len(regressions) == 1
        assert "fig03.kge.sampling_present" in regressions[0]

    def test_cli_rejects_unknown_only(self, tmp_path):
        exit_code = main(["reproduce", "--fast", "--only", "nope",
                          "--output-dir", str(tmp_path)])
        assert exit_code == 2

    def test_cli_rejects_bad_check_report_before_running(self, tmp_path, capsys):
        # A bad --check path must fail fast, not after the benchmarks ran.
        exit_code = main(["reproduce", "--fast", "--only", "fig03",
                          "--output-dir", str(tmp_path),
                          "--check", str(tmp_path / "missing.json")])
        assert exit_code == 2
        assert not (tmp_path / "REPRODUCTION.json").exists()
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        exit_code = main(["reproduce", "--fast", "--only", "fig03",
                          "--output-dir", str(tmp_path), "--check", str(bad)])
        assert exit_code == 2

    def test_cli_list(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        output = capsys.readouterr().out
        for spec in REGISTRY:
            assert spec.id in output


class TestTimeout:
    """Per-benchmark wall-clock limit: retry once, then fail-with-reason."""

    @pytest.fixture(autouse=True)
    def _no_dataset_warm(self, monkeypatch):
        # The pool path pre-warms bench-scale dataset caches; stub
        # benchmarks never touch them, so skip the expensive warm-up.
        import repro.report.pipeline as pipeline

        monkeypatch.setattr(pipeline, "_warm_dataset_cache", lambda: None)

    def test_hung_benchmark_times_out_after_one_retry(self, tmp_path):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("preemptive timeouts need fork workers")
        (tmp_path / "bench_fig03_skew.py").write_text(
            "import time\n\ndef run():\n    time.sleep(60)\n    return {}\n")
        payload = run_pipeline(only=["fig03"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path, timeout=0.5)
        entry = payload["benchmarks"][0]
        assert entry["status"] == "failed"
        assert entry["error"].startswith("timed out")
        assert "0.5s" in entry["error"]
        assert entry["attempts"] == 2
        # Claims evaluate as failures; the pipeline itself completes.
        assert entry["claims"]
        assert all(not v["passed"] for v in entry["claims"])
        assert payload["summary"]["benchmarks_failed"] == ["fig03"]

    def test_fast_benchmark_passes_within_the_limit(self, tmp_path):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("preemptive timeouts need fork workers")
        (tmp_path / "bench_fig03_skew.py").write_text(
            "def run():\n    return {'hot_spots': ['x'], 'ok': True}\n")
        payload = run_pipeline(only=["fig03"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path, timeout=30.0)
        entry = payload["benchmarks"][0]
        assert entry["status"] == "ok"
        assert entry["attempts"] == 1

    def test_non_positive_timeout_means_unlimited(self, tmp_path):
        (tmp_path / "bench_fig03_skew.py").write_text(
            "def run():\n    return {'ok': True}\n")
        payload = run_pipeline(only=["fig03"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path, timeout=0.0)
        assert payload["benchmarks"][0]["status"] == "ok"

    def test_env_default_applies(self, tmp_path, monkeypatch):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("preemptive timeouts need fork workers")
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "0.4")
        (tmp_path / "bench_fig03_skew.py").write_text(
            "import time\n\ndef run():\n    time.sleep(60)\n    return {}\n")
        payload = run_pipeline(only=["fig03"], fast=True, jobs=1,
                               benchmarks_dir=tmp_path)
        entry = payload["benchmarks"][0]
        assert entry["status"] == "failed"
        assert entry["error"].startswith("timed out")
