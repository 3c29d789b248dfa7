"""Observability layer: tracer, sampler, exporters, and subsystem events.

Covers the tracer's record/span semantics, the periodic sampler's payloads,
the three exporters (JSONL round-trip, Chrome trace-event, terminal
summary), the JSONL schema golden file, the per-subsystem instrumentation
(faults, elasticity, scenarios, re-management, replica sync), and the CLI
surface (``--trace`` on run/compare, the ``repro trace`` command).
Bit-identity of telemetry-on runs is enforced in ``test_determinism.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro.obs.tracer
from repro.obs import (
    SCHEMA_VERSION,
    TelemetryConfig,
    Tracer,
    load_jsonl,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.simulation.cluster import ClusterConfig

GOLDEN = Path(__file__).parent / "data" / "trace_schema_golden.json"


def _run_traced(system="nups", scenario=None, epochs=2, seed=5,
                access_events=False, path=None, **config_kwargs):
    task = make_task("matrix_factorization", scale="test")
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=epochs, chunk_size=8, seed=seed,
        scenario=make_scenario(scenario) if scenario else None,
        telemetry=TelemetryConfig(path=path, access_events=access_events),
        **config_kwargs,
    )
    return run_experiment(task, make_ps_factory(system), config,
                          system_name=system)


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_spans_nest_and_link_parents(self):
        tracer = Tracer()
        outer = tracer.begin_span("experiment", "run", 0.0)
        inner = tracer.begin_span("epoch", "run", 0.5, epoch=1)
        assert inner["parent"] == outer["id"]
        tracer.end_span(inner, 1.0)
        tracer.end_span(outer, 1.5)
        assert inner["sim_end"] == 1.0
        assert outer["sim_end"] == 1.5
        assert outer["parent"] is None
        assert inner["wall_end"] >= inner["wall_start"]

    def test_complete_span_adopts_open_parent(self):
        tracer = Tracer()
        epoch = tracer.begin_span("epoch", "run", 0.0)
        tracer.complete_span("round", "round", 0.1, 0.2, node=1, worker=0,
                             round=3)
        round_span = tracer.spans[-1]
        assert round_span["parent"] == epoch["id"]
        assert round_span["node"] == 1 and round_span["worker"] == 0
        assert round_span["attrs"] == {"round": 3}
        # Retrospective spans never join the open stack.
        tracer.end_span(epoch, 1.0)
        assert tracer._open == []

    def test_out_of_order_close_unwinds_stack(self):
        tracer = Tracer()
        a = tracer.begin_span("a", "x", 0.0)
        b = tracer.begin_span("b", "x", 0.0)
        tracer.end_span(a, 1.0)  # closes the outer first
        assert a not in tracer._open
        tracer.end_span(b, 1.0)
        assert tracer._open == []

    def test_event_supports_wall_only_records(self):
        tracer = Tracer()
        tracer.event("pool_dispatch", "parallel", None, points=128)
        record = tracer.events[0]
        assert record["sim_time"] is None
        assert record["wall_time"] >= 0.0
        assert record["attrs"] == {"points": 128}

    def test_max_records_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(repro.obs.tracer, "MAX_RECORDS", 2)
        tracer = Tracer()
        tracer.event("a", "x", 0.0)
        tracer.sample(0.0, {"metrics_delta": {}})
        span = tracer.begin_span("late", "x", 0.0)  # over the cap
        assert span is None
        tracer.end_span(span, 1.0)  # None-safe
        tracer.complete_span("late", "x", 0.0, 1.0)
        tracer.event("late", "x", 0.0)
        assert tracer.dropped == 3
        assert tracer.to_trace()["dropped"] == 3
        assert len(tracer.spans) == 0

    def test_to_trace_shape(self):
        tracer = Tracer()
        tracer.meta["system"] = "nups"
        span = tracer.begin_span("s", "x", 0.0)
        tracer.end_span(span, 1.0)
        trace = tracer.to_trace()
        assert trace["schema"] == SCHEMA_VERSION
        assert trace["meta"] == {"system": "nups"}
        assert len(trace["spans"]) == 1
        assert trace["events"] == [] and trace["samples"] == []


class TestTelemetryConfig:
    def test_rejects_a_path_into_a_missing_directory(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            TelemetryConfig(path=str(tmp_path / "missing" / "x.jsonl"))
        assert TelemetryConfig(path=str(tmp_path / "x.jsonl")).path

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="path"):
            TelemetryConfig(path="")

    def test_experiment_config_rejects_strings_and_bools(self):
        with pytest.raises(TypeError, match="telemetry"):
            ExperimentConfig(telemetry="on")
        with pytest.raises(TypeError, match="telemetry"):
            ExperimentConfig(telemetry=True)


# -------------------------------------------------------------- integration
class TestRunnerIntegration:
    def test_trace_off_by_default(self):
        task = make_task("matrix_factorization", scale="test")
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=1, chunk_size=8, seed=5,
        )
        result = run_experiment(task, make_ps_factory("nups"), config)
        assert result.trace is None

    def test_trace_structure_and_meta(self):
        result = _run_traced(epochs=2)
        trace = result.trace
        assert trace["schema"] == SCHEMA_VERSION
        meta = trace["meta"]
        assert meta["system"] == "nups"
        assert meta["task"] == "matrix_factorization"
        assert meta["num_nodes"] == 2 and meta["workers_per_node"] == 2
        assert meta["seed"] == 5
        assert "access.total" in meta["final_metrics"]
        names = {span["name"] for span in trace["spans"]}
        assert {"experiment", "epoch", "round"} <= names
        epochs = [s for s in trace["spans"] if s["name"] == "epoch"]
        assert len(epochs) == 2
        assert all(s["sim_end"] is not None for s in epochs)
        experiment = next(s for s in trace["spans"]
                          if s["name"] == "experiment")
        assert experiment["attrs"]["epochs_completed"] == 2
        assert all(s["parent"] == experiment["id"] for s in epochs)

    def test_round_spans_carry_worker_lanes(self):
        trace = _run_traced(epochs=1).trace
        rounds = [s for s in trace["spans"] if s["name"] == "round"]
        assert rounds
        lanes = {(s["node"], s["worker"]) for s in rounds}
        assert lanes == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for span in rounds:
            assert span["sim_end"] >= span["sim_start"]

    def test_samples_have_payload_and_epoch_boundary_sample(self):
        trace = _run_traced(epochs=2).trace
        samples = trace["samples"]
        assert samples
        for sample in samples:
            assert set(sample) >= {"type", "sim_time", "wall_time",
                                   "metrics_delta", "state_nbytes",
                                   "clock_skew", "queues"}
            assert len(sample["clock_skew"]) == 2
            assert min(sample["clock_skew"]) == 0.0
            assert sample["state_nbytes"]
        # Metric deltas across all samples add up to <= the final counters
        # (the final forced sample closes each epoch).
        total = sum(s["metrics_delta"].get("access.total", 0.0)
                    for s in samples)
        assert total == trace["meta"]["final_metrics"]["access.total"]

    def test_access_events_gated_by_detail_flag(self):
        base = _run_traced(epochs=1).trace
        detail = _run_traced(epochs=1, access_events=True).trace
        assert not [e for e in base["events"] if e["cat"] == "access"]
        access = [e for e in detail["events"] if e["cat"] == "access"]
        assert access
        assert {e["name"] for e in access} <= {"pull", "push", "localize"}
        assert all(e["node"] is not None for e in access)

    def test_jsonl_written_when_path_set(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        result = _run_traced(epochs=1, path=str(out))
        assert out.exists()
        loaded = load_jsonl(out)
        assert loaded["schema"] == SCHEMA_VERSION
        assert len(loaded["spans"]) == len(result.trace["spans"])
        assert loaded["meta"]["system"] == "nups"


class TestSubsystemEvents:
    def test_scenario_and_fault_events_in_crash_storm(self):
        trace = _run_traced(system="classic", scenario="crash-storm",
                            epochs=3).trace
        names = {(e["cat"], e["name"]) for e in trace["events"]}
        assert ("faults", "crash") in names
        assert ("faults", "restore") in names
        crash = next(e for e in trace["events"] if e["name"] == "crash")
        assert crash["node"] is not None
        assert "recovery_time" in crash["attrs"]

    def test_checkpoint_events_recorded(self):
        trace = _run_traced(system="classic", scenario="rolling-restart",
                            epochs=3).trace
        cats = {e["cat"] for e in trace["events"]}
        assert "faults" in cats

    def test_membership_and_migration_events_in_scale_out(self):
        trace = _run_traced(system="lapse", scenario="scale-out",
                            epochs=3).trace
        events = {(e["cat"], e["name"]) for e in trace["events"]}
        assert ("membership", "node_added") in events
        spans = {s["name"] for s in trace["spans"]}
        assert "scale_out" in spans
        span = next(s for s in trace["spans"] if s["name"] == "scale_out")
        assert span["attrs"]["membership_epoch"] >= 1
        assert span["sim_end"] >= span["sim_start"]

    def test_partition_events_in_split_brain(self):
        trace = _run_traced(system="nups", scenario="split-brain",
                            epochs=3).trace
        names = {e["name"] for e in trace["events"]}
        assert "partition_begin" in names
        assert "partition_heal" in names
        begin = next(e for e in trace["events"]
                     if e["name"] == "partition_begin")
        assert begin["attrs"]["minority"]

    def test_drift_and_remanage_events(self):
        trace = _run_traced(system="nups", scenario="drift", epochs=3).trace
        names = {e["name"] for e in trace["events"]}
        assert "drift" in names

    def test_remanage_event_via_nups(self):
        from repro.core.management import ManagementPlan
        from repro.core.nups import NuPS
        from repro.ps.storage import ParameterStore
        from repro.simulation.cluster import Cluster

        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        cluster.tracer = Tracer()
        store = ParameterStore(64, 4)
        plan = ManagementPlan(64, np.arange(4, dtype=np.int64))
        ps = NuPS(store, cluster, plan=plan, sync_interval=0.001, seed=0)
        ps.remanage(ManagementPlan(64, np.arange(8, dtype=np.int64)),
                    now=0.5)
        ps.remanage(ManagementPlan(64, np.arange(8, dtype=np.int64)),
                    now=0.7)  # identical plan: no-op
        remanages = [e for e in cluster.tracer.events
                     if e["name"] == "remanage"]
        assert len(remanages) == 2
        assert remanages[0]["attrs"] == {
            "noop": False, "replicated_before": 4, "replicated_after": 8,
        }
        assert remanages[1]["attrs"]["noop"] is True

    def test_replica_flush_events_recorded(self):
        trace = _run_traced(system="essp", epochs=1).trace
        flushes = [e for e in trace["events"]
                   if e["name"] == "replica_flush"]
        assert flushes
        for event in flushes:
            assert event["node"] in (0, 1)
            assert event["attrs"]["keys"] >= 1

    def test_replica_sync_events_recorded(self):
        from repro.core.management import ManagementPlan
        from repro.core.nups import NuPS
        from repro.ps.storage import ParameterStore
        from repro.simulation.cluster import Cluster

        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        cluster.tracer = Tracer()
        store = ParameterStore(64, 4)
        plan = ManagementPlan(64, np.arange(8, dtype=np.int64))
        ps = NuPS(store, cluster, plan=plan, sync_interval=0.001, seed=0)
        ps.replica_manager.force_sync(0.5)
        syncs = [e for e in cluster.tracer.events
                 if e["name"] == "replica_sync"]
        assert len(syncs) == 1
        assert syncs[0]["attrs"]["participants"] == 2
        assert syncs[0]["sim_time"] == 0.5

    def test_straggler_scenario_records_compute_scale(self):
        trace = _run_traced(system="lapse", scenario="stragglers",
                            epochs=2).trace
        scales = [e for e in trace["events"]
                  if e["name"] == "compute_scale"]
        assert scales
        assert all("scale" in e["attrs"] for e in scales)


# --------------------------------------------------------------- exporters
class TestJsonlRoundTrip:
    def test_round_trip_preserves_records(self, tmp_path):
        trace = _run_traced(epochs=1).trace
        path = write_jsonl(trace, tmp_path / "t.jsonl")
        loaded = load_jsonl(path)
        assert loaded["schema"] == trace["schema"]
        assert loaded["dropped"] == trace["dropped"]
        assert loaded["meta"] == json.loads(json.dumps(trace["meta"]))
        for family in ("spans", "events", "samples"):
            assert loaded[family] == json.loads(json.dumps(trace[family]))

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "name": "x", "cat": "y", '
                        '"sim_time": 0, "wall_time": 0}\n')
        with pytest.raises(ValueError, match="missing header"):
            load_jsonl(path)

    def test_load_rejects_unknown_record_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": 1}\n'
                        '{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_jsonl(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": 1}\nnot json{\n')
        with pytest.raises(ValueError, match="not a JSON record"):
            load_jsonl(path)


class TestChromeExport:
    def test_spans_become_complete_events_in_microseconds(self):
        tracer = Tracer()
        span = tracer.begin_span("epoch", "run", 1.5, epoch=1)
        tracer.end_span(span, 2.0)
        tracer.complete_span("round", "round", 1.6, 1.7, node=0, worker=1)
        chrome = to_chrome_trace(tracer.to_trace())
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        epoch = next(e for e in complete if e["name"] == "epoch")
        assert epoch["ts"] == pytest.approx(1.5e6)
        assert epoch["dur"] == pytest.approx(0.5e6)
        assert (epoch["pid"], epoch["tid"]) == (0, 0)
        round_event = next(e for e in complete if e["name"] == "round")
        assert (round_event["pid"], round_event["tid"]) == (1, 2)

    def test_wall_only_and_unfinished_records_skipped(self):
        tracer = Tracer()
        tracer.begin_span("never_ended", "x", 0.0)
        tracer.event("pool_dispatch", "parallel", None)
        tracer.event("crash", "faults", 1.0, node=1)
        chrome = to_chrome_trace(tracer.to_trace())
        names = {e["name"] for e in chrome["traceEvents"]}
        assert "never_ended" not in names
        assert "pool_dispatch" not in names
        instant = next(e for e in chrome["traceEvents"]
                       if e["name"] == "crash")
        assert instant["ph"] == "i" and instant["pid"] == 2

    def test_samples_become_counter_tracks(self):
        tracer = Tracer()
        tracer.sample(1.0, {
            "metrics_delta": {}, "state_nbytes": {"store": 512},
            "clock_skew": [0.0, 0.25],
            "queues": {"total": 3, "per_node": [1, 2]},
        })
        chrome = to_chrome_trace(tracer.to_trace())
        counters = [e for e in chrome["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert names == {"queue depth", "clock skew", "state nbytes"}

    def test_lane_metadata_names_nodes_and_workers(self):
        tracer = Tracer()
        tracer.complete_span("round", "round", 0.0, 0.1, node=0, worker=1)
        chrome = to_chrome_trace(tracer.to_trace())
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        by_kind = {(m["name"], m["pid"], m["tid"]): m["args"]["name"]
                   for m in meta}
        assert by_kind[("process_name", 1, 0)] == "node 0"
        assert by_kind[("thread_name", 1, 2)] == "worker 1"

    def test_write_chrome_trace_full_run(self, tmp_path):
        trace = _run_traced(scenario="drift", epochs=3).trace
        out = write_chrome_trace(trace, tmp_path / "chrome.json")
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "M", "C"} <= phases
        assert payload["otherData"]["system"] == "nups"


class TestSummarize:
    def test_summary_mentions_spans_events_and_traffic(self):
        trace = _run_traced(epochs=2, access_events=True).trace
        text = summarize(trace)
        assert f"trace schema v{SCHEMA_VERSION}" in text
        assert "system=nups" in text
        assert "top spans by simulated time" in text
        assert "round" in text and "epoch" in text
        assert "traffic breakdown" in text
        assert "pull" in text
        assert "sampled series" in text

    def test_summary_handles_empty_trace(self):
        text = summarize(Tracer().to_trace())
        assert "0 spans" in text

    def test_summary_reports_drops(self, monkeypatch):
        monkeypatch.setattr(repro.obs.tracer, "MAX_RECORDS", 1)
        tracer = Tracer()
        tracer.event("a", "x", 0.0)
        tracer.event("b", "x", 0.0)
        assert "1 dropped" in summarize(tracer.to_trace())


# ------------------------------------------------------------- golden schema
def _schema_signature(trace: dict) -> dict:
    """Structural signature of a trace: record shapes, not values."""
    def keys_of(records):
        keys = set()
        for record in records:
            keys |= set(record)
        return sorted(keys)

    samples = trace["samples"]
    return {
        "schema": trace["schema"],
        "meta_keys": sorted(trace["meta"]),
        "span_keys": keys_of(trace["spans"]),
        "event_keys": keys_of(trace["events"]),
        "sample_keys": keys_of(samples),
        "queue_keys": keys_of([s["queues"] for s in samples
                               if s.get("queues")]),
    }


def test_jsonl_schema_matches_golden(tmp_path):
    """The on-disk trace schema is pinned: changing any record shape must
    bump ``SCHEMA_VERSION`` and regenerate ``tests/data/trace_schema_golden.json``
    (run this test with REPRO_UPDATE_GOLDEN=1)."""
    import os

    trace = _run_traced(epochs=2).trace
    path = write_jsonl(trace, tmp_path / "golden_run.jsonl")
    signature = _schema_signature(load_jsonl(path))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.write_text(json.dumps(signature, indent=2, sort_keys=True)
                          + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert signature == golden, (
        "trace schema drifted from tests/data/trace_schema_golden.json — "
        "bump SCHEMA_VERSION and regenerate with REPRO_UPDATE_GOLDEN=1"
    )


# -------------------------------------------------------------------- CLI
class TestCli:
    def test_run_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--task", "matrix_factorization", "--system", "nups",
            "--nodes", "2", "--workers", "2", "--epochs", "1",
            "--trace", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert load_jsonl(out)["meta"]["system"] == "nups"

    def test_compare_trace_writes_per_system_files(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "cmp.jsonl"
        code = main([
            "compare", "--task", "matrix_factorization",
            "--systems", "classic", "nups",
            "--nodes", "2", "--workers", "2", "--epochs", "1",
            "--trace", str(out),
        ])
        assert code == 0
        for system in ("classic", "nups"):
            per_system = tmp_path / f"cmp.{system}.jsonl"
            assert per_system.exists()
            assert load_jsonl(per_system)["meta"]["system"] == system

    def test_trace_command_summarizes_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.jsonl"
        write_jsonl(_run_traced(epochs=1).trace, trace_path)
        chrome_path = tmp_path / "chrome.json"
        code = main(["trace", str(trace_path),
                     "--chrome", str(chrome_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace schema v{SCHEMA_VERSION}" in out
        assert "top spans by simulated time" in out
        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_trace_command_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        assert main(["trace", str(bad)]) == 2
