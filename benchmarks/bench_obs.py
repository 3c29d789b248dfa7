"""Telemetry-overhead microbenchmark: the cost of tracing a run.

The observability layer (``src/repro/obs``) promises two things: telemetry
**off** is bit-identical to a runner without telemetry support, and
telemetry **on** (the default level — spans, subsystem events, periodic
samples, but no per-access events) stays within a small wall-clock overhead
ceiling. This benchmark measures both, end-to-end through
:func:`repro.runner.experiment.run_experiment`, for every PS architecture:

* **off** — ``ExperimentConfig.telemetry=None`` (the reference cost);
* **on** — ``TelemetryConfig()`` defaults, the level the ≤5% geomean
  ceiling applies to (``obs.overhead_within_ceiling``);
* **detail** — ``access_events=True``, one event per pull/push/localize.
  Reported for honesty but exempt from the ceiling: per-access events
  multiply the record count by orders of magnitude by design.

Every mode of every architecture must produce bit-identical *simulated*
results (clocks, per-epoch metric deltas, quality trajectories) — the
benchmark asserts this on every run, so the overhead numbers can never hide
a behavioral change. Results go to ``BENCH_obs.json`` in the repository
root; the ``obs.*`` claims in the reproduction report evaluate against the
``overhead`` and ``checks`` sections.

Run directly::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python benchmarks/bench_obs.py

or through pytest (the test asserts the JSON is produced)::

    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Optional

from repro.obs import TelemetryConfig
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.simulation.cluster import ClusterConfig

FAST = bool(int(os.environ.get("REPRO_BENCH_FAST", "0")))

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

TASK = "matrix_factorization"
NUM_NODES = 2
WORKERS_PER_NODE = 2
EPOCHS = 2 if FAST else 4
CHUNK_SIZE = 8
SEED = 7

#: Architectures under measurement; ``single-node`` runs on its own
#: one-node cluster (the runner rejects anything else).
SYSTEMS = ("single-node", "classic", "lapse", "essp", "nups")

#: Telemetry levels; ``ceiling_applies`` marks the level the ≤5% claim
#: covers. ``None`` disables telemetry outright.
MODES = ("off", "on", "detail")

#: Wall-clock overhead ceiling (on/off ratio, geomean across systems) that
#: the ``obs.overhead_within_ceiling`` claim asserts.
OVERHEAD_CEILING = 1.05

#: Timing repetitions per (system, mode); the best run is reported. The
#: modes are interleaved inside each repetition so CPU-frequency drift on
#: noisy CI boxes biases all three the same way.
REPEATS = 5 if FAST else 9


def _telemetry(mode: str) -> Optional[TelemetryConfig]:
    if mode == "off":
        return None
    if mode == "on":
        return TelemetryConfig()
    if mode == "detail":
        return TelemetryConfig(access_events=True)
    raise ValueError(f"unknown telemetry mode {mode!r}")


def _run(system: str, mode: str):
    """One timed experiment; returns (seconds, result)."""
    task = make_task(TASK, scale="test")
    num_nodes = 1 if system == "single-node" else NUM_NODES
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=num_nodes,
                              workers_per_node=WORKERS_PER_NODE),
        epochs=EPOCHS, chunk_size=CHUNK_SIZE, seed=SEED,
        telemetry=_telemetry(mode),
    )
    start = time.perf_counter()
    result = run_experiment(task, make_ps_factory(system), config,
                            system_name=system)
    return time.perf_counter() - start, result


def _fingerprint(result) -> tuple:
    """Everything simulated an experiment produced, hashable for equality."""
    return (
        result.system,
        tuple(sorted(result.metrics.items())),
        tuple(
            (r.epoch, r.sim_time, r.epoch_duration,
             tuple(sorted(r.quality.items())),
             tuple(sorted(r.metrics.items())))
            for r in result.records
        ),
    )


def _measure(system: str) -> dict:
    """Best-of-``REPEATS`` wall clock per mode, plus bit-identity check."""
    seconds = {mode: math.inf for mode in MODES}
    fingerprints = {}
    traces = {}
    for _ in range(REPEATS):
        for mode in MODES:
            elapsed, result = _run(system, mode)
            seconds[mode] = min(seconds[mode], elapsed)
            fingerprints[mode] = _fingerprint(result)
            if result.trace is not None:
                traces[mode] = result.trace
    for mode in ("on", "detail"):
        if fingerprints[mode] != fingerprints["off"]:
            raise AssertionError(
                f"{system}: telemetry mode {mode!r} changed the simulated "
                "results — the tracer must be a pure observer"
            )
    trace = traces["on"]
    return {
        "off_seconds": round(seconds["off"], 6),
        "on_seconds": round(seconds["on"], 6),
        "detail_seconds": round(seconds["detail"], 6),
        "overhead_on": round(seconds["on"] / seconds["off"], 4),
        "overhead_detail": round(seconds["detail"] / seconds["off"], 4),
        "trace_spans": len(trace["spans"]),
        "trace_events": len(trace["events"]),
        "trace_samples": len(trace["samples"]),
        "detail_events": len(traces["detail"]["events"]),
    }


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_benchmark(output_path: Optional[Path] = OUTPUT_PATH) -> dict:
    architectures = {}
    for system in SYSTEMS:
        stats = _measure(system)
        architectures[system] = stats
        print(f"{system:12s} off {stats['off_seconds']:.3f}s  "
              f"on x{stats['overhead_on']:.3f}  "
              f"detail x{stats['overhead_detail']:.3f}  "
              f"({stats['trace_spans']} spans, {stats['trace_events']} "
              f"events, {stats['trace_samples']} samples)")
    geomean_on = _geomean(s["overhead_on"] for s in architectures.values())
    geomean_detail = _geomean(
        s["overhead_detail"] for s in architectures.values()
    )
    overhead = {
        "geomean_on": round(geomean_on, 4),
        "max_on": round(max(s["overhead_on"]
                            for s in architectures.values()), 4),
        "geomean_detail": round(geomean_detail, 4),
        "ceiling": OVERHEAD_CEILING,
    }
    print(f"geomean      on x{overhead['geomean_on']:.3f} "
          f"(ceiling x{OVERHEAD_CEILING:.2f})  "
          f"detail x{overhead['geomean_detail']:.3f} (exempt)")
    report = {
        "benchmark": "telemetry_overhead",
        "fast_mode": FAST,
        "config": {
            "task": TASK,
            "num_nodes": NUM_NODES,
            "workers_per_node": WORKERS_PER_NODE,
            "epochs": EPOCHS,
            "chunk_size": CHUNK_SIZE,
            "seed": SEED,
            "repeats": REPEATS,
        },
        "architectures": architectures,
        "overhead": overhead,
        "checks": {
            # _measure raises on any divergence, so reaching this line
            # means every (system, mode) pair matched the off reference.
            "telemetry_bit_identical": True,
            "overhead_within_ceiling": geomean_on <= OVERHEAD_CEILING,
        },
    }
    if output_path is not None:
        output_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output_path}")
    return report


def run() -> dict:
    """Structured overhead report for the reproduction pipeline.

    Does not write ``BENCH_obs.json``: the committed baseline is the CI
    regression guard's reference and is only refreshed deliberately.
    """
    return run_benchmark(output_path=None)


def test_obs_benchmark(tmp_path):
    """The harness runs, measures every architecture, and writes valid JSON.

    ``_measure`` inside ``run_benchmark`` additionally guarantees that every
    telemetry level is bit-identical to the telemetry-off reference.
    """
    output = tmp_path / "BENCH_obs.json"
    report = run_benchmark(output)
    assert set(report["architectures"]) == set(SYSTEMS)
    for stats in report["architectures"].values():
        assert stats["off_seconds"] > 0
        assert stats["trace_spans"] > 0
        assert stats["trace_samples"] > 0
        # The detail level records one event per PS call on every
        # architecture: an access-level tracer cuts each fold before every
        # call and records the call there.
        assert stats["detail_events"] > stats["trace_events"]
    assert report["checks"]["telemetry_bit_identical"] is True
    assert json.loads(output.read_text())["benchmark"] == "telemetry_overhead"


if __name__ == "__main__":
    import sys

    run_benchmark(Path(sys.argv[1]) if len(sys.argv) > 1 else OUTPUT_PATH)
