"""Adaptive parameter management: static vs adaptive NuPS under drift.

The paper fixes NuPS's management plan before training and defers dynamic
switching to future work. This benchmark closes the loop and measures what
that future work buys: three NuPS variants train KGE under hot-set drift —

* **oracle** — static plan; at the drift the scenario engine re-derives the
  plan from the post-drift dataset statistics (the intent-signaling oracle
  of ``bench_scenarios``; the best a re-managing NuPS could do),
* **static** — static plan, no signal: the replicated set goes stale and the
  new hot spots fall to relocation (hot-spot contention, the paper's
  Section 3.1.3 failure mode),
* **adaptive** — no signal either, but an online
  :class:`~repro.adaptive.controller.AdaptiveController` observes access
  skew from the hot path and re-manages the hot spots itself
  (``nups-adaptive``, :mod:`repro.adaptive`).

Because every variant processes the same data, per-epoch model quality is
nearly identical; what a stale plan costs is *time* (slower post-drift
epochs). Recovery is therefore measured as post-drift epoch throughput
relative to the oracle — ``recovery = oracle_last_epoch_time /
variant_last_epoch_time`` — together with the final-quality ratio. The
headline checks: adaptive recovers >= 95% of the oracle's post-drift
performance at oracle-level quality, static does not; on a stationary
workload adaptive matches static NuPS within noise (the final-MRR spread
across seeds is ~+-40% at this scale, times are within a few percent); and
under the storm preset (drift + stragglers + churn + degrading network) the
controller keeps adapting and still recovers.

The replication extent is four times the untuned heuristic's key count:
large enough that the replicated set carries a measurable share of the
traffic, so a stale plan visibly hurts (with the untuned 16-key extent the
effect exists but is within a few percent).

Run with::

    PYTHONPATH=src python benchmarks/bench_adaptive.py

Set ``REPRO_BENCH_FAST=1`` for a quicker smoke run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_NODES,
    FAST,
    WORKERS_PER_NODE,
    _parallel_workers,
    print_header,
)

from repro.adaptive import AdaptiveConfig  # noqa: E402
from repro.core.management import ManagementPlan  # noqa: E402
from repro.runner.config import ExperimentConfig  # noqa: E402
from repro.runner.experiment import ExperimentResult, run_experiment  # noqa: E402
from repro.runner.reporting import format_table, localization_rate  # noqa: E402
from repro.runner.systems import make_ps_factory  # noqa: E402
from repro.runner.workloads import NUPS_BENCH_OVERRIDES, kge_task  # noqa: E402
from repro.scenarios import make_scenario  # noqa: E402
from repro.simulation.cluster import ClusterConfig  # noqa: E402


EPOCHS = 4 if FAST else 6
DRIFT_EPOCH = 2 if FAST else 3
SCENARIOS = ("drift", "storm", "stationary")
VARIANTS = ("oracle", "static", "adaptive")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

#: Replication extent: this factor times the untuned heuristic's key count.
EXTENT_FACTOR = 4

#: Controller settings for the bench-scale workload: adapt every 5 ms of
#: simulated time on statistics with a 10 ms half-life (epochs are ~75 ms).
ADAPTIVE_PERIOD = 0.005
ADAPTIVE_HALF_LIFE = 0.010
ADAPTIVE_WARMUP = 2000

#: Recovery threshold of the headline claim: a variant "recovers" when its
#: post-drift epoch throughput reaches 95% of the oracle-remanaged NuPS.
RECOVERY_THRESHOLD = 0.95


def replication_extent(task) -> int:
    """The benchmark's replication extent (4x the untuned heuristic)."""
    counts = task.access_counts()
    untuned = ManagementPlan.from_access_counts(counts).num_replicated
    return max(4, untuned) * EXTENT_FACTOR


def adaptive_config(extent: int) -> AdaptiveConfig:
    """The controller configuration used by the adaptive variant."""
    return AdaptiveConfig(
        policy="top-k", top_k=extent,
        period=ADAPTIVE_PERIOD, half_life=ADAPTIVE_HALF_LIFE,
        warmup_observations=ADAPTIVE_WARMUP,
    )


def scenario_for(name: str, oracle: bool):
    if name == "stationary":
        return None
    if name == "drift":
        return make_scenario("drift", at=((DRIFT_EPOCH, 0),),
                             oracle_remanage=oracle)
    if name == "storm":
        return make_scenario("storm", oracle_remanage=oracle)
    raise ValueError(name)


def run_cell(scenario_name: str, variant: str) -> ExperimentResult:
    task = kge_task("bench")
    extent = replication_extent(task)
    overrides = dict(NUPS_BENCH_OVERRIDES)
    overrides["plan"] = ManagementPlan.top_k_by_count(
        task.access_counts(), extent
    )
    if variant == "adaptive":
        system = "nups-adaptive"
        overrides["adaptive_config"] = adaptive_config(extent)
    else:
        system = "nups"
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=DEFAULT_NODES,
                              workers_per_node=WORKERS_PER_NODE),
        epochs=EPOCHS, chunk_size=8, seed=0,
        scenario=scenario_for(scenario_name, oracle=(variant == "oracle")),
    )
    return run_experiment(task, make_ps_factory(system, **overrides), config,
                          system_name=variant)


def _summarize(result: ExperimentResult) -> dict:
    metrics = result.metrics
    return {
        "epoch_durations": [r.epoch_duration for r in result.records],
        "sim_times": [r.sim_time for r in result.records],
        "qualities": result.qualities(),
        "localization": [localization_rate(r) for r in result.records],
        "final_quality": result.final_quality(),
        "total_time": result.total_time,
        "adaptations": metrics.get("adaptive.adaptations", 0.0),
        "keys_added": metrics.get("adaptive.keys_added", 0.0),
        "keys_removed": metrics.get("adaptive.keys_removed", 0.0),
        "replans": metrics.get("management.replans", 0.0),
    }


def _run_job(scenario_name: str, variant: str) -> dict:
    return _summarize(run_cell(scenario_name, variant))


def _recovery_checks(results: dict, scenario: str) -> dict:
    """Post-drift recovery of each variant relative to the oracle."""
    oracle_last = results[scenario]["oracle"]["epoch_durations"][-1]
    oracle_quality = results[scenario]["oracle"]["final_quality"]
    checks: dict = {"recovery": {}, "quality_ratio": {}}
    for variant in ("static", "adaptive"):
        summary = results[scenario][variant]
        checks["recovery"][variant] = oracle_last / summary["epoch_durations"][-1]
        checks["quality_ratio"][variant] = \
            summary["final_quality"] / oracle_quality
    checks["adaptations"] = results[scenario]["adaptive"]["adaptations"]
    checks["keys_added"] = results[scenario]["adaptive"]["keys_added"]
    checks["time_ratio_adaptive_vs_static"] = (
        results[scenario]["adaptive"]["total_time"]
        / results[scenario]["static"]["total_time"]
    )
    return checks


def _stationary_checks(results: dict) -> dict:
    """Adaptive vs static NuPS on the unperturbed workload (noise check)."""
    static = results["stationary"]["static"]
    adaptive = results["stationary"]["adaptive"]
    return {
        "time_ratio": adaptive["total_time"] / static["total_time"],
        "quality_ratio": adaptive["final_quality"] / static["final_quality"],
        "adaptations": adaptive["adaptations"],
    }


def run() -> dict:
    """Run the sweep; returns the ``BENCH_adaptive.json`` payload."""
    task = kge_task("bench")
    extent = replication_extent(task)
    print_header(
        f"Adaptive parameter management — kge, "
        f"{DEFAULT_NODES}x{WORKERS_PER_NODE} workers, {EPOCHS} epochs, "
        f"drift at epoch {DRIFT_EPOCH} (storm: epoch 2), "
        f"replication extent {extent}"
    )

    jobs = [(scenario, variant) for scenario in SCENARIOS
            for variant in VARIANTS]
    workers = _parallel_workers(len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (OSError, ValueError):
            pool = None
        if pool is not None:
            with pool:
                summaries = pool.starmap(_run_job, jobs)
        else:
            summaries = [_run_job(*job) for job in jobs]
    else:
        summaries = [_run_job(*job) for job in jobs]

    results: dict = {scenario: {} for scenario in SCENARIOS}
    for (scenario, variant), summary in zip(jobs, summaries):
        results[scenario][variant] = summary

    for scenario in SCENARIOS:
        print_header(f"scenario: {scenario}")
        rows = []
        for variant in VARIANTS:
            summary = results[scenario][variant]
            rows.append([
                variant,
                summary["total_time"],
                summary["final_quality"],
                int(summary["adaptations"]),
                " ".join(f"{d * 1000:.2f}" for d in summary["epoch_durations"]),
            ])
        print(format_table(
            ["variant", "total time (s)", "final MRR", "adaptations",
             "epoch durations (ms)"],
            rows,
        ))

    drift = _recovery_checks(results, "drift")
    storm = _recovery_checks(results, "storm")
    stationary = _stationary_checks(results)

    print_header("recovery relative to the oracle-remanaged NuPS")
    print(format_table(
        ["scenario", "variant", "recovery", "quality ratio"],
        [[scenario, variant, checks["recovery"][variant],
          checks["quality_ratio"][variant]]
         for scenario, checks in (("drift", drift), ("storm", storm))
         for variant in ("static", "adaptive")],
    ))
    print(f"\nstationary: adaptive/static time ratio "
          f"{stationary['time_ratio']:.4f}, quality ratio "
          f"{stationary['quality_ratio']:.4f}")

    # The headline assertions (mirrored by the claim registry).
    assert drift["recovery"]["adaptive"] >= RECOVERY_THRESHOLD, (
        f"adaptive NuPS did not recover from drift: "
        f"{drift['recovery']['adaptive']:.3f} < {RECOVERY_THRESHOLD}"
    )
    assert drift["recovery"]["static"] < RECOVERY_THRESHOLD, (
        f"static NuPS unexpectedly recovered without a signal: "
        f"{drift['recovery']['static']:.3f} >= {RECOVERY_THRESHOLD}"
    )
    assert drift["quality_ratio"]["adaptive"] >= 0.95, (
        f"adaptive NuPS lost quality: {drift['quality_ratio']['adaptive']:.3f}"
    )
    assert drift["adaptations"] >= 1, "the controller never adapted"
    assert 0.95 <= stationary["time_ratio"] <= 1.05, (
        f"stationary run time diverged: {stationary['time_ratio']:.4f}"
    )

    return {
        "task": "kge",
        "epochs": EPOCHS,
        "drift_epoch": DRIFT_EPOCH,
        "num_nodes": DEFAULT_NODES,
        "workers_per_node": WORKERS_PER_NODE,
        "fast_mode": FAST,
        "replication_extent": extent,
        "recovery_threshold": RECOVERY_THRESHOLD,
        "variants": list(VARIANTS),
        "scenarios": list(SCENARIOS),
        "results": results,
        "drift": drift,
        "storm": storm,
        "stationary": stationary,
    }


def test_adaptive_management(benchmark):
    """Pytest face: run the sweep once and let ``run()`` assert the shape."""
    from common import run_once

    run_once(benchmark, run)


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
