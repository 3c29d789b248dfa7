"""Dynamic-workload scenario sweep: management techniques under change.

Runs the four scenario-engine perturbations — hot-set drift, stragglers,
worker churn, degrading network — plus the static baseline for the paper's
four management approaches (classic, relocation/Lapse, replication/ESSP,
NuPS) and reports per-epoch localization rates, epoch durations and final
quality. Results are written to ``BENCH_scenarios.json``.

The headline check (asserted at the end of the run): under hot-set drift the
adaptive systems — relocation and NuPS — re-adapt, i.e. their localization
rate dips in the drift epoch and *recovers* afterwards, while the statically
partitioned classic PS has no locality to recover (its rate stays flat and
low) and replication's replica hit rate stays degraded.

Run with::

    PYTHONPATH=src python benchmarks/bench_scenarios.py

Set ``REPRO_BENCH_FAST=1`` for a quicker smoke run and
``REPRO_BENCH_TASK=kge|word_vectors|matrix_factorization`` to switch the
workload (default: matrix factorization, whose row partitioning produces the
clearest settled locality for drift to disturb).
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
    TASK_FACTORIES,
    WORKERS_PER_NODE,
    _parallel_workers,
    heuristic_key_count,
    print_header,
)

from repro.core.management import ManagementPlan  # noqa: E402
from repro.runner.config import ExperimentConfig  # noqa: E402
from repro.runner.experiment import ExperimentResult, run_experiment  # noqa: E402
from repro.runner.reporting import format_table, localization_rate  # noqa: E402
from repro.runner.systems import make_ps_factory  # noqa: E402
from repro.runner.workloads import NUPS_BENCH_OVERRIDES  # noqa: E402
from repro.scenarios import make_scenario  # noqa: E402
from repro.simulation.cluster import ClusterConfig  # noqa: E402


TASK_NAME = os.environ.get("REPRO_BENCH_TASK", "matrix_factorization")
EPOCHS = 4 if FAST else 6
DRIFT_EPOCH = 2 if FAST else 3
SYSTEMS = ("classic", "lapse", "essp", "nups")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

#: Tolerance on localization-rate comparisons (simulation noise is tiny; the
#: drift dip at bench scale is an order of magnitude larger than this).
EPSILON = 0.004


def scenario_for(name: str):
    """The scenario preset parameterized for this sweep (None = static)."""
    if name == "static":
        return None
    if name == "drift":
        return make_scenario("drift", at=((DRIFT_EPOCH, 0),))
    if name == "stragglers":
        return make_scenario("stragglers", severity=3.0)
    if name == "churn":
        return make_scenario("churn", fraction=0.25, pause_at_round=2)
    if name == "degrading-network":
        return make_scenario("degrading-network", steps=3)
    raise ValueError(name)


SCENARIOS = ("static", "drift", "stragglers", "churn", "degrading-network")


def _system_overrides(system: str, task) -> dict:
    overrides = {}
    if system in ("nups", "nups-tuned"):
        overrides.update(NUPS_BENCH_OVERRIDES)
        # The MF matrix at bench scale is too small for the 100x-mean
        # heuristic; fall back to a fixed hot-spot set so multi-technique
        # management (and the drift re-management hook) are exercised.
        plan = ManagementPlan.from_access_counts(task.access_counts())
        if plan.num_replicated == 0:
            overrides["plan"] = ManagementPlan.top_k_by_count(
                task.access_counts(), heuristic_key_count(task)
            )
    return overrides


def run_cell(scenario_name: str, system: str) -> ExperimentResult:
    task = TASK_FACTORIES[TASK_NAME]("bench")
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=DEFAULT_NODES,
                              workers_per_node=WORKERS_PER_NODE),
        epochs=EPOCHS, chunk_size=8, seed=0,
        scenario=scenario_for(scenario_name),
    )
    return run_experiment(
        task, make_ps_factory(system, **_system_overrides(system, task)),
        config, system_name=system,
    )


def _summarize(result: ExperimentResult) -> dict:
    return {
        "localization": [localization_rate(r) for r in result.records],
        "epoch_durations": [r.epoch_duration for r in result.records],
        "sim_times": [r.sim_time for r in result.records],
        "qualities": result.qualities(),
        "final_quality": result.final_quality(),
        "total_time": result.total_time,
        "relocations": [r.metrics.get("relocation.count", 0.0)
                        for r in result.records],
        "replans": result.metrics.get("management.replans", 0.0),
        "drifts": result.metrics.get("scenario.drifts", 0.0),
        "worker_pauses": result.metrics.get("scenario.worker_pauses", 0.0),
        "network_changes": result.metrics.get("scenario.network_changes", 0.0),
    }


def _run_job(scenario_name: str, system: str) -> dict:
    return _summarize(run_cell(scenario_name, system))


def check_drift_recovery(drift_results: dict) -> dict:
    """The acceptance check: adaptive systems recover, static ones do not."""
    pre, during, post = DRIFT_EPOCH - 1, DRIFT_EPOCH, EPOCHS - 1
    checks = {}
    for system in ("lapse", "nups"):
        series = drift_results[system]["localization"]
        dipped = series[during] < series[pre] - EPSILON
        recovered = series[post] >= series[pre] - EPSILON
        checks[system] = {"dipped": dipped, "recovered": recovered,
                          "pre": series[pre], "during": series[during],
                          "post": series[post]}
        assert dipped, (
            f"{system}: localization did not dip at the drift epoch "
            f"({series[pre]:.4f} -> {series[during]:.4f})"
        )
        assert recovered, (
            f"{system}: localization did not recover after the drift "
            f"({series[pre]:.4f} -> {series[post]:.4f})"
        )
    classic = drift_results["classic"]["localization"]
    flat = max(classic) - min(classic) < 0.02
    checks["classic"] = {"flat": flat, "series": classic}
    assert flat, f"classic localization should stay flat, got {classic}"
    return checks


def run() -> dict:
    """Run the full scenario sweep; returns the ``BENCH_scenarios.json`` payload.

    Used both by :func:`main` (which writes the JSON next to the repo root)
    and by the reproduction pipeline (which embeds the payload in
    ``REPRODUCTION.json`` without touching the committed baseline).
    """
    print_header(
        f"Dynamic-workload scenarios — {TASK_NAME}, "
        f"{DEFAULT_NODES}x{WORKERS_PER_NODE} workers, {EPOCHS} epochs "
        f"(drift at epoch {DRIFT_EPOCH})"
    )

    jobs = [(scenario, system) for scenario in SCENARIOS for system in SYSTEMS]
    workers = _parallel_workers(len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        TASK_FACTORIES[TASK_NAME]("bench")  # warm the dataset cache pre-fork
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
    for (scenario, system), summary in zip(jobs, summaries):
        results[scenario][system] = summary

    for scenario in SCENARIOS:
        print_header(f"scenario: {scenario}")
        rows = []
        for system in SYSTEMS:
            summary = results[scenario][system]
            rows.append([
                system,
                summary["total_time"],
                summary["final_quality"],
                " ".join(f"{rate:.3f}" for rate in summary["localization"]),
            ])
        print(format_table(
            ["system", "total time (s)", "final quality",
             "localization rate per epoch"],
            rows,
        ))

    drift_checks = check_drift_recovery(results["drift"])
    print_header("drift re-adaptation check")
    for system, check in drift_checks.items():
        print(f"  {system}: {check}")

    return {
        "task": TASK_NAME,
        "epochs": EPOCHS,
        "drift_epoch": DRIFT_EPOCH,
        "num_nodes": DEFAULT_NODES,
        "workers_per_node": WORKERS_PER_NODE,
        "fast_mode": FAST,
        "systems": list(SYSTEMS),
        "scenarios": list(SCENARIOS),
        "results": results,
        "drift_checks": drift_checks,
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
