"""Fault-injection sweep: crash count x recovery mechanism x architecture.

Exercises the fault-tolerance subsystem (:mod:`repro.faults`) end to end and
produces the machine-checked recovery claims:

* **crash-storm completion** — every architecture (classic, relocation/Lapse,
  replication/ESSP, NuPS) completes training under the ``crash-storm``
  preset (repeated server crashes and restarts) without deadlock.
* **checkpoint vs restart** — with the same crash schedule, periodic
  checkpointing loses strictly less work (discarded updates) than
  restart-from-scratch recovery.
* **graceful degradation** — replication-based architectures recover crashed
  keys from surviving replicas, so they lose less work and degrade at most
  as much in final quality as the classic PS.

Results are written to ``BENCH_faults.json``. Run with::

    PYTHONPATH=src python benchmarks/bench_faults.py

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
    FAST,
    TASK_FACTORIES,
    WORKERS_PER_NODE,
    _parallel_workers,
    print_header,
)

from repro.faults import FaultConfig  # noqa: E402
from repro.runner.config import ExperimentConfig  # noqa: E402
from repro.runner.experiment import ExperimentResult, run_experiment  # noqa: E402
from repro.runner.reporting import format_table  # noqa: E402
from repro.runner.systems import make_ps_factory  # noqa: E402
from repro.scenarios import ServerCrashes, make_scenario  # noqa: E402
from repro.scenarios.base import Scenario  # noqa: E402
from repro.simulation.cluster import ClusterConfig  # noqa: E402


TASK_NAME = os.environ.get("REPRO_BENCH_TASK", "matrix_factorization")
NODES = 4 if FAST else 8
EPOCHS = 3 if FAST else 4
SYSTEMS = ("classic", "lapse", "essp", "nups")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: Slack on the quality-drop comparison (simulation noise at bench scale).
QUALITY_EPSILON = 0.02

_FAULT_METRICS = (
    "faults.crashes", "faults.restores", "faults.recovery_time",
    "faults.lost_updates", "faults.checkpoints",
    "faults.keys_recovered_from_replicas",
    "faults.keys_recovered_from_checkpoint",
    "faults.retries", "faults.timeouts", "faults.lost_chunks",
)


def _late_crash_scenario(fault_config: FaultConfig) -> Scenario:
    """Crashes in the last epoch only: maximal lost work for the rollback."""
    return Scenario(
        "late-crash",
        [ServerCrashes(crashes_per_epoch=2, fault_config=fault_config,
                       epochs=(EPOCHS - 1,))],
        description="two crashes in the final epoch",
    )


def _config(scenario) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=NODES,
                              workers_per_node=WORKERS_PER_NODE),
        epochs=EPOCHS, chunk_size=8, seed=0, scenario=scenario,
    )


def _summarize(result: ExperimentResult) -> dict:
    summary = {
        "completed": result.epochs_completed == EPOCHS,
        "epochs": result.epochs_completed,
        "total_time": result.total_time,
        "final_quality": result.final_quality(),
        "higher_is_better": result.higher_is_better,
    }
    for name in _FAULT_METRICS:
        summary[name.split(".", 1)[1]] = result.metrics.get(name, 0.0)
    return summary


def _run_job(cell: str, system: str, variant: str) -> dict:
    task = TASK_FACTORIES[TASK_NAME]("bench")
    if cell == "crash_storm":
        scenario = make_scenario("crash-storm")
    elif cell == "recovery":
        scenario = _late_crash_scenario(FaultConfig(
            recovery=variant, checkpoint_interval=0.005,
        ))
    elif cell == "graceful":
        scenario = None if variant == "healthy" else _late_crash_scenario(
            FaultConfig(recovery="restart")
        )
    else:
        raise ValueError(cell)
    result = run_experiment(
        task, make_ps_factory(system), _config(scenario), system_name=system
    )
    return _summarize(result)


def _quality_drop(healthy: dict, crashed: dict) -> float:
    """Sign-aware quality loss of the crashed run vs the healthy baseline."""
    delta = healthy["final_quality"] - crashed["final_quality"]
    return delta if healthy["higher_is_better"] else -delta


def run() -> dict:
    """Run the fault sweep; returns the ``BENCH_faults.json`` payload."""
    print_header(
        f"Fault injection — {TASK_NAME}, {NODES}x{WORKERS_PER_NODE} workers, "
        f"{EPOCHS} epochs"
    )

    jobs = (
        [("crash_storm", system, "-") for system in SYSTEMS]
        + [("recovery", "classic", variant)
           for variant in ("checkpoint", "restart")]
        + [("graceful", system, variant)
           for system in ("classic", "essp")
           for variant in ("healthy", "crashed")]
    )
    workers = _parallel_workers(len(jobs))
    summaries = None
    if workers > 1 and hasattr(os, "fork"):
        TASK_FACTORIES[TASK_NAME]("bench")  # warm the dataset cache pre-fork
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (OSError, ValueError):
            pool = None
        if pool is not None:
            with pool:
                summaries = pool.starmap(_run_job, jobs)
    if summaries is None:
        summaries = [_run_job(*job) for job in jobs]
    by_job = dict(zip(jobs, summaries))

    # ------------------------------------------------- crash-storm completion
    crash_storm = {system: by_job[("crash_storm", system, "-")]
                   for system in SYSTEMS}
    print_header("crash-storm: repeated server crashes and restarts")
    rows = [[system, s["completed"], s["crashes"], s["restores"],
             f"{s['total_time']:.4f}", f"{s['final_quality']:.4f}",
             s["lost_updates"]]
            for system, s in crash_storm.items()]
    print(format_table(
        ["system", "completed", "crashes", "restores", "total time (s)",
         "final quality", "lost updates"], rows,
    ))
    all_complete = {system: s["completed"] for system, s in crash_storm.items()}
    min_crashes = min(s["crashes"] for s in crash_storm.values())
    recovery_time_total = sum(s["recovery_time"]
                              for s in crash_storm.values())
    for system, complete in all_complete.items():
        assert complete, f"{system} did not complete under crash-storm"
    assert min_crashes >= 1, "crash-storm injected no crashes"

    # --------------------------------------------- checkpoint beats restart
    recovery = {variant: by_job[("recovery", "classic", variant)]
                for variant in ("checkpoint", "restart")}
    print_header("recovery mechanism: checkpoint vs restart-from-scratch")
    print(format_table(
        ["mechanism", "checkpoints", "lost updates", "final quality"],
        [[variant, s["checkpoints"], s["lost_updates"],
          f"{s['final_quality']:.4f}"] for variant, s in recovery.items()],
    ))
    assert recovery["checkpoint"]["lost_updates"] \
        < recovery["restart"]["lost_updates"], (
            "periodic checkpointing should lose less work than "
            "restart-from-scratch"
        )

    # ------------------------------------------------- graceful degradation
    graceful: dict = {}
    for system in ("classic", "essp"):
        healthy = by_job[("graceful", system, "healthy")]
        crashed = by_job[("graceful", system, "crashed")]
        graceful[system] = {
            "healthy_quality": healthy["final_quality"],
            "crashed_quality": crashed["final_quality"],
            "quality_drop": _quality_drop(healthy, crashed),
            "lost_updates": crashed["lost_updates"],
            "keys_recovered_from_replicas":
                crashed["keys_recovered_from_replicas"],
        }
    checks = {
        "replication_smaller_drop":
            graceful["essp"]["quality_drop"]
            <= graceful["classic"]["quality_drop"] + QUALITY_EPSILON,
        "replication_less_lost_work":
            graceful["essp"]["lost_updates"]
            < graceful["classic"]["lost_updates"],
        "replicas_used":
            graceful["essp"]["keys_recovered_from_replicas"] > 0,
    }
    graceful["checks"] = checks
    print_header("graceful degradation: replication vs classic under crashes")
    print(format_table(
        ["system", "healthy quality", "crashed quality", "quality drop",
         "lost updates", "keys from replicas"],
        [[system,
          f"{g['healthy_quality']:.4f}", f"{g['crashed_quality']:.4f}",
          f"{g['quality_drop']:.4f}", g["lost_updates"],
          g["keys_recovered_from_replicas"]]
         for system, g in graceful.items() if system != "checks"],
    ))
    for name, ok in checks.items():
        assert ok, f"graceful-degradation check failed: {name}"

    return {
        "task": TASK_NAME,
        "epochs": EPOCHS,
        "num_nodes": NODES,
        "workers_per_node": WORKERS_PER_NODE,
        "fast_mode": FAST,
        "systems": list(SYSTEMS),
        "crash_storm": crash_storm,
        "recovery": recovery,
        "graceful": graceful,
        "checks": {
            "all_complete": all_complete,
            "min_crashes": min_crashes,
            "recovery_time_total": recovery_time_total,
        },
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
