"""Elasticity sweep: membership-change rate x architecture, plus partitions.

Exercises the elasticity subsystem (:mod:`repro.elastic`) end to end and
produces the machine-checked elasticity claims:

* **autoscale-storm completion** — every architecture (classic,
  relocation/Lapse, replication/ESSP, NuPS) completes training under
  sustained membership churn (nodes joining and leaving on a fixed cadence),
  at every swept churn rate, with zero lost acknowledged updates.
* **planned vs crash** — the headline contrast: a planned scale-in drains
  state and loses exactly zero acknowledged updates, where crash recovery
  on the same architecture measurably loses work.
* **rebalance convergence** — repeated scale-outs keep the key space
  balanced: no active node owns more than a bounded multiple of the ideal
  share.
* **bounded degradation** — a split-brain partition degrades final quality
  by at most a small epsilon versus the healthy run: minority writes are
  buffered and replayed, majority accesses are deferred, nothing is dropped.

Results are written to ``BENCH_elastic.json``. Run with::

    PYTHONPATH=src python benchmarks/bench_elastic.py

Set ``REPRO_BENCH_FAST=1`` for a quicker smoke run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    FAST,
    TASK_FACTORIES,
    WORKERS_PER_NODE,
    _parallel_workers,
    print_header,
)

from repro.faults import FaultConfig, MembershipController  # noqa: E402
from repro.runner.config import ExperimentConfig  # noqa: E402
from repro.runner.experiment import ExperimentResult, run_experiment  # noqa: E402
from repro.runner.reporting import format_table  # noqa: E402
from repro.runner.systems import make_ps_factory  # noqa: E402
from repro.scenarios import ServerCrashes, make_scenario  # noqa: E402
from repro.scenarios.base import Scenario  # noqa: E402
from repro.simulation.cluster import Cluster, ClusterConfig  # noqa: E402


TASK_NAME = os.environ.get("REPRO_BENCH_TASK", "matrix_factorization")
NODES = 4 if FAST else 8
EPOCHS = 3 if FAST else 4
SYSTEMS = ("classic", "lapse", "essp", "nups")
#: Swept membership-change rates: one change every N scheduling rounds.
CHURN_PERIODS = (4,) if FAST else (2, 4)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_elastic.json"

#: Slack on the quality comparison (simulation noise at bench scale).
QUALITY_EPSILON = 0.05
#: Rebalance balance bound: max owned share / ideal share after churn.
BALANCE_BOUND = 2.0

_ELASTIC_METRICS = (
    "elastic.scale_outs", "elastic.scale_ins", "elastic.migrated_keys",
    "elastic.drained_updates", "elastic.lost_updates",
    "elastic.migration_time", "elastic.partitions", "elastic.partition_heals",
    "elastic.stale_reads", "elastic.buffered_writes",
    "elastic.replayed_writes", "elastic.divergent_keys",
    "elastic.deferred_chunks", "faults.lost_updates",
)


def _crash_scenario() -> Scenario:
    """One unplanned crash, same cadence as the planned scale-in above."""
    return Scenario(
        "late-crash",
        [ServerCrashes(crashes_per_epoch=1,
                       fault_config=FaultConfig(recovery="checkpoint"),
                       epochs=(EPOCHS - 1,))],
        description="one crash in the final epoch",
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
    for name in _ELASTIC_METRICS:
        summary[name.replace(".", "_")] = result.metrics.get(name, 0.0)
    return summary


def _run_job(cell: str, system: str, variant) -> dict:
    task = TASK_FACTORIES[TASK_NAME]("bench")
    if cell == "storm":
        scenario = make_scenario("autoscale-storm",
                                 period_rounds=int(variant))
    elif cell == "split_brain":
        scenario = make_scenario("split-brain")
    elif cell == "healthy":
        scenario = None
    elif cell == "headline":
        scenario = (make_scenario("scale-in", at_epoch=EPOCHS - 1)
                    if variant == "planned" else _crash_scenario())
    else:
        raise ValueError(cell)
    result = run_experiment(
        task, make_ps_factory(system), _config(scenario), system_name=system
    )
    return _summarize(result)


def _quality_drop(healthy: dict, degraded: dict) -> float:
    """Sign-aware quality loss of the degraded run vs the healthy baseline."""
    delta = healthy["final_quality"] - degraded["final_quality"]
    return delta if healthy["higher_is_better"] else -delta


def _rebalance_convergence() -> dict:
    """Direct check: repeated scale-outs keep ownership balanced.

    Builds a relocation PS standalone, joins nodes one by one, and measures
    the owned-share imbalance after each join: the largest share must stay
    within ``BALANCE_BOUND`` times the ideal (uniform) share.
    """
    from repro.ps.relocation import RelocationPS
    from repro.ps.storage import ParameterStore

    num_keys = 960
    cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=2))
    store = ParameterStore(num_keys, 4, seed=0, init_scale=0.1)
    ps = RelocationPS(store, cluster)
    controller = MembershipController(ps)
    worst = 0.0
    joins = 3 if FAST else 6
    for _ in range(joins):
        controller.scale_out(cluster.time)
        active = cluster.active_nodes
        sizes = np.array([len(ps.local_keys(n)) for n in active], dtype=float)
        assert int(sizes.sum()) == num_keys, "rebalance dropped keys"
        ratio = float(sizes.max() / (num_keys / len(active)))
        worst = max(worst, ratio)
    return {
        "joins": joins,
        "final_nodes": len(cluster.active_nodes),
        "keys_migrated": int(cluster.metrics.get("elastic.migrated_keys")),
        "worst_balance_ratio": worst,
        "bound": BALANCE_BOUND,
    }


def run() -> dict:
    """Run the elasticity sweep; returns the ``BENCH_elastic.json`` payload."""
    print_header(
        f"Elasticity — {TASK_NAME}, {NODES}x{WORKERS_PER_NODE} workers, "
        f"{EPOCHS} epochs"
    )

    jobs = (
        [("storm", system, period)
         for period in CHURN_PERIODS for system in SYSTEMS]
        + [("split_brain", system, "-") for system in SYSTEMS]
        + [("healthy", system, "-") for system in SYSTEMS]
        + [("headline", "classic", variant)
           for variant in ("planned", "crash")]
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

    # --------------------------------------------- autoscale-storm completion
    storm = {
        str(period): {system: by_job[("storm", system, period)]
                      for system in SYSTEMS}
        for period in CHURN_PERIODS
    }
    print_header("autoscale-storm: sustained membership churn")
    rows = []
    for period, cells in storm.items():
        for system, s in cells.items():
            rows.append([
                period, system, s["completed"],
                int(s["elastic_scale_outs"]), int(s["elastic_scale_ins"]),
                int(s["elastic_migrated_keys"]),
                f"{s['total_time']:.4f}", f"{s['final_quality']:.4f}",
            ])
    print(format_table(
        ["period", "system", "completed", "joins", "leaves", "keys moved",
         "total time (s)", "final quality"], rows,
    ))
    for period, cells in storm.items():
        for system, s in cells.items():
            tag = f"{system} @ period {period}"
            assert s["completed"], f"{tag} did not complete under churn"
            assert s["elastic_scale_outs"] >= 1, f"{tag}: no node ever joined"
            assert s["elastic_scale_ins"] >= 1, f"{tag}: no node ever left"
            assert s["elastic_lost_updates"] == 0, \
                f"{tag}: planned churn lost acknowledged updates"

    # ------------------------------------------------ split-brain completion
    split_brain = {system: by_job[("split_brain", system, "-")]
                   for system in SYSTEMS}
    healthy = {system: by_job[("healthy", system, "-")]
               for system in SYSTEMS}
    print_header("split-brain: partition, degrade, heal, reconcile")
    rows = []
    for system, s in split_brain.items():
        rows.append([
            system, s["completed"], int(s["elastic_partition_heals"]),
            int(s["elastic_stale_reads"]), int(s["elastic_buffered_writes"]),
            int(s["elastic_replayed_writes"]),
            int(s["elastic_deferred_chunks"]),
            f"{_quality_drop(healthy[system], s):.4f}",
        ])
    print(format_table(
        ["system", "completed", "heals", "stale reads", "buffered",
         "replayed", "deferred chunks", "quality drop"], rows,
    ))
    degradation: dict = {}
    for system, s in split_brain.items():
        drop = _quality_drop(healthy[system], s)
        degradation[system] = {
            "healthy_quality": healthy[system]["final_quality"],
            "partitioned_quality": s["final_quality"],
            "quality_drop": drop,
        }
        assert s["completed"], f"{system} did not complete under split-brain"
        assert s["elastic_partition_heals"] >= 1, \
            f"{system}: the partition never healed"
        assert s["elastic_buffered_writes"] > 0, \
            f"{system}: the minority never wrote (nothing was degraded)"
        assert s["elastic_replayed_writes"] > 0, \
            f"{system}: buffered minority writes were not replayed"
        assert drop <= QUALITY_EPSILON, (
            f"{system}: split-brain degraded quality by {drop:.4f} "
            f"(> {QUALITY_EPSILON}); degradation is not bounded"
        )

    # --------------------------------------------------- planned vs crash
    headline = {variant: by_job[("headline", "classic", variant)]
                for variant in ("planned", "crash")}
    print_header("headline: planned scale-in vs crash recovery (classic)")
    print(format_table(
        ["transition", "lost updates", "drained updates", "final quality"],
        [["planned scale-in", int(headline["planned"]["elastic_lost_updates"]),
          int(headline["planned"]["elastic_drained_updates"]),
          f"{headline['planned']['final_quality']:.4f}"],
         ["crash + recovery", int(headline["crash"]["faults_lost_updates"]),
          0, f"{headline['crash']['final_quality']:.4f}"]],
    ))
    assert headline["planned"]["elastic_lost_updates"] == 0, \
        "a planned scale-in must lose zero acknowledged updates"
    assert headline["planned"]["elastic_scale_ins"] >= 1, \
        "the planned scale-in never happened"
    assert headline["crash"]["faults_lost_updates"] > 0, \
        "the crash baseline lost nothing; the contrast is vacuous"

    # ------------------------------------------------ rebalance convergence
    convergence = _rebalance_convergence()
    print_header("rebalance convergence: repeated scale-outs stay balanced")
    print(format_table(
        ["joins", "final nodes", "keys migrated", "worst balance ratio",
         "bound"],
        [[convergence["joins"], convergence["final_nodes"],
          convergence["keys_migrated"],
          f"{convergence['worst_balance_ratio']:.3f}",
          convergence["bound"]]],
    ))
    assert convergence["worst_balance_ratio"] <= BALANCE_BOUND, \
        "rebalancing diverged: one node owns an outsized key share"

    return {
        "task": TASK_NAME,
        "epochs": EPOCHS,
        "num_nodes": NODES,
        "workers_per_node": WORKERS_PER_NODE,
        "fast_mode": FAST,
        "systems": list(SYSTEMS),
        "churn_periods": list(CHURN_PERIODS),
        "storm": storm,
        "split_brain": split_brain,
        "healthy": healthy,
        "degradation": degradation,
        "headline": headline,
        "convergence": convergence,
        "checks": {
            "all_complete_storm": {
                f"{system}@{period}": cells[system]["completed"]
                for period, cells in storm.items() for system in cells
            },
            "all_complete_split_brain": {
                system: s["completed"] for system, s in split_brain.items()
            },
            "planned_lost_updates":
                headline["planned"]["elastic_lost_updates"],
            "crash_lost_updates": headline["crash"]["faults_lost_updates"],
            "worst_balance_ratio": convergence["worst_balance_ratio"],
        },
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
