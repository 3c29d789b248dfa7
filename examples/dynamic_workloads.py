"""Dynamic workloads: the scenario engine in five minutes.

The static benchmarks freeze the workload's non-uniformity: the hot set,
cluster speeds and network costs never change within a run. Real deployments
drift. This example composes the scenario engine's perturbations onto a small
experiment and shows how the PS architectures react:

* **hot-set drift** — the Zipf permutation rotates mid-run: yesterday's cold
  keys become hot. Relocation re-localizes, NuPS additionally re-targets its
  replication plan (the re-management hook), the classic PS cannot react.
* **stragglers** — heavy-tailed per-worker slowdowns stretch epoch times.
* **worker churn** — workers pause mid-epoch; their shard is redistributed.
* **degrading network** — latency grows / bandwidth shrinks per epoch.

The coda re-runs the drift *without* the oracle re-management signal and
lets ``nups-adaptive`` detect the new hot set online instead (see
``src/repro/adaptive/``).

Run with::

    PYTHONPATH=src python examples/dynamic_workloads.py
"""

from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.reporting import format_table, localization_rate
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import Scenario, HotSetDrift, make_scenario
from repro.simulation.cluster import ClusterConfig

SYSTEMS = ("classic", "lapse", "essp", "nups")
EPOCHS = 4
DRIFT_EPOCH = 2


def build_scenario(name):
    if name == "static":
        return None
    if name == "drift":
        # Fire at the first round boundary of epoch 2 (mid-run, mid-epoch).
        return Scenario("drift", [HotSetDrift(at=((DRIFT_EPOCH, 0),))])
    return make_scenario(name)


def run(system, scenario_name):
    task = make_task("matrix_factorization", scale="test")
    overrides = {}
    if system == "nups":
        # The 100x-mean heuristic replicates nothing at this tiny scale;
        # replicate the hottest 2% of keys so multi-technique management
        # (and the drift re-management hook) have something to do.
        from repro.core.management import ManagementPlan

        overrides["plan"] = ManagementPlan.top_k_by_count(
            task.access_counts(), max(4, task.num_keys() // 50)
        )
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=4, workers_per_node=2),
        epochs=EPOCHS, chunk_size=8, seed=0,
        scenario=build_scenario(scenario_name),
    )
    return run_experiment(task, make_ps_factory(system, **overrides), config,
                          system_name=system)


def adaptive_coda():
    """Drift *without* the oracle signal: online adaptation vs a stale plan.

    The drift scenario above re-derives NuPS's management plan from the
    post-drift dataset statistics (intent signaling — an oracle). Here nobody
    is told: static NuPS keeps its stale plan, while ``nups-adaptive``
    detects the new hot set from observed accesses and re-manages itself
    (see ``src/repro/adaptive/`` and ``benchmarks/bench_adaptive.py``).
    """
    from repro.adaptive import AdaptiveConfig
    from repro.core.management import ManagementPlan

    rows = []
    for label, system in (("nups (stale plan)", "nups"),
                          ("nups-adaptive", "nups-adaptive")):
        # KGE, whose genuine hot spots (relations, head entities) make a
        # stale replicated set expensive: the drifted hot keys fall back to
        # relocation and contend (MF at this tiny scale barely notices).
        task = make_task("kge", scale="test")
        counts = task.access_counts()
        heuristic = ManagementPlan.from_access_counts(counts).num_replicated
        overrides = {
            "plan": ManagementPlan.top_k_by_count(counts, max(8, heuristic) * 4),
            "sync_interval": 0.001,
        }
        if system == "nups-adaptive":
            overrides["adaptive_config"] = AdaptiveConfig(
                policy="top-k", period=2e-3, half_life=0.02,
                warmup_observations=1000,
            )
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=4, workers_per_node=2),
            epochs=EPOCHS, chunk_size=8, seed=0,
            scenario=Scenario("drift-no-oracle", [HotSetDrift(
                at=((DRIFT_EPOCH, 0),), oracle_remanage=False,
            )]),
        )
        result = run_experiment(task, make_ps_factory(system, **overrides),
                                config, system_name=label)
        rows.append([
            label,
            result.total_time,
            result.final_quality(),
            int(result.metrics.get("adaptive.adaptations", 0)),
            " ".join(f"{r.epoch_duration * 1000:.2f}"
                     for r in result.records),
        ])
    print("\n=== drift with no oracle: stale plan vs online adaptation ===")
    print(format_table(
        ["system", "time (s)", "final MRR", "adaptations",
         "epoch durations (ms)"],
        rows,
    ))


def main():
    for scenario_name in ("static", "drift", "stragglers", "churn",
                          "degrading-network"):
        print(f"\n=== scenario: {scenario_name} ===")
        rows = []
        for system in SYSTEMS:
            result = run(system, scenario_name)
            rows.append([
                system,
                result.total_time,
                result.final_quality(),
                " ".join(f"{localization_rate(r):.2f}" for r in result.records),
            ])
        print(format_table(
            ["system", "time (s)", "final RMSE", "localization per epoch"],
            rows,
        ))
    adaptive_coda()
    print(
        "\nReading the tables: under 'drift' the localization of lapse/nups "
        f"dips in epoch {DRIFT_EPOCH + 1} and recovers afterwards, while "
        "classic stays flat (it has no locality to lose) — the adaptive "
        "management techniques re-adapt to the new hot set. Stragglers and "
        "the degrading network stretch run times without touching quality; "
        "churn moves data between workers mid-epoch."
    )


if __name__ == "__main__":
    main()
