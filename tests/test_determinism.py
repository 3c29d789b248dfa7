"""Determinism regression: identical seeds yield bit-identical experiments.

Guards the vectorized fast paths of PR 1 and the scenario hooks of PR 2
alike: any hidden global state, unseeded randomness or order-dependent float
accumulation shows up here as a diff between two same-seed runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runner.config import ExperimentConfig
from repro.runner.experiment import ExperimentResult, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.simulation.cluster import ClusterConfig
from scalar_oracle import sequential_rounds


def _config(seed=5, scenario=None, epochs=2, telemetry=False):
    telemetry_config = None
    if telemetry:
        from repro.obs import TelemetryConfig

        telemetry_config = TelemetryConfig(access_events=True)
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=epochs, chunk_size=8, seed=seed, scenario=scenario,
        telemetry=telemetry_config,
    )


def _run(task_name: str, system: str, scenario_name=None,
         sequential=False, telemetry=False) -> ExperimentResult:
    """One test-scale run; ``sequential`` runs every round through the
    per-call loop instead of the task's production round path."""
    scenario = make_scenario(scenario_name) if scenario_name else None
    task = make_task(task_name, scale="test")
    if sequential:
        sequential_rounds(task)
    return run_experiment(
        task, make_ps_factory(system),
        _config(scenario=scenario, telemetry=telemetry)
    )


def _assert_identical(first: ExperimentResult, second: ExperimentResult) -> None:
    assert first.initial_quality == second.initial_quality
    assert first.epochs_completed == second.epochs_completed
    for rec_a, rec_b in zip(first.records, second.records):
        assert rec_a.epoch == rec_b.epoch
        # Bit-identical simulated times and quality, not merely approximate.
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.epoch_duration == rec_b.epoch_duration
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics
    assert first.metrics == second.metrics


SYSTEMS_FULL = ["classic", "lapse", "essp", "nups"]
SYSTEMS_REDUCED = ["lapse", "nups"]


@pytest.mark.parametrize("system", SYSTEMS_FULL)
def test_same_seed_is_bit_identical_kge(system):
    _assert_identical(_run("kge", system), _run("kge", system))


@pytest.mark.parametrize("system", SYSTEMS_REDUCED)
def test_same_seed_is_bit_identical_word_vectors(system):
    _assert_identical(_run("word_vectors", system),
                      _run("word_vectors", system))


@pytest.mark.parametrize("system", SYSTEMS_REDUCED)
def test_same_seed_is_bit_identical_matrix_factorization(system):
    _assert_identical(_run("matrix_factorization", system),
                      _run("matrix_factorization", system))


@pytest.mark.parametrize("scenario_name",
                         ["drift", "stragglers", "churn", "degrading-network"])
def test_scenarios_are_deterministic(scenario_name):
    _assert_identical(_run("kge", "nups", scenario_name),
                      _run("kge", "nups", scenario_name))


@pytest.mark.slow
@pytest.mark.parametrize("system", SYSTEMS_FULL)
def test_storm_scenario_is_deterministic(system):
    _assert_identical(_run("kge", system, "storm"),
                      _run("kge", system, "storm"))


def test_different_seeds_differ():
    """Sanity counterpart: the comparison is not vacuously true."""
    task = make_task("kge", scale="test")
    first = run_experiment(task, make_ps_factory("lapse"), _config(seed=5))
    second = run_experiment(task, make_ps_factory("lapse"), _config(seed=6))
    assert first.records[-1].sim_time != second.records[-1].sim_time


def test_compute_scale_default_is_bit_transparent():
    """charge_compute with the default scale matches raw clock advances."""
    from repro.simulation.clock import SimulatedClock
    from repro.simulation.cluster import WorkerContext

    reference = SimulatedClock()
    scaled = WorkerContext(0, 0, SimulatedClock())
    rng = np.random.default_rng(0)
    for cost in rng.uniform(0, 1e-4, size=200):
        reference.advance(cost)
        scaled.charge_compute(cost)
    assert reference.now == scaled.clock.now


@pytest.mark.parametrize("system", SYSTEMS_FULL)
def test_fused_rounds_are_bit_transparent(system):
    """The production round path and the per-call loop agree bit-for-bit,
    same seed."""
    _assert_identical(
        _run("matrix_factorization", system),
        _run("matrix_factorization", system, sequential=True),
    )


@pytest.mark.parametrize("scenario_name", ["drift", "churn"])
def test_fused_rounds_transparent_under_scenarios(scenario_name):
    _assert_identical(
        _run("matrix_factorization", "lapse", scenario_name),
        _run("matrix_factorization", "lapse", scenario_name,
             sequential=True),
    )


@pytest.mark.parametrize("system", SYSTEMS_FULL)
def test_telemetry_is_bit_transparent(system):
    """Telemetry on vs off: identical clocks, metrics and quality."""
    _assert_identical(
        _run("matrix_factorization", system, telemetry=True),
        _run("matrix_factorization", system, telemetry=False),
    )


@pytest.mark.parametrize("scenario_name",
                         ["drift", "churn", "crash-storm",
                          "autoscale-storm"])
def test_telemetry_transparent_under_scenarios(scenario_name):
    _assert_identical(
        _run("matrix_factorization", "nups", scenario_name, telemetry=True),
        _run("matrix_factorization", "nups", scenario_name, telemetry=False),
    )


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("system", SYSTEMS_REDUCED)
def test_round_fusion_transparent_with_telemetry(system, telemetry):
    """Fusion equivalence holds with the tracer attached, too."""
    _assert_identical(
        _run("matrix_factorization", system, telemetry=telemetry),
        _run("matrix_factorization", system, sequential=True,
             telemetry=telemetry),
    )
