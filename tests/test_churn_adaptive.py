"""Composition tests: worker churn x adaptive management (x faults).

The scenario engine, the adaptive controller, and the fault subsystem each
hook the same runner; these tests pin down that composing them keeps every
structural invariant (completion, ownership, metric accounting, monotone
simulated time) and stays exactly deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig
from repro.core.management import ManagementPlan
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import Perturbation, Scenario, ServerCrashes, WorkerChurn
from repro.simulation.cluster import ClusterConfig


def _config(scenario=None, epochs=3, seed=5):
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=epochs, chunk_size=8, seed=seed, scenario=scenario,
    )


def _adaptive_config(**overrides):
    defaults = dict(policy="top-k", top_k=8, period=1e-4, half_life=1e-3,
                    warmup_observations=100)
    defaults.update(overrides)
    return AdaptiveConfig(**defaults)


def _churn_scenario():
    return Scenario("churn", [WorkerChurn(fraction=0.4, pause_at_round=1)])


#: 2 and 6: churn pauses node 0's workers and a crash of node 1 would
#: leave no active worker (crashes first, at 6: the crash pauses node 1's
#: workers and churn draws node 0's); 5: a crash hits a node with a churned
#: worker.
COMPOSITION_SEEDS = (2, 5, 6)


def _churn_and_crashes(crashes_first=False):
    perturbations = [WorkerChurn(fraction=0.4, pause_at_round=1),
                     ServerCrashes(crashes_per_epoch=1)]
    return perturbations[::-1] if crashes_first else perturbations


class _PauseSpy(Perturbation):
    """Logs per round whether each churn victim is paused and whether a
    victim's node is down."""

    def __init__(self, churn):
        self.churn = churn
        self.log = []

    def on_round(self, ctx):
        victims = self.churn.victims
        self.log.append((
            ctx.epoch, ctx.round, [not ctx.is_active(key) for key in victims],
            any(node in ctx.cluster.failed for node, _ in victims)))


def _run(scenario=None, adaptive=None, epochs=3, seed=5, capture=None):
    task = make_task("matrix_factorization", scale="test")
    plan = ManagementPlan.top_k_by_count(task.access_counts(), 8)
    base_factory = make_ps_factory("nups", plan=plan) if adaptive is None \
        else make_ps_factory("nups-adaptive", plan=plan,
                             adaptive_config=adaptive)
    if capture is None:
        factory = base_factory
    else:
        def factory(store, cluster, task):
            ps = base_factory(store, cluster, task)
            capture["ps"], capture["cluster"] = ps, cluster
            return ps
    return run_experiment(
        task, factory, _config(scenario, epochs, seed)
    )


def _assert_identical(first, second):
    assert first.initial_quality == second.initial_quality
    assert first.epochs_completed == second.epochs_completed
    for rec_a, rec_b in zip(first.records, second.records):
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.epoch_duration == rec_b.epoch_duration
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics
    assert first.metrics == second.metrics


def _assert_invariants(result, capture):
    assert result.epochs_completed == len(result.records)
    times = [rec.sim_time for rec in result.records]
    assert times == sorted(times)
    assert all(rec.epoch_duration >= 0 for rec in result.records)
    ps, cluster = capture["ps"], capture["cluster"]
    owned = [np.asarray(ps.keys_owned_by(node_id), dtype=np.int64)
             for node_id in cluster.active_nodes]
    np.testing.assert_array_equal(np.sort(np.concatenate(owned)),
                                  np.arange(ps.store.num_keys))
    metrics = cluster.metrics
    per_kind = sum(
        value for name, value in metrics.counters().items()
        if name.startswith("access.") and name != "access.total"
    )
    assert metrics.get("access.total") == per_kind


class TestChurnAdaptiveComposition:
    def test_both_subsystems_fire_and_invariants_hold(self):
        capture = {}
        result = _run(scenario=_churn_scenario(),
                      adaptive=_adaptive_config(), capture=capture)
        assert result.metrics.get("adaptive.adaptations", 0) >= 1
        assert result.metrics["scenario.worker_pauses"] > 0
        assert result.metrics["scenario.worker_resumes"] > 0
        _assert_invariants(result, capture)

    def test_composition_is_deterministic(self):
        first = _run(scenario=_churn_scenario(), adaptive=_adaptive_config())
        second = _run(scenario=_churn_scenario(), adaptive=_adaptive_config())
        _assert_identical(first, second)

    def test_churn_does_not_break_adaptive_accounting(self):
        # The adaptive controller observes accesses from paused-and-resumed
        # workers too; its observation count matches a churn-free run's
        # order of magnitude (no starvation, no double counting).
        churned = _run(scenario=_churn_scenario(),
                       adaptive=_adaptive_config())
        steady = _run(scenario=None, adaptive=_adaptive_config())
        assert churned.metrics.get("adaptive.adaptations", 0) >= 1
        assert steady.metrics.get("adaptive.adaptations", 0) >= 1
        churn_obs = churned.metrics.get("adaptive.observations", 0)
        steady_obs = steady.metrics.get("adaptive.observations", 0)
        if churn_obs and steady_obs:
            assert 0.5 <= churn_obs / steady_obs <= 2.0

    @pytest.mark.parametrize("crashes_first", [False, True])
    @pytest.mark.parametrize("seed", COMPOSITION_SEEDS)
    def test_churn_adaptive_and_crashes_compose(self, seed, crashes_first):
        capture = {}
        result = _run(scenario=Scenario(
            "storm+", _churn_and_crashes(crashes_first)),
            adaptive=_adaptive_config(), seed=seed, capture=capture)
        assert result.epochs_completed == 3
        assert result.metrics["faults.crashes"] >= 1
        assert result.metrics["faults.restores"] >= 1
        assert result.metrics.get("adaptive.adaptations", 0) >= 1
        _assert_invariants(result, capture)

    @pytest.mark.parametrize("seed", COMPOSITION_SEEDS)
    def test_triple_composition_is_deterministic(self, seed):
        first, second = (
            _run(scenario=Scenario("storm+", _churn_and_crashes()),
                 adaptive=_adaptive_config(), seed=seed)
            for _ in range(2))
        _assert_identical(first, second)

    def test_a_restore_keeps_workers_churn_paused(self):
        """Churn holds its victims paused until the epoch's end; a crash of
        a victim's node and its restore take and release only the node's
        own hold (at seed 5 node 1 crashes while churn holds (1, 1))."""
        churn, crashes = _churn_and_crashes()
        spy = _PauseSpy(churn)
        _run(scenario=Scenario("spied", [churn, crashes, spy]), seed=5)
        assert any(down for *_, down in spy.log), "no victim's node crashed"
        for epoch, round_index, paused, _ in spy.log:
            if round_index >= churn.pause_at_round:
                assert all(paused), (epoch, round_index)

