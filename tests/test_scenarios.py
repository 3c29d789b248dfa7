"""Tests for the dynamic-workload scenario engine (repro.scenarios)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.distributions import (
    CategoricalDistribution,
    UniformDistribution,
)
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import _EpochState, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import (
    HotSetDrift,
    KeyRemapper,
    NetworkDegradation,
    RemappedDistribution,
    Scenario,
    ScenarioParameterServer,
    Stragglers,
    WorkerChurn,
    make_scenario,
)
from repro.scenarios.presets import SCENARIO_NAMES
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkSchedule, NetworkStage


def small_config(epochs=3, scenario=None, seed=0, chunk_size=8):
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=epochs, chunk_size=chunk_size, seed=seed, scenario=scenario,
    )


def run_kge(scenario=None, system="lapse", epochs=3, seed=0):
    task = make_task("kge", scale="test")
    return run_experiment(
        task, make_ps_factory(system), small_config(epochs, scenario, seed)
    )


class _SteepDegradation(NetworkDegradation):
    """A network that degrades faster than the preset's."""

    LATENCY_GROWTH = 3.0
    BANDWIDTH_DECAY = 0.3


# --------------------------------------------------------------- KeyRemapper
class TestKeyRemapper:
    def test_identity_round_trip(self):
        remapper = KeyRemapper(100)
        keys = np.array([0, 5, 99])
        assert remapper.is_identity
        np.testing.assert_array_equal(remapper.to_physical(keys), keys)
        np.testing.assert_array_equal(remapper.to_logical(keys), keys)

    def test_rotation_is_group_bijection(self):
        remapper = KeyRemapper(100, groups=[(0, 60), (60, 100)])
        sigma = remapper.rotation(0.25)
        assert sorted(sigma[:60].tolist()) == list(range(60))
        assert sorted(sigma[60:].tolist()) == list(range(60, 100))
        remapper.apply(sigma)
        assert not remapper.is_identity
        all_keys = np.arange(100)
        np.testing.assert_array_equal(
            remapper.to_logical(remapper.to_physical(all_keys)), all_keys
        )
        # The rotation moved every key of the large group.
        assert np.all(remapper.to_physical(np.arange(60)) != np.arange(60))

    def test_repeated_drifts_stay_inverse_bijections(self):
        remapper = KeyRemapper(64, groups=[(0, 40), (40, 64)])
        for shift in (0.3, 0.5, 0.7, 0.9):
            remapper.apply(remapper.rotation(shift))
        all_keys = np.arange(64)
        np.testing.assert_array_equal(
            remapper.to_physical(remapper.to_logical(all_keys)), all_keys
        )
        assert sorted(remapper.physical_index.tolist()) == all_keys.tolist()

    def test_rejects_cross_group_sigma(self):
        remapper = KeyRemapper(10, groups=[(0, 5), (5, 10)])
        sigma = np.roll(np.arange(10), 1)  # rotates across the boundary
        with pytest.raises(ValueError, match="onto itself"):
            remapper.apply(sigma)

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="overlap"):
            KeyRemapper(10, groups=[(0, 6), (5, 10)])


# ------------------------------------------------------------ store.permute
class TestStorePermute:
    def test_values_and_versions_move_with_keys(self):
        store = ParameterStore(6, 2, seed=1, init_scale=1.0)
        store.add(np.array([3]), np.ones((1, 2), dtype=np.float32))
        before = store.values.copy()
        sigma = np.array([1, 2, 3, 4, 5, 0])
        store.permute(sigma)
        np.testing.assert_array_equal(store.values[sigma], before)
        assert store.version(int(sigma[3])) == 1
        assert store.version(int(sigma[0])) == 0

    def test_rejects_non_permutation(self):
        store = ParameterStore(4, 1)
        with pytest.raises(ValueError, match="permutation"):
            store.permute(np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError, match="shape"):
            store.permute(np.array([0, 1, 2]))


# --------------------------------------------------- remapped PS + sampling
class TestInterposerKeyTranslation:
    def make(self, num_keys=40):
        store = ParameterStore(num_keys, 2, seed=5, init_scale=0.5)
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        ps = RelocationPS(store, cluster)
        remapper = KeyRemapper(num_keys)
        return ScenarioParameterServer(ps, remapper), ps, remapper, cluster

    def test_pull_translates_after_drift(self):
        proxy, ps, remapper, cluster = self.make()
        worker = cluster.worker(0, 0)
        logical = np.array([1, 7, 30])
        before = proxy.pull(worker, logical).copy()
        sigma = remapper.rotation(0.5)
        ps.store.permute(sigma)
        remapper.apply(sigma)
        # Logical values are preserved across the drift...
        np.testing.assert_array_equal(proxy.pull(worker, logical), before)
        # ...but they now live under different physical keys.
        assert np.all(remapper.to_physical(logical) != logical)

    def test_push_lands_on_physical_key(self):
        proxy, ps, remapper, cluster = self.make()
        worker = cluster.worker(0, 0)
        remapper.apply(remapper.rotation(0.5))
        physical = int(remapper.to_physical(np.array([3]))[0])
        before = ps.store.get_single(physical)
        proxy.push(worker, np.array([3]), np.ones((1, 2), dtype=np.float32))
        np.testing.assert_allclose(
            ps.store.get_single(physical), before + 1.0, rtol=1e-6
        )

    @pytest.mark.parametrize("bad_key, error", [(-1, KeyError),
                                                (10 ** 6, IndexError)])
    def test_logical_keys_are_range_checked(self, bad_key, error):
        """Regression: ``_to_physical[-1]`` is the last key's mapping, so a
        negative logical key read and wrote another key's value where the
        unwrapped PS raises. Per call and once per chunk the interposer raises
        what the unwrapped PS raises."""
        proxy, ps, remapper, cluster = self.make()
        distribution_id = proxy.register_distribution(
            UniformDistribution(0, 40))
        worker = cluster.worker(0, 0)
        bad = np.array([3, bad_key], dtype=np.int64)
        deltas = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(error):
            ps.pull(worker, bad)  # the unwrapped exception type
        calls = [
            lambda: proxy.pull(worker, bad),
            lambda: proxy.push(worker, bad, deltas),
            lambda: proxy.push_sample(worker, bad, deltas),
            lambda: proxy.localize(worker, bad),
        ] + [
            lambda sampled=sampled: proxy.direct_point_charger(sampled)
            .charge_chunk(worker, bad, point_calls([2], [0], [0.0]))
            for sampled in (None, distribution_id)
        ]
        before = ps.store.values.copy()
        for call in calls:
            with pytest.raises(error):
                call()
        assert np.array_equal(ps.store.values, before)

    def test_delegates_unlisted_attributes(self):
        proxy, ps, _, _ = self.make()
        assert proxy.describe() == ps.describe()
        assert proxy.name == ps.name
        assert proxy.store is ps.store


class TestRemappedDistribution:
    def test_probabilities_follow_the_mapping(self):
        remapper = KeyRemapper(10, groups=[(0, 10)])
        inner = CategoricalDistribution(np.arange(1.0, 11.0), key_offset=0)
        wrapped = RemappedDistribution(inner, remapper)
        np.testing.assert_allclose(wrapped.probabilities(), inner.probabilities())
        remapper.apply(remapper.rotation(0.3))
        for physical in range(10):
            logical = int(remapper.to_logical(np.array([physical]))[0])
            assert wrapped.probability(physical) == pytest.approx(
                inner.probability(logical)
            )
        np.testing.assert_allclose(wrapped.probabilities().sum(), 1.0)

    def test_sampled_keys_are_physical(self):
        remapper = KeyRemapper(12, groups=[(0, 12)])
        inner = CategoricalDistribution(np.r_[np.ones(6), np.zeros(6)])
        wrapped = RemappedDistribution(inner, remapper)
        remapper.apply(remapper.rotation(0.5))
        rng = np.random.default_rng(0)
        samples = wrapped.sample(rng, 200)
        hot_physical = set(remapper.to_physical(np.arange(6)).tolist())
        assert set(samples.tolist()) <= hot_physical

    def test_rejects_support_not_matching_a_group(self):
        remapper = KeyRemapper(10, groups=[(0, 5), (5, 10)])
        # Spans a group boundary.
        with pytest.raises(ValueError, match="key group"):
            RemappedDistribution(
                CategoricalDistribution(np.ones(6), key_offset=2), remapper
            )
        # Strict subset of a group: would leak outside its support post-drift.
        with pytest.raises(ValueError, match="key group"):
            RemappedDistribution(
                CategoricalDistribution(np.ones(3), key_offset=5), remapper
            )


# ----------------------------------------------------------- NuPS.remanage
class TestRemanage:
    def test_replicas_follow_the_new_plan(self, store, cluster):
        plan = ManagementPlan(store.num_keys, np.arange(5))
        nups = NuPS(store, cluster, plan=plan, sync_interval=0.01)
        new_plan = ManagementPlan(store.num_keys, np.arange(50, 60))
        nups.remanage(new_plan, now=1.0)
        assert nups.plan is new_plan
        assert nups.replica_manager.plan is new_plan
        assert nups.replica_manager.num_replicated == 10
        assert nups.replica_manager.max_replica_divergence() == 0.0
        assert cluster.metrics.get("management.replans") == 1

    def test_pending_updates_flush_before_swap(self, store, cluster):
        plan = ManagementPlan(store.num_keys, np.arange(5))
        nups = NuPS(store, cluster, plan=plan, sync_interval=0.01)
        worker = cluster.worker(0, 0)
        delta = np.ones((1, store.value_length), dtype=np.float32)
        before = store.get_single(2)
        nups.push(worker, np.array([2]), delta)
        nups.remanage(ManagementPlan.relocate_all(store.num_keys), now=0.5)
        np.testing.assert_allclose(store.get_single(2), before + 1.0, rtol=1e-6)

    def test_schedule_anchored_at_remanage_time(self, store, cluster):
        plan = ManagementPlan(store.num_keys, np.arange(5))
        nups = NuPS(store, cluster, plan=plan, sync_interval=0.01)
        nups.remanage(ManagementPlan(store.num_keys, np.arange(3)), now=5.0)
        # A schedule naively restarted at time zero would owe ~500 rounds.
        assert nups.replica_manager.maybe_sync(5.015) == 1

    def test_rejects_wrong_key_space(self, store, cluster):
        nups = NuPS(store, cluster, plan=ManagementPlan(store.num_keys, [0]))
        with pytest.raises(ValueError, match="key space"):
            nups.remanage(ManagementPlan(store.num_keys + 1, [0]))


# ------------------------------------------------------- network refreshing
class TestNetworkRefresh:
    def test_refresh_updates_cached_constants(self):
        store = ParameterStore(20, 4)
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        for ps in (
            RelocationPS(store, cluster),
            ReplicationPS(store, cluster, protocol=ReplicationProtocol.SSP),
        ):
            degraded = cluster.config.network.scaled(
                latency_factor=4.0, bandwidth_factor=0.25
            )
            cluster.set_network(degraded)
            ps.refresh_network()
            assert ps.network is degraded
            assert ps._remote_access_cost == degraded.remote_access_cost(
                store.value_bytes()
            )
            if isinstance(ps, RelocationPS):
                assert ps._relocation_latency == degraded.relocation_cost(
                    store.value_bytes()
                )
            cluster.set_network(cluster.config.network)

    def test_scaled_validates_and_keeps_compute(self, network):
        degraded = network.scaled(latency_factor=2.0, bandwidth_factor=0.5)
        assert degraded.latency == 2 * network.latency
        assert degraded.bandwidth == 0.5 * network.bandwidth
        assert degraded.compute_per_step == network.compute_per_step
        with pytest.raises(ValueError):
            network.scaled(bandwidth_factor=0.0)

    def test_network_schedule_stages(self, network):
        schedule = NetworkSchedule([
            NetworkStage(from_epoch=1, latency_factor=2.0),
            (3, 4.0, 0.5),  # tuple form
        ])
        assert schedule.stage_at(0) is None
        assert schedule.model_at(network, 0) == network
        assert schedule.model_at(network, 1).latency == 2 * network.latency
        assert schedule.model_at(network, 2).latency == 2 * network.latency
        degraded = schedule.model_at(network, 5)
        assert degraded.latency == 4 * network.latency
        assert degraded.bandwidth == 0.5 * network.bandwidth


# --------------------------------------------------------- epoch-state churn
class TestEpochStateRedistribution:
    def make_state(self, sizes, chunk_size=4):
        class W:
            def __init__(self, node_id, worker_id):
                self.node_id, self.worker_id = node_id, worker_id
                self.global_worker_id = (node_id, worker_id)

        workers = [W(0, i) for i in range(len(sizes))]
        offset = 0
        shard_arrays = []
        for size in sizes:
            shard_arrays.append(np.arange(offset, offset + size))
            offset += size
        shards = [shard_arrays]
        return _EpochState(workers, shards, chunk_size), workers

    def test_no_work_lost_on_redistribution(self):
        state, workers = self.make_state([10, 7, 0, 5])
        taken = {w.global_worker_id: [] for w in workers}
        taken[(0, 0)].append(state.take_chunk((0, 0)))
        state.redistribute((0, 0), [(0, 1), (0, 3)])
        assert state.pending((0, 0)) == 0
        while state.has_pending():
            for w in workers[1:]:
                chunk = state.take_chunk(w.global_worker_id)
                if len(chunk):
                    taken[w.global_worker_id].append(chunk)
        everything = np.concatenate(
            [np.concatenate(chunks) for chunks in taken.values() if chunks]
        )
        np.testing.assert_array_equal(np.sort(everything), np.arange(22))

    def test_peek_matches_take_across_segments(self):
        state, _ = self.make_state([3, 0], chunk_size=8)
        state.queues[(0, 0)].append(np.array([100, 101]))
        peeked = state.peek_chunk((0, 0))
        np.testing.assert_array_equal(peeked, state.take_chunk((0, 0)))


# -------------------------------------------------- end-to-end perturbations
class TestScenarioExperiments:
    def test_presets_cover_the_four_scenarios(self):
        assert {"drift", "stragglers", "churn", "degrading-network"} <= set(
            SCENARIO_NAMES
        )
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("no-such-scenario")

    def test_stragglers_slow_the_cluster_down(self):
        baseline = run_kge(scenario=None)
        slowed = run_kge(scenario=Scenario(
            "s", [Stragglers(severity=4.0)]
        ))
        assert slowed.total_time > baseline.total_time * 1.05
        # Quality trajectory is untouched: stragglers change time, not math.
        assert slowed.qualities() == baseline.qualities()

    def test_churn_redistributes_and_completes(self):
        result = run_kge(scenario=Scenario(
            "c", [WorkerChurn(fraction=0.4, pause_at_round=1)]
        ), epochs=2)
        assert result.epochs_completed == 2
        assert result.metrics["scenario.worker_pauses"] > 0
        assert result.metrics["scenario.worker_resumes"] > 0
        total = sum(rec.metrics["access.total"] for rec in result.records)
        baseline = run_kge(scenario=None, epochs=2)
        baseline_total = sum(rec.metrics["access.total"] for rec in baseline.records)
        # Every data point is still processed (sampling access counts can
        # differ slightly because pool preparation is node-driven).
        direct = [r.metrics.get("access.pull.local", 0)
                  + r.metrics.get("access.pull.remote", 0) for r in result.records]
        baseline_direct = [r.metrics.get("access.pull.local", 0)
                           + r.metrics.get("access.pull.remote", 0)
                           for r in baseline.records]
        assert direct == baseline_direct
        assert total > 0 and baseline_total > 0

    def test_degrading_network_inflates_network_bound_systems(self):
        scenario = Scenario("d", [_SteepDegradation(steps=2)])
        degraded = run_kge(scenario=scenario, system="classic")
        baseline = run_kge(scenario=None, system="classic")
        assert degraded.metrics["scenario.network_changes"] >= 1
        assert degraded.total_time > baseline.total_time * 1.5
        # Epochs get slower as the network degrades.
        durations = [rec.epoch_duration for rec in degraded.records]
        assert durations[-1] > durations[0] * 1.5

    def test_drift_triggers_relocation_burst_and_recovery(self):
        # Matrix factorization settles into strong per-node row locality, so
        # the relocation PS reaches a steady state that a mid-run drift
        # visibly disturbs — and re-adapts from within one epoch.
        task_name = "matrix_factorization"
        scenario = Scenario("d", [HotSetDrift(at=((2, 0),))])
        task = make_task(task_name, scale="test")
        result = run_experiment(
            task, make_ps_factory("lapse"), small_config(4, scenario)
        )
        relocations = [rec.metrics.get("relocation.count", 0.0)
                       for rec in result.records]
        assert result.metrics["scenario.drifts"] == 1
        # Epoch 1 is the settled steady state, epoch 2 contains the drift
        # (relocation burst), epoch 3 is settled again (re-adaptation).
        assert relocations[2] > 1.3 * relocations[1]
        assert relocations[3] <= 1.05 * relocations[1]

    def test_drift_remanages_nups_plan(self):
        captured = {}
        task = make_task("kge", scale="test")
        # The untuned heuristic replicates nothing at test scale; force a
        # non-trivial plan so re-management has something to re-target.
        plan = ManagementPlan.top_k_by_count(task.access_counts(), 20)
        base_factory = make_ps_factory("nups", plan=plan)

        def factory(store, cluster, task):
            ps = base_factory(store, cluster, task)
            captured["ps"] = ps
            captured["initial_replicated"] = ps.plan.replicated_keys.copy()
            return ps

        scenario = Scenario("d", [HotSetDrift(at=((1, 0),))])
        result = run_experiment(task, factory, small_config(2, scenario))
        ps = captured["ps"]
        assert result.metrics.get("management.replans", 0) == 1
        assert ps.plan.num_replicated == len(captured["initial_replicated"])
        assert not np.array_equal(
            ps.plan.replicated_keys, captured["initial_replicated"]
        )
        # The new plan replicates the drifted images of the hot keys: the
        # remapped physical hot set, not the stale physical labels.
        runtime_hot = np.sort(ps.plan.replicated_keys)
        counts = task.access_counts()
        logical_hot = np.argsort(counts)[::-1][:20]
        assert set(runtime_hot.tolist()) != set(
            captured["initial_replicated"].tolist()
        )
        assert len(runtime_hot) == len(logical_hot)

    def test_drift_preserves_logical_quality_semantics(self):
        # Same seed, same task: a drift changes *where* parameters live, not
        # what the model learns on a system without caches (classic PS), so
        # quality stays identical while key traffic moves.
        scenario = Scenario("d", [HotSetDrift(at=((1, 0),))])
        drifted = run_kge(scenario=scenario, system="classic", epochs=2)
        baseline = run_kge(scenario=None, system="classic", epochs=2)
        assert drifted.qualities() == baseline.qualities()

    def test_cannot_pause_last_worker(self):
        task = make_task("kge", scale="test")
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=2))
        store = task.create_store(seed=0)
        ps = make_ps_factory("classic")(store, cluster, task)
        runtime = Scenario("x", []).bind(task, ps, cluster, small_config())
        assert runtime.pause_worker(0, 0, holder="a")
        assert not runtime.pause_worker(0, 1, holder="a")
        assert runtime.is_active((0, 1))
        runtime.resume_worker(0, 0, holder="a")
        assert runtime.pause_worker(0, 1, holder="a")
        assert cluster.metrics.get("scenario.worker_pauses") == 2

    def test_a_worker_stays_paused_while_any_pause_holds_it(self):
        task = make_task("kge", scale="test")
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        ps = make_ps_factory("classic")(task.create_store(seed=0), cluster,
                                        task)
        runtime = Scenario("x", []).bind(task, ps, cluster, small_config())
        runtime.pause_worker(1, 0, holder="churn")
        runtime.pause_worker(1, 0, holder=("node", 1))
        runtime.resume_worker(1, 0, holder=("node", 1))
        assert not runtime.is_active((1, 0))
        runtime.resume_worker(1, 0, holder="nobody")
        assert not runtime.is_active((1, 0))
        runtime.resume_worker(1, 0, holder="churn")
        assert runtime.is_active((1, 0))
        # Counted per active <-> paused transition, not per hold.
        assert cluster.metrics.get("scenario.worker_pauses") == 1
        assert cluster.metrics.get("scenario.worker_resumes") == 1

    def test_worker_compute_scale_validation(self):
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        with pytest.raises(ValueError, match="positive"):
            cluster.set_compute_scale(0, 0, 0.0)
        cluster.set_compute_scale(0, 0, 2.0)
        worker = cluster.worker(0, 0)
        worker.charge_compute(1.0)
        assert worker.clock.now == 2.0
