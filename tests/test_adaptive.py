"""Tests for the adaptive-management subsystem (:mod:`repro.adaptive`).

Covers the statistics layer (space-saving sketch, decayed counters), the
policies (online hot-spot heuristic, top-k, hysteresis bands), the
controller (periodic adaptation, incremental transitions, transition
charging), the NuPS integration (taps, ``attach_adaptive``, remanage edge
cases), and the runner wiring (``ExperimentConfig.adaptive``) — including
the contract that adaptive machinery which never changes the plan leaves
the simulation bit-identical to a static run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import (
    AccessStats,
    AdaptiveConfig,
    HotSpotPolicy,
    SpaceSavingSketch,
    TopKPolicy,
    install_adaptive,
    make_policy,
)
from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.faults import MembershipController
from repro.ps.classic import ClassicPS
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.simulation.cluster import Cluster, ClusterConfig
import replicas


# --------------------------------------------------------------------------
# stats: SpaceSavingSketch
# --------------------------------------------------------------------------

def _estimate(sketch, key) -> float:
    """The sketch's frequency estimate of ``key`` (0.0 when not tracked)."""
    keys, counts = sketch.items()
    hit = np.flatnonzero(keys == key)
    return float(counts[hit[0]]) if len(hit) else 0.0


class TestSpaceSavingSketch:
    def test_exact_below_capacity(self):
        sketch = SpaceSavingSketch(capacity=8)
        sketch.update([3, 5, 7], [10, 2, 5])
        sketch.update([5, 9], [1, 4])
        assert _estimate(sketch, 3) == 10
        assert _estimate(sketch, 5) == 3
        assert _estimate(sketch, 9) == 4
        assert _estimate(sketch, 42) == 0.0
        assert len(sketch) == 4

    def test_items_sorted_by_estimate_then_key(self):
        sketch = SpaceSavingSketch(capacity=8)
        sketch.update([4, 2, 9], [5, 5, 7])
        keys, counts = sketch.items()
        assert keys.tolist() == [9, 2, 4]  # ties broken by key
        assert counts.tolist() == [7, 5, 5]

    def test_eviction_keeps_hot_keys_and_overestimates(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.update([1, 2, 3, 4], [100, 90, 1, 2])
        sketch.update([50], [5])
        # The coldest counter (key 3, count 1) is evicted; the newcomer
        # inherits its estimate (space-saving overestimation).
        assert _estimate(sketch, 3) == 0.0
        assert _estimate(sketch, 50) == 6
        assert _estimate(sketch, 1) == 100

    def test_eviction_deterministic_under_ties(self):
        def build(order):
            sketch = SpaceSavingSketch(capacity=2)
            sketch.update([1, 2], [5, 5])
            sketch.update(order, [1, 1])
            return sketch.items()

        keys_a, counts_a = build([7, 8])
        keys_b, counts_b = build([7, 8])
        assert keys_a.tolist() == keys_b.tolist()
        assert counts_a.tolist() == counts_b.tolist()

    def test_hot_set_survives_cold_stream(self):
        rng = np.random.default_rng(0)
        sketch = SpaceSavingSketch(capacity=32)
        for _ in range(200):
            sketch.update([1, 2, 3], [20, 15, 10])
            cold = rng.integers(100, 10_000, size=10)
            unique, counts = np.unique(cold, return_counts=True)
            sketch.update(unique.tolist(), counts.tolist())
        keys, _ = sketch.items()
        assert {1, 2, 3} <= set(keys[:3].tolist())

    def test_batch_overflow_keeps_hottest_new_keys(self):
        # One batch with more new distinct keys than the sketch has slots:
        # the hottest enter (inheriting victim estimates), the coldest of
        # the batch are dropped (the documented batch-overflow rule).
        sketch = SpaceSavingSketch(capacity=2)
        sketch.update([1, 2], [5, 5])          # sketch full
        sketch.update([10, 11, 12], [9, 7, 5])  # 3 new keys, 2 slots
        assert _estimate(sketch, 10) == 14  # evicted 5 + own 9
        assert _estimate(sketch, 11) == 12  # evicted 5 + own 7
        assert _estimate(sketch, 12) == 0.0  # coldest of the batch: dropped
        assert len(sketch) == 2

    @pytest.mark.parametrize("decayed", [False, True])
    def test_single_victim_is_the_head_of_the_eviction_order(self, decayed):
        """One fresh key takes one victim without sorting every slot; it
        must be the slot the full eviction order (``np.lexsort`` by count,
        then key) puts first — also when counts tie exactly."""
        rng = np.random.default_rng(11)
        tied = 0
        for _ in range(300):
            capacity = int(rng.integers(1, 40))
            sketch = SpaceSavingSketch(capacity)
            keys = rng.permutation(1000)[:capacity]
            # Three distinct counts over up to 39 slots: ties are the rule.
            sketch.update(keys.tolist(), rng.integers(1, 4, capacity).tolist())
            if decayed:
                sketch.scale(0.5 ** float(rng.random() * 3))
            expected = int(np.lexsort((sketch._keys, sketch._counts))[0])
            tied += int(np.count_nonzero(
                sketch._counts == sketch._counts[expected]) > 1)
            assert sketch._coldest_slot() == expected
            inherited = sketch._counts[expected] + 2
            sketch.update([5000], [2])  # a full sketch, one fresh key
            assert sketch._index[5000] == expected
            assert sketch._counts[expected] == inherited
        assert tied > 200

    def test_scale_decays_all_counters(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.update([1, 2], [8, 4])
        sketch.scale(0.5)
        assert _estimate(sketch, 1) == 4
        assert _estimate(sketch, 2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(0)
        with pytest.raises(ValueError):
            SpaceSavingSketch(4).scale(-1.0)


# --------------------------------------------------------------------------
# stats: AccessStats
# --------------------------------------------------------------------------

class TestAccessStats:
    def test_observe_accumulates_and_mean(self):
        stats = AccessStats(num_keys=100, capacity=16, half_life=1.0)
        stats.observe(np.array([1, 1, 2]))
        stats.observe(np.array([2, 3]))
        assert stats.total_observed == 5
        assert stats.lifetime_observed == 5
        assert stats.mean_frequency() == 5 / 100
        assert _estimate(stats.sketch, 1) == 2
        assert _estimate(stats.sketch, 2) == 2

    def test_small_and_large_batches_agree(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 30, size=200)
        small = AccessStats(num_keys=100, capacity=64, half_life=1.0)
        large = AccessStats(num_keys=100, capacity=64, half_life=1.0)
        for start in range(0, 200, 8):   # <= 32-key batches (dict path)
            small.observe(keys[start:start + 8])
        large.observe(keys)              # one > 32-key batch (unique path)
        for key in range(30):
            assert _estimate(small.sketch, key) == _estimate(large.sketch, key)

    def test_decay_halves_at_half_life(self):
        stats = AccessStats(num_keys=10, capacity=8, half_life=2.0)
        stats.observe(np.array([4, 4, 4, 4]))
        stats.decay_to(2.0)
        assert _estimate(stats.sketch, 4) == pytest.approx(2.0)
        assert stats.total_observed == pytest.approx(2.0)
        assert stats.lifetime_observed == 4  # undecayed
        stats.decay_to(1.0)  # time never runs backwards
        assert stats.total_observed == pytest.approx(2.0)

    def test_empty_observe_is_free(self):
        stats = AccessStats(num_keys=10)
        stats.observe(np.empty(0, dtype=np.int64))
        assert stats.lifetime_observed == 0

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    @pytest.mark.parametrize("capacity", [1, 2, 8, 512])
    def test_observe_calls_equals_the_observe_sequence(self, capacity, width,
                                                       monkeypatch):
        """The chunk entry point against the calls it stands for, bit for
        bit: 3 000 calls per cell (48 000 over the matrix) of ``width`` keys
        out of 40, each row observed twice in a row, rows with a repeated
        key, empty rows, gaps between the rows, decay in between. Capacities
        1 and 2 take more fresh keys per call than they have slots (the
        batch-overflow rule), 8 evicts all the time, 512 only fills up."""
        rng = np.random.default_rng(1000 * capacity + width)
        by_call = AccessStats(num_keys=40, capacity=capacity, half_life=0.5)
        by_chunk = AccessStats(num_keys=40, capacity=capacity, half_life=0.5)
        updates = []  # sizes of the chunk-fed sketch's ``update`` calls
        update = SpaceSavingSketch.update

        def counted(sketch, keys, counts):
            if sketch is by_chunk.sketch:
                updates.append(len(keys))
            update(sketch, keys, counts)

        monkeypatch.setattr(SpaceSavingSketch, "update", counted)
        calls = 0
        now = 0.0
        while calls < 3000:
            rows, spans = [], []
            position = 0
            for _ in range(int(rng.integers(1, 10))):
                row = rng.integers(0, 40, size=width)
                if rng.random() < 0.3:
                    row[-1] = row[0]  # a key repeated within the call
                if rng.random() < 0.1:
                    row = row[:0]     # a point without direct keys
                gap = rng.integers(0, 40, size=int(rng.integers(0, 3)))
                rows += [row, gap]    # the gap: keys nobody observes
                spans += [(position, position + len(row))] * 2
                position += len(row) + len(gap)
                for _ in range(2):
                    by_call.observe(row)
                calls += 2
            by_chunk.observe_calls(np.concatenate(rows).astype(np.int64), spans)
            if rng.random() < 0.2:
                now += float(rng.random()) * 0.3
                by_call.decay_to(now)
                by_chunk.decay_to(now)
            assert by_chunk.sketch._keys.tobytes() == by_call.sketch._keys.tobytes()
            assert by_chunk.sketch._counts.tobytes() \
                == by_call.sketch._counts.tobytes()
            assert by_chunk.sketch._index == by_call.sketch._index
            assert len(by_chunk.sketch) == len(by_call.sketch)
            assert np.float64(by_chunk.total_observed).tobytes() \
                == np.float64(by_call.total_observed).tobytes()
            assert by_chunk.lifetime_observed == by_call.lifetime_observed
        assert now > 0.0 and not float(by_call.total_observed).is_integer()
        # Both routes ran: calls of tracked, distinct keys skipped ``update``.
        assert 0 < len(updates) < calls
        if capacity < width:
            assert max(updates) > capacity


# --------------------------------------------------------------------------
# policies
# --------------------------------------------------------------------------

def _stats_with(num_keys, counts: dict, half_life=1.0):
    stats = AccessStats(num_keys=num_keys, capacity=64, half_life=half_life)
    keys = []
    for key, count in counts.items():
        keys.extend([key] * count)
    stats.observe(np.asarray(keys, dtype=np.int64))
    return stats


class TestHotSpotPolicy:
    def test_enters_above_factor_times_mean(self):
        # 100 keys, 200 observations -> mean 2; factor 10 -> threshold 20.
        stats = _stats_with(100, {1: 150, 2: 30, 3: 20})
        policy = HotSpotPolicy(factor=10.0, exit_fraction=0.5)
        plan = ManagementPlan.relocate_all(100)
        desired = policy.desired_replicated(stats, plan)
        assert desired.tolist() == [1, 2]  # 3 sits exactly at the threshold

    def test_exit_band_retains_replicated_keys(self):
        stats = _stats_with(100, {1: 150, 2: 30, 3: 15, 4: 5})
        policy = HotSpotPolicy(factor=10.0, exit_fraction=0.5)
        current = ManagementPlan(100, [3, 4])
        desired = policy.desired_replicated(stats, current)
        # 3 (15 > exit 10) survives via hysteresis, 4 (5 < 10) falls out.
        assert desired.tolist() == [1, 2, 3]

    def test_no_hysteresis_with_exit_fraction_one(self):
        stats = _stats_with(100, {1: 150, 3: 15})
        policy = HotSpotPolicy(factor=10.0, exit_fraction=1.0)
        current = ManagementPlan(100, [3])
        assert policy.desired_replicated(stats, current).tolist() == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            HotSpotPolicy(factor=0.0)
        with pytest.raises(ValueError):
            HotSpotPolicy(exit_fraction=0.0)


class TestTopKPolicy:
    def test_selects_k_hottest(self):
        stats = _stats_with(100, {1: 50, 2: 40, 3: 30, 4: 20})
        policy = TopKPolicy(k=2, slack=0.0)
        plan = ManagementPlan.relocate_all(100)
        assert policy.desired_replicated(stats, plan).tolist() == [1, 2]

    def test_rank_slack_retains_near_boundary_keys(self):
        stats = _stats_with(100, {1: 50, 2: 40, 3: 30, 4: 20})
        policy = TopKPolicy(k=2, slack=0.5)  # retain rank <= 3
        current = ManagementPlan(100, [3, 4])
        desired = policy.desired_replicated(stats, current)
        assert desired.tolist() == [1, 2, 3]  # 4 ranks below the band

    def test_k_zero_replicates_nothing(self):
        stats = _stats_with(100, {1: 50})
        policy = TopKPolicy(k=0)
        assert len(policy.desired_replicated(
            stats, ManagementPlan(100, [1]))) == 0

    def test_make_policy(self):
        assert isinstance(make_policy("hot-spot"), HotSpotPolicy)
        assert isinstance(make_policy("top-k", top_k=3), TopKPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")


# --------------------------------------------------------------------------
# controller + NuPS integration
# --------------------------------------------------------------------------

def _adaptive_nups(store, cluster, config=None, replicated=(0, 1, 2)):
    plan = ManagementPlan(store.num_keys, np.asarray(replicated))
    ps = NuPS(store, cluster, plan=plan, sync_interval=0.01, seed=3)
    config = config or AdaptiveConfig(
        policy="top-k", top_k=3, period=0.01, half_life=0.05,
        warmup_observations=10,
    )
    controller = install_adaptive(ps, config)
    return ps, controller


def _hammer(ps, cluster, keys, repeats=20):
    worker = cluster.worker(0, 0)
    batch = np.asarray(keys, dtype=np.int64)
    for _ in range(repeats):
        ps.pull(worker, batch)


class TestAdaptiveController:
    def test_nothing_happens_before_the_period(self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        _hammer(ps, cluster, [50, 51, 52])
        ps.housekeeping(0.005)  # period is 0.01
        assert controller.adaptations == 0
        assert ps.plan.replicated_keys.tolist() == [0, 1, 2]

    def test_warmup_blocks_early_adaptation(self, store, cluster):
        config = AdaptiveConfig(policy="top-k", top_k=3, period=0.01,
                                warmup_observations=10_000)
        ps, controller = _adaptive_nups(store, cluster, config)
        _hammer(ps, cluster, [50, 51, 52])
        ps.housekeeping(0.02)
        assert controller.adaptations == 0

    def test_adapts_to_observed_hot_set(self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        _hammer(ps, cluster, [50, 51, 52])
        ps.housekeeping(0.02)
        assert controller.adaptations == 1
        assert ps.plan.replicated_keys.tolist() == [50, 51, 52]
        metrics = cluster.metrics
        assert metrics.get("adaptive.adaptations") == 1
        assert metrics.get("adaptive.keys_added") == 3
        assert metrics.get("adaptive.keys_removed") == 3
        assert metrics.get("adaptive.replicas_created") == 3
        assert metrics.get("adaptive.replicas_dropped") == 3
        # Replica state was rebuilt for the new plan.
        assert ps.replica_manager.replicated_keys.tolist() == [50, 51, 52]

    def test_transition_charges_network_and_background_threads(
            self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        _hammer(ps, cluster, [50, 51, 52])
        messages_before = cluster.metrics.get("network.messages")
        ps.housekeeping(0.02)
        assert cluster.metrics.get("network.messages") > messages_before
        for node_id in range(cluster.num_nodes):
            assert cluster.node(node_id).background_clock.now >= 0.02

    @pytest.mark.parametrize("change", ["join", "leave"])
    def test_membership_change_replans_before_the_period(
            self, store, cluster, change):
        """A node arriving or departing makes the next housekeeping re-plan
        although the periodic schedule is not due, once per change."""
        ps, controller = _adaptive_nups(store, cluster)
        _hammer(ps, cluster, [50, 51, 52])
        membership = MembershipController(ps)
        if change == "join":
            membership.scale_out(0.001)
        else:
            membership.scale_in(cluster.num_nodes - 1, 0.001)
        assert controller.membership_changes == 1
        ps.housekeeping(0.005)  # period is 0.01
        assert controller.evaluations == 1
        assert controller.adaptations == 1
        assert ps.plan.replicated_keys.tolist() == [50, 51, 52]
        ps.housekeeping(0.006)
        assert controller.evaluations == 1

    def test_backlog_collapses_into_one_adaptation(self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        _hammer(ps, cluster, [50, 51, 52])
        ps.housekeeping(1.0)  # 100 periods overdue
        assert controller.adaptations == 1
        assert controller.schedule.due_count(1.0) == 0

    def test_no_transition_leaves_no_trace(self, network):
        def build(adaptive):
            cluster = Cluster(ClusterConfig(num_nodes=4, workers_per_node=2,
                                            network=network))
            store = ParameterStore(num_keys=100, value_length=4, seed=7,
                                   init_scale=0.5)
            ps = NuPS(store, cluster,
                      plan=ManagementPlan(100, np.arange(3)),
                      sync_interval=0.01, seed=3)
            if adaptive:
                install_adaptive(ps, AdaptiveConfig(
                    policy="top-k", top_k=3, period=0.01,
                    warmup_observations=10,
                ))
            _hammer(ps, cluster, [0, 1, 2])  # the hot set IS the plan
            ps.housekeeping(0.02)
            return ps, cluster

        ps_a, cluster_a = build(adaptive=True)
        ps_b, cluster_b = build(adaptive=False)
        assert ps_a.adaptive_controller.evaluations >= 1
        assert ps_a.adaptive_controller.adaptations == 0
        assert cluster_a.metrics.counters() == cluster_b.metrics.counters()
        for node_id in range(4):
            node_a, node_b = cluster_a.node(node_id), cluster_b.node(node_id)
            assert node_a.background_clock.now == node_b.background_clock.now
            assert [c.now for c in node_a.worker_clocks] == \
                [c.now for c in node_b.worker_clocks]

    def test_observer_skips_sampling_access(self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        worker = cluster.worker(0, 0)
        ps.pull_keys(worker, np.array([60, 61]))
        assert controller.stats.lifetime_observed == 0
        ps.pull(worker, np.array([60, 61]))
        assert controller.stats.lifetime_observed == 2

    def test_pull_and_push_feed_the_observer(self, store, cluster):
        ps, controller = _adaptive_nups(store, cluster)
        keys = np.array([70, 71, 72])
        deltas = np.zeros((3, store.value_length), dtype=np.float32)
        for worker in (cluster.worker(n, 0) for n in range(2)):
            ps.pull(worker, keys)
            ps.push(worker, keys, deltas)
        # Two workers x (pull + push) x 3 keys.
        assert controller.stats.lifetime_observed == 12

    def test_install_rejects_non_nups(self, cluster):
        store = ParameterStore(num_keys=10, value_length=2)
        with pytest.raises(TypeError):
            install_adaptive(ClassicPS(store, cluster), AdaptiveConfig())

    def test_install_rejects_double_attach(self, store, cluster):
        ps, _ = _adaptive_nups(store, cluster)
        with pytest.raises(RuntimeError):
            install_adaptive(ps, AdaptiveConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(policy="nope")
        with pytest.raises(ValueError):
            AdaptiveConfig(period=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(half_life=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(warmup_observations=-1)

    def test_describe_reports_adaptive_state(self, store, cluster):
        ps, _ = _adaptive_nups(store, cluster)
        description = ps.describe()
        assert description["adaptive"]["policy"]["policy"] == "top-k"
        assert description["adaptive"]["adaptations"] == 0


# --------------------------------------------------------------------------
# NuPS.remanage edge cases
# --------------------------------------------------------------------------

class TestRemanageEdgeCases:
    def test_identical_plan_is_a_noop(self, nups, cluster):
        manager_before = nups.replica_manager
        syncs_before = manager_before.syncs_performed
        replans_before = cluster.metrics.get("management.replans")
        nups.remanage(ManagementPlan(nups.store.num_keys, np.arange(5)),
                      now=1.0)
        assert nups.replica_manager is manager_before  # no rebuild
        assert manager_before.syncs_performed == syncs_before  # no flush
        assert cluster.metrics.get("management.replans") == replans_before

    def test_shrinking_mid_sync_interval_flushes_buffered_updates(
            self, nups, cluster):
        worker = cluster.worker(0, 0)
        before = nups.store.get([4])[0].copy()
        delta = np.ones((1, nups.store.value_length), dtype=np.float32)
        nups.push(worker, [4], delta)  # buffered, not yet synchronized
        np.testing.assert_array_equal(nups.store.get([4])[0], before)
        # Shrink the replica set before the 0.01s sync interval elapses;
        # key 4 leaves replication management mid-interval.
        nups.remanage(ManagementPlan(nups.store.num_keys, np.arange(4)),
                      now=0.005)
        np.testing.assert_allclose(nups.store.get([4])[0], before + 1.0,
                                   rtol=1e-6)
        assert not nups.plan.is_replicated(4)
        # The key is served by relocation now; a pull sees the merged value.
        values = nups.pull(worker, np.array([4]))
        np.testing.assert_allclose(values[0], before + 1.0, rtol=1e-6)

    def test_drift_without_oracle_refreshes_replica_values(self, nups, cluster):
        """After an un-remanaged drift, replicas serve the permuted store's
        values — the drift moves values with their logical key; it must not
        leave replicated keys serving the pre-drift parameter."""
        from repro.scenarios import Scenario, HotSetDrift
        from repro.scenarios.base import ScenarioRuntime
        from repro.runner.config import ExperimentConfig

        class _Task:
            def num_keys(self):
                return nups.store.num_keys

            def key_groups(self):
                return [(0, nups.store.num_keys)]

        scenario = Scenario("d", [HotSetDrift(oracle_remanage=False)])
        runtime = ScenarioRuntime(scenario, _Task(), nups, cluster,
                                  ExperimentConfig())
        runtime.apply_drift(0.5, oracle_remanage=False)
        assert replicas.max_divergence(nups.replica_manager) == 0.0
        worker = cluster.worker(0, 0)
        np.testing.assert_array_equal(
            nups.pull(worker, np.array([0]))[0], nups.store.get([0])[0]
        )

    def test_refresh_all_reloads_and_clears_buffers(self, nups, cluster):
        worker = cluster.worker(0, 0)
        delta = np.ones((1, nups.store.value_length), dtype=np.float32)
        nups.push(worker, [0], delta)  # buffered update + dirty slot
        nups.store.set([0], np.zeros((1, nups.store.value_length),
                                     dtype=np.float32))
        nups.replica_manager.refresh_all()
        assert replicas.max_divergence(nups.replica_manager) == 0.0
        np.testing.assert_array_equal(
            replicas.read(nups.replica_manager, 0, [0])[0],
            np.zeros(nups.store.value_length, dtype=np.float32),
        )
        # Buffers were discarded: a sync must not re-apply the old delta.
        nups.replica_manager.force_sync(1.0)
        np.testing.assert_array_equal(
            nups.store.get([0])[0],
            np.zeros(nups.store.value_length, dtype=np.float32),
        )

    def test_remanage_under_degraded_network(self, nups, cluster):
        worker = cluster.worker(0, 0)
        delta = np.ones((1, nups.store.value_length), dtype=np.float32)
        nups.push(worker, [0], delta)
        degraded = cluster.network.scaled(latency_factor=10.0,
                                          bandwidth_factor=0.1)
        cluster.set_network(degraded)
        nups.refresh_network()
        backgrounds_before = [cluster.node(n).background_clock.now
                              for n in range(cluster.num_nodes)]
        nups.remanage(ManagementPlan(nups.store.num_keys, np.arange(10)),
                      now=0.5)
        # The flush-sync was charged at degraded-network rates against every
        # node's background thread, anchored at the remanage time.
        for node_id in range(cluster.num_nodes):
            assert cluster.node(node_id).background_clock.now > \
                max(0.5, backgrounds_before[node_id])
        assert nups.replica_manager.sync_interval == 0.01
        # New replicas hold the post-flush values.
        np.testing.assert_allclose(
            replicas.read(nups.replica_manager, 0, [0])[0],
            nups.store.get([0])[0], rtol=1e-6,
        )


# --------------------------------------------------------------------------
# runner wiring
# --------------------------------------------------------------------------

def _experiment_config(scenario=None, seed=5):
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=2, chunk_size=8, seed=seed, scenario=scenario,
    )


def _fast_adaptive_config(**overrides):
    defaults = dict(policy="top-k", top_k=8, period=1e-4, half_life=1e-3,
                    warmup_observations=100)
    defaults.update(overrides)
    return AdaptiveConfig(**defaults)


def _assert_identical(first, second):
    assert first.initial_quality == second.initial_quality
    assert first.epochs_completed == second.epochs_completed
    for rec_a, rec_b in zip(first.records, second.records):
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.epoch_duration == rec_b.epoch_duration
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics
    assert first.metrics == second.metrics


class TestRunnerIntegration:
    def test_adaptive_system_factories_attach(self):
        task = make_task("matrix_factorization", scale="test")
        result = run_experiment(
            task,
            make_ps_factory(
                "nups-adaptive", adaptive_config=_fast_adaptive_config()
            ),
            _experiment_config(),
        )
        assert result.metrics.get("adaptive.adaptations", 0) >= 1

    def test_adaptive_runs_are_deterministic(self):
        def run():
            task = make_task("matrix_factorization", scale="test")
            return run_experiment(
                task,
                make_ps_factory("nups-adaptive",
                                adaptive_config=_fast_adaptive_config()),
                _experiment_config(),
            )

        _assert_identical(run(), run())

    def test_adaptive_recovers_drift_without_oracle(self):
        """The headline mechanism at test scale: adaptation fires after an
        unannounced drift and re-targets replication at new physical keys."""
        def run(adaptive):
            task = make_task("matrix_factorization", scale="test")
            plan = ManagementPlan.top_k_by_count(task.access_counts(), 8)
            scenario = make_scenario("drift", at=((1, 0),),
                                     oracle_remanage=False)
            factory = make_ps_factory(
                "nups-adaptive", plan=plan,
                adaptive_config=_fast_adaptive_config(),
            ) if adaptive else make_ps_factory("nups", plan=plan)
            return run_experiment(task, factory,
                                  _experiment_config(scenario=scenario))

        adaptive = run(adaptive=True)
        static = run(adaptive=False)
        assert adaptive.metrics.get("adaptive.adaptations", 0) >= 1
        assert adaptive.metrics.get("management.replans", 0) >= 1
        assert static.metrics.get("management.replans", 0) == 0

    def test_never_firing_controller_is_bit_transparent(self):
        """An attached controller that never transitions leaves the whole
        experiment bit-identical to plain static NuPS."""
        def run(factory):
            task = make_task("matrix_factorization", scale="test")
            return run_experiment(task, factory, _experiment_config())

        plan = ManagementPlan.top_k_by_count(
            make_task("matrix_factorization", scale="test").access_counts(), 8
        )
        static = run(make_ps_factory("nups", plan=plan))
        sleeper = run(make_ps_factory(
            "nups-adaptive", plan=plan,
            adaptive_config=_fast_adaptive_config(warmup_observations=10**9),
        ))
        _assert_identical(static, sleeper)

    def test_oracle_default_unchanged_without_flag(self):
        """drift presets keep their oracle behavior unless asked otherwise."""
        scenario = make_scenario("drift", at=((1, 0),))
        assert scenario.perturbations[0].oracle_remanage is True
        scenario = make_scenario("storm", oracle_remanage=False)
        drift = [p for p in scenario.perturbations
                 if type(p).__name__ == "HotSetDrift"][0]
        assert drift.oracle_remanage is False
