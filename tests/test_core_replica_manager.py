"""Tests for eager replication with time-based staleness."""

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.replica_manager import ReplicaManager


@pytest.fixture
def plan(store):
    return ManagementPlan(store.num_keys, [0, 1, 2, 3, 4])


@pytest.fixture
def manager(store, cluster, plan):
    return ReplicaManager(store, cluster, plan, sync_interval=0.01)


class TestConstruction:
    def test_slot_mapping(self, manager):
        assert manager.slot(0) == 0
        assert manager.slot(4) == 4
        assert manager.slot(50) == -1

    def test_disabled_when_nothing_replicated(self, store, cluster):
        manager = ReplicaManager(store, cluster, ManagementPlan.relocate_all(store.num_keys))
        assert not manager.enabled
        assert not manager.schedule.enabled
        assert manager.maybe_sync(100.0) == 0

    def test_sync_interval_none_disables_schedule(self, store, cluster, plan):
        manager = ReplicaManager(store, cluster, plan, sync_interval=None)
        assert not manager.schedule.enabled

    def test_invalid_sync_interval_rejected(self, store, cluster, plan):
        with pytest.raises(ValueError):
            ReplicaManager(store, cluster, plan, sync_interval=0.0)

    def test_plan_store_mismatch_rejected(self, store, cluster):
        with pytest.raises(ValueError):
            ReplicaManager(store, cluster, ManagementPlan(store.num_keys + 1, []))

    def test_initial_replicas_match_store(self, manager, store):
        for node in range(manager.cluster.num_nodes):
            np.testing.assert_array_equal(
                manager.pull(node, np.arange(5)), store.get(np.arange(5))
            )


class TestPushPull:
    def test_push_visible_on_own_node_only(self, manager, store):
        delta = np.ones((1, store.value_length), dtype=np.float32)
        before = manager.pull(0, np.array([2])).copy()
        manager.push(0, np.array([2]), delta)
        np.testing.assert_allclose(manager.pull(0, np.array([2])), before + 1.0, rtol=1e-6)
        np.testing.assert_array_equal(manager.pull(1, np.array([2])), before)

    def test_push_not_in_store_before_sync(self, manager, store):
        before = store.get([2])[0].copy()
        manager.push(0, np.array([2]), np.ones((1, store.value_length), dtype=np.float32))
        np.testing.assert_array_equal(store.get([2])[0], before)

    def test_slot_access_is_pull_and_push_by_slot(self, manager, store, cluster, plan):
        """``read_slots``/``add_slots`` after one ``slots`` lookup leave the
        replica, the update buffer and the dirty mask exactly as the
        key-addressed calls do, repeated slots included."""
        twin = ReplicaManager(store, cluster, plan, sync_interval=0.01)
        keys = np.array([4, 1, 4])
        deltas = np.arange(3 * store.value_length, dtype=np.float32) \
            .reshape(3, store.value_length)
        slots = manager.slots(keys)
        assert np.array_equal(manager.read_slots(0, slots), twin.pull(0, keys))
        manager.add_slots(0, slots, deltas)
        twin.push(0, keys, deltas)
        for name in ("_replicas", "_buffers", "_dirty"):
            for node in getattr(twin, name):
                assert np.array_equal(getattr(manager, name)[node],
                                      getattr(twin, name)[node])
        assert manager._dirty[0].tolist() == [False, True, False, False, True]

    def test_non_replicated_key_rejected(self, manager, store):
        with pytest.raises(KeyError):
            manager.pull(0, np.array([50]))
        with pytest.raises(KeyError):
            manager.push(0, np.array([50]), np.ones((1, store.value_length), dtype=np.float32))


class TestSync:
    def test_sync_merges_all_nodes_updates(self, manager, store):
        delta = np.ones((1, store.value_length), dtype=np.float32)
        before = store.get([3])[0].copy()
        manager.push(0, np.array([3]), delta)
        manager.push(1, np.array([3]), 2 * delta)
        manager.force_sync()
        np.testing.assert_allclose(store.get([3])[0], before + 3.0, rtol=1e-6)
        # After the sync every replica agrees with the store.
        assert manager.max_replica_divergence() == pytest.approx(0.0, abs=1e-6)

    def test_sync_is_idempotent_without_new_updates(self, manager, store):
        manager.push(0, np.array([3]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        after_first = store.get([3])[0].copy()
        manager.force_sync()
        np.testing.assert_array_equal(store.get([3])[0], after_first)

    def test_updates_survive_interleaved_pushes_and_syncs(self, manager, store):
        """The sum of all pushed deltas ends up in the store exactly once."""
        rng = np.random.default_rng(0)
        expected = store.get(np.arange(5)).astype(np.float64)
        for step in range(20):
            node = step % manager.cluster.num_nodes
            key = step % 5
            delta = rng.normal(size=(1, store.value_length)).astype(np.float32)
            manager.push(node, np.array([key]), delta)
            expected[key] += delta[0]
            if step % 7 == 0:
                manager.force_sync()
        manager.force_sync()
        np.testing.assert_allclose(store.get(np.arange(5)), expected, rtol=1e-4, atol=1e-4)

    def test_maybe_sync_respects_interval(self, manager):
        assert manager.maybe_sync(0.005) == 0
        assert manager.maybe_sync(0.011) == 1
        assert manager.syncs_performed == 1

    def test_maybe_sync_does_not_burst_when_behind(self, manager):
        """A long gap triggers at most the rounds the thread can actually run."""
        performed = manager.maybe_sync(10.0)
        assert performed >= 1
        # The schedule's busy-until advanced; an immediate re-check adds nothing.
        assert manager.maybe_sync(10.0) == 0

    def test_sync_charges_background_clocks(self, manager, cluster, store):
        manager.push(0, np.array([0]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        for node in range(cluster.num_nodes):
            assert cluster.node(node).background_clock.now > 0

    def test_sparse_sync_only_counts_dirty_keys(self, manager, cluster, store):
        manager.push(0, np.array([0]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        assert cluster.metrics.get("replica.sync_bytes") == store.value_bytes()

    def test_achieved_frequency_reporting(self, manager):
        manager.force_sync(0.0)
        manager.force_sync(0.01)
        assert manager.achieved_sync_frequency(0.02) == pytest.approx(100.0)
        assert manager.target_sync_frequency() == pytest.approx(100.0)

    def test_target_frequency_zero_when_disabled(self, store, cluster):
        manager = ReplicaManager(store, cluster, ManagementPlan.relocate_all(store.num_keys))
        assert manager.target_sync_frequency() == 0.0
