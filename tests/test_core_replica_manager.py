"""Tests for eager replication with time-based staleness."""

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.replica_manager import ReplicaManager
from replicas import add, max_divergence, read


@pytest.fixture
def plan(store):
    return ManagementPlan(store.num_keys, [0, 1, 2, 3, 4])


@pytest.fixture
def manager(store, cluster, plan):
    return ReplicaManager(store, cluster, plan, sync_interval=0.01)


class TestConstruction:
    def test_slot_mapping(self, manager):
        assert manager.slots(np.array([0, 4, 50])).tolist() == [0, 4, -1]

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
                read(manager, node, np.arange(5)), store.get(np.arange(5))
            )


class TestPushPull:
    def test_push_visible_on_own_node_only(self, manager, store):
        delta = np.ones((1, store.value_length), dtype=np.float32)
        before = read(manager, 0, np.array([2])).copy()
        add(manager, 0, np.array([2]), delta)
        np.testing.assert_allclose(read(manager, 0, np.array([2])), before + 1.0, rtol=1e-6)
        np.testing.assert_array_equal(read(manager, 1, np.array([2])), before)

    def test_slot_access_is_pull_and_push_by_slot(self, manager, store):
        """``add_slots`` accumulates repeated slots in order in the replica
        and the update buffer and marks exactly those slots dirty;
        ``read_slots`` returns the rows at the given slots."""
        slots = manager.slots(np.array([4, 1, 4]))
        deltas = np.arange(3 * store.value_length, dtype=np.float32) \
            .reshape(3, store.value_length)
        before = manager._replicas[0].copy()
        manager.add_slots(0, slots, deltas)
        expected = before.copy()
        expected[4] += deltas[0] + deltas[2]
        expected[1] += deltas[1]
        np.testing.assert_array_equal(manager._replicas[0], expected)
        np.testing.assert_array_equal(manager._buffers[0], expected - before)
        assert manager._dirty[0].tolist() == [False, True, False, False, True]
        np.testing.assert_array_equal(manager.read_slots(0, slots),
                                      expected[[4, 1, 4]])
        np.testing.assert_array_equal(manager._replicas[1], before)

    def test_push_not_in_store_before_sync(self, manager, store):
        before = store.get([2])[0].copy()
        add(manager, 0, np.array([2]), np.ones((1, store.value_length), dtype=np.float32))
        np.testing.assert_array_equal(store.get([2])[0], before)


class TestSync:
    def test_sync_merges_all_nodes_updates(self, manager, store):
        delta = np.ones((1, store.value_length), dtype=np.float32)
        before = store.get([3])[0].copy()
        add(manager, 0, np.array([3]), delta)
        add(manager, 1, np.array([3]), 2 * delta)
        manager.force_sync()
        np.testing.assert_allclose(store.get([3])[0], before + 3.0, rtol=1e-6)
        # After the sync every replica agrees with the store.
        assert max_divergence(manager) == pytest.approx(0.0, abs=1e-6)

    def test_sync_is_idempotent_without_new_updates(self, manager, store):
        add(manager, 0, np.array([3]), np.ones((1, store.value_length), dtype=np.float32))
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
            add(manager, node, np.array([key]), delta)
            expected[key] += delta[0]
            if step % 7 == 0:
                manager.force_sync()
        manager.force_sync()
        np.testing.assert_allclose(store.get(np.arange(5)), expected, rtol=1e-4, atol=1e-4)

    def test_sync_clears_buffers_and_dirty_masks(self, manager, store):
        add(manager, 0, np.array([1]), np.ones((1, store.value_length), dtype=np.float32))
        add(manager, 2, np.array([3]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        for node in range(manager.cluster.num_nodes):
            assert not manager._dirty[node].any()
            assert not manager._buffers[node].any()

    def test_syncs_at_the_target_frequency(self, manager):
        """Polled every millisecond for 0.1 s, a 100 Hz schedule syncs ten
        times when each sync is cheap."""
        for step in range(1, 101):
            manager.maybe_sync(step * 0.001)
        assert manager.syncs_performed == 10

    def test_force_sync_is_free_when_nothing_is_replicated(self, store, cluster):
        manager = ReplicaManager(store, cluster, ManagementPlan.relocate_all(store.num_keys))
        manager.force_sync(1.0)
        assert manager.syncs_performed == 0
        assert cluster.metrics.counters() == {}
        assert all(node.background_clock.now == 0.0 for node in cluster.nodes)

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
        add(manager, 0, np.array([0]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        for node in range(cluster.num_nodes):
            assert cluster.node(node).background_clock.now > 0

    def test_drop_node_drains_its_buffered_updates(self, manager, store):
        before = store.get([2])[0].copy()
        add(manager, 1, np.array([2]), np.ones((1, store.value_length), dtype=np.float32))
        assert manager.drop_node(1) == 1
        np.testing.assert_allclose(store.get([2])[0], before + 1.0, rtol=1e-6)
        assert 1 not in manager._replicas
        assert manager.drop_node(1) == 0

    def test_seed_node_copies_the_store_with_empty_buffers(self, manager, store):
        add(manager, 0, np.array([2]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        manager.seed_node(3)
        np.testing.assert_array_equal(read(manager, 3, np.arange(5)),
                                      store.get(np.arange(5)))
        assert not manager._buffers[3].any()
        assert not manager._dirty[3].any()

    def test_sparse_sync_only_counts_dirty_keys(self, manager, cluster, store):
        add(manager, 0, np.array([0]), np.ones((1, store.value_length), dtype=np.float32))
        manager.force_sync()
        assert cluster.metrics.get("replica.sync_bytes") == store.value_bytes()
