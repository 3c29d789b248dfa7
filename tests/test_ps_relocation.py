"""Tests for the Lapse-like relocation PS."""

import numpy as np
import pytest

from repro.ps.relocation import RelocationPS


@pytest.fixture
def ps(store, cluster):
    return RelocationPS(store, cluster)


class TestInitialAllocation:
    def test_initial_owners_follow_static_partition(self, ps):
        keys = np.array([0, 33, 66, 99])
        assert np.array_equal(ps.current_owner[keys], ps.partitioner.owners(keys))

    def test_local_keys_partition_the_key_space(self, ps, cluster, store):
        all_local = np.concatenate(
            [ps.local_keys(node) for node in range(cluster.num_nodes)]
        )
        assert sorted(all_local.tolist()) == list(range(store.num_keys))


class TestLocalize:
    def test_localize_transfers_ownership(self, ps, cluster):
        worker = cluster.worker(0, 0)
        key = int(ps.partitioner.keys_of(3)[0])
        assert ps.current_owner[key] != 0
        ps.localize(worker, [key])
        assert ps.current_owner[key] == 0
        assert ps.current_owner[key] != 3

    def test_localize_already_local_key_is_free(self, ps, cluster):
        worker = cluster.worker(0, 0)
        key = int(ps.partitioner.keys_of(0)[0])
        ps.localize(worker, [key])
        assert cluster.metrics.get("relocation.count") == 0
        assert cluster.metrics.get("network.messages") == 0

    def test_localize_counts_messages(self, ps, cluster):
        worker = cluster.worker(0, 0)
        keys = ps.partitioner.keys_of(2)[:4]
        ps.localize(worker, keys)
        assert cluster.metrics.get("relocation.count") == 4
        assert cluster.metrics.get("network.messages") == 12

    def test_localize_occupies_background_thread_not_worker(self, ps, cluster):
        worker = cluster.worker(0, 0)
        keys = ps.partitioner.keys_of(2)[:4]
        ps.localize(worker, keys)
        assert worker.clock.now == 0.0
        assert cluster.node(0).background_clock.now > 0.0

    def test_relocation_disabled_makes_localize_a_noop(self, store, cluster):
        ps = RelocationPS(store, cluster, relocation_enabled=False)
        worker = cluster.worker(0, 0)
        ps.localize(worker, ps.partitioner.keys_of(2)[:4])
        assert cluster.metrics.get("relocation.count") == 0
        assert ps.current_owner[int(ps.partitioner.keys_of(2)[0])] == 2


class TestAccess:
    def test_local_access_is_cheap(self, ps, cluster):
        worker = cluster.worker(1, 0)
        keys = ps.partitioner.keys_of(1)[:3]
        ps.pull(worker, keys)
        assert cluster.metrics.get("access.pull.local") == 3
        assert worker.clock.now == pytest.approx(3 * cluster.network.local_access_cost)

    def test_remote_access_when_not_localized(self, ps, cluster):
        worker = cluster.worker(0, 0)
        keys = ps.partitioner.keys_of(3)[:3]
        ps.pull(worker, keys)
        assert cluster.metrics.get("access.pull.remote") == 3

    def test_access_after_localize_waits_for_arrival_then_is_local(self, ps, cluster):
        worker = cluster.worker(0, 0)
        key = int(ps.partitioner.keys_of(3)[0])
        ps.localize(worker, [key])
        arrival = ps.arrival_time[key]
        assert arrival > 0
        ps.pull(worker, [key])
        assert cluster.metrics.get("access.pull.local") == 1
        assert cluster.metrics.get("relocation.waits") == 1
        assert worker.clock.now >= arrival

    def test_access_after_arrival_does_not_wait(self, ps, cluster):
        worker = cluster.worker(0, 0)
        key = int(ps.partitioner.keys_of(3)[0])
        ps.localize(worker, [key])
        worker.clock.advance(1.0)  # plenty of time for the relocation
        ps.pull(worker, [key])
        assert cluster.metrics.get("relocation.waits") == 0

    def test_remote_access_to_relocated_key_takes_three_messages(self, ps, cluster):
        """Once a key moved away from home, remote access is routed through
        the home node (3 messages instead of 2)."""
        thief = cluster.worker(1, 0)
        key = int(ps.partitioner.keys_of(3)[0])
        ps.localize(thief, [key])
        before = cluster.metrics.get("network.messages")
        victim = cluster.worker(0, 0)
        ps.pull(victim, [key])
        assert cluster.metrics.get("network.messages") - before == 3

    def test_remote_access_to_home_key_takes_two_messages(self, ps, cluster):
        worker = cluster.worker(0, 0)
        key = int(ps.partitioner.keys_of(3)[0])
        ps.pull(worker, [key])
        assert cluster.metrics.get("network.messages") == 2

    def test_push_applies_regardless_of_location(self, ps, cluster, store):
        worker = cluster.worker(0, 0)
        keys = np.array([int(ps.partitioner.keys_of(0)[0]),
                         int(ps.partitioner.keys_of(3)[0])])
        before = store.get(keys)
        ps.push(worker, keys, np.ones((2, store.value_length), dtype=np.float32))
        np.testing.assert_allclose(store.get(keys), before + 1.0, rtol=1e-6)

    def test_sequential_consistency_per_key(self, ps, cluster, store):
        """A single current copy per key: writes are immediately visible."""
        writer = cluster.worker(2, 0)
        reader = cluster.worker(3, 1)
        key = 42
        ps.push(writer, [key], np.full((1, store.value_length), 3.0, dtype=np.float32))
        np.testing.assert_allclose(
            ps.pull(reader, [key]), store.get([key]), rtol=1e-6
        )


class TestHotSpotContention:
    def test_ping_pong_relocation_of_contended_key(self, ps, cluster):
        """When two nodes keep localizing the same key, each localize is a
        real relocation (the hot-spot pathology of a relocation PS)."""
        key = int(ps.partitioner.keys_of(0)[0])
        worker_a = cluster.worker(1, 0)
        worker_b = cluster.worker(2, 0)
        for _ in range(5):
            ps.localize(worker_a, [key])
            ps.localize(worker_b, [key])
        assert cluster.metrics.get("relocation.count") == 10
        assert ps.current_owner[key] == 2
