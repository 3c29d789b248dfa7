"""Tests for the single-node and classic parameter servers."""

import numpy as np
import pytest

from repro.core.sampling.distributions import UniformDistribution
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS


class TestSingleNodePS:
    def test_requires_single_node_cluster(self, store, cluster):
        with pytest.raises(ValueError):
            SingleNodePS(store, cluster)

    def test_pull_returns_store_values(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        keys = np.array([3, 7])
        np.testing.assert_array_equal(ps.pull(worker, keys), store.get(keys))

    def test_push_applies_to_store(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        before = store.get([5])[0]
        ps.push(worker, [5], np.ones((1, store.value_length), dtype=np.float32))
        np.testing.assert_allclose(store.get([5])[0], before + 1.0, rtol=1e-6)

    def test_accesses_are_local_and_cheap(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        ps.pull(worker, np.arange(10))
        metrics = single_node_cluster.metrics
        assert metrics.get("access.pull.local") == 10
        assert metrics.get("access.pull.remote") == 0
        assert worker.clock.now == pytest.approx(
            10 * single_node_cluster.network.local_access_cost
        )

    def test_default_sampling_falls_back_to_direct_access(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, store.num_keys))
        handle = ps.prepare_sample(worker, dist_id, 6)
        result = ps.pull_sample(worker, handle, 4)
        assert len(result.keys) == 4
        assert result.values.shape == (4, store.value_length)
        rest = ps.pull_sample(worker, handle)
        assert len(rest.keys) == 2
        assert handle.remaining == 0

    def test_pull_sample_over_requesting_rejected(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, store.num_keys))
        handle = ps.prepare_sample(worker, dist_id, 3)
        with pytest.raises(ValueError):
            ps.pull_sample(worker, handle, 4)

    def test_unknown_distribution_rejected(self, store, single_node_cluster):
        ps = SingleNodePS(store, single_node_cluster)
        worker = single_node_cluster.worker(0, 0)
        with pytest.raises(KeyError):
            ps.prepare_sample(worker, 42, 3)


class TestClassicPS:
    def test_pull_push_semantics(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        keys = np.array([0, 50, 99])
        values = ps.pull(worker, keys)
        np.testing.assert_array_equal(values, store.get(keys))
        ps.push(worker, keys, np.ones((3, store.value_length), dtype=np.float32))
        np.testing.assert_allclose(ps.pull(worker, keys), values + 1.0, rtol=1e-6)

    def test_local_partition_accessed_via_shared_memory(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        local_keys = ps.partitioner.keys_of(0)[:5]
        ps.pull(worker, local_keys)
        assert cluster.metrics.get("access.pull.local") == 5
        assert cluster.metrics.get("access.pull.remote") == 0

    def test_other_partitions_accessed_remotely(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        remote_keys = ps.partitioner.keys_of(3)[:5]
        ps.pull(worker, remote_keys)
        assert cluster.metrics.get("access.pull.remote") == 5
        assert cluster.metrics.get("access.pull.local") == 0
        assert cluster.metrics.get("network.messages") == 10

    def test_remote_access_costs_more_than_local(self, store, cluster):
        ps = ClassicPS(store, cluster)
        local_worker = cluster.worker(0, 0)
        remote_worker = cluster.worker(0, 1)
        ps.pull(local_worker, ps.partitioner.keys_of(0)[:5])
        ps.pull(remote_worker, ps.partitioner.keys_of(3)[:5])
        assert remote_worker.clock.now > local_worker.clock.now

    def test_remote_access_occupies_target_server(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        ps.pull(worker, ps.partitioner.keys_of(3)[:5])
        assert cluster.node(3).server_clock.now > 0
        assert cluster.node(1).server_clock.now == 0

    def test_localize_is_a_noop(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        ps.localize(worker, np.array([99]))
        assert cluster.metrics.get("relocation.count") == 0

    def test_push_validates_shapes(self, store, cluster):
        ps = ClassicPS(store, cluster)
        worker = cluster.worker(0, 0)
        with pytest.raises(ValueError):
            ps.push(worker, [0, 1], np.ones((1, store.value_length), dtype=np.float32))

    def test_sequential_consistency_across_workers(self, store, cluster):
        """Classic PS keeps exactly one copy: a write by one worker is
        immediately visible to every other worker."""
        ps = ClassicPS(store, cluster)
        writer = cluster.worker(1, 0)
        reader = cluster.worker(2, 1)
        ps.push(writer, [42], np.full((1, store.value_length), 2.0, dtype=np.float32))
        after = ps.pull(reader, [42])
        np.testing.assert_allclose(after, store.get([42]), rtol=1e-6)

    def test_describe(self, store, cluster):
        ps = ClassicPS(store, cluster)
        description = ps.describe()
        assert description["name"] == "classic"
        assert description["num_nodes"] == cluster.num_nodes
