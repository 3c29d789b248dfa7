"""Tests for NuPS: multi-technique management and the integrated sampling API."""

import numpy as np

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UniformDistribution
from repro.ps.base import SampleHandle
from repro.ps.rounds import point_calls


class TestManagementIntegration:
    def test_replicated_keys_are_always_local(self, nups, cluster):
        for node in range(cluster.num_nodes):
            for key in range(5):
                assert nups.key_is_local(node, key)

    def test_relocated_keys_follow_ownership(self, nups, cluster):
        key = int(nups.partitioner.keys_of(2)[10])
        assert nups.key_is_local(2, key)
        assert not nups.key_is_local(0, key)

    def test_pull_splits_between_replica_and_relocation(self, nups, cluster):
        worker = cluster.worker(0, 0)
        keys = np.array([0, 1, 50, 99])
        values = nups.pull(worker, keys)
        assert values.shape == (4, nups.store.value_length)
        assert cluster.metrics.get("access.pull.replica.local") == 2
        remote_plus_local = (cluster.metrics.get("access.pull.remote")
                             + cluster.metrics.get("access.pull.local"))
        assert remote_plus_local == 2

    def test_pull_preserves_key_order(self, nups, cluster):
        worker = cluster.worker(0, 0)
        keys = np.array([50, 0, 99, 1])
        values = nups.pull(worker, keys)
        replicas = nups.replica_manager
        hot = replicas.read_slots(0, replicas.slots(np.array([0, 1])))
        expected = np.stack([
            nups.store.get([50])[0], hot[0], nups.store.get([99])[0], hot[1],
        ])
        np.testing.assert_allclose(values, expected, rtol=1e-6)

    def test_push_to_replicated_key_is_deferred_until_sync(self, nups, cluster):
        worker = cluster.worker(0, 0)
        before = nups.store.get([0])[0].copy()
        nups.push(worker, [0], np.ones((1, nups.store.value_length), dtype=np.float32))
        np.testing.assert_array_equal(nups.store.get([0])[0], before)
        nups.finish_epoch()
        np.testing.assert_allclose(nups.store.get([0])[0], before + 1.0, rtol=1e-6)

    def test_push_to_relocated_key_is_immediate(self, nups, cluster):
        worker = cluster.worker(0, 0)
        before = nups.store.get([50])[0].copy()
        nups.push(worker, [50], np.ones((1, nups.store.value_length), dtype=np.float32))
        np.testing.assert_allclose(nups.store.get([50])[0], before + 1.0, rtol=1e-6)

    def test_localize_skips_replicated_keys(self, nups, cluster):
        worker = cluster.worker(0, 0)
        nups.localize(worker, np.array([0, 1, 2]))
        assert cluster.metrics.get("relocation.count") == 0

    def test_localize_relocates_long_tail_keys(self, nups, cluster):
        worker = cluster.worker(0, 0)
        key = int(nups.partitioner.keys_of(3)[5])
        nups.localize(worker, np.array([key]))
        assert nups.key_is_local(0, key)
        assert cluster.metrics.get("relocation.count") == 1

    def test_advance_clock_is_a_noop(self, nups, cluster):
        """NuPS uses time-based staleness; no clock operations are needed."""
        worker = cluster.worker(0, 0)
        nups.advance_clock(worker)
        assert worker.clock.now == 0.0

    def test_housekeeping_runs_replica_sync(self, nups, cluster):
        worker = cluster.worker(0, 0)
        nups.push(worker, [0], np.ones((1, nups.store.value_length), dtype=np.float32))
        nups.housekeeping(now=1.0)
        assert cluster.metrics.get("replica.syncs") >= 1

    def test_replica_updates_from_all_nodes_merge(self, nups, cluster):
        before = nups.store.get([0])[0].copy()
        delta = np.ones((1, nups.store.value_length), dtype=np.float32)
        nups.push(cluster.worker(0, 0), [0], delta)
        nups.push(cluster.worker(1, 0), [0], delta)
        nups.push(cluster.worker(2, 0), [0], delta)
        nups.finish_epoch()
        np.testing.assert_allclose(nups.store.get([0])[0], before + 3.0, rtol=1e-6)

    def test_from_access_counts_factory(self, store, cluster):
        counts = np.ones(store.num_keys)
        counts[13] = 1e6
        plan = ManagementPlan.from_access_counts(counts, hot_spot_factor=10.0)
        ps = NuPS(store, cluster, plan=plan)
        assert ps.plan.replicated_keys.tolist() == [13]
        assert all(ps.key_is_local(node, 13) for node in range(cluster.num_nodes))

    def test_replica_access_share(self, nups, cluster):
        """Half of a push to two hot and two long-tail keys is served by
        replicas."""
        worker = cluster.worker(0, 0)
        nups.push(worker, [0, 1, 50, 51],
                  np.ones((4, nups.store.value_length), dtype=np.float32))
        metrics = cluster.metrics
        assert metrics.get("access.push.replica.local") == 2
        assert metrics.get("access.push.local") + metrics.get("access.push.remote") == 2

    def test_describe_includes_plan(self, nups):
        description = nups.describe()
        assert description["num_replicated"] == 5
        assert description["integrate_sampling"] is True


class TestSingleTechniqueReduction:
    def test_no_replication_means_no_sync_messages(self, store, cluster):
        """NuPS reduces to a relocation-only PS without overhead when no key
        is replicated (Section 3.2)."""
        ps = NuPS(store, cluster, plan=ManagementPlan.relocate_all(store.num_keys))
        ps.housekeeping(now=100.0)
        ps.finish_epoch()
        assert cluster.metrics.get("replica.syncs") == 0
        assert cluster.metrics.get("replica.sync_bytes") == 0

    def test_all_replicated_means_no_relocations(self, store, cluster):
        ps = NuPS(store, cluster, plan=ManagementPlan(
            store.num_keys, np.arange(store.num_keys)))
        worker = cluster.worker(0, 0)
        ps.localize(worker, np.arange(store.num_keys))
        ps.pull(worker, np.arange(0, store.num_keys, 7))
        assert cluster.metrics.get("relocation.count") == 0
        assert cluster.metrics.get("access.pull.remote") == 0


class TestSamplingIntegration:
    def test_sampling_api_round_trip(self, nups, cluster):
        worker = cluster.worker(1, 0)
        dist_id = nups.register_distribution(
            UniformDistribution(0, nups.store.num_keys), ConformityLevel.BOUNDED
        )
        handle = nups.prepare_sample(worker, dist_id, 12)
        assert isinstance(handle, SampleHandle)
        result = nups.pull_sample(worker, handle, 5)
        assert len(result.keys) == 5
        rest = nups.pull_sample(worker, handle)
        assert len(rest.keys) == 7

    def test_push_sample_routes_through_management(self, nups, cluster):
        worker = cluster.worker(0, 0)
        keys = np.array([0, 50])
        before_store = nups.store.get([50])[0].copy()
        nups.push_sample(worker, keys, np.ones((2, nups.store.value_length), dtype=np.float32))
        # Relocated key updated immediately, replicated key deferred.
        np.testing.assert_allclose(nups.store.get([50])[0], before_store + 1.0, rtol=1e-6)
        assert cluster.metrics.get("access.sample_push.replica.local") == 1

    def test_sampling_disabled_falls_back_to_application_side(self, store, cluster):
        """The ablation variant (Section 5.3) draws independent samples and
        accesses them via direct access, without PS support."""
        ps = NuPS(store, cluster, plan=ManagementPlan(store.num_keys, [0]),
                  integrate_sampling=False)
        worker = cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, store.num_keys),
                                           ConformityLevel.NON_CONFORM)
        handle = ps.prepare_sample(worker, dist_id, 10)
        result = ps.pull_sample(worker, handle)
        assert len(result.keys) == 10
        # No sampling-manager bookkeeping took place.
        assert cluster.metrics.get("relocation.sampling") == 0

    def test_application_side_samples_count_as_direct_access(self, store,
                                                            cluster):
        """Without integrated sampling, a sample pull counts as a pull and
        a sample push as a push, on the per-call path and on the fold."""
        ps = NuPS(store, cluster, plan=ManagementPlan(store.num_keys, [0]),
                  integrate_sampling=False)
        worker = cluster.worker(0, 0)
        dist_id = ps.register_distribution(
            UniformDistribution(0, store.num_keys), ConformityLevel.NON_CONFORM)
        deltas = np.ones((10, store.value_length), dtype=np.float32)
        result = ps.pull_sample(worker, ps.prepare_sample(worker, dist_id, 10))
        ps.push_sample(worker, result.keys, deltas)
        charger = ps.direct_point_charger(dist_id)
        keys = charger.take_samples(ps.prepare_sample(worker, dist_id, 10))
        charger.charge_chunk(worker, keys, point_calls([0], [10], [0.0]))
        charger.add(0, 10, deltas)
        charger.finish()

        def total(kind):
            return sum(count for name, count in
                       cluster.metrics.counters().items()
                       if name.startswith(f"access.{kind}."))

        assert total("pull") == total("push") == 20
        assert total("sample") == total("sample_push") == 0

    def test_local_support_keys_includes_replicated_and_owned(self, nups, cluster):
        distribution = UniformDistribution(0, nups.store.num_keys)
        local = set(nups.local_support_keys(2, distribution).tolist())
        # Replicated keys are local everywhere.
        assert {0, 1, 2, 3, 4} <= local
        # Keys owned by node 2's partition are local to node 2.
        assert set(nups.partitioner.keys_of(2).tolist()) <= local
        # Keys owned by other nodes (and not replicated) are not.
        foreign = set(nups.partitioner.keys_of(3).tolist()) - {0, 1, 2, 3, 4}
        assert foreign.isdisjoint(local)

    def test_recent_direct_access_keys_tracks_relocated_pulls_only(self, nups, cluster):
        worker = cluster.worker(0, 0)
        nups.pull(worker, np.array([0, 1, 50, 60]))
        recent = set(nups.recent_direct_access_keys(0).tolist())
        assert recent == {50, 60}

    def test_sampling_rng_is_per_node(self, nups):
        assert nups.sampling_rng(0) is not nups.sampling_rng(1)


class TestStalenessBehaviour:
    def test_nodes_see_own_replica_updates_before_sync(self, nups, cluster):
        worker_a = cluster.worker(0, 0)
        worker_b = cluster.worker(1, 0)
        delta = np.ones((1, nups.store.value_length), dtype=np.float32)
        base = nups.pull(worker_b, [0]).copy()
        nups.push(worker_a, [0], delta)
        # Node 0 sees its own write, node 1 does not (bounded staleness).
        np.testing.assert_allclose(nups.pull(worker_a, [0]), base + 1.0, rtol=1e-6)
        np.testing.assert_allclose(nups.pull(worker_b, [0]), base, rtol=1e-6)
        # After a sync both agree.
        nups.replica_manager.force_sync()
        np.testing.assert_allclose(nups.pull(worker_b, [0]), base + 1.0, rtol=1e-6)
