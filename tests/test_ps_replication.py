"""Tests for the Petuum-like replication PS (SSP / ESSP)."""

import numpy as np
import pytest

from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, ClusterConfig
from scalar_oracle import oracle_of


def make_ps(store, cluster, protocol=ReplicationProtocol.SSP, staleness=1):
    return ReplicationPS(store, cluster, protocol=protocol, staleness=staleness)


def advance_all_workers(ps, cluster, node_id):
    """Advance the clock of every worker on a node (triggers a node flush)."""
    for worker_id in range(cluster.workers_per_node):
        ps.advance_clock(cluster.worker(node_id, worker_id))


class TestBasics:
    def test_rejects_negative_staleness(self, store, cluster):
        with pytest.raises(ValueError):
            ReplicationPS(store, cluster, staleness=-1)

    def test_name_reflects_protocol(self, store, cluster):
        assert make_ps(store, cluster, ReplicationProtocol.SSP).name == "replication-ssp"
        assert make_ps(store, cluster, ReplicationProtocol.ESSP).name == "replication-essp"

    def test_pull_returns_current_value_on_first_access(self, store, cluster):
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        np.testing.assert_array_equal(ps.pull(worker, [10]), store.get([10]))

    def test_first_access_creates_replica(self, store, cluster):
        ps = make_ps(store, cluster)
        ps.pull(cluster.worker(0, 0), [10, 11])
        assert ps._nodes[0].replica_mask.count_nonzero() == 2
        assert ps._nodes[1].replica_mask.count_nonzero() == 0


class TestWriteVisibility:
    def test_own_writes_visible_locally_before_flush(self, store, cluster):
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        before = ps.pull(worker, [5]).copy()
        ps.push(worker, [5], np.ones((1, store.value_length), dtype=np.float32))
        np.testing.assert_allclose(ps.pull(worker, [5]), before + 1.0, rtol=1e-6)

    def test_writes_not_in_global_store_before_flush(self, store, cluster):
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        before = store.get([5])[0].copy()
        ps.push(worker, [5], np.ones((1, store.value_length), dtype=np.float32))
        np.testing.assert_array_equal(store.get([5])[0], before)

    def test_flush_propagates_updates_to_store(self, store, cluster):
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        before = store.get([5])[0].copy()
        ps.push(worker, [5], np.ones((1, store.value_length), dtype=np.float32))
        advance_all_workers(ps, cluster, 0)
        np.testing.assert_allclose(store.get([5])[0], before + 1.0, rtol=1e-6)

    def test_finish_epoch_flushes_all_nodes(self, store, cluster):
        ps = make_ps(store, cluster)
        before = store.get([5])[0].copy()
        ps.push(cluster.worker(0, 0), [5], np.ones((1, store.value_length), dtype=np.float32))
        ps.push(cluster.worker(2, 1), [5], np.ones((1, store.value_length), dtype=np.float32))
        ps.finish_epoch()
        np.testing.assert_allclose(store.get([5])[0], before + 2.0, rtol=1e-6)

    def test_flush_only_after_all_workers_clock(self, store, cluster):
        """The node clock is the slowest worker; flushing waits for it."""
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        before = store.get([5])[0].copy()
        ps.push(worker, [5], np.ones((1, store.value_length), dtype=np.float32))
        ps.advance_clock(worker)  # only one of two workers has clocked
        np.testing.assert_array_equal(store.get([5])[0], before)


class TestStaleness:
    def test_stale_replica_is_refreshed_on_pull(self, store, cluster):
        ps = make_ps(store, cluster, staleness=1)
        reader = cluster.worker(0, 0)
        writer = cluster.worker(1, 0)
        ps.pull(reader, [7])  # create replica at node 0
        ps.push(writer, [7], np.ones((1, store.value_length), dtype=np.float32))
        advance_all_workers(ps, cluster, 1)  # writer's update reaches the store

        # Within the staleness bound the reader still sees the old value.
        stale = ps.pull(reader, [7])
        # Advance the reader's clocks beyond the staleness bound; the next
        # pull must refresh from the store and see the update.
        for _ in range(3):
            advance_all_workers(ps, cluster, 0)
        fresh = ps.pull(reader, [7])
        np.testing.assert_allclose(fresh, stale + 1.0, rtol=1e-6)

    def test_stale_refresh_is_remote(self, store, cluster):
        ps = make_ps(store, cluster, staleness=0)
        reader = cluster.worker(0, 0)
        remote_key = int(ps.partitioner.keys_of(3)[0])
        ps.pull(reader, [remote_key])
        assert cluster.metrics.get("access.pull.remote") == 1
        # With staleness 0 and no clock advance the replica stays usable at
        # the same clock; re-pulling does not pay remote again.
        ps.pull(reader, [remote_key])
        assert cluster.metrics.get("access.pull.remote") == 1


class TestESSP:
    def test_eager_refresh_keeps_replicas_warm(self, store, cluster):
        ps = make_ps(store, cluster, ReplicationProtocol.ESSP, staleness=1)
        reader = cluster.worker(0, 0)
        writer = cluster.worker(1, 0)
        ps.pull(reader, [7])
        ps.push(writer, [7], np.ones((1, store.value_length), dtype=np.float32))
        advance_all_workers(ps, cluster, 1)  # writer flush
        advance_all_workers(ps, cluster, 0)  # reader node eager refresh
        refreshed = ps.pull(reader, [7])
        np.testing.assert_allclose(refreshed, store.get([7]), rtol=1e-6)

    def test_eager_refresh_costs_grow_with_replica_count(self, store, cluster):
        ps = make_ps(store, cluster, ReplicationProtocol.ESSP, staleness=1)
        worker = cluster.worker(0, 0)
        ps.pull(worker, np.arange(40))
        advance_all_workers(ps, cluster, 0)
        bytes_few = cluster.metrics.get("network.bytes")
        ps.pull(worker, np.arange(40, 90))
        advance_all_workers(ps, cluster, 0)
        bytes_many = cluster.metrics.get("network.bytes") - bytes_few
        assert bytes_many > bytes_few

    def test_eager_refresh_occupies_servers(self, store, cluster):
        ps = make_ps(store, cluster, ReplicationProtocol.ESSP, staleness=1)
        worker = cluster.worker(0, 0)
        remote_keys = ps.partitioner.keys_of(2)[:10]
        ps.pull(worker, remote_keys)
        advance_all_workers(ps, cluster, 0)
        assert cluster.node(2).server_clock.now > 0


class TestCosts:
    def test_local_server_access_uses_intra_process_messaging(self, store, cluster):
        """Petuum reaches even the co-located server via messages, which is
        slower than NuPS/Lapse shared-memory access (Section 5.4)."""
        ps = make_ps(store, cluster)
        worker = cluster.worker(0, 0)
        local_key = int(ps.partitioner.keys_of(0)[0])
        ps.pull(worker, [local_key])
        assert worker.clock.now > cluster.network.local_access_cost


class TestReplicaClockIsGatedByTheMask:
    """Every read of ``replica_clock`` sits behind ``replica_mask``: the clock
    of a key without a replica is never looked at, so it may start at 0 (an
    untouched page on the sparse backend) instead of a "never" sentinel."""

    @staticmethod
    def _run(protocol, fold, poison):
        store = ParameterStore(num_keys=300, value_length=4, seed=7,
                               init_scale=0.5)
        cluster = Cluster(ClusterConfig(num_nodes=4, workers_per_node=2))
        ps = ReplicationPS(store, cluster, protocol=protocol, staleness=1)
        if not fold:
            oracle_of(ps)
        rng = np.random.default_rng(3)

        def poison_unreplicated():
            if poison:
                for state in ps._nodes.values():
                    # Dense columns: a pool is the whole array.
                    state.replica_clock.pool[~state.replica_mask.pool] = 2**40

        for _ in range(5):
            for worker in cluster.workers():
                for size in (3, 100):  # the small-batch and the masked paths
                    keys = rng.integers(0, 300, size=size)
                    deltas = rng.normal(size=(size, 4)).astype(np.float32)
                    poison_unreplicated()
                    ps.pull(worker, keys)
                    poison_unreplicated()
                    ps.push(worker, keys, deltas)
                charger = ps.direct_point_charger()
                if charger is not None:  # the production round path
                    poison_unreplicated()
                    charger.charge_chunk(
                        worker, rng.integers(0, 300, size=(6, 2)).ravel(),
                        point_calls([2] * 6, [0] * 6, [1e-5] * 6))
                    for lo in range(0, 12, 2):
                        charger.add(lo, lo + 2, 0.1 * charger.read(lo, lo + 2))
                    charger.finish()
                poison_unreplicated()
                ps.advance_clock(worker)
        poison_unreplicated()
        recovered, found = ps.recover_values(np.arange(300))
        ps.finish_epoch()
        nodes = [cluster.node(node_id) for node_id in range(4)]
        every = np.arange(300)
        return {
            "clocks": [worker.clock.now for worker in cluster.workers()]
            + [node.server_clock.now for node in nodes]
            + [node.background_clock.now for node in nodes],
            "metrics": cluster.metrics.counters(),
            "values": store.get(every).tobytes(),
            "versions": store.read_versions(every).tobytes(),
            "recovered": (recovered.tobytes(), found.tobytes()),
            "replicas": [
                (state.replica_mask.take(every).tobytes(),
                 state.replica_clock.take(every)[
                     state.replica_mask.take(every)].tobytes(),
                 state.replica_values.take(every).tobytes())
                for state in ps._nodes.values()],
        }

    @pytest.mark.parametrize("fold", [True, False])
    @pytest.mark.parametrize("protocol", list(ReplicationProtocol))
    def test_poisoned_clocks_of_unreplicated_keys_change_nothing(
            self, protocol, fold):
        clean = self._run(protocol, fold, poison=False)
        assert clean == self._run(protocol, fold, poison=True)
        assert clean["metrics"]["access.pull.remote"] > 0
