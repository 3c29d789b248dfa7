"""Tests for the simulated cluster."""

import pytest

from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel


class TestClusterConfig:
    def test_defaults_match_paper_setting(self):
        config = ClusterConfig()
        assert config.num_nodes == 8
        assert config.workers_per_node == 8

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(workers_per_node=0)


class TestCluster:
    def test_worker_contexts_cover_all_workers(self, cluster):
        workers = list(cluster.workers())
        assert len(workers) == cluster.num_nodes * cluster.workers_per_node
        identities = {(w.node_id, w.worker_id) for w in workers}
        assert len(identities) == len(workers)

    def test_worker_lookup(self, cluster):
        worker = cluster.worker(2, 1)
        assert worker.node_id == 2
        assert worker.worker_id == 1
        assert worker.global_worker_id == (2, 1)

    def test_worker_clock_identity(self, cluster):
        """The context's clock is the node's clock object (shared state)."""
        worker = cluster.worker(1, 0)
        worker.clock.advance(0.5)
        assert cluster.node(1).worker_clocks[0].now == 0.5

    def test_cluster_time_is_max_over_nodes(self, cluster):
        cluster.worker(0, 0).clock.advance(1.0)
        cluster.worker(3, 1).clock.advance(2.5)
        assert cluster.time == 2.5

    def test_node_time_includes_background_and_server(self, cluster):
        node = cluster.node(0)
        node.background_clock.advance(3.0)
        assert node.time == 3.0
        node.server_clock.advance(4.0)
        assert node.time == 4.0

    def test_network_is_shared(self, network):
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1, network=network))
        assert cluster.network is network
        assert isinstance(cluster.network, NetworkModel)


class TestFaultHooks:
    def test_fail_node_is_idempotent(self, cluster):
        """Regression: re-failing a failed node must not re-run the guards.

        With 3 of 4 nodes down, failing one of the already-failed nodes
        again used to trip the last-survivor check and raise — the
        idempotency short-circuit must come before every guard.
        """
        for node_id in (1, 2, 3):
            cluster.fail_node(node_id)
        cluster.fail_node(2)  # no-op, must not raise
        assert cluster.failed == {1, 2, 3}
        assert cluster.active_nodes == [0]

    def test_fail_node_rejects_out_of_range(self, cluster):
        with pytest.raises(ValueError, match="out of range"):
            cluster.fail_node(-1)
        with pytest.raises(ValueError, match="out of range"):
            cluster.fail_node(cluster.num_nodes)

    def test_fail_node_keeps_last_survivor(self, cluster):
        for node_id in (1, 2, 3):
            cluster.fail_node(node_id)
        with pytest.raises(ValueError, match="last surviving"):
            cluster.fail_node(0)

    def test_restore_node_rejects_out_of_range(self, cluster):
        """Regression: restore_node(-1) used to silently advance the last
        node's clocks (negative indexing into the node list)."""
        with pytest.raises(ValueError, match="out of range"):
            cluster.restore_node(-1, now=5.0)
        assert cluster.node(cluster.num_nodes - 1).time == 0.0
        with pytest.raises(ValueError, match="out of range"):
            cluster.restore_node(cluster.num_nodes, now=5.0)

    def test_restore_of_non_failed_node_is_a_noop(self, cluster):
        """Restoring a healthy node must not move its clocks."""
        cluster.restore_node(1, now=7.5)
        node = cluster.node(1)
        assert node.time == 0.0
        assert all(clock.now == 0.0 for clock in node.worker_clocks)

    def test_restore_advances_clocks_monotonically(self, cluster):
        cluster.node(1).server_clock.advance(3.0)
        cluster.fail_node(1)
        cluster.restore_node(1, now=2.0)
        # advance_to never rewinds: the server clock stays at 3.0.
        assert cluster.node(1).server_clock.now == 3.0
        assert cluster.node(1).worker_clocks[0].now == 2.0
        assert not cluster.failed


class TestMembership:
    def test_add_node_grows_cluster_and_bumps_epoch(self, cluster):
        epoch = cluster.membership_epoch
        node_id = cluster.add_node(now=1.5)
        assert node_id == 4
        assert cluster.num_nodes == 5
        assert cluster.membership_epoch == epoch + 1
        assert cluster.node(node_id).time == 1.5
        assert cluster.worker(node_id, 0).clock.now == 1.5
        assert node_id in cluster.active_nodes

    def test_remove_node_is_idempotent_and_bumps_epoch_once(self, cluster):
        epoch = cluster.membership_epoch
        cluster.remove_node(2)
        cluster.remove_node(2)
        assert cluster.membership_epoch == epoch + 1
        assert 2 in cluster.removed
        assert 2 not in cluster.active_nodes

    def test_remove_rejects_crashed_node(self, cluster):
        cluster.fail_node(2)
        with pytest.raises(ValueError, match="crashed"):
            cluster.remove_node(2)

    def test_removed_node_cannot_crash_or_rejoin(self, cluster):
        cluster.remove_node(3)
        with pytest.raises(ValueError, match="removed"):
            cluster.fail_node(3)
        with pytest.raises(ValueError, match="never"):
            cluster.restore_node(3)

    def test_keeps_last_active_node(self, cluster):
        for node_id in (1, 2, 3):
            cluster.remove_node(node_id)
        with pytest.raises(ValueError, match="last active"):
            cluster.remove_node(0)
