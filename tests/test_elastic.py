"""Tests for elastic membership and partition tolerance (repro.elastic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.elastic import PartitionState
from repro.core.sampling.distributions import UniformDistribution
from repro.faults import FaultConfig, MembershipController, PartitionedOwnerError
from repro.ps.base import SampleHandle
from repro.ps.classic import ClassicPS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import (
    SCENARIO_PRESETS,
    AutoscaleStorm,
    Perturbation,
    ScaleIn,
    Scenario,
    ScenarioParameterServer,
    make_scenario,
)
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel

NUM_KEYS = 60
VALUE_LENGTH = 2


def _network() -> NetworkModel:
    return NetworkModel(latency=10e-6, bandwidth=1e9,
                        message_handling_cost=1e-6, local_access_cost=1e-7,
                        compute_per_step=20e-6)


def _cluster(num_nodes=3, workers_per_node=2) -> Cluster:
    return Cluster(ClusterConfig(num_nodes=num_nodes,
                                 workers_per_node=workers_per_node,
                                 network=_network()))


def _build(kind="classic", num_nodes=3):
    cluster = _cluster(num_nodes=num_nodes)
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=3, init_scale=0.1)
    if kind == "classic":
        ps = ClassicPS(store, cluster)
    elif kind == "relocation":
        ps = RelocationPS(store, cluster)
    elif kind == "replication":
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.ESSP,
                           staleness=2)
    else:  # pragma: no cover
        raise ValueError(kind)
    return ps, cluster, store


def _ownership_covers_active(ps, cluster):
    owned = [np.asarray(ps.keys_owned_by(n), dtype=np.int64)
             for n in cluster.active_nodes]
    np.testing.assert_array_equal(
        np.sort(np.concatenate(owned)), np.arange(ps.store.num_keys)
    )


# ------------------------------------------------- joins and planned leaves
class TestScaleOut:
    @pytest.mark.parametrize("kind", ["classic", "relocation", "replication"])
    def test_new_node_takes_over_key_share(self, kind):
        ps, cluster, store = _build(kind)
        controller = MembershipController(ps)
        node_id = controller.scale_out(now=0.0)
        assert node_id == 3
        assert cluster.membership_epoch == 1
        _ownership_covers_active(ps, cluster)
        assert len(ps.keys_owned_by(node_id)) > 0
        assert cluster.metrics.get("elastic.scale_outs") == 1
        assert cluster.metrics.get("elastic.migrated_keys") > 0
        # The migration transfer occupies the new node's background thread.
        assert cluster.node(node_id).background_clock.now > 0.0

    def test_relocation_arrival_gating(self):
        ps, cluster, store = _build("relocation")
        controller = MembershipController(ps)
        node_id = controller.scale_out(now=0.0)
        moved = ps.local_keys(node_id)
        assert len(moved) > 0
        # The re-homed keys arrive only after the transfer.
        assert np.all(ps.arrival_time[moved] > 0.0)
        np.testing.assert_array_equal(ps.current_owner[moved], node_id)


class TestScaleIn:
    @pytest.mark.parametrize("kind", ["classic", "relocation", "replication"])
    def test_planned_removal_rehomes_keys(self, kind):
        ps, cluster, store = _build(kind)
        controller = MembershipController(ps)
        summary = controller.scale_in(1, now=0.0)
        assert summary["lost_updates"] == 0
        assert summary["moved_keys"] > 0
        assert 1 in cluster.removed
        _ownership_covers_active(ps, cluster)
        assert len(ps.keys_owned_by(1)) == 0 or 1 not in cluster.active_nodes
        assert cluster.metrics.get("elastic.scale_ins") == 1

    def test_drain_flushes_buffered_updates(self):
        """Replication buffers flush on drain: zero acknowledged loss."""
        ps, cluster, store = _build("replication")
        worker = cluster.worker(1, 0)
        keys = np.array([0, 1, 2], dtype=np.int64)
        before = store.get(keys).copy()
        deltas = np.full((3, VALUE_LENGTH), 0.5, dtype=np.float32)
        ps.push(worker, keys, deltas)
        controller = MembershipController(ps)
        summary = controller.scale_in(1, now=0.0)
        assert summary["drained_updates"] >= 3
        np.testing.assert_allclose(store.get(keys), before + 0.5, rtol=1e-6)

    def test_headline_planned_vs_crash(self):
        """A planned scale-in drains what a crash would lose."""
        # Crash path: push, crash before any checkpoint refresh, recover.
        ps, cluster, store = _build("classic")
        fc = MembershipController(
            ps, FaultConfig(recovery="checkpoint", checkpoint_interval=10.0))
        worker = cluster.worker(1, 0)
        keys = np.asarray(ps.keys_owned_by(1)[:3], dtype=np.int64)
        ps.push(worker, keys, np.full((len(keys), VALUE_LENGTH), 0.5,
                                      dtype=np.float32))
        fc.crash_node(1, now=0.001)
        lost = cluster.metrics.get("faults.lost_updates")
        assert lost > 0

        # Planned path, same write pattern: nothing lost.
        ps2, cluster2, store2 = _build("classic")
        worker2 = cluster2.worker(1, 0)
        keys2 = np.asarray(ps2.keys_owned_by(1)[:3], dtype=np.int64)
        before = store2.get(keys2).copy()
        ps2.push(worker2, keys2, np.full((len(keys2), VALUE_LENGTH), 0.5,
                                         dtype=np.float32))
        controller = MembershipController(ps2)
        summary = controller.scale_in(1, now=0.001)
        assert summary["lost_updates"] == 0
        assert cluster2.metrics.get("elastic.lost_updates") == 0
        np.testing.assert_allclose(store2.get(keys2), before + 0.5, rtol=1e-6)


# ------------------------------------------------------------ PartitionState
class TestPartitionState:
    def test_rejects_empty_or_majority_minority(self):
        ps, cluster, _ = _build("classic")
        with pytest.raises(ValueError):
            PartitionState(ps, [], now=0.0)
        with pytest.raises(ValueError):
            PartitionState(ps, [0, 1], now=0.0)  # 2 of 3 is not a minority

    def test_minority_reads_are_bounded_stale(self):
        ps, cluster, store = _build("classic")
        state = PartitionState(ps, [2], now=0.0)
        worker = cluster.worker(2, 0)
        keys = np.array([0, 1], dtype=np.int64)
        snapshot = store.get(keys).copy()
        # The majority moves on; the minority still serves the snapshot.
        store.add(keys, np.full((2, VALUE_LENGTH), 9.0, dtype=np.float32))
        np.testing.assert_allclose(state.degraded_pull(worker, keys), snapshot)
        # ... merged with the minority's own buffered writes.
        state.degraded_push(worker, keys,
                            np.full((2, VALUE_LENGTH), 0.25, dtype=np.float32))
        np.testing.assert_allclose(state.degraded_pull(worker, keys),
                                   snapshot + 0.25)
        assert cluster.metrics.get("elastic.stale_reads") == 4
        assert cluster.metrics.get("elastic.buffered_writes") == 2

    def test_heal_replays_and_counts_divergence(self):
        ps, cluster, store = _build("classic")
        state = PartitionState(ps, [2], now=0.0)
        worker = cluster.worker(2, 0)
        keys = np.array([3, 4], dtype=np.int64)
        before = store.get(keys).copy()
        state.degraded_push(worker, keys,
                            np.full((2, VALUE_LENGTH), 1.0, dtype=np.float32))
        # Key 3 also written on the majority side: divergent.
        state.record_majority_writes(np.array([3], dtype=np.int64))
        summary = state.heal(now=0.01)
        assert summary["replayed_keys"] == 2
        assert summary["divergent_keys"] == 1
        # Replay is additive: no update from either side is lost.
        np.testing.assert_allclose(store.get(keys), before + 1.0, rtol=1e-6)
        assert cluster.metrics.get("elastic.partition_heals") == 1


# ------------------------------------------------------------ proxy guards
class TestPartitionGuard:
    def test_majority_access_to_minority_keys_defers(self):
        ps, cluster, store = _build("classic")
        proxy = ScenarioParameterServer(ps)
        proxy.partition = PartitionState(ps, [2], now=0.0)
        majority_worker = cluster.worker(0, 0)
        minority_keys = np.asarray(ps.keys_owned_by(2)[:2], dtype=np.int64)
        with pytest.raises(PartitionedOwnerError):
            proxy.pull(majority_worker, minority_keys)
        with pytest.raises(PartitionedOwnerError):
            proxy.push(majority_worker, minority_keys,
                       np.zeros((2, VALUE_LENGTH), dtype=np.float32))
        # Majority keys stay accessible.
        majority_keys = np.asarray(ps.keys_owned_by(0)[:2], dtype=np.int64)
        values = proxy.pull(majority_worker, majority_keys)
        assert values.shape == (2, VALUE_LENGTH)

    def test_minority_worker_degrades_instead_of_failing(self):
        ps, cluster, store = _build("classic")
        proxy = ScenarioParameterServer(ps)
        state = PartitionState(ps, [2], now=0.0)
        proxy.partition = state
        minority_worker = cluster.worker(2, 0)
        keys = np.asarray(ps.keys_owned_by(0)[:2], dtype=np.int64)
        values = proxy.pull(minority_worker, keys)  # stale, not an error
        assert values.shape == (2, VALUE_LENGTH)
        proxy.push(minority_worker, keys,
                   np.ones((2, VALUE_LENGTH), dtype=np.float32))
        assert state.buffered_writes == 2

    def test_localize_drops_unreachable_hints(self):
        ps, cluster, store = _build("relocation")
        proxy = ScenarioParameterServer(ps)
        proxy.partition = PartitionState(ps, [2], now=0.0)
        majority_worker = cluster.worker(0, 0)
        minority_keys = np.asarray(ps.keys_owned_by(2)[:2], dtype=np.int64)
        proxy.localize(majority_worker, minority_keys)  # dropped, no raise
        np.testing.assert_array_equal(ps.current_owner[minority_keys], 2)

    def test_majority_sample_calls_cross_no_partition(self):
        """Regression: ``pull_sample`` reached the inner PS around the
        partition rule. It now gates the keys the call delivers — the
        handle's next ``count`` pending keys — before delegating."""
        ps, cluster, store = _build("classic")
        proxy = ScenarioParameterServer(ps)
        distribution_id = proxy.register_distribution(
            UniformDistribution(0, NUM_KEYS))
        proxy.partition = PartitionState(ps, [2], now=0.0)
        majority_worker = cluster.worker(0, 0)
        majority_keys = np.asarray(ps.keys_owned_by(0)[:2], dtype=np.int64)
        minority_keys = np.asarray(ps.keys_owned_by(2)[:2], dtype=np.int64)
        handle = SampleHandle(distribution_id,
                              np.concatenate([majority_keys, minority_keys]))
        result = proxy.pull_sample(majority_worker, handle, 2)
        np.testing.assert_array_equal(result.keys, majority_keys)
        reads = cluster.metrics.get("access.total")
        with pytest.raises(PartitionedOwnerError):
            proxy.pull_sample(majority_worker, handle, 2)
        assert handle.remaining == 2  # nothing delivered, nothing read
        assert cluster.metrics.get("access.total") == reads
        with pytest.raises(PartitionedOwnerError):
            proxy.push_sample(majority_worker, minority_keys,
                              np.zeros((2, VALUE_LENGTH), dtype=np.float32))
        assert cluster.metrics.get("elastic.partition_rejections") == 2


class TestScaleInRoutingCheck:
    """A removed node never recovers, so scale-in checks once, at the
    transition, that no key is routed at it any more."""

    @pytest.mark.parametrize("kind", ["relocation", "replication"])
    def test_check_fires_when_rehome_is_skipped(self, kind, monkeypatch):
        ps, cluster, store = _build(kind)
        owned = len(ps.keys_owned_by(1))
        if kind == "replication":
            # The home map is the routing of a static PS: leave it stale.
            monkeypatch.setattr(ps.partitioner, "leave",
                                lambda node_id, successors: None)
        monkeypatch.setattr(ps, "_rehome", lambda *args: None)
        with pytest.raises(RuntimeError,
                           match=f"node 1 left {owned} key"):
            MembershipController(ps).scale_in(1, now=0.0)

    def test_no_false_positive_after_proper_scale_in(self):
        ps, cluster, store = _build("classic")
        proxy = ScenarioParameterServer(ps)
        victim_keys = np.asarray(ps.keys_owned_by(1)[:2], dtype=np.int64)
        MembershipController(ps).scale_in(1, now=0.0)
        assert not proxy.degraded()
        assert proxy.direct_point_charger() is not None
        values = proxy.pull(cluster.worker(0, 0), victim_keys)
        assert values.shape == (2, VALUE_LENGTH)


# ----------------------------------------------------------- perturbations
def _run(system, scenario, nodes=3, epochs=2, seed=0):
    task = make_task("kge", scale="test")
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=nodes, workers_per_node=2),
        epochs=epochs, chunk_size=8, seed=seed, scenario=scenario,
    )
    return run_experiment(task, make_ps_factory(system), config)


class _JoinOnce(Perturbation):
    """One fresh node joins after round 1 of epoch 0 and stays to the end."""

    needs_membership = True
    at = ((0, 1),)

    def fire(self, ctx):
        ctx.scale_out()


class TestElasticScenarios:
    def test_presets_are_registered(self):
        for name in ("scale-in", "autoscale-storm", "split-brain"):
            assert name in SCENARIO_PRESETS

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            ScaleIn(at_epoch=-1)
        with pytest.raises(ValueError):
            AutoscaleStorm(period_rounds=0)

    @pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
    def test_scale_out_completes(self, system):
        # A join no leave follows (autoscale-storm pairs each join with one):
        # the new node serves its key share through every later epoch.
        result = _run(system, Scenario("scale-out", [_JoinOnce()]))
        assert result.epochs_completed == 2
        assert result.metrics.get("elastic.scale_outs") == 1
        assert result.metrics.get("elastic.scale_ins", 0) == 0

    @pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
    def test_scale_in_loses_nothing(self, system):
        result = _run(system, make_scenario("scale-in"))
        assert result.epochs_completed == 2
        assert result.metrics.get("elastic.scale_ins") == 1
        assert result.metrics.get("elastic.lost_updates") == 0

    @pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
    def test_autoscale_storm_survives(self, system):
        result = _run(system, make_scenario("autoscale-storm"))
        assert result.epochs_completed == 2
        assert result.metrics.get("elastic.scale_outs") >= 1
        assert result.metrics.get("elastic.scale_ins") >= 1
        assert result.metrics.get("elastic.lost_updates") == 0

    @pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
    def test_split_brain_heals(self, system):
        result = _run(system, make_scenario("split-brain"))
        assert result.epochs_completed == 2
        metrics = result.metrics
        assert metrics.get("elastic.partitions") == 1
        assert metrics.get("elastic.partition_heals") == 1
        # Minority writes were buffered and replayed, never dropped.
        assert metrics.get("elastic.buffered_writes") > 0
        assert metrics.get("elastic.replayed_writes") > 0

    def test_elastic_runs_are_deterministic(self):
        first = _run("nups", make_scenario("autoscale-storm"), seed=5)
        second = _run("nups", make_scenario("autoscale-storm"), seed=5)
        assert [r.sim_time for r in first.records] == \
               [r.sim_time for r in second.records]
        assert first.metrics == second.metrics

    def test_elasticity_off_leaves_no_trace(self):
        """Without an elastic perturbation nothing elastic ever moves."""
        result = _run("nups", None)
        assert result.epochs_completed == 2
        elastic = {name: value for name, value in result.metrics.items()
                   if name.startswith("elastic.")}
        assert elastic == {}
