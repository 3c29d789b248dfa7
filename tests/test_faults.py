"""Tests for the fault-tolerance subsystem (:mod:`repro.faults`).

Covers the layers separately and end to end:

* recovery — :class:`CheckpointManager` rollback accounting and the
  :class:`MembershipController` crash/failover/restore cycle on every
  architecture,
* access semantics — the retry/timeout gate of
  :class:`ScenarioParameterServer`, on direct and sampling calls,
* scenario integration — crash-storm completes on every architecture, and
  a fault-capable run with no fired fault stays bit-identical to a
  fault-free run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.faults.controller
from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.faults import (
    CheckpointManager,
    DeadOwnerError,
    FaultConfig,
    MembershipController,
)
from repro.ps.classic import ClassicPS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.core.sampling.distributions import UniformDistribution
from repro.ps.base import SampleHandle
from repro.scenarios import (
    KeyRemapper,
    Perturbation,
    Scenario,
    ScenarioParameterServer,
    ServerCrashes,
    make_scenario,
)
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel


NUM_KEYS = 60
VALUE_LENGTH = 3


def _network() -> NetworkModel:
    return NetworkModel(latency=10e-6, bandwidth=1e9,
                        message_handling_cost=1e-6, local_access_cost=1e-7,
                        compute_per_step=20e-6)


def _cluster(num_nodes=3, workers_per_node=2) -> Cluster:
    return Cluster(ClusterConfig(num_nodes=num_nodes,
                                 workers_per_node=workers_per_node,
                                 network=_network()))


ARCHITECTURES = ["classic", "relocation", "replication-essp", "nups"]


def _build(architecture: str):
    cluster = _cluster()
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=3, init_scale=0.3)
    if architecture == "classic":
        ps = ClassicPS(store, cluster)
    elif architecture == "relocation":
        ps = RelocationPS(store, cluster)
    elif architecture == "replication-essp":
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.ESSP,
                           staleness=2)
    elif architecture == "nups":
        plan = ManagementPlan(NUM_KEYS, np.arange(0, NUM_KEYS, 5))
        ps = NuPS(store, cluster, plan=plan, sync_interval=0.0005)
    else:  # pragma: no cover - parametrization guard
        raise ValueError(architecture)
    return ps, cluster, store


def _check_single_active_owner(ps, cluster) -> None:
    """Every key is owned by exactly one *active* node."""
    owned = [np.asarray(ps.keys_owned_by(node_id), dtype=np.int64)
             for node_id in cluster.active_nodes]
    everything = (np.concatenate(owned) if owned
                  else np.empty(0, dtype=np.int64))
    np.testing.assert_array_equal(np.sort(everything),
                                  np.arange(ps.store.num_keys))


# ---------------------------------------------------------- CheckpointManager
class TestCheckpointManager:
    def test_restore_counts_discarded_updates(self):
        cluster = _cluster()
        store = ParameterStore(20, 2, seed=1, init_scale=0.5)
        manager = CheckpointManager(store, cluster, interval=None)
        before = store.values[[3, 4]].copy()
        delta = np.ones((2, 2), dtype=np.float32)
        store.add(np.array([3, 4]), delta)
        store.add(np.array([3, 4]), delta)
        assert manager.restore(np.array([3, 4])) == 4
        np.testing.assert_array_equal(store.values[[3, 4]], before)
        # Version counters roll back too: restoring twice discards nothing.
        assert manager.restore(np.array([3, 4])) == 0

    def test_restore_empty_keys(self):
        cluster = _cluster()
        store = ParameterStore(8, 2)
        manager = CheckpointManager(store, cluster)
        assert manager.restore(np.empty(0, dtype=np.int64)) == 0

    def test_disabled_interval_keeps_t0_snapshot(self):
        cluster = _cluster()
        store = ParameterStore(8, 2, seed=2, init_scale=0.5)
        manager = CheckpointManager(store, cluster, interval=None)
        assert not manager.maybe_checkpoint(100.0)
        assert manager.checkpoints_taken == 0
        assert manager.snapshot_time == 0.0

    def test_periodic_firing_and_burst_collapse(self):
        cluster = _cluster()
        store = ParameterStore(8, 2)
        manager = CheckpointManager(store, cluster, interval=0.01)
        assert not manager.maybe_checkpoint(0.005)
        assert manager.maybe_checkpoint(0.011)
        assert manager.checkpoints_taken == 1
        # Five overdue intervals collapse into one snapshot (they would all
        # be byte-identical).
        assert manager.maybe_checkpoint(0.065)
        assert manager.checkpoints_taken == 2
        assert cluster.metrics.get("faults.checkpoints") == 2

    def test_take_charges_background_threads(self):
        cluster = _cluster()
        store = ParameterStore(8, 2)
        manager = CheckpointManager(store, cluster, interval=0.01)
        manager.take(0.02)
        for node in cluster.nodes:
            assert node.background_clock.now > 0.02

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="interval must be positive"):
            CheckpointManager(ParameterStore(4, 1), _cluster(), interval=0.0)


# ------------------------------------------------------- crashes and restores
class TestCrashAndRestore:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_crash_re_homes_keys_to_survivors(self, architecture):
        ps, cluster, store = _build(architecture)
        controller = MembershipController(ps)
        victim = 1
        lost = np.asarray(ps.keys_owned_by(victim))
        assert len(lost) > 0
        t_recovered = controller.crash_node(victim, now=0.001)
        assert t_recovered > 0.001
        assert victim in cluster.failed
        assert victim in controller.down
        _check_single_active_owner(ps, cluster)
        assert cluster.metrics.get("faults.crashes") == 1
        assert cluster.metrics.get("faults.recovery_time") > 0

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_restore_rejoins_the_partition(self, architecture):
        ps, cluster, store = _build(architecture)
        controller = MembershipController(ps)
        before = {node_id: set(np.asarray(ps.keys_owned_by(node_id)).tolist())
                  for node_id in range(cluster.num_nodes)}
        controller.crash_node(1, now=0.001)
        controller.restore_node(1, now=0.05)
        assert 1 not in cluster.failed
        assert not controller.down
        _check_single_active_owner(ps, cluster)
        if architecture in ("classic", "replication-essp"):
            # Static partitioners return to the pre-fault assignment; the
            # relocation-based architectures (Lapse, NuPS) legitimately keep
            # the re-homed keys until access locality moves them back.
            after = {nid: set(np.asarray(ps.keys_owned_by(nid)).tolist())
                     for nid in range(cluster.num_nodes)}
            assert after == before
        assert cluster.metrics.get("faults.restores") == 1

    def test_double_crash_is_idempotent(self):
        ps, cluster, _ = _build("classic")
        controller = MembershipController(ps)
        t1 = controller.crash_node(1, now=0.001)
        t2 = controller.crash_node(1, now=0.002)
        assert t1 == t2
        assert cluster.metrics.get("faults.crashes") == 1

    def test_overlapping_crashes_keep_single_owner(self):
        ps, cluster, _ = _build("classic")
        controller = MembershipController(ps)
        controller.crash_node(1, now=0.001)
        controller.crash_node(2, now=0.002)
        _check_single_active_owner(ps, cluster)
        controller.restore_node(1, now=0.05)
        _check_single_active_owner(ps, cluster)
        controller.restore_node(2, now=0.06)
        _check_single_active_owner(ps, cluster)
        assert ps.keys_owned_by(1).size and ps.keys_owned_by(2).size

    def test_cannot_fail_last_survivor(self):
        ps, cluster, _ = _build("classic")
        controller = MembershipController(ps)
        controller.crash_node(1, now=0.001)
        controller.crash_node(2, now=0.002)
        with pytest.raises(ValueError, match="last"):
            controller.crash_node(0, now=0.003)

    def test_restart_recovery_loses_work(self):
        ps, cluster, store = _build("classic")
        controller = MembershipController(ps, FaultConfig(recovery="restart"))
        worker = cluster.worker(0, 0)
        victim_keys = np.asarray(ps.keys_owned_by(1))[:5]
        before = store.values[victim_keys].copy()
        deltas = np.ones((len(victim_keys), VALUE_LENGTH), dtype=np.float32)
        for _ in range(3):
            ps.push(worker, victim_keys, deltas)
        controller.crash_node(1, now=cluster.time)
        # Restart-from-scratch rolls the victim's keys back to t0 ...
        np.testing.assert_array_equal(store.values[victim_keys], before)
        # ... and the version counters price the discarded work.
        assert cluster.metrics.get("faults.lost_updates") == 3 * len(victim_keys)
        assert cluster.metrics.get("faults.keys_recovered_from_checkpoint") > 0

    def test_checkpoint_recovery_keeps_checkpointed_work(self):
        ps, cluster, store = _build("classic")
        controller = MembershipController(
            ps, FaultConfig(recovery="checkpoint", checkpoint_interval=0.001)
        )
        worker = cluster.worker(0, 0)
        victim_keys = np.asarray(ps.keys_owned_by(1))[:5]
        deltas = np.ones((len(victim_keys), VALUE_LENGTH), dtype=np.float32)
        ps.push(worker, victim_keys, deltas)
        after_push = store.values[victim_keys].copy()
        controller.on_round(cluster.time + 0.01)  # checkpoint covers the push
        controller.crash_node(1, now=cluster.time + 0.02)
        np.testing.assert_array_equal(store.values[victim_keys], after_push)
        assert cluster.metrics.get("faults.lost_updates") == 0
        assert controller.checkpoint.checkpoints_taken >= 1

    def test_replication_recovers_values_from_replicas(self):
        ps, cluster, store = _build("replication-essp")
        controller = MembershipController(ps, FaultConfig(recovery="restart"))
        worker = cluster.worker(0, 0)
        victim_keys = np.asarray(ps.keys_owned_by(1))[:6]
        before = store.values[victim_keys].copy()
        deltas = np.ones((len(victim_keys), VALUE_LENGTH), dtype=np.float32)
        ps.push(worker, victim_keys, deltas)
        controller.crash_node(1, now=cluster.time + 0.02)
        # The pusher's replica (which already absorbed the delta) covers the
        # crashed keys: no rollback to t0 despite the restart-from-scratch
        # fallback — the delta survives the crash.
        np.testing.assert_allclose(store.values[victim_keys], before + 1.0,
                                   rtol=1e-6)
        assert cluster.metrics.get("faults.keys_recovered_from_replicas") > 0

    def test_survivors_pay_for_the_state_transfer(self):
        ps, cluster, _ = _build("classic")
        controller = MembershipController(ps)
        controller.crash_node(1, now=0.01)
        for node_id in cluster.active_nodes:
            assert cluster.node(node_id).background_clock.now > 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError, match="recovery mechanism"):
            FaultConfig(recovery="wishful-thinking")
        with pytest.raises(ValueError, match="checkpoint_interval"):
            FaultConfig(checkpoint_interval=0.0)


# ------------------------------------------------------- dead-owner gate
class TestDeadOwnerGate:
    @pytest.fixture
    def slow_recovery(self, monkeypatch):
        """A crash announced after 50 ms, beyond the 7 ms retry budget."""
        monkeypatch.setattr(repro.faults.controller, "MEMBERSHIP_DELAY", 0.05)

    def _crashed(self, remapper=None):
        ps, cluster, store = _build("classic")
        proxy = ScenarioParameterServer(ps, remapper)
        controller = MembershipController(ps)
        proxy.controller = controller
        t_recovered = controller.crash_node(1, now=cluster.time)
        moved = np.flatnonzero(controller.moved_mask(1))
        return proxy, controller, cluster, moved, t_recovered

    def test_gate_is_transparent_without_faults(self):
        ps, cluster, _ = _build("classic")
        proxy = ScenarioParameterServer(ps)
        worker = cluster.worker(0, 0)
        before = worker.clock.now
        values = proxy.pull(worker, np.array([1, 2, 3]))
        assert values.shape == (3, VALUE_LENGTH)
        assert cluster.metrics.get("faults.retries") == 0
        assert worker.clock.now > before  # the pull itself is still charged

    def test_untouched_keys_pass_through_mid_recovery(self):
        proxy, controller, cluster, moved, _ = self._crashed()
        worker = cluster.worker(0, 0)
        safe = np.setdiff1d(np.arange(NUM_KEYS), moved)[:3]
        proxy.pull(worker, safe)
        assert cluster.metrics.get("faults.retries") == 0
        assert cluster.metrics.get("faults.timeouts") == 0

    def test_retries_bridge_a_short_recovery(self):
        # Default budget (1ms * (2^3 - 1) = 7ms) covers the recovery gap.
        proxy, controller, cluster, moved, t_recovered = self._crashed()
        worker = cluster.worker(0, 0)
        values = proxy.pull(worker, moved[:2])
        assert values.shape == (2, VALUE_LENGTH)
        assert worker.clock.now >= t_recovered
        assert cluster.metrics.get("faults.retries") >= 1
        assert cluster.metrics.get("faults.timeouts") == 0

    def test_times_out_when_budget_cannot_bridge(self, slow_recovery):
        proxy, controller, cluster, moved, _ = self._crashed()
        worker = cluster.worker(0, 0)
        before = worker.clock.now
        with pytest.raises(DeadOwnerError, match="gave up"):
            proxy.pull(worker, moved[:2])
        # The failed attempts still cost their backoff delays.
        assert worker.clock.now > before
        assert cluster.metrics.get("faults.timeouts") == 1

    def test_gate_clears_after_recovery_time(self):
        proxy, controller, cluster, moved, t_recovered = self._crashed()
        worker = cluster.worker(0, 0)
        worker.clock.advance_to(t_recovered + 1e-6)
        proxy.pull(worker, moved[:2])
        assert cluster.metrics.get("faults.retries") == 0

    def test_delegation(self):
        ps, cluster, _ = _build("classic")
        proxy = ScenarioParameterServer(ps)
        assert proxy.inner is ps
        assert proxy.store is ps.store
        assert proxy.name == ps.name
        assert proxy.describe() == ps.describe()
        # No gate can fire (no partition, no node down): the round engine
        # gets the inner PS's own charger, in both shapes.
        for distribution_id in (None, 0):
            assert type(proxy.direct_point_charger(distribution_id)) \
                is type(ps.direct_point_charger(distribution_id))

    @pytest.mark.parametrize("drifted", [False, True])
    def test_sample_calls_pass_the_gate(self, drifted, slow_recovery):
        """Regression: ``pull_sample`` of moved keys read them while their
        owner was down and ``pull`` of the same keys timed out, and
        ``push_sample`` skipped the gate. With a drifted remapper the gate
        sees physical keys: the handle's as they are, pushed keys
        translated."""
        remapper = None
        if drifted:
            remapper = KeyRemapper(NUM_KEYS)
            remapper.apply(remapper.rotation(0.3))
        proxy, controller, cluster, moved, _ = self._crashed(remapper)
        distribution_id = proxy.register_distribution(
            UniformDistribution(0, NUM_KEYS))
        worker = cluster.worker(0, 0)
        physical = moved[:2]
        logical = physical if remapper is None \
            else remapper.to_logical(physical)
        with pytest.raises(DeadOwnerError, match="gave up"):
            proxy.pull(worker, logical)
        handle = SampleHandle(distribution_id, physical)
        reads = cluster.metrics.get("access.total")
        with pytest.raises(DeadOwnerError, match="gave up"):
            proxy.pull_sample(worker, handle)
        assert handle.remaining == 2
        assert cluster.metrics.get("access.total") == reads
        before = proxy.store.values.copy()
        with pytest.raises(DeadOwnerError, match="gave up"):
            proxy.push_sample(worker, logical,
                              np.ones((2, VALUE_LENGTH), dtype=np.float32))
        assert np.array_equal(proxy.store.values, before)
        assert cluster.metrics.get("faults.timeouts") == 3

    def test_sample_pull_waits_out_a_short_recovery(self):
        proxy, controller, cluster, moved, t_recovered = self._crashed()
        distribution_id = proxy.register_distribution(
            UniformDistribution(0, NUM_KEYS))
        worker = cluster.worker(0, 0)
        safe = np.setdiff1d(np.arange(NUM_KEYS), moved)[:1]
        handle = SampleHandle(distribution_id, np.r_[safe, moved[:1]])
        proxy.pull_sample(worker, handle, 1)  # an untouched key: no wait
        assert worker.clock.now < t_recovered
        result = proxy.pull_sample(worker, handle, 1)
        np.testing.assert_array_equal(result.keys, moved[:1])
        assert worker.clock.now >= t_recovered
        assert cluster.metrics.get("faults.retries") >= 1


# ------------------------------------------------------ scenario integration
def _small_config(epochs=3, scenario=None, seed=0):
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=3, workers_per_node=2),
        epochs=epochs, chunk_size=8, seed=seed, scenario=scenario,
    )


def _run(scenario=None, system="classic", epochs=3, seed=0):
    task = make_task("kge", scale="test")
    return run_experiment(
        task, make_ps_factory(system), _small_config(epochs, scenario, seed)
    )


class _KillWorkers(Perturbation):
    """Pauses two workers off node 0 after round 1 of epoch 0 on its own
    behalf and never resumes them."""

    at = ((0, 1),)

    def __init__(self):
        self.victims = []
        self.paused_at_epoch_end = []

    def fire(self, ctx):
        self.victims = [key for key in ctx.worker_keys() if key[0] != 0][:2]
        for key in self.victims:
            ctx.pause_worker(*key, holder=self)

    def on_epoch_end(self, ctx):
        self.paused_at_epoch_end.append(
            [not ctx.is_active(key) for key in self.victims])


class TestFaultScenarios:
    @pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
    def test_crash_storm_completes_everywhere(self, system):
        result = _run(scenario=make_scenario("crash-storm"), system=system)
        assert result.epochs_completed == 3
        assert result.metrics["faults.crashes"] >= 1
        assert result.metrics["faults.restores"] >= 1
        assert result.metrics["faults.recovery_time"] > 0

    def test_unfired_faults_leave_runs_bit_identical(self):
        # The proxy is installed (the scenario declares fault capability)
        # but no crash ever fires and periodic checkpointing is off
        # (restart recovery): timing and quality must match a fault-free
        # run exactly, not approximately.
        armed = Scenario("armed", [ServerCrashes(
            epochs=(99,), fault_config=FaultConfig(recovery="restart")
        )])
        with_proxy = _run(scenario=armed)
        baseline = _run(scenario=None)
        assert with_proxy.qualities() == baseline.qualities()
        assert with_proxy.total_time == baseline.total_time

    def test_periodic_checkpoints_cost_background_time_only(self):
        # Checkpoint-armed but crash-free: snapshots charge background
        # threads, never the training math.
        armed = Scenario("armed", [ServerCrashes(epochs=(99,))])
        result = _run(scenario=armed)
        baseline = _run(scenario=None)
        assert result.metrics["faults.checkpoints"] > 0
        assert result.qualities() == baseline.qualities()

    def test_crash_storm_is_deterministic(self):
        first = _run(scenario=make_scenario("crash-storm"))
        second = _run(scenario=make_scenario("crash-storm"))
        assert first.qualities() == second.qualities()
        assert first.total_time == second.total_time
        assert first.metrics["faults.crashes"] == \
            second.metrics["faults.crashes"]

    def test_worker_kill_finishes_short_handed(self):
        # A pause its holder never releases outlasts the epoch boundary.
        kill = _KillWorkers()
        result = _run(scenario=Scenario("kill", [kill]), epochs=2)
        assert result.epochs_completed == 2
        assert kill.paused_at_epoch_end == [[True, True], [True, True]]
        assert result.metrics["scenario.worker_pauses"] == 2
        assert result.metrics.get("scenario.worker_resumes", 0) == 0

    def test_presets_registered(self):
        from repro.scenarios.presets import SCENARIO_NAMES

        assert "crash-storm" in SCENARIO_NAMES
