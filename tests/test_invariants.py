"""Property-based invariant suite: random operation sequences, all PS types.

Seeded ``numpy.random`` sequences of PS operations (pull, push, localize,
clock advances, housekeeping, sampling) are replayed against every parameter
server architecture, asserting structural invariants after every step:

* every key is owned by exactly one node after any relocation sequence,
* simulated clocks never decrease,
* replica staleness never exceeds the configured bound,
* metrics counters equal the number of issued operations.

Small sequences run in tier-1; large sequences (and the scenario-integrated
sweep) carry the ``slow`` marker and run in CI's dedicated job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import CategoricalDistribution
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import SYSTEM_NAMES, make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel
from replicas import max_divergence


NUM_KEYS = 120
VALUE_LENGTH = 3
STALENESS = 2


def _network() -> NetworkModel:
    return NetworkModel(latency=10e-6, bandwidth=1e9,
                        message_handling_cost=1e-6, local_access_cost=1e-7,
                        compute_per_step=20e-6)


def _cluster(num_nodes=3, workers_per_node=2) -> Cluster:
    return Cluster(ClusterConfig(num_nodes=num_nodes,
                                 workers_per_node=workers_per_node,
                                 network=_network()))


def _build(architecture: str):
    """(ps, cluster, store) for one architecture under test."""
    if architecture == "single-node":
        cluster = _cluster(num_nodes=1, workers_per_node=4)
    else:
        cluster = _cluster()
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=11, init_scale=0.3)
    if architecture == "classic":
        ps = ClassicPS(store, cluster)
    elif architecture == "single-node":
        ps = SingleNodePS(store, cluster)
    elif architecture == "relocation":
        ps = RelocationPS(store, cluster)
    elif architecture == "replication-ssp":
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.SSP,
                           staleness=STALENESS)
    elif architecture == "replication-essp":
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.ESSP,
                           staleness=STALENESS)
    elif architecture == "nups":
        plan = ManagementPlan(NUM_KEYS, np.arange(0, NUM_KEYS, 7))
        ps = NuPS(store, cluster, plan=plan, sync_interval=0.0005)
    else:  # pragma: no cover - parametrization guard
        raise ValueError(architecture)
    return ps, cluster, store


ARCHITECTURES = [
    "single-node", "classic", "relocation",
    "replication-ssp", "replication-essp", "nups",
]


class _ClockWatcher:
    """Asserts that no simulated clock ever moves backwards."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.last = self._snapshot()

    def _snapshot(self):
        times = []
        for node in self.cluster.nodes:
            times.extend(clock.now for clock in node.worker_clocks)
            times.append(node.background_clock.now)
            times.append(node.server_clock.now)
        return times

    def check(self) -> None:
        current = self._snapshot()
        for before, after in zip(self.last, current):
            assert after >= before, "a simulated clock moved backwards"
        self.last = current


class _OpCounter:
    """Tracks issued operations to compare against the metrics registry."""

    def __init__(self) -> None:
        self.pulled = 0
        self.pushed = 0
        self.sample_pulled = 0
        self.sample_pushed = 0


def _random_keys(rng: np.random.Generator) -> np.ndarray:
    count = int(rng.integers(1, 24))
    # Zipf-flavored skew plus duplicates: hot keys collide on purpose.
    raw = rng.zipf(1.3, size=count)
    return np.minimum(raw - 1, NUM_KEYS - 1).astype(np.int64)


def _run_sequence(architecture: str, seed: int, num_ops: int):
    ps, cluster, store = _build(architecture)
    rng = np.random.default_rng(seed)
    watcher = _ClockWatcher(cluster)
    counter = _OpCounter()
    workers = list(cluster.workers())

    distribution_id = ps.register_distribution(
        CategoricalDistribution(np.arange(1.0, NUM_KEYS + 1.0)),
        ConformityLevel.BOUNDED,
    ) if architecture == "nups" else ps.register_distribution(
        CategoricalDistribution(np.arange(1.0, NUM_KEYS + 1.0))
    )
    handles = []

    def check_step(worker):
        watcher.check()
        _check_ownership(ps, cluster)

    for _ in range(num_ops):
        worker = workers[int(rng.integers(len(workers)))]
        op = rng.random()
        if op < 0.35:
            keys = _random_keys(rng)
            values = ps.pull(worker, keys)
            assert values.shape == (len(keys), VALUE_LENGTH)
            counter.pulled += len(keys)
            if isinstance(ps, ReplicationPS):
                _check_staleness(ps, worker, keys)
        elif op < 0.6:
            keys = _random_keys(rng)
            deltas = rng.normal(0, 0.01, size=(len(keys), VALUE_LENGTH)).astype(
                np.float32
            )
            ps.push(worker, keys, deltas)
            counter.pushed += len(keys)
        elif op < 0.75:
            ps.localize(worker, _random_keys(rng))
        elif op < 0.85:
            ps.advance_clock(worker)
        elif op < 0.92:
            ps.housekeeping(cluster.time)
        else:
            if handles and rng.random() < 0.6:
                handle = handles[int(rng.integers(len(handles)))]
                take = int(rng.integers(1, 5))
                take = min(take, handle.remaining)
                if take:
                    result = ps.pull_sample(worker, handle, take)
                    assert len(result.keys) == take
                    assert result.values.shape == (take, VALUE_LENGTH)
                    counter.sample_pulled += take
                    deltas = rng.normal(0, 0.01, size=result.values.shape).astype(
                        np.float32
                    )
                    ps.push_sample(worker, result.keys, deltas)
                    counter.sample_pushed += take
                if handle.remaining == 0:
                    handles.remove(handle)
            else:
                count = int(rng.integers(1, 12))
                handles.append(ps.prepare_sample(worker, distribution_id, count))
        check_step(worker)

    return ps, cluster, store, counter


def _check_ownership(ps, cluster) -> None:
    """Every key is owned by exactly one node after any relocation sequence."""
    if not isinstance(ps, RelocationPS):
        return
    owners = ps.current_owner.take(np.arange(ps.store.num_keys))
    assert owners.shape == (ps.store.num_keys,)
    assert owners.min() >= 0 and owners.max() < cluster.num_nodes
    sizes = [len(ps.local_keys(node_id)) for node_id in range(cluster.num_nodes)]
    assert sum(sizes) == ps.store.num_keys


def _check_staleness(ps: ReplicationPS, worker, keys: np.ndarray) -> None:
    """After a pull, no delivered replica is staler than the bound allows."""
    state = ps._nodes[worker.node_id]
    worker_clock = state.worker_clocks.get(worker.worker_id, 0)
    clocks = state.replica_clock[np.asarray(keys, dtype=np.int64)]
    assert np.all(clocks >= worker_clock - ps.staleness)


def _check_metrics(architecture: str, ps, cluster, counter: _OpCounter) -> None:
    """Metrics counters equal the number of issued operations."""
    metrics = cluster.metrics

    def total(prefix: str) -> float:
        return sum(value for name, value in metrics.counters().items()
                   if name.startswith(prefix))

    # access.total is exactly the sum of the per-kind access counters.
    per_kind = sum(
        value for name, value in metrics.counters().items()
        if name.startswith("access.") and name != "access.total"
    )
    assert metrics.get("access.total") == per_kind

    if architecture in ("single-node", "classic", "relocation"):
        assert total("access.pull.") == counter.pulled + counter.sample_pulled
        assert total("access.push.") == counter.pushed + counter.sample_pushed
    elif architecture.startswith("replication"):
        # Pushes charge exactly one replica write per issued key; pulls may
        # additionally refresh replicas that pushes created.
        assert metrics.get("access.push.replica") == (
            counter.pushed + counter.sample_pushed
        )
        assert total("access.pull.") >= counter.pulled + counter.sample_pulled
    elif architecture == "nups":
        assert total("access.pull.") == counter.pulled
        assert total("access.push.") == counter.pushed
        assert total("access.sample.") == counter.sample_pulled
        assert total("access.sample_push.") == counter.sample_pushed


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("seed", [1, 2])
def test_random_sequences_small(architecture, seed):
    ps, cluster, store, counter = _run_sequence(architecture, seed, num_ops=120)
    _check_metrics(architecture, ps, cluster, counter)
    if isinstance(ps, NuPS):
        ps.finish_epoch()
        assert max_divergence(ps.replica_manager) == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_random_sequences_large(architecture, seed):
    ps, cluster, store, counter = _run_sequence(architecture, seed, num_ops=1500)
    _check_metrics(architecture, ps, cluster, counter)
    if isinstance(ps, NuPS):
        ps.finish_epoch()
        assert max_divergence(ps.replica_manager) == 0.0


def test_remapper_invariants_under_random_drifts():
    """The remapping stays a bijection and store contents stay conserved."""
    from repro.scenarios import KeyRemapper

    rng = np.random.default_rng(7)
    store = ParameterStore(90, 2, seed=1, init_scale=1.0)
    reference = np.sort(store.get(np.arange(store.num_keys)).copy(), axis=0)
    remapper = KeyRemapper(90, groups=[(0, 50), (50, 90)])
    logical_snapshot = store.get(np.arange(store.num_keys))[remapper.physical_index].copy()
    for _ in range(12):
        sigma = remapper.rotation(float(rng.uniform(0.05, 0.95)))
        store.permute(sigma)
        remapper.apply(sigma)
        all_keys = np.arange(90)
        np.testing.assert_array_equal(
            remapper.to_logical(remapper.to_physical(all_keys)), all_keys
        )
        # Logical view is invariant; physical rows are merely rearranged.
        np.testing.assert_array_equal(
            store.get(np.arange(store.num_keys))[remapper.physical_index], logical_snapshot
        )
        np.testing.assert_array_equal(np.sort(store.get(np.arange(store.num_keys)), axis=0), reference)


@pytest.mark.slow
@pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
def test_storm_scenario_preserves_invariants(system):
    """End-to-end: the combined scenario keeps every structural invariant."""
    captured = {}
    base_factory = make_ps_factory(system)

    def factory(store, cluster, task):
        ps = base_factory(store, cluster, task)
        captured["ps"], captured["cluster"] = ps, cluster
        return ps

    task = make_task("kge", scale="test")
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=3, chunk_size=8, seed=1, scenario=make_scenario("storm"),
    )
    result = run_experiment(task, factory, config)
    assert result.epochs_completed == 3
    times = [rec.sim_time for rec in result.records]
    assert times == sorted(times)
    assert all(rec.epoch_duration >= 0 for rec in result.records)
    _check_ownership(captured["ps"], captured["cluster"])
    metrics = captured["cluster"].metrics
    per_kind = sum(
        value for name, value in metrics.counters().items()
        if name.startswith("access.") and name != "access.total"
    )
    assert metrics.get("access.total") == per_kind


def test_all_system_names_still_build():
    """Guard: every registered system builds against a live task."""
    task = make_task("matrix_factorization", scale="test")
    for system in SYSTEM_NAMES:
        nodes = 1 if system == "single-node" else 2
        cluster = Cluster(ClusterConfig(num_nodes=nodes, workers_per_node=2,
                                        network=_network()))
        store = task.create_store(seed=0)
        ps = make_ps_factory(system)(store, cluster, task)
        assert ps.store is store


# ------------------------------------------------------- fault-schedule ops
def _check_active_ownership(ps, cluster) -> None:
    """Every key is owned by exactly one *active* node (post-failover form)."""
    owned = [np.asarray(ps.keys_owned_by(node_id), dtype=np.int64)
             for node_id in cluster.active_nodes]
    everything = np.concatenate(owned) if owned else np.empty(0, np.int64)
    np.testing.assert_array_equal(np.sort(everything),
                                  np.arange(ps.store.num_keys))


def _run_fault_sequence(architecture: str, seed: int, num_ops: int):
    """Random pulls/pushes interleaved with crash/restore fault schedules.

    Drives the :class:`~repro.faults.controller.MembershipController` standalone
    (no scenario runtime) against every architecture, checking after every
    step that the partition over the *active* nodes covers the key space
    exactly once and that no simulated clock moved backwards. Architectures
    without native failover waiting go through the dead-owner gate;
    a :class:`DeadOwnerError` is a tolerated outcome, never a crash.
    """
    from repro.faults import DeadOwnerError, FaultConfig, MembershipController
    from repro.scenarios import ScenarioParameterServer

    ps, cluster, store = _build(architecture)
    controller = MembershipController(
        ps, FaultConfig(recovery="checkpoint", checkpoint_interval=0.002)
    )
    access = ps
    if not getattr(ps, "native_failover_wait", False):
        access = ScenarioParameterServer(ps)
        access.controller = controller
    rng = np.random.default_rng(seed)
    watcher = _ClockWatcher(cluster)
    workers = list(cluster.workers())
    dropped = 0

    for step in range(num_ops):
        # Fault schedule: occasional crashes and restores of nodes 1..N-1.
        roll = rng.random()
        now = cluster.time
        if roll < 0.08:
            victim = int(rng.integers(1, cluster.num_nodes))
            if victim not in cluster.failed \
                    and len(cluster.failed) + 1 < cluster.num_nodes:
                controller.crash_node(victim, now=now)
                _check_active_ownership(ps, cluster)
        elif roll < 0.16 and controller.down:
            node_id = sorted(controller.down)[int(
                rng.integers(len(controller.down))
            )]
            controller.restore_node(node_id, now=now)
            _check_active_ownership(ps, cluster)
        controller.on_round(now)

        worker = workers[int(rng.integers(len(workers)))]
        if worker.node_id in cluster.failed:
            continue  # a dead node's workers issue nothing
        keys = _random_keys(rng)
        try:
            if rng.random() < 0.5:
                values = access.pull(worker, keys)
                assert values.shape == (len(keys), VALUE_LENGTH)
            else:
                deltas = rng.normal(0, 0.01,
                                    size=(len(keys), VALUE_LENGTH)).astype(
                    np.float32
                )
                access.push(worker, keys, deltas)
        except DeadOwnerError:
            dropped += 1  # tolerated: the epoch loop drops the chunk
        watcher.check()
        _check_active_ownership(ps, cluster)

    # Quiesce: restore everything and re-check the final partition.
    for node_id in sorted(controller.down):
        controller.restore_node(node_id, now=cluster.time)
    assert not cluster.failed
    _check_active_ownership(ps, cluster)
    watcher.check()
    metrics = cluster.metrics
    assert metrics.get("faults.restores") <= metrics.get("faults.crashes")
    return dropped


FAULT_ARCHITECTURES = [
    "classic", "relocation", "replication-ssp", "replication-essp", "nups",
]


@pytest.mark.parametrize("architecture", FAULT_ARCHITECTURES)
@pytest.mark.parametrize("seed", [11, 12])
def test_fault_schedules_small(architecture, seed):
    _run_fault_sequence(architecture, seed, num_ops=120)


@pytest.mark.slow
@pytest.mark.parametrize("architecture", FAULT_ARCHITECTURES)
@pytest.mark.parametrize("seed", [13, 14, 15])
def test_fault_schedules_large(architecture, seed):
    _run_fault_sequence(architecture, seed, num_ops=1000)


# --------------------------------------------------- membership-change ops
def _store_sum(store) -> float:
    values = store.get(np.arange(store.num_keys, dtype=np.int64))
    return float(np.asarray(values, dtype=np.float64).sum())


def _run_membership_sequence(architecture: str, seed: int, num_ops: int):
    """Random accesses interleaved with live joins, leaves, and partitions.

    Drives the joins and leaves of the
    :class:`~repro.faults.MembershipController` and the partition guard
    standalone against every architecture, checking after every step that

    * every key is owned by exactly one *active* node (single active owner
      survives arbitrary add/remove/partition/heal interleavings),
    * no simulated clock ever moves backwards, and
    * no acknowledged update is lost: after quiescing (healing any open
      partition, flushing epoch state), the store's total mass equals the
      initial mass plus every successfully issued push delta. Planned
      removals drain, partitions buffer-and-replay — nothing acknowledged
      may disappear.
    """
    from repro.elastic import PartitionState
    from repro.faults import MembershipController, PartitionedOwnerError
    from repro.scenarios import ScenarioParameterServer

    ps, cluster, store = _build(architecture)
    controller = MembershipController(ps)
    access = ScenarioParameterServer(ps)
    rng = np.random.default_rng(seed)
    watcher = _ClockWatcher(cluster)
    workers = list(cluster.workers())  # the launch-time worker pool is fixed
    initial_mass = _store_sum(store)
    pushed_mass = 0.0
    deferred = 0
    partition = None

    for _ in range(num_ops):
        roll = rng.random()
        now = cluster.time
        if partition is None and roll < 0.05 \
                and len(cluster.active_nodes) < 6:
            controller.scale_out(now)
            _check_active_ownership(ps, cluster)
        elif partition is None and roll < 0.10:
            eligible = [n for n in cluster.active_nodes if n != 0]
            if len(eligible) >= 2:
                victim = int(eligible[int(rng.integers(len(eligible)))])
                summary = controller.scale_in(victim, now)
                assert summary["lost_updates"] == 0
                _check_active_ownership(ps, cluster)
        elif partition is None and roll < 0.14:
            eligible = [n for n in cluster.active_nodes if n != 0]
            if eligible and len(cluster.active_nodes) >= 3:
                minority = [int(eligible[int(rng.integers(len(eligible)))])]
                partition = PartitionState(ps, minority, now)
                access.partition = partition
        elif partition is not None and roll < 0.20:
            access.partition = None
            partition.heal(cluster.time)
            partition = None
            _check_active_ownership(ps, cluster)

        worker = workers[int(rng.integers(len(workers)))]
        if worker.node_id in cluster.failed \
                or worker.node_id in cluster.removed:
            continue  # paused: its shard would have been redistributed
        keys = _random_keys(rng)
        try:
            if rng.random() < 0.5:
                values = access.pull(worker, keys)
                assert values.shape == (len(keys), VALUE_LENGTH)
            else:
                deltas = rng.normal(
                    0, 0.01, size=(len(keys), VALUE_LENGTH)
                ).astype(np.float32)
                access.push(worker, keys, deltas)
                # The push was acknowledged (buffered counts: a minority
                # push is replayed at heal, never dropped).
                pushed_mass += float(deltas.astype(np.float64).sum())
        except PartitionedOwnerError:
            deferred += 1  # admission control: the access never happened
        watcher.check()
        _check_active_ownership(ps, cluster)

    # Quiesce: heal any open partition, flush all buffered state.
    if partition is not None:
        access.partition = None
        partition.heal(cluster.time)
    ps.finish_epoch()
    _check_active_ownership(ps, cluster)
    watcher.check()
    final_mass = _store_sum(store)
    assert final_mass == pytest.approx(initial_mass + pushed_mass, abs=0.05), \
        "an acknowledged update was lost across membership changes"
    metrics = cluster.metrics
    assert metrics.get("elastic.lost_updates") == 0
    assert metrics.get("elastic.nodes_removed") == metrics.get("elastic.scale_ins")
    return deferred


@pytest.mark.parametrize("architecture", FAULT_ARCHITECTURES)
@pytest.mark.parametrize("seed", [21, 22])
def test_membership_sequences_small(architecture, seed):
    _run_membership_sequence(architecture, seed, num_ops=120)


@pytest.mark.slow
@pytest.mark.parametrize("architecture", FAULT_ARCHITECTURES)
@pytest.mark.parametrize("seed", [23, 24, 25])
def test_membership_sequences_large(architecture, seed):
    _run_membership_sequence(architecture, seed, num_ops=1000)
