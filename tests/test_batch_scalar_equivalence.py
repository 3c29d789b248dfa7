"""Fold/scalar equivalence suite for per-call charging.

Every architecture charges a ``pull``/``push`` as a one-call chunk of its
point charger's fold; the per-key scalar reference is the test-only oracle
subclass of :mod:`scalar_oracle`. The fold performs the reference's clock
additions in the same order, so the two must produce *bit-identical*
simulated clocks and *identical* metrics counters on any workload. This
suite replays one deterministic workload — with duplicate keys, relocation
waits, stale replicas and sampling — on both, per PS architecture, and
asserts exact equality; the replication cases also drive call lists of
several calls through the charger against the oracle's calls one by one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import CategoricalDistribution
from repro.core.sampling.manager import SamplingConfig
from repro.core.sampling.schemes import SchemeConfig
from repro.ps.chunks import StorageConfig
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.rounds import PULL, PUSH
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel
from scalar_oracle import oracle_of

NUM_KEYS = 160
VALUE_LENGTH = 4
NUM_NODES = 3
WORKERS_PER_NODE = 2
ROUNDS = 5
CHUNK = 12


def _make_cluster() -> Cluster:
    return Cluster(ClusterConfig(num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE))


def _make_store() -> ParameterStore:
    return ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=7, init_scale=0.1)


def _workload(seed: int = 3):
    """A deterministic per-(round, worker) op list with skewed, duplicate keys."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, NUM_KEYS + 1) ** 1.2
    probs = weights / weights.sum()
    ops = []
    for round_id in range(ROUNDS):
        for node in range(NUM_NODES):
            for worker in range(WORKERS_PER_NODE):
                keys = rng.choice(NUM_KEYS, size=CHUNK, p=probs).astype(np.int64)
                deltas = rng.normal(0, 0.01, size=(CHUNK, VALUE_LENGTH)).astype(np.float32)
                ops.append((round_id, node, worker, keys, deltas))
    return ops


def _drive(ps, cluster, sampling: bool = False, dist_id: int | None = None):
    """Replay the workload: localize-ahead, pull, push, clock, sampling.
    Returns the pulled values and the :func:`_replica_state` before every
    clock advance."""
    pulled = []
    replicas = []
    for _, node, worker_id, keys, deltas in _workload():
        worker = cluster.worker(node, worker_id)
        # Localize the chunk right before accessing it so that in-flight
        # relocations force arrival waits on the batch path.
        ps.localize(worker, keys)
        pulled.append(ps.pull(worker, keys))
        ps.push(worker, keys, deltas)
        if sampling and dist_id is not None:
            handle = ps.prepare_sample(worker, dist_id, 6)
            result = ps.pull_sample(worker, handle, 4)
            pulled.append(result.values)
            ps.pull_sample(worker, handle)  # drain the rest
        replicas.append(_replica_state(ps))  # buffered, before the flush
        ps.advance_clock(worker)
        ps.housekeeping(cluster.time)
    ps.finish_epoch()
    return pulled, replicas


def _replica_state(ps):
    """Per node of a ReplicationPS: worker clocks, replica values, mask and
    clock, update values and mask, and the keys a flush would read (as a
    set: the per-call path records one batch per push); ``None`` for any
    other PS."""
    if not isinstance(ps, ReplicationPS):
        return None
    all_keys = np.arange(ps.store.num_keys, dtype=np.int64)
    return {
        node: [state.worker_clocks] + [
            getattr(state, name).take(all_keys, axis=0).tobytes()
            for name in ("replica_values", "replica_mask", "replica_clock",
                         "update_values", "update_mask")
        ] + [set(np.concatenate(state.pending_updates).tolist())
             if state.pending_updates else set()]
        for node, state in ps._nodes.items()
    }


def _assert_identical(cluster_a: Cluster, cluster_b: Cluster,
                      pulled_a, pulled_b, store_a, store_b,
                      replicas_a=None, replicas_b=None) -> None:
    for node_a, node_b in zip(cluster_a.nodes, cluster_b.nodes):
        for clock_a, clock_b in zip(node_a.worker_clocks, node_b.worker_clocks):
            assert clock_a.now == clock_b.now  # bit-identical, no tolerance
        assert node_a.background_clock.now == node_b.background_clock.now
        assert node_a.server_clock.now == node_b.server_clock.now
    assert cluster_a.metrics.counters() == cluster_b.metrics.counters()
    for values_a, values_b in zip(pulled_a, pulled_b):
        np.testing.assert_array_equal(values_a, values_b)
    every = np.arange(store_a.num_keys)
    np.testing.assert_array_equal(store_a.get(every), store_b.get(every))
    assert replicas_a == replicas_b


def _run_pair(factory, sampling: bool = False):
    results = {}
    for batch in (True, False):
        cluster = _make_cluster()
        store = _make_store()
        ps = factory(store, cluster)
        if not batch:
            oracle_of(ps)
        dist_id = None
        if sampling:
            weights = 1.0 / np.arange(1, NUM_KEYS + 1) ** 0.9
            dist_id = ps.register_distribution(
                CategoricalDistribution(weights), ConformityLevel.BOUNDED
            )
        pulled, replicas = _drive(ps, cluster, sampling=sampling,
                                  dist_id=dist_id)
        results[batch] = (cluster, pulled, store, replicas)
    cluster_b, pulled_b, store_b, replicas_b = results[True]
    cluster_s, pulled_s, store_s, replicas_s = results[False]
    _assert_identical(cluster_b, cluster_s, pulled_b, pulled_s, store_b,
                      store_s, replicas_b, replicas_s)


class TestRelocationEquivalence:
    def test_relocation_batch_matches_scalar(self):
        _run_pair(RelocationPS)

    def test_relocation_disabled_batch_matches_scalar(self):
        _run_pair(lambda store, cluster: RelocationPS(
            store, cluster, relocation_enabled=False))


class TestReplicationEquivalence:
    @pytest.mark.parametrize("protocol", [ReplicationProtocol.SSP,
                                          ReplicationProtocol.ESSP])
    @pytest.mark.parametrize("staleness", [0, 2])
    def test_replication_batch_matches_scalar(self, protocol, staleness):
        _run_pair(lambda store, cluster: ReplicationPS(
            store, cluster, protocol=protocol, staleness=staleness))


class TestNuPSEquivalence:
    @staticmethod
    def _factory(scheme_override=None):
        def build(store, cluster):
            plan = ManagementPlan(NUM_KEYS, np.arange(8, dtype=np.int64))
            config = SamplingConfig(
                scheme_config=SchemeConfig(pool_size=16, use_frequency=2),
                scheme_override=scheme_override,
            )
            return NuPS(store, cluster, plan=plan, sampling_config=config,
                        sync_interval=1e-4, seed=5)
        return build

    def test_nups_batch_matches_scalar(self):
        _run_pair(self._factory(), sampling=True)

    @pytest.mark.parametrize("scheme", ["independent", "sample_reuse",
                                        "sample_reuse_postponing", "local"])
    def test_nups_schemes_batch_matches_scalar(self, scheme):
        _run_pair(self._factory(scheme_override=scheme), sampling=True)


class TestLargeBatchEquivalence:
    """The one loop against the scalar reference at any batch size: above the
    former 64-key tier boundary, with heavy key repeats, on both backends."""

    @staticmethod
    def _drive_large(ps, cluster, size):
        rng = np.random.default_rng(9)
        replicas = []
        weights = 1.0 / np.arange(1, NUM_KEYS + 1) ** 1.1
        probs = weights / weights.sum()
        for _ in range(3):
            for node in range(NUM_NODES):
                for worker_id in range(WORKERS_PER_NODE):
                    worker = cluster.worker(node, worker_id)
                    keys = rng.choice(NUM_KEYS, size=size, p=probs).astype(np.int64)
                    deltas = rng.normal(0, 0.01, size=(size, VALUE_LENGTH)) \
                        .astype(np.float32)
                    if isinstance(ps, NuPS):  # the background-thread hint
                        ps.localize_async((node + 1) % NUM_NODES, keys[::-1])
                    ps.localize(worker, keys)
                    ps.pull(worker, keys)
                    ps.push(worker, keys, deltas)
                    replicas.append(_replica_state(ps))
                    ps.advance_clock(worker)
        ps.finish_epoch()
        return replicas

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("size", [65, 130, 1000])
    @pytest.mark.parametrize("factory", [
        RelocationPS,
        lambda store, cluster: ReplicationPS(store, cluster, staleness=1),
        lambda store, cluster: NuPS(
            store, cluster,
            plan=ManagementPlan(NUM_KEYS, np.arange(8, dtype=np.int64)),
            sync_interval=1e-4, seed=5,
        ),
        lambda store, cluster: ReplicationPS(
            store, cluster, protocol=ReplicationProtocol.ESSP, staleness=1),
    ])
    def test_large_batches_match_scalar(self, factory, size, backend):
        results = {}
        for batch in (True, False):
            cluster = _make_cluster()
            store = ParameterStore(
                NUM_KEYS, VALUE_LENGTH, seed=7, init_scale=0.1,
                storage=StorageConfig(backend=backend, chunk_rows=16))
            ps = factory(store, cluster)
            if not batch:
                oracle_of(ps)
            results[batch] = (cluster, store,
                              self._drive_large(ps, cluster, size))
        cluster_b, store_b, replicas_b = results[True]
        cluster_s, store_s, replicas_s = results[False]
        _assert_identical(cluster_b, cluster_s, [], [], store_b, store_s,
                          replicas_b, replicas_s)


class TestBatchDuplicatesAndWaits:
    """Targeted micro-cases that stress the order-sensitive corners."""

    def test_duplicate_keys_in_one_batch(self):
        for batch in (True, False):
            cluster = _make_cluster()
            store = _make_store()
            ps = RelocationPS(store, cluster)
            if not batch:
                oracle_of(ps)
            worker = cluster.worker(0, 0)
            keys = np.array([5, 5, 150, 150, 5, 42], dtype=np.int64)
            ps.localize(worker, keys)
            ps.pull(worker, keys)
            if batch:
                reference = (
                    cluster.metrics.counters(),
                    worker.clock.now,
                    cluster.node(0).background_clock.now,
                )
            else:
                assert cluster.metrics.counters() == reference[0]
                assert worker.clock.now == reference[1]
                assert cluster.node(0).background_clock.now == reference[2]

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("protocol", list(ReplicationProtocol))
    def test_replication_duplicate_keys_in_one_batch(self, protocol, backend):
        """A stale key twice in one ``pull`` refreshes once, at its first
        position, over its buffered update; a missing key twice in one
        ``push`` is created once. Remote and node-local keys of both."""
        # Costs whose clock sums depend on the order of the additions (with
        # the default ones, these few keys would sum alike in any order).
        network = NetworkModel(latency=0.3e-3 / 7, local_access_cost=0.1e-6 / 3)
        runs = []
        for batch in (True, False):
            cluster = Cluster(ClusterConfig(
                num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE,
                network=network))
            store = ParameterStore(
                NUM_KEYS, VALUE_LENGTH, seed=7, init_scale=0.1,
                storage=StorageConfig(backend=backend, chunk_rows=16))
            ps = ReplicationPS(store, cluster, protocol=protocol, staleness=0)
            if not batch:
                oracle_of(ps)
            worker = cluster.worker(0, 0)
            local, remote = ps.partitioner.keys_of(0), ps.partitioner.keys_of(2)
            stale = np.array([remote[0], local[0]])
            ps.pull(worker, stale)
            ps.push(worker, stale, np.full((2, VALUE_LENGTH), 0.5, np.float32))
            # One worker of two clocks: no flush, no eager refresh.
            ps.advance_clock(worker)
            pulled = ps.pull(worker, [stale[0], stale[1], stale[0], stale[1]])
            missing = [remote[1], local[1], remote[1], local[1]]
            ps.push(worker, missing, np.ones((4, VALUE_LENGTH), np.float32))
            runs.append((worker.clock.now, cluster.node(2).server_clock.now,
                         cluster.metrics.counters(), pulled.tobytes(),
                         _replica_state(ps)))
            assert cluster.metrics.get("access.pull.remote") == 3
            assert cluster.metrics.get("access.pull.local_server") == 3
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("protocol", list(ReplicationProtocol))
    def test_replication_call_list_matches_the_calls(self, protocol, backend):
        """One chunk of calls no task issues, through the charger, against
        the oracle's calls one by one: a ``push`` of keys without a replica
        (each created once, before its intra-process message), then a
        ``pull`` of a stale key twice, a pull of the created keys and a
        push of the refreshed ones. Remote and node-local keys of each."""
        network = NetworkModel(latency=0.3e-3 / 7, local_access_cost=0.1e-6 / 3)
        runs = []
        for oracle in (False, True):
            cluster = Cluster(ClusterConfig(
                num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE,
                network=network))
            store = ParameterStore(
                NUM_KEYS, VALUE_LENGTH, seed=7, init_scale=0.1,
                storage=StorageConfig(backend=backend, chunk_rows=16))
            ps = ReplicationPS(store, cluster, protocol=protocol, staleness=0)
            if oracle:
                oracle_of(ps)
            worker = cluster.worker(0, 0)
            local, remote = ps.partitioner.keys_of(0), ps.partitioner.keys_of(2)
            stale = np.array([remote[0], local[0]])
            ps.pull(worker, stale)
            ps.push(worker, stale, np.full((2, VALUE_LENGTH), 0.5, np.float32))
            # One worker of two clocks: no flush, no eager refresh.
            ps.advance_clock(worker)
            missing = np.array([remote[1], local[1], remote[2], local[2],
                                remote[3], local[3]])
            keys = np.concatenate([missing, missing, stale, stale])
            calls = [(PUSH, 0, 12, 1e-6), (PULL, 12, 16, 2e-6),
                     (PULL, 0, 6, 0.0), (PUSH, 12, 14, 3e-6)]
            deltas = {0: np.ones((12, VALUE_LENGTH), np.float32),
                      3: np.full((2, VALUE_LENGTH), 0.25, np.float32)}
            seen = []
            if oracle:
                for call, (kind, lo, hi, compute) in enumerate(calls):
                    if kind == PULL:
                        seen.append(ps.pull(worker, keys[lo:hi]))
                    else:
                        ps.push(worker, keys[lo:hi], deltas[call])
                    worker.charge_compute(compute)
            else:
                charger = ps.direct_point_charger()
                charger.charge_chunk(worker, keys, calls)
                for call, (kind, lo, hi, _) in enumerate(calls):
                    if kind == PULL:
                        seen.append(charger.read(lo, hi))
                    else:
                        charger.add(lo, hi, deltas[call])
                charger.finish()
            runs.append((worker.clock.now, cluster.node(2).server_clock.now,
                         cluster.metrics.counters(),
                         [values.tobytes() for values in seen],
                         _replica_state(ps)))
            assert cluster.metrics.get("access.pull.remote") == 5
            assert cluster.metrics.get("access.pull.local_server") == 5
        assert runs[0] == runs[1]

    def test_wait_happens_once_per_relocation(self):
        cluster = _make_cluster()
        store = _make_store()
        ps = RelocationPS(store, cluster)
        worker = cluster.worker(0, 0)
        remote = ps.partitioner.keys_of(2)[:4]
        ps.localize(worker, remote)
        ps.pull(worker, remote)
        assert cluster.metrics.get("relocation.waits") >= 1
        waits = cluster.metrics.get("relocation.waits")
        ps.pull(worker, remote)  # arrived now: no further waits
        assert cluster.metrics.get("relocation.waits") == waits
