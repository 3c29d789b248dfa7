"""Golden ownership-transition test: crash, scale and restore interleaved.

The fault and elasticity controllers drive four architectures, on the dense
and the sparse storage backend, through one sequence in which membership
changes while a node is down — the case in which the live owner table and the
planned (pre-fault) table diverge:

    crash 1 -> scale-out -> crash 2 -> restore 1 -> scale-in 0 -> restore 2

After every step the test digests the home map (``partitioner.owners`` over
the key space), ``keys_owned_by`` of every node, the keys the step moved, the
transition counters and — for the relocation family — ``current_owner`` and
``arrival_time``. The expected digests are literals, pinned from the
implementation that predates the single ownership map, so any change in
where a key lives after any step fails the test.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.elastic import ElasticityController
from repro.faults import FaultController
from repro.ps.chunks import StorageConfig
from repro.ps.classic import ClassicPS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.network import NetworkModel

NUM_KEYS = 203
VALUE_LENGTH = 2
STEPS = ("crash 1", "scale-out", "crash 2", "restore 1", "scale-in 0",
         "restore 2")


def _build(system: str, backend: str):
    cluster = Cluster(ClusterConfig(
        num_nodes=3, workers_per_node=2,
        network=NetworkModel(latency=10e-6, bandwidth=1e9,
                             message_handling_cost=1e-6,
                             local_access_cost=1e-7, compute_per_step=20e-6)))
    storage = StorageConfig(backend=backend, chunk_rows=16) \
        if backend == "sparse" else None
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=3, init_scale=0.1,
                           storage=storage)
    if system == "classic":
        ps = ClassicPS(store, cluster)
    elif system == "ssp":
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.SSP,
                           staleness=1)
    elif system == "lapse":
        ps = RelocationPS(store, cluster)
    else:
        ps = NuPS(store, cluster,
                  plan=ManagementPlan(NUM_KEYS, np.arange(0, NUM_KEYS, 9)),
                  sync_interval=0.0005)
    # Some traffic first, so relocated copies and buffered updates exist.
    # It stays below key 48: on the sparse backend the owner chunks above
    # stay untouched until a transition writes them, so their fill (the
    # static partition, never the live map) is read too.
    for node in range(3):
        worker = cluster.worker(node, 0)
        keys = np.arange(node, 48, 3, dtype=np.int64)
        ps.localize(worker, keys)
        ps.push(worker, keys, np.full((len(keys), VALUE_LENGTH), 0.5,
                                      dtype=np.float32))
    return ps, cluster


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(part.dtype.str.encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
        sha.update(b"|")
    return sha.hexdigest()[:16]


def _homes(ps) -> np.ndarray:
    return np.asarray(ps.partitioner.owners(np.arange(NUM_KEYS)),
                      dtype=np.int64)


def _snapshot(ps, cluster, moved, reported) -> str:
    all_keys = np.arange(NUM_KEYS, dtype=np.int64)
    owned = [np.asarray(ps.keys_owned_by(node), dtype=np.int64)
             for node in range(cluster.num_nodes)]
    counters = sorted((name, value)
                      for name, value in cluster.metrics.counters().items()
                      if name.startswith(("faults.", "elastic.")))
    parts = [_homes(ps), *owned, moved, reported, counters]
    if isinstance(ps, RelocationPS):
        parts += [np.asarray(ps.current_owner.take(all_keys)),
                  np.asarray(ps.arrival_time.take(all_keys))]
    return _digest(*parts)


def transition_digests(system: str, backend: str) -> list:
    """One digest per step of :data:`STEPS`."""
    ps, cluster = _build(system, backend)
    faults = FaultController(ps)
    elastic = ElasticityController(ps)
    digests = []
    for step in STEPS:
        before = _homes(ps)
        reported = None
        if step == "crash 1":
            faults.crash_node(1, now=0.001)
            reported = np.flatnonzero(faults.moved_mask(1))
        elif step == "scale-out":
            reported = elastic.scale_out(now=0.002)
        elif step == "crash 2":
            faults.crash_node(2, now=0.003)
            reported = np.flatnonzero(faults.moved_mask(2))
        elif step == "restore 1":
            faults.restore_node(1, now=0.05)
        elif step == "scale-in 0":
            reported = sorted(elastic.scale_in(0, now=0.06).items())
        else:
            faults.restore_node(2, now=0.07)
        moved = np.flatnonzero(before != _homes(ps))
        digests.append(_snapshot(ps, cluster, moved, reported))
    return digests


#: Per system, one digest per step; both backends must produce them.
EXPECTED = {
    "classic": ["7060c88396d27bef", "31489b8747bf4188", "05753793852ac660",
                "b2be39cbb16397f1", "c392968e19d41685", "94beb8d40c2c0264"],
    "ssp": ["7060c88396d27bef", "31489b8747bf4188", "05753793852ac660",
            "b2be39cbb16397f1", "be295b43c4eb4a17", "18cad5e65d1b16a2"],
    "lapse": ["e746beb22378bfd1", "c97de2753533d98f", "fc02bab1bc801b2e",
              "428e85b50c130ad2", "dd7e4a2054b46509", "4c2122e22fe948e7"],
    "nups": ["50998216e30078f2", "c0bb52cf0a5d3410", "0984eabb0cfdff06",
             "a3e45ba3c9ac0211", "757fb3902914c070", "ecee6e0b070484de"],
}


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("system", sorted(EXPECTED))
def test_transition_sequence_matches_golden_digests(system, backend):
    assert transition_digests(system, backend) == EXPECTED[system]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("system", sorted(EXPECTED))
def test_no_key_routes_at_a_removed_node(system, backend, seed):
    """Seeded interleavings of crash, restore, scale-out and scale-in.

    After every step neither the home map nor the relocation family's
    ``current_owner`` routes a key at a removed node. That is why no access
    needs a removed-owner check: a removed node never recovers, and the
    elasticity controller checks the same once, at the scale-in.
    """
    ps, cluster = _build(system, backend)
    faults = FaultController(ps)
    elastic = ElasticityController(ps)
    rng = np.random.default_rng(seed)
    all_keys = np.arange(NUM_KEYS, dtype=np.int64)
    counts = {"crash": 0, "restore": 0, "scale-out": 0, "scale-in": 0}
    for step in range(40):
        now = 0.001 * (step + 1)
        live = cluster.active_nodes
        action = ("crash", "restore", "scale-out", "scale-in")[
            int(rng.integers(4))]
        if action == "crash" and len(live) > 1:
            faults.crash_node(int(rng.choice(live)), now)
        elif action == "restore" and faults.down:
            faults.restore_node(int(rng.choice(sorted(faults.down))), now)
        elif action == "scale-out" and cluster.num_nodes < 8:
            elastic.scale_out(now)
        elif action == "scale-in" and len(live) > 1:
            elastic.scale_in(int(rng.choice(live)), now)
        else:
            continue
        counts[action] += 1
        removed = sorted(cluster.removed)
        assert not np.isin(_homes(ps), removed).any(), (step, action)
        if isinstance(ps, RelocationPS):
            owners = np.asarray(ps.current_owner.take(all_keys))
            assert not np.isin(owners, removed).any(), (step, action)
    assert min(counts.values()) > 0, counts
