"""Golden ownership-transition test: crash, scale and restore interleaved.

The membership controller drives four architectures, on the dense and the
sparse storage backend, through one sequence in which membership changes
while a node is down — the case in which the live owner table and the
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
from repro.faults import MembershipController
from repro.faults.controller import MEMBERSHIP_DELAY
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
    elif system in ("ssp", "essp"):
        ps = ReplicationPS(store, cluster,
                           protocol=ReplicationProtocol(system), staleness=1)
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
    controller = MembershipController(ps)
    digests = []
    for step in STEPS:
        before = _homes(ps)
        reported = None
        if step == "crash 1":
            controller.crash_node(1, now=0.001)
            reported = np.flatnonzero(controller.moved_mask(1))
        elif step == "scale-out":
            reported = controller.scale_out(now=0.002)
        elif step == "crash 2":
            controller.crash_node(2, now=0.003)
            reported = np.flatnonzero(controller.moved_mask(2))
        elif step == "restore 1":
            controller.restore_node(1, now=0.05)
        elif step == "scale-in 0":
            reported = sorted(controller.scale_in(0, now=0.06).items())
        else:
            controller.restore_node(2, now=0.07)
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
    membership controller checks the same once, at the scale-in.
    """
    ps, cluster = _build(system, backend)
    controller = MembershipController(ps)
    rng = np.random.default_rng(seed)
    all_keys = np.arange(NUM_KEYS, dtype=np.int64)
    counts = {"crash": 0, "restore": 0, "scale-out": 0, "scale-in": 0}
    for step in range(40):
        now = 0.001 * (step + 1)
        live = cluster.active_nodes
        action = ("crash", "restore", "scale-out", "scale-in")[
            int(rng.integers(4))]
        if action == "crash" and len(live) > 1:
            controller.crash_node(int(rng.choice(live)), now)
        elif action == "restore" and controller.down:
            controller.restore_node(int(rng.choice(sorted(controller.down))), now)
        elif action == "scale-out" and cluster.num_nodes < 8:
            controller.scale_out(now)
        elif action == "scale-in" and len(live) > 1:
            controller.scale_in(int(rng.choice(live)), now)
        else:
            continue
        counts[action] += 1
        removed = sorted(cluster.removed)
        assert not np.isin(_homes(ps), removed).any(), (step, action)
        if isinstance(ps, RelocationPS):
            owners = np.asarray(ps.current_owner.take(all_keys))
            assert not np.isin(owners, removed).any(), (step, action)
    assert min(counts.values()) > 0, counts


# --------------------------------------------------------------------------
# Crash and planned leave are one departure step with different inputs.
# --------------------------------------------------------------------------

TWIN_SYSTEMS = ("classic", "ssp", "essp", "lapse", "nups")
LEAVING = 1
NOW = 0.01
#: The crash's detection timeout and the leave's announcement delay: one
#: constant.
DELAY = MEMBERSHIP_DELAY


def _departed(system: str, backend: str, how: str):
    """A freshly built PS after ``how`` ("crash", "leave", "drain" — the
    leave's drain alone — or "none") of node :data:`LEAVING` at :data:`NOW`,
    with every ``_rehome`` call recorded."""
    ps, cluster = _build(system, backend)
    controller = MembershipController(ps)
    rehomed = []
    rehome = ps._rehome

    def recording_rehome(keys, nodes, available_at):
        rehomed.append((np.array(keys), list(nodes), available_at))
        rehome(keys, nodes, available_at)

    ps._rehome = recording_rehome
    if how == "crash":
        controller.crash_node(LEAVING, NOW)
    elif how == "leave":
        controller.scale_in(LEAVING, NOW)
    elif how == "drain":
        ps.release_node(LEAVING, NOW)
    return ps, cluster, rehomed


def _clocks(cluster) -> dict:
    return {(node.node_id, name): clock.now
            for node in cluster.nodes
            for name, clock in [("background", node.background_clock),
                                ("server", node.server_clock)]
            + [(f"worker {i}", c) for i, c in enumerate(node.worker_clocks)]}


def _non_transition_counters(cluster) -> dict:
    return {name: value for name, value in cluster.metrics.counters().items()
            if not name.startswith(("faults.", "elastic."))}


def _values(ps) -> np.ndarray:
    return ps.store.get(np.arange(NUM_KEYS, dtype=np.int64))


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("system", TWIN_SYSTEMS)
def test_crash_and_planned_leave_share_one_departure(system, backend):
    """From one state, a crash and a planned leave of the same node (both
    announced after ``MEMBERSHIP_DELAY``) hand over the same keys to the same
    survivors at the same time and charge the survivors alike. They differ
    only in what the leaving node does: a crashed node sends nothing, a
    leaving one drains its buffered updates and then sends the state — its
    background thread carries the whole transfer, counted under
    ``network.*`` — while a crash repairs the lost keys instead."""
    base_ps, base = _departed(system, backend, "none")[:2]
    crash_ps, crash, crash_rehomed = _departed(system, backend, "crash")
    leave_ps, leave, leave_rehomed = _departed(system, backend, "leave")
    drain_ps, drain = _departed(system, backend, "drain")[:2]

    # The live ownership table, the _rehome targets and available_at.
    np.testing.assert_array_equal(_homes(crash_ps), _homes(leave_ps))
    assert len(crash_rehomed) == len(leave_rehomed) == 1
    (keys, nodes, available_at), (leave_keys, leave_nodes, leave_at) = \
        crash_rehomed[0], leave_rehomed[0]
    assert len(keys) > 0
    np.testing.assert_array_equal(keys, leave_keys)
    assert nodes == leave_nodes == [0, 2]
    assert available_at == leave_at
    if isinstance(crash_ps, RelocationPS):
        for name in ("current_owner", "arrival_time"):
            np.testing.assert_array_equal(
                np.asarray(getattr(crash_ps, name).take(np.arange(NUM_KEYS))),
                np.asarray(getattr(leave_ps, name).take(np.arange(NUM_KEYS))))
    assert crash.metrics.get("faults.recovery_time") \
        == leave.metrics.get("elastic.migration_time") \
        == available_at - NOW
    assert crash.metrics.get("faults.keys_recovered_from_replicas") \
        + crash.metrics.get("faults.keys_recovered_from_checkpoint") \
        == leave.metrics.get("elastic.migrated_keys") == len(keys)

    # Every clock but the leaving node's background thread agrees — the
    # survivors' split of the transfer included, which moved them.
    hub = (LEAVING, "background")
    crash_clocks, leave_clocks = _clocks(crash), _clocks(leave)
    assert crash_clocks.pop(hub) == _clocks(base)[hub]  # a crash sends nothing
    payload = len(keys) * leave_ps.store.value_bytes()
    transfer = leave.network.transfer_cost(payload)
    assert leave_clocks.pop(hub) \
        == max(NOW, _clocks(drain)[hub]) + transfer
    assert crash_clocks == leave_clocks
    assert crash_clocks[(0, "background")] > _clocks(base)[(0, "background")]

    # Counters: a crash counts only faults.*; a leave counts its drain, then
    # one message to each survivor plus the hub's and the payload.
    assert _non_transition_counters(crash) == _non_transition_counters(base)
    expected = _non_transition_counters(drain)
    expected["network.messages"] += 1 + len(nodes)
    expected["network.bytes"] += payload
    assert _non_transition_counters(leave) == expected

    # Values: the crash rewrites only the lost keys; the leave's only value
    # change is its drain.
    kept = np.setdiff1d(np.arange(NUM_KEYS), keys)
    np.testing.assert_array_equal(_values(crash_ps)[kept],
                                  _values(base_ps)[kept])
    np.testing.assert_array_equal(_values(leave_ps), _values(drain_ps))
    drained = int(np.any(_values(drain_ps) != _values(base_ps), axis=1).sum())
    assert leave.metrics.get("elastic.drained_updates") == drained
    # SSP/ESSP buffer every push; node 1 pushes none of NuPS's replicated
    # keys (the multiples of 9), and the other systems buffer nothing.
    assert (drained > 0) == (system in ("ssp", "essp"))
    assert leave.metrics.get("elastic.lost_updates") == 0


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("system", TWIN_SYSTEMS)
def test_join_then_leave_round_trip(system, backend):
    """A node that joins and then leaves again hands back exactly the keys
    it took over; both transfers take one arrival/departure cost each, and
    nothing it never held is drained."""
    ps, cluster = _build(system, backend)
    controller = MembershipController(ps)
    before = _non_transition_counters(cluster)
    node = controller.scale_out(NOW)
    taken = np.sort(np.asarray(ps.keys_owned_by(node), dtype=np.int64))
    assert node == 3 and len(taken) > 0
    summary = controller.scale_in(node, 2 * NOW)
    assert summary["moved_keys"] == len(taken)
    assert summary["drained_updates"] == summary["lost_updates"] == 0
    assert cluster.active_nodes == [0, 1, 2]
    assert not np.isin(_homes(ps), [node]).any()
    # One arrival and one departure of the same payload and delay.
    payload = len(taken) * ps.store.value_bytes()
    one_way = DELAY + cluster.network.message_cost(0) \
        + cluster.network.transfer_cost(payload)
    assert cluster.metrics.get("elastic.migration_time") == pytest.approx(
        2 * one_way, rel=1e-12)
    # The same left fold as the departure step's.
    assert summary["available_at"] == 2 * NOW + DELAY \
        + cluster.network.message_cost(0) \
        + cluster.network.transfer_cost(payload)
    after = _non_transition_counters(cluster)
    assert after["network.messages"] - before["network.messages"] \
        == 2 * (1 + 3)
    assert after["network.bytes"] - before["network.bytes"] == 2 * payload
