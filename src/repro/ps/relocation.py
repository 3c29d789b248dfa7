"""Relocation parameter server (Lapse-like).

A relocation PS moves parameters between nodes at run time so that accesses
can be processed locally (Section 3.1.3). Applications issue ``localize``
hints ahead of access; the PS relocates the parameter asynchronously using
Lapse's three-message protocol (request to the home node, forward to the
current owner, response carrying the value). Accesses to parameters that the
node currently owns go through shared memory; accesses to parameters owned
elsewhere are processed remotely, routed via the home node.

Relocation keeps exactly one current copy of every parameter, so it provides
per-key sequential consistency. Its weakness — reproduced here — is hot-spot
contention: when several nodes localize the same key in quick succession, the
key keeps moving, accesses find it gone, and workers either wait for an
in-flight relocation or fall back to remote access.

Access charging is one fold over a chunk's calls
(:class:`RelocationPointCharger`); a single ``pull``/``push`` is a one-call
chunk of it. Clock additions happen per key, in call order; metrics and
server occupancy are written once per chunk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import Cluster, WorkerContext
from repro.ps.storage import ParameterStore


class RelocationPS(ParameterServer):
    """Lapse-like PS: dynamic parameter allocation via ``localize``."""

    name = "relocation"

    #: Accesses to keys with a pending ``arrival_time`` block until the key
    #: arrives — the same machinery absorbs failover: keys lost in a crash are
    #: re-homed with ``arrival_time`` set to the recovery completion time, so
    #: workers naturally wait out the recovery instead of erroring.
    native_failover_wait = True

    @property
    def relocates(self) -> bool:
        return self.relocation_enabled

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        relocation_enabled: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(store, cluster, seed)
        #: ``relocation_enabled=False`` degrades this PS to a classic PS
        #: (the paper uses exactly this configuration as its classic baseline).
        self.relocation_enabled = relocation_enabled
        #: The key space of both ownership columns, translated once per
        #: batch for both (:meth:`ownership_at`). On the sparse backend keys
        #: without a record read as the static partition (evaluated
        #: key-wise, never stored) and as "already arrived" — the dense
        #: initial state — so the resident footprint tracks the keys that
        #: actually relocated: a relocated key gets a record, the owner fill
        #: written into it. The fill is the range formula, not the live
        #: map: a transition moves copies through ``_rehome``, never through
        #: the fill.
        self._ownership = table = store.storage.table(store.num_keys,
                                                      label="relocation")
        #: Current owner node of every key; starts at the static partition.
        self.current_owner = table.column(
            "current_owner", np.int64, fill_fn=self.partitioner.range_owners)
        #: Simulated time at which the most recent relocation of a key
        #: completes at its new owner. Accesses before that time must wait.
        self.arrival_time = table.column("arrival_time", np.float64)

    def refresh_network(self) -> None:
        """Re-derive the cached cost constants (see the base class)."""
        super().refresh_network()
        message0 = self.network.message_cost(0)
        message_value = self.network.message_cost(self._cached_value_bytes)
        self._cost_two_messages = 1 * message0 + message_value
        self._cost_three_messages = 2 * message0 + message_value
        self._relocation_latency = self.network.relocation_cost(
            self._cached_value_bytes
        )
        self._relocation_occupancy = self.network.relocation_occupancy(
            self._cached_value_bytes
        )

    # ------------------------------------------------------------- direct API
    def localize(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> None:
        """Asynchronously relocate ``keys`` to the worker's node."""
        if not self.relocation_enabled:
            return
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        self._trace_access("localize", worker, len(keys))
        self._relocate_batch(worker.node_id, keys, worker_clock=worker.clock.now)

    def _relocate_batch(self, node_id: int, keys: np.ndarray,
                        worker_clock: float | None = None,
                        sampling: bool = False) -> None:
        """Relocation shared by :meth:`localize` and ``localize_async``.

        ``worker_clock`` is the issuing worker's time for synchronous hints
        (the communication thread starts no earlier than the worker); ``None``
        means background-issued relocations that start at the thread's own
        time. ``sampling`` additionally counts ``relocation.sampling``.
        """
        # Within one call only the first occurrence of a key relocates (the
        # second finds the key already owned by this node), and keys that are
        # already local are free.
        index, owners = self.ownership_at(keys)
        away = owners != node_id
        # The keys that move get records first: their rows, distinct per
        # key from then on, stand for them below.
        index = self._ownership.claim(keys, index, away)
        moving = list(dict.fromkeys(index[away].tolist()))
        if not moving:
            return
        n = len(moving)
        background = self.cluster.node(node_id).background_clock
        relocation_latency = self._relocation_latency
        occupancy = self._relocation_occupancy
        # The relocations are handled back to back by the node's communication
        # thread: relocation k starts when relocation k-1 releases the thread,
        # so the start times are a running sum of the occupancies.
        if worker_clock is None:
            start = background.now
        else:
            start = max(worker_clock, background.now)
        # ``max(start + latency, start + occupancy)`` equals
        # ``start + max(latency, occupancy)`` bit-for-bit (IEEE addition
        # is monotone and both candidates are computed as plain sums).
        effective = relocation_latency if relocation_latency >= occupancy \
            else occupancy
        arrivals = []
        for _ in range(n):
            arrivals.append(start + effective)
            start = start + occupancy
        background.advance_to(start)
        self._set_ownership(np.asarray(moving, dtype=np.int64), node_id,
                            arrivals)
        self.metrics.increment("relocation.count", n)
        if sampling:
            self.metrics.increment("relocation.sampling", n)
        self.metrics.increment("network.messages", 3 * n)
        self.metrics.increment("network.bytes", n * self._cached_value_bytes)

    # ------------------------------------------------------------- ownership
    def ownership_at(self, keys: np.ndarray) -> tuple:
        """``(rows, owners)``: the rows of ``keys`` in the ownership table —
        one translation for both columns (on dense, the keys) — and their
        current owners (a row on the fill record reads ``fill_fn(keys)``,
        the static partition); ``arrival_time.pool[rows]`` are their
        arrival times. Keys are not range-checked here: the store checks
        every key it serves, and ``ChunkedTable.claim`` every key it writes.
        Writes go through the rows (:meth:`_set_ownership`) once the
        written keys have records (``claim``).
        """
        rows = self._ownership._rows(keys)
        return rows, self.current_owner.read_rows(keys, rows)

    def _set_ownership(self, rows: np.ndarray, owners, arrivals) -> None:
        """Write ``owners`` and ``arrivals`` at the rows of keys with
        records."""
        self.current_owner.pool[rows] = owners
        self.arrival_time.pool[rows] = arrivals

    # ------------------------------------------------------------- inspection
    def local_keys(self, node_id: int) -> np.ndarray:
        """All keys currently allocated at ``node_id``."""
        return self.current_owner.where_equal(node_id)

    def state_nbytes(self) -> dict:
        sizes = super().state_nbytes()
        sizes["ownership"] = self._ownership.nbytes
        return sizes

    # --------------------------------------------------------- membership API
    def keys_owned_by(self, node_id: int) -> np.ndarray:
        """Keys whose current (dynamic) copy lives on ``node_id``."""
        return self.local_keys(node_id)

    def _rehome(self, keys: np.ndarray, nodes: Sequence[int],
                available_at: float) -> None:
        """Hand the current copies of ``keys`` round-robin to ``nodes``,
        accessible from ``available_at`` on.

        The native arrival gate does the rest: accesses issued before the
        recovered or migrated state arrives wait for it, exactly like an
        in-flight relocation — no dead-owner gate needed.
        """
        if len(keys):
            nodes = np.asarray(list(nodes), dtype=np.int64)
            self._set_ownership(self._ownership.writable_rows(keys),
                                nodes[np.arange(len(keys)) % len(nodes)],
                                float(available_at))


def access_labels(names) -> tuple:
    """Per call kind, the local, remote and replica counters of ``names``."""
    return tuple((f"{name}.local", f"{name}.remote", f"{name}.replica.local")
                 for name in names)


class RelocationPointCharger(ChunkValues):
    """The relocation PS's access-charging fold.

    Per call, key by key in order: a local key waits for its in-flight
    relocation against the running clock and costs one shared-memory
    access; a remote key costs two or three messages depending on whether
    its current owner is the home node, and occupies the owner's request
    thread (a constant increment, so the per-server counts aggregate across
    the round). Then the call's compute charge. Ownership and arrival times
    are read once per chunk: inside a chunk nothing moves keys — hints are
    issued before it, ``prepare_sample`` has run — and at each worker's slot
    the state is the one the worker's calls would see, after its own
    localize hint and before any later worker's.
    """

    __slots__ = ("acc",)

    #: Per call kind (``pull``, ``pull_sample``, ``push``, ``push_sample``)
    #: its local, remote and replica access counters: sampling is direct
    #: access here (the base-class sampling API), NuPS gives it kinds of its
    #: own.
    kind_labels = access_labels(("pull", "pull", "push", "push"))

    def __init__(self, ps: RelocationPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        """Charge one worker's chunk (:meth:`_fold`) and bind ``keys`` for
        the value pass (:class:`~repro.ps.rounds.ChunkValues`)."""
        self._charge(worker, keys, calls)
        self._bind(keys, calls)

    def _fold(self, worker: WorkerContext, keys: np.ndarray, calls,
              replicated: np.ndarray | None = None) -> None:
        """The clock fold over ``calls`` (see the class).

        ``replicated`` (NuPS) marks the positions managed by replication:
        a call charges its replicated keys first, as one shared-memory
        product, and folds the others.
        """
        ps = self.ps
        node_id = worker.node_id
        index, owners = ps.ownership_at(keys)
        # Per position: True local, False remote, None replicated.
        codes = (owners == node_id).tolist()
        if replicated is not None:
            for at in np.flatnonzero(replicated).tolist():
                codes[at] = None
        arrivals = ps.arrival_time.pool[index].tolist() \
            if True in codes else None
        owners_l = homes = None
        cost_two = cost_three = 0.0
        if False in codes:
            owners_l = owners.tolist()
            homes = ps.partitioner.owners(keys).tolist()
            cost_two = ps._cost_two_messages
            cost_three = ps._cost_three_messages
        access_cost = ps._local_access_cost
        scale = worker.compute_scale
        clock = worker.clock
        now = clock.now
        waits = messages = 0
        servers: dict = {}
        widths = [0, 0, 0, 0]
        replicas = [0, 0, 0, 0]
        local = [0, 0, 0, 0]
        for kind, lo, hi, compute in calls:
            widths[kind] += hi - lo
            if replicated is not None:
                count = codes[lo:hi].count(None)
                if count:
                    now += count * access_cost
                    replicas[kind] += count
            count = 0
            for at in range(lo, hi):
                code = codes[at]
                if code:
                    count += 1
                    arrival = arrivals[at]
                    if arrival > now:
                        now = arrival
                        waits += 1
                    now += access_cost
                elif code is False:
                    owner = owners_l[at]
                    if owner == homes[at]:
                        now += cost_two
                        messages += 2
                    else:
                        now += cost_three
                        messages += 3
                    servers[owner] = servers.get(owner, 0) + 1
            local[kind] += count
            if compute:
                now += compute * scale
        clock.advance_to(now)

        acc = self.acc
        for kind, (local_label, remote_label, replica_label) in enumerate(
                self.kind_labels):
            if not widths[kind]:
                continue
            acc.add_access(local_label, local[kind])
            acc.add_access(remote_label,
                           widths[kind] - replicas[kind] - local[kind])
            acc.add_access(replica_label, replicas[kind])
        if waits:
            acc.add_counter("relocation.waits", waits)
        if servers:
            for server, count in servers.items():
                acc.add_server(server, count)
            acc.add_counter("network.messages", messages)
            acc.add_counter("network.bytes",
                            sum(servers.values()) * ps._cached_value_bytes)

    def finish(self) -> None:
        """Write the round's aggregated counters and server occupancy."""
        self.acc.flush(self.ps, self.ps._server_occupancy)


RelocationPS._charger = RelocationPointCharger
