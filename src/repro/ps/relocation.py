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

Per-call charging is one loop over the keys of a call, at every batch size:
clock additions happen per key, in batch order, and metrics and server
occupancy are written once per call. The per-key scalar path behind
``batch_charging=False`` is the reference the tests hold that loop against;
both produce bit-identical simulated clocks and metrics.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.chunks import ChunkedTable, flatnonzero_equal
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
        batch_charging: bool = True,
    ) -> None:
        super().__init__(store, cluster, seed)
        #: ``relocation_enabled=False`` degrades this PS to a classic PS
        #: (the paper uses exactly this configuration as its classic baseline).
        self.relocation_enabled = relocation_enabled
        #: ``False`` selects the per-key scalar reference instead of the
        #: grouped per-call loop; both are bit-identical.
        self.batch_charging = bool(batch_charging)
        if store.backend == "sparse":
            # Chunked owner state: untouched chunks read as the static
            # partition (evaluated key-wise, never stored) and as
            # "already arrived" — exactly the dense initial state — so the
            # resident footprint tracks the keys that actually relocated: a
            # chunk materializes with the owner fill written into each of its
            # records, so a relocated key's whole chunk is resident.
            # The fill is the range formula, not the live map: a transition
            # moves copies through ``_rehome``, never through the fill.
            table = ChunkedTable(store.num_keys, store.storage.chunk_rows,
                                 label="relocation")
            #: Current owner node of every key; starts at the static partition.
            self.current_owner = table.column(
                "current_owner", np.int64,
                fill_fn=self.partitioner.range_owners)
            #: Simulated time at which the most recent relocation of a key
            #: completes at its new owner. Accesses before that time must wait.
            self.arrival_time = table.column("arrival_time", np.float64)
        else:
            all_keys = np.arange(store.num_keys, dtype=np.int64)
            self.current_owner = self.partitioner.owners(all_keys).astype(np.int64)
            self.arrival_time = np.zeros(store.num_keys, dtype=np.float64)

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
        self._trace_access("localize", worker, keys)
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
        if not self.batch_charging:
            self._relocate_scalar(node_id, keys, worker_clock, sampling)
            return
        # Within one call only the first occurrence of a key relocates (the
        # second finds the key already owned by this node), and keys that are
        # already local are free.
        seen = set()
        moving = []
        owners = self.current_owner.take(keys).tolist()
        for key, owner in zip(keys.tolist(), owners):
            if owner != node_id and key not in seen:
                seen.add(key)
                moving.append(key)
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
        moving = np.asarray(moving, dtype=np.int64)
        self.current_owner[moving] = node_id
        self.arrival_time[moving] = arrivals
        self.metrics.increment("relocation.count", n, node=node_id)
        if sampling:
            self.metrics.increment("relocation.sampling", n, node=node_id)
        self.metrics.increment("network.messages", 3 * n, node=node_id)
        self.metrics.increment(
            "network.bytes", n * self._cached_value_bytes, node=node_id
        )

    def _relocate_scalar(self, node_id: int, keys: np.ndarray,
                         worker_clock: float | None, sampling: bool) -> None:
        """Per-key reference implementation of :meth:`_relocate_batch`."""
        background = self.cluster.node(node_id).background_clock
        value_bytes = self.store.value_bytes()
        relocation_latency = self.network.relocation_cost(value_bytes)
        occupancy = self.network.relocation_occupancy(value_bytes)
        for key in keys:
            key = int(key)
            if self.current_owner[key] == node_id:
                continue
            # The relocation is handled asynchronously by the node's
            # communication thread: the thread is busy for ``occupancy`` per
            # relocation, and the key arrives one protocol round-trip after
            # the request leaves (whichever of the two finishes later).
            start = background.now if worker_clock is None \
                else max(worker_clock, background.now)
            background.advance_to(start + occupancy)
            arrival = max(start + relocation_latency, background.now)
            self.current_owner[key] = node_id
            self.arrival_time[key] = arrival
            self.metrics.increment("relocation.count", 1, node=node_id)
            if sampling:
                self.metrics.increment("relocation.sampling", 1, node=node_id)
            self.metrics.increment("network.messages", 3, node=node_id)
            self.metrics.increment(
                "network.bytes", value_bytes, node=node_id
            )

    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        self._charge_access(worker, keys, "pull")
        return self.store.get(keys)

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        self._charge_access(worker, keys, "push")
        self.store.add(keys, deltas)

    # -------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id: int | None = None):
        """Per-point charge replay for the task-level round engine.

        Like the classic PS, a relocation PS samples application-side, so
        the charger also replays the sampling tasks' calls. The scalar
        oracle is not replayed, and an access-level tracer wants one event
        per call.
        """
        if not self.batch_charging or self._traces_accesses():
            return None
        return RelocationPointCharger(self)

    # --------------------------------------------------------------- internals
    def _charge_access(self, worker: WorkerContext, keys: np.ndarray, kind: str) -> None:
        """Charge each access as local, wait-then-local, or routed-remote.

        One loop over the keys performs the same sequence of clock additions
        as the scalar reference (so simulated times are bit-identical);
        metrics and server occupancy are one grouped update per call.
        """
        if len(keys) == 0:
            return
        if not self.batch_charging:
            self._charge_access_scalar(worker, keys, kind)
            return
        node_id = worker.node_id
        owners = self.current_owner.take(keys).tolist()
        arrivals = self.arrival_time.take(keys).tolist()
        local_cost = 1 * self._local_access_cost
        clock = worker.clock
        now = clock.now
        n = len(owners)
        if owners.count(node_id) == n and max(arrivals) <= now:
            # Everything is already here and arrived (the localize-ahead
            # steady state): one repeated fold, one metrics write.
            clock.advance_repeated(local_cost, n)
            self.metrics.record_access(f"{kind}.local", node_id, n)
            return
        n_local = 0
        n_remote = 0
        waits = 0
        messages = 0
        homes = None
        cost_two = cost_three = 0.0
        server_counts: dict[int, int] = {}
        for i, owner in enumerate(owners):
            if owner == node_id:
                arrival = arrivals[i]
                if arrival > now:
                    # The key is on its way here: wait for the relocation to
                    # finish, then access through shared memory.
                    now = arrival
                    waits += 1
                now = now + local_cost
                n_local += 1
            else:
                if homes is None:
                    homes = self.partitioner.owners(keys).tolist()
                    cost_two = self._cost_two_messages
                    cost_three = self._cost_three_messages
                # Still at its home node: the classic two messages; relocated
                # elsewhere, the home node forwards the request (a third).
                if owner == homes[i]:
                    now = now + cost_two
                    messages += 2
                else:
                    now = now + cost_three
                    messages += 3
                n_remote += 1
                server_counts[owner] = server_counts.get(owner, 0) + 1
        clock.advance_to(now)

        metrics = self.metrics
        if n_local:
            metrics.record_access(f"{kind}.local", node_id, n_local)
        if waits:
            metrics.increment("relocation.waits", waits, node=node_id)
        if n_remote:
            server_occupancy = self._server_occupancy
            for server, count in server_counts.items():
                self.cluster.node(server).server_clock.advance_repeated(
                    server_occupancy, count
                )
            metrics.record_access(f"{kind}.remote", node_id, n_remote)
            metrics.increment("network.messages", messages, node=node_id)
            metrics.increment(
                "network.bytes", n_remote * self._cached_value_bytes, node=node_id
            )

    def _charge_access_scalar(self, worker: WorkerContext, keys: np.ndarray,
                              kind: str) -> None:
        """Per-key reference implementation of :meth:`_charge_access`."""
        node_id = worker.node_id
        for key in keys:
            key = int(key)
            if self.current_owner[key] == node_id:
                arrival = self.arrival_time[key]
                if arrival > worker.clock.now:
                    # The key is on its way here: wait for the relocation to
                    # finish, then access through shared memory.
                    worker.clock.advance_to(arrival)
                    self.metrics.increment(
                        "relocation.waits", 1, node=node_id
                    )
                self._charge_local(worker, 1, kind)
            else:
                self._charge_routed_remote(worker, key, kind)

    def _charge_routed_remote(self, worker: WorkerContext, key: int, kind: str) -> None:
        """Synchronous remote access routed via the home node.

        If the key still resides at its home node the access takes the same
        two messages as in a classic PS; if it has been relocated elsewhere
        the home node forwards the request, which adds a third message. The
        serving node's request thread is occupied either way.
        """
        node_id = worker.node_id
        value_bytes = self.store.value_bytes()
        owner = int(self.current_owner[key])
        home = self.partitioner.owner(key)
        messages = 2 if owner == home else 3
        cost = (messages - 1) * self.network.message_cost(0) \
            + self.network.message_cost(value_bytes)
        worker.clock.advance(cost)
        if owner != node_id:
            server = self.cluster.node(owner).server_clock
            server.advance(self.network.server_occupancy(value_bytes))
        self.metrics.record_access(f"{kind}.remote", node_id, 1)
        self.metrics.increment("network.messages", messages, node=node_id)
        self.metrics.increment("network.bytes", value_bytes, node=node_id)

    # ------------------------------------------------------------- inspection
    def is_local(self, node_id: int, key: int) -> bool:
        """Whether ``key`` is currently allocated at ``node_id``."""
        return bool(self.current_owner[int(key)] == node_id)

    def local_keys(self, node_id: int) -> np.ndarray:
        """All keys currently allocated at ``node_id``."""
        return flatnonzero_equal(self.current_owner, node_id)

    def owner_of(self, key: int) -> int:
        """Current owner node of ``key``."""
        return int(self.current_owner[int(key)])

    def state_nbytes(self) -> dict:
        sizes = super().state_nbytes()
        sizes["ownership"] = (
            int(self.current_owner.nbytes) + int(self.arrival_time.nbytes)
        )
        return sizes

    # -------------------------------------------------------------- fault API
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
            self.current_owner[keys] = nodes[np.arange(len(keys)) % len(nodes)]
            self.arrival_time[keys] = float(available_at)


class RelocationPointCharger(ChunkValues):
    """Exact per-point charge replay for a round of PS calls.

    Replays, per data point, the relocation PS's ``pull(direct)``,
    ``pull_sample``, ``push(direct)`` and ``push_sample`` calls and its
    compute charge; matrix factorization's points have zero-width sample
    segments, which cost nothing. Local keys wait for in-flight relocations
    against the live running clock and cost one shared-memory access; remote
    keys cost two or three messages depending on whether the current owner
    is the home node, and occupy the owner's request thread (a constant
    increment, so the per-server counts aggregate across the round).
    Ownership state is read live at each worker's slot — after its own
    localize hint, before any later worker's — exactly like the sequential
    path.
    """

    __slots__ = ("acc",)

    #: Access kinds of ``pull_sample`` / ``push_sample``: direct access here
    #: (the base-class sampling API), the sampling kinds on NuPS.
    sample_kinds = ("pull", "push")

    def __init__(self, ps: RelocationPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     direct_widths: list, sample_widths: list,
                     compute_costs: list) -> None:
        """Charge one worker's chunk: per point, its calls + compute.

        ``keys`` holds, per point and in point order, the point's direct
        keys followed by its sample keys; the width lists give both counts
        per point. Replays the calls (see :meth:`_fold`) and binds ``keys``
        for the value pass (:class:`~repro.ps.rounds.ChunkValues`).
        """
        self._fold(worker, keys, direct_widths, sample_widths, compute_costs)
        self._bind(keys)

    def _fold(self, worker: WorkerContext, keys: np.ndarray,
              direct_widths: list, sample_widths: list, compute_costs: list,
              direct_replicas: list | None = None,
              sample_replicas: list | None = None) -> None:
        """The per-point clock fold over the relocation-managed ``keys``.

        Ownership and arrival times are read once: inside a chunk nothing
        moves keys (hints are issued before it, ``prepare_sample`` has run).
        Each of a point's four calls then folds its keys' costs left to
        right exactly like ``_charge_access`` — a local key waits for its
        in-flight relocation against the running clock and costs one
        shared-memory access, a remote key two or three messages — and the
        compute charge follows. The ``*_replicas`` lists (NuPS) give per
        point how many replicated keys each direct / sampling call
        additionally carries: they are charged first, as one product, like
        ``_charge_local``.
        """
        ps = self.ps
        node_id = worker.node_id
        owners = ps.current_owner.take(keys)
        local_mask = owners == node_id
        n_local = int(np.count_nonzero(local_mask))
        n_remote = len(keys) - n_local
        local_l = local_mask.tolist()
        arrivals_l = ps.arrival_time.take(keys).tolist() if n_local else None
        owners_l = homes_l = None
        cost_two = cost_three = 0.0
        if n_remote:
            owners_l = owners.tolist()
            homes_l = ps.partitioner.owners(keys).tolist()
            cost_two = ps._cost_two_messages
            cost_three = ps._cost_three_messages
        local_cost = 1 * ps._local_access_cost
        replica_cost = ps._local_access_cost
        scale = worker.compute_scale
        clock = worker.clock
        now = clock.now
        waits = messages = local_sample = 0
        servers: dict = {}
        no_replicas = repeat(0)
        position = 0
        for n_direct, n_sample, compute, direct_extra, sample_extra in zip(
                direct_widths, sample_widths, compute_costs,
                direct_replicas or no_replicas,
                sample_replicas or no_replicas):
            split = position + n_direct
            end = split + n_sample
            if n_sample and n_local:
                local_sample += local_l[split:end].count(True)
            # pull(direct), pull_sample, push(direct), push_sample; an empty
            # sampling call is none
            calls = ((position, split, direct_extra),
                     (split, end, sample_extra)) \
                if n_sample or sample_extra \
                else ((position, split, direct_extra),)
            for lo, hi, replicas in calls * 2:
                if replicas:
                    now += replicas * replica_cost
                for at in range(lo, hi):
                    if local_l[at]:
                        arrival = arrivals_l[at]
                        if arrival > now:
                            now = arrival
                            waits += 1
                        now += local_cost
                    else:
                        owner = owners_l[at]
                        if owner == homes_l[at]:
                            now += cost_two
                            messages += 2
                        else:
                            now += cost_three
                            messages += 3
                        servers[owner] = servers.get(owner, 0) + 1
            now += compute * scale
            position = end
        clock.advance_to(now)

        acc = self.acc
        pull_kind, push_kind = self.sample_kinds
        local_direct = n_local - local_sample
        if local_direct:
            acc.add_access(node_id, "pull.local", local_direct)
            acc.add_access(node_id, "push.local", local_direct)
        if local_sample:
            acc.add_access(node_id, f"{pull_kind}.local", local_sample)
            acc.add_access(node_id, f"{push_kind}.local", local_sample)
        if waits:
            acc.add_counter(node_id, "relocation.waits", waits)
        if n_remote:
            for server, count in servers.items():
                acc.add_server(server, count)
            remote_sample = sum(sample_widths) - local_sample
            remote_direct = n_remote - remote_sample
            if remote_direct:
                acc.add_access(node_id, "pull.remote", remote_direct)
                acc.add_access(node_id, "push.remote", remote_direct)
            if remote_sample:
                acc.add_access(node_id, f"{pull_kind}.remote", remote_sample)
                acc.add_access(node_id, f"{push_kind}.remote", remote_sample)
            acc.add_counter(node_id, "network.messages", messages)
            acc.add_counter(node_id, "network.bytes",
                            2 * n_remote * ps._cached_value_bytes)

    def finish(self) -> None:
        """Write the round's aggregated counters and server occupancy."""
        self.acc.flush(self.ps, self.ps._server_occupancy)
