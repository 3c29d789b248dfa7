"""Replication parameter server (Petuum-like SSP / ESSP).

Replication PSs keep per-node replicas of parameters and tolerate bounded
staleness (Section 3.1.2). Applications drive staleness with an
"advance the clock" operation. Two replica-maintenance protocols are
implemented, following Petuum:

* **SSP** creates a replica when a parameter is accessed and uses it until the
  staleness bound is reached; after that, the next access refreshes the
  replica synchronously from the owning server.
* **ESSP** also creates replicas on first access but then maintains them
  eagerly: at every clock advance the node refreshes *all* of its replicas,
  which over-communicates for rarely-accessed (long-tail) parameters.

Writes are accumulated in a per-node update buffer and propagated to the
owning servers at the next clock advance, as in Petuum. Because Petuum's
co-located servers are reached through intra-process messages rather than
shared memory, even local-partition accesses are charged a (small) messaging
overhead; this reproduces the paper's observation that Petuum is slower than
shared-memory systems even on a single node (Section 5.4).

Node state is array-backed: each node holds a replica mask, a replica-value
matrix, replica clocks, and an update buffer over the whole key space, which
``_flush_node``/``_eager_refresh`` process as whole key batches. Per-call
``pull``/``push`` and the round engine's point charger share one freshness
step, ``ReplicationPS._refresh``: one lookup over the keys of a call or a
chunk, one batch install of every stale or missing key at its first
position, and per-position costs that the caller adds to the clock in key
order. The per-key scalar path behind ``batch_charging=False`` is the
reference the tests hold it against; both produce bit-identical simulated
clocks and metrics.
"""

from __future__ import annotations

import enum
from types import SimpleNamespace
from typing import Dict, Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.chunks import ChunkedTable, MemoryBudget, StorageConfig
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import Cluster, WorkerContext
from repro.ps.storage import ParameterStore, scatter_add_rows


class ReplicationProtocol(enum.Enum):
    """Replica maintenance protocol."""

    SSP = "ssp"
    ESSP = "essp"


#: Cost multiplier for reaching the co-located server via intra-process
#: messaging instead of shared memory.
INTRA_PROCESS_FACTOR = 10.0


class _NodeReplicaState:
    """Replica cache, clocks and update buffer of one node.

    On the dense backend (the oracle) every structure is a full
    ``num_keys``-length array. On the sparse backend the same five
    structures are the columns of one :class:`~repro.ps.chunks.ChunkedTable`
    and materialize together on first write — the fills are all zero (mask
    ``False``, clock 0: every read of a clock is gated by ``replica_mask``),
    precisely the dense initial values, so reads of untouched keys are
    bit-identical and a fresh chunk is untouched memory. Resident memory is
    one page table per node (``num_keys / chunk_rows x 8`` bytes) plus about
    one page per key the node replicates (its five structures share one
    record of the table's pool), bounded by an optional per-node budget.
    """

    def __init__(self, num_keys: int, value_length: int,
                 storage: StorageConfig | None = None,
                 node_id: int | None = None) -> None:
        self.value_length = value_length
        self.table = None
        if storage is not None and storage.backend == "sparse":
            self.budget = None
            if storage.node_budget_bytes is not None:
                self.budget = MemoryBudget(
                    storage.node_budget_bytes,
                    label=f"replica state of node {node_id}",
                )
            self.table = ChunkedTable(num_keys, storage.chunk_rows,
                                      self.budget, f"node{node_id}")
            column = self.table.column
        else:
            def column(name, dtype, row_shape=()):
                return np.zeros((num_keys,) + row_shape, dtype=dtype)
        self.replica_mask = column("replica_mask", bool)
        self.replica_values = column("replica_values", np.float32,
                                     (value_length,))
        self.replica_clock = column("replica_clock", np.int64)
        self.update_mask = column("update_mask", bool)
        self.update_values = column("update_values", np.float32,
                                    (value_length,))
        # Key batches pushed since the last flush. A superset of the set bits
        # in ``update_mask`` (which stays authoritative): flushes enumerate
        # their keys from this list instead of scanning the full mask, which
        # otherwise dominates the per-round clock advance.
        self.pending_updates: list = []
        self.worker_clocks: Dict[int, int] = {}

    @property
    def clock(self) -> int:
        """The node clock: the slowest worker on this node."""
        if not self.worker_clocks:
            return 0
        return min(self.worker_clocks.values())

    def replicated_keys(self) -> np.ndarray:
        """Ascending keys with a replica (``flatnonzero`` of the mask)."""
        if isinstance(self.replica_mask, np.ndarray):
            return np.flatnonzero(self.replica_mask).astype(np.int64)
        return self.replica_mask.where_equal(True)

    def count_replicas(self) -> int:
        if isinstance(self.replica_mask, np.ndarray):
            return int(np.count_nonzero(self.replica_mask))
        return self.replica_mask.count_nonzero()

    def nbytes(self) -> int:
        """Resident bytes of the node's replica/update state."""
        return int(
            self.replica_mask.nbytes + self.replica_values.nbytes
            + self.replica_clock.nbytes + self.update_mask.nbytes
            + self.update_values.nbytes
        )

    def gather_values(self, index: np.ndarray) -> np.ndarray:
        """A copy of the replica values at an :meth:`at` index: ``take`` on
        the dense array, :meth:`~repro.ps.chunks.ChunkedArray.gather` on the
        sparse pool (whose field view ``take`` would copy whole)."""
        if self.table is None:
            return self.replica_values.take(index, axis=0)
        return self.replica_values.gather(index)

    def at(self, keys: np.ndarray, writable: bool = False):
        """``(index, arrays)``: ``arrays.<structure>[index]`` addresses ``keys``.

        Dense: the keys and this state. Sparse: the pool rows — one
        validation and translation for all five structures, the chunks
        materialized first when ``writable`` — and the field views of the
        pool, current until this node next materializes a chunk. Gather
        from them by fancy indexing or :meth:`gather_values`, never
        ``take`` (see :meth:`~repro.ps.chunks.ChunkedArray.gather`).
        """
        if self.table is None:
            return keys, self
        rows = self.table.writable_rows(keys) if writable \
            else self.table.rows(keys)
        return rows, SimpleNamespace(
            replica_mask=self.replica_mask.pool,
            replica_values=self.replica_values.pool,
            replica_clock=self.replica_clock.pool,
            update_mask=self.update_mask.pool,
            update_values=self.update_values.pool)


class ReplicationPS(ParameterServer):
    """Petuum-like bounded-staleness replication PS (SSP or ESSP)."""

    name = "replication"

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        protocol: ReplicationProtocol = ReplicationProtocol.SSP,
        staleness: int = 1,
        seed: int = 0,
        batch_charging: bool = True,
    ) -> None:
        """A replication PS over ``store`` on ``cluster``.

        ``protocol`` picks SSP or ESSP replica maintenance, ``staleness`` the
        bound in clocks. ``batch_charging=False`` selects the per-key scalar
        reference instead of the shared freshness step (:meth:`_refresh`);
        both are bit-identical, and only the latter is replayed per chunk
        (:meth:`direct_point_charger`), for every task.
        """
        super().__init__(store, cluster, seed)
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        self.protocol = protocol
        self.staleness = int(staleness)
        self.name = f"replication-{protocol.value}"
        self.batch_charging = bool(batch_charging)
        self._nodes: Dict[int, _NodeReplicaState] = {
            node_id: _NodeReplicaState(store.num_keys, store.value_length,
                                       storage=store.storage, node_id=node_id)
            for node_id in range(cluster.num_nodes)
        }

    def refresh_network(self) -> None:
        """Re-derive the cached cost constants (see the base class)."""
        super().refresh_network()
        self._intra_process_cost = (
            1 * self.network.local_access_cost * INTRA_PROCESS_FACTOR
        )

    # -------------------------------------------------------------- direct API
    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Read ``keys`` through the node's replicas, refreshing stale ones.

        A stale or missing key refreshes at its first position
        (:meth:`_refresh`), every other position costs one intra-process
        message; the clock adds the costs in key order, as the scalar
        reference does, and metrics and server occupancy are written once
        per call.
        """
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        state = self._nodes[worker.node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        if not self.batch_charging:
            return self._pull_scalar(worker, state, keys, worker_clock)
        if len(keys) == 0:
            return np.empty((0, self.store.value_length), dtype=np.float32)
        positions, costs, server_counts = self._refresh(
            worker.node_id, state, keys, worker_clock,
            worker_clock - self.staleness)
        clock = worker.clock
        if costs is None:  # every key a fresh replica: the steady state
            clock.advance_repeated(self._intra_process_cost, len(keys))
        else:
            now = clock.now
            for cost in costs:
                now += cost
            clock.advance_to(now)
        self._finish_group_charge(worker.node_id, server_counts,
                                  len(keys) - len(positions), "pull.replica",
                                  len(positions))
        return state.gather_values(state.at(keys)[0])

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        """Add ``deltas`` to the node's replicas and its update buffer.

        A missing key is created at its first position (:meth:`_refresh`
        without a staleness threshold: Petuum reads-before-writes via the
        cache), then every key costs one intra-process message; bookkeeping
        is grouped like :meth:`pull`'s.
        """
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        state = self._nodes[worker.node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        if not self.batch_charging:
            self._push_scalar(worker, state, keys, deltas, worker_clock)
            return
        if len(keys) == 0:
            return
        positions, costs, server_counts = self._refresh(
            worker.node_id, state, keys, worker_clock)
        intra_cost = self._intra_process_cost
        clock = worker.clock
        if costs is None:
            clock.advance_repeated(intra_cost, len(keys))
        else:
            refreshing = set(positions)
            now = clock.now
            for position, cost in enumerate(costs):
                if position in refreshing:  # a creation, before its push
                    now += cost
                now += intra_cost
            clock.advance_to(now)

        # Apply the deltas to the replica and buffer them for the next flush
        # (duplicate keys accumulate in batch order).
        index, at = state.at(keys, writable=True)
        index_list = index.tolist()
        scatter_add_rows(at.replica_values, index, deltas, index_list)
        scatter_add_rows(at.update_values, index, deltas, index_list)
        at.update_mask[index] = True
        state.pending_updates.append(keys)
        self._finish_group_charge(worker.node_id, server_counts, len(keys),
                                  "push.replica", len(positions))

    def advance_clock(self, worker: WorkerContext) -> None:
        """Advance the worker's clock; flush and (ESSP) refresh at node level."""
        state = self._nodes[worker.node_id]
        state.worker_clocks[worker.worker_id] = (
            state.worker_clocks.get(worker.worker_id, 0) + 1
        )
        expected_workers = self.cluster.workers_per_node
        if len(state.worker_clocks) < expected_workers:
            # Not all workers have started clocking yet; the node clock is
            # still effectively zero, so there is nothing to flush.
            return
        self._flush_node(worker.node_id, state)
        if self.protocol is ReplicationProtocol.ESSP:
            self._eager_refresh(worker.node_id, state)

    # -------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id: int | None = None):
        """Per-point charge replay for the task-level round engine.

        Serves SSP and ESSP alike — the protocols differ only in
        :meth:`advance_clock`, which the round engine still calls per chunk —
        and the sampling tasks as well as matrix factorization: sampling is
        application-side here (the base class's ``prepare_sample`` draws the
        keys, ``pull_sample``/``push_sample`` are plain ``pull``/``push``).
        Only the scalar oracle and an access-level tracer keep the
        sequential path.
        """
        if not self.batch_charging or self._traces_accesses():
            return None
        return _ReplicationPointCharger(self)

    def _refresh(self, node_id: int, state: _NodeReplicaState,
                 keys: np.ndarray, worker_clock: int,
                 threshold: int | None = None) -> tuple:
        """Refresh every key of ``keys`` without a usable replica at its
        first position, and return what reading ``keys`` in order costs.

        A replica is usable if it exists and, given a ``threshold``, its
        clock is at least ``threshold``. A key without one refreshes from
        its owning server — one intra-process message from the node's own
        server, a remote access from any other — and is usable from then
        on. The refreshed replicas install in one batch as of
        ``worker_clock``: the global value overlaid with the node's
        not-yet-flushed update (Petuum reads its own writes).

        Returns ``(positions, costs, server_counts)``: the refreshing
        positions in key order; the read cost of every position (one
        intra-process message, or a remote refresh's remote cost), ``None``
        when nothing refreshes; and the remote refreshes per serving node.
        """
        index, at = state.at(keys)
        usable = at.replica_mask[index]
        clocks = None if threshold is None else at.replica_clock[index]
        # The steady state, every replica usable, is checked on lists: a
        # NumPy reduction costs more than the whole call on a few keys.
        if all(usable.tolist()) and (
                clocks is None
                or min(clocks.tolist(), default=threshold) >= threshold):
            return (), None, {}
        if clocks is not None:
            usable &= clocks >= threshold
        stale = (~usable).nonzero()[0]
        positions = stale.tolist()
        refresh_keys = keys[stale]
        first: dict = {}
        for key, position in zip(refresh_keys.tolist(), positions):
            first.setdefault(key, position)
        if len(first) < len(positions):  # a repeated key refreshes once
            positions = list(first.values())
            refresh_keys = keys[positions]
        owners = self.partitioner.owners(refresh_keys).tolist()
        refreshed = self.store.get(refresh_keys)
        index, at = state.at(refresh_keys, writable=True)
        buffered = at.update_mask[index]
        if buffered.any():
            refreshed[buffered] += at.update_values[index[buffered]]
        at.replica_values[index] = refreshed
        at.replica_mask[index] = True
        at.replica_clock[index] = worker_clock

        costs = [self._intra_process_cost] * len(keys)
        server_counts: dict = {}
        for position, owner in zip(positions, owners):
            if owner != node_id:
                costs[position] = self._remote_access_cost
                server_counts[owner] = server_counts.get(owner, 0) + 1
        return positions, costs, server_counts

    def _occupy_servers(self, server_counts: dict) -> int:
        """Occupy each serving node's request thread once per remote refresh
        (:meth:`_refresh`'s ``server_counts``); return the refreshes."""
        for server, count in server_counts.items():
            self.cluster.node(server).server_clock.advance_repeated(
                self._server_occupancy, count
            )
        return sum(server_counts.values())

    def _finish_group_charge(self, node_id: int, server_counts: dict,
                             n_primary: int, primary_kind: str,
                             n_refresh: int) -> None:
        """Grouped server occupancy + metrics of one ``pull``/``push`` call."""
        if not n_refresh:  # the steady state: one counter
            self.metrics.record_access(primary_kind, node_id, n_primary)
            return
        n_remote = self._occupy_servers(server_counts) if server_counts else 0
        self.metrics.record_access_batch(node_id, {
            primary_kind: n_primary,
            "pull.local_server": n_refresh - n_remote,
            "pull.remote": n_remote,
        })
        if n_remote:
            self.metrics.increment("network.messages", 2 * n_remote,
                                   node=node_id)
            self.metrics.increment("network.bytes",
                                   n_remote * self._cached_value_bytes,
                                   node=node_id)

    # --------------------------------------------------------- scalar oracle
    def _pull_scalar(self, worker: WorkerContext, state: _NodeReplicaState,
                     keys: np.ndarray, worker_clock: int) -> np.ndarray:
        """Per-key reference implementation of :meth:`pull`."""
        values = np.empty((len(keys), self.store.value_length), dtype=np.float32)
        for i, key in enumerate(keys):
            key = int(key)
            fresh = (
                state.replica_mask[key]
                and state.replica_clock[key] >= worker_clock - self.staleness
            )
            if fresh:
                values[i] = state.replica_values[key]
                self._charge_intra_process(worker, 1, "pull.replica")
            else:
                values[i] = self._refresh_replica(worker, state, key, worker_clock)
        return values

    def _push_scalar(self, worker: WorkerContext, state: _NodeReplicaState,
                     keys: np.ndarray, deltas: np.ndarray,
                     worker_clock: int) -> None:
        """Per-key reference implementation of :meth:`push`."""
        state.pending_updates.append(np.asarray(keys, dtype=np.int64))
        for key, delta in zip(keys, deltas):
            key = int(key)
            if not state.replica_mask[key]:
                # Writing to a parameter that was never pulled: create the
                # replica first (Petuum reads-before-writes via the cache).
                self._refresh_replica(worker, state, key, worker_clock)
            state.replica_values[key] = state.replica_values[key] + delta
            state.update_values[key] = state.update_values[key] + delta
            state.update_mask[key] = True
            self._charge_intra_process(worker, 1, "push.replica")

    # ------------------------------------------------------------- internals
    def _refresh_replica(self, worker: WorkerContext, state: _NodeReplicaState,
                         key: int, worker_clock: int) -> np.ndarray:
        """Synchronously (re)fetch ``key`` from its owning server."""
        owner = self.partitioner.owner(key)
        if owner == worker.node_id:
            self._charge_intra_process(worker, 1, "pull.local_server")
        else:
            self._charge_remote(worker, 1, "pull", server_id=owner)
        value = self.store.get_single(key)
        if state.update_mask[key]:
            value = value + state.update_values[key]
        state.replica_values[key] = value
        state.replica_mask[key] = True
        state.replica_clock[key] = worker_clock
        return value.copy()

    def _flush_node(self, node_id: int, state: _NodeReplicaState) -> None:
        """Send the node's buffered updates to the owning servers."""
        if not state.pending_updates:
            return
        pending = state.pending_updates
        candidates = pending[0] if len(pending) == 1 else np.concatenate(pending)
        state.pending_updates = []
        # Sorted distinct candidates filtered by the (authoritative) buffer
        # mask — identical to ``flatnonzero(update_mask)`` because every bit
        # set in the mask has its key batch recorded in ``pending_updates``
        # (one worker chunk between two clock advances, where a set beats
        # ``np.unique``'s sort machinery).
        keys = np.array(sorted(set(candidates.tolist())), dtype=np.int64)
        index, at = state.at(keys)
        buffered = at.update_mask[index]
        keys, index = keys[buffered], index[buffered]
        if not len(keys):
            return
        self.store.add_distinct(keys, at.update_values[index])

        owners = self.partitioner.owners(keys)
        background = self.cluster.node(node_id).background_clock
        payload_per_key = self._cached_value_bytes
        remote_servers = 0
        remote_bytes = 0
        for server, server_keys in enumerate(np.bincount(owners).tolist()):
            if not server_keys or server == node_id:
                continue  # nothing to send; local server: no network message
            # Flushes happen asynchronously on the node's communication
            # thread: charge handling plus payload transfer, not wire latency.
            cost = (
                self.network.message_handling_cost
                + self.network.transfer_cost(server_keys * payload_per_key)
            )
            background.advance(cost)
            remote_servers += 1
            remote_bytes += server_keys * payload_per_key
        if remote_servers:
            # One message and one payload counter per serving node;
            # summed into a single additive write each.
            self.metrics.increment("network.messages", remote_servers,
                                   node=node_id)
            self.metrics.increment("network.bytes", remote_bytes,
                                   node=node_id)
        self.metrics.increment("replication.flushes", 1, node=node_id)
        self.metrics.increment(
            "replication.flushed_keys", len(keys), node=node_id
        )
        at.update_values[index] = 0.0
        at.update_mask[index] = False
        tracer = self.tracer
        if tracer is not None:
            tracer.event("replica_flush", "replica", background.now,
                         node=node_id, keys=int(len(keys)),
                         remote_bytes=int(remote_bytes))

    def _eager_refresh(self, node_id: int, state: _NodeReplicaState) -> None:
        """ESSP: refresh every replica the node holds from the servers."""
        keys = state.replicated_keys()
        if not len(keys):
            return
        index, at = state.at(keys)
        at.replica_values[index] = self.store.get(keys)
        at.replica_clock[index] = state.clock

        owners = self.partitioner.owners(keys)
        background = self.cluster.node(node_id).background_clock
        payload_per_key = self.store.value_bytes()
        for server, server_keys in enumerate(np.bincount(owners).tolist()):
            if not server_keys or server == node_id:
                continue
            # Eager refreshes stream in the background; the transfer volume —
            # every replicated key, every clock, from every node — is what
            # over-communicates. It occupies both the requesting node's
            # communication thread and the serving node's request thread.
            volume = self.network.transfer_cost(server_keys * payload_per_key)
            background.advance(self.network.message_handling_cost + volume)
            self.cluster.node(server).server_clock.advance(
                self.network.message_handling_cost + volume
            )
            self.metrics.increment("network.messages", 1, node=node_id)
            self.metrics.increment(
                "network.bytes", server_keys * payload_per_key, node=node_id
            )
        self.metrics.increment("replication.eager_refreshes", 1, node=node_id)
        self.metrics.increment(
            "replication.refreshed_keys", len(keys), node=node_id
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.event("replica_refresh", "replica", background.now,
                         node=node_id, keys=int(len(keys)))

    def finish_epoch(self) -> None:
        """Flush all outstanding updates (end of training epoch)."""
        for node_id, state in self._nodes.items():
            self._flush_node(node_id, state)

    def replica_count(self, node_id: int) -> int:
        """Number of replicas currently held by ``node_id`` (for tests/reports)."""
        return self._nodes[node_id].count_replicas()

    def state_nbytes(self) -> Dict[str, int]:
        sizes = super().state_nbytes()
        sizes["replica_state"] = sum(
            state.nbytes() for state in self._nodes.values()
        )
        return sizes

    # -------------------------------------------------------------- fault API
    def recover_values(self, keys: np.ndarray) -> tuple:
        """Recover ``keys`` from the freshest surviving replica of each.

        For every key, the surviving node (not in the cluster's failed set)
        whose replica clock is most recent supplies the value. Keys no
        surviving node ever replicated stay unmasked and fall back to the
        checkpoint. This is the graceful-degradation edge of replication:
        recovered values are at most ``staleness`` clocks old instead of a
        whole checkpoint interval.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.zeros((len(keys), self.store.value_length), dtype=np.float32)
        mask = np.zeros(len(keys), dtype=bool)
        best_clock = np.zeros(len(keys), dtype=np.int64)
        for node_id, state in self._nodes.items():
            if node_id in self.cluster.failed:
                continue
            clocks = state.replica_clock[keys]
            better = state.replica_mask[keys] & (~mask | (clocks > best_clock))
            if np.any(better):
                idx = np.flatnonzero(better)
                values[idx] = state.replica_values[keys[idx]]
                best_clock[idx] = clocks[idx]
                mask[idx] = True
        return values, mask

    # ---------------------------------------------------------- membership API
    def on_node_added(self, node_id: int, available_at: float) -> None:
        """Create replica state for the joining node."""
        if node_id not in self._nodes:
            self._nodes[node_id] = _NodeReplicaState(
                self.store.num_keys, self.store.value_length,
                storage=self.store.storage, node_id=node_id,
            )

    def drain_node(self, node_id: int, now: float) -> int:
        """Flush the leaving node's buffered updates into the global store.

        This is exactly the step a crash cannot perform: every acknowledged
        push still sitting in the node's write buffer is applied before the
        node goes away, so a planned scale-in loses zero updates.
        """
        state = self._nodes.get(node_id)
        if state is None:
            return 0
        if isinstance(state.update_mask, np.ndarray):
            drained = int(np.count_nonzero(state.update_mask))
        else:
            drained = state.update_mask.count_nonzero()
        self._flush_node(node_id, state)
        return drained

    def on_node_removed(self, node_id: int, available_at: float) -> None:
        """Drop the leaving node's replica state."""
        self._nodes.pop(node_id, None)

    # --------------------------------------------------------------- charging
    def _charge_intra_process(self, worker: WorkerContext, count: int, kind: str) -> None:
        if count <= 0:
            return
        cost = count * self.network.local_access_cost * INTRA_PROCESS_FACTOR
        worker.clock.advance(cost)
        self.metrics.record_access(kind, worker.node_id, count)


class _ReplicationPointCharger(ChunkValues):
    """Exact per-point charge replay for a chunk of direct and sampling
    accesses.

    A worker's clock is fixed inside a chunk (``advance_clock`` follows it),
    so one :meth:`ReplicationPS._refresh` over the whole chunk charges it:
    the *first* occurrence of each key without a fresh replica refreshes at
    its position and is fresh from then on; every other access costs one
    intra-process message. A point's pulls walk its ``[direct | sample]``
    positions in order, its pushes cost one intra-process message per key.
    The refreshed values install in one batch before the value pass. That
    is exact: sampling is application-side — the base class's
    ``prepare_sample`` fixes the keys, ``pull_sample``/``push_sample`` are
    plain ``pull``/``push`` —, no flush runs inside a chunk, and a key's
    first access in a chunk is a pull that precedes every push to it (a
    point only pushes keys it pulled), so the store row and the node's
    buffered update it reads are the pre-chunk ones.

    Counters aggregate into one write per round. Server occupancy is applied
    per chunk instead: ESSP's eager refresh adds a different constant to the
    server clocks at every ``advance_clock``, so the repeated additions of
    the occupancy constant may only be regrouped between two of them.

    Values live in the node's replica: :meth:`read` serves
    ``replica_values``, :meth:`add` lands in ``replica_values`` and
    ``update_values``; the chunk's keys enter ``update_mask`` and
    ``pending_updates`` once, when it is charged, and are translated to the
    node's rows (:meth:`_NodeReplicaState.at`) once for the whole value pass.
    """

    __slots__ = ("acc", "values", "updates", "gather")

    def __init__(self, ps: ReplicationPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     direct_widths: list, sample_widths: list,
                     compute_costs: list) -> None:
        """Charge one worker's chunk: per point, its calls + compute.

        Point ``i`` owns the next ``direct_widths[i]`` direct keys followed
        by ``sample_widths[i]`` sample keys. Also binds the keys for the
        value pass.
        """
        ps = self.ps
        node_id = worker.node_id
        state = ps._nodes[node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        positions, costs, server_counts = ps._refresh(
            node_id, state, keys, worker_clock, worker_clock - ps.staleness)
        self._bind(keys)
        n = len(keys)
        if n == 0:
            return

        intra_cost = ps._intra_process_cost
        if costs is None:
            costs = [intra_cost] * n
        # Applied now, not at the end of the round: see the class docstring.
        n_remote = ps._occupy_servers(server_counts) if server_counts else 0

        scale = worker.compute_scale
        now = worker.clock.now
        position = 0
        for n_direct, n_sample, compute in zip(direct_widths, sample_widths,
                                               compute_costs):
            end = position + n_direct + n_sample
            for cost in costs[position:end]:  # the pulls
                now += cost
            for _ in range(position, end):  # the pushes
                now += intra_cost
            now += compute * scale
            position = end
        worker.clock.advance_to(now)

        state.pending_updates.append(keys)
        # From here on ``keys`` index the node's arrays (sparse: pool rows,
        # translated once for the whole value pass; nothing materializes on
        # this node before the next chunk is charged).
        self.keys, at = state.at(self.keys, writable=True)
        if at is not state:
            self.keys_list = self.keys.tolist()
        self.values, self.updates = at.replica_values, at.update_values
        # Sparse: the pool field's gather; dense: ``None``, ``read`` takes
        # straight from the array (one call less per point).
        self.gather = None if at is state else state.replica_values.gather
        at.update_mask[self.keys] = True

        n_refresh = len(positions)
        acc = self.acc
        acc.add_access(node_id, "pull.replica", n - n_refresh)
        acc.add_access(node_id, "pull.local_server", n_refresh - n_remote)
        acc.add_access(node_id, "pull.remote", n_remote)
        acc.add_access(node_id, "push.replica", n)
        if n_remote:
            acc.add_counter(node_id, "network.messages", 2 * n_remote)
            acc.add_counter(node_id, "network.bytes",
                            n_remote * ps._cached_value_bytes)

    def read(self, lo: int, hi: int) -> np.ndarray:
        if self.gather is None:
            return self.values.take(self.keys[lo:hi], axis=0)
        return self.gather(self.keys[lo:hi])

    def _add_rows(self, keys: np.ndarray, keys_list: list,
                  deltas: np.ndarray) -> None:
        """Apply to the replica and buffer for the next flush."""
        scatter_add_rows(self.values, keys, deltas, keys_list)
        scatter_add_rows(self.updates, keys, deltas, keys_list)

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)
