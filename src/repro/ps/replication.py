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
``_flush_node``/``_eager_refresh`` process as whole key batches. Access
charging is one fold over a chunk's calls (:class:`_ReplicationPointCharger`;
a single ``pull``/``push`` is a one-call chunk of it) around one freshness
step, ``ReplicationPS._refresh``: one lookup over the chunk's keys and one
batch install of every key refreshed where a call first finds it without a
usable replica.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Dict

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.chunks import MemoryBudget, StorageConfig
from repro.ps.rounds import (
    ChunkValues,
    RoundAccounting,
    pushed_spans,
    span_mask,
)
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

    The five structures are the columns of one
    :class:`~repro.ps.chunks.ChunkedTable` on the store's backend. On the
    sparse backend a key gets its record in all of them on first write — the
    fills are all zero (mask ``False``, clock 0: every read of a clock is
    gated by ``replica_mask``), precisely the dense initial values, so reads
    of untouched keys are bit-identical and a fresh record is untouched
    memory. Resident memory is then an index of the keys the node has
    written (16 bytes each) plus one record per such key, and an optional
    per-node budget is charged per chunk of keys.
    """

    def __init__(self, num_keys: int, value_length: int,
                 storage: StorageConfig, node_id: int) -> None:
        self.value_length = value_length
        budget = None
        if storage.node_budget_bytes is not None:
            budget = MemoryBudget(storage.node_budget_bytes,
                                  label=f"replica state of node {node_id}",
                                  setting="StorageConfig.node_budget_bytes")
        self.table = table = storage.table(num_keys, budget, f"node{node_id}")
        self.replica_mask = table.column("replica_mask", bool)
        self.replica_values = table.column("replica_values", np.float32,
                                           (value_length,))
        self.replica_clock = table.column("replica_clock", np.int64)
        self.update_mask = table.column("update_mask", bool)
        self.update_values = table.column("update_values", np.float32,
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
        """Ascending keys with a replica."""
        return self.replica_mask.where_equal(True)

    def nbytes(self) -> int:
        """Resident bytes of the node's replica/update state."""
        return self.table.nbytes

    def at(self, keys: np.ndarray, writable: bool = False) -> np.ndarray:
        """The rows of ``keys`` in every column's ``pool`` — one translation
        for all five structures (on dense, the keys), the keys given records
        first when ``writable``. A ``pool`` is current until this node next
        materializes a chunk; gather from it by fancy indexing or a column's
        ``gather``, never ``take`` (see
        :meth:`~repro.ps.chunks.ChunkedArray.gather`). Keys are not
        range-checked here: the store checks every key it serves.
        """
        rows = self.table._rows(keys)
        return self.table.claim(keys, rows) if writable else rows


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
    ) -> None:
        """A replication PS over ``store`` on ``cluster``.

        ``protocol`` picks SSP or ESSP replica maintenance, ``staleness`` the
        bound in clocks. The protocols differ only in :meth:`advance_clock`,
        so one point charger serves both, for every task: sampling is
        application-side here (the base class's ``prepare_sample`` draws the
        keys, ``pull_sample``/``push_sample`` are plain ``pull``/``push``).
        """
        super().__init__(store, cluster, seed)
        if staleness < 0:
            raise ValueError("staleness must be non-negative")
        self.protocol = protocol
        self.staleness = int(staleness)
        self.name = f"replication-{protocol.value}"
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

    # ----------------------------------------------------------------- charging
    def _refresh(self, node_id: int, state: _NodeReplicaState,
                 keys: np.ndarray, calls, worker_clock: int) -> tuple:
        """Refresh, in call order, every key of ``calls`` that a call finds
        without a usable replica, and say where that happened.

        A pull needs a replica whose clock is at least ``worker_clock``
        minus the staleness bound; a push needs a replica at all (Petuum
        reads-before-writes via the cache). The first access that finds a
        key without one refreshes it from its owning server — one
        intra-process message from the node's own server, a remote access
        from any other — and the key is usable from then on. The refreshed
        replicas install in one batch as of ``worker_clock``: the global
        value overlaid with the node's not-yet-flushed update (Petuum reads
        its own writes). That is the value a refresh at the access would
        read as long as no push of the chunk precedes the refresh of its
        key — true of a one-call chunk and of points that pull every key
        they push.

        Returns ``(events, server_counts)``: per refreshing call index
        ``{position: cost}``, the cost of each refresh (empty when nothing
        refreshes: the steady state), and the remote refreshes per serving
        node.
        """
        index = state.at(keys)
        mask = state.replica_mask.pool[index]
        clocks = state.replica_clock.pool[index]
        threshold = worker_clock - self.staleness
        # The steady state, every replica usable, is checked on lists: a
        # NumPy reduction costs more than a whole call on a few keys.
        if all(mask.tolist()) and min(clocks.tolist(),
                                      default=threshold) >= threshold:
            return {}, {}
        stale = (~(mask & (clocks >= threshold))).nonzero()[0].tolist()
        missing = (~mask).nonzero()[0].tolist()
        keys_list = keys.tolist()
        found: dict = {}  # key -> (call index, position), in refresh order
        for call, (kind, lo, hi, _) in enumerate(calls):
            needing = missing if kind & 2 else stale
            first = bisect_left(needing, lo)
            for position in needing[first:bisect_left(needing, hi, first)]:
                found.setdefault(keys_list[position], (call, position))
        events: dict = {}
        server_counts: dict = {}
        if not found:
            return events, server_counts
        refresh_keys = np.fromiter(found, dtype=np.int64, count=len(found))
        owners = self.partitioner.owners(refresh_keys).tolist()
        refreshed = self.store.get(refresh_keys)
        index = state.at(refresh_keys, writable=True)
        buffered = state.update_mask.pool[index]
        if buffered.any():
            refreshed[buffered] += state.update_values.pool[index[buffered]]
        state.replica_values.pool[index] = refreshed
        state.replica_mask.pool[index] = True
        state.replica_clock.pool[index] = worker_clock

        for (call, position), owner in zip(found.values(), owners):
            if owner == node_id:
                cost = self._intra_process_cost
            else:
                cost = self._remote_access_cost
                server_counts[owner] = server_counts.get(owner, 0) + 1
            events.setdefault(call, {})[position] = cost
        return events, server_counts

    def _occupy_servers(self, server_counts: dict) -> int:
        """Occupy each serving node's request thread once per remote refresh
        (:meth:`_refresh`'s ``server_counts``); return the refreshes."""
        for server, count in server_counts.items():
            self.cluster.node(server).server_clock.advance_repeated(
                self._server_occupancy, count
            )
        return sum(server_counts.values())

    # ------------------------------------------------------------- internals
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
        index = state.at(keys)
        buffered = state.update_mask.pool[index]
        keys, index = keys[buffered], index[buffered]
        if not len(keys):
            return
        self.store.add_distinct(keys, state.update_values.pool[index])

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
            self.metrics.increment("network.messages", remote_servers)
            self.metrics.increment("network.bytes", remote_bytes)
        self.metrics.increment("replication.flushes", 1)
        self.metrics.increment("replication.flushed_keys", len(keys))
        state.update_values.pool[index] = 0.0
        state.update_mask.pool[index] = False
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
        index = state.at(keys)
        state.replica_values.pool[index] = self.store.get(keys)
        state.replica_clock.pool[index] = state.clock

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
            self.metrics.increment("network.messages", 1)
            self.metrics.increment("network.bytes",
                                   server_keys * payload_per_key)
        self.metrics.increment("replication.eager_refreshes", 1)
        self.metrics.increment("replication.refreshed_keys", len(keys))
        tracer = self.tracer
        if tracer is not None:
            tracer.event("replica_refresh", "replica", background.now,
                         node=node_id, keys=int(len(keys)))

    def finish_epoch(self) -> None:
        """Flush all outstanding updates (end of training epoch)."""
        for node_id, state in self._nodes.items():
            self._flush_node(node_id, state)

    def state_nbytes(self) -> Dict[str, int]:
        sizes = super().state_nbytes()
        sizes["replica_state"] = sum(
            state.nbytes() for state in self._nodes.values()
        )
        return sizes

    # --------------------------------------------------------- membership API
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

    def on_node_arrived(self, node_id: int, available_at: float) -> None:
        """Create replica state for a joining node.

        A restored node keeps the state it had: a crash does not clear a
        node's replicas or write buffer here.
        """
        if node_id not in self._nodes:
            self._nodes[node_id] = _NodeReplicaState(
                self.store.num_keys, self.store.value_length,
                storage=self.store.storage, node_id=node_id,
            )

    def release_node(self, node_id: int, now: float) -> int:
        """Flush the leaving node's buffered updates, then drop its state.

        The flush is exactly the step a crash cannot perform: every
        acknowledged push still sitting in the node's write buffer is applied
        before the node goes away, so a planned scale-in loses zero updates.
        """
        state = self._nodes.pop(node_id, None)
        if state is None:
            return 0
        drained = state.update_mask.count_nonzero()
        self._flush_node(node_id, state)
        return drained


class _ReplicationPointCharger(ChunkValues):
    """The replication PS's access-charging fold.

    A worker's clock is fixed inside a chunk (``advance_clock`` follows
    it), so one :meth:`ReplicationPS._refresh` over the chunk's calls finds
    every refresh: a pull position that refreshes costs its refresh instead
    of the intra-process message, a push position that creates its replica
    costs the creation before its message, and every other access costs one
    intra-process message. No flush runs inside a chunk, so the values the
    refreshes install are the pre-chunk ones.

    Counters aggregate into one write per round. Server occupancy is applied
    per chunk instead: ESSP's eager refresh adds a different constant to the
    server clocks at every ``advance_clock``, so the repeated additions of
    the occupancy constant may only be regrouped between two of them.

    Values live in the node's replica: :meth:`read` serves
    ``replica_values``, :meth:`add` lands in ``replica_values`` and
    ``update_values``; the pushed keys enter ``update_mask`` and
    ``pending_updates`` once, when the chunk is charged, and the chunk's
    keys are translated to the node's rows (:meth:`_NodeReplicaState.at`)
    once for the whole value pass.
    """

    __slots__ = ("acc", "updates")

    def __init__(self, ps: ReplicationPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        """Charge one worker's chunk, call by call (see the class), and
        bind its keys for the value pass."""
        ps = self.ps
        node_id = worker.node_id
        state = ps._nodes[node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        events, server_counts = ps._refresh(node_id, state, keys, calls,
                                            worker_clock)
        self.keys = keys = ps.store.check_keys(keys)
        # Applied now, not at the end of the round: see the class docstring.
        n_remote = ps._occupy_servers(server_counts) if server_counts else 0

        intra_cost = ps._intra_process_cost
        scale = worker.compute_scale
        now = worker.clock.now
        widths = [0, 0]  # pulled, pushed
        pull_refreshes = 0
        for call, (kind, lo, hi, compute) in enumerate(calls):
            writes = kind >> 1
            widths[writes] += hi - lo
            refreshing = events.get(call) if events else None
            if refreshing is None:
                for _ in range(lo, hi):
                    now += intra_cost
            elif writes:  # a creation, before its push's message
                for position in range(lo, hi):
                    cost = refreshing.get(position)
                    if cost is not None:
                        now += cost
                    now += intra_cost
            else:
                pull_refreshes += len(refreshing)
                for position in range(lo, hi):
                    now += refreshing.get(position, intra_cost)
            if compute:
                now += compute * scale
        worker.clock.advance_to(now)

        # The node's rows of ``keys``, translated once for the whole value
        # pass; nothing materializes on this node before the next chunk is
        # charged.
        pushed = pushed_spans(calls)
        self.rows = state.at(keys, writable=bool(pushed))
        self.rows_list = self.rows.tolist()
        self.values = state.replica_values.pool
        self.updates = state.update_values.pool
        self.gather = state.replica_values.gather
        if pushed == [(0, len(keys))]:  # every key pushed: the tasks' chunks
            state.update_mask.pool[self.rows] = True
            state.pending_updates.append(keys)
        elif pushed:
            covered = span_mask(pushed, len(keys))
            state.update_mask.pool[self.rows[covered]] = True
            state.pending_updates.append(keys[covered])

        n_refresh = sum(map(len, events.values()))
        acc = self.acc
        acc.add_access("pull.replica", widths[0] - pull_refreshes)
        acc.add_access("pull.local_server", n_refresh - n_remote)
        acc.add_access("pull.remote", n_remote)
        acc.add_access("push.replica", widths[1])
        if n_remote:
            acc.add_counter("network.messages", 2 * n_remote)
            acc.add_counter("network.bytes",
                            n_remote * ps._cached_value_bytes)

    def _add_rows(self, rows: np.ndarray, rows_list: list,
                  deltas: np.ndarray) -> None:
        """Apply to the replica and buffer for the next flush."""
        scatter_add_rows(self.values, rows, deltas, rows_list)
        scatter_add_rows(self.updates, rows, deltas, rows_list)

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)


ReplicationPS._charger = _ReplicationPointCharger
