"""Eager replication with time-based staleness bounds (Section 3.2).

NuPS replicates hot-spot keys on every node. Reads and writes to replicated
keys go to the node's replica through shared memory; writes additionally
accumulate in a per-node update buffer. A background thread synchronizes the
replicas periodically — the paper's default is every 40 ms, i.e. 25
synchronizations per second — using a sparse all-reduce (only updated keys
are exchanged, recursive-doubling communication pattern).

If the update payload grows so large that one synchronization takes longer
than the target interval, the achieved synchronization frequency drops below
the target (the background thread cannot keep up). This is exactly the effect
reported in Figures 11 and 12: too much replication makes replicas stale and
deteriorates model quality. The :class:`ReplicaManager` tracks the achieved
frequency so benchmarks can report it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.management import ManagementPlan
from repro.simulation.cluster import Cluster
from repro.simulation.events import PeriodicSchedule
from repro.ps.storage import ParameterStore, scatter_add_rows


#: Default replica staleness bound: synchronize every 40 ms (25 syncs/second).
DEFAULT_SYNC_INTERVAL = 0.040


class ReplicaManager:
    """Per-node replicas of the hot-spot keys, synchronized periodically."""

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        plan: ManagementPlan,
        sync_interval: Optional[float] = DEFAULT_SYNC_INTERVAL,
        start_time: float = 0.0,
    ) -> None:
        if plan.num_keys != store.num_keys:
            raise ValueError(
                "management plan covers a different key space than the store"
            )
        self.store = store
        self.cluster = cluster
        self.plan = plan
        self.metrics = cluster.metrics

        self.replicated_keys = plan.replicated_keys
        self.num_replicated = len(self.replicated_keys)
        # Map absolute key -> slot in the dense replica arrays (-1 if not
        # replicated): a column on the store's backend, so on the sparse one
        # only the replicated keys get records. The replica arrays
        # themselves are slot-indexed (num_replicated rows). With no
        # replicated keys the lookup is skipped entirely. The manager holds
        # the table: its column refers to it weakly.
        self._slot_table = self._slot_of_key = None
        if self.num_replicated:
            self._slot_table = store.storage.table(store.num_keys,
                                                   label="replica_manager")
            self._slot_of_key = self._slot_table.column(
                "slot_of_key", np.int64, fill_value=-1)
            self._slot_of_key[self.replicated_keys] = np.arange(
                self.num_replicated, dtype=np.int64
            )

        # Per-node replica values and not-yet-synchronized update buffers.
        initial = store.get(self.replicated_keys) if self.num_replicated else \
            np.empty((0, store.value_length), dtype=np.float32)
        members = [node_id for node_id in range(cluster.num_nodes)
                   if node_id not in cluster.removed]
        self._replicas: Dict[int, np.ndarray] = {
            node_id: initial.copy() for node_id in members
        }
        self._buffers: Dict[int, np.ndarray] = {
            node_id: np.zeros_like(initial) for node_id in members
        }
        self._dirty: Dict[int, np.ndarray] = {
            node_id: np.zeros(self.num_replicated, dtype=bool)
            for node_id in members
        }

        if sync_interval is None or self.num_replicated == 0:
            # No replication (or synchronization disabled): the background
            # thread exits immediately, sending no messages (Section 3.2).
            self.schedule = PeriodicSchedule.disabled()
        else:
            if sync_interval <= 0:
                raise ValueError("sync_interval must be positive (or None to disable)")
            # ``start_time`` anchors the first firing for managers built
            # mid-run (re-management): without it a fresh schedule would owe
            # one sync per elapsed interval since time zero.
            self.schedule = PeriodicSchedule(sync_interval, start=start_time)
        self.sync_interval = sync_interval
        self.syncs_performed = 0

    # ------------------------------------------------------------------ access
    @property
    def network(self):
        """The cluster's current network model (tracked dynamically so that
        time-varying network scenarios affect synchronization costs too)."""
        return self.cluster.network

    @property
    def enabled(self) -> bool:
        """Whether any key is managed by replication."""
        return self.num_replicated > 0

    def slots(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if self._slot_of_key is None:
            return np.full(len(keys), -1, dtype=np.int64)
        return self._slot_of_key.take(keys)

    def nbytes(self) -> int:
        """Resident bytes of the slot table, replicas, buffers and dirty masks."""
        total = 0 if self._slot_table is None else self._slot_table.nbytes
        for node_id in self._replicas:
            total += int(self._replicas[node_id].nbytes)
            total += int(self._buffers[node_id].nbytes)
            total += int(self._dirty[node_id].nbytes)
        return total

    def read_slots(self, node_id: int, slots: np.ndarray) -> np.ndarray:
        """The node's replica values at replica ``slots`` (shared memory; one
        :meth:`slots` lookup per chunk in the round engine)."""
        return self._replicas[node_id].take(slots, axis=0)

    def add_slots(self, node_id: int, slots: np.ndarray,
                  deltas: np.ndarray) -> None:
        """Apply ``deltas`` to the node's replica at ``slots`` and buffer them
        for the next sync; repeated slots accumulate in order."""
        slots_list = slots.tolist() if len(slots) <= 64 else None
        scatter_add_rows(self._replicas[node_id], slots, deltas, slots_list)
        scatter_add_rows(self._buffers[node_id], slots, deltas, slots_list)
        self._dirty[node_id][slots] = True

    # ------------------------------------------------------------------- sync
    def maybe_sync(self, now: float) -> int:
        """Run all synchronization rounds that are due at simulated time ``now``.

        Returns the number of rounds performed. Each round costs one sparse
        all-reduce of the union of all nodes' dirty keys and is charged to
        every node's background clock, so heavy synchronization shows up in
        epoch run time (and competes with relocation for the same background
        threads, as in the paper's Section 5.6 analysis).
        """
        if not self.enabled or not self.schedule.enabled:
            return 0
        performed = 0
        # Re-check after every round: each round pushes the schedule's
        # busy-until forward, so a background thread that cannot keep up with
        # the target frequency fires fewer rounds (it never "catches up" by
        # firing a burst of overdue rounds at once).
        while self.schedule.due_count(now) > 0:
            self._sync_once(now)
            performed += 1
        return performed

    def force_sync(self, now: float = 0.0) -> None:
        """Synchronize immediately (used at epoch boundaries and in tests)."""
        if self.enabled:
            self._sync_once(now)

    def refresh_all(self) -> None:
        """Reload every replica from the store's current values.

        For callers that mutate the store *underneath* the replicas —
        hot-set drift permutes rows after flushing buffered updates
        (``ParameterStore.permute``) — so that replicated keys do not keep
        serving the pre-mutation parameter values. Discards any buffered
        updates (callers must flush first via :meth:`force_sync`; after a
        permutation the buffers would credit the wrong keys anyway) and
        charges nothing: like the initial replication at construction, this
        models state copied as part of an already-charged transition.
        """
        if not self.enabled:
            return
        fresh = self.store.get(self.replicated_keys)
        for node_id in self._replicas:
            self._replicas[node_id][...] = fresh
            self._buffers[node_id][...] = 0.0
            self._dirty[node_id][:] = False

    # ------------------------------------------------------------- membership
    def seed_node(self, node_id: int) -> None:
        """Replicate on ``node_id`` from the store's current values.

        A joining node starts replicating, and a restored node repairs its
        replica: its replica and the updates it buffered died in the crash.
        Either way the replica is seeded from the store with empty buffers,
        exactly like the initial replication at construction, and nothing is
        charged — the state copy is part of the transition the membership
        controller charges.
        """
        initial = self.store.get(self.replicated_keys) if self.num_replicated \
            else np.empty((0, self.store.value_length), dtype=np.float32)
        self._replicas[node_id] = initial
        self._buffers[node_id] = np.zeros_like(initial)
        self._dirty[node_id] = np.zeros(self.num_replicated, dtype=bool)

    def drop_node(self, node_id: int) -> int:
        """Stop replicating on ``node_id`` (planned removal); return drained slots.

        The node's buffered replica updates are applied to the global store
        before the state is dropped — the drain step that distinguishes a
        planned scale-in (zero lost updates) from a crash (buffer gone). The
        transfer cost is charged by the caller.
        """
        drained = 0
        if node_id in self._buffers:
            node_dirty = np.flatnonzero(self._dirty[node_id])
            drained = int(len(node_dirty))
            if drained:
                self.store.add(
                    self.replicated_keys[node_dirty],
                    self._buffers[node_id][node_dirty],
                )
        self._replicas.pop(node_id, None)
        self._buffers.pop(node_id, None)
        self._dirty.pop(node_id, None)
        return drained

    def _sync_once(self, now: float) -> None:
        # Union of dirty slots across nodes: only updated parameters are
        # exchanged (sparse all-reduce, Section 3.2).
        dirty_union = np.zeros(self.num_replicated, dtype=bool)
        for node_id in self._dirty:
            dirty_union |= self._dirty[node_id]
        dirty_slots = np.flatnonzero(dirty_union)

        if len(dirty_slots):
            dirty_keys = self.replicated_keys[dirty_slots]
            # Apply every node's buffered updates to the global store.
            for node_id in self._buffers:
                buffer = self._buffers[node_id]
                node_dirty = np.flatnonzero(self._dirty[node_id])
                if len(node_dirty):
                    self.store.add(
                        self.replicated_keys[node_dirty], buffer[node_dirty]
                    )
                buffer[dirty_slots] = 0.0
                self._dirty[node_id][:] = False
            # Refresh all replicas with the now-current global values.
            fresh = self.store.get(dirty_keys)
            for node_id in self._replicas:
                self._replicas[node_id][dirty_slots] = fresh

        # Charge the communication cost: each participating node runs a
        # recursive-doubling all-reduce whose payload is the dirty keys. The
        # end-to-end *duration* (including wire latency) determines whether
        # the background thread can sustain the target frequency; the
        # *occupancy* charged to each node's background thread is only the
        # per-message handling plus the payload transfer. Removed nodes have
        # been dropped from the dicts, so ``participants`` equals the
        # cluster's node count whenever membership never changed.
        participants = len(self._replicas)
        payload = len(dirty_slots) * self.store.value_bytes()
        duration = self.network.allreduce_cost(payload, participants)
        rounds = (participants - 1).bit_length() if participants > 1 else 0
        occupancy = rounds * (
            self.network.message_handling_cost + self.network.transfer_cost(payload)
        )
        for node_id in self._replicas:
            if node_id in self.cluster.failed:
                continue  # a crashed node does not participate in the all-reduce
            background = self.cluster.node(node_id).background_clock
            start = max(now, background.now)
            background.advance_to(start + occupancy)
        self.schedule.fire(now, duration)
        self.syncs_performed += 1
        self.metrics.increment("replica.syncs", 1)
        self.metrics.increment("replica.sync_bytes", payload)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.event(
                "replica_sync", "replica", now,
                dirty_slots=int(len(dirty_slots)), payload_bytes=int(payload),
                participants=participants,
            )
        if participants > 1:
            self.metrics.increment(
                "network.messages", rounds * participants
            )
            self.metrics.increment(
                "network.bytes", payload * participants
            )
