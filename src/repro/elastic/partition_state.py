"""Split-brain state of an active network partition.

While a :class:`~repro.scenarios.perturbations.NetworkPartition` is active, the
cluster is split into a majority side (which keeps quorum and trains
normally) and a minority side that cannot reach it. The
:class:`PartitionState` models the minority's graceful degradation — the
consistent-query-answering stance of serving the best certain answer instead
of failing:

* **Bounded-staleness reads.** Minority pulls are served from a snapshot of
  the global store taken at partition start, merged with the minority's own
  buffered writes — the freshest state certainly reachable on that side.
* **Buffered writes.** Minority pushes accumulate in a side-local delta
  buffer instead of being dropped; at heal they are replayed into the global
  store. Parameter updates are additive deltas, so replay commutes with the
  majority's concurrent writes and reconciliation is a merge, not a rollback.
* **Version vectors.** Each key carries a two-entry vector counting majority
  and minority writes during the partition. A key with both entries positive
  diverged (split-brain writes); the heal reports the count so benchmarks can
  quantify divergence, and the additive merge resolves it.

The majority side never reads minority state: accesses addressing keys owned
by an unreachable node raise
:class:`~repro.faults.errors.PartitionedOwnerError`, which the epoch loop
turns into deferred (re-queued) chunks — admission control, not data loss.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["PartitionState"]

#: Version-vector columns.
MAJORITY, MINORITY = 0, 1


class PartitionState:
    """Reachability groups, degraded-read state, and reconciliation buffers."""

    def __init__(self, ps, minority: Iterable[int], now: float) -> None:
        self.ps = ps
        self.cluster = ps.cluster
        self.metrics = ps.cluster.metrics
        self.minority = frozenset(int(n) for n in minority)
        if not self.minority:
            raise ValueError("a partition needs at least one minority node")
        active = self.cluster.active_nodes
        self.majority = [n for n in active if n not in self.minority]
        if len(self.majority) < len(self.minority):
            raise ValueError(
                f"minority side {sorted(self.minority)} is not a minority of "
                f"the active nodes {active}; the quorum side must be larger"
            )
        if not self.majority:
            raise ValueError("the majority side cannot be empty")
        self.started_at = float(now)
        store = ps.store
        self.num_keys = store.num_keys
        self.value_length = store.value_length
        #: Snapshot of the global store at partition start: the freshest
        #: state the minority side can certainly serve.
        self.snapshot = store.get(
            np.arange(self.num_keys, dtype=np.int64)
        ).astype(np.float32, copy=True)
        #: Minority-side write buffer (deltas since partition start).
        self.buffer = np.zeros((self.num_keys, self.value_length),
                               dtype=np.float32)
        self.buffer_mask = np.zeros(self.num_keys, dtype=bool)
        #: Per-key version vector: writes per side during the partition.
        self.versions = np.zeros((self.num_keys, 2), dtype=np.int64)
        self.stale_reads = 0
        self.buffered_writes = 0

    # ------------------------------------------------------------ reachability
    def is_minority(self, node_id: int) -> bool:
        return node_id in self.minority

    def unreachable_owners(self, node_id: int, owners: np.ndarray) -> np.ndarray:
        """Mask over ``owners`` of shards the caller's side cannot reach."""
        if node_id in self.minority:
            reachable = self.minority
        else:
            reachable = set(self.majority)
        return np.fromiter(
            (int(owner) not in reachable for owner in owners),
            dtype=bool, count=len(owners),
        )

    # -------------------------------------------------------- degraded access
    def degraded_pull(self, worker, keys: np.ndarray) -> np.ndarray:
        """Serve a minority pull from the snapshot plus the side's own writes.

        Charged like local reads: the snapshot lives on the minority side
        (surviving replicas), so no partition-crossing message is needed.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = self.snapshot[keys] + self.buffer[keys]
        worker.clock.advance(
            len(keys) * self.cluster.network.local_access_cost
        )
        self.stale_reads += len(keys)
        self.metrics.increment("elastic.stale_reads", len(keys))
        self.metrics.record_access("pull.stale", len(keys))
        return values

    def degraded_push(self, worker, keys: np.ndarray,
                      deltas: np.ndarray) -> None:
        """Buffer a minority push for replay at heal (never dropped)."""
        keys = np.asarray(keys, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float32)
        np.add.at(self.buffer, keys, deltas)
        self.buffer_mask[keys] = True
        np.add.at(self.versions[:, MINORITY], keys, 1)
        worker.clock.advance(
            len(keys) * self.cluster.network.local_access_cost
        )
        self.buffered_writes += len(keys)
        self.metrics.increment("elastic.buffered_writes", len(keys))
        self.metrics.record_access("push.buffered", len(keys))

    def record_majority_writes(self, keys: np.ndarray) -> None:
        """Bump the majority column for writes that went through normally."""
        np.add.at(self.versions[:, MAJORITY],
                  np.asarray(keys, dtype=np.int64), 1)

    # ------------------------------------------------------------------- heal
    def heal(self, now: float) -> dict:
        """Merge the minority's buffered writes back into the global store.

        Divergent keys (written on both sides while split) are detected from
        the version vectors and reported; the additive replay is the
        reconciliation — deltas commute, so no update from either side is
        lost. The replay payload is charged to the minority nodes'
        background clocks (they re-send their buffered deltas) and to the
        network counters.
        """
        replayed = np.flatnonzero(self.buffer_mask)
        if len(replayed):
            self.ps.store.add(replayed, self.buffer[replayed])
            payload = len(replayed) * self.ps.store.value_bytes()
            network = self.cluster.network
            transfer = network.transfer_cost(payload)
            share = transfer / len(self.minority)
            for node_id in sorted(self.minority):
                background = self.cluster.node(node_id).background_clock
                background.advance_to(max(float(now), background.now) + share)
            self.metrics.increment("network.messages", len(self.minority))
            self.metrics.increment("network.bytes", payload)
            # Replicas of replayed keys now lag the store by the replayed
            # deltas; flush outstanding replica buffers, then refresh so
            # post-heal reads see the merged values. The flush must come
            # first: refresh_all discards buffered updates by contract.
            manager = getattr(self.ps, "replica_manager", None)
            if manager is not None:
                manager.force_sync(float(now))
                manager.refresh_all()
        divergent = int(np.count_nonzero(
            (self.versions[:, MAJORITY] > 0) & (self.versions[:, MINORITY] > 0)
        ))
        duration = float(now) - self.started_at
        self.metrics.increment("elastic.replayed_writes", len(replayed))
        self.metrics.increment("elastic.divergent_keys", divergent)
        self.metrics.increment("elastic.partition_heals", 1)
        self.metrics.increment("elastic.partition_time", duration)
        return {
            "replayed_keys": int(len(replayed)),
            "divergent_keys": divergent,
            "duration": duration,
            "stale_reads": self.stale_reads,
            "buffered_writes": self.buffered_writes,
        }
