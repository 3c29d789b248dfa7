"""Periodic consistent checkpoints of the parameter store.

A checkpoint is a deep copy of the :class:`~repro.ps.storage.ParameterStore`
(values *and* write-version counters) taken at a simulated instant. Writing
it out is not free: each surviving node streams its share of the model to
stable storage on its background thread, so aggressive checkpoint intervals
show up in epoch run time. On a crash, keys that no live replica covers are
rolled back to the latest checkpoint; the version counters quantify exactly
how many updates the rollback discarded (the "lost work" the benchmarks
report).

``interval=None`` disables periodic checkpointing but still snapshots the
initial state, which models the *restart-from-scratch* baseline: every
rollback returns to epoch zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster
from repro.simulation.events import PeriodicSchedule

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Takes and restores consistent snapshots of a parameter store."""

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        interval: Optional[float] = None,
        start_time: float = 0.0,
    ) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(
                f"checkpoint interval must be positive (or None to disable "
                f"periodic checkpoints); got {interval}"
            )
        self.store = store
        self.cluster = cluster
        self.interval = interval
        # The t0 snapshot doubles as the restart-from-scratch baseline. On
        # the sparse backend ``copy`` clones only the materialized chunks
        # (untouched regions restore to their deterministic initial fill), so
        # checkpointing a mostly-untouched 10^8-key store stays cheap.
        self.snapshot = store.copy()
        self.snapshot_time = float(start_time)
        self.checkpoints_taken = 0
        if interval is None:
            self.schedule = PeriodicSchedule.disabled()
        else:
            self.schedule = PeriodicSchedule(interval, start=start_time)

    # ------------------------------------------------------------------ taking
    def maybe_checkpoint(self, now: float) -> bool:
        """Take the checkpoint due at ``now``, if any.

        A backlog of overdue intervals collapses into a single checkpoint
        (several snapshots at one instant would all be identical).
        """
        due = self.schedule.due_count(now)
        if not due:
            return False
        for _ in range(due):
            self.schedule.fire(now, 0.0)
        self.take(now)
        return True

    def take(self, now: float) -> None:
        """Snapshot the store and charge the write-out to surviving nodes.

        The model is partitioned across the active nodes; each streams its
        share to stable storage on its background thread (one message
        handling plus the payload transfer).
        """
        self.snapshot = self.store.copy()
        self.snapshot_time = float(now)
        self.checkpoints_taken += 1
        active = self.cluster.active_nodes
        if active:
            network = self.cluster.network
            share = self.store.total_bytes() / len(active)
            cost = network.message_handling_cost + network.transfer_cost(int(share))
            for node_id in active:
                background = self.cluster.node(node_id).background_clock
                background.advance_to(max(now, background.now) + cost)
        self.cluster.metrics.increment("faults.checkpoints", 1)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.event(
                "checkpoint", "faults", float(now),
                total_bytes=int(self.store.total_bytes()),
                checkpoints_taken=self.checkpoints_taken,
            )

    # --------------------------------------------------------------- restoring
    def restore(self, keys: np.ndarray) -> int:
        """Roll ``keys`` back to the snapshot; return the updates discarded.

        Writes values and version counters directly (bypassing the store's
        access counters: a rollback is not a training update). The return
        value is the total number of post-snapshot writes to ``keys`` that
        the rollback threw away.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return 0
        snapshot_versions = self.snapshot.read_versions(keys)
        lost = int((self.store.read_versions(keys) - snapshot_versions).sum())
        self.store.write_rows(keys, self.snapshot.get(keys))
        self.store.write_versions(keys, snapshot_versions)
        return max(lost, 0)
