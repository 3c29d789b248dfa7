"""The fault controller: crash detection, recovery, and repair orchestration.

One :class:`FaultController` per experiment coordinates what happens when a
server node dies:

1. the node is marked failed in the cluster (its shard becomes unreachable),
2. the keys it owned are re-assigned to the survivors: the ownership map
   fails the node over (``OwnershipMap.fail``) and the parameter server
   moves its dynamic copies along (``ParameterServer._rehome``), and
3. each lost key's *value* is repaired from the freshest available source —
   a surviving replica if the architecture keeps one
   (``ParameterServer.recover_values``), else the latest checkpoint.

The repaired keys become reachable again only after a recovery delay
(failure detection timeout + re-partition coordination + state transfer), so
accesses racing the recovery either wait (architectures with native arrival
tracking), retry with backoff (the scenario interposer's dead-owner gate),
or time out. All of it is charged to simulated clocks and recorded under
``faults.*`` metrics.

The controller is deliberately standalone — it needs only a parameter
server and its cluster, no scenario runtime — so invariant tests can drive
crash/restore sequences directly against any architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.faults.checkpoint import CheckpointManager

__all__ = ["FaultConfig", "FaultController"]


@dataclass
class FaultConfig:
    """Tunables of the recovery machinery.

    Parameters
    ----------
    recovery:
        ``"checkpoint"`` restores lost keys from periodic snapshots;
        ``"restart"`` keeps only the initial snapshot (restart-from-scratch
        baseline — every crash rolls its keys back to epoch zero).
    checkpoint_interval:
        Simulated seconds between checkpoints (``recovery="checkpoint"``).
    detection_timeout:
        Time until the survivors declare a silent node dead.
    max_retries:
        Retry budget of an access that hits a dead owner before it fails
        with a :class:`~repro.faults.errors.DeadOwnerError`.
    retry_backoff:
        Initial retry delay; doubles on every attempt.
    retry_jitter:
        Relative jitter applied to each retry delay: every delay is
        stretched by a factor in ``[1, 1 + retry_jitter]`` drawn from a
        deterministic generator seeded with ``retry_seed``. The default of
        ``0.0`` keeps the exact un-jittered doubling schedule (and never
        consumes the generator), so existing runs are bit-identical.
    retry_seed:
        Seed of the jitter generator. Explicit so retry schedules are
        reproducible across runs and processes.
    """

    recovery: str = "checkpoint"
    checkpoint_interval: float = 0.010
    detection_timeout: float = 0.002
    max_retries: int = 3
    retry_backoff: float = 0.001
    retry_jitter: float = 0.0
    retry_seed: int = 0

    def __post_init__(self) -> None:
        if self.recovery not in ("checkpoint", "restart"):
            raise ValueError(
                f"unknown recovery mechanism {self.recovery!r}; "
                "expected 'checkpoint' or 'restart'"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.detection_timeout < 0:
            raise ValueError("detection_timeout must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")
        if self.retry_seed < 0:
            raise ValueError("retry_seed must be non-negative")


class FaultController:
    """Coordinates crash, recovery, and restore for one parameter server."""

    def __init__(
        self,
        ps,
        config: Optional[FaultConfig] = None,
        start_time: float = 0.0,
    ) -> None:
        self.ps = ps
        self.cluster = ps.cluster
        self.config = config or FaultConfig()
        interval = (
            self.config.checkpoint_interval
            if self.config.recovery == "checkpoint"
            else None
        )
        self.checkpoint = CheckpointManager(
            ps.store, self.cluster, interval=interval, start_time=start_time
        )
        #: node_id -> simulated time its keys become reachable again
        self.down: Dict[int, float] = {}
        #: node_id -> bool mask over the key space of the keys it owned
        self._moved: Dict[int, np.ndarray] = {}

    @property
    def metrics(self):
        return self.cluster.metrics

    # ------------------------------------------------------------------- crash
    def crash_node(self, node_id: int, now: float) -> float:
        """Kill ``node_id`` at simulated time ``now``; return the recovery time.

        Fails the node in the cluster, repairs each lost key's value from
        the freshest surviving replica (falling back to the checkpoint), and
        re-partitions ownership to the survivors. Returns the simulated
        instant at which the moved keys become reachable on their new
        owners.
        """
        if node_id in self.cluster.failed:
            return self.down.get(node_id, float(now))
        # Fail first so active_nodes / replica donors exclude the victim.
        self.cluster.fail_node(node_id)
        survivors = self.cluster.active_nodes
        lost = np.asarray(self.ps.keys_owned_by(node_id), dtype=np.int64)

        recovered = 0
        lost_updates = 0
        if len(lost):
            values, mask = self.ps.recover_values(lost)
            if values is not None and mask.any():
                # Direct write: a repair is not a training update, so it
                # must not bump version counters or access metrics.
                self.ps.store.write_rows(lost[mask], values[mask])
            recovered = int(mask.sum())
            lost_updates = self.checkpoint.restore(lost[~mask])

        network = self.cluster.network
        transfer = network.transfer_cost(len(lost) * self.ps.store.value_bytes())
        t_recovered = (
            float(now)
            + self.config.detection_timeout
            + network.message_cost(0)
            + transfer
        )
        self.ps.partitioner.fail(node_id, survivors)
        self.ps._rehome(lost, survivors, t_recovered)
        # The survivors split the state transfer on their background threads.
        if survivors and transfer:
            share = transfer / len(survivors)
            for survivor in survivors:
                background = self.cluster.node(survivor).background_clock
                background.advance_to(max(float(now), background.now) + share)

        moved_mask = np.zeros(self.ps.store.num_keys, dtype=bool)
        moved_mask[lost] = True
        self._moved[node_id] = moved_mask
        self.down[node_id] = t_recovered

        metrics = self.metrics
        metrics.increment("faults.crashes", 1)
        metrics.increment("faults.recovery_time", t_recovered - float(now))
        metrics.increment("faults.lost_updates", lost_updates)
        metrics.increment("faults.keys_recovered_from_replicas", recovered)
        metrics.increment(
            "faults.keys_recovered_from_checkpoint", len(lost) - recovered
        )
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None:
            tracer.event(
                "crash", "faults", float(now), node=node_id,
                keys_lost=int(len(lost)), recovered_from_replicas=recovered,
                lost_updates=int(lost_updates),
                recovery_time=round(t_recovered - float(now), 9),
            )
        return t_recovered

    # ----------------------------------------------------------------- restore
    def restore_node(self, node_id: int, now: float) -> None:
        """Bring a crashed node back at ``now`` (but never before recovery)."""
        if node_id not in self.down:
            return
        t = max(float(now), self.down.pop(node_id))
        self._moved.pop(node_id, None)
        self.cluster.restore_node(node_id, t)
        self.ps.partitioner.restore(node_id, self.cluster.active_nodes)
        self.ps.on_node_restored(node_id, t)
        self.metrics.increment("faults.restores", 1)
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None:
            tracer.event("restore", "faults", t, node=node_id)

    # ------------------------------------------------------------ housekeeping
    def on_round(self, now: float) -> None:
        """Per-round upkeep: fire any checkpoint that has come due."""
        self.checkpoint.maybe_checkpoint(now)

    # ------------------------------------------------------------- inspection
    def moved_mask(self, node_id: int) -> Optional[np.ndarray]:
        """Keys whose ownership moved when ``node_id`` crashed (or None)."""
        return self._moved.get(node_id)

    def describe(self) -> dict:
        return {
            "recovery": self.config.recovery,
            "checkpoint_interval": self.config.checkpoint_interval,
            "checkpoints_taken": self.checkpoint.checkpoints_taken,
            "down_nodes": sorted(self.down),
        }
