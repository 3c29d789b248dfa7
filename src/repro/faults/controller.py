"""The membership controller: crash, restore, join and planned leave.

One :class:`MembershipController` per experiment changes the set of server
nodes. Its four transitions run on two steps:

* a **departure** — a crash (:meth:`~MembershipController.crash_node`) or a
  planned leave (:meth:`~MembershipController.scale_in`) — takes the node
  out of the cluster, collects the keys it owns, secures their values,
  hands them to the survivors in the ownership map (``OwnershipMap.fail``
  or ``leave``), lets the parameter server move its dynamic copies
  (``ParameterServer._rehome``) with an available-at time, and charges the
  state transfer;
* an **arrival** — a join (:meth:`~MembershipController.scale_out`) or a
  restore (:meth:`~MembershipController.restore_node`) — puts a node into
  the cluster and the ownership map and sets up its per-node state; a join
  also ships the keys it takes over.

What distinguishes a crash from a planned leave are inputs of the one
departure step, not separate code:

================  ==================================  ==========================
input             crash                               planned leave
================  ==================================  ==========================
values from       surviving replicas, then the        a drain of the node's
                  latest checkpoint                   buffered updates
transfer charge   survivors split it                  survivors split it, the
                                                      leaving node sends it all
                                                      and ``network.*`` counts it
metrics           ``faults.*``                        ``elastic.*``
================  ==================================  ==========================

A crashed node sends nothing, so only a planned transition charges the node
all the state leaves or reaches. Moved keys become reachable at
``now + MEMBERSHIP_DELAY + message_cost(0) + transfer``: accesses racing a
crash recovery either wait (architectures with native arrival tracking) or
retry with backoff (the scenario interposer's dead-owner gate, which reads
:attr:`MembershipController.down`).

The controller is deliberately standalone — it needs only a parameter
server and its cluster, no scenario runtime — so invariant tests can drive
membership sequences directly against any architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.faults.checkpoint import CheckpointManager

__all__ = ["FaultConfig", "MembershipController"]

#: Time from a membership change to its announcement, before any state
#: moves: the survivors' detection of a silent node, or the handshake of a
#: planned join or leave (epoch bump, ownership-map rewrite, route refresh).
MEMBERSHIP_DELAY = 0.002


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
    """

    recovery: str = "checkpoint"
    checkpoint_interval: float = 0.010

    def __post_init__(self) -> None:
        if self.recovery not in ("checkpoint", "restart"):
            raise ValueError(
                f"unknown recovery mechanism {self.recovery!r}; "
                "expected 'checkpoint' or 'restart'"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")


class MembershipController:
    """Runs every membership transition of one parameter server."""

    def __init__(
        self,
        ps,
        fault_config: Optional[FaultConfig] = None,
        start_time: float = 0.0,
    ) -> None:
        self.ps = ps
        self.cluster = ps.cluster
        fault_config = fault_config or FaultConfig()
        interval = (
            fault_config.checkpoint_interval
            if fault_config.recovery == "checkpoint"
            else None
        )
        self.checkpoint = CheckpointManager(
            ps.store, self.cluster, interval=interval, start_time=start_time
        )
        #: crashed node_id -> simulated time its keys become reachable again
        self.down: Dict[int, float] = {}
        #: crashed node_id -> bool mask over the key space of the keys it owned
        self._moved: Dict[int, np.ndarray] = {}

    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def tracer(self):
        return self.cluster.tracer

    # ------------------------------------------------------------- departures
    def crash_node(self, node_id: int, now: float) -> float:
        """Kill ``node_id`` at simulated time ``now``; return the recovery time.

        The departure step with the crash's inputs: each lost key's value is
        repaired from the freshest surviving replica, else the checkpoint,
        and the survivors alone carry the state transfer. Returns the
        simulated instant at which the moved keys become reachable on their
        new owners.
        """
        if node_id in self.cluster.failed:
            return self.down.get(node_id, float(now))
        now = float(now)
        lost, t_recovered, (recovered, lost_updates) = self._depart(
            node_id, now, planned=False)
        moved_mask = np.zeros(self.ps.store.num_keys, dtype=bool)
        moved_mask[lost] = True
        self._moved[node_id] = moved_mask
        self.down[node_id] = t_recovered

        metrics = self.metrics
        metrics.increment("faults.crashes", 1)
        metrics.increment("faults.recovery_time", t_recovered - now)
        metrics.increment("faults.lost_updates", lost_updates)
        metrics.increment("faults.keys_recovered_from_replicas", recovered)
        metrics.increment(
            "faults.keys_recovered_from_checkpoint", len(lost) - recovered
        )
        if self.tracer is not None:
            self.tracer.event(
                "crash", "faults", now, node=node_id,
                keys_lost=int(len(lost)), recovered_from_replicas=recovered,
                lost_updates=int(lost_updates),
                recovery_time=round(t_recovered - now, 9),
            )
        return t_recovered

    def scale_in(self, node_id: int, now: float) -> Dict[str, float]:
        """Drain and remove ``node_id`` at ``now``; return a transition summary.

        The departure step with the planned leave's inputs: the node's
        buffered updates are drained into the global store before its keys
        change hands, so a planned scale-in loses zero acknowledged updates
        — the headline contrast with crash recovery, which loses whatever
        the checkpoint missed.
        """
        now = float(now)
        moved, available_at, drained = self._depart(node_id, now, planned=True)
        metrics = self.metrics
        metrics.increment("elastic.scale_ins", 1)
        metrics.increment("elastic.migrated_keys", len(moved))
        metrics.increment("elastic.migration_time", available_at - now)
        metrics.increment("elastic.drained_updates", drained)
        # Recorded explicitly (as zero) so the claim "planned scale-in loses
        # no acknowledged updates" reads from the same metric family as the
        # crash path's faults.lost_updates.
        metrics.increment("elastic.lost_updates", 0)
        if self.tracer is not None:
            self.tracer.complete_span(
                "scale_in", "elastic", now, available_at, node=node_id,
                migrated_keys=int(len(moved)), drained_updates=drained,
                payload_bytes=int(len(moved) * self.ps.store.value_bytes()),
                membership_epoch=self.cluster.membership_epoch,
            )
        return {
            "node_id": int(node_id),
            "moved_keys": int(len(moved)),
            "drained_updates": drained,
            "lost_updates": 0,
            "available_at": available_at,
        }

    def _depart(self, node_id: int, now: float, planned: bool) -> tuple:
        """The one departure step; ``(keys, available_at, values_outcome)``.

        ``values_outcome`` is the drained update count of a planned leave,
        or ``(recovered_from_replicas, lost_updates)`` of a crash.
        """
        cluster, ps = self.cluster, self.ps
        keys = np.asarray(ps.keys_owned_by(node_id), dtype=np.int64)
        if planned:
            # The drain runs while the node is still a member.
            outcome = int(ps.release_node(node_id, now))
            cluster.remove_node(node_id)
        else:
            # The repair runs once the victim is failed: it is no donor.
            cluster.fail_node(node_id)
            outcome = self._repair(keys)
        survivors = cluster.active_nodes
        hand_over = ps.partitioner.leave if planned else ps.partitioner.fail
        hand_over(node_id, survivors)
        payload = len(keys) * ps.store.value_bytes()
        available_at = self._available_at(now, payload)
        ps._rehome(keys, survivors, available_at)
        if planned:
            # A removed node never recovers, so no access may be routed at
            # it: checked once here rather than on every access.
            stale = len(ps.keys_owned_by(node_id))
            if stale:
                raise RuntimeError(
                    f"scale-in of node {node_id} left {stale} key(s) routed "
                    "at it after re-homing; the ownership map or the PS's "
                    "_rehome did not move every key the node owned"
                )
        self._ship(now, payload, survivors, node_id if planned else None)
        return keys, available_at, outcome

    def _repair(self, lost: np.ndarray) -> tuple:
        """Crash repair of ``lost``: replicas first, then the checkpoint;
        ``(recovered_from_replicas, lost_updates)``."""
        if not len(lost):
            return 0, 0
        values, mask = self.ps.recover_values(lost)
        if values is not None and mask.any():
            # Direct write: a repair is not a training update, so it must
            # not bump version counters or access metrics.
            self.ps.store.write_rows(lost[mask], values[mask])
        return int(mask.sum()), self.checkpoint.restore(lost[~mask])

    # --------------------------------------------------------------- arrivals
    def scale_out(self, now: float) -> int:
        """Join a fresh node at simulated time ``now``; return its node id.

        The arrival step with a join's inputs: the ownership map cedes a
        proportional share of the key space to the new node
        (:meth:`~repro.ps.partition.OwnershipMap.join`), and the ceded keys'
        values are shipped to it — the donors split the send, the new node
        receives everything — usable from ``available_at`` on.
        """
        now = float(now)
        node_id, moved, available_at = self._arrive(None, now)
        metrics = self.metrics
        metrics.increment("elastic.scale_outs", 1)
        metrics.increment("elastic.migrated_keys", len(moved))
        metrics.increment("elastic.migration_time", available_at - now)
        if self.tracer is not None:
            self.tracer.complete_span(
                "scale_out", "elastic", now, available_at, node=node_id,
                migrated_keys=int(len(moved)),
                payload_bytes=int(len(moved) * self.ps.store.value_bytes()),
                membership_epoch=self.cluster.membership_epoch,
            )
        return node_id

    def restore_node(self, node_id: int, now: float) -> None:
        """Bring a crashed node back at ``now`` (but never before recovery).

        The arrival step with a restore's inputs: the ownership map undoes
        the node's failover, and nothing is shipped — its keys' values never
        left the global store.
        """
        if node_id not in self.down:
            return
        t = max(float(now), self.down.pop(node_id))
        self._moved.pop(node_id, None)
        self._arrive(node_id, t)
        self.metrics.increment("faults.restores", 1)
        if self.tracer is not None:
            self.tracer.event("restore", "faults", t, node=node_id)

    def _arrive(self, node_id: Optional[int], now: float) -> tuple:
        """The one arrival step: a join (``node_id=None``) or a restore;
        ``(node_id, shipped_keys, available_at)``."""
        cluster, ps = self.cluster, self.ps
        if node_id is None:
            node_id = cluster.add_node(now=now)
            active = cluster.active_nodes
            keys = ps.partitioner.join(node_id, active)
            payload = len(keys) * ps.store.value_bytes()
            available_at = self._available_at(now, payload)
            ps._rehome(keys, [node_id], available_at)
        else:
            cluster.restore_node(node_id, now)
            active = cluster.active_nodes
            ps.partitioner.restore(node_id, active)
            keys, payload, available_at = (), 0, now
        ps.on_node_arrived(node_id, available_at)
        self._ship(now, payload, [n for n in active if n != node_id], node_id)
        return node_id, keys, available_at

    # ---------------------------------------------------------------- charges
    def _available_at(self, now: float, payload: int) -> float:
        """When keys moved at ``now`` are usable: the announcement
        (``MEMBERSHIP_DELAY`` plus one message) and the state transfer of
        ``payload`` bytes."""
        network = self.cluster.network
        return now + MEMBERSHIP_DELAY + network.message_cost(0) \
            + network.transfer_cost(payload)

    def _ship(self, now: float, payload: int, peers, hub: Optional[int]) -> None:
        """Charge moving ``payload`` bytes between ``peers`` and ``hub``.

        The peers split the transfer on their background threads. The hub —
        the node all of it reaches (a join) or leaves (a planned leave) —
        takes the whole transfer on its own, and the messages count under
        ``network.*``; a crashed node sends nothing, so a crash has no hub.
        """
        if not payload:
            return
        transfer = self.cluster.network.transfer_cost(payload)
        share = transfer / len(peers)
        for peer in peers:
            background = self.cluster.node(peer).background_clock
            background.advance_to(max(now, background.now) + share)
        if hub is None:
            return
        background = self.cluster.node(hub).background_clock
        background.advance_to(max(now, background.now) + transfer)
        self.metrics.increment("network.messages", 1 + len(peers))
        self.metrics.increment("network.bytes", payload)

    # ------------------------------------------------------------ housekeeping
    def on_round(self, now: float) -> None:
        """Per-round upkeep: fire any checkpoint that has come due."""
        self.checkpoint.maybe_checkpoint(now)

    def moved_mask(self, node_id: int) -> Optional[np.ndarray]:
        """Keys whose ownership moved when ``node_id`` crashed (or None)."""
        return self._moved.get(node_id)
