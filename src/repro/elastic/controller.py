"""Planned membership transitions: scale-out and scale-in with state migration.

The :class:`ElasticityController` is the planned-transition counterpart of the
fault controller (:mod:`repro.faults.controller`): where a crash loses every
update buffered on the victim, a planned transition *drains* first — buffered
state is flushed to the global store while the node is still reachable — and
only then re-homes ownership, so a scale-in loses exactly zero acknowledged
updates. The migration itself is not free: the re-homed keys' values travel
over the network model, charged to the participating nodes' background
clocks and to the ``network.*`` counters, and the moved keys become usable on
their new owners only after the transfer (``available_at``).

Like the fault controller, the elasticity controller is standalone — it needs
only a parameter server (and its cluster), no scenario runtime — so invariant
tests can drive membership sequences directly against any architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["ElasticConfig", "ElasticityController"]


@dataclass
class ElasticConfig:
    """Tunables of planned membership transitions.

    Parameters
    ----------
    join_delay:
        Coordination overhead of one membership change (join handshake or
        leave announcement): the epoch bump, ownership-map rewrite, and
        route refresh take this long before any state moves.
    """

    join_delay: float = 0.002

    def __post_init__(self) -> None:
        if self.join_delay < 0:
            raise ValueError("join_delay must be non-negative")


class ElasticityController:
    """Coordinates planned scale-out/scale-in for one parameter server."""

    def __init__(self, ps, config: Optional[ElasticConfig] = None) -> None:
        self.ps = ps
        self.cluster = ps.cluster
        self.config = config or ElasticConfig()
        self.scale_outs = 0
        self.scale_ins = 0
        self.keys_migrated = 0
        self.updates_drained = 0

    @property
    def metrics(self):
        return self.cluster.metrics

    # -------------------------------------------------------------- scale-out
    def scale_out(self, now: float) -> int:
        """Join a fresh node at simulated time ``now``; return its node id.

        The cluster allocates the node (bumping the membership epoch), the
        ownership map cedes a proportional share of the key space to it
        (:meth:`~repro.ps.partition.OwnershipMap.join`), and the ceded keys'
        values are shipped to the new node: the transfer occupies the
        donors' background threads (split evenly) and the new node's
        background thread (it receives everything), and the keys become
        usable on the new node at ``available_at``. The parameter server
        then moves its copies along and sets up the node's state.
        """
        now = float(now)
        node_id = self.cluster.add_node(now=now)
        donors = [n for n in self.cluster.active_nodes if n != node_id]
        moved = self.ps.partitioner.join(node_id, self.cluster.active_nodes)
        payload, available_at = self._migration(now, moved)
        self.ps._rehome(moved, [node_id], available_at)
        self.ps.on_node_added(node_id, available_at)
        self._charge_migration(now, payload, donors, receiver=node_id)

        self.scale_outs += 1
        self.keys_migrated += int(len(moved))
        self.metrics.increment("elastic.scale_outs", 1)
        self.metrics.increment("elastic.migrated_keys", len(moved))
        self.metrics.increment("elastic.migration_time", available_at - now)
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None:
            tracer.complete_span(
                "scale_out", "elastic", now, available_at, node=node_id,
                migrated_keys=int(len(moved)), payload_bytes=int(payload),
                membership_epoch=self.cluster.membership_epoch,
            )
        return node_id

    # --------------------------------------------------------------- scale-in
    def scale_in(self, node_id: int, now: float) -> Dict[str, float]:
        """Drain and remove ``node_id`` at ``now``; return a transition summary.

        Order matters: the drain (flushing the node's buffered updates into
        the global store) happens while the node still owns its keys, then
        the cluster drops it from membership, and finally ownership is
        re-homed onto the survivors with the state travelling along. Because
        nothing reachable is discarded, a planned scale-in loses zero
        acknowledged updates — the headline contrast with crash recovery,
        which loses whatever the checkpoint missed.
        """
        now = float(now)
        drained = int(self.ps.drain_node(node_id, now))
        self.cluster.remove_node(node_id)
        successors = self.cluster.active_nodes
        moved = self.ps.keys_owned_by(node_id)
        self.ps.partitioner.leave(node_id, successors)
        payload, available_at = self._migration(now, moved)
        self.ps._rehome(moved, successors, available_at)
        # A removed node never recovers, so no access may be routed at it:
        # checked once here rather than on every access.
        stale = len(self.ps.keys_owned_by(node_id))
        if stale:
            raise RuntimeError(
                f"scale-in of node {node_id} left {stale} key(s) routed at it "
                "after re-homing; the ownership map or the PS's _rehome did "
                "not move every key the node owned"
            )
        self.ps.on_node_removed(node_id, available_at)
        self._charge_migration(now, payload, successors, receiver=node_id)

        self.scale_ins += 1
        self.keys_migrated += int(len(moved))
        self.updates_drained += drained
        self.metrics.increment("elastic.scale_ins", 1)
        self.metrics.increment("elastic.migrated_keys", len(moved))
        self.metrics.increment("elastic.migration_time", available_at - now)
        self.metrics.increment("elastic.drained_updates", drained)
        # Recorded explicitly (as zero) so the claim "planned scale-in loses
        # no acknowledged updates" reads from the same metric family as the
        # crash path's faults.lost_updates.
        self.metrics.increment("elastic.lost_updates", 0)
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None:
            tracer.complete_span(
                "scale_in", "elastic", now, available_at, node=node_id,
                migrated_keys=int(len(moved)), drained_updates=drained,
                payload_bytes=int(payload),
                membership_epoch=self.cluster.membership_epoch,
            )
        return {
            "node_id": int(node_id),
            "moved_keys": int(len(moved)),
            "drained_updates": drained,
            "lost_updates": 0,
            "available_at": available_at,
        }

    # ------------------------------------------------------------- internals
    def _migration(self, now: float, moved) -> tuple:
        """``(payload_bytes, available_at)`` of migrating ``moved`` keys.

        The cost shape mirrors crash recovery: announcement plus state
        transfer.
        """
        network = self.cluster.network
        payload = len(moved) * self.ps.store.value_bytes()
        available_at = (
            now + self.config.join_delay + network.message_cost(0)
            + network.transfer_cost(payload)
        )
        return payload, available_at

    def _charge_migration(self, now: float, payload_bytes: float, peers,
                          receiver: int) -> None:
        """Charge one migration: peers split the transfer, the hub takes it all.

        For a scale-out the hub is the new node (it receives everything, the
        donors split the send); for a scale-in it is the *leaving* node (it
        sends everything, the survivors split the receive) — the occupancy
        pattern is symmetric either way.
        """
        if not payload_bytes:
            return
        network = self.cluster.network
        transfer = network.transfer_cost(payload_bytes)
        peers = [n for n in peers if n != receiver]
        if peers:
            share = transfer / len(peers)
            for peer in peers:
                background = self.cluster.node(peer).background_clock
                background.advance_to(max(now, background.now) + share)
        background = self.cluster.node(receiver).background_clock
        background.advance_to(max(now, background.now) + transfer)
        self.metrics.increment("network.messages", 1 + len(peers))
        self.metrics.increment("network.bytes", payload_bytes)

    # ------------------------------------------------------------- inspection
    def describe(self) -> dict:
        return {
            "join_delay": self.config.join_delay,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "keys_migrated": self.keys_migrated,
            "updates_drained": self.updates_drained,
            "membership_epoch": self.cluster.membership_epoch,
        }
