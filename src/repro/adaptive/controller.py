"""The adaptive controller: periodic plan diffing + incremental re-management.

An :class:`AdaptiveController` closes the observe-decide-act loop around a
re-management-capable parameter server (``NuPS``): access statistics stream
in through the server's hot-path tap (:mod:`repro.adaptive.stats`), a
:class:`~repro.adaptive.policy.ManagementPolicy` turns them into a desired
:class:`~repro.core.management.ManagementPlan`, and the controller — driven
by a :class:`~repro.simulation.events.PeriodicSchedule` in simulated time —
diffs the desired plan against the installed one and issues the
transition through ``NuPS.remanage``.

Transitions are not free. Creating a replica ships the key's current value
to every node (a recursive-doubling broadcast, charged to each node's
background thread and to the network counters, mirroring
:meth:`repro.core.replica_manager.ReplicaManager._sync_once`); tearing one
down costs a control message per node. A controller that never changes the
plan leaves *no trace* in the simulation — no clock, metric, or value ever
moves — so an adaptive run over a stationary workload whose policy keeps the
initial plan is bit-identical to the corresponding static run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adaptive.policy import ManagementPolicy, make_policy
from repro.adaptive.stats import AccessStats
from repro.core.management import ManagementPlan
from repro.simulation.events import PeriodicSchedule

__all__ = ["AdaptiveConfig", "AdaptiveController", "install_adaptive"]


@dataclass
class AdaptiveConfig:
    """Configuration of the adaptive-management subsystem.

    Parameters
    ----------
    policy:
        ``"hot-spot"`` (the paper's 100x-mean heuristic computed online) or
        ``"top-k"`` (the tuned fixed-extent variant).
    top_k:
        Replication extent of the top-k policy. ``top_k=None`` adopts the
        extent of the plan installed at attach time (re-target the same
        number of keys, online).
    period:
        Adaptation period in *simulated* seconds (the controller's
        :class:`~repro.simulation.events.PeriodicSchedule` interval).
    half_life:
        Exponential-decay half-life of the access statistics, in simulated
        seconds. Shorter half-lives track drift faster but are noisier.
    warmup_observations:
        Minimum number of observed accesses before the first adaptation
        (prevents re-managing on an empty histogram at startup).
    """

    policy: str = "hot-spot"
    top_k: Optional[int] = None
    period: float = 0.01
    half_life: float = 0.02
    warmup_observations: int = 2000

    def __post_init__(self) -> None:
        if self.policy not in ("hot-spot", "top-k"):
            raise ValueError(
                f"unknown policy {self.policy!r}; expected 'hot-spot' or 'top-k'"
            )
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        if self.warmup_observations < 0:
            raise ValueError("warmup_observations must be non-negative")


class AdaptiveController:
    """Periodically re-derives the management plan from online statistics."""

    def __init__(self, ps, stats: AccessStats, policy: ManagementPolicy,
                 config: AdaptiveConfig) -> None:
        self.ps = ps
        self.stats = stats
        self.policy = policy
        self.config = config
        self.schedule = PeriodicSchedule(config.period)
        self.evaluations = 0      #: adaptation steps evaluated (incl. no-ops)
        self.adaptations = 0      #: steps that actually changed the plan
        self.keys_added = 0
        self.keys_removed = 0
        self.membership_changes = 0
        self._membership_dirty = False

    # -------------------------------------------------------------- lifecycle
    def on_membership_change(self, now: float) -> None:
        """Note a cluster resize; re-plan at the next housekeeping tick.

        Membership changes shift every per-node cost the policy implicitly
        balances (replica broadcast fan-out, relocation spread), so the
        controller re-evaluates the plan at the next housekeeping even if
        its periodic schedule is not due yet. Never called in elasticity-off
        runs, leaving the adaptive schedule untouched.
        """
        self.membership_changes += 1
        self._membership_dirty = True

    def on_housekeeping(self, now: float) -> None:
        """Run the adaptation steps due at simulated time ``now``.

        Called from the parameter server's ``housekeeping``. A backlog of
        overdue periods collapses into a single adaptation (re-evaluating
        the same statistics several times at one instant is pointless).
        """
        due = self.schedule.due_count(now)
        if due == 0 and not self._membership_dirty:
            return
        for _ in range(due):
            self.schedule.fire(now, 0.0)
        self._membership_dirty = False
        self._adapt(now)

    # --------------------------------------------------------------- one step
    def _adapt(self, now: float) -> None:
        self.stats.decay_to(now)
        if self.stats.lifetime_observed < self.config.warmup_observations:
            return
        self.evaluations += 1
        current = self.ps.plan
        desired = self.policy.desired_replicated(self.stats, current)
        added = np.setdiff1d(desired, current.replicated_keys,
                             assume_unique=False)
        removed = np.setdiff1d(current.replicated_keys, desired,
                               assume_unique=False)
        if len(added) == 0 and len(removed) == 0:
            return
        replicated = np.union1d(
            np.setdiff1d(current.replicated_keys, removed), added
        )
        plan = ManagementPlan(current.num_keys, replicated)
        self.ps.remanage(plan, now=now)
        self._charge_transition(len(added), len(removed), now)
        self.adaptations += 1
        self.keys_added += int(len(added))
        self.keys_removed += int(len(removed))
        metrics = self.ps.metrics
        metrics.increment("adaptive.adaptations", 1)
        metrics.increment("adaptive.keys_added", len(added))
        metrics.increment("adaptive.keys_removed", len(removed))
        tracer = self.ps.tracer
        if tracer is not None:
            tracer.event(
                "adapt", "adaptive", now,
                keys_added=int(len(added)), keys_removed=int(len(removed)),
                replicated=int(plan.num_replicated),
                evaluations=self.evaluations,
            )

    def _charge_transition(self, n_added: int, n_removed: int,
                           now: float) -> None:
        """Charge replica creation/teardown traffic to the network model."""
        cluster = self.ps.cluster
        network = cluster.network
        # Resize-aware: the broadcast spans current members only (equals
        # cluster.num_nodes whenever membership never changed).
        members = [n for n in range(cluster.num_nodes)
                   if n not in cluster.removed]
        num_nodes = len(members)
        if num_nodes <= 1:
            return
        metrics = self.ps.metrics
        rounds = (num_nodes - 1).bit_length()
        occupancy = 0.0
        if n_added:
            # Ship the new replicas' initial values to every node with the
            # same recursive-doubling pattern replica synchronization uses.
            payload = n_added * self.ps.store.value_bytes()
            occupancy += rounds * (
                network.message_handling_cost + network.transfer_cost(payload)
            )
            metrics.increment("network.messages", rounds * num_nodes)
            metrics.increment("network.bytes", payload * num_nodes)
            metrics.increment("adaptive.replicas_created", n_added)
        if n_removed:
            # Teardown is metadata only: one control message per node.
            occupancy += network.message_handling_cost
            metrics.increment("network.messages", num_nodes)
            metrics.increment("adaptive.replicas_dropped", n_removed)
        if occupancy:
            for node_id in members:
                if node_id in cluster.failed:
                    continue  # crashed nodes sit out the broadcast
                background = cluster.node(node_id).background_clock
                start = max(now, background.now)
                background.advance_to(start + occupancy)

    # -------------------------------------------------------------- reporting
    def describe(self) -> dict:
        return {
            "policy": self.policy.describe(),
            "period": self.config.period,
            "half_life": self.config.half_life,
            "evaluations": self.evaluations,
            "adaptations": self.adaptations,
            "keys_added": self.keys_added,
            "keys_removed": self.keys_removed,
            "membership_changes": self.membership_changes,
            "stats": self.stats.describe(),
        }


def install_adaptive(ps, config: AdaptiveConfig) -> AdaptiveController:
    """Attach an adaptive controller to a re-management-capable PS.

    Builds the :class:`~repro.adaptive.stats.AccessStats` tap and the
    configured policy, wires them into ``ps`` via its ``attach_adaptive``
    hook, and returns the controller. Raises ``TypeError`` for parameter
    servers without re-management support (everything except NuPS) and
    ``RuntimeError`` when a controller is already attached.
    """
    if not hasattr(ps, "remanage") or not hasattr(ps, "attach_adaptive"):
        raise TypeError(
            f"{type(ps).__name__} does not support adaptive management "
            "(needs remanage/attach_adaptive; only NuPS-style servers do)"
        )
    if getattr(ps, "adaptive_controller", None) is not None:
        raise RuntimeError("an adaptive controller is already attached")
    top_k = config.top_k
    if config.policy == "top-k" and top_k is None:
        top_k = ps.plan.num_replicated
    policy = make_policy(config.policy, top_k=top_k or 0)
    stats = AccessStats(ps.store.num_keys, half_life=config.half_life)
    controller = AdaptiveController(ps, stats, policy, config)
    ps.attach_adaptive(controller)
    return controller
