"""Elasticity perturbations for the scenario engine.

* :class:`ScaleOut` — join fresh nodes mid-run; the membership controller
  rebalances a share of the key space onto each (state transfer charged).
* :class:`ScaleIn` — drain and remove seeded victim nodes (planned removal:
  zero lost updates; the victims' workers pause and their shards
  redistribute).
* :class:`AutoscaleStorm` — alternate scale-out and scale-in on a fixed
  round cadence: the sustained-churn stress test.
* :class:`NetworkPartition` — split the cluster into a majority and a
  minority reachability group for a round window; the minority degrades to
  bounded-staleness reads and buffered writes, the majority defers accesses
  to minority-owned keys, and the heal replays and reconciles.

All schedules derive from the experiment seed through
:func:`~repro.scenarios.base.perturbation_rng`, with salts disjoint from the
standard and fault perturbations, so elastic runs are exactly reproducible.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.scenarios.base import (
    Perturbation,
    ScenarioRuntime,
    perturbation_rng,
)

__all__ = ["AutoscaleStorm", "NetworkPartition", "ScaleIn", "ScaleOut"]


class ScaleOut(Perturbation):
    """Join ``count`` fresh nodes at one scheduled round.

    The new nodes contribute server/storage capacity immediately (after the
    migration transfer); the training worker pool stays fixed at its launch
    size — see :meth:`ScenarioRuntime.worker_keys`.
    """

    def __init__(self, count: int = 1, at_epoch: int = 0,
                 at_round: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        if at_epoch < 0 or at_round < 0:
            raise ValueError("at_epoch/at_round must be non-negative")
        self.count = int(count)
        self.at_epoch = int(at_epoch)
        self.at_round = int(at_round)
        self._fired = False

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._fired = False
        ctx.membership_controller()

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if self._fired or ctx.epoch != self.at_epoch \
                or ctx.round != self.at_round:
            return
        self._fired = True
        for _ in range(self.count):
            ctx.scale_out()


class ScaleIn(Perturbation):
    """Drain and remove ``count`` seeded victim nodes at one scheduled round.

    Node 0 is never a victim (it anchors recovery donors and the worker
    pool); at least two nodes must stay active. A planned removal drains the
    victim's buffered state before re-homing its keys, so — unlike a crash —
    no acknowledged update is lost.
    """

    def __init__(self, count: int = 1, at_epoch: int = 0, at_round: int = 1,
                 seed: int = 0) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        if at_epoch < 0 or at_round < 0:
            raise ValueError("at_epoch/at_round must be non-negative")
        self.count = int(count)
        self.at_epoch = int(at_epoch)
        self.at_round = int(at_round)
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None
        self._fired = False

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 47 + self.seed)
        self._fired = False
        ctx.membership_controller()

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if self._fired or ctx.epoch != self.at_epoch \
                or ctx.round != self.at_round:
            return
        self._fired = True
        for _ in range(self.count):
            eligible = [n for n in ctx.cluster.active_nodes if n != 0]
            if len(eligible) < 2:
                return  # keep at least two active nodes
            victim = int(eligible[int(self._rng.integers(len(eligible)))])
            ctx.scale_in(victim)


class AutoscaleStorm(Perturbation):
    """Sustained membership churn: alternate joins and planned removals.

    Every ``period_rounds`` rounds the cluster either gains a node or loses
    one (alternating, starting with a join). Removals prefer the
    storm-added nodes (oldest first) so the launch-time worker pool survives
    arbitrarily long storms; when none is active, a seeded original node
    (never node 0) is drained instead.
    """

    def __init__(self, period_rounds: int = 2, max_changes: Optional[int] = None,
                 seed: int = 0) -> None:
        if period_rounds < 1:
            raise ValueError("period_rounds must be >= 1")
        if max_changes is not None and max_changes < 1:
            raise ValueError("max_changes must be >= 1 (or None)")
        self.period_rounds = int(period_rounds)
        self.max_changes = max_changes
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None
        self._added: List[int] = []
        self._changes = 0
        self._grow_next = True

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 59 + self.seed)
        self._added = []
        self._changes = 0
        self._grow_next = True
        ctx.membership_controller()

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if self.max_changes is not None and self._changes >= self.max_changes:
            return
        if ctx.round < 1 or ctx.round % self.period_rounds != 0:
            return
        if self._grow_next:
            self._added.append(ctx.scale_out())
            self._changes += 1
        else:
            victim = self._pick_victim(ctx)
            if victim is not None:
                ctx.scale_in(victim)
                self._changes += 1
        self._grow_next = not self._grow_next

    def _pick_victim(self, ctx: ScenarioRuntime) -> Optional[int]:
        active = set(ctx.cluster.active_nodes)
        for node_id in self._added:
            if node_id in active:
                self._added.remove(node_id)
                return node_id
        eligible = [n for n in sorted(active) if n != 0]
        if len(eligible) < 2:
            return None  # keep at least two active nodes
        return int(eligible[int(self._rng.integers(len(eligible)))])


class NetworkPartition(Perturbation):
    """Split the cluster for a round window; heal with reconciliation.

    At ``(at_epoch, at_round)`` a seeded minority of ``minority_size`` nodes
    (never node 0 — it anchors the quorum side) loses contact with the rest.
    The majority keeps training; the minority degrades gracefully (see
    :class:`~repro.elastic.partition_state.PartitionState`). The partition
    heals ``heal_after_rounds`` rounds later — or at the epoch boundary,
    whichever comes first — replaying buffered minority writes and counting
    divergent keys.
    """

    needs_partition_guard = True

    def __init__(self, minority_size: int = 1, at_epoch: int = 0,
                 at_round: int = 1, heal_after_rounds: int = 3,
                 seed: int = 0) -> None:
        if minority_size < 1:
            raise ValueError("minority_size must be >= 1")
        if at_epoch < 0 or at_round < 0:
            raise ValueError("at_epoch/at_round must be non-negative")
        if heal_after_rounds < 1:
            raise ValueError("heal_after_rounds must be >= 1")
        self.minority_size = int(minority_size)
        self.at_epoch = int(at_epoch)
        self.at_round = int(at_round)
        self.heal_after_rounds = int(heal_after_rounds)
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None
        self._fired = False
        self._heal_at: Optional[int] = None

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 53 + self.seed)
        self._fired = False
        self._heal_at = None

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if self._heal_at is not None and ctx.round >= self._heal_at:
            self._heal_at = None
            ctx.heal_partition()
            return
        if self._fired or ctx.epoch != self.at_epoch \
                or ctx.round != self.at_round:
            return
        self._fired = True
        eligible = [n for n in ctx.cluster.active_nodes if n != 0]
        size = min(self.minority_size, (len(eligible) + 1) // 2)
        if size < 1 or size > len(eligible):
            return
        chosen = self._rng.choice(len(eligible), size=size, replace=False)
        minority = [eligible[int(i)] for i in sorted(chosen.tolist())]
        # The minority must stay the smaller side of the *active* set.
        if len(ctx.cluster.active_nodes) - len(minority) < len(minority):
            return
        ctx.begin_partition(minority)
        self._heal_at = ctx.round + self.heal_after_rounds

    def on_epoch_end(self, ctx: ScenarioRuntime) -> None:
        # Never carry a live partition across an epoch boundary: the epoch
        # flush needs the whole cluster.
        self._heal_at = None
        ctx.heal_partition()
