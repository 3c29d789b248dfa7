"""Fault perturbations for the scenario engine.

* :class:`ServerCrashes` — seeded server crash/restart schedules: a node's
  shard becomes unreachable mid-epoch, its workers stop, the membership
  controller repairs values and fails ownership over to the survivors, and
  (unless ``permanent``) the node rejoins a few rounds later.
* :class:`WorkerKill` — permanent worker loss (not a pause-until-epoch-end:
  the victims never come back; their remaining shards are redistributed).
* :class:`LossyNetwork` — swaps the cluster's cost model for a
  :class:`~repro.faults.network.FaultyNetworkModel` during an epoch window:
  message loss, duplication, and retransmit timeouts priced into every
  access path.

All schedules derive from the experiment seed through
:func:`~repro.scenarios.base.perturbation_rng` (disjoint salts), so fault
runs are exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.network import FaultyNetworkModel
from repro.scenarios.base import (
    Perturbation,
    ScenarioRuntime,
    perturbation_rng,
)

__all__ = ["LossyNetwork", "ServerCrashes", "WorkerKill"]


class ServerCrashes(Perturbation):
    """Crash ``crashes_per_epoch`` server nodes per epoch; restart them later.

    Crash rounds are drawn from ``crash_round_range`` (half-open) per epoch.
    Victims are drawn from nodes ``1..num_nodes-1`` — node 0 never crashes,
    which keeps a stable recovery donor and guarantees the cluster and the
    worker pool always have a survivor. ``rolling=True`` cycles through the
    eligible nodes deterministically instead of sampling (a rolling-restart
    schedule); ``permanent=True`` never restarts a victim.

    The perturbation owns the per-round upkeep of the membership controller,
    so a scenario containing it automatically gets periodic checkpointing per
    the supplied ``fault_config``.
    """

    needs_fault_proxy = True

    def __init__(
        self,
        crashes_per_epoch: int = 1,
        down_rounds: int = 2,
        fault_config=None,
        crash_round_range: Tuple[int, int] = (1, 5),
        rolling: bool = False,
        permanent: bool = False,
        epochs: Optional[Sequence[int]] = None,
        seed: int = 0,
    ) -> None:
        if crashes_per_epoch < 1:
            raise ValueError("crashes_per_epoch must be >= 1")
        if down_rounds < 1:
            raise ValueError("down_rounds must be >= 1")
        lo, hi = crash_round_range
        if not 0 <= lo < hi:
            raise ValueError("crash_round_range must be a non-empty range")
        self.crashes_per_epoch = int(crashes_per_epoch)
        self.down_rounds = int(down_rounds)
        self.fault_config = fault_config
        self.crash_round_range = (int(lo), int(hi))
        self.rolling = bool(rolling)
        self.permanent = bool(permanent)
        self.epochs = None if epochs is None else {int(e) for e in epochs}
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None
        self._schedule: Dict[int, List[int]] = {}
        self._down: Dict[int, int] = {}  # node_id -> restore round
        self._next_rolling = 1
        self.controller = None

    # ------------------------------------------------------------- lifecycle
    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 41 + self.seed)
        self._schedule = {}
        self._down = {}
        self._next_rolling = 1
        self.controller = ctx.membership_controller()

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        self._schedule = {}
        if self.epochs is not None and ctx.epoch not in self.epochs:
            return
        num_nodes = ctx.cluster.num_nodes
        eligible = num_nodes - 1  # node 0 is never a victim
        if eligible < 1:
            return
        count = min(self.crashes_per_epoch, eligible)
        lo, hi = self.crash_round_range
        rounds = np.sort(self._rng.integers(lo, hi, size=count))
        if self.rolling:
            victims = []
            for _ in range(count):
                victims.append(self._next_rolling)
                self._next_rolling = self._next_rolling % (num_nodes - 1) + 1
        else:
            victims = (
                1 + self._rng.choice(eligible, size=count, replace=False)
            ).tolist()
        for round_index, victim in zip(rounds.tolist(), victims):
            self._schedule.setdefault(int(round_index), []).append(int(victim))

    def on_round(self, ctx: ScenarioRuntime) -> None:
        now = ctx.cluster.time
        if not self.permanent:
            due = [n for n, r in self._down.items() if ctx.round >= r]
            for node_id in sorted(due):
                self._restore(ctx, node_id, now)
        for node_id in self._schedule.pop(ctx.round, []):
            self._crash(ctx, node_id, now)
        self.controller.on_round(now)

    def on_epoch_end(self, ctx: ScenarioRuntime) -> None:
        # Nodes still down at the epoch boundary rejoin before the next
        # epoch's shard creation (unless the crash is permanent).
        if not self.permanent:
            for node_id in sorted(self._down):
                self._restore(ctx, node_id, ctx.cluster.time)

    # ------------------------------------------------------------- internals
    def _crash(self, ctx: ScenarioRuntime, node_id: int, now: float) -> None:
        if node_id in self._down or node_id in ctx.cluster.failed:
            return
        if ctx.cluster.is_removed(node_id):
            return  # removed nodes have no state left to crash
        if len(ctx.cluster.active_nodes) <= 1:
            return  # never take down the last survivor
        self.controller.crash_node(node_id, now=now)
        for nid, worker_id in ctx.worker_keys():
            if nid == node_id:
                ctx.pause_worker(nid, worker_id)
        if not self.permanent:
            self._down[node_id] = ctx.round + self.down_rounds

    def _restore(self, ctx: ScenarioRuntime, node_id: int, now: float) -> None:
        self.controller.restore_node(node_id, now=now)
        for nid, worker_id in ctx.worker_keys():
            if nid == node_id:
                ctx.resume_worker(nid, worker_id)
        self._down.pop(node_id, None)


class WorkerKill(Perturbation):
    """Permanently kill seeded workers: they never rejoin the experiment.

    Unlike :class:`~repro.scenarios.perturbations.WorkerChurn`, victims are
    not resumed at the epoch's end — the cluster finishes the experiment
    short-handed. Worker ``(0, 0)`` is never a victim so at least one worker
    always survives.
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
        self._rng = perturbation_rng(ctx, 43 + self.seed)
        self._fired = False

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if self._fired or ctx.epoch != self.at_epoch \
                or ctx.round != self.at_round:
            return
        self._fired = True
        eligible = [key for key in ctx.worker_keys() if key != (0, 0)]
        count = min(self.count, len(eligible) - 1) if len(eligible) > 1 else 0
        if count < 1:
            return
        chosen = self._rng.choice(len(eligible), size=count, replace=False)
        for index in sorted(chosen.tolist()):
            node_id, worker_id = eligible[index]
            ctx.pause_worker(node_id, worker_id)
            ctx.metrics.increment("faults.worker_kills", 1, node=node_id)


class LossyNetwork(Perturbation):
    """Lossy interconnect during an epoch window.

    From ``from_epoch`` up to (exclusive) ``until_epoch``, the cluster's cost
    model is replaced by a :class:`FaultyNetworkModel` wrapping the
    experiment's base model; outside the window the base model is restored.
    """

    def __init__(self, loss_rate: float = 0.05, duplication_rate: float = 0.0,
                 timeout: float = 1e-3, from_epoch: int = 0,
                 until_epoch: Optional[int] = None) -> None:
        if from_epoch < 0:
            raise ValueError("from_epoch must be non-negative")
        if until_epoch is not None and until_epoch <= from_epoch:
            raise ValueError("until_epoch must come after from_epoch")
        self.loss_rate = float(loss_rate)
        self.duplication_rate = float(duplication_rate)
        self.timeout = float(timeout)
        self.from_epoch = int(from_epoch)
        self.until_epoch = until_epoch

    def _in_window(self, epoch: int) -> bool:
        if epoch < self.from_epoch:
            return False
        return self.until_epoch is None or epoch < self.until_epoch

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        if self._in_window(ctx.epoch):
            model = FaultyNetworkModel.wrap(
                ctx.base_network,
                loss_rate=self.loss_rate,
                duplication_rate=self.duplication_rate,
                timeout=self.timeout,
            )
            if model != ctx.cluster.network:
                ctx.set_network(model)
                ctx.metrics.increment("faults.lossy_epochs", 1)
        elif ctx.cluster.network != ctx.base_network:
            ctx.set_network(ctx.base_network)
