"""Every perturbation of the scenario engine, on one base.

:class:`Perturbation` owns what the perturbations share: the
``(epoch, round)`` moments a one-shot perturbation fires at and the per-run
generator seeded from the experiment seed and the class's salt. Which nodes
and workers a perturbation may take, and how a node's workers follow it
down and up, is :class:`~repro.scenarios.base.ScenarioRuntime`'s.

* :class:`HotSetDrift` — the Zipf permutation rotates mid-run: yesterday's
  cold keys become hot.
* :class:`Stragglers` — heavy-tailed per-worker compute slowdowns.
* :class:`WorkerChurn` — workers pause mid-epoch, their shards are
  redistributed, and they resume at the epoch's end.
* :class:`NetworkDegradation` — latency grows and bandwidth shrinks epoch
  by epoch.
* :class:`ServerCrashes` — seeded crash/restart schedules.
* :class:`ScaleIn` — a seeded node drains its state and leaves.
* :class:`AutoscaleStorm` — nodes join and leave on a fixed round cadence.
* :class:`NetworkPartition` — a seeded minority loses contact with the rest
  for a few rounds, then heals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.network import NetworkSchedule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.scenarios.base import ScenarioRuntime


class Perturbation:
    """One time-varying aspect of a scenario (base class: all hooks no-op)."""

    #: Whether this perturbation rewires the workload-to-key mapping: the
    #: runner then trains through the interposer's key translation
    #: (:mod:`repro.scenarios.interposer`).
    needs_remap = False

    #: Whether this perturbation crashes parameter owners: architectures
    #: without native failover waiting then train through the interposer's
    #: dead-owner retry gate.
    needs_fault_proxy = False

    #: Whether this perturbation splits the cluster into reachability
    #: groups. The partition guard is a gate of the interposer and applies
    #: to *every* architecture: relocation's native arrival waiting cannot
    #: model an unreachable-but-alive owner.
    needs_partition_guard = False

    #: Whether this perturbation changes membership: the run's membership
    #: controller is then created at experiment start.
    needs_membership = False

    #: The seed salt of this class's generator ``rng`` (``None``: it draws
    #: nothing). Salts are disjoint across classes.
    salt: Optional[int] = None

    #: ``(epoch, round)`` moments after whose round :meth:`fire` runs; a
    #: moment comes once per run.
    at: Tuple[Tuple[int, int], ...] = ()

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        """Called once before the first epoch (initialize per-run state here)."""
        if self.salt is not None:
            self.rng = np.random.default_rng(
                (ctx.config.seed + 1) * 99_991 + self.salt)

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        """Called at the start of every epoch (``ctx.epoch`` is set)."""

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        """Called after every scheduling round (``ctx.round`` is set)."""
        if (ctx.epoch, ctx.round) in self.at:
            self.fire(ctx)

    def fire(self, ctx: "ScenarioRuntime") -> None:
        """What the perturbation does at each moment of :attr:`at`."""

    def on_epoch_end(self, ctx: "ScenarioRuntime") -> None:
        """Called after every epoch (after PS epoch flush)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class HotSetDrift(Perturbation):
    """Rotate the workload-to-key mapping after the rounds ``at``.

    ``at`` holds ``(epoch, round)`` moments; ``SHIFT`` is the rotation
    distance as a fraction of each key group's size. With
    ``oracle_remanage`` re-management-capable servers (NuPS) receive a plan
    re-derived from the post-drift statistics, an oracle intent signal;
    without it only systems that detect the new hot spots themselves
    (:mod:`repro.adaptive`) re-target replication.
    """

    needs_remap = True
    SHIFT = 0.5

    def __init__(self, at: Sequence[Tuple[int, int]] = ((2, 0),),
                 oracle_remanage: bool = True) -> None:
        self.at = tuple((int(epoch), int(rnd)) for epoch, rnd in at)
        self.oracle_remanage = bool(oracle_remanage)

    def fire(self, ctx: "ScenarioRuntime") -> None:
        ctx.apply_drift(self.SHIFT, oracle_remanage=self.oracle_remanage)


class Stragglers(Perturbation):
    """Heavy-tailed per-worker compute-speed multipliers, drawn per epoch.

    Each worker's multiplier is ``1 + (severity - 1) * Pareto(2)``: mean
    ``severity`` with a heavy upper tail, so a few workers are much slower
    than the rest; each epoch's redraw moves the slow spots around.
    """

    salt = 18  # fixed: another salt would change every benchmarked draw
    TAIL_INDEX = 2.0

    def __init__(self, severity: float = 3.0) -> None:
        if severity < 1:
            raise ValueError("severity must be >= 1")
        self.severity = float(severity)

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        super().on_start(ctx)
        self._draw(ctx)

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        if ctx.epoch > 0:
            self._draw(ctx)

    def _draw(self, ctx: "ScenarioRuntime") -> None:
        for node_id, worker_id in ctx.worker_keys():
            multiplier = 1.0 + (self.severity - 1.0) * self.rng.pareto(
                self.TAIL_INDEX)
            ctx.set_compute_scale(node_id, worker_id, multiplier)


class WorkerChurn(Perturbation):
    """Pause a seeded ``fraction`` of the workers (at least one, never all)
    after round ``pause_at_round`` of every epoch; they resume at its end.

    A paused worker's remaining data is split over the active workers, so
    the epoch still processes every point, at the cost of load imbalance
    and broken access locality.
    """

    salt = 31  # fixed: another salt would change every benchmarked draw

    def __init__(self, fraction: float = 0.25, pause_at_round: int = 1) -> None:
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        if pause_at_round < 0:
            raise ValueError("pause_at_round must be non-negative")
        self.fraction = float(fraction)
        self.pause_at_round = int(pause_at_round)

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        keys = ctx.worker_keys()
        count = max(1, min(int(round(self.fraction * len(keys))), len(keys) - 1))
        chosen = self.rng.choice(len(keys), size=count, replace=False)
        self.victims = [keys[i] for i in sorted(chosen.tolist())]

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        if ctx.round == self.pause_at_round:
            for node_id, worker_id in self.victims:
                ctx.pause_worker(node_id, worker_id, holder=self)

    def on_epoch_end(self, ctx: "ScenarioRuntime") -> None:
        for node_id, worker_id in self.victims:
            ctx.resume_worker(node_id, worker_id, holder=self)


class NetworkDegradation(Perturbation):
    """From ``START_EPOCH`` on, each of ``steps`` epochs multiplies the
    latency by ``LATENCY_GROWTH`` and the bandwidth by ``BANDWIDTH_DECAY``
    (:meth:`~repro.simulation.network.NetworkSchedule.degrading`)."""

    START_EPOCH = 1
    LATENCY_GROWTH = 2.0
    BANDWIDTH_DECAY = 0.5

    def __init__(self, steps: int = 3) -> None:
        self.schedule = NetworkSchedule.degrading(
            self.START_EPOCH, self.LATENCY_GROWTH, self.BANDWIDTH_DECAY,
            steps)

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        model = self.schedule.model_at(ctx.base_network, ctx.epoch)
        if model != ctx.cluster.network:
            ctx.set_network(model)


class ServerCrashes(Perturbation):
    """Crash ``crashes_per_epoch`` nodes per epoch (of ``epochs``, or every
    epoch); each restarts ``DOWN_ROUNDS`` rounds later.

    At each epoch's start the crash rounds are drawn from ``CRASH_ROUNDS``
    (half-open) and the victims, without replacement, from every node slot
    but node 0's. :meth:`~repro.scenarios.base.ScenarioRuntime.crash_node`
    skips a victim that is not active when its round comes. Nodes still
    down at the epoch's end rejoin before the next one. ``fault_config``
    sets the recovery machinery; the per-round checkpoint upkeep runs here.
    """

    needs_fault_proxy = True
    needs_membership = True
    salt = 41
    CRASH_ROUNDS = (1, 5)
    DOWN_ROUNDS = 2

    def __init__(self, crashes_per_epoch: int = 2, fault_config=None,
                 epochs: Optional[Sequence[int]] = None) -> None:
        if crashes_per_epoch < 1:
            raise ValueError("crashes_per_epoch must be >= 1")
        self.crashes_per_epoch = int(crashes_per_epoch)
        self.fault_config = fault_config
        self.epochs = None if epochs is None else {int(e) for e in epochs}

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        super().on_start(ctx)
        self._schedule: Dict[int, List[int]] = {}
        self._down: Dict[int, int] = {}  # node_id -> restore round

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        self._schedule = {}
        if self.epochs is not None and ctx.epoch not in self.epochs:
            return
        # Drawn ahead over every slot, down or not, but node 0's (see
        # ScenarioRuntime.victim_nodes); crash_node skips an inactive one.
        nodes = list(range(1, ctx.cluster.num_nodes))
        if not nodes:
            return
        count = min(self.crashes_per_epoch, len(nodes))
        rounds = np.sort(self.rng.integers(*self.CRASH_ROUNDS, size=count))
        chosen = self.rng.choice(len(nodes), size=count, replace=False)
        for round_index, index in zip(rounds.tolist(), chosen.tolist()):
            self._schedule.setdefault(round_index, []).append(nodes[index])

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        now = ctx.cluster.time
        for node_id in sorted(n for n, r in self._down.items() if ctx.round >= r):
            self._restore(ctx, node_id, now)
        for node_id in self._schedule.pop(ctx.round, []):
            if ctx.crash_node(node_id, now):
                self._down[node_id] = ctx.round + self.DOWN_ROUNDS
        ctx.membership.on_round(now)

    def on_epoch_end(self, ctx: "ScenarioRuntime") -> None:
        for node_id in sorted(self._down):
            self._restore(ctx, node_id, ctx.cluster.time)

    def _restore(self, ctx: "ScenarioRuntime", node_id: int, now: float) -> None:
        ctx.restore_node(node_id, now)
        del self._down[node_id]


class ScaleIn(Perturbation):
    """Drain and remove one seeded node after round 1 of ``at_epoch``.

    A planned removal drains the node's buffered state before re-homing its
    keys, so, unlike a crash, no acknowledged update is lost.
    """

    needs_membership = True
    salt = 47

    def __init__(self, at_epoch: int = 0) -> None:
        if at_epoch < 0:
            raise ValueError("at_epoch must be non-negative")
        self.at = ((int(at_epoch), 1),)

    def fire(self, ctx: "ScenarioRuntime") -> None:
        victim = ctx.draw_leaver(self.rng)
        if victim is not None:
            ctx.scale_in(victim)


class AutoscaleStorm(Perturbation):
    """Every ``period_rounds`` rounds the cluster gains a node or loses one,
    alternating, starting with a join.

    Removals take the storm-added nodes first (oldest first), so the
    launch-time worker pool survives long storms; when none is active, a
    seeded node leaves instead.
    """

    needs_membership = True
    salt = 59

    def __init__(self, period_rounds: int = 2) -> None:
        if period_rounds < 1:
            raise ValueError("period_rounds must be >= 1")
        self.period_rounds = int(period_rounds)

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        super().on_start(ctx)
        self._added: List[int] = []
        self._grow_next = True

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        if ctx.round < 1 or ctx.round % self.period_rounds != 0:
            return
        if self._grow_next:
            self._added.append(ctx.scale_out())
        else:
            active = ctx.cluster.active_nodes
            victim = next((n for n in self._added if n in active), None)
            if victim is not None:
                self._added.remove(victim)
            else:
                victim = ctx.draw_leaver(self.rng)
            if victim is not None:
                ctx.scale_in(victim)
        self._grow_next = not self._grow_next


class NetworkPartition(Perturbation):
    """After round 1 of epoch 0 one seeded node loses contact with the rest.

    The majority keeps training; the minority degrades to bounded-staleness
    reads and buffered writes
    (:class:`~repro.elastic.partition_state.PartitionState`). The partition
    heals ``HEAL_AFTER_ROUNDS`` rounds later, or at the epoch's end,
    replaying the buffered writes and counting divergent keys.
    """

    needs_partition_guard = True
    salt = 53
    at = ((0, 1),)
    HEAL_AFTER_ROUNDS = 3

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        super().on_start(ctx)
        self._heal_at: Optional[int] = None

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        if self._heal_at is not None and ctx.round >= self._heal_at:
            self._heal_at = None
            ctx.heal_partition()
        else:
            super().on_round(ctx)

    def fire(self, ctx: "ScenarioRuntime") -> None:
        nodes = ctx.victim_nodes()
        if not nodes:
            return
        chosen = self.rng.choice(len(nodes), size=1, replace=False)
        ctx.begin_partition([nodes[int(chosen[0])]])
        self._heal_at = ctx.round + self.HEAL_AFTER_ROUNDS

    def on_epoch_end(self, ctx: "ScenarioRuntime") -> None:
        # Never carry a live partition across an epoch boundary: the epoch
        # flush needs the whole cluster.
        self._heal_at = None
        ctx.heal_partition()
