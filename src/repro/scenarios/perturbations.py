"""The four standard perturbations of the scenario engine.

* :class:`HotSetDrift` — the Zipf permutation rotates at configured moments
  (epoch starts or mid-epoch round boundaries): yesterday's cold keys become
  hot. Relocation re-adapts organically, NuPS additionally re-targets its
  replication plan through the re-management hook, static baselines cannot
  react.
* :class:`Stragglers` — per-worker compute-speed multipliers drawn from a
  heavy-tailed (Pareto) distribution, optionally re-drawn every epoch.
* :class:`WorkerChurn` — workers pause mid-epoch and their remaining shard is
  redistributed over the surviving workers; they resume later (by default at
  the epoch's end).
* :class:`NetworkDegradation` — the interconnect follows a
  :class:`~repro.simulation.network.NetworkSchedule`: per-epoch latency and
  bandwidth factors applied to the experiment's base cost model.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.scenarios.base import (
    Perturbation,
    ScenarioRuntime,
    perturbation_rng,
)
from repro.simulation.network import NetworkSchedule


class HotSetDrift(Perturbation):
    """Rotate the workload-to-key mapping at configured moments.

    ``at`` is a sequence of ``(epoch, round)`` moments: ``round=None`` fires
    at the start of the epoch, an integer fires at that round boundary inside
    the epoch (mid-epoch drift). ``shift`` is the rotation distance as a
    fraction of each key group's size.

    ``oracle_remanage`` controls the *intent signal*: with the default
    ``True``, re-management-capable servers (NuPS) receive a management plan
    re-derived from the post-drift dataset statistics — an oracle that knows
    exactly where the hot set moved. With ``False`` no server is told
    anything; only systems that detect the new hot spots themselves (online
    adaptive management, :mod:`repro.adaptive`) can re-target replication.
    """

    needs_remap = True

    def __init__(self, at: Iterable[Tuple[int, Optional[int]]] = ((1, None),),
                 shift: float = 0.5, oracle_remanage: bool = True) -> None:
        if not 0 < shift < 1:
            raise ValueError("shift must be a fraction in (0, 1)")
        self.at = [(int(epoch), None if rnd is None else int(rnd))
                   for epoch, rnd in at]
        self.shift = float(shift)
        self.oracle_remanage = bool(oracle_remanage)

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        if (ctx.epoch, None) in self.at:
            ctx.apply_drift(self.shift, oracle_remanage=self.oracle_remanage)

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if (ctx.epoch, ctx.round) in self.at:
            ctx.apply_drift(self.shift, oracle_remanage=self.oracle_remanage)


class Stragglers(Perturbation):
    """Heavy-tailed per-worker compute-speed multipliers.

    Each worker's multiplier is ``1 + (severity - 1) * Pareto(tail_index)``;
    with the default ``tail_index=2`` the multipliers have mean ``severity``
    but a heavy upper tail, so a few workers are much slower than the rest —
    the cluster behavior that makes "epoch time = slowest worker" hurt.
    ``redraw_each_epoch`` moves the slow spots around over time.
    """

    def __init__(self, severity: float = 2.0, tail_index: float = 2.0,
                 redraw_each_epoch: bool = False, seed: int = 1) -> None:
        if severity < 1:
            raise ValueError("severity must be >= 1")
        if tail_index <= 1:
            raise ValueError("tail_index must be > 1 (finite mean)")
        self.severity = float(severity)
        self.tail_index = float(tail_index)
        self.redraw_each_epoch = bool(redraw_each_epoch)
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 17 + self.seed)
        self._draw(ctx)

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        if self.redraw_each_epoch and ctx.epoch > 0:
            self._draw(ctx)

    def _draw(self, ctx: ScenarioRuntime) -> None:
        for node_id, worker_id in ctx.worker_keys():
            multiplier = 1.0 + (self.severity - 1.0) * self._rng.pareto(self.tail_index)
            ctx.set_compute_scale(node_id, worker_id, multiplier)


class WorkerChurn(Perturbation):
    """Pause a fraction of the workers mid-epoch; redistribute their shards.

    In each churned epoch, ``fraction`` of the workers (at least one, never
    all) is chosen at random, paused at round ``pause_at_round``, and resumed
    at round ``resume_at_round`` (or at the epoch's end when ``None``). The
    remaining data of a paused worker is split over the surviving workers, so
    the epoch still processes every data point — at the cost of load imbalance
    and freshly broken access locality.
    """

    def __init__(self, fraction: float = 0.25, pause_at_round: int = 1,
                 resume_at_round: Optional[int] = None,
                 epochs: Optional[Sequence[int]] = None, seed: int = 2) -> None:
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        if pause_at_round < 0:
            raise ValueError("pause_at_round must be non-negative")
        if resume_at_round is not None and resume_at_round <= pause_at_round:
            raise ValueError("resume_at_round must come after pause_at_round")
        self.fraction = float(fraction)
        self.pause_at_round = int(pause_at_round)
        self.resume_at_round = resume_at_round
        self.epochs = None if epochs is None else {int(e) for e in epochs}
        self.seed = int(seed)
        self._rng: Optional[np.random.Generator] = None
        self._victims: list = []

    def on_start(self, ctx: ScenarioRuntime) -> None:
        self._rng = perturbation_rng(ctx, 29 + self.seed)
        self._victims = []

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        self._victims = []
        if self.epochs is not None and ctx.epoch not in self.epochs:
            return
        keys = ctx.worker_keys()
        count = max(1, min(int(round(self.fraction * len(keys))), len(keys) - 1))
        chosen = self._rng.choice(len(keys), size=count, replace=False)
        self._victims = [keys[i] for i in sorted(chosen.tolist())]

    def on_round(self, ctx: ScenarioRuntime) -> None:
        if not self._victims:
            return
        if ctx.round == self.pause_at_round:
            for node_id, worker_id in self._victims:
                ctx.pause_worker(node_id, worker_id)
        if self.resume_at_round is not None and ctx.round == self.resume_at_round:
            for node_id, worker_id in self._victims:
                ctx.resume_worker(node_id, worker_id)

    def on_epoch_end(self, ctx: ScenarioRuntime) -> None:
        for node_id, worker_id in self._victims:
            ctx.resume_worker(node_id, worker_id)
        self._victims = []


class NetworkDegradation(Perturbation):
    """Time-varying interconnect conditions driven by a NetworkSchedule."""

    def __init__(self, schedule: Optional[NetworkSchedule] = None) -> None:
        self.schedule = schedule or NetworkSchedule.degrading()

    def on_epoch_start(self, ctx: ScenarioRuntime) -> None:
        model = self.schedule.model_at(ctx.base_network, ctx.epoch)
        if model != ctx.cluster.network:
            ctx.set_network(model)
