"""The dynamic-workload scenario engine.

A :class:`Scenario` composes time-varying perturbations onto any experiment:
hot-set drift, stragglers, worker churn, degrading networks — or any custom
:class:`Perturbation`. The experiment runner invokes the scenario at well
defined points (experiment start, epoch start, every scheduling round, epoch
end); perturbations react by mutating the simulated world through the
:class:`ScenarioRuntime` helpers, never by reaching into the runner.

Design notes
------------
* A ``Scenario`` is declarative and reusable; ``Scenario.bind`` creates the
  per-run :class:`ScenarioRuntime` that holds all mutable state. Perturbations
  may keep per-run state on themselves but must (re)initialize it in
  ``on_start`` so a scenario object can be reused across sequential runs.
* All randomness is seeded from the experiment seed plus a per-perturbation
  seed, so scenario runs are exactly reproducible (see
  ``tests/test_determinism.py``).
* Hot-set drift, crash faults on statically partitioned architectures and
  network partitions put one interposer between the workers and the PS
  (:mod:`repro.scenarios.interposer`); every other scenario runs on the raw
  PS with zero per-access overhead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.management import ManagementPlan
from repro.scenarios.remap import KeyRemapper


class Perturbation:
    """One time-varying aspect of a scenario (base class: all hooks no-op)."""

    #: Whether this perturbation rewires the workload-to-key mapping. Any
    #: perturbation with this flag makes the runner train through the
    #: interposer's key translation
    #: (:mod:`repro.scenarios.interposer`).
    needs_remap = False

    #: Whether this perturbation crashes parameter owners. Any perturbation
    #: with this flag makes architectures without native failover waiting
    #: train through the interposer's dead-owner retry gate.
    needs_fault_proxy = False

    #: Whether this perturbation splits the cluster into reachability groups
    #: (see :class:`repro.elastic.perturbations.NetworkPartition`). The
    #: partition guard is a gate of the interposer, and — unlike crash
    #: faults — applies to *every* architecture: relocation's native arrival
    #: waiting cannot model an unreachable-but-alive owner, so the gates are
    #: installed even for servers with ``native_failover_wait``.
    needs_partition_guard = False

    def on_start(self, ctx: "ScenarioRuntime") -> None:
        """Called once before the first epoch (initialize per-run state here)."""

    def on_epoch_start(self, ctx: "ScenarioRuntime") -> None:
        """Called at the start of every epoch (``ctx.epoch`` is set)."""

    def on_round(self, ctx: "ScenarioRuntime") -> None:
        """Called after every scheduling round (``ctx.round`` is set)."""

    def on_epoch_end(self, ctx: "ScenarioRuntime") -> None:
        """Called after every epoch (after PS epoch flush)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def perturbation_rng(ctx: "ScenarioRuntime", salt: int) -> np.random.Generator:
    """A per-run generator derived from the experiment seed and ``salt``.

    Every seeded perturbation (standard, fault and elastic) draws from one;
    a per-class constant plus the perturbation's own ``seed`` makes its salt,
    and the constants are disjoint across classes.
    """
    return np.random.default_rng((ctx.config.seed + 1) * 99_991 + salt)


class Scenario:
    """A named composition of perturbations applied to one experiment."""

    def __init__(self, name: str, perturbations: Sequence[Perturbation],
                 description: str = "") -> None:
        self.name = str(name)
        self.perturbations: List[Perturbation] = list(perturbations)
        self.description = description

    @property
    def needs_remap(self) -> bool:
        return any(p.needs_remap for p in self.perturbations)

    @property
    def needs_fault_proxy(self) -> bool:
        return any(p.needs_fault_proxy for p in self.perturbations)

    @property
    def needs_partition_guard(self) -> bool:
        return any(p.needs_partition_guard for p in self.perturbations)

    def bind(self, task, ps, cluster, config) -> "ScenarioRuntime":
        """Create the per-run runtime driving this scenario."""
        return ScenarioRuntime(self, task, ps, cluster, config)

    def describe(self) -> dict:
        return {
            "scenario": self.name,
            "perturbations": [type(p).__name__ for p in self.perturbations],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.name!r}, {self.perturbations!r})"


class ScenarioRuntime:
    """Mutable per-run state of a scenario plus the operations it may perform.

    The runner drives the lifecycle (``on_experiment_start`` /
    ``begin_epoch`` / ``on_round`` / ``end_epoch``); perturbations call the
    helper operations (``set_compute_scale``, ``set_network``,
    ``pause_worker`` / ``resume_worker``, ``apply_drift``).
    """

    def __init__(self, scenario: Scenario, task, ps, cluster, config) -> None:
        self.scenario = scenario
        self.task = task
        self.ps = ps
        self.cluster = cluster
        self.config = config
        self.metrics = cluster.metrics
        #: The cost model the cluster started with; network schedules derive
        #: every stage from this base, so factors do not compound.
        self.base_network = cluster.network
        #: The membership controller (created lazily by
        #: :meth:`membership_controller`).
        self.membership = None
        self.remapper: Optional[KeyRemapper] = KeyRemapper(
            task.num_keys(), task.key_groups()
        ) if scenario.needs_remap else None
        # Statically partitioned architectures would read keys whose new
        # owner has not received its state yet; the gates add retry/timeout
        # semantics. Relocation-based servers wait natively via their
        # arrival-time tracking and go ungated — except under network
        # partitions, whose reachability guard applies to every
        # architecture.
        self._gated = scenario.needs_partition_guard or (
            scenario.needs_fault_proxy
            and not getattr(ps, "native_failover_wait", False)
        )
        #: The :class:`~repro.scenarios.interposer.ScenarioParameterServer`
        #: the workers train through, or None (they train on ``ps``).
        self.interposer = None
        if self._gated or self.remapper is not None:
            from repro.scenarios.interposer import ScenarioParameterServer

            self.interposer = ScenarioParameterServer(ps, self.remapper)
        self.training_ps = ps if self.interposer is None else self.interposer
        self.epoch = -1
        self.round = -1
        self.paused: set = set()
        self._epoch_state = None
        #: The worker pool is fixed at launch: nodes added by elastic
        #: scale-out contribute server/storage capacity but no new training
        #: workers (the runner's shard distribution is per-run static).
        self._worker_pool: List[Tuple[int, int]] = [
            worker.global_worker_id for worker in cluster.workers()
        ]

    # -------------------------------------------------------------- lifecycle
    def on_experiment_start(self) -> None:
        for perturbation in self.scenario.perturbations:
            perturbation.on_start(self)

    def begin_epoch(self, epoch: int) -> None:
        self.epoch = int(epoch)
        self.round = -1
        for perturbation in self.scenario.perturbations:
            perturbation.on_epoch_start(self)

    def on_round(self, round_index: int) -> None:
        self.round = int(round_index)
        for perturbation in self.scenario.perturbations:
            perturbation.on_round(self)

    def end_epoch(self, epoch: int) -> None:
        for perturbation in self.scenario.perturbations:
            perturbation.on_epoch_end(self)

    def attach_epoch_state(self, state) -> None:
        """Bind this epoch's work queues; redistributes shards of down workers."""
        self._epoch_state = state
        for key in sorted(self.paused):
            state.redistribute(key, self._active_keys())

    def detach_epoch_state(self) -> None:
        self._epoch_state = None

    # ------------------------------------------------------------- membership
    def membership_controller(self):
        """The run's :class:`~repro.faults.controller.MembershipController`.

        Created on first call, at the current simulated time, with the first
        ``fault_config`` any of the scenario's perturbations sets (the
        defaults where none does), and
        attached to the interposer's dead-owner gate when the run is gated;
        later calls return it unchanged.
        """
        if self.membership is None:
            from repro.faults.controller import MembershipController

            fault_config = next(
                (p.fault_config for p in self.scenario.perturbations
                 if getattr(p, "fault_config", None) is not None), None)
            self.membership = MembershipController(
                self.ps, fault_config, start_time=self.cluster.time)
            if self._gated:
                self.interposer.controller = self.membership
        return self.membership

    def scale_out(self) -> int:
        """Join one node at the current simulated time; returns its id."""
        return self.membership_controller().scale_out(self.cluster.time)

    def scale_in(self, node_id: int) -> dict:
        """Drain and remove ``node_id`` (planned scale-in).

        The node's workers are paused first (their remaining shards are
        redistributed to the surviving workers), then the membership
        controller drains the node's buffered state and migrates its keys to
        the survivors. Returns the controller's transition summary.
        """
        for nid, worker_id in self.worker_keys():
            if nid == node_id:
                self.pause_worker(nid, worker_id)
        return self.membership_controller().scale_in(node_id, self.cluster.time)

    # -------------------------------------------------------------- partitions
    def begin_partition(self, minority) -> None:
        """Split the cluster: ``minority`` nodes lose the quorum side.

        Requires the partition guard (the interposer's gates, installed for
        *all* architectures via ``needs_partition_guard``). Minority-side accesses
        degrade to bounded-staleness reads and buffered writes; majority
        accesses to minority-owned keys raise
        :class:`~repro.faults.errors.PartitionedOwnerError` and are deferred
        by the epoch loop.
        """
        if not self._gated:
            raise RuntimeError(
                "begin_partition requires the partition guard; add a "
                "perturbation with needs_partition_guard=True to the scenario"
            )
        if self.interposer.partition is not None:
            return
        from repro.elastic.partition_state import PartitionState

        self.interposer.partition = PartitionState(
            self.ps, minority, self.cluster.time
        )
        self.metrics.increment("elastic.partitions", 1)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("partition_begin", "scenario", self.cluster.time,
                         minority=sorted(int(n) for n in minority))

    def heal_partition(self) -> None:
        """Heal the active partition: replay buffered minority writes."""
        interposer = self.interposer
        if interposer is None or interposer.partition is None:
            return
        state = interposer.partition
        interposer.partition = None
        state.heal(self.cluster.time)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("partition_heal", "scenario", self.cluster.time)

    # ------------------------------------------------------------- inspection
    def worker_keys(self) -> List[Tuple[int, int]]:
        """All ``(node_id, worker_id)`` pairs of the launch-time pool, in order."""
        return list(self._worker_pool)

    def is_active(self, worker_key: Tuple[int, int]) -> bool:
        return worker_key not in self.paused

    def _active_keys(self) -> List[Tuple[int, int]]:
        return [key for key in self.worker_keys() if key not in self.paused]

    @property
    def tracer(self):
        """The run's tracer, or None (perturbation activations are traced)."""
        return getattr(self.cluster, "tracer", None)

    # ------------------------------------------------------------- operations
    def set_compute_scale(self, node_id: int, worker_id: int, scale: float) -> None:
        """Set one worker's compute-speed multiplier (stragglers)."""
        self.cluster.set_compute_scale(node_id, worker_id, scale)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("compute_scale", "scenario", self.cluster.time,
                         node=int(node_id), worker=int(worker_id),
                         scale=float(scale))

    def set_network(self, model) -> None:
        """Swap the cluster's network cost model and refresh the PS caches."""
        self.cluster.set_network(model)
        self.ps.refresh_network()
        self.metrics.increment("scenario.network_changes", 1)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("network_change", "scenario", self.cluster.time,
                         model=type(model).__name__)

    def pause_worker(self, node_id: int, worker_id: int) -> None:
        """Take a worker down; its remaining shard is redistributed.

        The pause persists across epochs until :meth:`resume_worker`. At least
        one worker must stay active.
        """
        key = (int(node_id), int(worker_id))
        if key in self.paused:
            return
        if len(self.paused) + 1 >= len(self.worker_keys()):
            raise ValueError("cannot pause the last active worker")
        self.paused.add(key)
        if self._epoch_state is not None:
            self._epoch_state.redistribute(key, self._active_keys())
        self.metrics.increment("scenario.worker_pauses", 1, node=key[0])
        tracer = self.tracer
        if tracer is not None:
            tracer.event("worker_pause", "scenario", self.cluster.time,
                         node=key[0], worker=key[1])

    def resume_worker(self, node_id: int, worker_id: int) -> None:
        """Bring a paused worker back (it rejoins from the next redistribution
        or epoch; already-redistributed work is not taken back)."""
        key = (int(node_id), int(worker_id))
        if key not in self.paused:
            return
        self.paused.discard(key)
        self.metrics.increment("scenario.worker_resumes", 1, node=key[0])
        tracer = self.tracer
        if tracer is not None:
            tracer.event("worker_resume", "scenario", self.cluster.time,
                         node=key[0], worker=key[1])

    def apply_drift(self, shift: float, oracle_remanage: bool = True) -> None:
        """Rotate the workload-to-key mapping by ``shift`` (hot-set drift).

        Buffered PS state is flushed first (epoch-boundary semantics), then
        the store rows move together with the mapping. With
        ``oracle_remanage`` (the default), NuPS-style servers that expose a
        ``remanage`` hook finally get a management plan re-derived for the
        *new* physical hot set — modeling intent signaling that reacts to
        drift. Static baselines receive no such signal, and with
        ``oracle_remanage=False`` nobody does: recovering then requires
        *online* hot-spot detection (see :mod:`repro.adaptive`).
        """
        if self.remapper is None:
            raise RuntimeError(
                "apply_drift requires a remapping perturbation "
                "(needs_remap=True) in the scenario"
            )
        self.ps.finish_epoch()
        sigma = self.remapper.rotation(shift)
        self.ps.store.permute(sigma)
        self.remapper.apply(sigma)
        # The store rows just moved underneath any eagerly replicated keys;
        # reload the replicas so they keep serving the *values* they held
        # before the relabeling (the drift contract: values move with their
        # logical key, only management state goes stale). Without this, a
        # replicated key that receives no further pushes would serve the
        # pre-drift parameter forever on the no-oracle path (and on the
        # oracle path whenever the re-derived plan's key set coincides with
        # the current one, where remanage is a no-op).
        manager = getattr(self.ps, "replica_manager", None)
        if manager is not None:
            manager.refresh_all()
        if oracle_remanage and hasattr(self.ps, "remanage") \
                and self.ps.plan.num_replicated > 0:
            counts = np.empty(self.remapper.num_keys, dtype=np.float64)
            counts[self.remapper.physical_index] = self.task.access_counts()
            plan = ManagementPlan.top_k_by_count(
                counts, self.ps.plan.num_replicated
            )
            self.ps.remanage(plan, now=self.cluster.time)
        self.metrics.increment("scenario.drifts", 1)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("drift", "scenario", self.cluster.time,
                         shift=float(shift),
                         oracle_remanage=bool(oracle_remanage))

    def logical_store(self, store):
        """A logical-key view of ``store`` for evaluation.

        Identity mapping: the store itself. After drifts: a read-only copy
        whose row ``k`` holds the value of logical key ``k``.
        """
        if self.remapper is None or self.remapper.is_identity:
            return store
        from repro.ps.storage import ParameterStore

        view = ParameterStore(store.num_keys, store.value_length)
        view.values[...] = store.values[self.remapper.physical_index]
        return view
