"""The dynamic-workload scenario engine.

A :class:`Scenario` composes time-varying perturbations
(:mod:`repro.scenarios.perturbations`) onto any experiment. The experiment
runner invokes the scenario at well defined points (experiment start, epoch
start, every scheduling round, epoch end); perturbations react by mutating
the simulated world through the :class:`ScenarioRuntime` operations, never
by reaching into the runner.

Design notes
------------
* A ``Scenario`` is declarative and reusable; ``Scenario.bind`` creates the
  per-run :class:`ScenarioRuntime` that holds all mutable state. Perturbations
  may keep per-run state on themselves but must (re)initialize it in
  ``on_start`` so a scenario object can be reused across sequential runs.
* All randomness is seeded from the experiment seed plus a per-class salt,
  so scenario runs are exactly reproducible (see
  ``tests/test_determinism.py``).
* The runtime owns the victim rules: node 0 is never a victim, a planned
  leave keeps two nodes active, no pause takes the last active worker (a
  crash or leave that would is skipped), and a node's workers pause and
  resume with the node.
* Hot-set drift, crash faults on statically partitioned architectures and
  network partitions put one interposer between the workers and the PS
  (:mod:`repro.scenarios.interposer`); every other scenario runs on the raw
  PS with zero per-access overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.management import ManagementPlan
from repro.scenarios.perturbations import Perturbation
from repro.scenarios.remap import KeyRemapper

WorkerKey = Tuple[int, int]


class Scenario:
    """A named composition of perturbations applied to one experiment."""

    def __init__(self, name: str, perturbations: Sequence[Perturbation],
                 description: str = "") -> None:
        self.name = str(name)
        self.perturbations: List[Perturbation] = list(perturbations)
        self.description = description

    def bind(self, task, ps, cluster, config) -> "ScenarioRuntime":
        """Create the per-run runtime driving this scenario."""
        return ScenarioRuntime(self, task, ps, cluster, config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.name!r}, {self.perturbations!r})"


class ScenarioRuntime:
    """Mutable per-run state of a scenario plus the operations it may perform.

    The runner drives the lifecycle (``on_experiment_start`` /
    ``begin_epoch`` / ``on_round`` / ``end_epoch``); perturbations call the
    operations (``set_compute_scale``, ``set_network``, ``pause_worker`` /
    ``resume_worker``, ``apply_drift``, ``crash_node`` / ``restore_node``,
    ``scale_out`` / ``scale_in``, ``begin_partition`` / ``heal_partition``).
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
        #: The membership controller (created by
        #: :meth:`membership_controller`).
        self.membership = None
        self.remapper: Optional[KeyRemapper] = KeyRemapper(
            task.num_keys(), task.key_groups()
        ) if self._needs("needs_remap") else None
        # Statically partitioned architectures would read keys whose new
        # owner has not received its state yet; the gates add retry/timeout
        # semantics. Relocation-based servers wait natively via their
        # arrival-time tracking and go ungated — except under network
        # partitions, whose reachability guard applies to every
        # architecture.
        self._gated = self._needs("needs_partition_guard") or (
            self._needs("needs_fault_proxy")
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
        #: Paused worker -> who holds its pause (a perturbation, or a node
        #: for the node's own workers). A worker is active when no pause
        #: holds it.
        self._holds: Dict[WorkerKey, set] = {}
        self._epoch_state = None
        #: The worker pool is fixed at launch: nodes added by elastic
        #: scale-out contribute server/storage capacity but no new training
        #: workers (the runner's shard distribution is per-run static).
        self._worker_pool: List[WorkerKey] = [
            worker.global_worker_id for worker in cluster.workers()
        ]

    def _needs(self, flag: str) -> bool:
        return any(getattr(p, flag) for p in self.scenario.perturbations)

    # -------------------------------------------------------------- lifecycle
    def on_experiment_start(self) -> None:
        if self._needs("needs_membership"):
            self.membership_controller()
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
        for key in sorted(self._holds):
            state.redistribute(key, self._active_keys())

    def detach_epoch_state(self) -> None:
        self._epoch_state = None

    # ------------------------------------------------------------- inspection
    def worker_keys(self) -> List[WorkerKey]:
        """All ``(node_id, worker_id)`` pairs of the launch-time pool, in order."""
        return list(self._worker_pool)

    def is_active(self, worker_key: WorkerKey) -> bool:
        return worker_key not in self._holds

    def _active_keys(self) -> List[WorkerKey]:
        return [key for key in self._worker_pool if key not in self._holds]

    @property
    def tracer(self):
        """The run's tracer, or None (perturbation activations are traced)."""
        return self.cluster.tracer

    def _record(self, name: str, counter: Optional[str] = None,
                node: Optional[int] = None, **attrs) -> None:
        """Count one ``counter`` and trace event ``name`` (on ``node``'s
        lane when given): every operation of the runtime reports here."""
        if counter is not None:
            self.metrics.increment(counter, 1)
        tracer = self.tracer
        if tracer is not None:
            tracer.event(name, "scenario", self.cluster.time, node=node,
                         **attrs)

    # ------------------------------------------------------------ victim rules
    def victim_nodes(self) -> List[int]:
        """The active nodes a perturbation may pick, ascending: every one but
        node 0 (it anchors recovery donors, the quorum side and the worker
        pool)."""
        return [node_id for node_id in self.cluster.active_nodes
                if node_id != 0]

    def draw_leaver(self, rng: np.random.Generator) -> Optional[int]:
        """A seeded victim of a planned leave, or None when fewer than two
        nodes would stay active."""
        nodes = self.victim_nodes()
        if len(nodes) < 2:
            return None
        return nodes[int(rng.integers(len(nodes)))]

    def _may_take(self, node_id: int) -> bool:
        """Whether ``node_id`` is active and a worker on another node is."""
        return node_id in self.cluster.active_nodes and any(
            key[0] != node_id for key in self._active_keys())

    def _node_workers(self, node_id: int) -> List[WorkerKey]:
        """The launch-time workers of ``node_id`` (their pauses are held by
        ``("node", node_id)``)."""
        return [key for key in self._worker_pool if key[0] == node_id]

    # ------------------------------------------------------------- membership
    def membership_controller(self):
        """The run's :class:`~repro.faults.controller.MembershipController`.

        Created on first call, at the current simulated time, with the first
        ``fault_config`` any of the scenario's perturbations sets (the
        defaults where none does), and attached to the interposer's
        dead-owner gate when the run is gated; later calls return it
        unchanged.
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

    def crash_node(self, node_id: int, now: float) -> bool:
        """Crash ``node_id`` at ``now`` and pause its workers; False, and
        nothing happens, when the node is not active or its workers are the
        last active ones."""
        if not self._may_take(node_id):
            return False
        self.membership_controller().crash_node(node_id, now=now)
        for key in self._node_workers(node_id):
            self.pause_worker(*key, holder=("node", node_id))
        return True

    def restore_node(self, node_id: int, now: float) -> None:
        """Bring a crashed node back at ``now``; its workers resume unless
        another pause holds them."""
        self.membership_controller().restore_node(node_id, now=now)
        for key in self._node_workers(node_id):
            self.resume_worker(*key, holder=("node", node_id))

    def scale_out(self) -> int:
        """Join one node at the current simulated time; returns its id."""
        return self.membership_controller().scale_out(self.cluster.time)

    def scale_in(self, node_id: int) -> None:
        """Drain and remove ``node_id`` (planned scale-in); skipped when its
        workers are the last active ones.

        The node's workers are paused first (their remaining shards are
        redistributed to the surviving workers), then the membership
        controller drains the node's buffered state and migrates its keys to
        the survivors.
        """
        if not self._may_take(node_id):
            return
        for key in self._node_workers(node_id):
            self.pause_worker(*key, holder=("node", node_id))
        self.membership_controller().scale_in(node_id, self.cluster.time)

    # -------------------------------------------------------------- partitions
    def begin_partition(self, minority) -> None:
        """Split the cluster: ``minority`` nodes lose the quorum side.

        Requires the partition guard (the interposer's gates, installed for
        *all* architectures via ``needs_partition_guard``). Minority-side
        accesses degrade to bounded-staleness reads and buffered writes;
        majority accesses to minority-owned keys raise
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
        self._record("partition_begin", "elastic.partitions",
                     minority=sorted(int(n) for n in minority))

    def heal_partition(self) -> None:
        """Heal the active partition: replay buffered minority writes."""
        interposer = self.interposer
        if interposer is None or interposer.partition is None:
            return
        state = interposer.partition
        interposer.partition = None
        state.heal(self.cluster.time)
        self._record("partition_heal")

    # ------------------------------------------------------------- operations
    def set_compute_scale(self, node_id: int, worker_id: int, scale: float) -> None:
        """Set one worker's compute-speed multiplier (stragglers)."""
        self.cluster.set_compute_scale(node_id, worker_id, scale)
        self._record("compute_scale", node=int(node_id), worker=int(worker_id),
                     scale=float(scale))

    def set_network(self, model) -> None:
        """Swap the cluster's network cost model and refresh the PS caches."""
        self.cluster.set_network(model)
        self.ps.refresh_network()
        self._record("network_change", "scenario.network_changes",
                     model=type(model).__name__)

    def pause_worker(self, node_id: int, worker_id: int, holder) -> bool:
        """Hold a worker paused on behalf of ``holder``; False, and nothing
        happens, when the worker is the last active one.

        An active worker that pauses has its remaining shard redistributed
        over the active workers; it stays paused, across epochs, until every
        holder resumes it.
        """
        key = (int(node_id), int(worker_id))
        if key not in self._holds:
            if len(self._holds) + 1 >= len(self._worker_pool):
                return False
            self._holds[key] = set()
            if self._epoch_state is not None:
                self._epoch_state.redistribute(key, self._active_keys())
            self._record("worker_pause", "scenario.worker_pauses",
                         node=key[0], worker=key[1])
        self._holds[key].add(holder)
        return True

    def resume_worker(self, node_id: int, worker_id: int, holder) -> None:
        """Release ``holder``'s pause of a worker; the worker is back when no
        pause holds it (it rejoins from the next redistribution or epoch;
        already-redistributed work is not taken back)."""
        key = (int(node_id), int(worker_id))
        holders = self._holds.get(key, ())
        if holder not in holders:
            return
        holders.discard(holder)
        if not holders:
            del self._holds[key]
            self._record("worker_resume", "scenario.worker_resumes",
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
        self._record("drift", "scenario.drifts", shift=float(shift),
                     oracle_remanage=bool(oracle_remanage))

    def logical_store(self, store):
        """A logical-key view of ``store`` for evaluation.

        Identity mapping: the store itself. After drifts: a read-only
        :class:`LogicalStoreView` whose key ``k`` reads the value of logical
        key ``k``, gathered from the store on each ``get`` (no copy of the
        key space).
        """
        if self.remapper is None or self.remapper.is_identity:
            return store
        return LogicalStoreView(store, self.remapper.physical_index)


class LogicalStoreView:
    """What evaluation reads of a store after drifts: ``get(keys)`` returns
    the values of logical ``keys`` from their physical rows, with the
    store's own range check. Reads the live store and mapping: use it at
    once, not across training."""

    def __init__(self, store, physical_index: np.ndarray) -> None:
        self._store = store
        self._physical = physical_index
        self.num_keys = store.num_keys
        self.value_length = store.value_length

    def get(self, keys) -> np.ndarray:
        return self._store.get(self._physical[self._store.check_keys(keys)])
