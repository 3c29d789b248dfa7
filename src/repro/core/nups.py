"""NuPS: the non-uniform parameter server (the paper's contribution).

NuPS combines two ideas on top of the PS substrate in :mod:`repro.ps`:

1. **Multi-technique parameter management** (Section 3.2). A
   :class:`~repro.core.management.ManagementPlan` assigns every key either to
   eager replication (hot spots) or to relocation (long tail). Replicated
   keys are always accessed through the node's replica (shared memory);
   relocated keys follow the Lapse protocol inherited from
   :class:`~repro.ps.relocation.RelocationPS`. The choice is transparent to
   the application: the same ``pull``/``push`` calls work for every key.

2. **Integrated sampling** (Section 4). NuPS implements the proposed sampling
   API (``register_distribution`` / ``prepare_sample`` / ``pull_sample``) via
   a :class:`~repro.core.sampling.manager.SamplingManager` that picks a
   sampling scheme per registered distribution according to the requested
   conformity level.

Replica staleness is time-based: a background thread synchronizes replicas
every ``sync_interval`` simulated seconds (default 40 ms) with a sparse
all-reduce. ``advance_clock`` is therefore a no-op — applications do not need
clock operations with NuPS.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence

import numpy as np

from repro.core.management import DEFAULT_HOT_SPOT_FACTOR, ManagementPlan
from repro.core.replica_manager import DEFAULT_SYNC_INTERVAL, ReplicaManager
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import SamplingDistribution
from repro.core.sampling.manager import SamplingConfig, SamplingManager
from repro.core.sampling.schemes import SamplingHost
from repro.ps.base import PullResult, SampleHandle
from repro.ps.relocation import RelocationPS, RelocationPointCharger
from repro.ps.rounds import segment_bounds, segment_counts
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, WorkerContext


def _partition_mask(mask: np.ndarray):
    """Split a boolean mask into (true_idx, false_idx) index arrays.

    A ``None`` on either side signals a homogeneous mask (all-False when the
    first element is None, all-True when the second is), so callers can take
    whole-batch fast paths; the placeholder on the opposite side is unused.
    """
    true_idx = np.flatnonzero(mask)
    if len(true_idx) == 0:
        return None, ()
    if len(true_idx) == len(mask):
        return (), None
    return true_idx, np.flatnonzero(~mask)


class NuPS(RelocationPS, SamplingHost):
    """Non-uniform parameter server: replication + relocation + sampling."""

    name = "nups"

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        plan: Optional[ManagementPlan] = None,
        sampling_config: Optional[SamplingConfig] = None,
        sync_interval: Optional[float] = DEFAULT_SYNC_INTERVAL,
        integrate_sampling: bool = True,
        seed: int = 0,
        batch_charging: bool = True,
    ) -> None:
        super().__init__(store, cluster, relocation_enabled=True,
                         seed=seed, batch_charging=batch_charging)
        self.plan = plan or ManagementPlan.relocate_all(store.num_keys)
        self.replica_manager = ReplicaManager(
            store, cluster, self.plan, sync_interval=sync_interval
        )
        #: When False, the sampling API falls back to the application-side
        #: behaviour of existing PSs (independent samples via direct access).
        #: Used by the ablation study (Section 5.3, "Relocation + Replication").
        self.integrate_sampling = bool(integrate_sampling)
        self._seed = int(seed)
        self.sampling_manager = SamplingManager(self, sampling_config)
        self._node_rngs: Dict[int, np.random.Generator] = {
            node_id: np.random.default_rng(seed * 7919 + node_id + 1)
            for node_id in range(cluster.num_nodes)
        }
        self._recent_direct: Dict[int, Deque[int]] = {
            node_id: deque(maxlen=self.sampling_manager.config.scheme_config.repurpose_buffer_size)
            for node_id in range(cluster.num_nodes)
        }
        #: Optional online access-statistics tap (see :mod:`repro.adaptive`).
        #: ``None`` (the default) keeps the hot paths untouched: adaptive-off
        #: runs are bit-identical to a build without the adaptive subsystem.
        self.access_observer = None
        #: Optional adaptive-management controller driven from housekeeping.
        self.adaptive_controller = None

    # ----------------------------------------------------------------- factory
    @classmethod
    def from_access_counts(
        cls,
        store: ParameterStore,
        cluster: Cluster,
        access_counts: Sequence[float] | np.ndarray,
        hot_spot_factor: float = DEFAULT_HOT_SPOT_FACTOR,
        **kwargs,
    ) -> "NuPS":
        """Build NuPS with the untuned hot-spot heuristic (Section 5.1)."""
        plan = ManagementPlan.from_access_counts(access_counts, hot_spot_factor)
        return cls(store, cluster, plan=plan, **kwargs)

    # -------------------------------------------------------------- direct API
    def localize(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> None:
        """Relocate the non-replicated subset of ``keys`` to the worker's node."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        relocated = keys[~self.plan.replicated_mask(keys)]
        super().localize(worker, relocated)

    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        return self._pull(worker, keys, sampling=False)

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        self._push(worker, keys, deltas, sampling=False)

    def remanage(self, plan: ManagementPlan, now: Optional[float] = None) -> None:
        """Install a new management plan mid-run (the re-management hook).

        The paper fixes the technique per key before training starts and lists
        dynamic switching as future work; this hook provides the dynamic
        variant the scenario engine and the adaptive controller
        (:mod:`repro.adaptive`) need: when the hot set drifts, intent
        signaling (refreshed dataset statistics) or online hot-spot detection
        can re-derive a plan and re-target replication at the new hot spots.
        Pending replica updates of the old plan are flushed into the store
        first (forced sync), then the replica state is rebuilt for the new
        plan. Keys that leave the replicated set fall back to relocation
        management; keys that enter it are replicated from their current
        global values.

        Re-managing to a plan with the *identical* replicated key set is a
        no-op: no forced sync, no replica rebuild, no metrics — callers that
        diff plans incrementally (the adaptive controller) can call this
        unconditionally without perturbing the simulation.
        """
        if plan.num_keys != self.store.num_keys:
            raise ValueError(
                "management plan covers a different key space than the store: "
                f"{plan.num_keys} != {self.store.num_keys}"
            )
        if np.array_equal(plan.replicated_keys, self.plan.replicated_keys):
            if self.tracer is not None:
                self.tracer.event(
                    "remanage", "management", now, noop=True,
                    num_replicated=int(plan.num_replicated),
                )
            self.plan = plan
            return
        now = self.cluster.time if now is None else float(now)
        replicated_before = int(self.plan.num_replicated)
        self.replica_manager.force_sync(now)
        self.plan = plan
        self.replica_manager = ReplicaManager(
            self.store, self.cluster, plan,
            sync_interval=self.replica_manager.sync_interval,
            start_time=now,
        )
        self.metrics.increment("management.replans", 1)
        if self.tracer is not None:
            self.tracer.event(
                "remanage", "management", now, noop=False,
                replicated_before=replicated_before,
                replicated_after=int(plan.num_replicated),
            )

    def attach_adaptive(self, controller) -> None:
        """Wire an adaptive controller and its statistics tap into this PS.

        Installed by :func:`repro.adaptive.controller.install_adaptive`. The
        controller's :class:`~repro.adaptive.stats.AccessStats` becomes the
        access observer fed from the direct-access paths — per call by
        ``pull``/``push``, per chunk in call order by the round engine's
        point charger, to the same sketch bit for bit — and the controller
        itself runs from :meth:`housekeeping`.
        """
        if self.adaptive_controller is not None:
            raise RuntimeError("an adaptive controller is already attached")
        self.adaptive_controller = controller
        self.access_observer = controller.stats

    def housekeeping(self, now: float) -> None:
        """Run due replica synchronizations, sampling-scheme maintenance, and
        adaptive-management steps."""
        self.replica_manager.maybe_sync(now)
        if self.integrate_sampling:
            # Dict-driven so membership changes follow along: added nodes are
            # registered by on_node_added, removed ones stop doing upkeep.
            for node_id in self._node_rngs:
                if node_id in self.cluster.removed:
                    continue
                self.sampling_manager.housekeeping(node_id, now)
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_housekeeping(now)

    def finish_epoch(self) -> None:
        """Synchronize replicas so that all nodes agree at the epoch boundary."""
        self.replica_manager.force_sync(self.cluster.time)

    # -------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id: Optional[int] = None):
        """Per-point charge replay for the task-level round engine.

        A NuPS access is charged by management technique (replica keys as
        one shared-memory product, relocated keys through the relocation
        fold) and its values are routed the same way; both depend on the
        plan, ownership and arrival times only, so a chunk replays from one
        lookup of each (:class:`_NuPSPointCharger`) — direct access alone
        (matrix factorization) or with the samples of ``distribution_id``.
        An attached ``access_observer`` is fed per chunk, in call order
        (:meth:`_NuPSPointCharger._observe`). The answer is ``None`` where a
        per-call effect cannot be replayed: the scalar oracle, an
        access-level tracer and, for sampling, ``integrate_sampling=False``
        or a scheme that decides keys at pull time. See the base class for
        the full list.
        """
        if not self.batch_charging or self._traces_accesses():
            return None
        if distribution_id is not None and (
                not self.integrate_sampling
                or not self.sampling_manager.scheme_for(distribution_id)
                .delivers_prepared_keys):
            return None
        return _NuPSPointCharger(self)

    def _split_managed(self, keys: np.ndarray):
        """``(replicated_idx, relocated_idx)`` under the current plan."""
        if self.plan.num_replicated == 0:
            return None, ()
        return _partition_mask(self.plan.replicated_mask(keys))

    # ------------------------------------------------------------- sampling API
    def register_distribution(self, distribution: SamplingDistribution,
                              level: ConformityLevel | str = ConformityLevel.CONFORM) -> int:
        if not self.integrate_sampling:
            return super().register_distribution(distribution, level)
        return self.sampling_manager.register(distribution, level)

    def prepare_sample(self, worker: WorkerContext, distribution_id: int,
                       count: int) -> SampleHandle:
        if not self.integrate_sampling:
            return super().prepare_sample(worker, distribution_id, count)
        return self.sampling_manager.prepare_sample(worker, distribution_id, count)

    def pull_sample(self, worker: WorkerContext, handle: SampleHandle,
                    count: Optional[int] = None) -> PullResult:
        if not self.integrate_sampling:
            return super().pull_sample(worker, handle, count)
        return self.sampling_manager.pull_sample(worker, handle, count)

    def push_sample(self, worker: WorkerContext, keys: np.ndarray,
                    deltas: np.ndarray) -> None:
        keys, deltas = self._validate_push(keys, deltas)
        self._push(worker, keys, deltas, sampling=True)

    # ---------------------------------------------------------- SamplingHost API
    def localize_async(self, node_id: int, keys: np.ndarray) -> None:
        """Relocate ``keys`` to ``node_id`` using the node's background thread."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        keys = keys[~self.plan.replicated_mask(keys)]
        if len(keys) == 0:
            return
        # Background-issued relocations start at the communication thread's
        # own time (no worker is blocked) and count toward the sampling
        # relocation metric; the mechanics are shared with localize.
        self._relocate_batch(node_id, keys, worker_clock=None, sampling=True)

    def key_is_local(self, node_id: int, key: int) -> bool:
        key = int(key)
        if self.plan.is_replicated(key):
            return True
        return bool(self.current_owner[key] == node_id)

    def keys_are_local(self, node_id: int, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`key_is_local` for a batch of keys."""
        keys = np.asarray(keys, dtype=np.int64)
        return self.plan.replicated_mask(keys) | (self.current_owner[keys] == node_id)

    def pull_keys(self, worker: WorkerContext, keys: np.ndarray,
                  sampling: bool = True) -> np.ndarray:
        return self._pull(worker, np.asarray(keys, dtype=np.int64), sampling=sampling)

    def local_support_keys(self, node_id: int,
                           distribution: SamplingDistribution) -> np.ndarray:
        low = distribution.key_offset
        high = distribution.key_offset + distribution.support_size
        support = np.arange(low, high, dtype=np.int64)
        # Query the plan for the support range only: materializing the full
        # num_keys-length mask would defeat chunked owner state at scale.
        local_mask = (
            self.plan.replicated_mask(support)
            | (self.current_owner[low:high] == node_id)
        )
        return support[local_mask]

    def recent_direct_access_keys(self, node_id: int) -> np.ndarray:
        return np.asarray(self._recent_direct[node_id], dtype=np.int64)

    def sampling_rng(self, node_id: int) -> np.random.Generator:
        return self._node_rngs[node_id]

    @property
    def value_length(self) -> int:
        return self.store.value_length

    # ------------------------------------------------------------------ internals
    def _pull(self, worker: WorkerContext, keys: np.ndarray, sampling: bool) -> np.ndarray:
        """One pull call: charge by management technique, then route values.

        Replicated keys cost one shared-memory product and read the node's
        replica; relocated keys take the relocation fold and read the store
        (and, for direct access, enter the node's recent-access buffer).
        :class:`_NuPSPointCharger` replays exactly this charge sequence and
        routing per chunk.
        """
        if len(keys) == 0:
            return np.empty((0, self.store.value_length), dtype=np.float32)
        if not sampling and self.access_observer is not None:
            # Online access statistics observe the direct-access stream (the
            # frequencies the paper's management heuristics are defined on);
            # sampling access is managed by the sampling subsystem.
            self.access_observer.observe(keys)
        kind = "sample" if sampling else "pull"
        node_id = worker.node_id
        replicated_idx, relocated_idx = self._split_managed(keys)
        if replicated_idx is None:
            # Homogeneous batch (the common case): skip the index juggling.
            self._charge_access(worker, keys, kind)
            values = self.store.get(keys)
            if not sampling:
                self._recent_direct[node_id].extend(keys.tolist())
            return values
        if relocated_idx is None:
            values = self.replica_manager.pull(node_id, keys)
            self._charge_local(worker, len(keys), f"{kind}.replica")
            return values

        values = np.empty((len(keys), self.store.value_length), dtype=np.float32)
        rep_keys = keys[replicated_idx]
        values[replicated_idx] = self.replica_manager.pull(node_id, rep_keys)
        self._charge_local(worker, len(rep_keys), f"{kind}.replica")

        rel_keys = keys[relocated_idx]
        self._charge_access(worker, rel_keys, kind)
        values[relocated_idx] = self.store.get(rel_keys)
        if not sampling:
            self._recent_direct[node_id].extend(rel_keys.tolist())
        return values

    def _push(self, worker: WorkerContext, keys: np.ndarray, deltas: np.ndarray,
              sampling: bool) -> None:
        """One push call: the charging and routing of :meth:`_pull`, writing."""
        if len(keys) == 0:
            return
        if not sampling and self.access_observer is not None:
            self.access_observer.observe(keys)
        kind = "sample_push" if sampling else "push"
        replicated_idx, relocated_idx = self._split_managed(keys)
        if replicated_idx is None:
            self._charge_access(worker, keys, kind)
            self.store.add(keys, deltas)
            return
        if relocated_idx is None:
            self.replica_manager.push(worker.node_id, keys, deltas)
            self._charge_local(worker, len(keys), f"{kind}.replica")
            return

        rep_keys = keys[replicated_idx]
        self.replica_manager.push(worker.node_id, rep_keys, deltas[replicated_idx])
        self._charge_local(worker, len(rep_keys), f"{kind}.replica")

        rel_keys = keys[relocated_idx]
        self._charge_access(worker, rel_keys, kind)
        self.store.add(rel_keys, deltas[relocated_idx])

    # -------------------------------------------------------------- fault API
    def recover_values(self, keys: np.ndarray) -> tuple:
        """Recover replicated ``keys`` from a surviving node's replica.

        Every node holds a replica of every replicated key, so a crash never
        loses the current value of the hot set — any surviving replica (at
        most one sync interval stale) restores it. Relocated keys carry no
        redundancy and stay unmasked (checkpoint territory).
        """
        keys = np.asarray(keys, dtype=np.int64)
        mask = self.plan.replicated_mask(keys)
        values = np.zeros((len(keys), self.store.value_length), dtype=np.float32)
        if mask.any() and self.replica_manager.enabled:
            donor = self.cluster.active_nodes[0]
            values[mask] = self.replica_manager.pull(donor, keys[mask])
        else:
            mask = np.zeros(len(keys), dtype=bool)
        return values, mask

    def on_node_restored(self, node_id: int, now: float) -> None:
        """Repair the rejoining node's replica."""
        self.replica_manager.refresh_node(node_id)

    # --------------------------------------------------------- membership API
    def on_node_added(self, node_id: int, available_at: float) -> None:
        """Wire a joining node into replication and sampling.

        The replica manager seeds the node's hot-set replica from the store;
        sampling gets the node's deterministic RNG and repurpose buffer. The
        adaptive controller, if attached, re-plans at the next housekeeping.
        """
        self.replica_manager.add_node(node_id)
        if node_id not in self._node_rngs:
            self._node_rngs[node_id] = np.random.default_rng(
                self._seed * 7919 + node_id + 1
            )
            self._recent_direct[node_id] = deque(
                maxlen=self.sampling_manager.config.scheme_config.repurpose_buffer_size
            )
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_membership_change(available_at)

    def drain_node(self, node_id: int, now: float) -> int:
        """Flush the leaving node's buffered replica updates (zero loss)."""
        return self.replica_manager.drop_node(node_id, flush=True)

    def on_node_removed(self, node_id: int, available_at: float) -> None:
        """Detach the leaving node from replication."""
        # drain_node already dropped the replica state; make sure it is gone
        # even if the caller skipped the drain (lossy removal in tests).
        self.replica_manager.drop_node(node_id, flush=False)
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_membership_change(available_at)

    # ------------------------------------------------------------------ reports
    def replica_access_share(self) -> float:
        """Share of all accesses that went to replicas (Table 3, right columns)."""
        replica = (
            self.metrics.total_matching("access.pull.replica")
            + self.metrics.total_matching("access.push.replica")
            + self.metrics.total_matching("access.sample.replica")
            + self.metrics.total_matching("access.sample_push.replica")
        )
        total = self.metrics.get("access.total")
        if total == 0:
            return 0.0
        return replica / total

    def state_nbytes(self) -> dict:
        sizes = super().state_nbytes()
        sizes["replica_manager"] = self.replica_manager.nbytes()
        return sizes

    def describe(self) -> dict:
        description = super().describe()
        description.update(self.plan.describe())
        description["sync_interval"] = self.replica_manager.sync_interval
        description["integrate_sampling"] = self.integrate_sampling
        if self.adaptive_controller is not None:
            description["adaptive"] = self.adaptive_controller.describe()
        return description


class _NuPSPointCharger(RelocationPointCharger):
    """Chunk-level replay of NuPS's per-call charging and value routing.

    Charging: the management plan splits the chunk's keys once. Per call,
    the replicated keys are one shared-memory product charged first (as
    ``_pull``/``_push`` do), the relocated keys go through the inherited
    relocation fold, the relocated *direct* keys extend the node's
    recent-access buffer in access order, and an attached statistics tap is
    fed the chunk's direct calls in call order. Values: a point whose keys
    are all relocated uses the store like the base class; otherwise the
    replicated positions are read from the node's replica and written
    through the replica manager (replica, update buffer, dirty mask) by
    slot, from one slot lookup per chunk.
    """

    __slots__ = ("node_id", "routes")

    sample_kinds = ("sample", "sample_push")

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     direct_widths: list, sample_widths: list,
                     compute_costs: list) -> None:
        """Charge one worker's chunk (see the relocation charger) and set
        up the per-point value routes.

        Without a replicated key in the chunk this is the relocation fold
        over all of it. Otherwise the fold runs over the relocated keys,
        each call's replicated keys charged first as one product, and every
        point holding replicated keys gets a value route.
        """
        ps = self.ps
        node_id = self.node_id = worker.node_id
        self.routes = {}
        replicated = ps.plan.replicated_mask(keys) \
            if ps.plan.num_replicated else None
        if replicated is None or not replicated.any():
            self._fold(worker, keys, direct_widths, sample_widths,
                       compute_costs)
            self._bind(keys)
            relocated = self.keys_list
            relocated_direct, relocated_sample = direct_widths, sample_widths
        else:
            bounds = segment_bounds(direct_widths, sample_widths)
            replica_counts = segment_counts(replicated, bounds)
            direct_replicas = replica_counts[0::2].tolist()
            sample_replicas = replica_counts[1::2].tolist()
            relocated_mask = ~replicated
            relocated_direct = [width - replicas for width, replicas
                                in zip(direct_widths, direct_replicas)]
            relocated_sample = [width - replicas for width, replicas
                                in zip(sample_widths, sample_replicas)]
            self._fold(worker, keys[relocated_mask], relocated_direct,
                       relocated_sample, compute_costs, direct_replicas,
                       sample_replicas)
            self._bind(keys)
            acc = self.acc
            direct_total = sum(direct_replicas)
            sample_total = sum(sample_replicas)
            acc.add_access(node_id, "pull.replica.local", direct_total)
            acc.add_access(node_id, "push.replica.local", direct_total)
            acc.add_access(node_id, "sample.replica.local", sample_total)
            acc.add_access(node_id, "sample_push.replica.local", sample_total)
            self._plan_routes(replicated, relocated_mask, bounds[0::2])
            relocated = self.keys[relocated_mask].tolist()
        # Direct accesses to relocated keys feed sampling repurposing.
        recent = ps._recent_direct[node_id]
        if any(relocated_sample):
            for lo, hi in zip(*_direct_spans(relocated_direct,
                                             relocated_sample)):
                recent.extend(relocated[lo:hi])
        else:
            recent.extend(relocated)
        if ps.access_observer is not None:
            self._observe(*_direct_spans(direct_widths, sample_widths))

    def _observe(self, starts, stops) -> None:
        """Feed the statistics tap the chunk's direct-access calls.

        ``_pull``/``_push`` show the tap the keys of every direct call,
        replicated or not: per point the direct segment ``[lo, hi)`` of the
        bound keys once for the pull and once more for the push. Sampling
        access is not observed. The tap touches no clock, metric or value
        and is read only from ``housekeeping``, between rounds, so feeding a
        whole chunk at its slot is exact.
        """
        self.ps.access_observer.observe_calls(self.keys, starts, stops,
                                              repeat=2)

    def _plan_routes(self, replicated: np.ndarray, relocated: np.ndarray,
                     starts: np.ndarray) -> None:
        """Per point with replicated keys: where they sit and their slots."""
        keys = self.keys
        sides = []
        for mask in (replicated, relocated):
            flat = np.flatnonzero(mask)
            cuts = np.searchsorted(flat, starts)
            # Positions relative to the start of their point.
            flat -= np.repeat(starts[:-1], np.diff(cuts))
            sides.append((flat, keys[mask], cuts.tolist()))
        (replica_positions, replica_keys, replica_cuts), \
            (store_positions, store_keys, store_cuts) = sides
        slots = self.ps.replica_manager.slots(replica_keys)
        routes = self.routes
        for point, lo in enumerate(starts[:-1].tolist()):
            first, last = replica_cuts[point], replica_cuts[point + 1]
            if first != last:
                cut = slice(store_cuts[point], store_cuts[point + 1])
                routes[lo] = (replica_positions[first:last], slots[first:last],
                              store_positions[cut], store_keys[cut])

    def read(self, lo: int, hi: int) -> np.ndarray:
        values = super().read(lo, hi)
        route = self.routes.get(lo)
        if route is not None:
            # The store's rows of replicated keys lag behind the replica by
            # the unsynchronized updates; the node reads its replica.
            values[route[0]] = self.ps.replica_manager.read_slots(
                self.node_id, route[1]
            )
        return values

    def add(self, lo: int, hi: int, deltas: np.ndarray) -> None:
        route = self.routes.get(lo)
        if route is None:
            super().add(lo, hi, deltas)
            return
        _, deltas = self.ps._validate_push(self.keys[lo:hi], deltas)
        replica_positions, slots, store_positions, store_keys = route
        if len(store_keys):
            self._add_rows(store_keys, store_keys.tolist(),
                           deltas.take(store_positions, axis=0))
        self.ps.replica_manager.add_slots(
            self.node_id, slots, deltas.take(replica_positions, axis=0)
        )


def _direct_spans(direct_widths: list, sample_widths: list):
    """``(starts, stops)``: per point, the ``[lo, hi)`` of its direct keys
    in a chunk laid out ``[direct | sample]`` point after point."""
    starts, stops = [], []
    position = 0
    for n_direct, n_sample in zip(direct_widths, sample_widths):
        starts.append(position)
        position += n_direct
        stops.append(position)
        position += n_sample
    return starts, stops
