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

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Optional, Sequence

import numpy as np

from repro.core.management import ManagementPlan
from repro.core.replica_manager import DEFAULT_SYNC_INTERVAL, ReplicaManager
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import SamplingDistribution
from repro.core.sampling.manager import SamplingConfig, SamplingManager
from repro.core.sampling.schemes import (REPURPOSE_BUFFER_SIZE,
                                        PostponingSampleReuseScheme)
from repro.ps.base import SampleHandle
from repro.ps.relocation import (RelocationPS, RelocationPointCharger,
                                 access_labels)
from repro.ps.rounds import PULL, PULL_SAMPLE
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, WorkerContext


class NuPS(RelocationPS):
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
    ) -> None:
        super().__init__(store, cluster, relocation_enabled=True, seed=seed)
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
            node_id: deque(maxlen=REPURPOSE_BUFFER_SIZE)
            for node_id in range(cluster.num_nodes)
        }
        #: Optional online access-statistics tap (see :mod:`repro.adaptive`).
        #: ``None`` (the default) keeps the hot paths untouched: adaptive-off
        #: runs are bit-identical to a build without the adaptive subsystem.
        self.access_observer = None
        #: Optional adaptive-management controller driven from housekeeping.
        self.adaptive_controller = None

    # -------------------------------------------------------------- direct API
    def localize(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> None:
        """Relocate the non-replicated subset of ``keys`` to the worker's node."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        relocated = keys[~self.plan.replicated_mask(keys)]
        super().localize(worker, relocated)

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
        access observer, fed the direct-access calls of every chunk in call
        order by the point charger (a ``pull``/``push`` is a one-call
        chunk), and the controller itself runs from :meth:`housekeeping`.
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
            # registered by on_node_arrived, removed ones stop doing upkeep.
            for node_id in self._node_rngs:
                if node_id in self.cluster.removed:
                    continue
                self.sampling_manager.housekeeping(node_id, now)
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_housekeeping(now)

    def finish_epoch(self) -> None:
        """Synchronize replicas so that all nodes agree at the epoch boundary."""
        self.replica_manager.force_sync(self.cluster.time)

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

    def select_sample(self, worker: WorkerContext, handle: SampleHandle,
                      count: Optional[int] = None) -> np.ndarray:
        """The keys the distribution's scheme chooses for ``handle``'s next
        ``count`` samples (see the base class)."""
        if not self.integrate_sampling:
            return super().select_sample(worker, handle, count)
        return self.sampling_manager.pull_sample(worker, handle, count)

    # ------------------------------------------- what the sampling schemes call
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
        return self.plan.replicated_mask(keys) \
            | (self.ownership_at(keys)[1] == node_id)

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

    # --------------------------------------------------------- membership API
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
            replicas = self.replica_manager
            values[mask] = replicas.read_slots(donor, replicas.slots(keys[mask]))
        else:
            mask = np.zeros(len(keys), dtype=bool)
        return values, mask

    def on_node_arrived(self, node_id: int, available_at: float) -> None:
        """Seed the arriving node's hot-set replica from the store.

        A restored node's replica (and whatever it buffered) died with it,
        so it is re-seeded like a joining node's. A node new to the PS also
        gets its deterministic sampling RNG and repurpose buffer, and the
        adaptive controller, if attached, re-plans at the next housekeeping;
        a restored node keeps its sampling state, and its crash and restore
        leave the plan alone.
        """
        self.replica_manager.seed_node(node_id)
        if node_id in self._node_rngs:
            return
        self._node_rngs[node_id] = np.random.default_rng(
            self._seed * 7919 + node_id + 1
        )
        self._recent_direct[node_id] = deque(maxlen=REPURPOSE_BUFFER_SIZE)
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_membership_change(available_at)

    def release_node(self, node_id: int, now: float) -> int:
        """Flush the leaving node's buffered replica updates (zero loss) and
        detach it from replication."""
        drained = self.replica_manager.drop_node(node_id)
        if self.adaptive_controller is not None:
            self.adaptive_controller.on_membership_change(now)
        return drained

    # ------------------------------------------------------------------ reports
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
    """NuPS's access-charging fold and value routing.

    Selection: one walk over the calls in order extends the node's
    recent-access buffer with each direct pull's relocated keys and fills
    each sample pull's span of a handle the charger selects (``-1`` from
    :meth:`take_samples`) with the scheme's selection. That is exact:
    charging draws no random numbers, the recent buffer is the only state
    an earlier call writes and a later selection reads, and only a
    postponement moves keys inside a chunk, so the walk folds the calls
    before each postponing sample pull first, against the ownership they
    saw. Without integrated sampling, sampling calls are charged as direct
    ones.
    Charging: the management plan splits the keys once per fold. Per call,
    the replicated keys are one shared-memory product charged first, the
    relocated keys go through the inherited relocation fold, and an
    attached statistics tap is fed every direct call in call order.
    Values: a ``[lo, hi)`` span without replicated keys uses the store like
    the base class; otherwise its replicated positions are read from the
    node's replica and written through the replica manager (replica, update
    buffer, dirty mask) by slot, from one slot lookup per chunk. Only the
    store rows of pushed, non-replicated positions are bound writable: a
    replicated key's updates reach the store through replica
    synchronization, as they would call by call.
    """

    __slots__ = ("node_id", "handle", "postponing", "replica_positions",
                 "replica_at", "slots", "store_positions", "store_at",
                 "store_rows", "last_route")

    kind_labels = access_labels(("pull", "sample", "push", "sample_push"))
    events = ("pull", None, "push", None)

    def __init__(self, ps: NuPS) -> None:
        super().__init__(ps)
        self.handle = None  # the handle the next chunk selects
        self.postponing = False  # whether its scheme postpones

    def take_samples(self, handle) -> np.ndarray:
        """A prepared handle's keys at once; ``-1`` for each sample the
        next :meth:`charge_chunk` selects: a pull-time handle's, and a
        postponing handle's, whose order is decided as it is pulled."""
        self.handle = None
        ps = self.ps
        if handle is not None and ps.integrate_sampling:
            self.postponing = isinstance(
                ps.sampling_manager.scheme_for(handle.distribution_id),
                PostponingSampleReuseScheme)
            if self.postponing or \
                    len(handle.peek(handle.remaining)) < handle.remaining:
                self.handle = handle
                return np.full(handle.remaining, -1, dtype=np.int64)
        return super().take_samples(handle)

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        """Walk the calls (recent buffer, selected samples into ``keys``),
        charge the chunk, bind its keys for the value pass and locate its
        replicated keys (see the class)."""
        ps = self.ps
        self.node_id = worker.node_id
        if not ps.integrate_sampling:  # sampling is direct access
            calls = [(kind & 2, lo, hi, compute)
                     for kind, lo, hi, compute in calls]
        # Read at direct positions only: samples still to select hold -1.
        replicated = self._replicated(keys)
        mask = None if replicated is None else replicated.tolist()
        handle, self.handle = self.handle, None
        recent = ps._recent_direct[worker.node_id]
        keys_list = keys.tolist()
        folded = 0  # the calls before this one are charged
        for index, (kind, lo, hi, _) in enumerate(calls):
            if kind == PULL:
                if mask is None:
                    recent.extend(keys_list[lo:hi])
                else:  # only relocated keys enter the recent-access buffer
                    recent.extend(key for key, replica in zip(
                        keys_list[lo:hi], mask[lo:hi]) if not replica)
            elif kind == PULL_SAMPLE and handle is not None and hi > lo:
                if self.postponing and index > folded:
                    self._charge_run(worker, keys, calls[folded:index])
                    folded = index
                keys[lo:hi] = ps.select_sample(worker, handle, hi - lo)
        if handle is not None:
            replicated = self._replicated(keys)
        if folded:
            self._charge_run(worker, keys, calls[folded:])
        else:
            self._charge(worker, keys, calls, replicated)
        self._bind(keys, calls, replicated)
        self.replica_positions = None
        self.last_route = (0, 0, None)
        if replicated is not None:
            self._locate(replicated)
        if ps.access_observer is not None:
            # The tap touches no clock, metric or value and is read only
            # from ``housekeeping``, between rounds: feeding a whole chunk
            # at its slot is exact.
            ps.access_observer.observe_calls(self.keys, [
                (lo, hi) for kind, lo, hi, _ in calls if not kind & 1])

    def _replicated(self, keys: np.ndarray):
        """The positions of ``keys`` the plan replicates; ``None`` without
        any."""
        plan = self.ps.plan
        if not plan.num_replicated:
            return None
        replicated = plan.replicated_mask(keys)
        return replicated if replicated.any() else None

    def _charge_run(self, worker: WorkerContext, keys: np.ndarray,
                    calls) -> None:
        """Charge a run of the chunk's calls over the positions they cover
        (past them, samples may still be to select)."""
        first = min(lo for _, lo, _, _ in calls)
        part = keys[first:max(hi for _, _, hi, _ in calls)]
        self._charge(worker, part, [(kind, lo - first, hi - first, compute)
                                    for kind, lo, hi, compute in calls],
                     self._replicated(part))

    def _locate(self, replicated: np.ndarray) -> None:
        """The positions of the replicated keys, their slots, and the
        positions and store rows of the others."""
        replica_at = np.flatnonzero(replicated)
        store_at = np.flatnonzero(~replicated)
        self.replica_positions = replica_at.tolist()
        self.replica_at = replica_at
        self.slots = self.ps.replica_manager.slots(self.keys[replica_at])
        self.store_positions = store_at.tolist()
        self.store_at = store_at
        self.store_rows = self.rows[store_at]

    def _route(self, lo: int, hi: int):
        """``keys[lo:hi]``'s replicated positions (relative to ``lo``) and
        slots, and its other positions and store rows; ``None`` without a
        replicated key. The last span's route is kept for the ``add`` that
        follows its ``read``."""
        positions = self.replica_positions
        if positions is None:
            return None
        last_lo, last_hi, route = self.last_route
        if lo == last_lo and hi == last_hi:
            return route
        first = bisect_left(positions, lo)
        last = bisect_left(positions, hi, first)
        if first == last:
            route = None
        else:
            others = self.store_positions
            begin = bisect_left(others, lo)
            end = bisect_left(others, hi, begin)
            route = (self.replica_at[first:last] - lo, self.slots[first:last],
                     self.store_at[begin:end] - lo, self.store_rows[begin:end])
        self.last_route = (lo, hi, route)
        return route

    def read(self, lo: int, hi: int) -> np.ndarray:
        values = super().read(lo, hi)
        route = self._route(lo, hi)
        if route is not None:
            # The store's rows of replicated keys lag behind the replica by
            # the unsynchronized updates; the node reads its replica.
            values[route[0]] = self.ps.replica_manager.read_slots(
                self.node_id, route[1]
            )
        return values

    def add(self, lo: int, hi: int, deltas: np.ndarray) -> None:
        route = self._route(lo, hi)
        if route is None:
            super().add(lo, hi, deltas)
            return
        _, deltas = self.ps._validate_push(self.keys[lo:hi], deltas)
        replica_positions, slots, store_positions, store_rows = route
        if len(store_rows):
            self._add_rows(store_rows, store_rows.tolist(),
                           deltas.take(store_positions, axis=0))
        self.ps.replica_manager.add_slots(
            self.node_id, slots, deltas.take(replica_positions, axis=0)
        )


NuPS._charger = _NuPSPointCharger
