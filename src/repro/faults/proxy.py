"""Retry-with-backoff semantics for architectures without native waiting.

Relocation-based parameter servers track per-key arrival times, so an access
to a key still in flight after a failover simply *waits* — crash recovery
falls out of the existing machinery. Statically partitioned architectures
(Classic, SSP/ESSP replication) have no such notion: their accesses resolve
owners through the ownership map and would happily read a key whose new owner
has not received its state yet. The
:class:`FaultTolerantParameterServer` proxy closes that gap: every pull and
push first passes a gate that checks whether any requested key's ownership
moved in a still-unfinished recovery. If so, the worker retries with
exponential backoff; if the retry budget cannot bridge the remaining
recovery time, the access fails with a
:class:`~repro.faults.errors.DeadOwnerError` that the epoch loop turns into
one dropped chunk.

The proxy is membership-epoch-aware: an access routed at a *removed* (not
merely crashed) owner fails fast with a
:class:`~repro.faults.errors.RemovedOwnerError` instead of burning the whole
backoff budget — a removed node never recovers, so retrying is pointless.
It also hosts the network-partition guard
(:class:`~repro.elastic.partition_state.PartitionState`): while a partition
is active, minority-side accesses degrade to bounded-staleness reads and
buffered writes, and majority-side accesses to unreachable owners raise
:class:`~repro.faults.errors.PartitionedOwnerError` for the epoch loop to
defer (admission control), never to drop.

The retry schedule is explicitly seeded: with ``FaultConfig.retry_jitter``
greater than zero, every retry delay is stretched by a deterministic
pseudo-random factor drawn from a generator derived from
``FaultConfig.retry_seed``. At the default ``retry_jitter = 0.0`` the
generator is never consumed and the schedule is the exact deterministic
doubling it always was.

The proxy is only installed when a fault or partition perturbation is
active, and its gates return immediately while no node is down and no
partition is live — a fault-free run through the proxy is bit-identical to
one without it. That also settles how rounds run behind it: partitions,
crashes and removals happen in scenario hooks, between rounds, so
:meth:`FaultTolerantParameterServer.direct_point_charger` decides once per
round — the inner PS's own charger while no gate can fire, the gated
per-call path otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import DeadOwnerError, RemovedOwnerError
from repro.simulation.cluster import WorkerContext

__all__ = ["FaultTolerantParameterServer"]


class FaultTolerantParameterServer:
    """Wraps a parameter server with dead-owner retry/timeout semantics."""

    def __init__(self, inner) -> None:
        self._inner = inner
        #: Attached lazily by ``ScenarioRuntime.ensure_fault_controller``.
        self.controller = None
        #: Active :class:`~repro.elastic.partition_state.PartitionState`, or
        #: None. Attached by ``ScenarioRuntime.begin_partition``.
        self.partition = None
        #: Membership epoch the proxy was built against (diagnostics).
        self.membership_epoch = inner.cluster.membership_epoch
        self._retry_rng = None

    # ----------------------------------------------------------- delegation
    @property
    def inner(self):
        return self._inner

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    # -------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id=None):
        """The inner PS's charger while no gate can fire, else ``None``.

        The gates of :meth:`pull`/:meth:`push` act only while a partition is
        live, a node is down or the cluster has removed members. All three
        change in scenario hooks, between rounds, so the question is settled
        once per round: with none of them set a gated access *is* the inner
        access, and the round may replay its charging through the inner PS's
        own charger at no per-chunk cost. Otherwise ``None`` keeps every
        access on the gated per-call path (the runner already runs rounds
        with a node down or a partition live item by item).
        """
        controller = self.controller
        if (self.partition is not None or self._inner.cluster.removed
                or (controller is not None and controller.down)):
            return None
        return self._inner.direct_point_charger(distribution_id)

    # ------------------------------------------------------------------ gates
    def _current_owners(self, keys) -> np.ndarray:
        """Current owner node of each key (dynamic for relocation servers)."""
        keys = np.asarray(keys, dtype=np.int64)
        current_owner = getattr(self._inner, "current_owner", None)
        if current_owner is not None:
            return current_owner.take(keys)
        return self._inner.partitioner.owners(keys)

    def _removed_owner_gate(self, worker: WorkerContext, keys) -> None:
        """Fail fast on accesses routed at owners that left the cluster."""
        cluster = self._inner.cluster
        if not cluster.removed:
            return
        owners = set(int(o) for o in np.unique(self._current_owners(keys)))
        stale = sorted(owners & cluster.removed)
        if stale:
            self.metrics.increment("elastic.removed_owner_errors", 1,
                                   node=worker.node_id)
            raise RemovedOwnerError(
                f"worker ({worker.node_id}, {worker.worker_id}) addressed "
                f"keys owned by removed node(s) {stale}: routing is stale "
                f"(cluster is at membership epoch "
                f"{cluster.membership_epoch}, proxy was built at epoch "
                f"{self.membership_epoch}); removed owners never recover, "
                "so there is no point retrying — re-partition the key space"
            )

    def _partition_block(self, worker: WorkerContext, keys) -> None:
        """Raise when a majority-side access crosses the active partition."""
        partition = self.partition
        from repro.faults.errors import PartitionedOwnerError

        owners = self._current_owners(keys)
        unreachable = partition.unreachable_owners(worker.node_id, owners)
        if unreachable.any():
            blocked = sorted(
                int(o) for o in np.unique(np.asarray(owners)[unreachable])
            )
            self.metrics.increment("elastic.partition_rejections", 1,
                                   node=worker.node_id)
            raise PartitionedOwnerError(
                f"worker ({worker.node_id}, {worker.worker_id}) on the "
                f"majority side addressed keys owned by unreachable node(s) "
                f"{blocked} across an active network partition; the access "
                "is deferred until the partition heals"
            )

    def _retry_delay_factor(self) -> float:
        """Deterministic jitter factor for one retry delay (1.0 unjittered)."""
        config = self.controller.config
        jitter = getattr(config, "retry_jitter", 0.0)
        if jitter <= 0.0:
            return 1.0
        if self._retry_rng is None:
            seed = getattr(config, "retry_seed", 0)
            self._retry_rng = np.random.default_rng((seed + 1) * 7919)
        return 1.0 + jitter * float(self._retry_rng.random())

    def _gate(self, worker: WorkerContext, keys) -> None:
        """Block, retry, or fail an access touching keys in mid-recovery."""
        self._removed_owner_gate(worker, keys)
        controller = self.controller
        if controller is None or not controller.down:
            return
        clock = worker.clock
        config = controller.config
        for node_id in sorted(controller.down):
            available_at = controller.down[node_id]
            if available_at <= clock.now:
                continue
            moved = controller.moved_mask(node_id)
            if moved is None:
                continue
            if not np.any(moved[np.asarray(keys, dtype=np.int64)]):
                continue
            # Exponential backoff: delays b, 2b, 4b, ... for max_retries
            # attempts sum to b * (2^r - 1).
            budget = config.retry_backoff * (2 ** config.max_retries - 1)
            if clock.now + budget >= available_at:
                retries = 0
                delay = config.retry_backoff
                while clock.now < available_at and retries < config.max_retries:
                    clock.advance(delay * self._retry_delay_factor())
                    delay *= 2.0
                    retries += 1
                clock.advance_to(available_at)
                self.metrics.increment("faults.retries", retries)
            else:
                clock.advance(budget)
                self.metrics.increment("faults.timeouts", 1)
                raise DeadOwnerError(
                    f"worker ({worker.node_id}, {worker.worker_id}) gave up "
                    f"after {config.max_retries} retries: owner of requested "
                    f"keys (crashed node {node_id}) recovers at "
                    f"t={available_at:.6f}, beyond the retry budget"
                )

    # ------------------------------------------------------------ direct API
    def pull(self, worker: WorkerContext, keys) -> np.ndarray:
        partition = self.partition
        if partition is not None:
            if partition.is_minority(worker.node_id):
                return partition.degraded_pull(worker, keys)
            self._partition_block(worker, keys)
        self._gate(worker, keys)
        return self._inner.pull(worker, keys)

    def push(self, worker: WorkerContext, keys, deltas) -> None:
        partition = self.partition
        if partition is not None:
            if partition.is_minority(worker.node_id):
                partition.degraded_push(worker, keys, deltas)
                return
            self._partition_block(worker, keys)
            self._gate(worker, keys)
            self._inner.push(worker, keys, deltas)
            partition.record_majority_writes(keys)
            return
        self._gate(worker, keys)
        self._inner.push(worker, keys, deltas)

    def localize(self, worker: WorkerContext, keys) -> None:
        partition = self.partition
        if partition is not None:
            # Localization is a placement hint; it must not relocate state
            # across the partition. Minority hints drop entirely; majority
            # hints drop the unreachable subset.
            if partition.is_minority(worker.node_id):
                return
            keys = np.asarray(keys, dtype=np.int64)
            if len(keys):
                owners = self._current_owners(keys)
                keys = keys[~partition.unreachable_owners(worker.node_id,
                                                          owners)]
            if len(keys) == 0:
                return
        self._inner.localize(worker, keys)

    def advance_clock(self, worker: WorkerContext) -> None:
        partition = self.partition
        if partition is not None and partition.is_minority(worker.node_id):
            # A minority worker's clock tick must not trigger the inner PS's
            # buffered-update flush (it would cross the partition).
            return
        self._inner.advance_clock(worker)

    def push_sample(self, worker: WorkerContext, keys, deltas) -> None:
        partition = self.partition
        if partition is not None:
            if partition.is_minority(worker.node_id):
                partition.degraded_push(worker, keys, deltas)
                return
            self._partition_block(worker, keys)
            self._inner.push_sample(worker, keys, deltas)
            partition.record_majority_writes(keys)
            return
        self._inner.push_sample(worker, keys, deltas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultTolerantParameterServer({self._inner!r})"
