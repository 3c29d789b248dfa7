"""The one object between a scenario run's workers and its parameter server.

A scenario may need two things between the training workers and the PS, and
:class:`ScenarioParameterServer` does both, in one fixed order — translate
outside, gate inside:

* **Key translation** (hot-set drift). With a
  :class:`~repro.scenarios.remap.KeyRemapper`, every key-carrying call is
  translated from the workload's logical keys to physical PS keys
  (range-checked: logical keys come from the workload), and sampling
  distributions are registered in physical key space
  (:class:`~repro.scenarios.remap.RemappedDistribution`), so a handle's
  sample keys are physical already and ``pull_sample`` hands them back
  logical.
* **Gates** on the physical keys, for statically partitioned architectures
  under crash faults and for every architecture under network partitions:

  - *Dead-owner gate.* Classic and SSP/ESSP resolve owners through the
    ownership map and would happily read a key whose new owner has not
    received its state yet (relocation servers wait natively on per-key
    arrival times). An access touching keys whose ownership moved in a
    still-unfinished recovery retries with exponential backoff; if the
    retry budget cannot bridge the remaining recovery time, it fails with
    :class:`~repro.faults.errors.DeadOwnerError`, which the epoch loop turns
    into one dropped chunk.
  - *Partition rule* (:class:`~repro.elastic.partition_state.PartitionState`).
    Minority-side pulls and pushes degrade to bounded-staleness reads and
    buffered writes; majority-side accesses to unreachable owners raise
    :class:`~repro.faults.errors.PartitionedOwnerError` for the epoch loop to
    defer (admission control), never to drop.

  Both gates see the sampling primitives too: ``pull_sample`` gates the
  handle's next ``count`` pending keys before the inner PS delivers them,
  and ``push_sample`` passes the gates like ``push``. Minority-side sample
  pulls are not served from the partition snapshot: pull-time schemes
  choose keys and do bookkeeping inside the inner PS.

The gates act only while a partition is live or a node the gate watches is
down (:meth:`ScenarioParameterServer.degraded`). Both change in scenario
hooks, between rounds, so the question is settled once per round: the runner
runs degraded rounds call by call through the gates (the tasks' chunk step
over a :class:`~repro.ps.rounds.PerCallCharger`), and every other round
replays its charging through the inner PS's own point charger, with a
chunk's keys translated once. A run through the interposer with no fired
perturbation is bit-identical to one without it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults.errors import DeadOwnerError, PartitionedOwnerError
from repro.ps.base import PullResult, SampleHandle
from repro.scenarios.remap import KeyRemapper, RemappedDistribution
from repro.simulation.cluster import WorkerContext

__all__ = ["ScenarioParameterServer"]

#: Retry budget of an access that hits a dead owner before it fails with a
#: :class:`~repro.faults.errors.DeadOwnerError`.
MAX_RETRIES = 3
#: Initial retry delay of the dead-owner gate; doubles on every attempt.
RETRY_BACKOFF = 0.001


class _RemappedPointCharger:
    """A point charger that takes a chunk's keys in logical key space.

    The chunk's keys translate once, range-checked, and the inner charger
    does everything else; ``take_samples``/``read``/``add``/``finish`` are
    the inner charger's own, since sample keys are physical already (a
    prepared handle's, and those NuPS's charger selects at pull time) and
    the rest address the chunk by position.
    """

    __slots__ = ("_inner", "_remapper", "take_samples", "read", "add",
                 "finish")

    def __init__(self, inner, remapper: KeyRemapper) -> None:
        self._inner = inner
        self._remapper = remapper
        self.take_samples = inner.take_samples
        self.read, self.add, self.finish = inner.read, inner.add, inner.finish

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        # Only the keys of direct calls are logical: a handle's sample keys
        # are physical already (``RemappedDistribution.sample`` translates
        # them) or still to be selected, in physical key space.
        sampled = [(lo, hi) for kind, lo, hi, _ in calls if kind & 1]
        if sampled:
            direct = np.ones(len(keys), dtype=bool)
            for lo, hi in sampled:
                direct[lo:hi] = False
            physical = np.array(keys, dtype=np.int64)
            physical[direct] = self._remapper.to_physical(physical[direct])
        else:
            physical = self._remapper.to_physical(keys)
        self._inner.charge_chunk(worker, physical, calls)


class ScenarioParameterServer:
    """A parameter server's API as a scenario run's workers see it.

    Every key-carrying call translates its keys to physical ones (when a
    ``remapper`` is set), applies the partition rule (when ``partition`` is
    set), applies the dead-owner gate (when ``controller`` is set) and
    delegates; every other attribute is the inner PS's own. ``controller``
    and ``partition`` are attached by the
    :class:`~repro.scenarios.base.ScenarioRuntime`.
    """

    def __init__(self, inner, remapper: Optional[KeyRemapper] = None) -> None:
        self.inner = inner
        self.remapper = remapper
        #: The :class:`~repro.faults.controller.MembershipController` whose
        #: down nodes the dead-owner gate watches, or None.
        self.controller = None
        #: The live :class:`~repro.elastic.partition_state.PartitionState`,
        #: or None.
        self.partition = None

    def __getattr__(self, attribute):
        return getattr(self.inner, attribute)

    def degraded(self) -> bool:
        """Whether a gate can fire: a partition is live or a watched node is
        down. The epoch loop runs such a round call by call, expecting
        ``DeadOwnerError`` and ``PartitionedOwnerError``."""
        controller = self.controller
        return self.partition is not None \
            or (controller is not None and bool(controller.down))

    # -------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id=None):
        """The inner PS's charger, or ``None`` while :meth:`degraded`.

        With no gate able to fire a gated access *is* the inner access, so
        the round replays its charging through the inner PS's own charger;
        the bijection changes only in ``apply_drift`` (an epoch or round
        hook), so a chunk's logical keys translate once
        (:class:`_RemappedPointCharger`). ``None`` — here or from the inner
        PS (an access-level tracer, the postponing scheme) — keeps every
        access on the per-call path through this object.
        """
        if self.degraded():
            return None
        inner = self.inner.direct_point_charger(distribution_id)
        if inner is None or self.remapper is None:
            return inner
        return _RemappedPointCharger(inner, self.remapper)

    # ------------------------------------------------------------ direct API
    def pull(self, worker: WorkerContext, keys) -> np.ndarray:
        keys = self._physical(keys)
        partition = self.partition
        if partition is not None and partition.is_minority(worker.node_id):
            return partition.degraded_pull(worker, keys)
        self._gate(worker, keys)
        return self.inner.pull(worker, keys)

    def push(self, worker: WorkerContext, keys, deltas) -> None:
        self._write(self.inner.push, worker, keys, deltas)

    def localize(self, worker: WorkerContext, keys) -> None:
        keys = self._physical(keys)
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
        self.inner.localize(worker, keys)

    def advance_clock(self, worker: WorkerContext) -> None:
        partition = self.partition
        if partition is not None and partition.is_minority(worker.node_id):
            # A minority worker's clock tick must not trigger the inner PS's
            # buffered-update flush (it would cross the partition).
            return
        self.inner.advance_clock(worker)

    # ---------------------------------------------------------- sampling API
    def register_distribution(self, distribution, level=None) -> int:
        if self.remapper is not None:
            distribution = RemappedDistribution(distribution, self.remapper)
        if level is None:
            return self.inner.register_distribution(distribution)
        return self.inner.register_distribution(distribution, level)

    def pull_sample(self, worker: WorkerContext, handle: SampleHandle,
                    count=None) -> PullResult:
        if self.degraded():
            # The keys this call delivers: the handle's next pending ones.
            pending = handle.peek(
                handle.remaining if count is None else int(count))
            partition = self.partition
            if partition is not None and partition.is_minority(worker.node_id):
                # Not served from the snapshot: the inner PS delivers.
                self._dead_owner_gate(worker, pending)
            else:
                self._gate(worker, pending)
        result = self.inner.pull_sample(worker, handle, count)
        if self.remapper is None:
            return result
        return PullResult(
            keys=self.remapper.to_logical(result.keys), values=result.values
        )

    def push_sample(self, worker: WorkerContext, keys, deltas) -> None:
        self._write(self.inner.push_sample, worker, keys, deltas)

    # ------------------------------------------------------------------ gates
    def _physical(self, keys):
        return keys if self.remapper is None else self.remapper.to_physical(keys)

    def _write(self, write, worker: WorkerContext, keys, deltas) -> None:
        """``push``/``push_sample``: minority writes buffer, others pass the
        gates, and a majority write bumps its keys' version vectors."""
        keys = self._physical(keys)
        partition = self.partition
        if partition is not None and partition.is_minority(worker.node_id):
            partition.degraded_push(worker, keys, deltas)
            return
        self._gate(worker, keys)
        write(worker, keys, deltas)
        if partition is not None:
            partition.record_majority_writes(keys)

    def _gate(self, worker: WorkerContext, keys) -> None:
        """Both gates for a caller that is not on a partition's minority
        side."""
        if self.partition is not None:
            self._partition_block(worker, keys)
        self._dead_owner_gate(worker, keys)

    def _current_owners(self, keys) -> np.ndarray:
        """Current owner node of each key (dynamic for relocation servers)."""
        keys = np.asarray(keys, dtype=np.int64)
        current_owner = getattr(self.inner, "current_owner", None)
        if current_owner is not None:
            return current_owner.take(keys)
        return self.inner.partitioner.owners(keys)

    def _partition_block(self, worker: WorkerContext, keys) -> None:
        """Raise when a majority-side access crosses the active partition."""
        owners = self._current_owners(keys)
        unreachable = self.partition.unreachable_owners(worker.node_id, owners)
        if unreachable.any():
            blocked = sorted(
                int(o) for o in np.unique(np.asarray(owners)[unreachable])
            )
            self.metrics.increment("elastic.partition_rejections", 1)
            raise PartitionedOwnerError(
                f"worker ({worker.node_id}, {worker.worker_id}) on the "
                f"majority side addressed keys owned by unreachable node(s) "
                f"{blocked} across an active network partition; the access "
                "is deferred until the partition heals"
            )

    def _dead_owner_gate(self, worker: WorkerContext, keys) -> None:
        """Block, retry, or fail an access touching keys in mid-recovery."""
        controller = self.controller
        if controller is None or not controller.down:
            return
        clock = worker.clock
        for node_id in sorted(controller.down):
            available_at = controller.down[node_id]
            if available_at <= clock.now:
                continue
            moved = controller.moved_mask(node_id)
            if moved is None:
                continue
            if not np.any(moved[np.asarray(keys, dtype=np.int64)]):
                continue
            # Exponential backoff: delays b, 2b, 4b, ... for MAX_RETRIES
            # attempts sum to b * (2^r - 1).
            budget = RETRY_BACKOFF * (2 ** MAX_RETRIES - 1)
            if clock.now + budget >= available_at:
                retries = 0
                delay = RETRY_BACKOFF
                while clock.now < available_at and retries < MAX_RETRIES:
                    clock.advance(delay)
                    delay *= 2.0
                    retries += 1
                clock.advance_to(available_at)
                self.metrics.increment("faults.retries", retries)
            else:
                clock.advance(budget)
                self.metrics.increment("faults.timeouts", 1)
                raise DeadOwnerError(
                    f"worker ({worker.node_id}, {worker.worker_id}) gave up "
                    f"after {MAX_RETRIES} retries: owner of requested "
                    f"keys (crashed node {node_id}) recovers at "
                    f"t={available_at:.6f}, beyond the retry budget"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScenarioParameterServer({self.inner!r})"
