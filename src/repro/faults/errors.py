"""Errors raised by the fault-tolerance and elasticity subsystems."""

from __future__ import annotations

__all__ = ["DeadOwnerError", "PartitionedOwnerError"]


class DeadOwnerError(RuntimeError):
    """An access exhausted its retries against a crashed parameter owner.

    Raised by the dead-owner gate of
    :class:`~repro.scenarios.interposer.ScenarioParameterServer` when an
    access targets keys whose (pre-failover) owner is down and the
    bounded retry-with-backoff budget cannot bridge the remaining recovery
    time. The epoch loop catches it and drops the affected chunk — one
    round of lost work, not a crashed experiment.
    """


class PartitionedOwnerError(RuntimeError):
    """An access crossed an active network partition and cannot be served.

    Raised by the partition guard when a worker on one side of a
    :class:`~repro.elastic.perturbations.NetworkPartition` addresses keys
    owned by the other side and no graceful-degradation path applies (the
    majority side has no stale replica discipline for minority-owned keys).
    Deliberately *not* a :class:`DeadOwnerError`: the epoch loop defers the
    chunk and retries it after the heal (admission control / backpressure)
    instead of dropping it.
    """
