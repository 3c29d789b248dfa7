"""Partition tolerance for the elastic cluster.

:class:`~repro.elastic.partition_state.PartitionState` models an active
network partition: bounded-staleness minority reads, buffered minority
writes replayed at heal, and per-key version vectors that detect split-brain
write divergence. Joins and planned leaves run on the membership controller
(:class:`~repro.faults.controller.MembershipController`); the perturbations
that drive both live in :mod:`repro.scenarios.perturbations`.

Elasticity-off runs are bit-identical to a build without this package: the
cluster's ``removed`` set stays empty, the ownership map keeps answering
from the range formula, and no gate is installed unless a perturbation asks
for one.
"""

from repro.elastic.partition_state import PartitionState

__all__ = ["PartitionState"]
