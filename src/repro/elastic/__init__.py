"""Elastic membership and partition tolerance.

This package turns the fixed-size simulated cluster into an elastic one:

* Planned scale-out and scale-in (membership epochs, state drains, key
  migration and the network/background-clock charges of the transfer) run
  on the membership controller
  (:class:`~repro.faults.controller.MembershipController`), the same
  departure and arrival steps as a crash and a restore.
* :mod:`repro.elastic.partition_state` — :class:`PartitionState` models an
  active network partition: bounded-staleness minority reads, buffered
  minority writes replayed at heal, and per-key version vectors that detect
  split-brain write divergence.
* :mod:`repro.elastic.perturbations` — scenario perturbations
  (:class:`ScaleOut`, :class:`ScaleIn`, :class:`AutoscaleStorm`,
  :class:`NetworkPartition`) driving both through the scenario engine.

Elasticity-off runs are bit-identical to a build without this package: the
cluster's ``removed`` set stays empty, the ownership map keeps answering
from the range formula, and no gate is installed unless a perturbation asks
for one.
"""

from repro.elastic.partition_state import PartitionState
from repro.elastic.perturbations import (
    AutoscaleStorm,
    NetworkPartition,
    ScaleIn,
    ScaleOut,
)

__all__ = [
    "AutoscaleStorm",
    "NetworkPartition",
    "PartitionState",
    "ScaleIn",
    "ScaleOut",
]
