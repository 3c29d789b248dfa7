"""Elastic membership and partition tolerance.

This package turns the fixed-size simulated cluster into an elastic one:

* :mod:`repro.elastic.controller` — the :class:`ElasticityController`
  orchestrates planned scale-out/scale-in transitions: membership epochs,
  state drains, key migration, and the network/background-clock charges the
  transfer incurs.
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

from repro.elastic.controller import ElasticConfig, ElasticityController
from repro.elastic.partition_state import PartitionState
from repro.elastic.perturbations import (
    AutoscaleStorm,
    NetworkPartition,
    ScaleIn,
    ScaleOut,
)

__all__ = [
    "AutoscaleStorm",
    "ElasticConfig",
    "ElasticityController",
    "NetworkPartition",
    "PartitionState",
    "ScaleIn",
    "ScaleOut",
]
