"""Fault injection and recovery for the simulated parameter-server cluster.

The paper evaluates parameter management on healthy clusters only; this
subsystem closes that gap with three layers that compose with every PS
architecture and the scenario engine:

* **Failure modes** — server crash/restart (:class:`ServerCrashes`,
  :class:`~repro.faults.perturbations.WorkerKill`) injected from seeded
  schedules via the cluster's ``fail_node``/``restore_node`` hooks, and
  message loss/duplication/timeout via
  :class:`~repro.faults.network.FaultyNetworkModel`.
* **Recovery mechanisms** — the membership controller
  (:class:`~repro.faults.controller.MembershipController`, which runs every
  crash, restore, join and planned leave on one departure and one arrival
  step), periodic consistent checkpoints
  (:class:`~repro.faults.checkpoint.CheckpointManager`), owner failover by
  rewriting the ownership map (``OwnershipMap.fail``), replica repair, and
  retry-with-backoff semantics for architectures without native waiting
  (the dead-owner gate of
  :class:`~repro.scenarios.interposer.ScenarioParameterServer`, which raises
  this package's errors).
* **Measurement** — ``benchmarks/bench_faults.py`` sweeps crash count x
  recovery mechanism x architecture and registers recovery-time, lost-work
  and quality-under-failure claims.

Fault-off runs are bit-identical to a build without this package: all hooks
default to empty state (an empty failed set, no gate, no controller), so no
clock, metric or value ever moves unless a fault perturbation is active.
"""

from repro.faults.checkpoint import CheckpointManager
from repro.faults.controller import FaultConfig, MembershipController
from repro.faults.errors import DeadOwnerError, PartitionedOwnerError
from repro.faults.network import FaultyNetworkModel
from repro.faults.perturbations import LossyNetwork, ServerCrashes, WorkerKill

__all__ = [
    "CheckpointManager",
    "DeadOwnerError",
    "FaultConfig",
    "FaultyNetworkModel",
    "LossyNetwork",
    "MembershipController",
    "PartitionedOwnerError",
    "ServerCrashes",
    "WorkerKill",
]
