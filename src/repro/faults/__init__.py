"""Fault recovery for the simulated parameter-server cluster.

The paper evaluates parameter management on healthy clusters only; this
package holds the recovery side of crashes, which the scenario engine's
:class:`~repro.scenarios.perturbations.ServerCrashes` injects:

* the membership controller
  (:class:`~repro.faults.controller.MembershipController`), which runs every
  crash, restore, join and planned leave on one departure and one arrival
  step: replica repair, owner failover by rewriting the ownership map
  (``OwnershipMap.fail``) and the state-transfer charges;
* periodic consistent checkpoints
  (:class:`~repro.faults.checkpoint.CheckpointManager`);
* the errors of the scenario interposer's dead-owner and partition gates
  (:mod:`repro.faults.errors`), which give architectures without native
  waiting retry-with-backoff semantics.

``benchmarks/bench_faults.py`` sweeps crash count x recovery mechanism x
architecture. Fault-off runs are bit-identical to a build without this
package: no controller, gate or failed node exists unless a perturbation
asks for one.
"""

from repro.faults.checkpoint import CheckpointManager
from repro.faults.controller import FaultConfig, MembershipController
from repro.faults.errors import DeadOwnerError, PartitionedOwnerError

__all__ = [
    "CheckpointManager",
    "DeadOwnerError",
    "FaultConfig",
    "MembershipController",
    "PartitionedOwnerError",
]
