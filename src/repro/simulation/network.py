"""Network cost model.

The simulated cluster charges every remote parameter-server operation a cost
derived from the number of messages and the number of bytes it moves over the
network. The model is deliberately simple — per-message latency plus
bytes / bandwidth — because the performance differences the paper reports
between parameter-server architectures are driven by message counts, message
sizes and access locality rather than by protocol details.

Costs are returned in seconds of simulated time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence, Tuple


#: Number of bytes used per parameter-vector element (float32 on the wire).
BYTES_PER_VALUE = 4

#: Number of bytes for a parameter key / small control header.
KEY_BYTES = 8


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth cost model for the simulated interconnect.

    Parameters
    ----------
    The defaults are calibrated for the *scaled-down* workloads shipped with
    this repository (embedding dimension ~8 instead of 500-1000, a few
    negative samples instead of hundreds). They keep the two ratios that
    drive the paper's results in a realistic regime: synchronous remote
    access is much more expensive than one SGD step's computation, and
    asynchronous relocation handling is much cheaper than computation. See
    README.md ("Benchmarks") for how the scaled-down workloads are used.

    latency:
        One-way per-message latency in seconds, including serialization and
        queueing at the endpoints. Latency is what a *synchronously blocking*
        worker pays.
    bandwidth:
        Usable point-to-point bandwidth in bytes per second. Scaled down
        together with the value sizes so that bulk communication (eager
        replica maintenance) is expensive relative to computation, as it is
        at the paper's scale.
    message_handling_cost:
        CPU time a communication thread spends per message (serialization and
        queue handling). This — not the wire latency — is what occupies the
        node's background communication thread when relocations and replica
        updates are processed asynchronously.
    local_access_cost:
        Cost of accessing a parameter through shared memory (one latch
        acquisition plus a copy). Orders of magnitude below ``latency``.
    compute_per_step:
        Pure computation cost of one SGD step, excluding parameter access.
        Charged by the workload driver, not by the network model, but kept
        here so that one object describes the full cost model of a node.
    """

    latency: float = 50e-6
    bandwidth: float = 100e6
    message_handling_cost: float = 0.8e-6
    local_access_cost: float = 0.5e-6
    compute_per_step: float = 150e-6

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.message_handling_cost < 0:
            raise ValueError("message_handling_cost must be non-negative")
        if self.local_access_cost < 0:
            raise ValueError("local_access_cost must be non-negative")
        if self.compute_per_step < 0:
            raise ValueError("compute_per_step must be non-negative")

    # ------------------------------------------------------------------ costs
    def transfer_cost(self, num_bytes: int) -> float:
        """Cost of pushing ``num_bytes`` through the link (no latency)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.bandwidth

    def message_cost(self, payload_bytes: int = 0) -> float:
        """Cost of one message carrying ``payload_bytes`` of payload."""
        return self.latency + self.transfer_cost(payload_bytes + KEY_BYTES)

    def remote_access_cost(self, value_bytes: int) -> float:
        """Cost of a classic remote pull/push for one key.

        Two messages: the request (key only) and the response carrying the
        value — or, for a push, the request carrying the value and a small
        acknowledgement. Either way one value crosses the wire and two
        latencies are paid, matching the paper's description of a classic PS
        access (Section 3.1.1).
        """
        return self.message_cost(0) + self.message_cost(value_bytes)

    def relocation_cost(self, value_bytes: int) -> float:
        """End-to-end duration of relocating one key to the requesting node.

        Lapse's relocation protocol takes three messages, with the parameter
        value crossing the wire once (Section 3.1.3): a request to the home
        node, a forward to the current owner, and the response carrying the
        value to the requester. This is also the cost of a *synchronous*
        routed remote access (request via home node, blocking the worker).
        """
        return 2 * self.message_cost(0) + self.message_cost(value_bytes)

    def relocation_occupancy(self, value_bytes: int) -> float:
        """Communication-thread busy time for one asynchronous relocation.

        An asynchronously issued relocation does not block a worker; the
        node's communication thread only pays per-message handling plus the
        value transfer. The difference between this and
        :meth:`relocation_cost` is what makes localize-ahead (asynchronous
        relocation) so much cheaper than synchronous remote access — the key
        mechanism behind Lapse and NuPS.
        """
        return (
            3 * self.message_handling_cost
            + self.transfer_cost(value_bytes + 3 * KEY_BYTES)
        )

    def server_occupancy(self, value_bytes: int) -> float:
        """Server-thread busy time for processing one remote access.

        The server handles the request and the response message and moves the
        value once. This occupancy is what saturates the server that owns hot
        keys in a classic PS: requests from all workers in the cluster funnel
        through it and queue up.
        """
        return 2 * self.message_handling_cost + self.transfer_cost(
            value_bytes + KEY_BYTES
        )

    def value_bytes(self, value_length: int) -> int:
        """Wire size of a parameter value of ``value_length`` elements."""
        if value_length < 0:
            raise ValueError("value_length must be non-negative")
        return value_length * BYTES_PER_VALUE

    # ------------------------------------------------------------- schedules
    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0,
               handling_factor: float = 1.0) -> "NetworkModel":
        """A degraded (or improved) copy of this model.

        ``latency_factor`` multiplies the per-message latency,
        ``bandwidth_factor`` multiplies the usable bandwidth (0.5 halves it),
        and ``handling_factor`` multiplies the per-message CPU handling cost.
        Shared-memory access and computation costs are unchanged — a degrading
        interconnect does not slow down local work, which is exactly why it
        shifts the balance between the PS architectures.
        """
        if latency_factor < 0:
            raise ValueError("latency_factor must be non-negative")
        if bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        if handling_factor < 0:
            raise ValueError("handling_factor must be non-negative")
        return dataclasses.replace(
            self,
            latency=self.latency * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
            message_handling_cost=self.message_handling_cost * handling_factor,
        )

    def allreduce_cost(self, payload_bytes: int, num_nodes: int) -> float:
        """Cost of a sparse all-reduce of ``payload_bytes`` across nodes.

        NuPS synchronizes replicas with a recursive-doubling all-reduce
        (Section 3.2): ``ceil(log2(n))`` rounds, each moving the (sparse)
        update payload once. For a single node the cost is zero.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if num_nodes == 1:
            return 0.0
        rounds = (num_nodes - 1).bit_length()
        return rounds * self.message_cost(payload_bytes)


@dataclass(frozen=True)
class NetworkStage:
    """One stage of a :class:`NetworkSchedule`: factors active from an epoch on."""

    from_epoch: int
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    handling_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.from_epoch < 0:
            raise ValueError("from_epoch must be non-negative")


class NetworkSchedule:
    """A piecewise-constant schedule of network conditions over epochs.

    Each stage names the epoch from which its latency/bandwidth factors apply
    (relative to the experiment's base :class:`NetworkModel`); the factors of
    the most recent stage at or before the queried epoch win. Epochs before
    the first stage use the unmodified base model. Used by the scenario
    engine's degrading-network perturbation.
    """

    def __init__(self, stages: Sequence[NetworkStage | Tuple]) -> None:
        normalized = []
        for stage in stages:
            if not isinstance(stage, NetworkStage):
                stage = NetworkStage(*stage)
            normalized.append(stage)
        self.stages = sorted(normalized, key=lambda s: s.from_epoch)

    @classmethod
    def degrading(cls, start_epoch: int, latency_growth: float,
                  bandwidth_decay: float, steps: int) -> "NetworkSchedule":
        """A steadily degrading interconnect: each step multiplies the latency
        by ``latency_growth`` and the bandwidth by ``bandwidth_decay``."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return cls([
            NetworkStage(
                from_epoch=start_epoch + step,
                latency_factor=latency_growth ** (step + 1),
                bandwidth_factor=bandwidth_decay ** (step + 1),
            )
            for step in range(steps)
        ])

    def stage_at(self, epoch: int) -> NetworkStage | None:
        """The stage active at ``epoch`` (None before the first stage)."""
        active = None
        for stage in self.stages:
            if stage.from_epoch <= epoch:
                active = stage
        return active

    def model_at(self, base: NetworkModel, epoch: int) -> NetworkModel:
        """The network model active at ``epoch``, derived from ``base``."""
        stage = self.stage_at(epoch)
        if stage is None:
            return base
        return base.scaled(
            latency_factor=stage.latency_factor,
            bandwidth_factor=stage.bandwidth_factor,
            handling_factor=stage.handling_factor,
        )
