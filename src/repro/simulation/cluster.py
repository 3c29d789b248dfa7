"""Simulated cluster: nodes, workers, and their clocks.

The cluster object ties together the network cost model, the metrics registry
and the per-worker simulated clocks. Parameter servers receive a
:class:`WorkerContext` on every API call; the context identifies the calling
worker and exposes its clock so that the PS can charge access costs to the
right place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.simulation.clock import SimulatedClock
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.network import NetworkModel


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    The defaults mirror the paper's main setting: 8 nodes with 8 worker
    threads each (Section 5.1), scaled-down workloads notwithstanding.
    """

    num_nodes: int = 8
    workers_per_node: int = 8
    network: NetworkModel = field(default_factory=NetworkModel)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(
                f"num_nodes must be >= 1 (got {self.num_nodes}); a cluster "
                "needs at least one node (use num_nodes=1 for the "
                "shared-memory single-node setting)"
            )
        if self.workers_per_node < 1:
            raise ValueError(
                f"workers_per_node must be >= 1 (got {self.workers_per_node}); "
                "each node runs at least one worker thread"
            )


class Node:
    """A cluster node: holds worker clocks and a background-thread clock."""

    def __init__(self, node_id: int, workers_per_node: int) -> None:
        self.node_id = node_id
        self.worker_clocks: List[SimulatedClock] = [
            SimulatedClock() for _ in range(workers_per_node)
        ]
        # Clock of the node's background thread (replica sync, pool prep,
        # asynchronous relocations issued by this node).
        self.background_clock = SimulatedClock()
        # Accumulated busy time of the node's *server* thread, which processes
        # incoming remote requests from other nodes. When hot keys
        # concentrate requests on one server, its busy time exceeds the
        # workers' compute time and becomes the epoch's bottleneck — the
        # reason a classic PS collapses under skew.
        self.server_clock = SimulatedClock()

    @property
    def time(self) -> float:
        """Node time: the furthest-ahead activity on this node.

        Includes the server thread's accumulated busy time: an epoch is not
        over until every queued remote request has been served.
        """
        worker_max = max(clock.now for clock in self.worker_clocks)
        return max(worker_max, self.background_clock.now, self.server_clock.now)


@dataclass
class WorkerContext:
    """Identity and clock of the worker issuing a parameter-server call."""

    node_id: int
    worker_id: int
    clock: SimulatedClock
    #: Compute-speed multiplier of this worker: 1.0 is the nominal speed, a
    #: straggler with ``compute_scale=3.0`` needs three times as long for the
    #: same computation. Parameter-access costs are unaffected (they are paid
    #: to the network, not to the worker's CPU). Scenario perturbations set
    #: this; at the default of 1.0 ``charge_compute`` is bit-identical to
    #: advancing the clock by the raw cost.
    compute_scale: float = 1.0

    @property
    def global_worker_id(self) -> Tuple[int, int]:
        return (self.node_id, self.worker_id)

    def charge_compute(self, seconds: float) -> None:
        """Charge ``seconds`` of computation, scaled by the worker's speed."""
        self.clock.advance(seconds * self.compute_scale)


class Cluster:
    """The simulated cluster shared by a parameter server and its workers."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.network = self.config.network
        self.metrics = MetricsRegistry()
        self.nodes: List[Node] = [
            Node(node_id, self.config.workers_per_node)
            for node_id in range(self.config.num_nodes)
        ]
        self._worker_contexts: Dict[Tuple[int, int], WorkerContext] = {}
        for node in self.nodes:
            for worker_id, clock in enumerate(node.worker_clocks):
                self._worker_contexts[(node.node_id, worker_id)] = WorkerContext(
                    node_id=node.node_id, worker_id=worker_id, clock=clock
                )
        #: Node ids whose server shard is currently unreachable (crashed).
        #: Empty in fault-free runs, so every ``in self.failed`` check on the
        #: hot paths stays a constant-time miss and fault-off simulations are
        #: bit-identical to a build without the fault subsystem.
        self.failed: set[int] = set()
        #: Node ids removed by a planned scale-in. Unlike crashed nodes they
        #: never rejoin (a re-join is :meth:`add_node` with a fresh id); their
        #: clocks freeze at removal time. Empty in elasticity-off runs.
        self.removed: set[int] = set()
        #: Monotone counter bumped by every :meth:`add_node` /
        #: :meth:`remove_node` (reported by the membership controller and
        #: in removal errors).
        self.membership_epoch: int = 0
        #: Optional :class:`~repro.obs.Tracer`. ``None`` — the default —
        #: means telemetry is off; the runner installs a tracer here before
        #: building the parameter server, and every subsystem reads it from
        #: the cluster (guarding each record with ``if tracer is not None``
        #: so the off path stays bit-identical to an uninstrumented build).
        self.tracer = None

    # ------------------------------------------------------------- accessors
    @property
    def num_nodes(self) -> int:
        """Number of node slots ever allocated (including removed nodes)."""
        return len(self.nodes)

    @property
    def workers_per_node(self) -> int:
        return self.config.workers_per_node

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def worker(self, node_id: int, worker_id: int) -> WorkerContext:
        """The :class:`WorkerContext` for worker ``worker_id`` on ``node_id``."""
        return self._worker_contexts[(node_id, worker_id)]

    def workers(self) -> Iterator[WorkerContext]:
        """All worker contexts, ordered by (node, worker)."""
        for node in self.nodes:
            for worker_id in range(self.config.workers_per_node):
                yield self._worker_contexts[(node.node_id, worker_id)]

    # ------------------------------------------------------------------ time
    @property
    def time(self) -> float:
        """Cluster time: the maximum time reached by any node."""
        return max(node.time for node in self.nodes)

    # ---------------------------------------------------------------- faults
    def fail_node(self, node_id: int) -> None:
        """Mark ``node_id``'s server shard as crashed (unreachable).

        Idempotent: failing an already-failed node is a no-op (it must not
        count against the last-survivor guard a second time). The node's
        clocks keep their values: a crash does not rewind simulated time.
        Recovery mechanics (failover, checkpoint restore) live in
        :mod:`repro.faults`; this hook only tracks liveness.
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        if node_id in self.failed:
            return
        if node_id in self.removed:
            raise ValueError(
                f"node {node_id} was removed from the cluster (membership "
                f"epoch {self.membership_epoch}) and cannot crash; removed "
                "nodes hold no state"
            )
        if len(self.active_nodes) <= 1:
            raise ValueError(
                "cannot fail the last surviving node: at least one node must "
                "stay alive to take over the failed shard"
            )
        self.failed.add(node_id)

    def restore_node(self, node_id: int, now: float | None = None) -> None:
        """Bring a crashed node back, advancing its clocks to ``now``.

        Restoring a node that is not failed is a no-op (in particular its
        clocks do not move). A restarting node rejoins at the current
        simulated time (its clocks never move backwards): ``advance_to``
        leaves any clock that is already past ``now`` untouched.
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        if node_id in self.removed:
            raise ValueError(
                f"node {node_id} was removed from the cluster (membership "
                f"epoch {self.membership_epoch}); removed nodes never "
                "rejoin — scale out with add_node instead"
            )
        if node_id not in self.failed:
            return
        self.failed.discard(node_id)
        if now is not None:
            node = self.nodes[node_id]
            for clock in node.worker_clocks:
                clock.advance_to(now)
            node.background_clock.advance_to(now)
            node.server_clock.advance_to(now)

    @property
    def active_nodes(self) -> List[int]:
        """Ids of nodes whose shard is currently reachable, in order."""
        if not self.failed and not self.removed:
            return list(range(self.num_nodes))
        return [n for n in range(self.num_nodes)
                if n not in self.failed and n not in self.removed]

    # ------------------------------------------------------------ membership
    def add_node(self, now: float | None = None) -> int:
        """Join a fresh node to the cluster; returns its node id.

        The new node starts with ``workers_per_node`` workers whose clocks
        (and the background/server clocks) are advanced to ``now`` — a node
        joining mid-run does not start at simulated time zero. Bumps the
        membership epoch. Rebalancing ownership and state is the membership
        controller's job (see
        :meth:`~repro.faults.controller.MembershipController.scale_out`);
        the cluster only tracks membership.
        """
        node_id = len(self.nodes)
        node = Node(node_id, self.config.workers_per_node)
        if now is not None:
            for clock in node.worker_clocks:
                clock.advance_to(now)
            node.background_clock.advance_to(now)
            node.server_clock.advance_to(now)
        self.nodes.append(node)
        for worker_id, clock in enumerate(node.worker_clocks):
            self._worker_contexts[(node_id, worker_id)] = WorkerContext(
                node_id=node_id, worker_id=worker_id, clock=clock
            )
        self.membership_epoch += 1
        self.metrics.increment("elastic.nodes_added", 1)
        if self.tracer is not None:
            self.tracer.event(
                "node_added", "membership", now, node=node_id,
                membership_epoch=self.membership_epoch,
            )
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Remove ``node_id`` permanently (planned scale-in).

        Idempotent. The caller must have drained the node's state first
        (see :class:`~repro.faults.controller.MembershipController`); the
        cluster only tracks membership. A crashed node cannot be removed —
        restore it (or let the membership controller finish recovery) first, so
        that drain semantics (zero lost updates) hold.
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        if node_id in self.removed:
            return
        if node_id in self.failed:
            raise ValueError(
                f"node {node_id} is crashed; a planned removal drains state "
                "first, which a crashed node cannot do — restore it before "
                "removing, or leave it to crash recovery"
            )
        if len(self.active_nodes) <= 1:
            raise ValueError(
                "cannot remove the last active node: at least one node must "
                "stay alive to receive the drained state"
            )
        self.removed.add(node_id)
        self.membership_epoch += 1
        self.metrics.increment("elastic.nodes_removed", 1)
        if self.tracer is not None:
            self.tracer.event(
                "node_removed", "membership", self.nodes[node_id].time,
                node=node_id, membership_epoch=self.membership_epoch,
            )

    # --------------------------------------------------------------- dynamics
    def set_network(self, network) -> None:
        """Install a new network cost model (time-varying network scenarios).

        Parameter servers cache per-access cost constants derived from the
        network model; after swapping the model, call
        :meth:`~repro.ps.base.ParameterServer.refresh_network` on every PS
        operating on this cluster so the cached constants follow.
        """
        self.network = network

    def set_compute_scale(self, node_id: int, worker_id: int, scale: float) -> None:
        """Set the compute-speed multiplier of one worker (1.0 = nominal)."""
        if scale <= 0:
            raise ValueError(f"compute_scale must be positive, got {scale}")
        self._worker_contexts[(node_id, worker_id)].compute_scale = float(scale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self.num_nodes}, workers_per_node="
            f"{self.workers_per_node}, time={self.time:.4f})"
        )
