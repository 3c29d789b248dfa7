"""The common parameter-server API.

All parameter servers in this repository — the baselines from Section 3.1 and
NuPS itself — implement :class:`ParameterServer`. The API mirrors the paper:

* ``pull(worker, keys)`` / ``push(worker, keys, deltas)`` — global reads and
  additive writes (direct access).
* ``localize(worker, keys)`` — the relocation hint of Lapse; a no-op for PSs
  that do not support relocation.
* ``advance_clock(worker)`` — the bounded-staleness clock of replication PSs;
  a no-op elsewhere.
* ``register_distribution`` / ``prepare_sample`` / ``pull_sample`` — the
  sampling API proposed in Section 4.3. The base class provides the fallback
  behaviour of *existing* PSs: the application-level scheme of drawing
  independent samples and accessing them via direct access. NuPS overrides
  these with its sampling manager.

Every call receives a :class:`~repro.simulation.cluster.WorkerContext`; the
PS charges the access cost to that worker's simulated clock and records the
access in the cluster's metrics registry.
"""

from __future__ import annotations

import itertools
from abc import ABC
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.simulation.cluster import Cluster, WorkerContext
from repro.ps.partition import OwnershipMap
from repro.ps.rounds import PULL, PUSH
from repro.ps.storage import ParameterStore


class PullResult(NamedTuple):
    """Result of ``pull_sample``: sampled keys and their current values."""

    keys: np.ndarray
    values: np.ndarray


class SampleHandle:
    """Handle returned by ``prepare_sample`` and consumed by ``pull_sample``.

    A handle owns the (not yet pulled) sample keys for one ``prepare_sample``
    invocation. Schemes may reorder or postpone keys inside the handle, but
    exactly ``total`` samples are delivered over its lifetime.

    The pending keys are stored as a NumPy array plus a cursor so that the
    common case — delivering the next ``count`` keys — is a single slice
    rather than a Python-level list mutation. Schemes that postpone samples
    append to a small overflow tail (:meth:`append_back`).
    """

    _ids = itertools.count()

    def __init__(self, distribution_id: int, keys: np.ndarray) -> None:
        self.handle_id = next(SampleHandle._ids)
        self.distribution_id = distribution_id
        self._keys = np.asarray(keys, dtype=np.int64)
        self._cursor = 0
        self._tail: list[int] = []
        self.total = len(self._keys)
        self.delivered = 0

    @classmethod
    def placeholder(cls, distribution_id: int, count: int) -> "SampleHandle":
        """A handle whose keys are decided lazily at pull time.

        Used by schemes (local sampling, direct-access repurposing) that
        resolve keys only when the samples are actually pulled; the handle
        carries no pending keys, only the delivery accounting.
        """
        handle = cls(distribution_id, np.empty(0, dtype=np.int64))
        handle.total = int(count)
        return handle

    @property
    def remaining(self) -> int:
        return self.total - self.delivered

    def take(self, count: int) -> np.ndarray:
        """Remove and return the next ``count`` pending keys, in order."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        end = self._cursor + count
        if end > len(self._keys) and self._tail:
            # Fold the overflow tail back into the array (rare: postponing).
            self._keys = np.concatenate([
                self._keys[self._cursor:],
                np.asarray(self._tail, dtype=np.int64),
            ])
            self._cursor = 0
            self._tail = []
            end = count
        keys = self._keys[self._cursor:end]
        self._cursor += len(keys)
        return keys

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` pending keys, in order, left pending."""
        keys = self._keys[self._cursor:self._cursor + max(count, 0)]
        if len(keys) < count and self._tail:
            keys = np.concatenate([
                keys, np.asarray(self._tail[:count - len(keys)], dtype=np.int64)
            ])
        return keys

    def pop_front(self) -> Optional[int]:
        """Remove and return the next pending key (None when exhausted)."""
        if self._cursor < len(self._keys):
            key = int(self._keys[self._cursor])
            self._cursor += 1
            return key
        if self._tail:
            return int(self._tail.pop(0))
        return None

    def append_back(self, key: int) -> None:
        """Move ``key`` to the end of the handle (used by postponing)."""
        self._tail.append(int(key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampleHandle(id={self.handle_id}, dist={self.distribution_id}, "
            f"remaining={self.remaining})"
        )


class ParameterServer(ABC):
    """Base class for all parameter servers in this repository."""

    #: Human-readable architecture name used in reports and benchmarks.
    name = "abstract"

    #: True for architectures whose access paths already block on in-flight
    #: ownership changes (the relocation family's wait-until-arrival
    #: machinery). Those handle dead-owner accesses natively and do not need
    #: the dead-owner gate of :mod:`repro.scenarios.interposer`.
    native_failover_wait = False

    #: Whether :meth:`localize` acts on its hint. Tasks skip building the
    #: hint (a sorted distinct key set per chunk) for PSs that ignore it.
    relocates = False

    #: The architecture's point charger class: its ``charge_chunk`` is the
    #: one access-charging fold, and every access call is a chunk of it.
    _charger = None

    def __init__(
        self,
        store: ParameterStore,
        cluster: Cluster,
        seed: int = 0,
    ) -> None:
        self.store = store
        self.cluster = cluster
        #: Key -> home node map. The membership controller rewrites it on
        #: every membership change; access paths read it live.
        self.partitioner = OwnershipMap(store.num_keys, cluster.num_nodes)
        self.metrics = cluster.metrics
        #: Optional telemetry tracer, installed on the cluster by the runner
        #: before the PS is built (None = telemetry off). Per-call paths
        #: record through :meth:`_trace_access`.
        self.tracer = cluster.tracer
        self.rng = np.random.default_rng(seed)
        self._distributions: Dict[int, object] = {}
        self._next_distribution_id = 0
        # Store geometry is fixed for the lifetime of a PS and the network
        # model only changes at explicit scenario boundaries, so the
        # per-access cost constants are computed once per network model. The
        # batch fast paths are called tens of thousands of times per simulated
        # epoch; recomputing these on every call shows up in profiles.
        self._cached_value_bytes = store.value_bytes()
        self.refresh_network()

    def refresh_network(self) -> None:
        """Re-derive cached per-access cost constants from the cluster's network.

        Called after :meth:`~repro.simulation.cluster.Cluster.set_network`
        swaps the cost model mid-experiment (time-varying network scenarios).
        Subclasses that cache additional constants extend this. Note that the
        base constructor invokes this override virtually before subclass
        ``__init__`` bodies run, so overrides must only depend on base-class
        attributes (``network``, ``_cached_value_bytes``) and module
        constants.
        """
        self.network = self.cluster.network
        self._local_access_cost = self.network.local_access_cost
        self._remote_access_cost = self.network.remote_access_cost(
            self._cached_value_bytes
        )
        self._server_occupancy = self.network.server_occupancy(
            self._cached_value_bytes
        )

    # ------------------------------------------------------------ direct API
    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Read the current values of ``keys`` (a working copy per the paper).

        One ``pull`` call is a one-call chunk of the architecture's point
        charger (:meth:`_call`): charged by its fold, values served by its
        ``read``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        return self._call(worker, keys, PULL).read(0, len(keys))

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        """Additively apply ``deltas`` to ``keys`` (a one-call chunk, like
        :meth:`pull`, written through the charger's ``add``)."""
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        self._call(worker, keys, PUSH).add(0, len(keys), deltas)

    def localize(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> None:
        """Hint that ``keys`` will soon be accessed at the worker's node.

        Only relocation-capable PSs act on this; the default is a no-op, which
        matches classic and replication PSs.
        """

    def advance_clock(self, worker: WorkerContext) -> None:
        """Advance the bounded-staleness clock of the calling worker.

        Only replication PSs act on this; the default is a no-op.
        """

    def housekeeping(self, now: float) -> None:
        """Run background work that is due at simulated time ``now``.

        The training driver calls this periodically; NuPS uses it to run
        replica synchronization and sample-pool preparation.
        """

    def finish_epoch(self) -> None:
        """Flush any buffered state at an epoch boundary (default: no-op)."""

    # -------------------------------------------------------- membership API
    def keys_owned_by(self, node_id: int) -> np.ndarray:
        """The keys whose primary copy lives on ``node_id`` right now.

        These are the keys that become unreachable (and whose un-checkpointed
        updates are lost) when the node crashes. The default answers from the
        ownership map; relocation PSs override it to answer from the
        dynamic ownership array.
        """
        return self.partitioner.keys_of(node_id)

    def _rehome(self, keys: np.ndarray, nodes: Sequence[int],
                available_at: float) -> None:
        """Hand the current copies of ``keys`` to ``nodes`` (a transition).

        Called by the membership controller right after it rewrote the
        ownership map. ``available_at`` is the simulated time at which the
        moved keys become reachable again (detection or handshake plus state
        transfer). Static architectures resolve every access
        through the map, so there is nothing else to move, and the
        dead-owner gate (:mod:`repro.scenarios.interposer`) enforces their
        availability gap; the relocation family moves its dynamic copies
        here and waits on its native arrival times.
        """

    def recover_values(self, keys: np.ndarray) -> tuple:
        """Best-effort recovery of current values for ``keys`` after a crash.

        Returns ``(values, mask)`` where ``mask[i]`` says whether ``keys[i]``
        could be recovered from surviving redundant state (replicas); only
        masked rows of ``values`` are meaningful. The default PS holds no
        redundant state, so nothing is recoverable and the checkpoint must
        cover everything.
        """
        return None, np.zeros(len(keys), dtype=bool)

    def on_node_arrived(self, node_id: int, available_at: float) -> None:
        """Set up per-node state of ``node_id``, which joined or was restored.

        Called by the membership controller's arrival step, after the
        cluster and the ownership map took the node in (and, for a join,
        after :meth:`_rehome`). ``available_at`` is the simulated time from
        which the node's keys are usable on it. A node the PS has not seen
        before gets fresh state; a restored node gets back what its crash
        destroyed. The default PS keeps no per-node state.
        """

    def release_node(self, node_id: int, now: float) -> int:
        """Drain and drop per-node state of ``node_id`` ahead of a planned leave.

        Called by the membership controller's departure step while the node
        is still a member and still owns its keys. Returns the number of
        keys whose buffered (acknowledged but not yet globally applied)
        updates were flushed — the updates a crash of the same node would
        have lost. The default PS buffers nothing.
        """
        return 0

    # ------------------------------------------------------------- round API
    def direct_point_charger(self, distribution_id: Optional[int] = None):
        """The fold charger a task's chunk step runs over, or None.

        Charging is value-independent — costs depend on keys, ownership and
        management state, never on parameter values — so a worker chunk is
        charged by one fold over its *call list*:
        ``charge_chunk(worker, keys, calls)``, where each entry of ``calls``
        is ``(kind, lo, hi, compute)`` — a ``pull``, ``pull_sample``,
        ``push`` or ``push_sample`` (:data:`~repro.ps.rounds.PULL` ...) of
        ``keys[lo:hi]``, then ``compute`` seconds of computation. That fold
        is the architecture's only access charging: ``pull``/``push`` (and
        NuPS's sampling calls) are one-call chunks of it. The values then
        move per point, in the sequential order, through the charger's
        uncharged ``read``/``add`` (:class:`~repro.ps.rounds.ChunkValues`),
        which serve them from wherever the architecture keeps them: the
        store, the node's replica and update buffer (SSP/ESSP), a replica
        slot (NuPS). A chunk is laid out per point as its direct keys
        followed by its sample keys (:func:`~repro.ps.rounds.point_calls`);
        tasks with sampling access ask for a charger for the
        ``distribution_id`` their samples are drawn from. Sample *selection*
        is as value-independent as charging: ``prepare_sample``, which the
        task still calls per chunk, in worker order, fixes a handle's keys
        and the charger's ``take_samples`` hands them out at once; NuPS's
        pull-time schemes (local sampling, repurposing) select theirs in the
        charger's ``charge_chunk``, in call order, before its fold. The
        per-key scalar reference every fold is tested against lives with the
        tests (``tests/scalar_oracle.py``).

        ``None`` tells the task to step its chunks over a
        :class:`~repro.ps.rounds.PerCallCharger` instead, which issues every
        call through the PS — the right answer whenever a per-call effect
        cannot be replayed from chunk-level state. Every fallback
        condition, in one place:

        * an access-level tracer (``TelemetryConfig(access_events=True)``
          wants one event per call);
        * for sampling, NuPS's postponing scheme, whose selection relocates
          keys mid-chunk
          (:class:`~repro.core.sampling.schemes.PostponingSampleReuseScheme`);
        * behind a scenario's interposer, while one of its gates can fire:
          a partition is live or a node it watches is down.

        Interposers act at the granularity at which their state changes,
        not per call: the scenario interposer settles its gates once per
        round (they change in scenario hooks only) and translates a chunk's
        keys once, and NuPS feeds an attached ``access_observer`` the
        chunk's calls in call order.
        """
        if self._traces_accesses():
            return None
        return self._charger(self)

    # ---------------------------------------------------------- sampling API
    def register_distribution(self, distribution: object, level: object = None) -> int:
        """Register a sampling distribution and return its id.

        ``distribution`` must expose ``sample(rng, size) -> np.ndarray`` over
        parameter keys (see :mod:`repro.core.sampling.distributions`). The
        ``level`` argument is the requested conformity level; the base class
        ignores it because existing PSs always sample independently in
        application code.
        """
        distribution_id = self._next_distribution_id
        self._next_distribution_id += 1
        self._distributions[distribution_id] = distribution
        return distribution_id

    def prepare_sample(self, worker: WorkerContext, distribution_id: int,
                       count: int) -> SampleHandle:
        """Prepare ``count`` samples from a registered distribution.

        The default implementation reproduces what applications do on top of
        existing PSs (Section 4.2, "independent sampling"): draw iid keys in
        application code. No preparatory communication happens.
        """
        distribution = self._get_distribution(distribution_id)
        keys = distribution.sample(self.rng, count)
        return SampleHandle(distribution_id, np.asarray(keys, dtype=np.int64))

    def pull_sample(self, worker: WorkerContext, handle: SampleHandle,
                    count: Optional[int] = None) -> PullResult:
        """Deliver the next ``count`` samples of ``handle`` (default: all).

        The default implementation accesses the sampled keys via direct
        access (``pull``), exactly like an application built on an existing
        PS would.
        """
        count = handle.remaining if count is None else int(count)
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > handle.remaining:
            raise ValueError(
                f"requested {count} samples but only {handle.remaining} remain"
            )
        keys = handle.take(count)
        handle.delivered += count
        values = self.pull(worker, keys) if count else np.empty(
            (0, self.store.value_length), dtype=np.float32
        )
        return PullResult(keys=keys, values=values)

    def push_sample(self, worker: WorkerContext, keys: np.ndarray,
                    deltas: np.ndarray) -> None:
        """Write back updates for previously pulled sample keys.

        Default: direct-access push. NuPS overrides this so that updates to
        sampled keys follow the same management path as the samples came from.
        """
        self.push(worker, keys, deltas)

    # --------------------------------------------------------------- helpers
    def _get_distribution(self, distribution_id: int) -> object:
        try:
            return self._distributions[distribution_id]
        except KeyError:
            raise KeyError(
                f"unknown distribution id {distribution_id}; "
                "call register_distribution first"
            ) from None

    def _traces_accesses(self) -> bool:
        """Whether an access-level tracer wants one event per PS call."""
        tracer = self.tracer
        return tracer is not None and tracer.access_events

    def _trace_access(self, kind: str, worker: WorkerContext, keys) -> None:
        """Record one ``pull``/``push``/``localize`` call as an access event."""
        if self._traces_accesses():
            self.tracer.event(kind, "access", worker.clock.now,
                              node=worker.node_id, worker=worker.worker_id,
                              keys=len(keys))

    def _validate_push(self, keys: np.ndarray, deltas: np.ndarray) -> tuple:
        keys = np.asarray(keys, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float32)
        if deltas.shape != (len(keys), self.store.value_length):
            raise ValueError(
                f"deltas must have shape ({len(keys)}, {self.store.value_length}), "
                f"got {deltas.shape}"
            )
        return keys, deltas

    def _call(self, worker: WorkerContext, keys: np.ndarray, kind: int):
        """Charge one ``kind`` call of ``keys`` as a one-call chunk and
        return its charger, bound for the call's ``read``/``add``."""
        charger = self._charger(self)
        charger.charge_chunk(worker, keys, ((kind, 0, len(keys), 0.0),))
        charger.finish()
        return charger

    def state_nbytes(self) -> Dict[str, int]:
        """Resident bytes of the PS's per-node state, by component.

        Unlike :meth:`ParameterStore.total_bytes` (the *logical* cost-model
        size, identical across storage backends), this reports the bytes
        actually allocated right now — on the sparse backend only touched
        chunks count. Subclasses extend the dict with their own state
        (replica matrices, ownership vectors, slot tables) so benchmarks can
        attribute memory per component.
        """
        return {"store": self.store.nbytes()}

    def describe(self) -> Dict[str, object]:
        """A short description of the PS configuration (for reports)."""
        return {
            "name": self.name,
            "num_keys": self.store.num_keys,
            "value_length": self.store.value_length,
            "num_nodes": self.cluster.num_nodes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(nodes={self.cluster.num_nodes})"
