"""Round-fused multi-worker execution: batch structure and conflict planning.

A *scheduling round* executes, for every active worker in worker order, the
call chain ``localize(hint) -> pull(keys) -> push(keys, deltas) ->
advance_clock()``. The per-worker loop spends a large share of its time in
per-call Python overhead (array coercion, repeated owner lookups, per-call
metrics writes), so simulator throughput historically scaled with
``num_nodes x workers_per_node`` Python iterations rather than with the
round's total work.

:meth:`repro.ps.base.ParameterServer.run_round` executes one whole round
through a single entry point. The fused implementations rest on one
observation: access *charging* is value-independent — costs depend on keys,
ownership, and replica state, never on pushed values — so each segment's
exact per-call cost sequence can be replayed at its slot (in worker order,
against live state, waits re-checked on the live clock) while everything
order-free is batched: one charge plan serves a pull and the push of the
same keys, additive metric counters aggregate into one write per round
(:class:`RoundAccounting`), and server occupancy charged as repeated
additions of one constant sums across segments. All clock folds use the
exact left-to-right additions of :mod:`repro.simulation.clock`, so fused
execution is bit-identical to the sequential chain.

Fusing *value* traffic across data points would additionally need
conflict-group planning: a pull must observe every earlier push to the same
key, so only points whose keys no other point of the round touches could move
through a hoisted gather and a deferred scatter-add. Measured, that remainder
is nothing: on the bench matrix factorization (200 columns, 512 points per
round) :class:`FusedRoundPlan` finds 303 of 26 799 points (1.1 %)
conflict-free — consecutive cells of a column chain through the column
factor — and on the bench knowledge graph about 6 % of the triples. No
in-process round engine therefore plans conflicts. All three tasks keep the
sequential value order and only separate it from charging: a whole worker
chunk is charged in one replay (``charge_chunk`` / ``charge_sampling_chunk``
on the point chargers), and the points then read and write current rows
through the charger's :class:`ChunkValues` ``read``/``add``, one gather and
one scatter each, validated per chunk instead of per call. The plan survives
only as the work unit of the multi-process backend
(``MatrixFactorizationTask._process_round_parallel``), which ships the
conflict-free remainder to its worker pool.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.simulation.cluster import WorkerContext

__all__ = [
    "WorkerRound",
    "RoundAccounting",
    "ChunkValues",
    "FusedRoundPlan",
    "duplicate_key_positions",
    "segment_bounds",
    "segment_counts",
]


class WorkerRound:
    """One worker's operations within a scheduling round.

    ``localize_keys`` is the relocation hint issued before the accesses (the
    runner's prefetch of the *next* chunk); ``pull_keys``/``push_keys`` are
    the direct accesses of the current chunk. Any of the three may be ``None``
    to skip that operation. ``advance`` controls the trailing
    ``advance_clock`` call.
    """

    __slots__ = ("worker", "localize_keys", "pull_keys", "push_keys",
                 "push_deltas", "advance")

    def __init__(
        self,
        worker: WorkerContext,
        localize_keys: Optional[np.ndarray] = None,
        pull_keys: Optional[np.ndarray] = None,
        push_keys: Optional[np.ndarray] = None,
        push_deltas: Optional[np.ndarray] = None,
        advance: bool = True,
    ) -> None:
        self.worker = worker
        self.localize_keys = _as_keys(localize_keys)
        self.pull_keys = _as_keys(pull_keys)
        self.push_keys = _as_keys(push_keys)
        self.push_deltas = push_deltas
        self.advance = bool(advance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def _n(keys):
            return 0 if keys is None else len(keys)
        return (
            f"WorkerRound(worker=({self.worker.node_id},{self.worker.worker_id}), "
            f"localize={_n(self.localize_keys)}, pull={_n(self.pull_keys)}, "
            f"push={_n(self.push_keys)})"
        )


def _as_keys(keys) -> Optional[np.ndarray]:
    if keys is None:
        return None
    keys = np.asarray(keys, dtype=np.int64)
    return keys if len(keys) else None


class RoundAccounting:
    """Deferred bookkeeping of a fused round.

    Metric counters are additive integers, so per-call writes can be
    aggregated into one batch write per node without changing totals. Server
    request-thread occupancy in relocation/replication PSs is charged as
    repeated additions of one constant, so per-server counts can likewise be
    summed across segments: ``N`` additions of the same value produce the
    same float regardless of how the sequential path grouped them.
    """

    __slots__ = ("access", "network", "server_counts")

    def __init__(self) -> None:
        self.access: dict = {}
        self.network: dict = {}
        self.server_counts: dict = {}

    def add_access(self, node_id: int, kind: str, count: int) -> None:
        if count:
            acc = self.access.setdefault(node_id, {})
            acc[kind] = acc.get(kind, 0) + count

    def add_counter(self, node_id: int, name: str, amount: int) -> None:
        if amount:
            acc = self.network.setdefault(node_id, {})
            acc[name] = acc.get(name, 0) + amount

    def add_server(self, server_id: int, count: int) -> None:
        if count:
            counts = self.server_counts
            counts[server_id] = counts.get(server_id, 0) + count

    def flush(self, ps, server_occupancy: float) -> None:
        """Apply the aggregated charges to the PS's cluster and metrics."""
        for server_id, count in self.server_counts.items():
            ps.cluster.node(server_id).server_clock.advance_repeated(
                server_occupancy, count
            )
        for node_id, counts in self.access.items():
            ps.metrics.record_access_batch(node_id, counts)
        for node_id, counters in self.network.items():
            for name, amount in counters.items():
                ps.metrics.increment(name, amount, node=node_id)


class ChunkValues:
    """Uncharged access to the values of one charged chunk's keys.

    The tasks' round engines charge a whole worker chunk through a point
    charger first and then run the per-point arithmetic on current rows: one
    gather and one duplicate-aware scatter per data point, addressed as a
    ``[lo, hi)`` slice of the chunk's flat key array. Keys are range-checked
    once per chunk (when the charger binds them), delta shapes once per point
    (:meth:`add`). This base serves the store directly; the replication PS
    serves the node's replica and update buffer, NuPS routes replicated keys
    through its replica manager.
    """

    #: ``ps`` is set by the charger that inherits this class.
    __slots__ = ("ps", "keys", "keys_list")

    #: Whether every value :meth:`read` returns is the store's row and every
    #: :meth:`add` lands in the store. The multi-process backend reads and
    #: writes ``ps.store`` from its workers and its merge walk, so it only
    #: takes a round whose charger says so.
    values_in_store = True

    def _bind(self, keys: np.ndarray) -> None:
        """Range-check ``keys`` (``KeyError``) and make them current."""
        self.keys = self.ps.store.check_keys(keys)
        self.keys_list = self.keys.tolist()

    def read(self, lo: int, hi: int) -> np.ndarray:
        """A copy of the current values of ``keys[lo:hi]``."""
        return self.ps.store.rows(self.keys[lo:hi])

    def add(self, lo: int, hi: int, deltas: np.ndarray) -> None:
        """Add ``deltas`` to ``keys[lo:hi]``; repeated keys accumulate in order."""
        keys, deltas = self.ps._validate_push(self.keys[lo:hi], deltas)
        self._add_rows(keys, self.keys_list[lo:hi], deltas)

    def _add_rows(self, keys: np.ndarray, keys_list: list,
                  deltas: np.ndarray) -> None:
        """Scatter into the store; repeated keys accumulate in order."""
        self.ps.store.add_rows(keys, deltas, keys_list)


def segment_bounds(direct_widths, sample_widths) -> np.ndarray:
    """Cumulative offsets of a chunk's ``[direct | sample]`` key segments.

    Point ``i`` owns flat positions ``bounds[2i]:bounds[2i + 1]`` (direct
    access) and ``bounds[2i + 1]:bounds[2i + 2]`` (sampling access).
    """
    widths = np.empty(2 * len(direct_widths) + 1, dtype=np.int64)
    widths[0] = 0
    widths[1::2] = direct_widths
    widths[2::2] = sample_widths
    return np.cumsum(widths)


def segment_counts(mask: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many ``mask`` positions are set in each segment of ``bounds``.

    Entry ``2i`` counts point ``i``'s direct segment, ``2i + 1`` its sample
    segment.
    """
    cumulative = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=cumulative[1:])
    return np.diff(cumulative[bounds])


class FusedRoundPlan:
    """The conflict-group plan of one task-level round, in exportable form.

    Built once per round from the per-item ``(num_points, keys_per_point)``
    key matrices, the plan splits the round's data points into the *conflict
    set* (a point any of whose keys some other point also touches) and the
    *conflict-free remainder*. The remainder's physical keys are exported as
    one flat array in global point order — the layout the parallel backend's
    shared scratch consumes directly. It is that backend's unit of work and
    nothing else uses it: the remainder is 1.1 % of a bench round (see the
    module docstring), so the in-process path does not plan.

    The deterministic-merge contract: however the remainder is partitioned
    across executors (see ``repro.parallel.backend._even_bounds``), results
    are merged by walking points in the same global order the plan was built
    in, so every stateful fold (clipper running mean, epoch loss) and every
    store write happens in exactly the sequential path's order.
    """

    __slots__ = ("conflicted", "num_points", "num_fused", "fused_keys")

    def __init__(self, conflicted: list, num_fused: int,
                 fused_keys: np.ndarray) -> None:
        self.conflicted = conflicted
        self.num_points = len(conflicted)
        self.num_fused = num_fused
        self.fused_keys = fused_keys

    @classmethod
    def plan(cls, keys_per_item: list) -> "FusedRoundPlan":
        """Plan a round given each item's ``(points, keys_per_point)`` keys.

        A point is conflicted when any of its keys occurs more than once
        across the whole round (within-point duplicates count too, though
        tasks whose key spaces cannot collide never produce them).
        """
        all_keys = np.concatenate([keys2d.ravel() for keys2d in keys_per_item])
        keys_per_point = keys_per_item[0].shape[1] if keys_per_item else 1
        conflicted = duplicate_key_positions(all_keys) \
            .reshape(-1, keys_per_point).any(axis=1).tolist()
        num_fused = len(conflicted) - sum(conflicted)
        fused_keys = np.empty(keys_per_point * num_fused, dtype=np.int64)
        cursor = 0
        point = 0
        for keys2d in keys_per_item:
            for local_point in range(len(keys2d)):
                if not conflicted[point]:
                    fused_keys[cursor:cursor + keys_per_point] = \
                        keys2d[local_point]
                    cursor += keys_per_point
                point += 1
        return cls(conflicted, num_fused, fused_keys)


def duplicate_key_positions(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of positions whose key occurs more than once in ``keys``.

    :class:`FusedRoundPlan` plans at data-point granularity: a point whose
    keys are touched by any other point in the round (flagged here) keeps
    live value access in walk order, the conflict-free remainder goes to the
    worker pool.
    """
    n = len(keys)
    if n <= 1:
        return np.zeros(n, dtype=bool)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    equal_next = sorted_keys[1:] == sorted_keys[:-1]
    duplicated_sorted = np.zeros(n, dtype=bool)
    duplicated_sorted[1:] = equal_next
    duplicated_sorted[:-1] |= equal_next
    duplicated = np.zeros(n, dtype=bool)
    duplicated[order] = duplicated_sorted
    return duplicated
