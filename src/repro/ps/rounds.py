"""The round path's shared pieces: deferred accounting and chunk values.

A *scheduling round* executes, for every active worker in worker order, the
call chain ``localize(hint) -> pull(keys) -> push(keys, deltas) ->
advance_clock()`` per data point. The production round path rests on one
observation: access *charging* is value-independent — costs depend on keys,
ownership, and replica state, never on pushed values. A whole worker chunk
is therefore charged in one replay of its exact per-call cost sequence
(``charge_chunk`` on the point chargers — one shape for every task, a
direct-access point being a sampling point with no samples; see
:meth:`repro.ps.base.ParameterServer.direct_point_charger`), at its slot in
worker order and against live state, while everything order-free is batched:
additive metric counters aggregate into one write per round
(:class:`RoundAccounting`), and server occupancy charged as repeated
additions of one constant sums across chunks. All clock folds use the exact
left-to-right additions of :mod:`repro.simulation.clock`, so the replay is
bit-identical to the per-call chain
(:func:`repro.ml.task.sequential_process_round`, the oracle).

Values keep the sequential order: the points read and write current rows
through the charger's :class:`ChunkValues` ``read``/``add``, one gather and
one scatter each, validated per chunk instead of per call. Moving values
across data points is not done: a pull must observe every earlier push to
the same key, and on the bench matrix factorization 1.1 % of a round's
points (about 6 % of the bench knowledge graph's triples) touch keys no
other point of the round touches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RoundAccounting",
    "ChunkValues",
    "segment_bounds",
    "segment_counts",
]


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
