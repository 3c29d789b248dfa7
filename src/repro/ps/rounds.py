"""The round path's shared pieces: deferred accounting and chunk values.

A *scheduling round* executes, for every active worker in worker order, the
call chain ``localize(hint) -> pull(keys) -> push(keys, deltas) ->
advance_clock()`` per data point. The production round path rests on one
observation: access *charging* is value-independent — costs depend on keys,
ownership, and replica state, never on pushed values. A whole worker chunk
is therefore charged by one fold over its *call list* (``charge_chunk`` on
the point chargers: per call its kind, its ``[lo, hi)`` span of the chunk's
keys and the compute charge that follows it; see
:meth:`repro.ps.base.ParameterServer.direct_point_charger`), at its slot in
worker order and against live state, while everything order-free is batched:
additive metric counters aggregate into one write per round
(:class:`RoundAccounting`), and server occupancy charged as repeated
additions of one constant sums across chunks. A single ``pull``/``push`` is
a one-call chunk of the same fold. All clock folds use the exact
left-to-right additions of :mod:`repro.simulation.clock`, so a chunk charges
bit-identically to its calls issued one by one
(:func:`repro.ml.task.sequential_process_round`).

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
    "PULL",
    "PULL_SAMPLE",
    "PUSH",
    "PUSH_SAMPLE",
    "RoundAccounting",
    "ChunkValues",
    "point_calls",
]

#: The kinds of a call-list entry: bit 1 is set for writes (``push``), bit 0
#: for sampling access (``pull_sample``/``push_sample``).
PULL, PULL_SAMPLE, PUSH, PUSH_SAMPLE = range(4)


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


def point_calls(direct_widths, sample_widths, compute_costs) -> list:
    """The call list of a chunk laid out per data point as its direct keys
    followed by its sample keys.

    Per point: ``pull(direct)``, ``pull_sample``, ``push(direct)``,
    ``push_sample`` and the point's compute charge after the last of them,
    as ``(kind, lo, hi, compute)`` entries; a point without samples has no
    sampling calls (matrix factorization's two-key points).
    """
    calls = []
    position = 0
    for n_direct, n_sample, compute in zip(direct_widths, sample_widths,
                                           compute_costs):
        split = position + n_direct
        if n_sample:
            end = split + n_sample
            calls += ((PULL, position, split, 0.0),
                      (PULL_SAMPLE, split, end, 0.0),
                      (PUSH, position, split, 0.0),
                      (PUSH_SAMPLE, split, end, compute))
        else:
            end = split
            calls += ((PULL, position, split, 0.0),
                      (PUSH, position, split, compute))
        position = end
    return calls
