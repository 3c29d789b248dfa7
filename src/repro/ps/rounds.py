"""The round path's shared pieces: the call list and the fold chargers' base.

A *scheduling round* executes, for every active worker in worker order, the
call chain ``localize(hint) -> pull(keys) -> push(keys, deltas) ->
advance_clock()`` per data point. A task writes its chunk once, as a *step*
against a charger (:meth:`repro.ml.task.TrainingTask.step_chunk`):
``charge_chunk(worker, keys, calls)`` with the chunk's *call list* (per call
its kind, its ``[lo, hi)`` span of the chunk's keys and the compute charge
that follows it; :func:`point_calls`), then ``read(lo, hi)`` and
``add(lo, hi, deltas)`` per point.

The PS's *fold* charger
(:meth:`repro.ps.base.ParameterServer.direct_point_charger`) runs that step.
Access charging is value-independent — costs depend on keys, ownership and
replica state, never on pushed values — so ``charge_chunk`` charges the
whole chunk by one fold, at its slot in worker order and against live
state, while everything order-free is batched: additive metric counters
aggregate into one write per round (:class:`RoundAccounting`), and server
occupancy charged as repeated additions of one constant sums across chunks.
A single ``pull``/``push`` is a one-call chunk of the same fold. All clock
folds use the exact left-to-right additions of :mod:`repro.simulation.clock`,
so a chunk charges bit-identically to its calls issued one by one, and a
fold may be cut at any call boundary (:meth:`ChunkValues._charge`). The
values then move uncharged through :class:`ChunkValues` ``read``/``add``,
one gather and one scatter each, validated and translated to rows per
chunk instead of per call. The one other charger, the scenario
interposer's, issues a degraded round's calls one by one through its gates.

Values keep the sequential order. Moving values across data points
is not done: a pull must observe every earlier push to the same key, and on
the bench matrix factorization 1.1 % of a round's points (about 6 % of the
bench knowledge graph's triples) touch keys no other point of the round
touches.
"""

from __future__ import annotations

import numpy as np

from repro.ps.storage import add_versioned

__all__ = [
    "PULL",
    "PULL_SAMPLE",
    "PUSH",
    "PUSH_SAMPLE",
    "RoundAccounting",
    "ChunkValues",
    "point_calls",
    "pushed_spans",
    "span_mask",
]

#: The kinds of a call-list entry: bit 1 is set for writes (``push``), bit 0
#: for sampling access (``pull_sample``/``push_sample``).
PULL, PULL_SAMPLE, PUSH, PUSH_SAMPLE = range(4)


class RoundAccounting:
    """Deferred bookkeeping of a fused round.

    Metric counters are additive integers, so a round's per-call writes sum
    into one cluster-wide batch without changing totals: the access counts
    go to one ``record_access_batch``, every other counter to one
    ``increment`` per name. Server request-thread occupancy in
    relocation/replication PSs is charged as repeated additions of one
    constant, so per-server counts can likewise be summed across segments:
    ``N`` additions of the same value produce the same float regardless of
    how the sequential path grouped them.
    """

    __slots__ = ("access", "counters", "server_counts")

    def __init__(self) -> None:
        self.access: dict = {}
        self.counters: dict = {}
        self.server_counts: dict = {}

    def add_access(self, kind: str, count: int) -> None:
        if count:
            access = self.access
            access[kind] = access.get(kind, 0) + count

    def add_counter(self, name: str, amount: int) -> None:
        if amount:
            counters = self.counters
            counters[name] = counters.get(name, 0) + amount

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
        metrics = ps.metrics
        metrics.record_access_batch(self.access)
        for name, amount in self.counters.items():
            metrics.increment(name, amount)


class ChunkValues:
    """Uncharged access to the values of one charged chunk's keys.

    The tasks' round engines charge a whole worker chunk through a point
    charger first and then run the per-point arithmetic on current rows: one
    gather and one duplicate-aware scatter per data point, addressed as a
    ``[lo, hi)`` slice of the chunk's flat key array. Keys are range-checked
    and translated to rows once per chunk, when the charger binds them
    (:meth:`_bind`), delta shapes once per point (:meth:`add`). This base
    serves the store's rows (:meth:`~repro.ps.storage.ParameterStore.at`);
    the replication PS binds the node's replica and update buffer instead,
    NuPS routes replicated keys through its replica manager. Every charger
    that inherits it charges through :meth:`_charge` around its ``_fold``.
    """

    #: ``ps`` is set by the charger that inherits this class.
    __slots__ = ("ps", "keys", "rows", "rows_list", "values", "versions",
                 "gather")

    #: Per call kind, the access event an access-level tracer records for
    #: the call (``None``: none, for NuPS's own sampling calls).
    events = ("pull", "pull", "push", "push")

    def _charge(self, worker, keys, calls, *aligned) -> None:
        """``_fold`` the calls at once or, under an access-level tracer, one
        at a time, each after its event at the clock where it starts;
        ``aligned`` are per-position sequences (or ``None``) of the fold."""
        ps = self.ps
        if ps.tracer is None or not ps.tracer.access_events:
            self._fold(worker, keys, calls, *aligned)
            return
        for kind, lo, hi, compute in calls:
            if self.events[kind] is not None:
                ps._trace_access(self.events[kind], worker, hi - lo)
            self._fold(worker, keys[lo:hi], ((kind, 0, hi - lo, compute),),
                       *(None if part is None else part[lo:hi]
                         for part in aligned))

    def _bind(self, keys: np.ndarray, calls,
              routed: np.ndarray | None = None) -> None:
        """Range-check ``keys`` (``KeyError``) and bind their store rows.

        The positions some call of ``calls`` pushes — except those
        ``routed`` elsewhere — get records first (on a sparse store), so
        their rows take writes; nothing materializes in the store before
        the next chunk is bound.
        """
        store = self.ps.store
        self.keys = keys = store.check_keys(keys)
        pushed = pushed_spans(calls)
        writable = False
        if routed is None and pushed == [(0, len(keys))]:
            writable = True
        elif pushed:
            writable = span_mask(pushed, len(keys))
            if routed is not None:
                writable &= ~routed
        self.rows = store.at(keys, writable)
        self.rows_list = self.rows.tolist()
        self.values = store.value_column.pool
        self.versions = store.version_column.pool
        self.gather = store.value_column.gather

    def take_samples(self, handle) -> np.ndarray:
        """All of ``handle``'s keys at once, uncharged (``None``: none).

        ``prepare_sample`` fixed the keys a handle delivers, in order, so
        the chunk's step lays them out and the fold charges their
        ``pull_sample`` calls (NuPS's charger also takes handles whose
        scheme selects at pull time).
        """
        if handle is None:
            return np.empty(0, dtype=np.int64)
        count = handle.remaining
        keys = handle.take(count)
        handle.delivered += count
        return keys

    def read(self, lo: int, hi: int) -> np.ndarray:
        """A copy of the current values of ``keys[lo:hi]``."""
        return self.gather(self.rows[lo:hi])

    def add(self, lo: int, hi: int, deltas: np.ndarray) -> None:
        """Add ``deltas`` to ``keys[lo:hi]``; repeated keys accumulate in order."""
        _, deltas = self.ps._validate_push(self.keys[lo:hi], deltas)
        self._add_rows(self.rows[lo:hi], self.rows_list[lo:hi], deltas)

    def _add_rows(self, rows: np.ndarray, rows_list: list,
                  deltas: np.ndarray) -> None:
        """Scatter into the bound rows; repeated keys accumulate in order."""
        add_versioned(self.values, self.versions, rows, deltas, rows_list)


def pushed_spans(calls) -> list:
    """The ``[lo, hi)`` spans of a call list's pushes, joined where one
    continues another: ``[(0, n)]`` when a push covers every key of an
    ``n``-key chunk (the tasks' chunks)."""
    spans = []
    for kind, lo, hi, _ in calls:
        if kind & 2 and hi > lo:
            if spans and spans[-1][1] == lo:
                spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))
    return spans


def span_mask(spans, n: int) -> np.ndarray:
    """The positions of an ``n``-key chunk that ``spans`` cover."""
    mask = np.zeros(n, dtype=bool)
    for lo, hi in spans:
        mask[lo:hi] = True
    return mask


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
