"""The round path's shared pieces: the two chargers a task's chunk step runs over.

A *scheduling round* executes, for every active worker in worker order, the
call chain ``localize(hint) -> pull(keys) -> push(keys, deltas) ->
advance_clock()`` per data point. A task writes its chunk once, as a *step*
against a charger (:meth:`repro.ml.task.TrainingTask.step_chunk`):
``charge_chunk(worker, keys, calls)`` with the chunk's *call list* (per call
its kind, its ``[lo, hi)`` span of the chunk's keys and the compute charge
that follows it; :func:`point_calls`), then ``read(lo, hi)`` and
``add(lo, hi, deltas)`` per point. Two chargers run that step:

* the PS's *fold* charger
  (:meth:`repro.ps.base.ParameterServer.direct_point_charger`). Access
  charging is value-independent — costs depend on keys, ownership and
  replica state, never on pushed values — so ``charge_chunk`` charges the
  whole chunk by one fold, at its slot in worker order and against live
  state, while everything order-free is batched: additive metric counters
  aggregate into one write per round (:class:`RoundAccounting`), and server
  occupancy charged as repeated additions of one constant sums across
  chunks. A single ``pull``/``push`` is a one-call chunk of the same fold.
  All clock folds use the exact left-to-right additions of
  :mod:`repro.simulation.clock`, so a chunk charges bit-identically to its
  calls issued one by one. The values then move uncharged through
  :class:`ChunkValues` ``read``/``add``, one gather and one scatter each,
  validated and translated to rows per chunk instead of per call;
* the *per-call* charger (:class:`PerCallCharger`), wherever the fold
  charger is ``None``: its ``read`` and ``add`` issue the point's calls
  through the PS (or the interposer in front of it), so gates, access
  events and the postponing sampling scheme act per call.

Values keep the sequential order on both. Moving values across data points
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
    "PerCallCharger",
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
    NuPS routes replicated keys through its replica manager.
    """

    #: ``ps`` is set by the charger that inherits this class.
    __slots__ = ("ps", "keys", "rows", "rows_list", "values", "versions",
                 "gather")

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


class PerCallCharger:
    """A chunk step's calls issued one by one through ``ps``.

    The charger of every round the PS's fold charger cannot take (see
    :meth:`~repro.ps.base.ParameterServer.direct_point_charger`):
    ``charge_chunk`` only records the chunk, and each point's ``read``
    issues its ``pull``/``pull_sample`` calls, its ``add`` the
    ``push``/``push_sample`` calls and then the compute charge, in call-list
    order. ``ps`` may be the scenario interposer, so its gates, an access
    tracer's events and the postponing scheme all act per call. The sample
    keys a point pushes are those its ``pull_sample`` delivered, which a
    postponing scheme may have reordered.
    """

    __slots__ = ("ps", "handle", "worker", "keys", "calls", "_next",
                 "_sampled")

    def __init__(self, ps) -> None:
        self.ps = ps
        self.handle = None

    def take_samples(self, handle) -> np.ndarray:
        """The keys ``handle`` was prepared with, left pending (``-1`` where
        the scheme decides at pull time): each point's ``read`` pulls what
        the scheme delivers then."""
        self.handle = handle
        if handle is None:
            return np.empty(0, dtype=np.int64)
        keys = np.full(handle.remaining, -1, dtype=np.int64)
        prepared = handle.peek(handle.remaining)
        keys[:len(prepared)] = prepared
        return keys

    def charge_chunk(self, worker, keys, calls) -> None:
        self.worker, self.keys, self.calls = worker, keys, calls
        self._next = 0

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Issue the point's pulls; their values, the delivered samples'
        after the direct keys'. A sample pull takes at most what the handle
        has left."""
        ps, worker, calls = self.ps, self.worker, self.calls
        parts = []
        index = self._next
        while index < len(calls) and not calls[index][0] & 2 \
                and calls[index][2] <= hi:
            kind, start, end, _ = calls[index]
            if kind == PULL:
                parts.append(ps.pull(worker, self.keys[start:end]))
            else:
                handle = self.handle
                count = 0 if handle is None \
                    else min(end - start, handle.remaining)
                if count:
                    sampled = ps.pull_sample(worker, handle, count)
                    self._sampled = sampled.keys
                    parts.append(sampled.values)
                else:
                    self._sampled = self.keys[:0]
            index += 1
        self._next = index
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def add(self, lo: int, hi: int, deltas: np.ndarray) -> None:
        """Issue the point's pushes, rows of ``deltas`` in call order, each
        followed by its compute charge; a sample push goes to the keys the
        point's sample pull delivered, and none when it delivered none."""
        ps, worker, calls = self.ps, self.worker, self.calls
        row = 0
        index = self._next
        while index < len(calls) and calls[index][0] & 2 \
                and calls[index][2] <= hi:
            kind, start, end, compute = calls[index]
            if kind == PUSH:
                ps.push(worker, self.keys[start:end],
                        deltas[row:row + end - start])
                row += end - start
            else:
                keys = self._sampled
                if len(keys):
                    ps.push_sample(worker, keys, deltas[row:row + len(keys)])
                row += len(keys)
            if compute:
                worker.charge_compute(compute)
            index += 1
        self._next = index

    def finish(self) -> None:
        """Nothing is deferred: every call charged when it was issued."""


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
