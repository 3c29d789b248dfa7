"""Online per-key access statistics for adaptive management.

The management policies need two quantities the paper derives offline from
dataset statistics: the *mean* per-key access frequency (the denominator of
the 100x-mean hot-spot heuristic, Section 5.1) and the identity and frequency
of the *hottest* keys. Collecting an exact per-key histogram online would
cost O(num_keys) memory and O(batch) maintenance on the PS hot path — cheap
in this simulator, but exactly the cost a real server cannot pay for billions
of keys. :class:`AccessStats` therefore keeps cost O(hot set):

* a scalar exponential-decay counter of total observed accesses (enough for
  the mean: the key-space size is known), and
* a bounded :class:`SpaceSavingSketch` — the Metwally et al. space-saving
  top-k summary — holding frequency estimates for at most ``capacity`` keys.

Both decay with a configurable half-life in *simulated* time, so the
statistics track the recent workload and age out a hot set that has drifted
away. Decay is applied lazily at adaptation boundaries (the controller calls
:meth:`AccessStats.decay_to` before reading), which keeps the hot-path
``observe`` a pure accumulate: feeding keys never touches clocks, metrics, or
values, so runs with statistics collection disabled are bit-identical to runs
without the subsystem, and enabled runs remain a deterministic function of
the seed. The same property lets the round engine's point charger feed a
whole worker chunk at once, in call order
(:meth:`AccessStats.observe_calls`): nobody reads the sketch inside a round.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["AccessStats", "SpaceSavingSketch"]


class SpaceSavingSketch:
    """Bounded top-k frequency sketch (space-saving, batch variant).

    Tracks at most ``capacity`` keys with over-estimating counters. A batch
    of new keys that does not fit evicts the currently smallest counters:
    each new key inherits the evicted counter's value plus its own batch
    count — the classic space-saving property that a *tracked* counter never
    under-estimates, applied per batch instead of per item. Eviction order is
    deterministic: victims are the smallest ``(count, key)`` pairs, new keys
    enter by decreasing batch count (ties by key), so equal streams produce
    equal sketches.

    Batch-overflow rule: when one batch carries more *new* distinct keys
    than the sketch has slots, only the ``capacity`` hottest of them (by
    batch count, ties by key) enter; the colder remainder of that batch is
    dropped rather than chained through further evictions. Size ``capacity``
    well above the per-batch novelty (the default 512 vs. key batches of at
    most a few hundred) and the rule never triggers.
    """

    __slots__ = ("capacity", "_index", "_keys", "_counts", "_size")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._index: Dict[int, int] = {}
        self._keys = np.zeros(self.capacity, dtype=np.int64)
        self._counts = np.zeros(self.capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ----------------------------------------------------------------- update
    def update(self, keys: list, counts: list) -> None:
        """Add ``counts[i]`` observations of ``keys[i]`` (keys distinct)."""
        index = self._index
        sketch_counts = self._counts
        fresh: list = []
        for key, count in zip(keys, counts):
            slot = index.get(key)
            if slot is not None:
                sketch_counts[slot] += count
            else:
                fresh.append((key, count))
        if not fresh:
            return
        size = self._size
        sketch_keys = self._keys
        free = self.capacity - size
        if free:
            for key, count in fresh[:free]:
                sketch_keys[size] = key
                sketch_counts[size] = count
                index[key] = size
                size += 1
            self._size = size
            fresh = fresh[free:]
            if not fresh:
                return
        # Evict the smallest (count, key) counters, one per remaining fresh
        # key; the hottest fresh keys take the smallest victims. Both orders
        # are total, so the result is independent of dict/stream order.
        if len(fresh) == 1:
            victims = [self._coldest_slot()]
        else:
            fresh.sort(key=lambda pair: (-pair[1], pair[0]))
            victims = np.lexsort(
                (sketch_keys[:size], sketch_counts[:size])
            ).tolist()
        for (key, count), slot in zip(fresh, victims):
            evicted = int(sketch_keys[slot])
            del index[evicted]
            sketch_keys[slot] = key
            sketch_counts[slot] += count  # inherit the evicted estimate
            index[key] = slot

    def _coldest_slot(self) -> int:
        """The slot of the smallest ``(count, key)`` pair of a full sketch.

        The first element of the eviction order — ``np.lexsort((keys,
        counts))[0]`` — without sorting every slot: one fresh key per call
        is the common eviction, and it needs one victim.
        """
        counts = self._counts
        ties = np.flatnonzero(counts == counts.min())
        if len(ties) == 1:
            return int(ties[0])
        return int(ties[self._keys[ties].argmin()])

    def scale(self, factor: float) -> None:
        """Multiply every counter by ``factor`` (exponential decay)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self._counts[: self._size] *= factor

    # ---------------------------------------------------------------- queries
    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, estimates)`` sorted by decreasing estimate, ties by key.

        The deterministic total order makes top-k selections reproducible
        even when estimates tie exactly.
        """
        size = self._size
        keys = self._keys[:size]
        counts = self._counts[:size]
        order = np.lexsort((keys, -counts))
        return keys[order].copy(), counts[order].copy()


class AccessStats:
    """Decayed access statistics observed from the PS hot path.

    ``observe`` is the tap the parameter server calls with each direct-access
    key batch (the same key arrays its charge plans are built from); it only
    accumulates. On the round engine's replay path the tap is fed per chunk,
    in call order, through ``observe_calls``, which is bit-equal to the
    ``observe`` sequence it stands for. ``decay_to`` ages the statistics to
    a simulated timestamp with half-life ``half_life`` and is called by the
    controller at adaptation boundaries, so decay granularity equals the
    adaptation period.
    """

    def __init__(self, num_keys: int, capacity: int = 512,
                 half_life: float = 0.02) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.num_keys = int(num_keys)
        self.half_life = float(half_life)
        self.sketch = SpaceSavingSketch(capacity)
        #: Decayed total of observed accesses (same decay as the sketch).
        self.total_observed = 0.0
        #: Undecayed lifetime total (warm-up gating, reporting).
        self.lifetime_observed = 0.0
        self._time = 0.0

    # ----------------------------------------------------------------- taps
    def observe(self, keys: np.ndarray) -> None:
        """Record one batch of accessed keys (hot path: accumulate only)."""
        n = len(keys)
        if n == 0:
            return
        self.total_observed += n
        self.lifetime_observed += n
        self._update_sketch(keys)

    def _update_sketch(self, keys: np.ndarray) -> None:
        """One call's keys as one sketch update, repeated keys grouped."""
        if len(keys) <= 32:
            grouped: Dict[int, int] = {}
            for key in keys.tolist():
                grouped[key] = grouped.get(key, 0) + 1
            self.sketch.update(list(grouped.keys()), list(grouped.values()))
        else:
            unique, counts = np.unique(np.asarray(keys), return_counts=True)
            self.sketch.update(unique.tolist(), counts.tolist())

    def observe_calls(self, keys: np.ndarray, spans) -> None:
        """Record a chunk's calls at once, exactly as if observed one by one.

        Stands for ``observe(keys[lo:hi])`` for each ``(lo, hi)`` of
        ``spans``, in that order (the point chargers' direct-access calls:
        a data point's direct keys are pulled, then pushed), and leaves the
        sketch and both totals bit-equal to that sequence. Counters are
        decayed floats, so every call adds its own ``1`` per key and its own
        ``n`` to the totals; nothing is summed ahead. A call whose keys are
        all tracked and distinct — the common one — is a dictionary lookup
        and an addition per key, and a call repeating the span before it
        reuses that lookup. Any other call (an untracked key, a key repeated
        within the call) goes through :meth:`SpaceSavingSketch.update` like
        :meth:`observe`, so free slots, eviction and batch overflow keep
        their one implementation.
        """
        keys_list = keys.tolist()
        counts = self.sketch._counts
        slot_of = self.sketch._index.get
        total, lifetime = self.total_observed, self.lifetime_observed
        last = slots = None
        for span in spans:
            lo, hi = span
            n = hi - lo
            if n == 0:
                continue
            total += n
            lifetime += n
            if slots is None or span != last:
                slots = [slot_of(key) for key in keys_list[lo:hi]]
                if None in slots or len(set(slots)) != n:
                    slots = None
            last = span
            if slots is None:
                # May fill a slot or evict: the next call looks up again.
                self._update_sketch(keys[lo:hi])
            else:
                for slot in slots:
                    counts[slot] += 1
        self.total_observed, self.lifetime_observed = total, lifetime

    # ----------------------------------------------------------------- decay
    def decay_to(self, now: float) -> None:
        """Age the statistics to simulated time ``now`` (idempotent)."""
        now = float(now)
        if now <= self._time:
            return
        factor = 0.5 ** ((now - self._time) / self.half_life)
        self.sketch.scale(factor)
        self.total_observed *= factor
        self._time = now

    # --------------------------------------------------------------- queries
    def mean_frequency(self) -> float:
        """Decayed mean access frequency over the whole key space."""
        return self.total_observed / self.num_keys

    def hot_keys(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, estimates)`` of the tracked hot set, hottest first."""
        return self.sketch.items()

    def describe(self) -> dict:
        return {
            "num_keys": self.num_keys,
            "half_life": self.half_life,
            "capacity": self.sketch.capacity,
            "tracked": len(self.sketch),
            "total_observed": self.total_observed,
            "lifetime_observed": self.lifetime_observed,
        }
