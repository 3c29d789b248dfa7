"""Metrics collection for the simulated cluster.

All parameter servers in this repository record what they do — local versus
remote accesses, messages, bytes, relocations, replica synchronizations,
sampling accesses — into a :class:`MetricsRegistry`. The benchmark harness
reads these counters to reproduce the paper's tables (e.g. Table 3's "share of
accesses to replicas") and to explain run-time differences. Every reader
wants cluster-wide totals, so there is one counter per name.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping


class MetricsRegistry:
    """Cluster-wide counters by name, plus the names written since a drain."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        # Interned ``kind -> "access.<kind>"`` labels: composing the label is
        # on the hot path of every parameter access, so it is done once per
        # distinct kind instead of once per call.
        self._access_labels: Dict[str, str] = {}
        # Counter names written since the last ``drain_dirty`` call.
        # Value-diff snapshots cannot tell "touched but net zero" (e.g. +1
        # then -1 within an epoch) from "untouched"; this set can.
        self._dirty: set = set()

    # ---------------------------------------------------------------- writing
    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] += amount
        self._dirty.add(name)

    def record_access(self, kind: str, count: int = 1) -> None:
        """Record ``count`` parameter accesses of ``kind``.

        ``kind`` is a dotted label such as ``"pull.local"``, ``"pull.remote"``,
        ``"push.replica"`` or ``"sample.local"``.
        """
        label = self._access_labels.get(kind)
        if label is None:
            label = "access." + kind
            self._access_labels[kind] = label
        counters = self._counters
        counters[label] += count
        counters["access.total"] += count
        self._dirty.add(label)
        self._dirty.add("access.total")

    def record_access_batch(self, counts: Mapping[str, float]) -> None:
        """Record several access kinds at once (one ``access.total`` update).

        Equivalent to calling :meth:`record_access` once per nonzero
        ``(kind, count)`` pair; counters end up identical because all amounts
        are integral. Zero entries are skipped: they create no counter.
        """
        total = 0
        labels = self._access_labels
        counters = self._counters
        dirty = self._dirty
        for kind, count in counts.items():
            if not count:
                continue
            label = labels.get(kind)
            if label is None:
                label = "access." + kind
                labels[kind] = label
            counters[label] += count
            dirty.add(label)
            total += count
        if total:
            counters["access.total"] += total
            dirty.add("access.total")

    def drain_dirty(self) -> set:
        """Names of counters written since the last drain (and reset).

        The experiment runner drains at epoch boundaries to attribute counter
        activity to epochs: a counter that was written during the epoch shows
        up in the epoch's delta even when its value ended where it started.
        """
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def mark_dirty(self, names: Iterable[str]) -> None:
        """Re-add ``names`` to the dirty set.

        Lets a reader *peek* the dirty set non-destructively —
        ``mark_dirty(drain_dirty())`` — so e.g. the telemetry sampler can
        observe mid-epoch activity without eating the runner's epoch-scoped
        drain (which would change ``EpochRecord.metrics``).
        """
        self._dirty.update(names)

    # ---------------------------------------------------------------- reading
    def get(self, name: str) -> float:
        """Return the value of counter ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """A detached copy of all counters (for reporting and diffs)."""
        return dict(self._counters)

    def diff(self, baseline: Mapping[str, float]) -> Dict[str, float]:
        """Counter deltas against an earlier :meth:`counters` copy.

        Counters whose value did not change are omitted (callers that need
        touched-but-net-zero names join this with the dirty set). Counters
        are monotone in practice, but the diff is signed regardless.
        """
        return {
            name: value - baseline.get(name, 0.0)
            for name, value in self._counters.items()
            if value != baseline.get(name, 0.0)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        top = sorted(self._counters.items())[:8]
        return f"MetricsRegistry({dict(top)}...)"
