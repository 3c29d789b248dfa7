"""Metrics collection for the simulated cluster.

All parameter servers in this repository record what they do — local versus
remote accesses, messages, bytes, relocations, replica synchronizations,
sampling accesses — into a :class:`MetricsRegistry`. The benchmark harness
reads these counters to reproduce the paper's tables (e.g. Table 3's "share of
accesses to replicas") and to explain run-time differences.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping


class MetricsRegistry:
    """Hierarchical counter registry: global counters plus per-node counters."""

    def __init__(self) -> None:
        self._global: Dict[str, float] = defaultdict(float)
        self._per_node: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # Interned ``kind -> "access.<kind>"`` labels: composing the label is
        # on the hot path of every parameter access, so it is done once per
        # distinct kind instead of once per call.
        self._access_labels: Dict[str, str] = {}
        # Global counter names written since the last ``drain_dirty`` call.
        # Value-diff snapshots cannot tell "touched but net zero" (e.g. +1
        # then -1 within an epoch) from "untouched"; this set can.
        self._dirty: set = set()

    # ---------------------------------------------------------------- writing
    def increment(self, name: str, amount: float = 1.0, node: int | None = None) -> None:
        """Add ``amount`` to counter ``name`` (and to the node's counter)."""
        self._global[name] += amount
        self._dirty.add(name)
        if node is not None:
            self._per_node[node][name] += amount

    def record_access(self, kind: str, node: int, count: int = 1) -> None:
        """Record ``count`` parameter accesses of ``kind`` at ``node``.

        ``kind`` is a dotted label such as ``"pull.local"``, ``"pull.remote"``,
        ``"push.replica"`` or ``"sample.local"``.
        """
        label = self._access_labels.get(kind)
        if label is None:
            label = "access." + kind
            self._access_labels[kind] = label
        counters = self._global
        counters[label] += count
        counters["access.total"] += count
        self._dirty.add(label)
        self._dirty.add("access.total")
        node_counters = self._per_node[node]
        node_counters[label] += count
        node_counters["access.total"] += count

    def record_access_batch(self, node: int, counts: Mapping[str, float]) -> None:
        """Record several access kinds at once (one ``access.total`` update).

        Equivalent to calling :meth:`record_access` once per ``(kind, count)``
        pair; counters end up identical because all amounts are integral.
        """
        total = 0
        labels = self._access_labels
        counters = self._global
        node_counters = self._per_node[node]
        dirty = self._dirty
        for kind, count in counts.items():
            if not count:
                continue
            label = labels.get(kind)
            if label is None:
                label = "access." + kind
                labels[kind] = label
            counters[label] += count
            node_counters[label] += count
            dirty.add(label)
            total += count
        if total:
            counters["access.total"] += total
            node_counters["access.total"] += total
            dirty.add("access.total")

    def drain_dirty(self) -> set:
        """Names of global counters written since the last drain (and reset).

        The experiment runner drains at epoch boundaries to attribute counter
        activity to epochs: a counter that was written during the epoch shows
        up in the epoch's delta even when its value ended where it started.

        The set is global-name keyed by design: per-node counters are only
        ever written together with their global counterpart (``increment``
        with a node, ``record_access``, ``record_access_batch``), so the
        global name set covers node-labelled activity too — audited by
        ``tests/test_metrics_dirty.py``.
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
    def get(self, name: str, node: int | None = None) -> float:
        """Return the value of counter ``name`` (0.0 if never incremented)."""
        if node is None:
            return self._global.get(name, 0.0)
        return self._per_node.get(node, {}).get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """A copy of all global counters."""
        return dict(self._global)

    def snapshot(self) -> Mapping[str, float]:
        """Immutable-ish view of the global counters (for reporting)."""
        return dict(self._global)

    def diff(self, baseline: Mapping[str, float]) -> Dict[str, float]:
        """Global-counter deltas against an earlier :meth:`snapshot`.

        Counters whose value did not change are omitted (callers that need
        touched-but-net-zero names join this with the dirty set). Counters
        are monotone in practice, but the diff is signed regardless.
        """
        return {
            name: value - baseline.get(name, 0.0)
            for name, value in self._global.items()
            if value != baseline.get(name, 0.0)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        top = sorted(self._global.items())[:8]
        return f"MetricsRegistry({dict(top)}...)"
