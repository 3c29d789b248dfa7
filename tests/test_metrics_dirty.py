"""Dirty-set coverage audit for :class:`MetricsRegistry`.

The runner's epoch attribution and the telemetry sampler both key off the
global-name dirty set returned by ``drain_dirty``. These tests pin the
contract the obs layer relies on: every write path — ``increment`` with a
node, ``record_access``, ``record_access_batch`` — marks the *global*
counter name dirty whenever it touches a node-labelled counter, so the
global name set covers per-node activity too. They also pin the one
behavioral asymmetry between the single and the batch recorder (zero
counts), which must not silently change: epoch metrics depend on it.
"""

from __future__ import annotations

from repro.simulation.metrics import MetricsRegistry


class TestDirtyCoversNodeLabelledWrites:
    def test_increment_with_node_marks_global_name(self):
        registry = MetricsRegistry()
        registry.increment("network.messages", 3, node=2)
        dirty = registry.drain_dirty()
        assert "network.messages" in dirty
        assert registry.get("network.messages", node=2) == 3

    def test_record_access_marks_label_and_total(self):
        registry = MetricsRegistry()
        registry.record_access("pull.remote", node=1, count=4)
        dirty = registry.drain_dirty()
        assert dirty == {"access.pull.remote", "access.total"}
        assert registry.get("access.pull.remote", node=1) == 4
        assert registry.get("access.total", node=1) == 4

    def test_record_access_batch_covers_node_labelled_counters(self):
        """Every per-node name a batch writes appears in the global dirty set.

        This is the regression the sampler audit asked for: a batch update
        through ``record_access_batch`` must leave no node-labelled counter
        whose global name is missing from ``drain_dirty``.
        """
        registry = MetricsRegistry()
        registry.record_access_batch(
            0, {"pull.local": 5, "push.replica": 2, "sample.local": 1}
        )
        dirty = registry.drain_dirty()
        for counters in registry._per_node.values():
            for name in counters:
                assert name in dirty, (
                    f"node counter {name!r} written without dirtying the "
                    "global name"
                )

    def test_every_write_path_keeps_node_names_subset_of_global(self):
        registry = MetricsRegistry()
        registry.increment("relocation.moves", 1, node=0)
        registry.record_access("pull.local", node=1, count=2)
        registry.record_access_batch(1, {"push.local": 3})
        global_names = set(registry.counters())
        for counters in registry._per_node.values():
            assert set(counters) <= global_names

    def test_net_zero_counter_still_reported_dirty(self):
        registry = MetricsRegistry()
        registry.increment("faults.lost_updates", 1, node=0)
        registry.increment("faults.lost_updates", -1, node=0)
        assert registry.get("faults.lost_updates") == 0.0
        assert "faults.lost_updates" in registry.drain_dirty()


class TestZeroCountBehaviorPinned:
    """The single/batch recorders differ on zero counts — by (frozen) design.

    ``record_access(kind, node, 0)`` creates the counters and marks them
    dirty; ``record_access_batch`` skips zero entries entirely. Epoch metric
    dictionaries (``EpochRecord.metrics``) observe this difference, so
    changing either side would break bit-identity with committed results.
    """

    def test_record_access_zero_count_creates_and_dirties(self):
        registry = MetricsRegistry()
        registry.record_access("pull.local", node=0, count=0)
        dirty = registry.drain_dirty()
        assert "access.pull.local" in dirty
        assert "access.total" in dirty
        assert registry.get("access.pull.local") == 0.0

    def test_record_access_batch_skips_zero_counts(self):
        registry = MetricsRegistry()
        registry.record_access_batch(0, {"pull.local": 0, "push.local": 0})
        assert registry.drain_dirty() == set()
        assert registry.counters() == {}
        assert not registry._per_node[0]


class TestSnapshotDiffHelpers:
    def test_diff_reports_only_changed_counters(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        baseline = registry.snapshot()
        registry.increment("a", 2)
        registry.increment("b", 5, node=1)
        assert registry.diff(baseline) == {"a": 2.0, "b": 5.0}

    def test_diff_is_signed(self):
        registry = MetricsRegistry()
        registry.increment("a", 3)
        baseline = registry.snapshot()
        registry.increment("a", -1)
        assert registry.diff(baseline) == {"a": -1.0}

    def test_diff_empty_when_unchanged(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        assert registry.diff(registry.snapshot()) == {}

    def test_mark_dirty_restores_peeked_names(self):
        """The sampler peek idiom: drain + mark_dirty leaves the set intact."""
        registry = MetricsRegistry()
        registry.increment("a", 1)
        registry.record_access("pull.local", node=0, count=1)
        peeked = registry.drain_dirty()
        registry.mark_dirty(peeked)
        # A later (runner) drain still sees everything the peek saw.
        assert registry.drain_dirty() == peeked

    def test_snapshot_is_detached_copy(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        snap = registry.snapshot()
        registry.increment("a", 1)
        assert snap["a"] == 1.0
