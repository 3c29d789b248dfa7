"""Dirty-set coverage audit for :class:`MetricsRegistry`.

The runner's epoch attribution and the telemetry sampler both key off the
dirty set returned by ``drain_dirty``. These tests pin the contract the obs
layer relies on: every write path — ``increment``, ``record_access``,
``record_access_batch`` — marks each counter it writes dirty, even when the
value ends where it started. They also pin the one behavioral asymmetry
between the single and the batch recorder (zero counts), which must not
silently change: epoch metrics depend on it.
"""

from __future__ import annotations

from repro.simulation.metrics import MetricsRegistry


class TestEveryWriteMarksItsCounters:
    def test_increment_marks_name(self):
        registry = MetricsRegistry()
        registry.increment("network.messages", 3)
        dirty = registry.drain_dirty()
        assert "network.messages" in dirty
        assert registry.get("network.messages") == 3

    def test_record_access_marks_label_and_total(self):
        registry = MetricsRegistry()
        registry.record_access("pull.remote", count=4)
        dirty = registry.drain_dirty()
        assert dirty == {"access.pull.remote", "access.total"}
        assert registry.get("access.pull.remote") == 4
        assert registry.get("access.total") == 4

    def test_every_write_path_dirties_what_it_writes(self):
        registry = MetricsRegistry()
        registry.increment("relocation.moves", 1)
        registry.record_access("pull.local", count=2)
        registry.record_access_batch(
            {"push.local": 3, "push.replica": 2, "sample.local": 1}
        )
        assert registry.drain_dirty() == set(registry.counters())

    def test_net_zero_counter_still_reported_dirty(self):
        registry = MetricsRegistry()
        registry.increment("faults.lost_updates", 1)
        registry.increment("faults.lost_updates", -1)
        assert registry.get("faults.lost_updates") == 0.0
        assert "faults.lost_updates" in registry.drain_dirty()


class TestZeroCountBehaviorPinned:
    """The single/batch recorders differ on zero counts — by (frozen) design.

    ``record_access(kind, 0)`` creates the counters and marks them
    dirty; ``record_access_batch`` skips zero entries entirely. Epoch metric
    dictionaries (``EpochRecord.metrics``) observe this difference, so
    changing either side would break bit-identity with committed results.
    """

    def test_record_access_zero_count_creates_and_dirties(self):
        registry = MetricsRegistry()
        registry.record_access("pull.local", count=0)
        dirty = registry.drain_dirty()
        assert "access.pull.local" in dirty
        assert "access.total" in dirty
        assert registry.get("access.pull.local") == 0.0

    def test_record_access_batch_skips_zero_counts(self):
        registry = MetricsRegistry()
        registry.record_access_batch({"pull.local": 0, "push.local": 0})
        assert registry.drain_dirty() == set()
        assert registry.counters() == {}


class TestSnapshotDiffHelpers:
    def test_diff_reports_only_changed_counters(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        baseline = registry.counters()
        registry.increment("a", 2)
        registry.increment("b", 5)
        assert registry.diff(baseline) == {"a": 2.0, "b": 5.0}

    def test_diff_is_signed(self):
        registry = MetricsRegistry()
        registry.increment("a", 3)
        baseline = registry.counters()
        registry.increment("a", -1)
        assert registry.diff(baseline) == {"a": -1.0}

    def test_diff_empty_when_unchanged(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        assert registry.diff(registry.counters()) == {}

    def test_mark_dirty_restores_peeked_names(self):
        """The sampler peek idiom: drain + mark_dirty leaves the set intact."""
        registry = MetricsRegistry()
        registry.increment("a", 1)
        registry.record_access("pull.local", count=1)
        peeked = registry.drain_dirty()
        registry.mark_dirty(peeked)
        # A later (runner) drain still sees everything the peek saw.
        assert registry.drain_dirty() == peeked

    def test_counters_copy_is_detached(self):
        registry = MetricsRegistry()
        registry.increment("a", 1)
        copy = registry.counters()
        registry.increment("a", 1)
        assert copy["a"] == 1.0
