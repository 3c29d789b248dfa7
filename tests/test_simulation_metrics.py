"""Tests for the metrics registry."""

from repro.simulation.metrics import MetricsRegistry


class TestMetricsRegistry:
    def test_unknown_counter_is_zero(self):
        assert MetricsRegistry().get("does.not.exist") == 0.0

    def test_increment_global(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 2.0)
        metrics.increment("a", 3.0)
        assert metrics.get("a") == 5.0

    def test_record_access_updates_total(self):
        metrics = MetricsRegistry()
        metrics.record_access("pull.local", count=3)
        metrics.record_access("pull.remote", count=2)
        assert metrics.get("access.pull.local") == 3
        assert metrics.get("access.pull.remote") == 2
        assert metrics.get("access.total") == 5

    def test_record_access_batch_equals_record_access_sequence(self):
        batch, sequence = MetricsRegistry(), MetricsRegistry()
        counts = {"pull.local": 3, "pull.remote": 2, "push.replica.local": 5}
        batch.record_access_batch(counts)
        for kind, count in counts.items():
            sequence.record_access(kind, count=count)
        assert batch.counters() == sequence.counters()
        assert batch.drain_dirty() == sequence.drain_dirty()

    def test_record_access_batch_skips_zero_counts(self):
        metrics = MetricsRegistry()
        metrics.record_access_batch({"pull.local": 0, "pull.remote": 0})
        assert metrics.counters() == {}
        assert metrics.drain_dirty() == set()
        metrics.record_access_batch({"pull.local": 0, "pull.remote": 2})
        assert metrics.counters() == {"access.pull.remote": 2,
                                      "access.total": 2}

    def test_diff_omits_unchanged_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 1)
        metrics.increment("b", 2)
        baseline = metrics.counters()
        metrics.increment("b", 3)
        metrics.increment("c", -1)
        assert metrics.diff(baseline) == {"b": 3, "c": -1}

    def test_counters_returns_copy(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 1)
        counters = metrics.counters()
        counters["a"] = 99
        assert metrics.get("a") == 1
