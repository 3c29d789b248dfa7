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

    def test_increment_per_node(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 2.0, node=1)
        metrics.increment("a", 1.0, node=2)
        assert metrics.get("a") == 3.0
        assert metrics.get("a", node=1) == 2.0
        assert metrics.get("a", node=2) == 1.0
        assert metrics.get("a", node=3) == 0.0

    def test_record_access_updates_total(self):
        metrics = MetricsRegistry()
        metrics.record_access("pull.local", node=0, count=3)
        metrics.record_access("pull.remote", node=1, count=2)
        assert metrics.get("access.pull.local") == 3
        assert metrics.get("access.pull.remote") == 2
        assert metrics.get("access.total") == 5

    def test_total_matching_prefix(self):
        metrics = MetricsRegistry()
        metrics.increment("access.pull.local", 1)
        metrics.increment("access.pull.remote", 2)
        metrics.increment("access.push.local", 4)
        assert metrics.total_matching("access.pull") == 3
        assert metrics.total_matching("access.") == 7

    def test_counters_returns_copy(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 1)
        counters = metrics.counters()
        counters["a"] = 99
        assert metrics.get("a") == 1

    def test_nodes_listing(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 1, node=3)
        metrics.increment("b", 1, node=1)
        assert list(metrics.nodes()) == [1, 3]

    def test_node_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("a", 2, node=0)
        assert metrics.node_counters(0) == {"a": 2}
        assert metrics.node_counters(9) == {}

    def test_merge(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        first.increment("a", 1, node=0)
        second.increment("a", 2, node=0)
        second.increment("b", 5)
        first.merge(second)
        assert first.get("a") == 3
        assert first.get("b") == 5
        assert first.get("a", node=0) == 3

    def test_snapshot(self):
        metrics = MetricsRegistry()
        metrics.increment("x", 7)
        assert metrics.snapshot() == {"x": 7}
