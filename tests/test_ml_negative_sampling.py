"""Tests for the negative-sample stream helper."""

import numpy as np
import pytest

from repro.core.sampling.distributions import UniformDistribution
from repro.ml.negative_sampling import NegativeSampleStream
from repro.ps.local import SingleNodePS
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, ClusterConfig


@pytest.fixture
def env():
    cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
    store = ParameterStore(50, 3, seed=0, init_scale=0.1)
    ps = SingleNodePS(store, cluster)
    dist_id = ps.register_distribution(UniformDistribution(0, 50))
    return ps, cluster.worker(0, 0), dist_id


class TestNegativeSampleStream:
    def test_rejects_negative_total(self, env):
        ps, worker, dist_id = env
        with pytest.raises(ValueError):
            NegativeSampleStream(ps, worker, dist_id, -1)

    def test_empty_stream_returns_empty_results(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 0)
        result = stream.next(5)
        assert len(result.keys) == 0
        assert result.values.shape == (0, ps.store.value_length)

    def test_delivers_exactly_the_requested_total(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 10)
        first = stream.next(4)
        second = stream.next(4)
        third = stream.next(4)  # only 2 remain
        assert len(first.keys) == 4
        assert len(second.keys) == 4
        assert len(third.keys) == 2
        assert stream.remaining == 0

    def test_next_zero_is_a_noop(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 3)
        assert len(stream.next(0).keys) == 0
        assert stream.remaining == 3

    def test_next_negative_rejected(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 3)
        with pytest.raises(ValueError):
            stream.next(-1)

    def test_values_match_store(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 5)
        result = stream.next(5)
        np.testing.assert_allclose(result.values, ps.store.get(result.keys), rtol=1e-6)

    def test_push_updates_applies_deltas(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 3)
        result = stream.next(3)
        unique_keys, first_index = np.unique(result.keys, return_index=True)
        before = ps.store.get(unique_keys)
        deltas = np.ones((3, ps.store.value_length), dtype=np.float32)
        stream.push_updates(result.keys, deltas)
        counts = np.array([np.count_nonzero(result.keys == k) for k in unique_keys])
        np.testing.assert_allclose(
            ps.store.get(unique_keys), before + counts[:, None], rtol=1e-5
        )

    def test_push_updates_with_empty_keys_is_noop(self, env):
        ps, worker, dist_id = env
        stream = NegativeSampleStream(ps, worker, dist_id, 1)
        stream.push_updates(np.empty(0, dtype=np.int64),
                            np.empty((0, ps.store.value_length), dtype=np.float32))

    def test_drain_delivers_the_keys_the_pulls_would(self, env):
        ps, worker, dist_id = env
        ps.rng = np.random.default_rng(0)
        pulled = NegativeSampleStream(ps, worker, dist_id, 9)
        expected = np.concatenate([pulled.next(4).keys, pulled.next(5).keys])
        ps.rng = np.random.default_rng(0)  # the same draws for the twin
        stream = NegativeSampleStream(ps, worker, dist_id, 9)
        clock_before = worker.clock.now
        drained = stream.drain()
        # Same keys in the same order, nothing charged, handle exhausted.
        assert drained.tolist() == expected.tolist()
        assert worker.clock.now == clock_before
        assert stream.remaining == 0
        assert stream._handle.remaining == 0
        assert len(stream.next(3).keys) == 0
        assert len(stream.drain()) == 0

    def test_drain_after_partial_pulls_returns_the_rest(self, env):
        ps, worker, dist_id = env
        ps.rng = np.random.default_rng(3)
        all_keys = NegativeSampleStream(ps, worker, dist_id, 7).drain()
        ps.rng = np.random.default_rng(3)
        stream = NegativeSampleStream(ps, worker, dist_id, 7)
        head = stream.next(3).keys
        assert np.concatenate([head, stream.drain()]).tolist() == all_keys.tolist()

    def test_drain_of_an_empty_stream(self, env):
        ps, worker, dist_id = env
        drained = NegativeSampleStream(ps, worker, dist_id, 0).drain()
        assert drained.dtype == np.int64 and len(drained) == 0
