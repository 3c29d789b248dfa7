"""Tests for the sampling schemes and the sampling manager, run against NuPS.

The statistical conformity properties (Table 1) are checked empirically:
independent sampling and sample reuse must match the target first-order
inclusion probabilities, local sampling need not.
"""

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import CategoricalDistribution, UniformDistribution
from repro.core.sampling.manager import SamplingConfig
from repro.core.sampling.schemes import (
    LOCAL_REFRESH_INTERVAL,
    IndependentSamplingScheme,
    LocalSamplingScheme,
    PoolSampleReuseScheme,
    PostponingSampleReuseScheme,
    SchemeConfig,
    _NodePoolState,
)
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster, ClusterConfig


NUM_KEYS = 64


@pytest.fixture
def small_cluster(network):
    return Cluster(ClusterConfig(num_nodes=2, workers_per_node=1, network=network))


def make_nups(cluster, scheme_override=None, pool_size=8, use_frequency=4,
              replicated=()):
    store = ParameterStore(NUM_KEYS, 2, seed=0, init_scale=0.1)
    plan = ManagementPlan(NUM_KEYS, np.asarray(replicated, dtype=np.int64))
    config = SamplingConfig(
        scheme_config=SchemeConfig(pool_size=pool_size,
                                   use_frequency=use_frequency),
        scheme_override=scheme_override,
    )
    return NuPS(store, cluster, plan=plan, sampling_config=config,
                sync_interval=0.01, seed=1)


def drain(ps, worker, distribution_id, total, portion=None):
    """Draw ``total`` samples through prepare/pull and return all keys."""
    handle = ps.prepare_sample(worker, distribution_id, total)
    keys = []
    while handle.remaining:
        count = handle.remaining if portion is None else min(portion, handle.remaining)
        result = ps.pull_sample(worker, handle, count)
        keys.extend(result.keys.tolist())
        if len(result.keys) == 0:
            break
    return np.asarray(keys)


class TestSchemeConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SchemeConfig(pool_size=0)
        with pytest.raises(ValueError):
            SchemeConfig(use_frequency=0)


class TestLevelToSchemeMapping:
    @pytest.mark.parametrize("level,expected", [
        (ConformityLevel.CONFORM, IndependentSamplingScheme),
        (ConformityLevel.BOUNDED, PoolSampleReuseScheme),
        (ConformityLevel.LONG_TERM, PostponingSampleReuseScheme),
        (ConformityLevel.NON_CONFORM, LocalSamplingScheme),
    ])
    def test_default_scheme_per_level(self, small_cluster, level, expected):
        ps = make_nups(small_cluster)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS), level)
        assert isinstance(ps.sampling_manager.scheme_for(dist_id), expected)

    def test_scheme_override_by_name(self, small_cluster):
        ps = make_nups(small_cluster, scheme_override="local")
        dist_id = ps.register_distribution(
            UniformDistribution(0, NUM_KEYS), ConformityLevel.CONFORM
        )
        assert isinstance(ps.sampling_manager.scheme_for(dist_id), LocalSamplingScheme)

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(scheme_override="nonexistent")


class TestSamplingManagerValidation:
    def test_unknown_distribution_id(self, small_cluster):
        ps = make_nups(small_cluster)
        worker = small_cluster.worker(0, 0)
        with pytest.raises(KeyError):
            ps.prepare_sample(worker, 99, 5)

    def test_negative_count_rejected(self, small_cluster):
        ps = make_nups(small_cluster)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS))
        with pytest.raises(ValueError):
            ps.prepare_sample(worker, dist_id, -1)

    def test_overdraw_rejected(self, small_cluster):
        ps = make_nups(small_cluster)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS))
        handle = ps.prepare_sample(worker, dist_id, 3)
        with pytest.raises(ValueError):
            ps.pull_sample(worker, handle, 4)


class TestExactSampleCounts:
    @pytest.mark.parametrize("level", list(ConformityLevel))
    def test_total_samples_delivered(self, small_cluster, level):
        """Every scheme delivers exactly the requested number of samples."""
        ps = make_nups(small_cluster)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS), level)
        keys = drain(ps, worker, dist_id, 40, portion=7)
        assert len(keys) == 40
        assert keys.min() >= 0 and keys.max() < NUM_KEYS

    def test_values_match_current_parameters(self, small_cluster):
        ps = make_nups(small_cluster)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.CONFORM)
        handle = ps.prepare_sample(worker, dist_id, 5)
        result = ps.pull_sample(worker, handle)
        np.testing.assert_allclose(result.values, ps.store.get(result.keys), rtol=1e-6)


class TestConformityStatistics:
    def _empirical(self, small_cluster, level, total=6000, **kwargs):
        ps = make_nups(small_cluster, **kwargs)
        worker = small_cluster.worker(0, 0)
        dist = CategoricalDistribution(np.linspace(1.0, 4.0, NUM_KEYS))
        dist_id = ps.register_distribution(dist, level)
        keys = drain(ps, worker, dist_id, total, portion=50)
        counts = np.bincount(keys, minlength=NUM_KEYS) / len(keys)
        return counts, dist.probabilities()

    def test_independent_sampling_matches_target(self, small_cluster):
        empirical, target = self._empirical(small_cluster, ConformityLevel.CONFORM)
        np.testing.assert_allclose(empirical, target, atol=0.02)

    def test_sample_reuse_matches_target_first_order(self, small_cluster):
        empirical, target = self._empirical(small_cluster, ConformityLevel.BOUNDED)
        np.testing.assert_allclose(empirical, target, atol=0.02)

    def test_postponing_matches_target_long_term(self, small_cluster):
        empirical, target = self._empirical(small_cluster, ConformityLevel.LONG_TERM)
        np.testing.assert_allclose(empirical, target, atol=0.02)

    def test_sample_reuse_reuses_each_fresh_sample(self, small_cluster):
        """With pool size G and use frequency U, each distinct key appears a
        multiple of U times across full pool traversals."""
        ps = make_nups(small_cluster, pool_size=8, use_frequency=4)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.BOUNDED)
        keys = drain(ps, worker, dist_id, 32)  # exactly one pool's worth
        counts = np.bincount(keys, minlength=NUM_KEYS)
        assert counts.sum() == 32
        assert np.all(counts[counts > 0] % 4 == 0)

    def test_reuse_reduces_fresh_draws(self, small_cluster):
        """Sample reuse relocates far fewer keys than independent sampling."""
        results = {}
        for level in (ConformityLevel.CONFORM, ConformityLevel.BOUNDED):
            cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1,
                                            network=small_cluster.network))
            ps = make_nups(cluster, pool_size=8, use_frequency=4)
            worker = cluster.worker(0, 0)
            dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS), level)
            drain(ps, worker, dist_id, 200, portion=20)
            results[level] = cluster.metrics.get("relocation.sampling")
        assert results[ConformityLevel.BOUNDED] < results[ConformityLevel.CONFORM]

    def test_local_sampling_stays_on_local_partition(self, small_cluster):
        ps = make_nups(small_cluster, scheme_override="local")
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.NON_CONFORM)
        # Enough draws for the local sampler to re-read its candidates twice.
        keys = drain(ps, worker, dist_id, 2 * LOCAL_REFRESH_INTERVAL + 100,
                     portion=25)
        # All sampled keys are local to node 0 at sampling time; since nothing
        # relocates them away in this test, they must all still be local.
        assert all(ps.key_is_local(0, key) for key in np.unique(keys))
        # And no sampling-induced relocations happened.
        assert small_cluster.metrics.get("relocation.sampling") == 0

    def test_local_sampling_is_non_conform_under_static_allocation(self, small_cluster):
        """With a static allocation, node 0 never samples keys of node 1's
        partition — the deviation that makes local sampling NON-CONFORM."""
        ps = make_nups(small_cluster, scheme_override="local")
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.NON_CONFORM)
        keys = drain(ps, worker, dist_id, 500, portion=50)
        other_partition = set(ps.partitioner.keys_of(1).tolist())
        assert other_partition.isdisjoint(set(keys.tolist()))


class TestPoolStream:
    def test_takes_cross_appended_arrays_in_order(self):
        state = _NodePoolState()
        state.extend(np.arange(5))
        state.extend(np.arange(10, 13))
        assert state.take(3).tolist() == [0, 1, 2]
        assert state.take(4).tolist() == [3, 4, 10, 11]
        state.extend(np.array([20]))
        assert len(state) == 2
        assert state.take(2).tolist() == [12, 20]
        with pytest.raises(ValueError):
            state.take(1)

    def test_a_pool_is_its_traversals_in_draw_order(self, small_cluster):
        """One pool: ``pool_size`` iid keys, then ``use_frequency``
        permutations drawn one after another from the node's generator."""
        ps = make_nups(small_cluster, pool_size=8, use_frequency=4)
        distribution = UniformDistribution(0, NUM_KEYS)
        scheme = PoolSampleReuseScheme(ps, distribution,
                                       SchemeConfig(pool_size=8,
                                                    use_frequency=4))
        reference = np.random.default_rng()
        reference.bit_generator.state = ps.sampling_rng(0).bit_generator.state
        state = _NodePoolState()
        scheme._prepare_pool(0, state)
        pool = distribution.sample(reference, 8)
        expected = [pool[reference.permutation(8)] for _ in range(4)]
        assert state.take(len(state)).tolist() \
            == np.concatenate(expected).tolist()
        assert reference.bit_generator.state \
            == ps.sampling_rng(0).bit_generator.state


class TestPostponing:
    def test_non_local_samples_are_postponed_within_handle(self, small_cluster):
        ps = make_nups(small_cluster, pool_size=4, use_frequency=2)
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.LONG_TERM)
        handle = ps.prepare_sample(worker, dist_id, 12)
        # Steal every key of the handle to the other node so nothing is local.
        pending = handle._keys[handle._cursor:].tolist()  # nothing taken yet
        thief = small_cluster.worker(1, 0)
        ps.localize(thief, np.asarray(pending))
        first = ps.pull_sample(worker, handle, 4)
        # Keys were either postponed (moved to the end) or accessed remotely;
        # in all cases exactly 4 samples are delivered...
        assert len(first.keys) == 4
        rest = ps.pull_sample(worker, handle)
        # ... and the handle delivers every prepared sample exactly once.
        assert sorted(first.keys.tolist() + rest.keys.tolist()) == sorted(pending)


class TestDirectAccessRepurposing:
    def test_samples_come_from_recent_direct_accesses(self, small_cluster):
        ps = make_nups(small_cluster, scheme_override="direct_access_repurposing")
        worker = small_cluster.worker(0, 0)
        # Perform some direct accesses first.
        direct_keys = np.array([3, 5, 7, 9])
        ps.pull(worker, direct_keys)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.NON_CONFORM)
        keys = drain(ps, worker, dist_id, 50, portion=10)
        assert set(keys.tolist()) <= set(direct_keys.tolist())

    def test_falls_back_to_iid_without_direct_accesses(self, small_cluster):
        ps = make_nups(small_cluster, scheme_override="direct_access_repurposing")
        worker = small_cluster.worker(0, 0)
        dist_id = ps.register_distribution(UniformDistribution(0, NUM_KEYS),
                                           ConformityLevel.NON_CONFORM)
        keys = drain(ps, worker, dist_id, 30, portion=10)
        assert len(keys) == 30
