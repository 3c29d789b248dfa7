"""Tests for the multi-technique management plan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.management import DEFAULT_HOT_SPOT_FACTOR, ManagementPlan


class TestConstruction:
    def test_rejects_empty_key_space(self):
        with pytest.raises(ValueError):
            ManagementPlan(0, [])

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(KeyError):
            ManagementPlan(10, [10])
        with pytest.raises(KeyError):
            ManagementPlan(10, [-1])

    def test_duplicate_keys_are_deduplicated(self):
        plan = ManagementPlan(10, [1, 1, 2])
        assert plan.num_replicated == 2

    def test_relocate_all(self):
        plan = ManagementPlan.relocate_all(10)
        assert plan.num_replicated == 0

    def test_replicate_all(self):
        plan = ManagementPlan(10, np.arange(10))
        assert plan.num_replicated == 10
        assert plan.replicated_share == 1.0
        assert plan.replicated_mask().all()


class TestTechniqueQueries:
    def test_is_replicated_bounds_checked(self):
        plan = ManagementPlan(10, [0])
        with pytest.raises(KeyError):
            plan.is_replicated(10)
        with pytest.raises(KeyError):
            plan.is_replicated(-1)

    def test_technique_per_key(self):
        plan = ManagementPlan(10, [0, 5])
        assert [plan.is_replicated(key) for key in range(10)] == \
            [key in (0, 5) for key in range(10)]

    def test_binary_search_membership_matches_dense_mask(self):
        """Massive key spaces answer membership by binary search; it agrees
        with the dense mask that smaller ones use, at the ends too."""
        rng = np.random.default_rng(4)
        plan = ManagementPlan(1000, rng.choice(1000, size=37, replace=False))
        keys = np.concatenate([np.arange(1000), [0, 999]])
        np.testing.assert_array_equal(plan._membership(keys),
                                      plan.replicated_mask(keys))
        empty = ManagementPlan.relocate_all(1000)
        assert not empty._membership(keys).any()

    def test_replicated_mask_subset(self):
        plan = ManagementPlan(10, [2, 4])
        mask = plan.replicated_mask(np.array([1, 2, 3, 4]))
        assert mask.tolist() == [False, True, False, True]

    def test_replicated_mask_full(self):
        plan = ManagementPlan(4, [1])
        assert plan.replicated_mask().tolist() == [False, True, False, False]

    def test_replicated_value_bytes(self):
        plan = ManagementPlan(10, [0, 1, 2])
        assert plan.replicated_value_bytes(value_length=8) == 3 * 8 * 4


class TestHotSpotHeuristic:
    def test_replicates_keys_above_factor_times_mean(self):
        counts = np.ones(100)
        counts[7] = 300.0   # mean is ~61, 10x mean is ~610 -> not replicated
        counts[3] = 5000.0  # clearly above the threshold
        plan = ManagementPlan.from_access_counts(counts, hot_spot_factor=10.0)
        assert plan.is_replicated(3)
        assert not plan.is_replicated(7)
        assert not plan.is_replicated(0)

    def test_no_hot_spots_means_no_replication(self):
        plan = ManagementPlan.from_access_counts(np.ones(50))
        assert plan.num_replicated == 0

    def test_default_factor_is_100(self):
        assert DEFAULT_HOT_SPOT_FACTOR == 100.0

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            ManagementPlan.from_access_counts(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ManagementPlan.from_access_counts(-np.ones(5))
        with pytest.raises(ValueError):
            ManagementPlan.from_access_counts(np.ones(5), hot_spot_factor=0)

    def test_zipf_counts_replicate_only_the_head(self):
        ranks = np.arange(1, 1001, dtype=np.float64)
        counts = 100000.0 / ranks ** 1.5
        plan = ManagementPlan.from_access_counts(counts)
        assert 0 < plan.num_replicated < 50
        # The replicated keys must be the most frequent ones.
        top = set(np.argsort(counts)[::-1][: plan.num_replicated].tolist())
        assert set(plan.replicated_keys.tolist()) == top


class TestTopK:
    def test_top_k_selects_most_frequent(self):
        counts = np.array([5.0, 1.0, 9.0, 3.0])
        plan = ManagementPlan.top_k_by_count(counts, 2)
        assert set(plan.replicated_keys.tolist()) == {0, 2}

    def test_top_k_zero_relocates_all(self):
        plan = ManagementPlan.top_k_by_count(np.arange(5, dtype=float), 0)
        assert plan.num_replicated == 0

    def test_top_k_clipped_to_key_count(self):
        plan = ManagementPlan.top_k_by_count(np.arange(5, dtype=float), 99)
        assert plan.num_replicated == 5

    def test_top_k_rejects_negative(self):
        with pytest.raises(ValueError):
            ManagementPlan.top_k_by_count(np.arange(5, dtype=float), -1)


@settings(deadline=None, max_examples=50)
@given(
    num_keys=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
def test_partition_into_techniques_is_total(num_keys, data):
    """Every key is managed by exactly one technique and the counts add up."""
    replicated = data.draw(
        st.lists(st.integers(min_value=0, max_value=num_keys - 1), max_size=num_keys)
    )
    plan = ManagementPlan(num_keys, replicated)
    mask = plan.replicated_mask()
    assert len(mask) == num_keys and mask.sum() == plan.num_replicated
    for key in range(0, num_keys, max(1, num_keys // 20)):
        assert plan.is_replicated(key) == mask[key]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=300),
       st.floats(min_value=1.0, max_value=500.0))
def test_heuristic_threshold_property(counts, factor):
    """A key is replicated iff its count strictly exceeds factor * mean."""
    counts = np.asarray(counts)
    plan = ManagementPlan.from_access_counts(counts, hot_spot_factor=factor)
    threshold = factor * counts.mean()
    expected = set(np.flatnonzero(counts > threshold).tolist())
    assert set(plan.replicated_keys.tolist()) == expected
