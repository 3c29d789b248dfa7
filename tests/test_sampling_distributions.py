"""Tests for the target sampling distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling.distributions import (
    CategoricalDistribution,
    UniformDistribution,
    UnigramDistribution,
)


def _scalar_probability(weights, key_offset, key) -> float:
    """π_key from the distribution's weights, one key at a time."""
    index = key - key_offset
    if not 0 <= index < len(weights):
        return 0.0
    return weights[index] / sum(weights)


class TestProbabilitiesOf:
    """The vectorized batch probability lookup matches a per-key reference
    computed from the distribution's weights."""

    @pytest.mark.parametrize("dist, weights", [
        (UniformDistribution(key_offset=10, support_size=5), [1.0] * 5),
        (CategoricalDistribution([1.0, 3.0, 6.0], key_offset=4), [1.0, 3.0, 6.0]),
        (UnigramDistribution([5.0, 1.0, 2.0, 8.0], key_offset=0),
         [5.0 ** 0.75, 1.0, 2.0 ** 0.75, 8.0 ** 0.75]),
    ], ids=["dist0", "dist1", "dist2"])
    def test_matches_scalar_probability(self, dist, weights):
        keys = np.array([0, 4, 5, 6, 9, 10, 12, 14, 15, 100], dtype=np.int64)
        expected = [_scalar_probability(weights, dist.key_offset, int(key))
                    for key in keys]
        np.testing.assert_allclose(dist.probabilities_of(keys), expected,
                                   rtol=1e-12)

    def test_empty_batch(self):
        dist = UniformDistribution(0, 4)
        assert len(dist.probabilities_of(np.empty(0, dtype=np.int64))) == 0


class TestUniformDistribution:
    def test_probability_inside_and_outside_support(self):
        dist = UniformDistribution(key_offset=10, support_size=5)
        np.testing.assert_allclose(dist.probabilities_of([10, 14, 9, 15]),
                                   [0.2, 0.2, 0.0, 0.0])

    def test_probabilities_sum_to_one(self):
        dist = UniformDistribution(0, 7)
        assert dist.probabilities_of(np.arange(7)).sum() == pytest.approx(1.0)

    def test_samples_within_support(self):
        dist = UniformDistribution(key_offset=100, support_size=50)
        samples = dist.sample(np.random.default_rng(0), 1000)
        assert samples.min() >= 100
        assert samples.max() < 150

    def test_samples_are_roughly_uniform(self):
        dist = UniformDistribution(0, 10)
        samples = dist.sample(np.random.default_rng(1), 50_000)
        counts = np.bincount(samples, minlength=10) / 50_000
        np.testing.assert_allclose(counts, 0.1, atol=0.01)

    def test_support_keys(self):
        dist = UniformDistribution(key_offset=3, support_size=4)
        probabilities = dist.probabilities_of(np.arange(10))
        np.testing.assert_array_equal(np.flatnonzero(probabilities), [3, 4, 5, 6])

    def test_in_support_mask(self):
        dist = UniformDistribution(key_offset=3, support_size=4)
        mask = dist.in_support(np.array([2, 3, 6, 7]))
        assert mask.tolist() == [False, True, True, False]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UniformDistribution(0, 0)
        with pytest.raises(ValueError):
            UniformDistribution(-1, 5)

    def test_sample_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UniformDistribution(0, 5).sample(np.random.default_rng(0), -1)


class TestCategoricalDistribution:
    def test_probabilities_follow_weights(self):
        dist = CategoricalDistribution([1.0, 3.0], key_offset=5)
        np.testing.assert_allclose(dist.probabilities_of([5, 6, 7]),
                                   [0.25, 0.75, 0.0])

    def test_key_offset_applied_to_samples(self):
        dist = CategoricalDistribution([1.0, 1.0], key_offset=100)
        samples = dist.sample(np.random.default_rng(0), 100)
        assert set(samples.tolist()) <= {100, 101}

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            CategoricalDistribution([0.0, 0.0])
        with pytest.raises(ValueError):
            CategoricalDistribution([1.0, -1.0])

    def test_empirical_matches_target(self):
        weights = np.array([5.0, 3.0, 1.0, 1.0])
        dist = CategoricalDistribution(weights)
        samples = dist.sample(np.random.default_rng(2), 50_000)
        empirical = np.bincount(samples, minlength=4) / 50_000
        np.testing.assert_allclose(empirical, weights / weights.sum(), atol=0.01)

    def test_conditional_probabilities_renormalize(self):
        dist = CategoricalDistribution([1.0, 2.0, 3.0, 4.0])
        conditional = dist.conditional_probabilities(np.array([1, 3]))
        np.testing.assert_allclose(conditional, [2 / 6, 4 / 6])

    def test_conditional_probabilities_fall_back_to_uniform(self):
        """Keys entirely outside the support get a uniform distribution."""
        dist = CategoricalDistribution([1.0, 1.0], key_offset=0)
        conditional = dist.conditional_probabilities(np.array([10, 11, 12]))
        np.testing.assert_allclose(conditional, 1 / 3)


class TestUnigramDistribution:
    def test_power_smoothing_flattens_the_distribution(self):
        frequencies = np.array([100.0, 1.0])
        smoothed = UnigramDistribution(frequencies, power=0.75)
        raw = CategoricalDistribution(frequencies)
        assert smoothed.probabilities()[0] < raw.probabilities()[0]
        assert smoothed.probabilities()[1] > raw.probabilities()[1]

    def test_power_one_equals_frequencies(self):
        frequencies = np.array([4.0, 1.0])
        dist = UnigramDistribution(frequencies, power=1.0)
        assert dist.probabilities()[0] == pytest.approx(0.8)

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            UnigramDistribution(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            UnigramDistribution(np.array([-1.0, 1.0]))


@settings(deadline=None, max_examples=25)
@given(
    support=st.integers(min_value=1, max_value=200),
    offset=st.integers(min_value=0, max_value=1000),
)
def test_probabilities_always_normalized(support, offset):
    for dist in (
        UniformDistribution(offset, support),
        CategoricalDistribution(np.random.default_rng(support).uniform(0.01, 1, support),
                                key_offset=offset),
    ):
        probabilities = dist.probabilities_of(np.arange(offset, offset + support))
        assert probabilities.sum() == pytest.approx(1.0)
        assert probabilities.min() >= 0
        samples = dist.sample(np.random.default_rng(0), 100)
        assert dist.in_support(samples).all()
