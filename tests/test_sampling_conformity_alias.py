"""Tests for conformity levels and the alias-method sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling.alias import AliasSampler
from repro.core.sampling.conformity import SCHEME_CONFORMITY, ConformityLevel


class TestConformityLevels:
    def test_hierarchy_ordering(self):
        assert ConformityLevel.CONFORM < ConformityLevel.BOUNDED
        assert ConformityLevel.BOUNDED < ConformityLevel.LONG_TERM
        assert ConformityLevel.LONG_TERM < ConformityLevel.NON_CONFORM

    def test_total_order_follows_the_level_number(self):
        """Stronger levels sort first; the derived comparisons agree."""
        levels = list(ConformityLevel)
        assert sorted(reversed(levels)) == levels
        assert ConformityLevel.CONFORM <= ConformityLevel.CONFORM
        assert ConformityLevel.NON_CONFORM > ConformityLevel.BOUNDED
        assert ConformityLevel.LONG_TERM >= ConformityLevel.BOUNDED
        assert max(levels) is ConformityLevel.NON_CONFORM

    def test_comparison_with_other_types_is_refused(self):
        with pytest.raises(TypeError):
            ConformityLevel.CONFORM < 2
        with pytest.raises(TypeError):
            ConformityLevel.BOUNDED < "long_term"

    def test_str_is_the_level_name(self):
        assert [str(level) for level in ConformityLevel] == [
            "CONFORM", "BOUNDED", "LONG_TERM", "NON_CONFORM"]

    def test_scheme_conformity_matches_table_1(self):
        """Table 1 of the paper."""
        assert SCHEME_CONFORMITY["independent"] is ConformityLevel.CONFORM
        assert SCHEME_CONFORMITY["sample_reuse"] is ConformityLevel.BOUNDED
        assert SCHEME_CONFORMITY["sample_reuse_postponing"] is ConformityLevel.LONG_TERM
        assert SCHEME_CONFORMITY["local"] is ConformityLevel.NON_CONFORM
        assert SCHEME_CONFORMITY["direct_access_repurposing"] is ConformityLevel.NON_CONFORM


class TestAliasSampler:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            AliasSampler(np.array([[0.5, 0.5]]))

    def test_normalizes_weights(self):
        sampler = AliasSampler(np.array([2.0, 6.0]))
        np.testing.assert_allclose(sampler.probabilities, [0.25, 0.75])

    def test_sample_size_zero(self):
        sampler = AliasSampler(np.array([1.0, 1.0]))
        assert len(sampler.sample(np.random.default_rng(0), 0)) == 0

    def test_sample_negative_size_rejected(self):
        sampler = AliasSampler(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            sampler.sample(np.random.default_rng(0), -1)

    def test_degenerate_distribution(self):
        sampler = AliasSampler(np.array([0.0, 1.0, 0.0]))
        samples = sampler.sample(np.random.default_rng(0), 1000)
        assert set(samples.tolist()) == {1}

    def test_uniform_distribution_statistics(self):
        sampler = AliasSampler(np.ones(10))
        samples = sampler.sample(np.random.default_rng(1), 50_000)
        counts = np.bincount(samples, minlength=10) / 50_000
        np.testing.assert_allclose(counts, 0.1, atol=0.01)

    def test_skewed_distribution_statistics(self):
        probabilities = np.array([0.6, 0.3, 0.09, 0.01])
        sampler = AliasSampler(probabilities)
        samples = sampler.sample(np.random.default_rng(2), 100_000)
        counts = np.bincount(samples, minlength=4) / 100_000
        np.testing.assert_allclose(counts, probabilities, atol=0.01)

    def test_reproducible_with_same_rng_seed(self):
        sampler = AliasSampler(np.arange(1, 6, dtype=float))
        a = sampler.sample(np.random.default_rng(3), 100)
        b = sampler.sample(np.random.default_rng(3), 100)
        np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50)
           .filter(lambda w: sum(w) > 1e-6))
    def test_samples_always_within_support(self, weights):
        sampler = AliasSampler(np.asarray(weights))
        samples = sampler.sample(np.random.default_rng(0), 500)
        assert samples.min() >= 0
        assert samples.max() < len(weights)
        # Zero-probability categories are never sampled.
        zero_categories = {i for i, w in enumerate(weights) if w == 0.0}
        assert zero_categories.isdisjoint(set(samples.tolist()))

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=2, max_value=30))
    def test_empirical_distribution_matches_target(self, num_categories):
        """First-order inclusion probabilities match the target (chi-square-ish)."""
        rng = np.random.default_rng(num_categories)
        weights = rng.uniform(0.1, 1.0, size=num_categories)
        target = weights / weights.sum()
        sampler = AliasSampler(weights)
        samples = sampler.sample(np.random.default_rng(0), 30_000)
        empirical = np.bincount(samples, minlength=num_categories) / 30_000
        np.testing.assert_allclose(empirical, target, atol=0.02)
