"""Tests for the dense parameter store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ps.storage import ParameterStore


class TestConstruction:
    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            ParameterStore(0, 4)
        with pytest.raises(ValueError):
            ParameterStore(10, 0)

    def test_zero_initialized_by_default(self):
        store = ParameterStore(10, 4)
        assert np.all(store.get(np.arange(store.num_keys)) == 0)

    def test_random_initialization_is_reproducible(self):
        a = ParameterStore(10, 4, seed=1, init_scale=0.5)
        b = ParameterStore(10, 4, seed=1, init_scale=0.5)
        np.testing.assert_array_equal(a.get(np.arange(10)),
                                      b.get(np.arange(10)))

    def test_different_seeds_differ(self):
        a = ParameterStore(10, 4, seed=1, init_scale=0.5)
        b = ParameterStore(10, 4, seed=2, init_scale=0.5)
        assert not np.allclose(a.get(np.arange(10)), b.get(np.arange(10)))


class TestAccess:
    def test_get_returns_copy(self, store):
        values = store.get([0, 1])
        values[:] = 99.0
        assert not np.any(store.get([0, 1]) == 99.0)

    def test_get_shape(self, store):
        assert store.get([1, 2, 3]).shape == (3, store.value_length)

    def test_out_of_range_keys_rejected(self, store):
        with pytest.raises(KeyError):
            store.get([store.num_keys])
        with pytest.raises(KeyError):
            store.get([-1])

    def test_non_1d_keys_rejected(self, store):
        with pytest.raises(ValueError):
            store.get(np.array([[0, 1]]))

    def test_empty_key_list(self, store):
        assert store.get([]).shape == (0, store.value_length)

    def test_check_keys_then_at_reads_like_get(self, store):
        keys = store.check_keys([3, 0, 3, store.num_keys - 1])
        assert keys.dtype == np.int64
        rows = store.at(keys)
        assert rows is keys  # dense: the rows are the keys
        assert np.array_equal(store.value_column.gather(rows), store.get(keys))
        for bad in ([store.num_keys], [-1], [0, 5, store.num_keys + 7]):
            with pytest.raises(KeyError):
                store.check_keys(bad)
        with pytest.raises(ValueError):
            store.check_keys(np.array([[0, 1]]))


class TestWrites:
    def test_add_accumulates(self, store):
        before = store.get([5])
        delta = np.ones((1, store.value_length), dtype=np.float32)
        store.add([5], delta)
        store.add([5], delta)
        np.testing.assert_allclose(store.get([5]), before + 2.0, rtol=1e-6)

    def test_add_with_duplicate_keys_accumulates_both(self, store):
        before = store.get([7])[0]
        deltas = np.ones((2, store.value_length), dtype=np.float32)
        store.add([7, 7], deltas)
        np.testing.assert_allclose(store.get([7])[0], before + 2.0)

    def test_set_overwrites(self, store):
        new_value = np.full((1, store.value_length), 3.0, dtype=np.float32)
        store.set([2], new_value)
        np.testing.assert_allclose(store.get([2]), new_value)

    def test_shape_mismatch_rejected(self, store):
        with pytest.raises(ValueError):
            store.add([0], np.ones((2, store.value_length), dtype=np.float32))
        with pytest.raises(ValueError):
            store.add([0], np.ones((1, store.value_length + 1), dtype=np.float32))

    def test_versions_bump_on_writes(self, store):
        assert store.read_versions([0])[0] == 0
        store.add([0], np.zeros((1, store.value_length), dtype=np.float32))
        assert store.read_versions([0])[0] == 1
        store.set([0], np.zeros((1, store.value_length), dtype=np.float32))
        assert store.read_versions([0])[0] == 2

    def test_add_with_duplicate_keys_bumps_version_per_occurrence(self, store):
        keys = np.array([4, 4, 4, 7], dtype=np.int64)
        store.add(keys, np.ones((4, store.value_length), dtype=np.float32))
        assert store.read_versions([4])[0] == 3
        assert store.read_versions([7])[0] == 1

    def test_set_with_duplicate_keys_bumps_version_per_occurrence(self, store):
        """Regression: fancy-index += silently dropped duplicate keys, so
        ``set`` undercounted versions relative to ``add``."""
        keys = np.array([5, 5, 9], dtype=np.int64)
        values = np.zeros((3, store.value_length), dtype=np.float32)
        store.set(keys, values)
        assert store.read_versions([5])[0] == 2
        assert store.read_versions([9])[0] == 1

    def test_large_batch_duplicate_keys_accumulate(self, store):
        # Above the duplicate-free fast-path threshold: np.add.at semantics.
        before = store.get([3])[0].copy()
        keys = np.full(100, 3, dtype=np.int64)
        store.add(keys, np.ones((100, store.value_length), dtype=np.float32))
        np.testing.assert_allclose(store.get([3])[0], before + 100.0)
        assert store.read_versions([3])[0] == 100

    def test_copy_is_independent(self, store):
        clone = store.copy()
        store.add([0], np.ones((1, store.value_length), dtype=np.float32))
        assert not np.allclose(clone.get([0])[0], store.get([0])[0])


class TestSizes:
    def test_value_bytes(self):
        assert ParameterStore(5, 8).value_bytes() == 32

    def test_total_bytes(self):
        assert ParameterStore(5, 8).total_bytes() == 5 * 32


@settings(deadline=None, max_examples=50)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=30),
    scale=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_add_matches_numpy_reference(keys, scale):
    """Pushing deltas through the store equals a reference dense accumulation,
    including when the same key appears multiple times in one push."""
    store = ParameterStore(20, 3)
    reference = np.zeros((20, 3), dtype=np.float64)
    keys = np.asarray(keys, dtype=np.int64)
    deltas = np.full((len(keys), 3), scale, dtype=np.float32)
    store.add(keys, deltas)
    np.add.at(reference, keys, deltas.astype(np.float64))
    np.testing.assert_allclose(store.get(np.arange(store.num_keys)), reference, rtol=1e-5, atol=1e-5)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_random_write_read_roundtrip(data):
    """Values read back equal the sum of all deltas written per key."""
    num_keys = data.draw(st.integers(min_value=1, max_value=15))
    store = ParameterStore(num_keys, 2)
    expected = np.zeros((num_keys, 2), dtype=np.float64)
    for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
        key = data.draw(st.integers(min_value=0, max_value=num_keys - 1))
        value = data.draw(st.floats(min_value=-10, max_value=10))
        store.add([key], np.full((1, 2), value, dtype=np.float32))
        expected[key] += np.float32(value)
    np.testing.assert_allclose(store.get(np.arange(store.num_keys)), expected, rtol=1e-4, atol=1e-4)
