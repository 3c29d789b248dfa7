"""Tests for the key-to-node ownership map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ps.partition import DENSE_TABLE_MAX_KEYS, OwnershipMap


def _sizes(ownership) -> np.ndarray:
    """Number of keys per server."""
    return np.bincount(ownership.owners(np.arange(ownership.num_keys)),
                       minlength=ownership.num_servers)


class TestRangePartition:
    def test_all_keys_assigned_within_range(self):
        ownership = OwnershipMap(100, 4)
        owners = ownership.owners(np.arange(100))
        assert owners.min() >= 0
        assert owners.max() < 4

    def test_contiguous_ranges(self):
        ownership = OwnershipMap(100, 4)
        owners = ownership.owners(np.arange(100))
        # Owners must be non-decreasing for a range partition.
        assert np.all(np.diff(owners) >= 0)

    def test_balanced_partition_sizes(self):
        ownership = OwnershipMap(100, 4)
        sizes = _sizes(ownership)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 25  # ceil-division imbalance only

    def test_uneven_key_count(self):
        ownership = OwnershipMap(10, 3)
        sizes = _sizes(ownership)
        assert sizes.sum() == 10
        assert all(size > 0 for size in sizes)

    def test_single_server_owns_everything(self):
        ownership = OwnershipMap(50, 1)
        assert set(ownership.owners(np.arange(50))) == {0}

    def test_owner_single_key(self):
        ownership = OwnershipMap(100, 4)
        assert ownership.owners(np.array([0, 99])).tolist() == [0, 3]

    def test_out_of_range_key_rejected(self):
        ownership = OwnershipMap(10, 2)
        with pytest.raises(IndexError):
            ownership.owners(np.array([10]))

    def test_keys_of_inverse_of_owner(self):
        ownership = OwnershipMap(30, 4)
        for server in range(4):
            assert set(ownership.owners(ownership.keys_of(server))) == {server}

    def test_keys_of_invalid_server(self):
        with pytest.raises(ValueError):
            OwnershipMap(10, 2).keys_of(2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OwnershipMap(0, 2)
        with pytest.raises(ValueError):
            OwnershipMap(10, 0)


def _failed_over(num_keys=100, num_servers=4, node=1, survivors=(0, 2, 3)):
    ownership = OwnershipMap(num_keys, num_servers)
    ownership.fail(node, list(survivors))
    return ownership


class TestOwnersRejectsNegativeKeys:
    """Regression: ``owners`` used to wrap negative keys through ``take``'s
    negative indexing — ``owners([-1])`` silently answered ``[3]`` while
    scalar ``owner(-1)`` raised. Both must raise, before and after a
    transition."""

    def test_batch_negative_key_raises(self):
        with pytest.raises(KeyError):
            OwnershipMap(100, 4).owners(np.array([-1]))

    def test_negative_key_hidden_in_batch(self):
        with pytest.raises(KeyError):
            OwnershipMap(100, 4).owners(np.array([5, 17, -1, 42]))

    def test_failover_batch_negative_key_raises(self):
        with pytest.raises(KeyError):
            _failed_over().owners(np.array([-1]))

    def test_chained_failover_batch_negative_key_raises(self):
        ownership = _failed_over()
        ownership.fail(2, [0, 3])
        with pytest.raises(KeyError):
            ownership.owners(np.array([-100]))

    def test_scalar_and_batch_agree_on_negative_keys(self):
        for ownership in (OwnershipMap(100, 4), _failed_over()):
            with pytest.raises(KeyError):
                ownership.owners(np.array([-1]))

    def test_scalar_owner_matches_batch(self):
        """One-key batches answer as the whole batch does."""
        ownership = OwnershipMap(100, 3)
        keys = np.arange(100)
        batch = ownership.owners(keys)
        single = [int(ownership.owners(keys[key:key + 1])[0]) for key in keys]
        assert single == batch.tolist()
        assert len(ownership.owners(np.empty(0, dtype=np.int64))) == 0

    def test_valid_batches_unaffected(self):
        keys = np.array([0, 25, 50, 99])
        assert list(OwnershipMap(100, 4).owners(keys)) == [0, 1, 2, 3]


class TestFormulaLookup:
    """Key spaces beyond the dense-table threshold answer ``owners`` from the
    range formula until a transition: no per-key table."""

    NUM_KEYS = DENSE_TABLE_MAX_KEYS * 4  # 2^24 keys: formula path

    def test_matches_partition_formula(self):
        ownership = OwnershipMap(self.NUM_KEYS, 8)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, self.NUM_KEYS, size=4096, dtype=np.int64)
        np.testing.assert_array_equal(ownership.owners(keys),
                                      keys // (self.NUM_KEYS // 8))

    def test_no_dense_table_built(self):
        ownership = OwnershipMap(self.NUM_KEYS, 8)
        ownership.owners(np.array([0, self.NUM_KEYS - 1]))
        assert ownership._table is None

    def test_partition_boundaries_exact(self):
        ownership = OwnershipMap(self.NUM_KEYS, 7)
        range_size = -(-self.NUM_KEYS // 7)
        edges = [edge for server in range(1, 7)
                 for edge in (server * range_size - 1, server * range_size)]
        owners = ownership.owners(np.asarray(edges, dtype=np.int64))
        assert owners.tolist() == [server - 1 + side for server in range(1, 7)
                                   for side in (0, 1)]

    def test_out_of_range_raises(self):
        ownership = OwnershipMap(self.NUM_KEYS, 8)
        with pytest.raises(KeyError):
            ownership.owners(np.array([self.NUM_KEYS]))
        with pytest.raises(KeyError):
            ownership.owners(np.array([-1]))


class TestTransitions:
    def test_failover_hands_keys_round_robin_to_survivors(self):
        ownership = _failed_over()
        static = OwnershipMap(100, 4).owners(np.arange(100))
        victims = np.flatnonzero(static == 1)
        owners = ownership.owners(np.arange(100))
        assert owners[victims].tolist() == \
            [(0, 2, 3)[i % 3] for i in range(len(victims))]
        untouched = static != 1
        np.testing.assert_array_equal(owners[untouched], static[untouched])

    def test_chained_failover_order(self):
        """A second crash moves the second node's keys — including those it
        took over from the first — round-robin over the remaining nodes."""
        ownership = _failed_over()
        expected = ownership.owners(np.arange(100))
        second = np.flatnonzero(expected == 2)
        expected[second] = np.array([0, 3])[np.arange(len(second)) % 2]
        moved = ownership.fail(2, [0, 3])
        np.testing.assert_array_equal(moved, second)
        np.testing.assert_array_equal(ownership.owners(np.arange(100)),
                                      expected)
        assert ownership.owners(second[-1:])[0] == expected[second[-1]]

    def test_restore_reapplies_still_down_failovers_in_node_order(self):
        ownership = _failed_over()
        ownership.fail(2, [0, 3])
        ownership.restore(1, [0, 1, 3])
        # Node 2's failover replayed over the post-restore active set.
        expected = OwnershipMap(100, 4)
        expected.fail(2, [0, 1, 3])
        np.testing.assert_array_equal(ownership.owners(np.arange(100)),
                                      expected.owners(np.arange(100)))
        ownership.restore(2, [0, 1, 2, 3])
        np.testing.assert_array_equal(ownership.owners(np.arange(100)),
                                      OwnershipMap(100, 4).owners(np.arange(100)))

    def test_restore_of_a_node_that_is_not_down_moves_nothing(self):
        ownership = _failed_over()
        before = ownership.owners(np.arange(100))
        assert len(ownership.restore(2, [0, 1, 2, 3])) == 0
        np.testing.assert_array_equal(ownership.owners(np.arange(100)), before)

    def test_failover_validates_survivors(self):
        ownership = OwnershipMap(100, 4)
        with pytest.raises(ValueError):
            ownership.fail(1, [])
        with pytest.raises(ValueError):
            ownership.fail(1, [1, 2])
        # A rejected failover leaves no node down.
        assert len(ownership.restore(1, [0, 1, 2, 3])) == 0

    def test_join_shares_within_one_key_per_donor(self):
        ownership = OwnershipMap(1000, 3)
        moved = ownership.join(3, [0, 1, 2, 3])
        assert ownership.num_servers == 4
        np.testing.assert_array_equal(ownership.keys_of(3), np.sort(moved))
        ideal = 1000 / 4
        assert abs(len(moved) - ideal) <= 3
        # Each donor cedes the tail of its range.
        for donor in range(3):
            owned = np.flatnonzero(
                OwnershipMap(1000, 3).owners(np.arange(1000)) == donor)
            np.testing.assert_array_equal(
                ownership.keys_of(donor), owned[:len(owned) - len(owned) // 4])

    def test_join_needs_a_donor(self):
        with pytest.raises(ValueError):
            OwnershipMap(100, 1).join(1, [1])
        with pytest.raises(ValueError):
            OwnershipMap(100, 2).join(-1, [0, 1])

    def test_leave_hands_keys_to_successors_for_good(self):
        ownership = OwnershipMap(100, 4)
        moved = ownership.leave(1, [0, 2, 3])
        np.testing.assert_array_equal(moved, np.arange(25, 50))
        assert len(ownership.keys_of(1)) == 0
        assert _sizes(ownership).sum() == 100

    def test_membership_change_while_down_updates_planned_table(self):
        """A join while a node is down applies to the live and the planned
        table independently; the restore returns to the planned one."""
        ownership = _failed_over()
        live_moved = ownership.join(4, [0, 2, 3, 4])
        planned = OwnershipMap(100, 4)
        planned_moved = planned.join(4, [0, 2, 3, 4])
        # Node 1 (down) donates nothing in either table.
        assert not np.isin(np.arange(25, 50), planned_moved).any()
        assert not np.array_equal(live_moved, planned_moved)
        ownership.restore(1, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(ownership.owners(np.arange(100)),
                                      planned.owners(np.arange(100)))


@settings(deadline=None, max_examples=50)
@given(
    num_keys=st.integers(min_value=1, max_value=500),
    num_servers=st.integers(min_value=1, max_value=16),
)
def test_partition_is_total_and_consistent(num_keys, num_servers):
    """Every key has exactly one owner, in range."""
    ownership = OwnershipMap(num_keys, num_servers)
    keys = np.arange(num_keys)
    owners = ownership.owners(keys)
    assert owners.shape == (num_keys,)
    assert owners.min() >= 0 and owners.max() < num_servers
    assert _sizes(ownership).sum() == num_keys
