"""Unit tests for the chunked sparse state containers (repro.ps.chunks).

The containers duck-type the ndarray subset the parameter-server hot paths
use; every operation here is checked against the equivalent dense-array
result, because bit-identity with the dense backend is the contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ps.chunks import (
    DEFAULT_CHUNK_ROWS,
    ChunkedMatrix,
    ChunkedTable,
    ChunkedVector,
    MemoryBudget,
    MemoryBudgetExceeded,
    StorageConfig,
)
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.simulation.cluster import ClusterConfig


class TestMemoryBudget:
    def test_charge_accumulates(self):
        budget = MemoryBudget(1000, label="test")
        budget.charge(600, "a")
        assert budget.used_bytes == 600
        assert budget.remaining_bytes == 400

    def test_over_budget_raises_before_allocation(self):
        budget = MemoryBudget(1000, label="node 3 state")
        budget.charge(900, "a")
        with pytest.raises(MemoryBudgetExceeded):
            budget.charge(200, "chunk 7 of replica values")
        # The failed charge must not be recorded.
        assert budget.used_bytes == 900

    def test_error_message_is_actionable(self):
        budget = MemoryBudget(1024, label="parameter store (10^8 keys)")
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            budget.charge(4096, "chunk 0 of store.values")
        message = str(excinfo.value)
        assert "parameter store (10^8 keys)" in message
        assert "chunk 0 of store.values" in message
        assert "Raise the budget" in message
        assert "chunk_rows" in message

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget(-5)


class TestStorageConfig:
    def test_defaults_are_dense(self):
        config = StorageConfig()
        assert config.backend == "dense"
        assert config.chunk_rows == DEFAULT_CHUNK_ROWS

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(backend="mmap")

    def test_invalid_chunk_rows_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(chunk_rows=0)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(store_budget_bytes=0)
        with pytest.raises(ValueError):
            StorageConfig(node_budget_bytes=-1)


class TestChunkedVector:
    def test_reads_of_untouched_rows_return_fill(self):
        vec = ChunkedVector(100, np.int64, fill_value=-1, chunk_rows=16)
        assert vec[5] == -1
        assert vec.take(np.array([0, 50, 99])).tolist() == [-1, -1, -1]
        assert vec.nbytes == 0
        assert vec.materialized_chunks == 0

    def test_write_materializes_only_touched_chunks(self):
        vec = ChunkedVector(100, np.int64, fill_value=0, chunk_rows=16)
        vec[np.array([3, 80])] = np.array([7, 9])
        assert vec.materialized_chunks == 2
        assert vec[3] == 7 and vec[80] == 9
        assert vec[4] == 0  # same chunk, untouched row keeps the fill

    def test_fill_fn_computed_default(self):
        vec = ChunkedVector(
            100, np.int64, fill_fn=lambda keys: keys // 25, chunk_rows=16,
        )
        assert vec[0] == 0 and vec[99] == 3
        assert vec.take(np.array([10, 30, 60, 90])).tolist() == [0, 1, 2, 3]
        assert vec.materialized_chunks == 0  # reads never materialize
        vec[30] = 7  # overrides the computed default in chunk 1 only
        assert vec[30] == 7
        assert vec[31] == 1  # same chunk, other rows keep the computed fill

    def test_where_equal_with_fill_fn(self):
        vec = ChunkedVector(
            64, np.int64, fill_fn=lambda keys: keys % 4, chunk_rows=16,
        )
        vec[2] = 99  # chunk 0 materialized, row 2 no longer equals 2
        expected = [k for k in range(64) if k % 4 == 2 and k != 2]
        assert vec.where_equal(2).tolist() == expected

    def test_any_ignores_padding_of_a_fully_written_partial_chunk(self):
        vec = ChunkedVector(10, np.int64, fill_value=7, chunk_rows=4)
        vec[:] = 0  # every chunk materialized, the last one half padding
        assert not vec.any()
        assert vec.count_nonzero() == 0
        assert vec.where_equal(0).tolist() == list(range(10))

    def test_copy_is_independent(self):
        vec = ChunkedVector(50, np.int64, fill_value=0, chunk_rows=16)
        vec[10] = 1
        clone = vec.copy()
        clone[10] = 2
        clone[40] = 3  # grows the clone's pool only
        assert vec[10] == 1 and clone[10] == 2
        assert vec.materialized_chunks == 1 and clone.materialized_chunks == 2

    def test_densify_adopts_an_array_on_a_fresh_table_only(self):
        vec = ChunkedVector(50, np.int64, fill_value=7, chunk_rows=16)
        array = np.arange(50, dtype=np.int64)
        assert vec.densify(array) is array is vec.pool
        array[20] = 99  # direct write must be visible through chunked reads
        assert vec[20] == 99
        vec[21] = 4  # chunked write must be visible through the array
        assert array[21] == 4
        assert vec.materialized_chunks == vec.num_chunks
        written = ChunkedVector(50, np.int64, chunk_rows=16)
        written[3] = 1
        with pytest.raises(ValueError, match="only a fresh table"):
            written.densify(np.zeros(50, dtype=np.int64))

    def test_integer_index_follows_numpy(self):
        vec = ChunkedVector(100, np.int64, fill_value=0, chunk_rows=16)
        vec[-1] = 5
        assert vec[99] == 5 and vec[-1] == 5
        for bad in (100, -101):
            with pytest.raises(IndexError, match=r"\[0, 100\)"):
                vec[bad]
            with pytest.raises(IndexError):
                vec[bad] = 1


class TestOutOfRangeKeys:
    """Regression: out-of-range and negative keys used to read the fill and
    ``v[np.array([-1])] = x`` materialized (and charged) a phantom chunk."""

    @pytest.mark.parametrize("bad", [-1, 102, 100, 10**6])
    def test_every_entry_point_raises_and_materializes_nothing(self, bad):
        budget = MemoryBudget(10**6)
        vec = ChunkedVector(100, np.int64, fill_value=3, chunk_rows=16,
                            budget=budget, label="slots")
        mat = ChunkedMatrix(100, 4, chunk_rows=16, budget=budget)
        keys = np.array([5, bad, 7])
        message = rf"key {bad} is out of range \[0, 100\)"
        for container, value in ((vec, 1), (mat, np.ones((3, 4)))):
            with pytest.raises(IndexError, match=message):
                container.take(keys)
            with pytest.raises(IndexError, match=message):
                container[keys]
            with pytest.raises(IndexError, match=message):
                container[keys] = value
            with pytest.raises(IndexError, match=message):
                container.add_at(keys, value)
            assert container.materialized_chunks == 0
            assert container.nbytes == 0
        assert "slots" in str(pytest.raises(IndexError, vec.take, keys).value)
        assert budget.used_bytes == 0

    def test_large_batches_are_checked_too(self):
        vec = ChunkedVector(1000, np.int64, chunk_rows=16)
        keys = np.arange(200)
        keys[150] = -3
        with pytest.raises(IndexError, match="key -3 "):
            vec.take(keys)

    def test_two_dimensional_keys_rejected(self):
        with pytest.raises(IndexError, match="one-dimensional"):
            ChunkedVector(10, np.int64).take(np.zeros((2, 2), dtype=np.int64))


class TestChunkedMatrix:
    def test_reads_of_untouched_rows_are_zero(self):
        mat = ChunkedMatrix(100, 4, chunk_rows=16)
        np.testing.assert_array_equal(mat[7], np.zeros(4, dtype=np.float32))
        assert mat.nbytes == 0
        assert mat.shape == (100, 4) and mat.ndim == 2

    def test_row_view_semantics_on_materialized_chunk(self):
        mat = ChunkedMatrix(100, 4, chunk_rows=16)
        mat[3] = np.ones(4)
        row = mat[3]
        row += 1.0  # in-place on the view mutates the chunk, like ndarray
        np.testing.assert_array_equal(mat[3], np.full(4, 2.0, np.float32))

    def test_unmaterialized_row_is_read_only(self):
        """Regression: ``m[k]`` on an unmaterialized chunk returned a fresh
        writable zero row, so ``row = m[k]; row += d`` was silently lost."""
        mat = ChunkedMatrix(100, 4, chunk_rows=16)
        row = mat[40]
        with pytest.raises(ValueError, match="read-only"):
            row += 1.0
        assert mat.materialized_chunks == 0
        np.testing.assert_array_equal(mat[41], np.zeros(4, dtype=np.float32))
        mat[40] = np.ones(4)  # the documented way to write
        live = mat[40]
        live += 1.0
        np.testing.assert_array_equal(mat[40], np.full(4, 2.0, np.float32))

    def test_pool_moves_preserve_every_byte(self):
        """Growing the pool skips all-zero pages only: ``-0.0`` is not zero
        bytes, and chunks of 2400 bytes straddle the 4 KiB page bounds."""
        rng = np.random.default_rng(11)
        reference = np.zeros((5000, 3), dtype=np.float64)
        mat = ChunkedMatrix(5000, 3, np.float64, chunk_rows=100)
        for _ in range(40):  # one or two new chunks a step: many moves
            keys = rng.integers(0, 5000, size=2)
            values = rng.choice([-0.0, 0.0, 1.5], size=(2, 3))
            mat[keys] = values
            reference[keys] = values
            assert mat.take(np.arange(5000)).tobytes() == reference.tobytes()
        assert np.signbit(mat.take(np.arange(5000))).any()

    def test_fancy_iadd_protocol_matches_dense(self):
        # `matrix[keys] += deltas` with distinct keys goes through
        # __getitem__ / += / __setitem__; must equal the dense result.
        dense = np.zeros((64, 4), dtype=np.float32)
        mat = ChunkedMatrix(64, 4, chunk_rows=16)
        keys = np.array([1, 20, 40], dtype=np.int64)
        deltas = np.full((3, 4), 0.5, dtype=np.float32)
        dense[keys] += deltas
        mat[keys] += deltas
        np.testing.assert_array_equal(mat.take(np.arange(64)), dense)

    def test_from_dense_shares_memory(self):
        dense = np.arange(32, dtype=np.float32).reshape(8, 4)
        mat = ChunkedMatrix.from_dense(dense, chunk_rows=4)
        assert isinstance(mat, ChunkedMatrix)
        assert mat.materialized_chunks == 2
        assert mat.nbytes == dense.nbytes
        mat[0] = np.zeros(4)
        assert dense[0].sum() == 0  # chunk writes hit the wrapped array

    def test_from_dense_charges_budget(self):
        budget = MemoryBudget(64, label="tiny")
        dense = np.zeros((8, 4), dtype=np.float32)  # 128 bytes
        with pytest.raises(MemoryBudgetExceeded, match="dense-initialized"):
            ChunkedMatrix.from_dense(dense, chunk_rows=4, budget=budget)

    def test_take_requires_axis_zero(self):
        with pytest.raises(ValueError):
            ChunkedMatrix(10, 2).take(np.array([0]), axis=1)


class TestDenseTable:
    def test_dense_and_sparse_columns_agree(self):
        tables = [ChunkedTable(50, 16, dense=dense) for dense in (True, False)]
        columns = [table.column("owner", np.int64, fill_value=2)
                   for table in tables]
        for column in columns:
            column[np.array([7, 30])] = 5
        assert columns[0].pool.shape == (50,)  # keys are rows
        for value in (5, 2):
            np.testing.assert_array_equal(columns[0].where_equal(value),
                                          columns[1].where_equal(value))
        assert columns[0].count_nonzero() == columns[1].count_nonzero() == 50

    def test_a_dense_table_charges_each_column_whole(self):
        budget = MemoryBudget(1000)
        table = ChunkedTable(100, 16, budget, label="t", dense=True)
        table.column("v", np.int64, fill_fn=lambda keys: keys % 3)
        assert budget.used_bytes == table.columns[0].nbytes == 800
        assert table.columns[0].pool.tolist() == [k % 3 for k in range(100)]
        assert table.materialized_chunks == table.num_chunks
        with pytest.raises(MemoryBudgetExceeded, match="dense t.w"):
            table.column("w", np.int64)
        assert budget.used_bytes == 800

    def test_rows_are_the_keys_and_claims_write_nothing(self):
        table = ChunkedTable(100, 16, dense=True)
        table.column("v", np.float32, (2,))
        keys = np.array([5, 99, 5])
        assert table.rows(keys).tolist() == [5, 99, 5]
        assert table._rows(keys) is keys
        assert table.claim(keys, keys, keys > 50) is keys
        assert table._written.tolist() == [100]


# --------------------------------------------------------------------------
# Differential suite: random op sequences against a plain ndarray reference.
# --------------------------------------------------------------------------

NUM_ROWS = 300
#: 1 and > NUM_ROWS are the edge cases; 7 and 256 are non-power-of-two /
#: power-of-two sizes that both leave a partial last chunk.
CHUNK_ROWS = (1, 7, 256, 1000)


def _exact(actual, expected):
    """Exact ``==``: same dtype, same shape, same bytes."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _values(rng, dtype, shape):
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype == np.int64:
        return rng.integers(-3, 4, size=shape, dtype=np.int64)
    return rng.normal(size=shape).astype(dtype)


def _drive(rng, container, reference, steps=120):
    """Apply ``steps`` random operations to both; compare after each."""
    dtype, row_shape = reference.dtype.type, reference.shape[1:]
    everything = np.arange(NUM_ROWS)

    def keys():
        size = int(rng.integers(0, 40))
        return rng.integers(0, NUM_ROWS, size=size, dtype=np.int64)

    def a_slice():
        lo, hi = sorted(rng.integers(0, NUM_ROWS + 1, size=2).tolist())
        return slice(lo, hi, int(rng.integers(1, 4)))

    for _ in range(steps):
        op = int(rng.integers(0, 12))
        if op == 0:
            k = keys()
            _exact(container.take(k), reference.take(k, axis=0))
        elif op == 1:
            k = keys()
            _exact(container[k], reference[k])
        elif op == 2:
            s = a_slice()
            _exact(container[s], reference[s])
        elif op == 3:
            k = int(rng.integers(-NUM_ROWS, NUM_ROWS))
            _exact(container[k], reference[k])
        elif op == 4:  # fancy set, duplicates included (last one wins)
            k = keys()
            v = _values(rng, dtype, (len(k),) + row_shape)
            container[k] = v
            reference[k] = v
        elif op == 5:  # scalar broadcast into fancy / slice
            index = keys() if rng.random() < 0.5 else a_slice()
            v = _values(rng, dtype, ())[()]
            container[index] = v
            reference[index] = v
        elif op == 6:
            s = a_slice()
            v = _values(rng, dtype, reference[s].shape)
            container[s] = v
            reference[s] = v
        elif op == 7:
            k = int(rng.integers(-NUM_ROWS, NUM_ROWS))
            v = _values(rng, dtype, row_shape)
            container[k] = v
            reference[k] = v
        elif op in (8, 9):  # duplicates accumulate in batch order
            k = keys() if op == 8 else rng.integers(
                0, NUM_ROWS, size=int(rng.integers(65, 200)), dtype=np.int64)
            v = _values(rng, dtype, (len(k),) + row_shape)
            container.add_at(k, v)
            np.add.at(reference, k, v)
        elif op == 10 and not row_shape:
            value = reference[int(rng.integers(0, NUM_ROWS))]
            _exact(container.where_equal(value),
                   np.flatnonzero(reference == value))
            assert container.any() == bool(reference.any())
            assert container.count_nonzero() == np.count_nonzero(reference)
        elif op == 11:  # continue on an independent clone
            clone = container.copy()
            container[0] = reference[0]  # must not reach the clone
            container = clone
        _exact(container.take(everything), reference)
    return container


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float32, np.float64])
@pytest.mark.parametrize("fill", ["zero", "constant", "key-wise"])
def test_vector_matches_ndarray_reference(chunk_rows, dtype, fill):
    rng = np.random.default_rng([chunk_rows, np.dtype(dtype).num, len(fill)])
    if fill == "key-wise":
        def fill_fn(keys):
            return (keys % 5 == 2) if dtype == np.bool_ else keys % 5 - 1
        container = ChunkedVector(NUM_ROWS, dtype, fill_fn=fill_fn,
                                  chunk_rows=chunk_rows)
        reference = fill_fn(np.arange(NUM_ROWS)).astype(dtype)
    else:
        value = dtype(0 if fill == "zero" else 1)
        container = ChunkedVector(NUM_ROWS, dtype, value,
                                  chunk_rows=chunk_rows)
        reference = np.full(NUM_ROWS, value, dtype=dtype)
    assert container.materialized_chunks == 0
    _drive(rng, container, reference)


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_matrix_matches_ndarray_reference(chunk_rows, dtype):
    rng = np.random.default_rng([chunk_rows, np.dtype(dtype).num])
    container = ChunkedMatrix(NUM_ROWS, 3, dtype, chunk_rows=chunk_rows)
    _drive(rng, container, np.zeros((NUM_ROWS, 3), dtype=dtype))


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_from_dense_matches_ndarray_reference(chunk_rows):
    rng = np.random.default_rng(chunk_rows)
    reference = rng.normal(size=(NUM_ROWS, 3)).astype(np.float32)
    container = ChunkedMatrix.from_dense(reference.copy(), chunk_rows)
    _drive(rng, container, reference)


#: (name, dtype, row_shape, fill): the first ``k`` are a ``k``-column table.
TABLE_COLUMNS = (
    ("mask", np.bool_, (), "zero"),
    ("values", np.float32, (3,), "zero"),
    ("owner", np.int64, (), "key-wise"),
    ("clock", np.int64, (), "constant"),
    ("wide", np.float64, (2,), "zero"),
)


def _owner_fill(keys):
    return keys % 5 - 1


def _table(num_columns, chunk_rows, budget=None, dense=False):
    """A ``num_columns``-column table and the ndarrays it must equal."""
    table = ChunkedTable(NUM_ROWS, chunk_rows, budget, label="t", dense=dense)
    references = []
    for name, dtype, row_shape, fill in TABLE_COLUMNS[:num_columns]:
        if fill == "key-wise":
            table.column(name, dtype, row_shape, fill_fn=_owner_fill)
            references.append(_owner_fill(np.arange(NUM_ROWS)).astype(dtype))
        else:
            value = 0 if fill == "zero" else 7
            table.column(name, dtype, row_shape, fill_value=value)
            references.append(np.full((NUM_ROWS,) + row_shape, value, dtype))
    return table, references


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("num_columns", [2, 3, 4, 5])
def test_table_matches_one_ndarray_per_column(chunk_rows, num_columns):
    """The single-container differential, one random column at a time: an
    operation on one column (materialization and ``copy`` included) must
    leave every column of the table exact."""
    _drive_table(chunk_rows, num_columns, dense=False)


@pytest.mark.parametrize("num_columns", [1, 5])
def test_dense_table_matches_one_ndarray_per_column(num_columns):
    """The same differential on a dense table, the dense backend's
    container: every column one array, keys as rows."""
    _drive_table(7, num_columns, dense=True)


def _drive_table(chunk_rows, num_columns, dense):
    rng = np.random.default_rng([chunk_rows, num_columns])
    table, references = _table(num_columns, chunk_rows, dense=dense)
    everything = np.arange(NUM_ROWS)
    for _ in range(150):
        at = int(rng.integers(0, num_columns))
        column = _drive(rng, table.columns[at], references[at], steps=1)
        if table.columns[at] is not column:  # a copy, which holds its clone
            table = column.table
        assert table.columns[at] is column
        for column, reference in zip(table.columns, references):
            _exact(column.take(everything), reference)
            assert column.nbytes == table.resident_rows * reference[0].nbytes
    assert table.materialized_chunks > 0


class _ReferenceIndex:
    """The index a table must hold, kept the plain way: ``np.insert`` per
    first write, a re-sort per relabel."""

    def __init__(self, num_rows: int) -> None:
        self.num_rows = num_rows
        self.written = np.array([num_rows], dtype=np.int64)
        self.slot = np.zeros(1, dtype=np.int64)
        self.used = 1

    def rows(self, keys: np.ndarray) -> list:
        slot_of = dict(zip(self.written[:-1].tolist(), self.slot.tolist()))
        return [slot_of.get(key, 0) for key in keys.tolist()]

    def write(self, keys: np.ndarray) -> None:
        fresh = np.setdiff1d(keys, self.written[:-1])
        at = self.written.searchsorted(fresh)
        self.slot = np.insert(self.slot, at, np.arange(
            self.used, self.used + len(fresh), dtype=np.int64))
        self.written = np.insert(self.written, at, fresh)
        self.used += len(fresh)

    def relabel(self, new_key_of: np.ndarray) -> None:
        moved = dict(zip(new_key_of[self.written[:-1]].tolist(),
                         self.slot[:-1].tolist()))
        keys = sorted(moved)
        self.written = np.array(keys + [self.num_rows], dtype=np.int64)
        self.slot = np.array([moved[key] for key in keys] + [0],
                             dtype=np.int64)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_first_writes_merge_into_the_index_like_np_insert(data):
    """Reads, first writes (whole batches and selected keys of a batch)
    and relabels, interleaved: the table's index equals one kept with
    ``np.insert``, and its contents a dense array's. Keys 0 and
    ``num_rows - 1`` (next to the sentinel) and repeated keys within one
    batch come up often."""
    num_rows = data.draw(st.sampled_from([1, 2, 5, 50]), label="num_rows")
    chunk_rows = data.draw(st.sampled_from([1, 3, 16, 64]), label="chunk_rows")
    table = ChunkedTable(num_rows, chunk_rows, label="t")
    column = table.column("v", np.int64)
    dense = np.zeros(num_rows, dtype=np.int64)
    reference = _ReferenceIndex(num_rows)
    edges = sorted({0, 1, num_rows - 2, num_rows - 1} & set(range(num_rows)))
    key = st.sampled_from(edges) | st.integers(0, num_rows - 1)
    batches = st.lists(key, max_size=10).map(
        lambda keys: np.array(keys + keys[::2], dtype=np.int64))
    everything = np.arange(num_rows)
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(["read", "set", "claim", "relabel"]))
        if op == "relabel":
            new_key_of = np.asarray(data.draw(st.permutations(range(num_rows))),
                                    dtype=np.int64)
            table.relabel(new_key_of)
            reference.relabel(new_key_of)
            moved = np.empty_like(dense)
            moved[new_key_of] = dense
            dense = moved
            continue
        keys = data.draw(batches)
        if op == "read":
            assert table.rows(keys).tolist() == reference.rows(keys)
        elif op == "set":  # fancy set: the last of repeated keys wins
            column[keys] = keys * 10 + step
            reference.write(keys)
            dense[keys] = keys * 10 + step
        else:
            select = np.array(data.draw(st.lists(
                st.booleans(), min_size=len(keys), max_size=len(keys))),
                dtype=bool)
            rows = table.claim(keys, table.rows(keys), select)
            reference.write(keys[select])
            assert rows.tolist() == reference.rows(keys)
            column.pool[rows[select]] = -keys[select]
            dense[keys[select]] = -keys[select]
        assert table._written.tolist() == reference.written.tolist()
        assert table._slot.tolist() == reference.slot.tolist()
        _exact(column.take(everything), dense)


class TestTable:
    def test_one_index_for_all_columns(self):
        table, _ = _table(5, 7)
        assert len({id(column.table) for column in table.columns}) == 1
        table.columns[1][100] = 1.0  # through one column: every column's record
        assert [c.materialized_chunks for c in table.columns] == [1] * 5
        assert table._written[:-1].tolist() == [100]
        rows = table.rows(np.array([100, 5]))
        assert table.columns[1].pool[rows].tolist() == [[1.0] * 3, [0.0] * 3]
        assert table.columns[3].pool[rows].tolist() == [7, 7]

    def test_store_add_distinct_translates_once(self, monkeypatch):
        """Values and versions share the rows (it was get + set for each)."""
        store = ParameterStore(10**6, 8,
                               storage=StorageConfig(backend="sparse"))
        keys = np.array([5, 70_000], dtype=np.int64)
        ones = np.ones((2, 8), dtype=np.float32)
        store.add_distinct(keys, ones)  # materializes: translates twice
        translations = []
        rows = ChunkedTable._rows
        monkeypatch.setattr(
            ChunkedTable, "_rows",
            lambda table, keys: translations.append(table) or rows(table, keys))
        store.add_distinct(keys, ones)
        assert len(translations) == 1
        assert store.get(keys).tolist() == [[2.0] * 8] * 2
        assert store.read_versions(keys).tolist() == [2, 2]

    def test_relabel_refuses_a_key_wise_fill(self):
        vec = ChunkedVector(100, np.int64, fill_fn=lambda keys: keys,
                            chunk_rows=16)
        with pytest.raises(ValueError, match="key-wise fill"):
            vec.table.relabel(np.arange(100)[::-1].copy())

    def test_a_column_comes_before_the_first_chunk(self):
        table, _ = _table(2, 7)
        table.columns[0][3] = True
        with pytest.raises(ValueError, match="comes too late"):
            table.column("late", np.int64)

    def test_a_view_taken_before_a_materialization(self):
        """It stays readable (its pool outlives the move) but is detached:
        the view contract ends at the table's next materialization,
        through whichever column."""
        table, references = _table(3, 7)
        mask, values, _ = table.columns
        values[10] = np.array([1.0, 2.0, 3.0])
        references[1][10] = [1.0, 2.0, 3.0]
        view = values[10]
        mask[np.arange(50, 300)] = True  # many chunks: every pool moves
        references[0][50:300] = True
        assert view.tolist() == [1.0, 2.0, 3.0]
        for column, reference in zip(table.columns, references):
            _exact(column.take(np.arange(NUM_ROWS)), reference)

    def test_budget_runs_out_mid_batch(self):
        """Chunks that fit materialize in every column, the first that does
        not raises, and the budget holds the sum over the columns."""
        chunk_bytes = 7 * (1 + 12 + 8 + 8)  # one 7-row chunk of 4 columns
        budget = MemoryBudget(2 * chunk_bytes + 5, label="node 0")
        table, references = _table(4, 7, budget)
        with pytest.raises(MemoryBudgetExceeded, match="chunk 20 of t "):
            table.columns[1][np.array([140, 3, 70])] = 1.0  # chunks 0, 10, 20
        assert table.materialized_chunks == 2
        assert [c.materialized_chunks for c in table.columns] == [2] * 4
        assert budget.used_bytes == 2 * chunk_bytes \
            == sum(column.nbytes for column in table.columns)
        for column, reference in zip(table.columns, references):
            _exact(column.take(np.arange(NUM_ROWS)), reference)  # not written
        table.columns[1][np.array([3, 70])] = 1.0  # what fitted is writable
        assert table.columns[1][70].tolist() == [1.0] * 3

    #: What the message must name, and the three remedies it gives.
    MESSAGE_PARTS = {
        "table": "chunk 20 of t ",
        "columns": "in its columns t.mask, t.values, t.owner, t.clock",
        "one chunk across all columns": "(203.0 B)",
        "used / limit": "the 411.0 B memory budget of node 0 (used: 406.0 B)",
        "remedy: budget": "Raise StorageConfig.node_budget_bytes,",
        "remedy: chunk size": "reduce chunk_rows so each touched key "
                              "materializes less state",
        "remedy: touched keys": "reduce the number of distinct keys touched",
    }

    @pytest.mark.parametrize("part", MESSAGE_PARTS)
    def test_budget_message(self, part):
        table, _ = _table(4, 7, MemoryBudget(
            2 * 203 + 5, label="node 0",
            setting="StorageConfig.node_budget_bytes"))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            table.columns[0][np.array([140, 3, 70])] = True
        assert self.MESSAGE_PARTS[part] in str(excinfo.value)

    def test_snapshot_of_a_sparse_store_touches_only_written_pages(self):
        """Regression: ``copy`` cloned pools on the heap, every materialized
        row resident (here 100 chunks x 4096 rows x 40 B = 16 MiB)."""
        store = ParameterStore(10**7, 8,
                               storage=StorageConfig(backend="sparse"))
        keys = np.arange(100, dtype=np.int64) * 99_991
        store.add(keys, np.ones((100, 8), dtype=np.float32))
        assert store.materialized_chunks() == 100
        before = _resident_mib()
        snapshot = store.copy()
        assert _resident_mib() - before < 8
        assert snapshot.nbytes() == store.nbytes()
        _exact(snapshot.get(keys), store.get(keys))
        _exact(snapshot.read_versions(keys), store.read_versions(keys))
        snapshot.add(keys[:1], np.ones((1, 8), dtype=np.float32))
        assert store.read_versions([0])[0] == 1
        assert snapshot.read_versions([0])[0] == 2


#: The replication node layout: mask, replica, clock, update mask, update.
NODE_COLUMNS = (("replica_mask", np.bool_, ()),
                ("replica_values", np.float32, (8,)),
                ("replica_clock", np.int64, ()),
                ("update_mask", np.bool_, ()),
                ("update_values", np.float32, (8,)))


def _nonzero_pages(table) -> int:
    """4 KiB pages holding a non-zero byte, over every mapping that backs
    one of the table's columns (counted once however many columns it
    backs)."""
    mappings = {}
    for column in table.columns:
        root = column.pool
        while isinstance(root, np.ndarray):
            root = root.base
        mappings[id(root)] = root
    pages = 0
    for mapping in mappings.values():
        data = np.frombuffer(mapping, dtype=np.uint8)
        whole = len(data) - len(data) % 4096
        pages += int(data[:whole].reshape(-1, 4096).any(axis=1).sum())
        pages += bool(data[whole:].any())
    return pages


@pytest.mark.parametrize("layout", ["node", "store"])
def test_touched_keys_make_their_records_resident_not_a_page_each(layout):
    """A key's columns share one record, and records are appended in order
    of first write: ``k`` keys in ``k`` chunks write at most
    ``ceil(k x record / 4 KiB) + 1`` pages (it was ``k`` pages: one per
    touched chunk)."""
    k = 24
    rng = np.random.default_rng(3)
    keys = np.arange(k, dtype=np.int64) * 3 * DEFAULT_CHUNK_ROWS \
        + rng.integers(0, DEFAULT_CHUNK_ROWS, size=k)
    if layout == "store":
        store = ParameterStore(10**6, 8,
                               storage=StorageConfig(backend="sparse"))
        store.add(keys, np.full((k, 8), 1.5, dtype=np.float32))
        table = store._table
    else:
        table = ChunkedTable(10**6, label="node0")
        for name, dtype, row_shape in NODE_COLUMNS:
            table.column(name, dtype, row_shape)
        for column in table.columns:
            column[keys] = 1
    assert table.materialized_chunks == k
    record = table.columns[0].pool.strides[0]
    assert 1 <= _nonzero_pages(table) <= -(-k * record // 4096) + 1


def test_an_unwritten_key_space_allocates_no_table():
    """``ChunkedTable(10**8)`` with one column: nothing per chunk is
    allocated before the first write (building a page table over its
    24 415 chunks peaked at 390 KiB)."""
    def build():
        table = ChunkedTable(10**8, label="huge")
        column = table.column("values", np.float32, (8,))
        assert column.take(np.array([5, 10**8 - 1])).sum() == 0.0

    assert _gather_peak(build) < 64 * 1024


def _gather_peak(call) -> int:
    """Peak bytes traced while ``call`` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGathersAreOBatch:
    """A gather copies the batch, never a column: ``ndarray.take`` on a
    strided field view copies the whole field first (here >= 1.3 MiB for the
    narrowest column, 42 MiB for a replica-value one)."""

    NUM_KEYS = 10**8
    CHUNKS = 320
    LIMIT = 2**20

    def _touched(self):
        return np.arange(self.CHUNKS, dtype=np.int64) * 300_007

    def test_table_columns(self):
        table = ChunkedTable(self.NUM_KEYS, label="node0")
        columns = [table.column(name, dtype, row_shape)
                   for name, dtype, row_shape in NODE_COLUMNS]
        touched = self._touched()
        columns[0][touched] = True
        batch = touched[::40]
        for column in columns:
            assert _gather_peak(lambda: column.take(batch)) < self.LIMIT
            assert _gather_peak(lambda: column[batch]) < self.LIMIT

    def test_store_get(self):
        store = ParameterStore(self.NUM_KEYS, 8,
                               storage=StorageConfig(backend="sparse"))
        touched = self._touched()
        store.add(touched, np.ones((len(touched), 8), dtype=np.float32))
        batch = touched[::40]
        assert _gather_peak(lambda: store.get(batch)) < self.LIMIT
        assert _gather_peak(lambda: store.read_versions(batch)) < self.LIMIT

    def test_replication_pull_and_read(self):
        from repro.ps.replication import ReplicationPS
        from repro.simulation.cluster import Cluster

        store = ParameterStore(self.NUM_KEYS, 8,
                               storage=StorageConfig(backend="sparse"))
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        ps = ReplicationPS(store, cluster)
        worker = cluster.worker(0, 0)
        touched = self._touched()
        ps.push(worker, touched, np.ones((len(touched), 8), dtype=np.float32))
        batch = touched[::40]
        assert _gather_peak(lambda: ps.pull(worker, batch)) < self.LIMIT
        charger = ps.direct_point_charger()
        points = len(batch) // 2
        charger.charge_chunk(worker, batch, point_calls(
            [2] * points, [0] * points, [0.0] * points))
        assert _gather_peak(lambda: charger.read(0, 2)) < self.LIMIT
        assert _gather_peak(
            lambda: ps.pull(worker, batch + 1)) < self.LIMIT  # refreshes


def _resident_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS in /proc/self/status")


# --------------------------------------------------------------------------
# Budgets: charge before the pool grows, charge exactly what is materialized.
# --------------------------------------------------------------------------

class TestBudgets:
    def test_raised_before_the_pool_grows(self):
        budget = MemoryBudget(200, label="test vector")
        vec = ChunkedVector(1000, np.int64, fill_value=0, chunk_rows=16,
                            budget=budget)
        vec[0] = 1  # one 16-row int64 chunk = 128 bytes
        assert budget.used_bytes == 128
        pool = vec.pool
        with pytest.raises(MemoryBudgetExceeded, match="chunk 31 of vector"):
            vec[500] = 1  # second chunk would exceed 200 bytes
        assert vec.pool is pool  # refused before any allocation
        assert budget.used_bytes == vec.nbytes == 128
        assert vec.materialized_chunks == 1
        assert vec[500] == 0

    def test_batch_materializes_what_fits_then_names_the_refused_chunk(self):
        budget = MemoryBudget(300, label="node 0")
        vec = ChunkedVector(1000, np.int64, chunk_rows=16, budget=budget,
                            label="clock")
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            vec[np.array([900, 5, 400])] = 1  # chunks 0, 25 fit; 56 does not
        message = str(excinfo.value)
        assert "chunk 56 of clock" in message and "node 0" in message
        assert "used: 256.0 B" in message
        assert vec.materialized_chunks == 2
        assert budget.used_bytes == vec.nbytes == 256

    def test_growth_charges_exactly_the_materialized_chunks(self):
        budget = MemoryBudget(10**6)
        mat = ChunkedMatrix(1003, 4, chunk_rows=8, budget=budget)
        rng = np.random.default_rng(0)
        for _ in range(30):
            keys = rng.integers(0, 1003, size=5)
            mat.add_at(keys, np.ones((5, 4), dtype=np.float32))
            assert budget.used_bytes == mat.nbytes
        # The partial last chunk (3 rows) is charged for its rows only, and
        # spare pool capacity is charged to nobody.
        mat[1002] = 1.0
        full = mat.materialized_chunks - 1
        assert mat.nbytes == (full * 8 + 3) * 16 == budget.used_bytes
        assert mat.pool.nbytes > mat.nbytes

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_a_store_over_budget_names_its_setting(self, backend):
        config = StorageConfig(backend=backend, store_budget_bytes=1000)
        with pytest.raises(MemoryBudgetExceeded,
                           match=r"Raise StorageConfig\.store_budget_bytes,"):
            store = ParameterStore(10**4, 8, storage=config)
            store.add(np.array([5]), np.ones((1, 8), dtype=np.float32))

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_a_node_over_budget_names_its_setting(self, backend):
        from repro.ps.replication import ReplicationPS
        from repro.simulation.cluster import Cluster

        config = StorageConfig(backend=backend, node_budget_bytes=1000)
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
        with pytest.raises(MemoryBudgetExceeded,
                           match=r"Raise StorageConfig\.node_budget_bytes,"):
            ps = ReplicationPS(ParameterStore(10**4, 8, storage=config),
                               cluster)
            ps.pull(cluster.worker(0, 0), np.array([5]))

    def test_hundred_million_keys_report_the_same_bytes_as_chunk_dicts(self):
        """The 10^8-key / 64 MiB regression of test_storage_backends, with
        the byte count pinned to what the per-chunk implementation reported
        (9969 chunks of 64 rows x (32 + 8) bytes)."""
        config = StorageConfig(backend="sparse", chunk_rows=64,
                               store_budget_bytes=64 * 2**20)
        store = ParameterStore(10**8, 8, storage=config)
        rng = np.random.default_rng(0)
        touched = rng.integers(0, 10**8, size=10_000, dtype=np.int64)
        store.add(touched, rng.normal(size=(10_000, 8)).astype(np.float32))
        assert store.materialized_chunks() == 9969
        assert store.nbytes() == store._table.budget.used_bytes == 25_520_640

    @pytest.mark.parametrize("system, expected", [
        ("lapse", {"store": 36576, "ownership": 8128}),
        ("essp", {"store": 36576, "replica_state": 140208}),
        ("nups", {"store": 36576, "ownership": 8128, "replica_manager": 0}),
    ])
    def test_state_nbytes_unchanged(self, system, expected):
        """``state_nbytes()`` after one sparse KGE epoch, pinned to the
        numbers the per-chunk implementation reported at this seed."""
        held = {}

        def factory(store, cluster, task):
            held["ps"] = make_ps_factory(system)(store, cluster, task)
            return held["ps"]

        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=1, chunk_size=8, seed=5,
            storage=StorageConfig(backend="sparse", chunk_rows=256),
        )
        run_experiment(make_task("kge", scale="test"), factory, config)
        assert dict(held["ps"].state_nbytes()) == expected
        assert held["ps"].store.materialized_chunks() == 2


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_a_store_dies_with_its_last_reference(dense):
    """A column refers to its table weakly: a store's arrays are freed when
    the store goes, not when the cyclic collector next runs (a table and
    its columns made a cycle, so a finished experiment's dense state stayed
    allocated past the next ones)."""
    import gc
    import weakref

    gc.disable()
    try:
        store = ParameterStore(1000, 8, storage=StorageConfig(
            backend="dense" if dense else "sparse"))
        store.add(np.array([3]), np.ones((1, 8), dtype=np.float32))
        table = weakref.ref(store._table)
        values = weakref.ref(store.value_column)
        del store
        assert table() is None and values() is None
    finally:
        gc.enable()
