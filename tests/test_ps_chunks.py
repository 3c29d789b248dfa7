"""Unit tests for the key-space containers (repro.ps.chunks).

The columns duck-type the ndarray subset the parameter-server hot paths
use; every operation here is checked against the equivalent dense-array
result, because bit-identity with the dense backend is the contract.
Tables are built the way the parameter servers build theirs, through
:meth:`StorageConfig.table` and :meth:`ChunkedTable.column`, and the
accumulating writes go through the production ``scatter_add_rows``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ps.chunks import (
    DEFAULT_CHUNK_ROWS,
    ChunkedTable,
    MemoryBudget,
    MemoryBudgetExceeded,
    StorageConfig,
)
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore, scatter_add_rows
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.simulation.cluster import ClusterConfig


def _key_space(num_rows, chunk_rows=DEFAULT_CHUNK_ROWS, budget=None,
               label="t", backend="sparse") -> ChunkedTable:
    """A key space of ``num_rows`` keys on ``backend``."""
    return StorageConfig(backend=backend, chunk_rows=chunk_rows).table(
        num_rows, budget, label)


def _written_chunks(table) -> set:
    """The chunks a written key of the sparse ``table`` lies in, read off
    the index key by key."""
    return {key // table.chunk_rows for key in table._written[:-1].tolist()}


def _rows_of(table, chunks) -> int:
    """The keys of ``chunks`` (the last chunk may be partial)."""
    return sum(min(table.chunk_rows, table.num_rows - c * table.chunk_rows)
               for c in chunks)


class TestMemoryBudget:
    def test_error_message_is_actionable(self):
        budget = MemoryBudget(1024, label="parameter store (10^8 keys)")
        message = str(budget.exceeded(
            "materializing chunk 0 of store.values (4.0 KiB)", 512))
        assert "parameter store (10^8 keys)" in message
        assert "chunk 0 of store.values" in message
        assert "(used: 512.0 B)" in message
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


class TestVectorColumn:
    def test_reads_of_untouched_rows_return_fill(self):
        table = _key_space(100, 16)
        vec = table.column("v", np.int64, fill_value=-1)
        assert vec[5] == -1
        assert vec.take(np.array([0, 50, 99])).tolist() == [-1, -1, -1]
        assert table.nbytes == 0
        assert table.materialized_chunks == 0

    def test_write_materializes_only_touched_chunks(self):
        table = _key_space(100, 16)
        vec = table.column("v", np.int64)
        vec[np.array([3, 80])] = np.array([7, 9])
        assert table.materialized_chunks == 2
        assert vec[3] == 7 and vec[80] == 9
        assert vec[4] == 0  # same chunk, untouched row keeps the fill

    def test_fill_fn_computed_default(self):
        table = _key_space(100, 16)
        vec = table.column("v", np.int64, fill_fn=lambda keys: keys // 25)
        assert vec[0] == 0 and vec[99] == 3
        assert vec.take(np.array([10, 30, 60, 90])).tolist() == [0, 1, 2, 3]
        assert table.materialized_chunks == 0  # reads never materialize
        vec[30] = 7  # overrides the computed default in chunk 1 only
        assert vec[30] == 7
        assert vec[31] == 1  # same chunk, other rows keep the computed fill

    def test_where_equal_with_fill_fn(self):
        table = _key_space(64, 16)
        vec = table.column("v", np.int64, fill_fn=lambda keys: keys % 4)
        vec[2] = 99  # chunk 0 materialized, row 2 no longer equals 2
        expected = [k for k in range(64) if k % 4 == 2 and k != 2]
        assert vec.where_equal(2).tolist() == expected

    def test_count_nonzero_ignores_padding_of_a_fully_written_partial_chunk(
            self):
        table = _key_space(10, 4)
        vec = table.column("v", np.int64, fill_value=7)
        vec[:] = 0  # every chunk materialized, the last one half padding
        assert vec.count_nonzero() == 0
        assert vec.where_equal(0).tolist() == list(range(10))

    def test_table_copy_is_independent(self):
        table = _key_space(50, 16)
        vec = table.column("v", np.int64)
        vec[10] = 1
        clone = table.copy()
        twin = clone.columns[0]
        twin[10] = 2
        twin[40] = 3  # grows the clone's pool only
        assert vec[10] == 1 and twin[10] == 2
        assert table.materialized_chunks == 1 and clone.materialized_chunks == 2

    def test_densify_adopts_an_array_on_a_dense_table_only(self):
        dense = _key_space(50, 16, backend="dense")
        vec = dense.column("v", np.int64, fill_value=7)
        array = np.arange(50, dtype=np.int64)
        assert vec.densify(array) is array is vec.pool
        array[20] = 99  # direct write must be visible through chunked reads
        assert vec[20] == 99
        vec[21] = 4  # chunked write must be visible through the array
        assert array[21] == 4
        sparse = _key_space(50, 16)
        column = sparse.column("v", np.int64, fill_value=7)
        column[3] = 1
        column.densify(array)  # a sparse table writes every key
        assert column.take(np.arange(50)).tolist() == array.tolist()
        assert sparse.materialized_chunks == sparse.num_chunks
        array[0] = -1
        assert column[0] == 0

    def test_densify_is_charged_against_the_budget(self):
        table = _key_space(8, 4, MemoryBudget(64, label="tiny"))
        column = table.column("m", np.float32, (4,))
        with pytest.raises(MemoryBudgetExceeded, match="budget of tiny"):
            column.densify(np.zeros((8, 4), dtype=np.float32))  # 128 bytes
        assert table.nbytes == 0 and table._fill_end == 1

    def test_integer_index_follows_numpy(self):
        table = _key_space(100, 16)
        vec = table.column("v", np.int64)
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
        tables = [_key_space(100, 16, budget, label="slots"),
                  _key_space(100, 16, budget)]
        vec = tables[0].column("v", np.int64, fill_value=3)
        mat = tables[1].column("m", np.float32, (4,))
        keys = np.array([5, bad, 7])
        message = rf"key {bad} is out of range \[0, 100\)"
        for table, container, value in ((tables[0], vec, 1),
                                        (tables[1], mat, np.ones((3, 4)))):
            with pytest.raises(IndexError, match=message):
                container.take(keys)
            with pytest.raises(IndexError, match=message):
                container[keys]
            with pytest.raises(IndexError, match=message):
                container[keys] = value
            with pytest.raises(IndexError, match=message):
                table.writable_rows(keys)
            assert table.materialized_chunks == 0
            assert table.nbytes == 0
        assert "slots" in str(pytest.raises(IndexError, vec.take, keys).value)

    def test_large_batches_are_checked_too(self):
        table = _key_space(1000, 16)
        vec = table.column("v", np.int64)
        keys = np.arange(200)
        keys[150] = -3
        with pytest.raises(IndexError, match="key -3 "):
            vec.take(keys)

    def test_two_dimensional_keys_rejected(self):
        table = _key_space(10)
        with pytest.raises(IndexError, match="one-dimensional"):
            table.column("v", np.int64).take(np.zeros((2, 2), dtype=np.int64))


class TestMatrixColumn:
    def test_reads_of_untouched_rows_are_zero(self):
        table = _key_space(100, 16)
        mat = table.column("m", np.float32, (4,))
        np.testing.assert_array_equal(mat[7], np.zeros(4, dtype=np.float32))
        assert table.nbytes == 0
        assert mat.shape == (100, 4) and mat.ndim == 2

    def test_row_view_semantics_on_materialized_chunk(self):
        table = _key_space(100, 16)
        mat = table.column("m", np.float32, (4,))
        mat[3] = np.ones(4)
        row = mat[3]
        row += 1.0  # in-place on the view mutates the chunk, like ndarray
        np.testing.assert_array_equal(mat[3], np.full(4, 2.0, np.float32))

    def test_unmaterialized_row_is_read_only(self):
        """Regression: ``m[k]`` on an unmaterialized chunk returned a fresh
        writable zero row, so ``row = m[k]; row += d`` was silently lost."""
        table = _key_space(100, 16)
        mat = table.column("m", np.float32, (4,))
        row = mat[40]
        with pytest.raises(ValueError, match="read-only"):
            row += 1.0
        assert table.materialized_chunks == 0
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
        table = _key_space(5000, 100)
        mat = table.column("m", np.float64, (3,))
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
        table = _key_space(64, 16)
        mat = table.column("m", np.float32, (4,))
        keys = np.array([1, 20, 40], dtype=np.int64)
        deltas = np.full((3, 4), 0.5, dtype=np.float32)
        dense[keys] += deltas
        mat[keys] += deltas
        np.testing.assert_array_equal(mat.take(np.arange(64)), dense)

    def test_take_requires_axis_zero(self):
        table = _key_space(10)
        with pytest.raises(ValueError):
            table.column("m", np.float32, (2,)).take(np.array([0]), axis=1)


class TestDenseTable:
    def test_dense_and_sparse_columns_agree(self):
        tables = [_key_space(50, 16, backend=backend)
                  for backend in ("dense", "sparse")]
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
        table = _key_space(100, 16, MemoryBudget(1000), backend="dense")
        table.column("v", np.int64, fill_fn=lambda keys: keys % 3)
        assert table.nbytes == 800
        assert table.columns[0].pool.tolist() == [k % 3 for k in range(100)]
        assert table.materialized_chunks == table.num_chunks
        with pytest.raises(MemoryBudgetExceeded, match="dense t.w"):
            table.column("w", np.int64)
        assert table.nbytes == 800 and len(table.columns) == 1

    def test_rows_are_the_keys_and_claims_write_nothing(self):
        table = _key_space(100, 16, backend="dense")
        table.column("v", np.float32, (2,))
        keys = np.array([5, 99, 5])
        assert table._rows(keys).tolist() == [5, 99, 5]
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


def _drive(rng, table, at, reference, steps=120):
    """Apply ``steps`` random operations to column ``at`` of ``table`` and
    to ``reference``; compare after each. Returns the table the column is
    in at the end: a ``copy`` continues on the clone."""
    container = table.columns[at]
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
            rows = table.writable_rows(k)  # first: a write moves the pool
            scatter_add_rows(container.pool, rows, v)
            np.add.at(reference, k, v)
        elif op == 10 and not row_shape:
            value = reference[int(rng.integers(0, NUM_ROWS))]
            _exact(container.where_equal(value),
                   np.flatnonzero(reference == value))
            assert container.count_nonzero() == np.count_nonzero(reference)
        elif op == 11:  # continue on an independent clone
            clone = table.copy()
            container[0] = reference[0]  # must not reach the clone
            table, container = clone, clone.columns[at]
        _exact(container.take(everything), reference)
    return table


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float32, np.float64])
@pytest.mark.parametrize("fill", ["zero", "constant", "key-wise"])
def test_vector_matches_ndarray_reference(chunk_rows, dtype, fill):
    rng = np.random.default_rng([chunk_rows, np.dtype(dtype).num, len(fill)])
    table = _key_space(NUM_ROWS, chunk_rows)
    if fill == "key-wise":
        def fill_fn(keys):
            return (keys % 5 == 2) if dtype == np.bool_ else keys % 5 - 1
        table.column("v", dtype, fill_fn=fill_fn)
        reference = fill_fn(np.arange(NUM_ROWS)).astype(dtype)
    else:
        value = dtype(0 if fill == "zero" else 1)
        table.column("v", dtype, fill_value=value)
        reference = np.full(NUM_ROWS, value, dtype=dtype)
    assert table.materialized_chunks == 0
    _drive(rng, table, 0, reference)


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
def test_matrix_matches_ndarray_reference(chunk_rows, dtype):
    rng = np.random.default_rng([chunk_rows, np.dtype(dtype).num])
    table = _key_space(NUM_ROWS, chunk_rows)
    table.column("m", dtype, (3,))
    _drive(rng, table, 0, np.zeros((NUM_ROWS, 3), dtype=dtype))


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_densified_column_matches_ndarray_reference(chunk_rows):
    """A sparse table that adopted an initial array (the sparse store's
    random init) behaves as that array."""
    rng = np.random.default_rng(chunk_rows)
    reference = rng.normal(size=(NUM_ROWS, 3)).astype(np.float32)
    table = _key_space(NUM_ROWS, chunk_rows)
    table.column("m", np.float32, (3,)).densify(reference.copy())
    _drive(rng, table, 0, reference)


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
    table = _key_space(NUM_ROWS, chunk_rows, budget,
                       backend="dense" if dense else "sparse")
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
    """The single-column differential, one random column at a time: an
    operation on one column (materialization and ``copy`` included) must
    leave every column of the table exact, and the table charged for the
    chunks its written keys lie in."""
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
    row_nbytes = sum(reference[0].nbytes for reference in references)
    for _ in range(150):
        at = int(rng.integers(0, num_columns))
        table = _drive(rng, table, at, references[at], steps=1)
        for column, reference in zip(table.columns, references):
            _exact(column.take(everything), reference)
        if not dense:
            chunks = _written_chunks(table)
            assert table.materialized_chunks == len(chunks)
            assert table.nbytes == _rows_of(table, chunks) * row_nbytes
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
def test_a_budgeted_table_is_charged_its_written_chunks_or_refuses(data):
    """First writes and relabels on a budgeted table, interleaved: each
    either leaves the table charged for exactly the chunks its written keys
    lie in, within the limit, or raises and changes nothing."""
    num_rows = 60
    chunk_rows = data.draw(st.sampled_from([1, 4, 7]), label="chunk_rows")
    limit = data.draw(st.integers(1, 8), label="chunks") * chunk_rows * 8
    table = _key_space(num_rows, chunk_rows, MemoryBudget(limit))
    column = table.column("v", np.int64)
    dense = np.zeros(num_rows, dtype=np.int64)
    for step in range(data.draw(st.integers(1, 10), label="steps")):
        before = (table._written, table._slot, table.nbytes)
        try:
            if data.draw(st.booleans(), label="relabel"):
                new_key_of = np.asarray(data.draw(st.permutations(
                    range(num_rows))), dtype=np.int64)
                table.relabel(new_key_of)
                moved = np.empty_like(dense)
                moved[new_key_of] = dense
                dense = moved
            else:
                keys = np.array(data.draw(st.lists(
                    st.integers(0, num_rows - 1), max_size=6)), dtype=np.int64)
                column[keys] = step + 1
                dense[keys] = step + 1
        except MemoryBudgetExceeded:
            assert table._written is before[0] and table._slot is before[1]
            assert table.nbytes == before[2]
        chunks = _written_chunks(table)
        assert table.nbytes == _rows_of(table, chunks) * 8 <= limit
        assert table.materialized_chunks == len(chunks)
        _exact(column.take(np.arange(num_rows)), dense)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_first_writes_merge_into_the_index_like_np_insert(data):
    """Reads, first writes (whole batches and selected keys of a batch)
    and relabels, interleaved: the table's index equals one kept with
    ``np.insert``, its charge the chunks of that index's keys, and its
    contents a dense array's. Keys 0 and
    ``num_rows - 1`` (next to the sentinel) and repeated keys within one
    batch come up often."""
    num_rows = data.draw(st.sampled_from([1, 2, 5, 50]), label="num_rows")
    chunk_rows = data.draw(st.sampled_from([1, 3, 16, 64]), label="chunk_rows")
    table = _key_space(num_rows, chunk_rows)
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
            assert table._rows(keys).tolist() == reference.rows(keys)
        elif op == "set":  # fancy set: the last of repeated keys wins
            column[keys] = keys * 10 + step
            reference.write(keys)
            dense[keys] = keys * 10 + step
        else:
            select = np.array(data.draw(st.lists(
                st.booleans(), min_size=len(keys), max_size=len(keys))),
                dtype=bool)
            rows = table.claim(keys, table._rows(keys), select)
            reference.write(keys[select])
            assert rows.tolist() == reference.rows(keys)
            column.pool[rows[select]] = -keys[select]
            dense[keys[select]] = -keys[select]
        assert table._written.tolist() == reference.written.tolist()
        assert table._slot.tolist() == reference.slot.tolist()
        chunks = {key // table.chunk_rows for key in reference.written[:-1]}
        assert table.materialized_chunks == len(chunks)
        assert table.nbytes == _rows_of(table, chunks) * 8
        _exact(column.take(everything), dense)


class TestTable:
    def test_one_index_for_all_columns(self):
        table, _ = _table(5, 7)
        assert len({id(column.table) for column in table.columns}) == 1
        table.columns[1][100] = 1.0  # through one column: every column's record
        assert table.materialized_chunks == 1
        assert table._written[:-1].tolist() == [100]
        rows = table._rows(np.array([100, 5]))
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
        table = _key_space(100, 16)
        table.column("v", np.int64, fill_fn=lambda keys: keys)
        with pytest.raises(ValueError, match="key-wise fill"):
            table.relabel(np.arange(100)[::-1].copy())

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
        """A batch whose chunks do not all fit is refused whole in every
        column, naming the first chunk that does not fit; the chunks that
        would have fitted are charged by the next write, summed over the
        columns."""
        chunk_bytes = 7 * (1 + 12 + 8 + 8)  # one 7-row chunk of 4 columns
        budget = MemoryBudget(2 * chunk_bytes + 5, label="node 0")
        table, references = _table(4, 7, budget)
        with pytest.raises(MemoryBudgetExceeded, match="chunk 20 of t "):
            table.columns[1][np.array([140, 3, 70])] = 1.0  # chunks 0, 10, 20
        assert table.materialized_chunks == 0 and table.nbytes == 0
        for column, reference in zip(table.columns, references):
            _exact(column.take(np.arange(NUM_ROWS)), reference)  # not written
        table.columns[1][np.array([3, 70])] = 1.0  # two chunks fit
        assert table.columns[1][70].tolist() == [1.0] * 3
        assert table.materialized_chunks == 2
        assert table.nbytes == 2 * chunk_bytes

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
        table.columns[0][np.array([3, 70])] = True  # chunks 0 and 10
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
        table = _key_space(10**6, label="node0")
        for name, dtype, row_shape in NODE_COLUMNS:
            table.column(name, dtype, row_shape)
        for column in table.columns:
            column[keys] = 1
    assert table.materialized_chunks == k
    record = table.columns[0].pool.strides[0]
    assert 1 <= _nonzero_pages(table) <= -(-k * record // 4096) + 1


def test_an_unwritten_key_space_allocates_no_table():
    """A sparse ``10**8``-key table with one column: nothing per chunk is
    allocated before the first write (building a page table over its
    24 415 chunks peaked at 390 KiB)."""
    def build():
        table = _key_space(10**8, label="huge")
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
        table = _key_space(self.NUM_KEYS, label="node0")
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
        table = _key_space(1000, 16, MemoryBudget(200, label="test vector"),
                           label="vector")
        vec = table.column("v", np.int64)
        vec[0] = 1  # one 16-row int64 chunk = 128 bytes
        assert table.nbytes == 128
        pool = vec.pool
        with pytest.raises(MemoryBudgetExceeded, match="chunk 31 of vector"):
            vec[500] = 1  # second chunk would exceed 200 bytes
        assert vec.pool is pool  # refused before any allocation
        assert table.nbytes == 128
        assert table.materialized_chunks == 1
        assert vec[500] == 0

    def test_batch_is_refused_whole_and_names_the_first_chunk_over(self):
        table = _key_space(1000, 16, MemoryBudget(300, label="node 0"),
                           label="clock")
        vec = table.column("v", np.int64)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            vec[np.array([900, 5, 400])] = 1  # chunks 0, 25 fit; 56 does not
        message = str(excinfo.value)
        assert "chunk 56 of clock" in message and "node 0" in message
        assert "after this write's 2 chunks before it (256.0 B)" in message
        assert "used: 0.0 B" in message  # held before the batch
        assert table.materialized_chunks == 0 and table.nbytes == 0

    @pytest.mark.parametrize("entry", ["fancy set", "writable_rows", "claim"])
    def test_a_refused_write_changes_nothing(self, entry):
        """Regression: a refused batch charged and wrote the chunks before
        the first one over the budget."""
        table, references = _table(2, 7, MemoryBudget(3 * 7 * 13))
        table.columns[1][np.array([3, 10])] = 2.0  # chunks 0 and 1
        index = table._written, table._slot
        before = (table.materialized_chunks, table.nbytes)
        keys = np.array([40, 9, 70])  # chunk 5 would fit, 10 does not
        with pytest.raises(MemoryBudgetExceeded, match="chunk 10 of t "):
            if entry == "fancy set":
                table.columns[0][keys] = True
            elif entry == "writable_rows":
                table.writable_rows(keys)
            else:
                table.claim(keys, table._rows(keys))
        assert (table.materialized_chunks, table.nbytes) == before
        assert table._written is index[0] and table._slot is index[1]
        references[1][[3, 10]] = 2.0
        for column, reference in zip(table.columns, references):
            _exact(column.take(np.arange(NUM_ROWS)), reference)

    def test_a_refused_relabel_changes_nothing(self):
        """A relabel whose keys land in more chunks than the budget covers
        raises, index and charge untouched (it charged the chunks that fit
        before it raised)."""
        table = _key_space(NUM_ROWS, 7, MemoryBudget(3 * 7 * 13), label="t")
        table.column("mask", bool)
        values = table.column("values", np.float32, (3,))
        keys = np.arange(14)
        values[keys] = np.arange(42, dtype=np.float32).reshape(14, 3)
        index = table._written, table._slot
        contents = values.take(np.arange(NUM_ROWS))
        spread = np.arange(NUM_ROWS) * 7 % NUM_ROWS  # key k -> 7k mod 300
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            table.relabel(spread)
        assert table._written is index[0] and table._slot is index[1]
        assert (table.materialized_chunks, table.nbytes) == (2, 2 * 7 * 13)
        _exact(values.take(np.arange(NUM_ROWS)), contents)
        assert "relabelling t onto 14 chunks (1.2 KiB)" in str(excinfo.value)

    def test_a_relabel_frees_room_for_a_write_refused_before(self):
        """The chunks a relabel empties are released: a write the full
        budget refused fits once the written keys share fewer chunks."""
        table = _key_space(100, 10, MemoryBudget(2 * 10 * 8))
        vec = table.column("v", np.int64)
        vec[np.array([1, 2, 11, 12])] = np.array([5, 6, 7, 8])  # chunks 0, 1
        with pytest.raises(MemoryBudgetExceeded, match="chunk 5 of t "):
            vec[50] = 9
        gather = np.arange(100)
        gather[[11, 12, 3, 4]] = [3, 4, 11, 12]  # keys 11, 12 -> chunk 0
        table.relabel(gather)
        assert (table.materialized_chunks, table.nbytes) == (1, 10 * 8)
        vec[50] = 9
        assert (table.materialized_chunks, table.nbytes) == (2, 2 * 10 * 8)
        assert vec.take(np.array([1, 2, 3, 4, 50])).tolist() == [5, 6, 7, 8, 9]
        assert vec[11] == 0 and vec[12] == 0

    def test_new_keys_in_charged_chunks_fit_a_full_budget(self):
        """A chunk is charged once, for all its rows: first writes of
        further keys inside it charge nothing, even at the limit."""
        table = _key_space(100, 10, MemoryBudget(2 * 10 * 8))
        vec = table.column("v", np.int64)
        vec[np.array([0, 15])] = 1  # chunks 0 and 1: the whole budget
        vec[np.arange(20)] = np.arange(20)  # the other 18 keys of them
        assert (table.materialized_chunks, table.nbytes) == (2, 2 * 10 * 8)
        assert vec.take(np.arange(20)).tolist() == list(range(20))
        with pytest.raises(MemoryBudgetExceeded, match="chunk 2 of t "):
            vec[20] = 1

    @pytest.mark.parametrize("charge", ["write", "relabel"])
    def test_a_charge_reaching_the_limit_exactly_fits(self, charge):
        """The limit is inclusive for first writes and relabels alike; one
        chunk more is refused."""
        table = _key_space(100, 10, MemoryBudget(3 * 10 * 8))
        vec = table.column("v", np.int64)
        vec[np.array([0, 1, 2])] = np.array([4, 5, 6])  # chunk 0
        if charge == "write":
            vec[np.array([35, 99])] = 1  # chunks 3 and 9
        else:
            spread = np.arange(100)
            spread[[1, 2, 35, 99]] = [35, 99, 1, 2]
            table.relabel(spread)
        assert (table.materialized_chunks, table.nbytes) == (3, 3 * 10 * 8)
        with pytest.raises(MemoryBudgetExceeded):
            vec[50] = 1
        assert table.nbytes == 3 * 10 * 8

    def test_a_relabel_of_an_unwritten_table_charges_nothing(self):
        table = _key_space(100, 10, MemoryBudget(8))
        vec = table.column("v", np.int64, fill_value=3)
        table.relabel(np.arange(100)[::-1].copy())
        assert (table.materialized_chunks, table.nbytes) == (0, 0)
        assert vec.take(np.array([0, 99])).tolist() == [3, 3]

    def test_a_relabel_into_the_partial_last_chunk_charges_its_rows(self):
        """A key moved into the 3-row last chunk charges 3 rows, and moving
        it back charges a full chunk again."""
        table = _key_space(1003, 8, MemoryBudget(8 * 16))
        mat = table.column("m", np.float32, (4,))
        mat[5] = np.arange(4, dtype=np.float32)
        swap = np.arange(1003)
        swap[[5, 1001]] = [1001, 5]
        table.relabel(swap)
        assert (table.materialized_chunks, table.nbytes) == (1, 3 * 16)
        assert mat[1001].tolist() == [0.0, 1.0, 2.0, 3.0]
        table.relabel(swap)
        assert (table.materialized_chunks, table.nbytes) == (1, 8 * 16)
        assert mat[5].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_a_table_copy_keeps_the_charge_and_drops_the_budget(self):
        """A clone is charged for the same chunks, unbounded, and its
        writes charge the clone only."""
        table = _key_space(100, 10, MemoryBudget(2 * 10 * 8))
        vec = table.column("v", np.int64)
        vec[np.array([3, 17])] = 1
        clone = table.copy()
        assert clone.budget is None
        assert (clone.materialized_chunks, clone.nbytes) == (2, 2 * 10 * 8)
        clone.columns[0][np.array([40, 60, 80])] = 2  # over the original's
        assert (clone.materialized_chunks, clone.nbytes) == (5, 5 * 10 * 8)
        assert (table.materialized_chunks, table.nbytes) == (2, 2 * 10 * 8)
        assert vec[40] == 0

    def test_growth_charges_exactly_the_materialized_chunks(self):
        table = _key_space(1003, 8, MemoryBudget(10**6))
        mat = table.column("m", np.float32, (4,))
        rng = np.random.default_rng(0)
        for _ in range(30):
            keys = rng.integers(0, 1003, size=5)
            rows = table.writable_rows(keys)
            scatter_add_rows(mat.pool, rows, np.ones((5, 4), dtype=np.float32))
            chunks = _written_chunks(table)
            assert table.materialized_chunks == len(chunks)
            assert table.nbytes == _rows_of(table, chunks) * 16
        # The partial last chunk (3 rows) is charged for its rows only, and
        # spare pool capacity is charged to nobody.
        mat[1002] = 1.0
        full = table.materialized_chunks - 1
        assert table.nbytes == (full * 8 + 3) * 16
        assert mat.pool.nbytes > table.nbytes

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

    def test_a_store_permutation_over_budget_names_its_setting(self):
        """A drift that spreads the written keys over more chunks than the
        store's budget covers is refused, and the store reads as before."""
        config = StorageConfig(backend="sparse", chunk_rows=10,
                               store_budget_bytes=2 * 10 * (4 + 8))
        store = ParameterStore(100, 1, storage=config)
        keys = np.arange(0, 20, 2)  # chunks 0 and 1
        store.add(keys, np.ones((10, 1), dtype=np.float32))
        spread = np.arange(100) * 11 % 100  # keys 0, 2, .. -> 0, 22, 44, ..
        with pytest.raises(MemoryBudgetExceeded,
                           match=r"relabelling store onto 10 chunks .* "
                                 r"Raise StorageConfig\.store_budget_bytes,"):
            store.permute(spread)
        assert store.get(keys).tolist() == [[1.0]] * 10
        assert store.nbytes() == 2 * 10 * (4 + 8)

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
        assert store.nbytes() == 25_520_640

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
