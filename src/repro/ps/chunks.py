"""Key-space containers with explicit memory budgets.

Every per-key structure of the parameter servers — the store's values and
versions, relocation's owners and arrival times, a replication node's
replica and update buffer, NuPS's replica slots — is a column
(:class:`ChunkedArray`) of one key space (:class:`ChunkedTable`), on both
storage backends:

* **dense** (``ChunkedTable(dense=True)``): one contiguous array per column,
  keys are rows. The speed path and the bit-identity oracle.
* **sparse**: a key costs what is written into it. A key gets a record on
  its first *write*, and reads of keys without one return the fill value
  (zeros for values and update buffers, ``-1`` for slot tables, the static
  partition for owner maps) without allocating anything.

A sparse table is **a sorted index of its written keys** over **one compact
pool** that holds one aligned structured record per written key, with one
field per column; a column is the view of its field::

    key k --> position of k in the sorted written keys --> pool record
              (not written: the shared fill record, pool row 0)

Every unwritten key maps onto the *fill record*, which is never written, so
a read needs no branch. Callers translate a key batch to rows once —
whatever the number of columns they touch (:meth:`ChunkedTable.rows`, one
vectorised ``searchsorted``; on a dense table the keys themselves) — and run
the ordinary NumPy operation (fancy get and set, ``np.add.at``) on
``column.pool``; the result is the dense backend's because it *is* the same
NumPy call. A field view is strided, and ``ndarray.take`` copies a
non-contiguous array whole before it gathers: gathers go through
:meth:`ChunkedArray.gather`, never ``take`` on a pool.

**A key space is charged for the chunks its written keys lie in.** Keys
fall into chunks of ``chunk_rows`` keys; a sparse chunk is charged, at
``rows x (sum of the columns' row bytes)``, while a written key lies in it,
so the index is the only record of the charge (``materialized_chunks``,
``nbytes``; a chunk no key holds after a relabel is released). A dense
table charges every column whole. A write or relabel that would go over the
optional :class:`MemoryBudget` is refused whole, *before* anything changes
(:class:`MemoryBudgetExceeded`, with an actionable message). Residency is
finer: a sparse key space costs its index (16 bytes per written key) plus
one record per written key, appended to the pool in order of first write.
The pool is an anonymous mapping whose capacity covers every charged row;
spare capacity is zeroed, untouched and not resident, and the pool moves
(and ``column.pool`` becomes a new array) only when a chunk is charged.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "ChunkedArray",
    "ChunkedTable",
    "StorageConfig",
]


#: Default number of rows per chunk. Small enough that one touched key
#: charges kilobytes against a budget, not the whole key space; large enough
#: that chunk bookkeeping stays off the profile.
DEFAULT_CHUNK_ROWS = 4096

#: Rows per block when an operation walks the whole key space (key-wise fills
#: of unwritten keys and of dense columns): bounds the temporaries.
_SCAN_ROWS = 1 << 20


def _format_bytes(n: float) -> str:
    """Human-readable byte count for error messages."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0:
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} TiB"


class MemoryBudgetExceeded(MemoryError):
    """A write would take a key space over its memory budget."""


@dataclass(frozen=True)
class MemoryBudget:
    """The byte limit of one key space (:class:`ChunkedTable`), whose
    ``nbytes`` is what it holds against it.

    ``label`` names the state in error messages, ``setting`` the field to
    raise (e.g. ``StorageConfig.store_budget_bytes``).
    """

    limit_bytes: int
    label: str = "storage"
    setting: str = "the budget"

    def __post_init__(self) -> None:
        if self.limit_bytes <= 0:
            raise ValueError(
                f"memory budget must be positive, got {self.limit_bytes} "
                "bytes; use budget=None for unbounded storage"
            )

    def exceeded(self, what: str, used: int) -> MemoryBudgetExceeded:
        """The error for a charge ``what`` (its bytes included) that does
        not fit next to the ``used`` bytes held before it."""
        return MemoryBudgetExceeded(
            f"{what} would exceed the {_format_bytes(self.limit_bytes)} "
            f"memory budget of {self.label} (used: {_format_bytes(used)}). "
            f"Raise {self.setting}, reduce chunk_rows so each touched key "
            "materializes less state, or reduce the number of distinct keys "
            "touched"
        )


@dataclass(frozen=True)
class StorageConfig:
    """Storage-backend selection for a :class:`~repro.ps.storage.ParameterStore`.

    Parameters
    ----------
    backend:
        ``"dense"`` (the default: contiguous arrays, the bit-identity oracle)
        or ``"sparse"`` (a record per key on its first write).
    chunk_rows:
        Keys per chunk, the unit in which the sparse backend charges its
        budgets (the store's and the per-node state the parameter servers
        derive from it).
    store_budget_bytes:
        Optional cap on the store's resident bytes (values + versions).
        Exceeding it raises :class:`MemoryBudgetExceeded`.
    node_budget_bytes:
        Optional per-node cap for the replica/update state each
        :class:`~repro.ps.replication.ReplicationPS` node materializes.
    """

    backend: str = "dense"
    chunk_rows: int = DEFAULT_CHUNK_ROWS
    store_budget_bytes: Optional[int] = None
    node_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in ("dense", "sparse"):
            raise ValueError(
                f"storage backend must be 'dense' or 'sparse', got "
                f"{self.backend!r}"
            )
        if self.chunk_rows < 1:
            raise ValueError(
                f"chunk_rows must be >= 1 (got {self.chunk_rows}); it is the "
                "number of rows one chunk materializes"
            )
        for name in ("store_budget_bytes", "node_budget_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(
                    f"{name} must be positive when set (got {value}); "
                    "use None for unbounded storage"
                )

    def table(self, num_rows: int, budget: Optional[MemoryBudget] = None,
              label: str = "table") -> "ChunkedTable":
        """A key space of ``num_rows`` keys on this backend."""
        return ChunkedTable(num_rows, self.chunk_rows, budget, label,
                            dense=self.backend == "dense")


#: The default configuration: the dense oracle backend.
DENSE_STORAGE = StorageConfig()


def _zeroed(shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zero array in a private anonymous mapping of its own.

    Unlike heap memory, its pages are resident only once written and return
    to the system when the array dies: spare capacity is free.
    """
    import mmap  # not needed by the dense backend: keep `import repro` lean

    pages = mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize,
                      access=mmap.ACCESS_COPY)
    return np.frombuffer(pages, dtype=dtype).reshape(shape)


class ChunkedTable:
    """The index and the pool of one key space, shared by its columns.

    The table owns translation (the sorted written keys ``_written`` and
    their pool rows ``_slot``), the charge derived from them, the budget and
    the pool, whose record holds one field per column: a key is written in
    every column or in none, and a chunk is charged once, at ``rows x (sum
    of the columns' row bytes)``. A column (:class:`ChunkedArray`) is a view
    of its field, so one translation (:meth:`_rows` / :meth:`writable_rows`)
    indexes ``column.pool`` of every column. Keys outside ``[0, num_rows)``
    raise :class:`IndexError`.

    A dense table (``dense=True``) has no index and no pool: every column is
    one contiguous array, keys are rows, and the same methods run on it.
    """

    def __init__(self, num_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "table", dense: bool = False) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.num_rows = int(num_rows)
        # One chunk already covers a smaller key space; do not pad beyond it.
        self.chunk_rows = min(int(chunk_rows), self.num_rows)
        self.num_chunks = -(-self.num_rows // self.chunk_rows)
        self.budget = budget
        self.label = label
        self.columns: list = []
        #: Bytes of one row across all columns (alignment padding excluded).
        self._row_nbytes = 0
        #: Pool rows below this bound are the fill record. 0 on a dense
        #: table: the columns' pools are then dense arrays, keys are rows.
        self._fill_end = 0 if dense else 1
        #: The pool: the fill record, then one record per written key in
        #: order of first write, then zeroed spare capacity. ``None`` on a
        #: dense table.
        self._pool: Optional[np.ndarray] = None
        #: The pool's record, and the same layout with every field an
        #: opaque byte string (a matrix column's gather view).
        self._record = self._opaque = None
        self._used_rows = self.num_rows if dense else 1
        #: The written keys, ascending, and the pool row of each. Both end
        #: in a sentinel, key ``num_rows`` on the fill record, so a lookup
        #: needs no bounds check. A write merges the fresh keys into new
        #: arrays (:meth:`_write`); these are never mutated, so a clone may
        #: share them.
        self._written = np.array([self.num_rows], dtype=np.int64)
        self._slot = np.zeros(1, dtype=np.int64)
        #: Rows of the chunks a written key lies in: the charge, derived
        #: from the index (a first write adds its fresh chunks, a relabel
        #: recounts).
        self.resident_rows = self.num_rows if dense else 0

    def column(self, name: str, dtype, row_shape: Tuple[int, ...] = (),
               fill_value=0, fill_fn=None) -> "ChunkedArray":
        """Add a column; on a sparse table only before the first chunk
        materializes."""
        return ChunkedArray(self, f"{self.label}.{name}", row_shape, dtype,
                            fill_value, fill_fn)

    @property
    def materialized_chunks(self) -> int:
        """The chunks a written key lies in (dense: all)."""
        if not self._fill_end:
            return self.num_chunks
        return len(self._chunks_of(self._written[:-1])[0])

    @property
    def nbytes(self) -> int:
        """Charged bytes of every column: the rows of the materialized
        chunks."""
        return self.resident_rows * self._row_nbytes

    def _chunks_of(self, keys: np.ndarray):
        """The chunks the ascending ``keys`` lie in, ascending, with each
        one's first key and its end (the next chunk's first key, or
        ``num_rows``)."""
        cids = keys // self.chunk_rows
        if len(cids) > 1:  # a single key is distinct already
            cids = np.unique(cids)
        first = cids * self.chunk_rows
        return cids, first, np.minimum(first + self.chunk_rows, self.num_rows)

    def _check_budget(self, total: int, what: str) -> None:
        """Refuse, before anything changes, a charge that takes the table to
        ``total`` bytes over its budget; ``what`` names it."""
        if self.budget is not None and total > self.budget.limit_bytes:
            raise self.budget.exceeded(what, self.nbytes)

    # ------------------------------------------------------------------ layout
    def _add(self, column: "ChunkedArray") -> None:
        """Give ``column`` its storage: an array of its own on a dense table
        (charged whole), else a field: a new record and a fresh fill
        record."""
        if not self._fill_end:
            size = self.num_rows * column._row_nbytes
            self._check_budget(self.nbytes + size, f"materializing dense "
                               f"{column.label} ({_format_bytes(size)})")
        self.columns.append(column)
        self._row_nbytes += column._row_nbytes
        if not self._fill_end:
            column.pool = column._full()
            column._items = None
            return
        # Widest alignment first: every field then sits at a multiple of its
        # own alignment, with padding only at the end of the record.
        order = sorted(range(len(self.columns)),
                       key=lambda i: -self.columns[i].dtype.alignment)
        offsets = [0] * len(order)
        end = 0
        for i in order:
            offsets[i] = end
            end += self.columns[i]._row_nbytes
        align = max(c.dtype.alignment for c in self.columns)
        layout = {"names": [str(i) for i in range(len(order))],
                  "offsets": offsets, "itemsize": -(-end // align) * align}
        self._record = np.dtype(dict(layout, formats=[
            (c.dtype, c.row_shape) for c in self.columns]))
        self._opaque = np.dtype(dict(layout, formats=[
            np.dtype((np.void, c._row_nbytes)) for c in self.columns]))
        self._bind(_zeroed((1,), self._record))
        for c in self.columns:
            if c.fill_fn is None and c.fill_value:
                c.pool[...] = c.fill_value

    def _bind(self, pool: np.ndarray) -> None:
        """Make ``pool`` the table's pool and every column a view of it."""
        self._pool = pool
        opaque = pool.view(self._opaque)
        for i, c in enumerate(self.columns):
            c.pool = pool[str(i)]
            c._items = opaque[str(i)] if c.row_shape else c.pool

    # ------------------------------------------------------------- translation
    def writable_rows(self, keys) -> np.ndarray:
        """Validated pool rows of ``keys`` (:meth:`_rows`) after giving every
        key a record of its own."""
        keys = self._keys(keys)
        return self.claim(keys, self._rows(keys))

    def claim(self, keys: np.ndarray, rows: np.ndarray,
              select=None) -> np.ndarray:
        """``rows`` (the :meth:`_rows` of ``keys``) once the keys the boolean
        mask ``select`` picks (all without one) have records of their own:
        the selected keys on the fill record get one — range-checked first —
        and the batch is translated again only after such a write. On a
        dense table every key has its row already."""
        if not self._fill_end:
            return rows
        picked = rows if select is None else rows[select]
        if self._on_fill_record(picked):
            fresh = keys if select is None else keys[select]
            self._write(np.unique(self._keys(fresh[picked < self._fill_end])))
            rows = self._rows(keys)
        return rows

    def _out_of_range(self, key) -> IndexError:
        return IndexError(f"key {key} is out of range [0, {self.num_rows}) "
                          f"of {self.label}")

    def _key(self, index) -> int:
        """A validated integer index (negative counts from the end)."""
        key = int(index)
        if key < 0:
            key += self.num_rows
        if not 0 <= key < self.num_rows:
            raise self._out_of_range(int(index))
        return key

    def _keys(self, index) -> np.ndarray:
        """A slice or key sequence as a validated int64 key array."""
        if isinstance(index, slice):
            return np.arange(*index.indices(self.num_rows), dtype=np.int64)
        keys = np.asarray(index, dtype=np.int64)
        if keys.ndim != 1:
            raise IndexError(f"keys of {self.label} must be one-dimensional, "
                             f"got shape {keys.shape}")
        if keys.size:
            if keys.size <= 64:
                # Python min/max on a short list beats two NumPy reductions.
                as_list = keys.tolist()
                lo, hi = min(as_list), max(as_list)
            else:
                lo, hi = int(keys.min()), int(keys.max())
            if lo < 0 or hi >= self.num_rows:
                raise self._out_of_range(lo if lo < 0 else hi)
        return keys

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """Pool rows of (valid) ``keys`` in every column's ``pool`` (on a
        dense table, the keys). Unwritten keys land on the fill record, which
        holds a column's ``fill_value`` but not its ``fill_fn``; rows of
        written keys index a ``pool`` until the table next materializes a
        chunk."""
        if not self._fill_end:
            return keys
        at = self._written.searchsorted(keys)
        return np.where(self._written.take(at) == keys, self._slot.take(at), 0)

    def _on_fill_record(self, rows: np.ndarray) -> bool:
        """Whether any of the pool ``rows`` is the fill record."""
        if not (self._fill_end and rows.size):
            return False
        lowest = min(rows.tolist()) if rows.size <= 64 else int(rows.min())
        return lowest < self._fill_end

    def _row(self, key: int, writable: bool = False) -> int:
        """Pool row of one (valid) key; ``writable`` gives it a record."""
        if not self._fill_end:
            return key
        at = int(self._written.searchsorted(key))
        if self._written.item(at) == key:
            return self._slot.item(at)
        if not writable:
            return 0
        self._write(np.array([key], dtype=np.int64))
        return self._row(key)

    def _unwritten_keys(self) -> Iterator[np.ndarray]:
        """Ascending keys without a record, in bounded blocks."""
        if not self._fill_end:
            return
        written = self._written
        for lo in range(0, self.num_rows, _SCAN_ROWS):
            hi = min(lo + _SCAN_ROWS, self.num_rows)
            keep = np.ones(hi - lo, dtype=bool)
            first, last = written.searchsorted((lo, hi)).tolist()
            keep[written[first:last] - lo] = False
            yield np.flatnonzero(keep) + lo

    # ---------------------------------------------------------- materialization
    def _write(self, fresh: np.ndarray) -> None:
        """Give the ascending, distinct, unwritten keys ``fresh`` records,
        after charging the chunks they are the first to write into (a batch
        the budget refuses changes nothing)."""
        self._charge(fresh)
        start = self._used_rows
        end = start + len(fresh)
        for column in self.columns:
            column._append(fresh, start, end)
        # One merge for both arrays: the fresh keys' positions in the merged
        # index are computed once; the old entries fill the rest in order.
        size = len(self._written) + len(fresh)
        placed = self._written.searchsorted(fresh) + np.arange(len(fresh))
        old = np.ones(size, dtype=bool)
        old[placed] = False
        written = np.empty(size, dtype=np.int64)
        written[placed] = fresh
        written[old] = self._written
        slot = np.empty(size, dtype=np.int64)
        slot[placed] = np.arange(start, end, dtype=np.int64)
        slot[old] = self._slot
        self._written, self._slot = written, slot
        self._used_rows = end

    def relabel(self, new_key_of: np.ndarray) -> None:
        """Move key ``k``'s contents to key ``new_key_of[k]`` (a permutation).

        Records stay where they are in the pool: the index maps the written
        keys through the permutation, and the charge becomes the chunks they
        land in (a relabel the budget refuses changes nothing). A dense
        table replaces each column's array by its permutation. Refused for a
        column with a key-wise fill: an unwritten key would read the fill of
        the key it moved from.
        """
        if any(column.fill_fn is not None for column in self.columns):
            raise ValueError("cannot relabel a table with a key-wise fill")
        if not self._fill_end:
            for column in self.columns:
                moved = np.empty_like(column.pool)
                moved[new_key_of] = column.pool
                column.pool = moved
            return
        keys = new_key_of[self._written[:-1]]
        order = np.argsort(keys)
        keys = keys[order]
        cids, first, end = self._chunks_of(keys)
        rows = int((end - first).sum())
        size = rows * self._row_nbytes
        self._check_budget(size, f"relabelling {self.label} onto {len(cids)} "
                           f"chunks ({_format_bytes(size)})")
        self._written = np.append(keys, self.num_rows)
        self._slot = np.append(self._slot[:-1][order], 0)
        self._set_resident_rows(rows)

    def _charge(self, keys: np.ndarray) -> None:
        """Charge the chunks the ascending, unwritten ``keys`` are the first
        to write into, and grow the pool to cover every charged row.

        A chunk is charged already when a written key lies in it. When the
        fresh chunks do not all fit the budget, none is charged: the error
        names the first chunk (in ascending order) that does not fit.
        """
        cids, first, end = self._chunks_of(keys)
        fresh = self._written.take(self._written.searchsorted(first)) >= end
        if not fresh.any():
            return
        rows = (end - first)[fresh]
        if self.budget is not None:
            sizes = rows * self._row_nbytes
            ends = np.cumsum(sizes)
            room = self.budget.limit_bytes - self.nbytes
            if ends[-1] > room:
                at = int(ends.searchsorted(room, "right"))
                names = ", ".join(c.label for c in self.columns)
                what = (f"materializing chunk {int(cids[fresh][at])} of "
                        f"{self.label} in its columns {names} "
                        f"({_format_bytes(sizes[at])})")
                if at:
                    what += (f" after this write's {at} chunks before it "
                             f"({_format_bytes(ends[at - 1])})")
                raise self.budget.exceeded(what, self.nbytes)
        self._set_resident_rows(self.resident_rows + int(rows.sum()))

    def _set_resident_rows(self, rows: int) -> None:
        """Charge ``rows`` rows, growing the pool to cover them: the records
        (at most one per charged row) then fit, and the pool moves only when
        a chunk is charged; spare capacity is never resident."""
        self.resident_rows = rows
        if rows + 1 > len(self._pool):
            self._grow(rows + 1)

    def _grow(self, rows_needed: int) -> None:
        """Move to a pool of ``rows_needed`` rows or double the capacity (at
        most one record per key): ``n`` moves copy ``O(n)`` records."""
        pool = _zeroed((min(max(rows_needed, 2 * len(self._pool)),
                            self.num_rows + 1),), self._record)
        used = self._used_rows
        pool[:used] = self._pool[:used]
        self._bind(pool)

    def copy(self) -> "ChunkedTable":
        """An independent, budget-free clone (written records only)."""
        clone = copy.copy(self)
        clone.budget = None
        clone.columns = [copy.copy(column) for column in self.columns]
        for twin in clone.columns:
            twin.table = weakref.proxy(clone)
        if self._pool is not None:
            pool = _zeroed(self._pool.shape, self._record)
            pool[:self._used_rows] = self._pool[:self._used_rows]
            clone._bind(pool)
            return clone
        for column, twin in zip(self.columns, clone.columns):
            twin.pool = column.pool.copy()
        return clone


class ChunkedArray:
    """One column of a :class:`ChunkedTable`: ``num_rows`` rows of shape
    ``row_shape`` in one field of the table's pool, a record per written key.

    Reads of unwritten keys return ``fill_value``, or ``fill_fn(keys)`` (a
    vectorized key-wise default, e.g. the static partition for owner maps)
    when one is given. Supports the ndarray subset used by the PS hot paths:
    ``take``, integer/slice/fancy get and set, and for vectors
    ``where_equal``/``count_nonzero``. Keys outside ``[0, num_rows)`` raise
    :class:`IndexError` (an integer index may be negative and then counts
    from the end, like NumPy). Accumulating writes go through the rows of
    :meth:`ChunkedTable.writable_rows` into ``pool``.

    **View contract.** Fancy, slice and ``take`` reads return copies. An
    integer index into a multi-dimensional column returns a *view* of the
    row, like dense row indexing: live (writes go through) when the key is
    written, read-only (writes raise) when it is not — write through
    ``column[k] = ...`` to give it a record. Views stay attached until the
    table next materializes a chunk (through any column); do not hold them
    across writes. A column of a table nobody holds any more raises
    :class:`ReferenceError`.
    """

    def __init__(self, table: ChunkedTable, label: str,
                 row_shape: Tuple[int, ...], dtype, fill_value=0,
                 fill_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
                 ) -> None:
        if table._fill_end and len(table._written) > 1:
            raise ValueError(f"{table.label} has materialized chunks: "
                             f"column {label} comes too late")
        #: The key space, referred to weakly: the table holds its columns,
        #: and a strong reference back would make every table a reference
        #: cycle that only the cyclic collector frees, arrays and all. Whoever
        #: builds a table keeps it.
        self.table = weakref.proxy(table)
        self.label = label
        self.num_rows = table.num_rows
        self.row_shape = tuple(int(n) for n in row_shape)
        self.shape = (self.num_rows,) + self.row_shape
        self.ndim = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.fill_value = fill_value
        self.fill_fn = fill_fn
        self._row_nbytes = self.dtype.itemsize * int(np.prod(self.row_shape))
        self._row_type = np.dtype((self.dtype, self.row_shape))
        #: Indexed by the table's rows; a new array whenever the table grows
        #: or, dense, is relabelled: the column's field of the pool, or its
        #: own array on a dense table.
        self.pool: np.ndarray
        #: What :meth:`gather` indexes: the field, as one opaque item per row
        #: for a matrix; ``None`` when ``pool`` is contiguous.
        self._items: Optional[np.ndarray]
        table._add(self)

    def _fill(self, keys: np.ndarray) -> np.ndarray:
        """The key-wise default contents of ``keys``."""
        return np.asarray(self.fill_fn(keys), dtype=self.dtype)

    # ---------------------------------------------------------- materialization
    def _append(self, keys: np.ndarray, start: int, end: int) -> None:
        """Make pool rows ``[start, end)`` the fresh records of ``keys``. A
        zero fill writes nothing: spare capacity is zeroed, untouched
        memory."""
        if self.fill_fn is not None:
            self.pool[start:end] = self._fill(keys)
        elif self.fill_value:
            self.pool[start:end] = self.fill_value

    def _full(self) -> np.ndarray:
        """All ``num_rows`` rows holding the fill, in an array of their own
        (zeroed on allocation: a zero fill writes nothing)."""
        full = np.zeros(self.shape, self.dtype)
        if self.fill_fn is not None:
            for lo in range(0, self.num_rows, _SCAN_ROWS):
                hi = min(lo + _SCAN_ROWS, self.num_rows)
                full[lo:hi] = self._fill(np.arange(lo, hi, dtype=np.int64))
        elif self.fill_value:
            full[...] = self.fill_value
        return full

    # ---------------------------------------------------------------- reading
    def gather(self, rows: np.ndarray) -> np.ndarray:
        """A contiguous copy of ``pool[rows]`` for translated ``rows``.

        ``ndarray.take`` copies a non-contiguous array whole before it
        gathers, so it runs on a contiguous (dense) pool only; a field
        view is fancy-indexed, a matrix's as one opaque item per row.
        """
        items = self._items
        if items is None:
            return self.pool.take(rows, axis=0)
        if items is self.pool:
            return items[rows]
        return items[rows].view(self._row_type)

    def read_rows(self, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The contents of the valid ``keys`` from their translated ``rows``:
        :meth:`gather`, with ``fill_fn(keys)`` where a row is the fill
        record."""
        out = self.gather(rows)
        table = self.table
        if self.fill_fn is not None and table._on_fill_record(rows):
            unwritten = rows < table._fill_end
            out[unwritten] = self._fill(keys[unwritten])
        return out

    def take(self, keys, axis: int = 0) -> np.ndarray:
        if axis != 0:
            raise ValueError(f"take of {self.label} supports axis=0 only")
        keys = self.table._keys(keys)
        return self.read_rows(keys, self.table._rows(keys))

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return self.take(index)
        key = self.table._key(index)
        row = self.table._row(key)
        value = self.pool[row]
        if row < self.table._fill_end:
            if self.fill_fn is not None:
                return self._fill(np.array([key], dtype=np.int64))[0]
            if self.row_shape:
                value.flags.writeable = False  # a view of the fill record
        return value

    # ---------------------------------------------------------------- writing
    def __setitem__(self, index, value) -> None:
        # Rows first: materializing moves the pool to a new allocation.
        if isinstance(index, (int, np.integer)):
            rows = self.table._row(self.table._key(index), writable=True)
        else:
            rows = self.table.writable_rows(index)
        self.pool[rows] = value

    # ------------------------------------------------------------- predicates
    def where_equal(self, value) -> np.ndarray:
        """Ascending row indices whose element equals ``value``.

        Scans the written records; unwritten keys are evaluated through
        their fill only when it can match, and never written.
        """
        table = self.table
        if not table._fill_end:
            return np.flatnonzero(self.pool == value)
        pieces = [table._written[:-1][self.gather(table._slot[:-1]) == value]]
        if self.fill_fn is not None:
            pieces += [keys[self._fill(keys) == value]
                       for keys in table._unwritten_keys()]
        elif self.fill_value == value:
            pieces += table._unwritten_keys()
        if len(pieces) == 1:
            return pieces[0]
        return np.sort(np.concatenate(pieces))

    def count_nonzero(self) -> int:
        table = self.table
        # The records of the written keys: every row on a dense table.
        written = self.pool[table._fill_end:table._used_rows]
        total = int(np.count_nonzero(written))
        if self.fill_fn is not None:
            total += sum(int(np.count_nonzero(self._fill(keys)))
                         for keys in table._unwritten_keys())
        elif self.fill_value:
            total += self.num_rows - len(written)
        return total

    # ----------------------------------------------------------------- lifecycle
    def densify(self, initial: np.ndarray) -> np.ndarray:
        """Set every key's contents to the array ``initial``: a dense table
        adopts it (the array *is* this column's pool from then on), a sparse
        one writes every key (budget charged, refused whole)."""
        if self.table._fill_end:
            self[np.arange(self.num_rows)] = initial
        else:
            self.pool = initial
        return self.pool
