"""Chunked sparse state containers with explicit memory budgets.

The dense backend allocates ``num_keys``-length arrays per structure (the
replication architectures *per node*), which caps scale sweeps at a few
million keys. Here a key space costs what is written into it: a key gets a
record on its first *write*, and reads of keys without one return the fill
value (zeros for values and update buffers, ``-1`` for slot tables, the
static partition for owner maps) without allocating anything.

A key space (:class:`ChunkedTable`) is **a sorted index of its written
keys** over **one compact pool** that holds one aligned structured record
per written key, with one field per column; a column (:class:`ChunkedArray`;
a standalone ``ChunkedVector``/``ChunkedMatrix`` is a one-column table) is
the view of its field::

    key k --> position of k in the sorted written keys --> pool record
              (not written: the shared fill record, pool row 0)

Every unwritten key maps onto the *fill record*, which is never written, so
a read needs no branch: one vectorised ``searchsorted`` translates a key
batch to pool rows — once per batch, whatever the number of columns touched
— and the ordinary dense operation (fancy get and set, ``np.add.at``) then
runs on a field view. The whole batch hits one array in batch order, so the
result is bit-identical to the dense backend because it *is* the same NumPy
call. The columns duck-type the slice of the :class:`numpy.ndarray` API the
parameter-server hot paths use, so the servers run unchanged on either.
Callers that address the same keys many times (a charged chunk's value
pass) translate once and keep the rows.

A field view is strided, and ``ndarray.take`` copies a non-contiguous array
whole before it gathers: gathers from a pool go through fancy indexing
(:meth:`ChunkedArray.gather`), never ``take``.

**Chunks are the unit of accounting.** Keys fall into fixed-size chunks of
``chunk_rows`` keys, and the first write into a chunk *materializes* it: the
chunk is charged once against an optional :class:`MemoryBudget`, at ``rows
x (sum of the columns' row bytes)``, *before* anything is recorded (over
budget raises :class:`MemoryBudgetExceeded` with an actionable message).
``materialized_chunks`` and ``nbytes`` count those chunks, whatever the
number of records written into them. Residency is finer: a key space costs
its index (16 bytes per written key) plus one record per written key — a
scattered key makes its record resident, not a page of its own, since
records are appended to the pool in order of first write. The pool is an
anonymous mapping whose capacity covers every charged row; spare capacity is
zeroed, untouched and not resident, and the pool moves (and ``column.pool``
becomes a new array) only when a chunk is charged. A column with a non-zero
fill writes it into each fresh record.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "ChunkedArray",
    "ChunkedTable",
    "ChunkedMatrix",
    "ChunkedVector",
    "StorageConfig",
    "flatnonzero_equal",
]


#: Default number of rows per chunk. Small enough that one touched key
#: charges kilobytes against a budget, not the whole key space; large enough
#: that chunk bookkeeping stays off the profile.
DEFAULT_CHUNK_ROWS = 4096

#: Rows per block when an operation walks the whole key space (key-wise fills
#: of unwritten keys, densification): bounds the temporaries.
_SCAN_ROWS = 1 << 20


def _format_bytes(n: float) -> str:
    """Human-readable byte count for error messages."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0:
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} TiB"


class MemoryBudgetExceeded(MemoryError):
    """A chunk materialization would exceed the configured memory budget."""


class MemoryBudget:
    """Byte accounting for lazily materialized state.

    One budget instance can be shared by several containers (e.g. a store's
    value and version chunks), so the limit covers their combined resident
    bytes. ``charge`` raises :class:`MemoryBudgetExceeded` *before* the
    allocation happens.
    """

    def __init__(self, limit_bytes: int, label: str = "storage") -> None:
        limit_bytes = int(limit_bytes)
        if limit_bytes <= 0:
            raise ValueError(
                f"memory budget must be positive, got {limit_bytes} bytes; "
                "use budget=None for unbounded storage"
            )
        self.limit_bytes = limit_bytes
        self.label = str(label)
        self.used_bytes = 0

    @property
    def remaining_bytes(self) -> int:
        return max(self.limit_bytes - self.used_bytes, 0)

    def charge(self, nbytes: int, what: str) -> None:
        """Reserve ``nbytes`` for ``what``; raise if it would go over budget."""
        if self.used_bytes + nbytes > self.limit_bytes:
            raise MemoryBudgetExceeded(
                f"materializing {what} ({_format_bytes(nbytes)}) would exceed "
                f"the {_format_bytes(self.limit_bytes)} memory budget of "
                f"{self.label} (used: {_format_bytes(self.used_bytes)}). "
                "Raise the budget (StorageConfig budget bytes), reduce "
                "chunk_rows so each touched key materializes less state, or "
                "reduce the number of distinct keys touched"
            )
        self.used_bytes += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBudget({_format_bytes(self.used_bytes)} / "
            f"{_format_bytes(self.limit_bytes)}, label={self.label!r})"
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
    their pool rows ``_slot``), the budget, materialization and the pool,
    whose record holds one field per column: a key is written in every
    column or in none, and a chunk is charged once, at ``rows x (sum of the
    columns' row bytes)``. A column (:class:`ChunkedArray`) is a view of its
    field, so one translation (:meth:`rows` / :meth:`writable_rows`) indexes
    ``column.pool`` of every column. Keys outside ``[0, num_rows)`` raise
    :class:`IndexError`.

    Densification replaces the pool by one contiguous array per column (what
    :meth:`ChunkedArray.densify` returns); the table has no pool from then
    on, and keys are rows.
    """

    def __init__(self, num_rows: int, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "table") -> None:
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
        #: Pool rows below this bound are the fill record. 0 once densified:
        #: the columns' pools are then dense arrays, keys are rows.
        self._fill_end = 1
        #: The pool: the fill record, then one record per written key in
        #: order of first write, then zeroed spare capacity. ``None`` once
        #: densified.
        self._pool: Optional[np.ndarray] = None
        #: The pool's record, and the same layout with every field an
        #: opaque byte string (a matrix column's gather view).
        self._record = self._opaque = None
        self._used_rows = 1
        #: The written keys, ascending, and the pool row of each. Both end
        #: in a sentinel, key ``num_rows`` on the fill record, so a lookup
        #: needs no bounds check. Replaced on every write (``np.insert``
        #: returns a new array), never mutated: a clone may share them.
        self._written = np.array([self.num_rows], dtype=np.int64)
        self._slot = np.zeros(1, dtype=np.int64)
        #: The materialized chunks, ascending, ending in sentinel
        #: ``num_chunks``.
        self._chunks = np.array([self.num_chunks], dtype=np.int64)
        #: Rows of the materialized chunks (what is charged and reported).
        self.resident_rows = 0

    def column(self, name: str, dtype, row_shape: Tuple[int, ...] = (),
               fill_value=0, fill_fn=None) -> "ChunkedArray":
        """Add a column; only before the first chunk materializes."""
        return ChunkedArray(self, f"{self.label}.{name}", row_shape, dtype,
                            fill_value, fill_fn)

    @property
    def materialized_chunks(self) -> int:
        if not self._fill_end:
            return self.num_chunks
        return len(self._chunks) - 1

    # ------------------------------------------------------------------ layout
    def _add(self, column: "ChunkedArray") -> None:
        """Give ``column`` a field: a new record and a fresh fill record."""
        self.columns.append(column)
        self._row_nbytes += column._row_nbytes
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
    def rows(self, keys) -> np.ndarray:
        """Validated pool rows of ``keys`` in every column's ``pool``.

        Unwritten keys land on the fill record, which holds a column's
        ``fill_value`` but not its ``fill_fn``. Rows of written keys stay
        valid until the table is densified, a ``pool`` only until the table
        next materializes a chunk.
        """
        return self._rows(self._keys(keys))

    def writable_rows(self, keys) -> np.ndarray:
        """:meth:`rows` after giving every key a record of its own."""
        keys = self._keys(keys)
        rows = self._rows(keys)
        if keys.size and self._on_fill_record(rows):
            self._write(np.unique(keys[rows < self._fill_end]))
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
        """Pool rows of (valid) ``keys``; unwritten ones hit the fill record."""
        if not self._fill_end:
            return keys
        at = self._written.searchsorted(keys)
        return np.where(self._written.take(at) == keys, self._slot.take(at), 0)

    def _on_fill_record(self, rows: np.ndarray) -> bool:
        """Whether any of the (non-empty) pool ``rows`` is the fill record."""
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
        after charging the chunks they are the first to write into."""
        self._charge(fresh)
        start = self._used_rows
        end = start + len(fresh)
        for column in self.columns:
            column._append(fresh, start, end)
        at = self._written.searchsorted(fresh)
        self._slot = np.insert(self._slot, at,
                               np.arange(start, end, dtype=np.int64))
        self._written = np.insert(self._written, at, fresh)
        self._used_rows = end

    def relabel(self, new_key_of: np.ndarray) -> None:
        """Move key ``k``'s contents to key ``new_key_of[k]`` (a permutation).

        Records stay where they are in the pool: the index maps the written
        keys through the permutation, after charging the chunks they land
        in first. A densified table permutes its arrays. Refused for a
        column with a key-wise fill: an unwritten key would read the fill of
        the key it moved from.
        """
        if any(column.fill_fn is not None for column in self.columns):
            raise ValueError("cannot relabel a table with a key-wise fill")
        if not self._fill_end:
            for column in self.columns:
                moved = np.empty_like(column.pool)
                moved[new_key_of] = column.pool
                column.pool[...] = moved
            return
        keys = new_key_of[self._written[:-1]]
        order = np.argsort(keys)
        keys = keys[order]
        self._charge(keys)
        self._written = np.append(keys, self.num_rows)
        self._slot = np.append(self._slot[:-1][order], 0)

    def _charge(self, keys: np.ndarray) -> None:
        """Charge the chunks the ascending ``keys`` are the first to write
        into, and grow the pool to cover every charged row.

        Chunks are charged in ascending order: when the budget runs out at
        some chunk, those before it materialize and its charge raises.
        """
        cids = np.unique(keys // self.chunk_rows)
        cids = cids[self._chunks.take(self._chunks.searchsorted(cids)) != cids]
        refused = None
        if len(cids):
            first = cids * self.chunk_rows
            sizes = (np.minimum(first + self.chunk_rows, self.num_rows)
                     - first) * self._row_nbytes
            if self.budget is not None:
                fits = int(np.searchsorted(np.cumsum(sizes),
                                           self.budget.remaining_bytes,
                                           "right"))
                if fits < len(cids):
                    names = ", ".join(c.label for c in self.columns)
                    refused = (int(sizes[fits]), f"chunk {int(cids[fits])} "
                               f"of {self.label} in its columns {names}")
                    cids, sizes = cids[:fits], sizes[:fits]
            if len(cids):
                total = int(sizes.sum())
                if self.budget is not None:
                    self.budget.charge(total,
                                       f"{len(cids)} chunks of {self.label}")
                self._chunks = np.insert(
                    self._chunks, self._chunks.searchsorted(cids), cids)
                self.resident_rows += total // self._row_nbytes
        if refused is not None:
            self.budget.charge(*refused)
        # Capacity covers every charged row, so the records (at most one
        # per charged row) fit and the pool moves only when a chunk is
        # charged; spare capacity is never resident.
        if self.resident_rows + 1 > len(self._pool):
            self._grow(self.resident_rows + 1)

    def _grow(self, rows_needed: int) -> None:
        """Move to a pool of ``rows_needed`` rows or double the capacity (at
        most one record per key): ``n`` moves copy ``O(n)`` records."""
        pool = _zeroed((min(max(rows_needed, 2 * len(self._pool)),
                            self.num_rows + 1),), self._record)
        used = self._used_rows
        pool[:used] = self._pool[:used]
        self._bind(pool)

    def _densify(self, column: "ChunkedArray", initial) -> None:
        """Materialize everything in every column (budget charged): no index,
        no fill record, one contiguous array per column instead of the pool.
        ``initial`` becomes ``column``'s contents."""
        if self.budget is not None:
            how = "densified" if initial is None else "dense-initialized"
            self.budget.charge((self.num_rows - self.resident_rows)
                               * self._row_nbytes, f"{how} {self.label}")
        pools = [initial if c is column and initial is not None
                 else c._dense() for c in self.columns]
        for c, pool in zip(self.columns, pools):
            c.pool = pool
            c._items = None
        self._pool = None
        self._fill_end = 0
        self._used_rows = self.resident_rows = self.num_rows

    def copy(self) -> "ChunkedTable":
        """An independent, budget-free clone (written records only)."""
        clone = copy.copy(self)
        clone.budget = None
        clone.columns = [copy.copy(column) for column in self.columns]
        for twin in clone.columns:
            twin.table = clone
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
    ``take``, integer/slice/fancy get and set, ``add_at``, and for vectors
    ``where_equal``/``any``/``count_nonzero``. Keys outside
    ``[0, num_rows)`` raise :class:`IndexError` (an integer index may be
    negative and then counts from the end, like NumPy).

    **View contract.** Fancy, slice and ``take`` reads return copies. An
    integer index into a multi-dimensional container returns a *view* of the
    row, like dense row indexing: live (writes go through) when the key is
    written, read-only (writes raise) when it is not — write through
    ``container[k] = ...`` or ``add_at`` to give it a record. Views, and
    blocks from :meth:`block`, stay attached until the table next
    materializes a chunk (through any column) or is densified; do not hold
    them across writes.
    """

    def __init__(self, table: ChunkedTable, label: str,
                 row_shape: Tuple[int, ...], dtype, fill_value=0,
                 fill_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
                 ) -> None:
        if table.materialized_chunks:
            raise ValueError(f"{table.label} has materialized chunks: "
                             f"column {label} comes too late")
        self.table = table
        self.label = label
        self.num_rows = table.num_rows
        self.chunk_rows = table.chunk_rows
        self.num_chunks = table.num_chunks
        self.row_shape = tuple(int(n) for n in row_shape)
        self.shape = (self.num_rows,) + self.row_shape
        self.ndim = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.fill_value = fill_value
        self.fill_fn = fill_fn
        self._row_nbytes = self.dtype.itemsize * int(np.prod(self.row_shape))
        self._row_type = np.dtype((self.dtype, self.row_shape))
        #: Indexed by the table's rows; a new array whenever the table grows:
        #: the column's field of the pool, or its own array once densified.
        self.pool: np.ndarray
        #: What :meth:`gather` indexes: the field, as one opaque item per row
        #: for a matrix; ``None`` once ``pool`` is contiguous.
        self._items: Optional[np.ndarray]
        table._add(self)

    @property
    def nbytes(self) -> int:
        """Charged bytes: the rows of the materialized chunks (what the
        budget holds; the records actually written are fewer)."""
        return self.table.resident_rows * self._row_nbytes

    @property
    def materialized_chunks(self) -> int:
        return self.table.materialized_chunks

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

    def _dense(self) -> np.ndarray:
        """All ``num_rows`` rows in one array; a zero fill leaves every page
        without a written key untouched."""
        dense = _zeroed(self.shape, self.dtype)
        if self.fill_fn is not None:
            for lo in range(0, self.num_rows, _SCAN_ROWS):
                hi = min(lo + _SCAN_ROWS, self.num_rows)
                dense[lo:hi] = self._fill(np.arange(lo, hi, dtype=np.int64))
        elif self.fill_value:
            dense[...] = self.fill_value
        table = self.table
        dense[table._written[:-1]] = self.gather(table._slot[:-1])
        return dense

    # ---------------------------------------------------------------- reading
    def gather(self, rows: np.ndarray) -> np.ndarray:
        """A contiguous copy of ``pool[rows]`` for translated ``rows``.

        ``ndarray.take`` copies a non-contiguous array whole before it
        gathers, so it runs on a contiguous (densified) pool only; a field
        view is fancy-indexed, a matrix's as one opaque item per row.
        """
        items = self._items
        if items is None:
            return self.pool.take(rows, axis=0)
        if items is self.pool:
            return items[rows]
        return items[rows].view(self._row_type)

    def take(self, keys, axis: int = 0) -> np.ndarray:
        if axis != 0:
            raise ValueError(f"take of {self.label} supports axis=0 only")
        table = self.table
        keys = table._keys(keys)
        rows = table._rows(keys)
        out = self.gather(rows)
        if self.fill_fn is not None and keys.size and table._on_fill_record(rows):
            unwritten = rows < table._fill_end
            out[unwritten] = self._fill(keys[unwritten])
        return out

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

    def block(self, lo: int, hi: int) -> np.ndarray | None:
        """A zero-copy view of rows ``[lo, hi)``: ``None`` unless every key
        of the range is written and their records are consecutive (any range
        once densified)."""
        rows = self.table._rows(np.arange(lo, hi, dtype=np.int64))
        first = int(rows[0])
        if first < self.table._fill_end or int(rows[-1]) - first != hi - lo - 1 \
                or (hi - lo > 1 and not (np.diff(rows) == 1).all()):
            return None
        return self.pool[first:first + hi - lo]

    # ---------------------------------------------------------------- writing
    def __setitem__(self, index, value) -> None:
        # Rows first: materializing moves the pool to a new allocation.
        if isinstance(index, (int, np.integer)):
            rows = self.table._row(self.table._key(index), writable=True)
        else:
            rows = self.table.writable_rows(index)
        self.pool[rows] = value

    def add_at(self, keys, deltas) -> None:
        """``np.add.at`` semantics (duplicate keys accumulate in batch order)."""
        rows = self.table.writable_rows(keys)
        # Distinct rows take exactly one addition each, so fancy ``+=`` is
        # bit-identical to the (much slower) unbuffered ``np.add.at``.
        if rows.size <= 64 and len(set(rows.tolist())) == rows.size:
            self.pool[rows] += deltas
        else:
            np.add.at(self.pool, rows, deltas)

    # ------------------------------------------------------------- predicates
    def _written_rows(self) -> np.ndarray:
        """The records of the written keys (every row once densified)."""
        return self.pool[self.table._fill_end:self.table._used_rows]

    def _unwritten_count(self) -> int:
        table = self.table
        return self.num_rows - (table._used_rows - table._fill_end)

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

    def any(self) -> bool:
        """Whether any element is truthy (fills of unwritten keys included)."""
        if self._written_rows().any():
            return True
        if self.fill_fn is not None:
            return any(self._fill(keys).any()
                       for keys in self.table._unwritten_keys())
        return bool(self.fill_value) and self._unwritten_count() > 0

    def count_nonzero(self) -> int:
        total = int(np.count_nonzero(self._written_rows()))
        if self.fill_fn is not None:
            total += sum(int(np.count_nonzero(self._fill(keys)))
                         for keys in self.table._unwritten_keys())
        elif self.fill_value:
            total += self._unwritten_count()
        return total

    # ----------------------------------------------------------------- lifecycle
    def copy(self) -> "ChunkedArray":
        """This column of an independent clone of the table
        (:meth:`ChunkedTable.copy`)."""
        return self.table.copy().columns[self.table.columns.index(self)]

    def densify(self, initial: Optional[np.ndarray] = None) -> np.ndarray:
        """Materialize everything, in every column of the table (budget
        charged); the returned array *is* this column's pool from then on,
        so chunked and direct writes see each other. ``initial`` (only on a
        fresh table) is adopted as that array instead of the fills."""
        if self.table._fill_end:
            self.table._densify(self, initial)
        return self.pool

    @classmethod
    def from_dense(cls, dense: np.ndarray,
                   chunk_rows: int = DEFAULT_CHUNK_ROWS,
                   budget: Optional[MemoryBudget] = None,
                   label: str = "matrix") -> "ChunkedArray":
        """Wrap an existing dense array (densified: keys are its rows)."""
        self = cls.__new__(cls)
        ChunkedArray.__init__(
            self, ChunkedTable(dense.shape[0], chunk_rows, budget, label),
            label, dense.shape[1:], dense.dtype)
        self.densify(dense)
        return self


class ChunkedVector(ChunkedArray):
    """A chunked 1-D array (masks, clocks, owner maps, slot tables)."""

    def __init__(self, num_rows: int, dtype, fill_value=0,
                 fill_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "vector") -> None:
        super().__init__(ChunkedTable(num_rows, chunk_rows, budget, label),
                         label, (), dtype, fill_value, fill_fn)


class ChunkedMatrix(ChunkedArray):
    """A chunked ``num_rows x row_length`` matrix; untouched rows are zero."""

    def __init__(self, num_rows: int, row_length: int, dtype=np.float32,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "matrix") -> None:
        if row_length <= 0:
            raise ValueError("row_length must be positive")
        super().__init__(ChunkedTable(num_rows, chunk_rows, budget, label),
                         label, (row_length,), dtype)


# --------------------------------------------------------------- dispatch helpers
def flatnonzero_equal(vector, value) -> np.ndarray:
    """``np.flatnonzero(vector == value)`` for dense or chunked vectors."""
    if isinstance(vector, np.ndarray):
        return np.flatnonzero(vector == value).astype(np.int64)
    return vector.where_equal(value)
