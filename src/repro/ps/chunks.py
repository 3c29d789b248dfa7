"""Chunked sparse state containers with explicit memory budgets.

The dense backend allocates ``num_keys``-length arrays per structure (the
replication architectures *per node*), which caps scale sweeps at a few
million keys. Here state is split into fixed-size chunks of rows, and a chunk
is materialized only when it is first *written*. Reads of untouched chunks
return the fill value (zeros for values and update buffers, ``-1`` for slot
tables, the static partition for owner maps) without allocating anything.

A container is a **page table** over **one contiguous pool**::

    key k --> chunk k // chunk_rows --> _shift[chunk] --> pool row k + shift

The pool's first ``chunk_rows`` rows are a shared, never-written *fill page*;
every unmaterialized chunk is mapped onto it, so a read needs no branch:
two vectorised index operations translate a key batch to pool rows, and the
ordinary dense operation (``take``, fancy assignment, ``np.add.at``) then
runs on the pool. The whole batch hits one array in batch order, so the
result is bit-identical to the dense backend because it *is* the same NumPy
call. The containers duck-type the slice of the :class:`numpy.ndarray` API
the parameter-server hot paths use, so the servers run unchanged on either.

Materialization appends the chunk to the pool and is charged against an
optional :class:`MemoryBudget` *before* the pool grows (over budget raises
:class:`MemoryBudgetExceeded` with an actionable message). The pool grows
geometrically into zeroed, untouched capacity: not charged, not resident.
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
    "ChunkedMatrix",
    "ChunkedVector",
    "StorageConfig",
    "flatnonzero_equal",
]


#: Default number of rows per chunk. Small enough that one touched key
#: materializes kilobytes, not the whole key space; large enough that chunk
#: bookkeeping stays off the profile.
DEFAULT_CHUNK_ROWS = 4096

#: Rows per block when an operation walks the whole key space (key-wise fills
#: of unmaterialized chunks, densification): bounds the temporaries.
_SCAN_ROWS = 1 << 20

#: Granule of residency: the system's page size (4 KiB wherever this runs).
_PAGE_BYTES = 4096


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

    def release(self, nbytes: int) -> None:
        self.used_bytes = max(self.used_bytes - int(nbytes), 0)

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
        or ``"sparse"`` (chunks materialized on first write).
    chunk_rows:
        Rows per chunk for the sparse backend (and for the chunked per-node
        state the parameter servers derive from it).
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


def _copy_nonzero_pages(source: np.ndarray, zeroed: np.ndarray) -> None:
    """``zeroed[...] = source``, skipping the pages of ``source`` that are zero.

    Both are contiguous and of one shape; ``zeroed`` reads as zeros. Rows
    never written in a zero-filled chunk stay untouched (not resident)
    instead of every used row becoming resident each time a pool moves.
    """
    source = source.reshape(-1).view(np.uint8)
    zeroed = zeroed.reshape(-1).view(np.uint8)
    whole = len(source) - len(source) % _PAGE_BYTES
    pages = source[:whole].view(np.uint64).reshape(-1, _PAGE_BYTES // 8)
    live = pages.any(axis=1)
    zeroed[:whole].view(np.uint64).reshape(pages.shape)[live] = pages[live]
    zeroed[whole:] = source[whole:]


class ChunkedArray:
    """``num_rows`` rows of shape ``row_shape``, materialized chunk-by-chunk.

    Reads of untouched chunks return ``fill_value``, or ``fill_fn(keys)`` (a
    vectorized key-wise default, e.g. the static partition for owner maps)
    when one is given. Supports the ndarray subset used by the PS hot paths:
    ``take``, integer/slice/fancy get and set, ``add_at``, and for vectors
    ``where_equal``/``any``/``count_nonzero``. Keys outside
    ``[0, num_rows)`` raise :class:`IndexError` (an integer index may be
    negative and then counts from the end, like NumPy).

    **View contract.** Fancy, slice and ``take`` reads return copies. An
    integer index into a multi-dimensional container returns a *view* of the
    row, like dense row indexing: live (writes go through) when the row's
    chunk is materialized, read-only (writes raise) when it is not — write
    through ``container[k] = ...`` or ``add_at`` to materialize. Views, and
    blocks from :meth:`block`, stay attached until the container next
    materializes a chunk or is densified; do not hold them across writes.
    """

    def __init__(self, num_rows: int, row_shape: Tuple[int, ...], dtype,
                 fill_value=0,
                 fill_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "array") -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.num_rows = int(num_rows)
        # One chunk already covers a smaller key space; do not pad beyond it.
        self.chunk_rows = min(int(chunk_rows), self.num_rows)
        self.num_chunks = -(-self.num_rows // self.chunk_rows)
        self.row_shape = tuple(int(n) for n in row_shape)
        self.shape = (self.num_rows,) + self.row_shape
        self.ndim = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.fill_value = fill_value
        self.fill_fn = fill_fn
        self.budget = budget
        self.label = label
        self._row_nbytes = self.dtype.itemsize * int(np.prod(self.row_shape))
        #: Pool rows below this bound are the fill page. 0 once densified:
        #: the pool is then the dense array itself, keys are rows.
        self._fill_end = self.chunk_rows
        #: The fill page, then one ``chunk_rows`` slot per materialized chunk
        #: in materialization order, then zeroed spare capacity. Padding rows
        #: of a partial last chunk stay zero.
        self._pool = self._zeroed(self.chunk_rows)
        if fill_fn is None and fill_value:
            self._pool[...] = fill_value
        self._used_rows = self.chunk_rows
        #: Page table: pool row of key ``k`` is ``k + _shift[k // chunk_rows]``.
        self._shift = -self.chunk_rows * np.arange(self.num_chunks,
                                                   dtype=np.int64)
        #: Chunk id held by every used slot (slot 0, the fill page: none).
        self._chunk_of_slot = [-1]
        #: Resident bytes: only materialized chunks count.
        self.nbytes = 0

    @property
    def materialized_chunks(self) -> int:
        if not self._fill_end:
            return self.num_chunks
        return len(self._chunk_of_slot) - 1

    # ------------------------------------------------------------- translation
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
        """Pool rows of (valid) ``keys``; unmaterialized ones hit the fill page."""
        return keys + self._shift.take(keys // self.chunk_rows)

    def _writable_rows(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_rows` after materializing every chunk ``keys`` touch."""
        rows = self._rows(keys)
        if self._on_fill_page(rows):
            fresh = keys[rows < self._fill_end]
            self._materialize(np.unique(fresh // self.chunk_rows))
            rows = self._rows(keys)
        return rows

    def _on_fill_page(self, rows: np.ndarray) -> bool:
        """Whether any of the (non-empty) pool ``rows`` is on the fill page."""
        lowest = min(rows.tolist()) if rows.size <= 64 else int(rows.min())
        return lowest < self._fill_end

    def _row(self, key: int, writable: bool = False) -> int:
        """Pool row of one (valid) key; ``writable`` materializes its chunk."""
        cid = key // self.chunk_rows
        row = key + self._shift.item(cid)
        if writable and row < self._fill_end:
            self._materialize(np.array([cid], dtype=np.int64))
            row = key + self._shift.item(cid)
        return row

    def _chunk_keys(self, cids: np.ndarray) -> np.ndarray:
        """Keys of every row of chunks ``cids``, padding rows included."""
        return (cids[:, None] * self.chunk_rows
                + np.arange(self.chunk_rows, dtype=np.int64)).ravel()

    def _fill(self, keys: np.ndarray) -> np.ndarray:
        """The key-wise default contents of ``keys``."""
        return np.asarray(self.fill_fn(keys), dtype=self.dtype)

    # ---------------------------------------------------------- materialization
    def _materialize(self, cids: np.ndarray) -> None:
        """Append the ascending, distinct, unmaterialized chunks ``cids``.

        The pool grows only for what was charged: when the budget runs out
        at some chunk, those before it materialize and its charge raises.
        """
        first = cids * self.chunk_rows
        sizes = (np.minimum(first + self.chunk_rows, self.num_rows)
                 - first) * self._row_nbytes
        refused = None
        if self.budget is not None:
            fits = int(np.searchsorted(np.cumsum(sizes),
                                       self.budget.remaining_bytes, "right"))
            if fits < len(cids):
                refused = (int(sizes[fits]),
                           f"chunk {int(cids[fits])} of {self.label}")
                cids, first, sizes = cids[:fits], first[:fits], sizes[:fits]
        total = int(sizes.sum())
        if len(cids):
            if self.budget is not None:
                self.budget.charge(total, f"{len(cids)} chunks of {self.label}")
            start = self._used_rows
            end = start + len(cids) * self.chunk_rows
            if end > len(self._pool):
                self._grow(end)
            fresh = self._pool[start:end]
            # Zero fills are already in place: spare capacity is zeroed.
            if self.fill_fn is not None:
                fresh[...] = self._fill(
                    np.minimum(self._chunk_keys(cids), self.num_rows - 1))
            elif self.fill_value:
                fresh[...] = self.fill_value
            padding = self.num_chunks * self.chunk_rows - self.num_rows
            if padding and cids[-1] == self.num_chunks - 1:
                fresh[len(fresh) - padding:] = 0
            self._shift[cids] = np.arange(start, end, self.chunk_rows) - first
            self._chunk_of_slot.extend(cids.tolist())
            self._used_rows = end
            self.nbytes += total
        if refused is not None:
            self.budget.charge(*refused)

    def _grow(self, rows_needed: int) -> None:
        """Move to a pool of ``rows_needed`` rows or double the capacity (at
        most one slot per chunk): ``n`` materializations copy ``O(n)`` rows."""
        pool = self._zeroed(min(max(rows_needed, 2 * len(self._pool)),
                                (self.num_chunks + 1) * self.chunk_rows))
        _copy_nonzero_pages(self._pool[:self._used_rows],
                            pool[:self._used_rows])
        self._pool = pool

    def _zeroed(self, rows: int) -> np.ndarray:
        """``rows`` zero rows in a private anonymous mapping of their own.

        Unlike heap memory, its pages are resident only once written and
        return to the system when the array dies: spare capacity is free.
        """
        import mmap  # not needed by the dense backend: keep `import repro` lean

        pages = mmap.mmap(-1, rows * self._row_nbytes, access=mmap.ACCESS_COPY)
        return np.frombuffer(pages, dtype=self.dtype).reshape(
            (rows,) + self.row_shape)

    # ---------------------------------------------------------------- reading
    def take(self, keys, axis: int = 0) -> np.ndarray:
        if axis != 0:
            raise ValueError(f"take of {self.label} supports axis=0 only")
        keys = self._keys(keys)
        rows = self._rows(keys)
        out = self._pool.take(rows, axis=0)
        if self.fill_fn is not None and keys.size and self._on_fill_page(rows):
            unmaterialized = rows < self._fill_end
            out[unmaterialized] = self._fill(keys[unmaterialized])
        return out

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return self.take(index)
        key = self._key(index)
        row = self._row(key)
        value = self._pool[row]
        if row < self._fill_end:
            if self.fill_fn is not None:
                return self._fill(np.array([key], dtype=np.int64))[0]
            if self.row_shape:
                value.flags.writeable = False  # a view of the shared fill page
        return value

    def block(self, lo: int, hi: int) -> np.ndarray | None:
        """A zero-copy view of rows ``[lo, hi)``: ``None`` unless the range lies
        inside one materialized chunk (any range once densified)."""
        if not self._fill_end:
            return self._pool[lo:hi]
        row = self._row(lo)
        if (hi - 1) // self.chunk_rows != lo // self.chunk_rows \
                or row < self._fill_end:
            return None
        return self._pool[row:row + hi - lo]

    # ---------------------------------------------------------------- writing
    def __setitem__(self, index, value) -> None:
        # Rows first: materializing may move the pool to a new allocation.
        if isinstance(index, (int, np.integer)):
            rows = self._row(self._key(index), writable=True)
        else:
            keys = self._keys(index)
            if not keys.size:
                return
            rows = self._writable_rows(keys)
        self._pool[rows] = value

    def add_at(self, keys, deltas) -> None:
        """``np.add.at`` semantics (duplicate keys accumulate in batch order)."""
        keys = self._keys(keys)
        if not keys.size:
            return
        rows = self._writable_rows(keys)
        # Distinct rows take exactly one addition each, so fancy ``+=`` is
        # bit-identical to the (much slower) unbuffered ``np.add.at``.
        if keys.size <= 64 and len(set(rows.tolist())) == keys.size:
            self._pool[rows] += deltas
        else:
            np.add.at(self._pool, rows, deltas)

    # ------------------------------------------------------------- predicates
    def _materialized_rows(self) -> np.ndarray:
        """The pool rows that back chunks (padding rows read as zero)."""
        return self._pool[self._fill_end:self._used_rows]

    def _unmaterialized_keys(self) -> Iterator[np.ndarray]:
        """Ascending keys of the unmaterialized chunks, in bounded blocks."""
        if not self._fill_end:
            return
        missing = np.ones(self.num_chunks, dtype=bool)
        missing[self._chunk_of_slot[1:]] = False
        cids = np.flatnonzero(missing)
        step = max(1, _SCAN_ROWS // self.chunk_rows)
        for at in range(0, len(cids), step):
            keys = self._chunk_keys(cids[at:at + step])
            yield keys[keys < self.num_rows]

    def where_equal(self, value) -> np.ndarray:
        """Ascending row indices whose element equals ``value``.

        Scans the pool; untouched chunks are evaluated through their fill
        only when it can match, and never materialized.
        """
        rows = np.flatnonzero(self._materialized_rows() == value) \
            + self._fill_end
        if self._fill_end:
            slots = rows // self.chunk_rows
            chunk_of_slot = np.asarray(self._chunk_of_slot, dtype=np.int64)
            rows += (chunk_of_slot[slots] - slots) * self.chunk_rows
            rows = rows[rows < self.num_rows]  # zero padding can match zero
        pieces = [rows]
        if self.fill_fn is not None:
            pieces += [keys[self._fill(keys) == value]
                       for keys in self._unmaterialized_keys()]
        elif self.fill_value == value:
            pieces += self._unmaterialized_keys()
        return np.sort(np.concatenate(pieces))

    def any(self) -> bool:
        """Whether any element is truthy (fills of untouched chunks included)."""
        if self._materialized_rows().any():
            return True
        if self.fill_fn is not None:
            return any(self._fill(keys).any()
                       for keys in self._unmaterialized_keys())
        return bool(self.fill_value) \
            and self.materialized_chunks < self.num_chunks

    def count_nonzero(self) -> int:
        total = int(np.count_nonzero(self._materialized_rows()))
        if self.fill_fn is not None:
            total += sum(int(np.count_nonzero(self._fill(keys)))
                         for keys in self._unmaterialized_keys())
        elif self.fill_value:
            total += self.num_rows - self.nbytes // self._row_nbytes
        return total

    # ----------------------------------------------------------------- lifecycle
    def copy(self) -> "ChunkedArray":
        """An independent, budget-free clone (materialized chunks only)."""
        clone = copy.copy(self)
        clone.budget = None
        clone._pool = self._pool[:self._used_rows].copy()
        clone._shift = self._shift.copy()
        clone._chunk_of_slot = list(self._chunk_of_slot)
        return clone

    def densify(self) -> np.ndarray:
        """Materialize everything (budget charged); the returned array *is*
        the pool from then on, so chunked and direct writes see each other."""
        if self._fill_end:
            dense = np.empty(self.shape, dtype=self.dtype)
            self._charge_dense(dense.nbytes, "densified")
            for lo in range(0, self.num_rows, _SCAN_ROWS):
                hi = min(lo + _SCAN_ROWS, self.num_rows)
                dense[lo:hi] = self.take(np.arange(lo, hi, dtype=np.int64))
            self._bind(dense)
        return self._pool

    @classmethod
    def from_dense(cls, dense: np.ndarray,
                   chunk_rows: int = DEFAULT_CHUNK_ROWS,
                   budget: Optional[MemoryBudget] = None,
                   label: str = "matrix") -> "ChunkedArray":
        """Wrap an existing dense array (identity page table over it)."""
        self = cls.__new__(cls)
        ChunkedArray.__init__(self, dense.shape[0], dense.shape[1:],
                              dense.dtype, chunk_rows=chunk_rows,
                              budget=budget, label=label)
        self._charge_dense(dense.nbytes, "dense-initialized")
        self._bind(dense)
        return self

    def _charge_dense(self, nbytes: int, how: str) -> None:
        """Charge what a fully resident ``nbytes`` adds to the current count."""
        if self.budget is not None:
            self.budget.charge(nbytes - self.nbytes, f"{how} {self.label}")
        self.nbytes = nbytes

    def _bind(self, dense: np.ndarray) -> None:
        """Make ``dense`` the pool: identity page table, no fill page."""
        self._pool = dense
        self._shift = np.zeros(self.num_chunks, dtype=np.int64)
        self._fill_end = 0
        self._used_rows = self.num_rows


class ChunkedVector(ChunkedArray):
    """A chunked 1-D array (masks, clocks, owner maps, slot tables)."""

    def __init__(self, num_rows: int, dtype, fill_value=0,
                 fill_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "vector") -> None:
        super().__init__(num_rows, (), dtype, fill_value, fill_fn,
                         chunk_rows, budget, label)


class ChunkedMatrix(ChunkedArray):
    """A chunked ``num_rows x row_length`` matrix; untouched rows are zero."""

    def __init__(self, num_rows: int, row_length: int, dtype=np.float32,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 budget: Optional[MemoryBudget] = None,
                 label: str = "matrix") -> None:
        if row_length <= 0:
            raise ValueError("row_length must be positive")
        super().__init__(num_rows, (row_length,), dtype, 0, None,
                         chunk_rows, budget, label)


# --------------------------------------------------------------- dispatch helpers
def flatnonzero_equal(vector, value) -> np.ndarray:
    """``np.flatnonzero(vector == value)`` for dense or chunked vectors."""
    if isinstance(vector, np.ndarray):
        return np.flatnonzero(vector == value).astype(np.int64)
    return vector.where_equal(value)
