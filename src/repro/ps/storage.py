"""Parameter storage with pluggable dense/sparse backends.

The parameter store is the ground-truth home of all model parameters. Keys
are contiguous integers ``0 .. num_keys - 1`` and every key maps to a fixed
length ``float32`` vector. Parameter servers layer their management
techniques (replication, relocation, caching) on top of one shared store;
the store itself knows nothing about nodes or the network.

Two storage backends sit behind the same API (selected via
:class:`~repro.ps.chunks.StorageConfig`):

* ``dense`` — the original contiguous arrays. This is the bit-identity
  oracle: every sparse-backend operation must produce exactly the values,
  versions, clocks and metrics the dense backend produces.
* ``sparse`` — a record per key, given on its first write (see
  :mod:`repro.ps.chunks`), with an optional memory budget charged per
  fixed-size chunk. Unwritten keys read as zeros without being allocated,
  so a store over 10^8+ logical keys costs an index of its written keys
  (16 bytes each) plus one resident record per *written* key: its value and
  version share it.

Updates are *additive* (``add``), which matches how the paper's workloads use
a PS: workers push gradients or gradient-like deltas that the server adds to
the current value. A ``set`` operation exists for initialization and for
replica synchronization.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.ps.chunks import (
    DENSE_STORAGE,
    ChunkedTable,
    MemoryBudget,
    StorageConfig,
)


def scatter_add_rows(target: np.ndarray, keys: np.ndarray, deltas,
                     keys_list: list | None = None) -> None:
    """``np.add.at(target, keys, deltas)`` with a duplicate-free fast path.

    ``np.add.at`` is an order of magnitude slower than fancy ``+=``; when the
    keys of a small batch are distinct the two are bit-identical (exactly one
    addition lands on every row either way), so the fast path applies there
    and the general unbuffered path only when duplicates are present.
    ``target`` is an array: dense, or a pool field addressed by rows.
    """
    n = len(keys)
    if n <= 2 and target.ndim > 1 and isinstance(deltas, np.ndarray):
        # A row or two through basic indexing: cheaper than the fancy-index
        # machinery, and a repeated key accumulates in order by construction.
        for index, delta in zip(
                keys.tolist() if keys_list is None else keys_list, deltas):
            row = target[index]  # a view: ``+=`` writes through
            row += delta
        return
    if n <= 64:
        as_list = keys.tolist() if keys_list is None else keys_list
        if len(set(as_list)) == n:
            target[keys] += deltas
            return
    np.add.at(target, keys, deltas)


def add_versioned(values: np.ndarray, versions: np.ndarray, rows: np.ndarray,
                  deltas: np.ndarray, rows_list: list | None = None) -> None:
    """Add ``deltas`` to ``values[rows]`` and count one write per occurrence
    in ``versions[rows]``; repeated rows accumulate in order (``np.add.at``
    semantics). ``rows_list`` is ``rows.tolist()`` where the caller has it
    (small batches).

    A row or two — the per-data-point shape of matrix factorization — go
    row by row through basic indexing, which accumulates in order by
    construction and skips the fancy-index machinery; a distinct batch is
    one fancy ``+=``, bit-identical because exactly one addition lands on
    every row; anything else takes the unbuffered ``np.add.at``.
    """
    if rows_list is not None:
        if len(rows_list) <= 2:
            for row, delta in zip(rows_list, deltas):
                view = values[row]  # a view: ``+=`` writes through
                view += delta
                versions[row] += 1
            return
        if len(set(rows_list)) == len(rows_list):
            values[rows] += deltas
            versions[rows] += 1
            return
    np.add.at(values, rows, deltas)
    np.add.at(versions, rows, 1)


class ParameterStore:
    """``num_keys x value_length`` float32 parameter storage (dense or sparse)."""

    def __init__(self, num_keys: int, value_length: int, seed: int | None = None,
                 init_scale: float = 0.0,
                 storage: StorageConfig | None = None) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if value_length <= 0:
            raise ValueError("value_length must be positive")
        self.num_keys = int(num_keys)
        self.value_length = int(value_length)
        self.storage = storage if storage is not None else DENSE_STORAGE
        rng = np.random.default_rng(seed)
        #: Sparse backend: the index and pool ``_values`` and ``_versions``
        #: share (one record per written key).
        self._table = self._budget = None
        if init_scale:
            # One RNG stream over the *full* matrix; reproducing it lazily per
            # chunk is impossible, so the sparse backend materializes eagerly
            # (budget checked) to stay bit-identical to the dense oracle.
            # Lazy sparseness pays off for zero-initialized stores (scale
            # sweeps, embedding output vectors) and API-driven init.
            initial = rng.normal(
                0.0, init_scale, size=(num_keys, value_length)
            ).astype(np.float32)
        if self.storage.backend == "dense":
            self._values = initial if init_scale else \
                np.zeros((num_keys, value_length), dtype=np.float32)
            # Monotonic per-key version counters; bumped on every write. Used
            # by tests and by replica managers to detect missed updates.
            self._versions = np.zeros(num_keys, dtype=np.int64)
        else:
            if self.storage.store_budget_bytes is not None:
                self._budget = MemoryBudget(
                    self.storage.store_budget_bytes,
                    label=f"parameter store ({self.num_keys} keys)",
                )
            self._table = table = ChunkedTable(
                num_keys, self.storage.chunk_rows, self._budget, "store")
            self._values = table.column("values", np.float32, (value_length,))
            self._versions = table.column("versions", np.int64)
            if init_scale:
                self._values.densify(initial)

    # ---------------------------------------------------------------- access
    def get(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Return a *copy* of the values for ``keys`` (shape ``(len, dim)``)."""
        keys = self._validate_keys(keys)
        # take() copies like fancy indexing but skips its dispatch overhead.
        return self._values.take(keys, axis=0)

    def get_single(self, key: int) -> np.ndarray:
        """Return a copy of the value for one key."""
        self._validate_key(key)
        return self._values[key].copy()

    def view(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Return the values for ``keys`` without copying when possible.

        For a contiguous ascending key range ``k, k+1, ..., k+n-1`` the result
        is a true zero-copy, read-only *view* of the backing storage (on the
        sparse backend this holds when every key of the range is written and
        their records are consecutive: keys first written together, in
        order). Any other key shape falls back to fancy indexing, which
        returns a read-only *copy*. Callers must not mutate the returned
        array either way; writers go through :meth:`add`/:meth:`set`.
        """
        keys = self._validate_keys(keys)
        n = len(keys)
        if n:
            first = int(keys[0])
            contiguous = (
                int(keys[-1]) - first == n - 1
                and (n == 1 or bool((np.diff(keys) == 1).all()))
            )
            if contiguous:
                block = self._contiguous_block(first, first + n)
                if block is not None:
                    block.flags.writeable = False
                    return block
        values = self._values.take(keys, axis=0)
        values.flags.writeable = False
        return values

    def _contiguous_block(self, lo: int, hi: int) -> np.ndarray | None:
        """A zero-copy slice of rows ``[lo, hi)``, if the backend has one."""
        if isinstance(self._values, np.ndarray):
            return self._values[lo:hi]
        # None when the range's records are not consecutive: view() falls
        # back to a copy.
        return self._values.block(lo, hi)

    def add(self, keys: Sequence[int] | np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas`` to the values of ``keys`` (duplicate keys accumulate)."""
        keys = self._validate_keys(keys)
        deltas = self._validate_deltas(keys, deltas)
        rows, at = self.at(keys, writable=True)
        add_versioned(at.values, at.versions, rows, deltas,
                      rows.tolist() if rows.size <= 64 else None)

    def check_keys(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Range-check ``keys`` once for a batch of unvalidated accesses.

        Returns the keys as an ``int64`` array; raises the ``KeyError`` that
        :meth:`get`/:meth:`add` raise for a key outside ``[0, num_keys)``.
        Callers that issue many small accesses over one key set (the value
        pass of a charged chunk) validate here, translate once with
        :meth:`at` and then move values by row.
        """
        return self._validate_keys(keys)

    def at(self, keys: np.ndarray, writable=False) -> tuple:
        """``(rows, arrays)``: ``arrays.values[rows]`` and
        ``arrays.versions[rows]`` address the range-checked ``keys``.

        Dense: the keys and the store's arrays. Sparse: the pool rows — one
        translation for both columns — and the pool's field views, current
        until the store next materializes a chunk. ``writable`` (``True``,
        or a boolean mask over ``keys``) gives the keys it selects a record
        first, so that writes through their rows land; an unwritten key's
        row is the shared fill record, for reading only. Read rows through
        ``arrays.gather`` where it is set (a field view is fancy-indexed,
        never passed to ``take``; see
        :meth:`~repro.ps.chunks.ChunkedArray.gather`), else through
        ``arrays.values.take(rows, axis=0)``.
        """
        table = self._table
        if table is None:
            return keys, SimpleNamespace(values=self._values,
                                         versions=self._versions, gather=None)
        if writable is True:
            rows = table.writable_rows(keys)
        else:
            if writable is not False and writable.any():
                table.writable_rows(keys[writable])
            rows = table.rows(keys)
        return rows, SimpleNamespace(values=self._values.pool,
                                     versions=self._versions.pool,
                                     gather=self._values.gather)

    def add_distinct(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """:meth:`add` for callers that guarantee distinct, in-range keys.

        Fancy ``+=`` lands exactly one addition per row when the keys are
        distinct — bit-identical to :meth:`add` — while skipping validation
        and duplicate detection. Used by internal hot paths (replication
        flushes, replica synchronization) whose key sets come from
        ``np.unique``/``flatnonzero``.
        """
        rows, at = self.at(keys, writable=True)
        at.values[rows] += deltas
        at.versions[rows] += 1

    def set(self, keys: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Overwrite the values of ``keys`` with ``values``."""
        keys = self._validate_keys(keys)
        values = self._validate_deltas(keys, values)
        rows, at = self.at(keys, writable=True)
        at.values[rows] = values
        # The version bumps once per occurrence, consistent with add
        # (fancy-index += would silently drop duplicate keys).
        scatter_add_rows(at.versions, rows, 1)

    def write_rows(self, keys: Sequence[int] | np.ndarray,
                   values: np.ndarray) -> None:
        """Overwrite values *without* bumping version counters.

        The restore/recovery entry point: fault handlers re-install
        recovered or checkpointed values without counting the write as a
        training update, so version deltas keep measuring exactly the lost
        work. Works on both backends (the sparse backend materializes the
        touched chunks), unlike direct writes through :attr:`values`.
        """
        keys = self._validate_keys(keys)
        values = self._validate_deltas(keys, values)
        self._values[keys] = values

    def read_versions(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """A copy of the version counters for ``keys``."""
        keys = self._validate_keys(keys)
        return self._versions.take(keys)

    def write_versions(self, keys: Sequence[int] | np.ndarray,
                       versions: np.ndarray) -> None:
        """Overwrite version counters (rollback support; no bump)."""
        keys = self._validate_keys(keys)
        versions = np.asarray(versions, dtype=np.int64)
        if versions.shape != (len(keys),):
            raise ValueError(
                f"versions must have shape ({len(keys)},), got {versions.shape}"
            )
        self._versions[keys] = versions

    def permute(self, new_key_of: Sequence[int] | np.ndarray) -> None:
        """Relabel the key space: old key ``k`` becomes key ``new_key_of[k]``.

        Values and version counters move with their key. Used by the scenario
        engine's hot-set drift: rotating the workload-to-key mapping (and
        moving the values along, so learning semantics are untouched) changes
        *which physical keys are hot* without touching the dataset — the
        management state of the parameter servers on top (owners, replicas,
        plans) intentionally does not move, which is exactly what forces them
        to re-adapt.
        """
        perm = np.asarray(new_key_of, dtype=np.int64)
        if perm.shape != (self.num_keys,):
            raise ValueError(
                f"permutation must have shape ({self.num_keys},), got {perm.shape}"
            )
        check = np.zeros(self.num_keys, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("new_key_of is not a permutation of the key space")
        if self._table is not None:
            self._table.relabel(perm)
            return
        values = np.empty_like(self._values)
        values[perm] = self._values
        self._values = values
        versions = np.empty_like(self._versions)
        versions[perm] = self._versions
        self._versions = versions

    def version(self, key: int) -> int:
        """The number of writes applied to ``key`` so far."""
        self._validate_key(key)
        return int(self._versions[key])

    # ------------------------------------------------------------- inspection
    @property
    def backend(self) -> str:
        """The active storage backend (``"dense"`` or ``"sparse"``)."""
        return self.storage.backend

    @property
    def values(self) -> np.ndarray:
        """The full value matrix (read-write; owned by the store).

        On the sparse backend this densifies on demand (budget checked):
        the full matrix is materialized once and the chunks become views
        into it, so chunked operations and direct writes stay coherent.
        """
        if isinstance(self._values, np.ndarray):
            return self._values
        return self._values.densify()

    @property
    def versions(self) -> np.ndarray:
        """Per-key write counters (owned by the store).

        Direct writes through :attr:`values` bypass the counters: recovery
        code uses that to restore values without counting the restore itself
        as an update, so version deltas measure exactly the lost work.
        Densifies on demand on the sparse backend, like :attr:`values`.
        """
        if isinstance(self._versions, np.ndarray):
            return self._versions
        return self._versions.densify()

    def value_bytes(self) -> int:
        """Wire size in bytes of one parameter value."""
        return self.value_length * 4

    def total_bytes(self) -> int:
        """Logical size of the stored model in bytes.

        This is the cost-model size (what a checkpoint write-out or full
        transfer moves) and is identical on both backends; resident memory
        is :meth:`nbytes`.
        """
        return self.num_keys * self.value_bytes()

    def nbytes(self) -> int:
        """Charged bytes of the backing storage (values + versions).

        Dense: the full arrays. Sparse: materialized chunks only — the
        number the scale benchmarks hold against the memory budget (what is
        resident is finer: one record per written key).
        """
        return int(self._values.nbytes) + int(self._versions.nbytes)

    def materialized_chunks(self) -> int:
        """Materialized chunk count (0 on a fresh sparse store; dense: all)."""
        if isinstance(self._values, np.ndarray):
            return -(-self.num_keys // self.storage.chunk_rows)
        return self._values.materialized_chunks

    def copy(self) -> "ParameterStore":
        """Deep copy (used by experiments that restart from a checkpoint).

        Built without the throwaway zero allocation a ``__init__`` round-trip
        would make (at scale that would double checkpoint peak memory); on
        the sparse backend only the records of written keys are copied. The clone is not budget-tracked — snapshots model
        stable storage, not node RAM.
        """
        clone = ParameterStore.__new__(ParameterStore)
        clone.num_keys = self.num_keys
        clone.value_length = self.value_length
        clone.storage = self.storage
        clone._table = clone._budget = None
        if self._table is None:
            clone._values = self._values.copy()
            clone._versions = self._versions.copy()
        else:
            clone._table = self._table.copy()
            clone._values, clone._versions = clone._table.columns
        return clone

    def with_storage(self, storage: StorageConfig) -> "ParameterStore":
        """A copy of this store on a different storage backend.

        Converting to ``sparse`` writes only the chunk-sized blocks that hold
        a nonzero value or version (zero-initialized regions — e.g. untouched
        embedding output vectors — stay unmaterialized), charged against the
        new store's budget. Converting to ``dense`` assembles the full
        arrays. Either way the logical contents are identical, which is what
        the dense==sparse bit-identity suite checks end to end.
        """
        if not isinstance(storage, StorageConfig):
            raise TypeError(
                "storage must be a repro.ps.chunks.StorageConfig, got "
                f"{type(storage).__name__}"
            )
        clone = ParameterStore(self.num_keys, self.value_length,
                               storage=storage)
        step = storage.chunk_rows if storage.backend == "sparse" \
            else DENSE_STORAGE.chunk_rows
        for lo in range(0, self.num_keys, step):
            hi = min(lo + step, self.num_keys)
            block = np.arange(lo, hi, dtype=np.int64)
            values = self._values.take(block, axis=0)
            if values.any():
                clone._values[block] = values
            versions = self._versions.take(block)
            if versions.any():
                clone._versions[block] = versions
        return clone

    # ------------------------------------------------------------ validation
    def _validate_key(self, key: int) -> None:
        if not 0 <= key < self.num_keys:
            raise KeyError(f"key {key} out of range [0, {self.num_keys})")

    def _validate_keys(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {keys.shape}")
        if not keys.size:
            return keys
        if keys.size <= 64:
            # Python min/max on a short list beats two NumPy reductions.
            as_list = keys.tolist()
            lo, hi = min(as_list), max(as_list)
        else:
            lo, hi = int(keys.min()), int(keys.max())
        if lo < 0 or hi >= self.num_keys:
            raise KeyError(
                f"keys out of range [0, {self.num_keys}): min={lo}, max={hi}"
            )
        return keys

    def _validate_deltas(self, keys: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        deltas = np.asarray(deltas, dtype=np.float32)
        expected = (len(keys), self.value_length)
        if deltas.shape != expected:
            raise ValueError(
                f"deltas must have shape {expected}, got {deltas.shape}"
            )
        return deltas

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParameterStore(num_keys={self.num_keys}, "
            f"value_length={self.value_length}, backend={self.backend!r})"
        )
