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
* ``sparse`` — fixed-size chunks materialized on first write (see
  :mod:`repro.ps.chunks`), with an optional memory budget. Untouched chunks
  read as zeros without being allocated, so a store over 10^8+ logical keys
  costs one page table (``num_keys / chunk_rows x 8`` bytes) plus about one
  resident page per *touched* key: its value and version share one record.

Updates are *additive* (``add``), which matches how the paper's workloads use
a PS: workers push gradients or gradient-like deltas that the server adds to
the current value. A ``set`` operation exists for initialization and for
replica synchronization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ps.chunks import (
    DENSE_STORAGE,
    ChunkedTable,
    MemoryBudget,
    StorageConfig,
)


def scatter_add_rows(target, keys: np.ndarray, deltas,
                     keys_list: list | None = None) -> None:
    """``np.add.at(target, keys, deltas)`` with a duplicate-free fast path.

    ``np.add.at`` is an order of magnitude slower than fancy ``+=``; when the
    keys of a small batch are distinct the two are bit-identical (exactly one
    addition lands on every row either way), so the fast path applies there
    and the general unbuffered path only when duplicates are present.

    Chunked targets (:mod:`repro.ps.chunks`) implement the same accumulation
    semantics per materialized chunk and are dispatched to directly.
    """
    if not isinstance(target, np.ndarray):
        target.add_at(keys, deltas)
        return
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
        #: Sparse backend: the page table and pool ``_values`` and
        #: ``_versions`` share (one record per key).
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
        sparse backend this holds when the range lies inside one materialized
        chunk). Any other key shape falls back to fancy indexing, which
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
        # None when the range spans chunks or is not materialized: view()
        # falls back to a copy.
        return self._values.block(lo, hi)

    def add(self, keys: Sequence[int] | np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas`` to the values of ``keys`` (duplicate keys accumulate)."""
        keys = self._validate_keys(keys)
        deltas = self._validate_deltas(keys, deltas)
        self.add_rows(keys, deltas, keys.tolist() if keys.size <= 64 else None)

    def check_keys(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """Range-check ``keys`` once for a batch of unvalidated accesses.

        Returns the keys as an ``int64`` array; raises the ``KeyError`` that
        :meth:`get`/:meth:`add` raise for a key outside ``[0, num_keys)``.
        Callers that issue many small accesses over one key set (the
        per-chunk charge replay of the sampling tasks) validate here and then
        move values through :meth:`rows` and :meth:`add_distinct`.
        """
        return self._validate_keys(keys)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`get` for callers that already range-checked ``keys``."""
        return self._values.take(keys, axis=0)

    def add_distinct(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """:meth:`add` for callers that guarantee distinct, in-range keys.

        Fancy ``+=`` lands exactly one addition per row when the keys are
        distinct — bit-identical to :meth:`add` — while skipping validation
        and duplicate detection. Used by internal hot paths (replication
        flushes, the round-fused engine) whose key sets come from
        ``np.unique``/``flatnonzero``.
        """
        values, versions = self._values, self._versions
        if self._table is not None:  # one translation serves both columns
            keys = self._table.writable_rows(keys)
            values, versions = values.pool, versions.pool
        values[keys] += deltas
        versions[keys] += 1

    def add_rows(self, keys: np.ndarray, deltas: np.ndarray,
                 keys_list: list | None = None) -> None:
        """:meth:`add` for callers that already range-checked ``keys`` and
        shaped ``deltas``; ``keys_list`` is ``keys.tolist()`` where the
        caller has it (small batches).

        Repeated keys must accumulate (``np.add.at`` semantics, unlike
        fancy-index ``+=``). A key or two — the per-data-point shape of
        matrix factorization — go row by row through basic indexing, which
        accumulates in order by construction and skips the fancy-index
        machinery; a distinct batch is :meth:`add_distinct`; anything else
        takes :func:`scatter_add_rows`' unbuffered route.
        """
        if keys_list is not None:
            values = self._values
            if len(keys_list) <= 2 and isinstance(values, np.ndarray):
                versions = self._versions
                for index, delta in zip(keys_list, deltas):
                    row = values[index]  # a view: ``+=`` writes through
                    row += delta
                    versions[index] += 1
                return
            if len(set(keys_list)) == len(keys_list):
                self.add_distinct(keys, deltas)
                return
        scatter_add_rows(self._values, keys, deltas, keys_list)
        scatter_add_rows(self._versions, keys, 1, keys_list)

    def set(self, keys: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Overwrite the values of ``keys`` with ``values``."""
        keys = self._validate_keys(keys)
        values = self._validate_deltas(keys, values)
        self._values[keys] = values
        # The version bumps once per occurrence, consistent with add
        # (fancy-index += would silently drop duplicate keys).
        scatter_add_rows(self._versions, keys, 1)

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
        if isinstance(self._values, np.ndarray):
            values = np.empty_like(self._values)
            values[perm] = self._values
            self._values = values
            versions = np.empty_like(self._versions)
            versions[perm] = self._versions
            self._versions = versions
            return
        # Sparse backend: a permutation scatters rows across the whole key
        # space, so the store densifies (budget checked) and permutes in
        # place — the chunk views stay bound to the same backing arrays.
        dense_values = self._values.densify()
        dense_versions = self._versions.densify()
        values = np.empty_like(dense_values)
        versions = np.empty_like(dense_versions)
        values[perm] = dense_values
        versions[perm] = dense_versions
        dense_values[...] = values
        dense_versions[...] = versions

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
        """Resident bytes of the backing storage (values + versions).

        Dense: the full arrays. Sparse: materialized chunks only — the
        number the scale benchmarks hold against the memory budget.
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
        the sparse backend only the written pages of materialized chunks
        become resident. The clone is not budget-tracked — snapshots model
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

        Converting to ``sparse`` materializes only the chunks that hold a
        nonzero value or version (zero-initialized regions — e.g. untouched
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
