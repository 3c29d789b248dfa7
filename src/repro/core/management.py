"""Multi-technique parameter management: choosing a technique per key.

NuPS integrates two management techniques (Section 3.2): eager replication
for hot-spot parameters and relocation for the long tail. The *management
plan* records which technique manages which key. The paper's untuned
configuration derives the plan from dataset frequency statistics with a
simple heuristic: replicate a key if its access frequency exceeds 100 times
the mean access frequency (Section 5.1); the tuned configurations replicate a
fixed number of the most frequently accessed keys instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Default hot-spot threshold: replicate keys accessed more than this factor
#: times the mean access frequency (Section 5.1, untuned configuration).
DEFAULT_HOT_SPOT_FACTOR = 100.0

#: Key spaces at or below this size keep a dense boolean replicated-keys mask
#: (one ``take`` per hot-path query). Above it the mask would cost
#: O(num_keys) bytes per plan, so membership queries run a binary search over
#: the sorted replicated keys instead — identical booleans, no allocation.
DENSE_MASK_MAX_KEYS = 1 << 24


class ManagementPlan:
    """Per-key assignment of management techniques.

    The plan is immutable after construction: the paper fixes the technique
    per key before training starts (fine-grained dynamic switching is listed
    as future work).
    """

    def __init__(self, num_keys: int, replicated_keys: Sequence[int] | np.ndarray) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        self.num_keys = int(num_keys)
        replicated = np.unique(np.asarray(replicated_keys, dtype=np.int64))
        if len(replicated) and (replicated.min() < 0 or replicated.max() >= num_keys):
            raise KeyError(
                f"replicated keys out of range [0, {num_keys}): "
                f"min={replicated.min()}, max={replicated.max()}"
            )
        self.replicated_keys = replicated
        # Built lazily (and only for key spaces where a dense mask is cheap):
        # plans over massive key spaces answer membership via binary search.
        self._replicated_mask: np.ndarray | None = None

    def _dense_mask(self) -> np.ndarray:
        if self._replicated_mask is None:
            mask = np.zeros(self.num_keys, dtype=bool)
            mask[self.replicated_keys] = True
            self._replicated_mask = mask
        return self._replicated_mask

    def _membership(self, keys: np.ndarray) -> np.ndarray:
        """Binary-search membership of ``keys`` in the sorted replicated set."""
        replicated = self.replicated_keys
        if not len(replicated):
            return np.zeros(len(keys), dtype=bool)
        idx = np.searchsorted(replicated, keys)
        idx_clipped = np.minimum(idx, len(replicated) - 1)
        return (idx < len(replicated)) & (replicated[idx_clipped] == keys)

    # --------------------------------------------------------------- factories
    @classmethod
    def relocate_all(cls, num_keys: int) -> "ManagementPlan":
        """A plan that relocates every key (single-technique, Lapse-like)."""
        return cls(num_keys, np.empty(0, dtype=np.int64))

    @classmethod
    def from_access_counts(
        cls,
        access_counts: Sequence[float] | np.ndarray,
        hot_spot_factor: float = DEFAULT_HOT_SPOT_FACTOR,
    ) -> "ManagementPlan":
        """The untuned heuristic: replicate keys above ``factor`` × mean count.

        ``access_counts`` are per-key access frequencies computed from dataset
        statistics (e.g. entity/word frequencies), not from a profiling run.
        """
        counts = np.asarray(access_counts, dtype=np.float64)
        if counts.ndim != 1:
            raise ValueError("access_counts must be one-dimensional")
        if np.any(counts < 0):
            raise ValueError("access_counts must be non-negative")
        if hot_spot_factor <= 0:
            raise ValueError("hot_spot_factor must be positive")
        mean = counts.mean() if len(counts) else 0.0
        threshold = hot_spot_factor * mean
        hot = np.flatnonzero(counts > threshold)
        return cls(len(counts), hot)

    @classmethod
    def top_k_by_count(
        cls, access_counts: Sequence[float] | np.ndarray, k: int
    ) -> "ManagementPlan":
        """Replicate the ``k`` most frequently accessed keys (tuned configs).

        Used by Section 5.6's sweep: the untuned key count is scaled by
        factors 1/64 … 256 and the top-k keys by access count are replicated.
        """
        counts = np.asarray(access_counts, dtype=np.float64)
        if k < 0:
            raise ValueError("k must be non-negative")
        k = min(int(k), len(counts))
        if k == 0:
            return cls.relocate_all(len(counts))
        hot = np.argsort(counts)[::-1][:k]
        return cls(len(counts), hot)

    # ------------------------------------------------------------------ queries
    def is_replicated(self, key: int) -> bool:
        if not 0 <= key < self.num_keys:
            raise KeyError(f"key {key} out of range [0, {self.num_keys})")
        if self.num_keys <= DENSE_MASK_MAX_KEYS:
            return bool(self._dense_mask()[key])
        return bool(self._membership(np.asarray([key], dtype=np.int64))[0])

    def replicated_mask(self, keys: np.ndarray | None = None) -> np.ndarray:
        """Boolean mask of replication for ``keys`` (or for all keys).

        ``keys=None`` materializes the full ``num_keys``-length mask — an
        O(num_keys) allocation, intended for bench-scale key spaces only.
        The per-key query path stays allocation-light on massive key spaces
        (binary search instead of a dense table).
        """
        if keys is None:
            return self._dense_mask().copy()
        keys = np.asarray(keys, dtype=np.int64)
        if self.num_keys <= DENSE_MASK_MAX_KEYS:
            return self._dense_mask().take(keys)
        return self._membership(keys)

    @property
    def num_replicated(self) -> int:
        return int(len(self.replicated_keys))

    @property
    def replicated_share(self) -> float:
        """Fraction of keys managed by replication (Table 3, left columns)."""
        return self.num_replicated / self.num_keys

    def replicated_value_bytes(self, value_length: int) -> int:
        """Size in bytes of one full copy of the replicated values (Table 3)."""
        return self.num_replicated * value_length * 4

    def describe(self) -> dict:
        return {
            "num_keys": self.num_keys,
            "num_replicated": self.num_replicated,
            "replicated_share": self.replicated_share,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ManagementPlan(num_keys={self.num_keys}, "
            f"replicated={self.num_replicated})"
        )
