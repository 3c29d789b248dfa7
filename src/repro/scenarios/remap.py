"""Workload-to-key remapping: the mechanism behind hot-set drift.

The datasets shipped with this repository are fixed, so the *data* cannot
drift — but which physical PS keys the data touches can. A
:class:`KeyRemapper` maintains a bijection between the workload's *logical*
keys (what the task computes from its data) and the *physical* keys the
parameter server manages. Hot-set drift rotates this bijection inside each of
the task's key groups: the data points that used to hammer one set of
physical keys now hammer a formerly cold set.

Parameter values move together with the mapping (``ParameterStore.permute``),
so learning semantics are untouched — the embedding of a word is the same
before and after a drift, it just lives under a different physical key. What
does *not* move is the management state of the parameter servers: ownership,
replicas and management plans stay keyed by physical key, which is exactly
what forces relocation and NuPS to re-adapt while statically partitioned
baselines cannot.

:class:`~repro.scenarios.interposer.ScenarioParameterServer` applies the
mapping at the PS API boundary: tasks keep speaking logical keys, the PS sees
physical keys — per call in a degraded round, and once per worker chunk on
the inner PS's charger (the mapping only changes between rounds).
:class:`RemappedDistribution` does the same for sampling distributions,
reading the mapping dynamically so registered distributions follow every
drift without re-registration.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.sampling.distributions import SamplingDistribution


class KeyRemapper:
    """A mutable bijection between logical and physical PS keys.

    ``groups`` are contiguous ``(start, stop)`` blocks (the task's
    :meth:`~repro.ml.task.TrainingTask.key_groups`); every drift permutes keys
    *within* blocks only, so a contiguous block of logical keys always maps
    onto the same contiguous block of physical keys. Sampling-distribution
    supports that lie inside one block therefore stay valid under any drift.
    """

    def __init__(self, num_keys: int, groups: Optional[Sequence[tuple]] = None) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        self.num_keys = int(num_keys)
        groups = [(0, num_keys)] if groups is None else [tuple(g) for g in groups]
        covered = np.zeros(num_keys, dtype=bool)
        for start, stop in groups:
            if not 0 <= start < stop <= num_keys:
                raise ValueError(f"invalid key group ({start}, {stop})")
            if covered[start:stop].any():
                raise ValueError("key groups must not overlap")
            covered[start:stop] = True
        self.groups = groups
        self._to_physical = np.arange(num_keys, dtype=np.int64)
        self._to_logical = np.arange(num_keys, dtype=np.int64)
        self.drifts_applied = 0

    # ------------------------------------------------------------------ state
    @property
    def is_identity(self) -> bool:
        return self.drifts_applied == 0

    @property
    def physical_index(self) -> np.ndarray:
        """Read-only view: physical key of every logical key."""
        return self._to_physical

    def to_physical(self, keys: np.ndarray) -> np.ndarray:
        """Physical keys for logical ``keys`` (any shape), range-checked.

        Logical keys come from the workload, so they are checked here like
        the unwrapped parameter server checks them: ``KeyError`` for a
        negative key (fancy indexing alone would wrap it around to the other
        end of the key space), ``IndexError`` beyond it.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size:
            lo = int(keys.min())
            if lo < 0:
                raise KeyError(
                    f"keys out of range [0, {self.num_keys}): min={lo}"
                )
        return self._to_physical[keys]

    def to_logical(self, keys: np.ndarray) -> np.ndarray:
        """Logical keys for a batch of physical ``keys``."""
        return self._to_logical[np.asarray(keys, dtype=np.int64)]

    # ------------------------------------------------------------------ drift
    def rotation(self, shift: float) -> np.ndarray:
        """The physical relabeling that rotates every group by ``shift``.

        ``shift`` is a fraction of each group's size in (0, 1); the returned
        array ``sigma`` maps the current physical key ``p`` to its new label
        ``sigma[p]``. Apply it to the store (``store.permute(sigma)``) and to
        this remapper (:meth:`apply`) together.
        """
        if not 0 < shift < 1:
            raise ValueError("shift must be a fraction in (0, 1)")
        sigma = np.arange(self.num_keys, dtype=np.int64)
        for start, stop in self.groups:
            size = stop - start
            offset = int(round(shift * size)) % size
            if offset:
                sigma[start:stop] = start + (np.arange(size) + offset) % size
        return sigma

    def apply(self, sigma: np.ndarray) -> None:
        """Compose the physical relabeling ``sigma`` into the mapping."""
        sigma = np.asarray(sigma, dtype=np.int64)
        if sigma.shape != (self.num_keys,):
            raise ValueError("sigma must cover the full key space")
        for start, stop in self.groups:
            block = sigma[start:stop]
            if block.min() < start or block.max() >= stop:
                raise ValueError(
                    f"sigma does not map key group ({start}, {stop}) onto itself"
                )
        self._to_physical = sigma[self._to_physical]
        to_logical = np.empty_like(self._to_logical)
        to_logical[sigma] = self._to_logical
        self._to_logical = to_logical
        self.drifts_applied += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyRemapper(num_keys={self.num_keys}, "
            f"drifts={self.drifts_applied})"
        )


class RemappedDistribution(SamplingDistribution):
    """A sampling distribution translated into physical key space.

    Reads the remapper on every call, so one registered distribution follows
    all subsequent drifts. Requires the inner distribution's support to lie
    inside a single key group of the remapper (then the physical support is
    the same contiguous range).
    """

    def __init__(self, inner: SamplingDistribution, remapper: KeyRemapper) -> None:
        super().__init__(inner.key_offset, inner.support_size)
        lo, hi = inner.key_offset, inner.key_offset + inner.support_size
        # The support must coincide with a key group exactly: a rotation maps
        # each *group* onto itself, so a strict-subset support would leak
        # sampled keys outside its declared physical range after a drift.
        if (lo, hi) not in remapper.groups:
            raise ValueError(
                f"distribution support [{lo}, {hi}) must equal one of the "
                f"remapper's key groups {remapper.groups}; hot-set drift only "
                "preserves supports that coincide with a group"
            )
        self.inner = inner
        self.remapper = remapper

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.remapper.to_physical(self.inner.sample(rng, size))

    def probabilities_of(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        return self.inner.probabilities_of(self.remapper.to_logical(keys))
