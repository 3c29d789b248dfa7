"""Target sampling distributions over parameter keys (Section 4.1).

A sampling distribution assigns a probability to every key in a (contiguous)
*support range* of the PS key space. The two distributions the paper's
workloads use are covered:

* a uniform distribution over all entity keys (knowledge graph embeddings,
  where negatives are drawn uniformly over entities), and
* a unigram (word-frequency-based) distribution over output-layer keys
  (Word2Vec, where negatives follow word frequency raised to 0.75).

Distributions are pure sampling objects: they know nothing about nodes or
locality. The sampling manager combines them with the current parameter
allocation when a scheme needs "the locally available part of π".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.core.sampling.alias import AliasSampler


class SamplingDistribution(ABC):
    """A fixed target distribution π over a contiguous range of keys."""

    def __init__(self, key_offset: int, support_size: int) -> None:
        if support_size <= 0:
            raise ValueError("support_size must be positive")
        if key_offset < 0:
            raise ValueError("key_offset must be non-negative")
        self.key_offset = int(key_offset)
        self.support_size = int(support_size)

    # ------------------------------------------------------------- interface
    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid keys from π (absolute PS keys)."""

    @abstractmethod
    def probabilities_of(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        """π_k for a batch of absolute PS keys (0.0 outside the support)."""

    # --------------------------------------------------------------- helpers
    def in_support(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``keys`` lie inside the support range."""
        keys = np.asarray(keys, dtype=np.int64)
        return (keys >= self.key_offset) & (keys < self.key_offset + self.support_size)

    def conditional_probabilities(self, keys: np.ndarray) -> np.ndarray:
        """π restricted and renormalized to ``keys`` (absolute PS keys).

        Used by local sampling: sample from the locally available part of π.
        Keys outside the support get probability zero. If all given keys have
        zero mass, a uniform distribution over them is returned (the scheme
        must sample *something* locally; this is exactly the kind of deviation
        that makes local sampling NON-CONFORM).
        """
        keys = np.asarray(keys, dtype=np.int64)
        probs = self.probabilities_of(keys)
        total = probs.sum()
        if total <= 0:
            return np.full(len(keys), 1.0 / max(len(keys), 1))
        return probs / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(key_offset={self.key_offset}, "
            f"support_size={self.support_size})"
        )


class UniformDistribution(SamplingDistribution):
    """Uniform distribution over a contiguous key range (KGE negatives)."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be non-negative")
        return rng.integers(
            self.key_offset, self.key_offset + self.support_size, size=size,
            dtype=np.int64,
        )

    def probabilities_of(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        return np.where(self.in_support(keys), 1.0 / self.support_size, 0.0)


class CategoricalDistribution(SamplingDistribution):
    """Arbitrary discrete distribution over a contiguous key range."""

    def __init__(self, weights: Sequence[float] | np.ndarray, key_offset: int = 0) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        super().__init__(key_offset, len(weights))
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._probs = weights / total
        self._sampler = AliasSampler(self._probs)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sampler.sample(rng, size) + self.key_offset

    def probabilities(self) -> np.ndarray:
        """The full probability vector over the support (length support_size)."""
        return self._probs.copy()

    def probabilities_of(self, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        probs = np.zeros(len(keys), dtype=np.float64)
        mask = self.in_support(keys)
        if np.any(mask):
            probs[mask] = self._probs[keys[mask] - self.key_offset]
        return probs


class UnigramDistribution(CategoricalDistribution):
    """Word2Vec-style unigram distribution: frequency ** power, renormalized.

    ``power=0.75`` is the smoothing exponent of Mikolov et al. that the
    paper's word vectors task uses for negative sampling.
    """

    def __init__(self, frequencies: Sequence[float] | np.ndarray,
                 power: float = 0.75, key_offset: int = 0) -> None:
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if np.any(frequencies < 0):
            raise ValueError("frequencies must be non-negative")
        if frequencies.sum() <= 0:
            raise ValueError("frequencies must sum to a positive value")
        self.power = float(power)
        super().__init__(np.power(frequencies, self.power), key_offset)
