"""Zipf utilities shared by the synthetic data generators.

Real-world datasets have skewed frequency distributions (Section 2.1): word
frequencies and graph degrees follow Zipf-like laws. The generators in this
package therefore draw item frequencies from a Zipf distribution with a
configurable exponent (the paper's synthetic matrix uses exponent 1.1).
"""

from __future__ import annotations

import numpy as np


def zipf_probabilities(num_items: int, exponent: float = 1.1,
                       shuffle: bool = False,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Normalized Zipf probabilities ``p_i ∝ 1 / rank_i**exponent``.

    With ``shuffle=True`` the probabilities are randomly permuted so that hot
    items are spread over the id space (real datasets do not place the most
    frequent item at id 0; and range partitioning should not trivially place
    all hot keys on one server).
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, exponent)
    probabilities = weights / weights.sum()
    if shuffle:
        rng = rng or np.random.default_rng(0)
        probabilities = rng.permutation(probabilities)
    return probabilities


def frequency_histogram(counts: np.ndarray) -> np.ndarray:
    """Per-item frequencies sorted in decreasing order.

    The canonical "accesses per parameter" histogram of Figure 3: position
    ``i`` holds the frequency of the ``i``-th most frequently accessed item.
    Shared by the offline skew analysis (:mod:`repro.analysis.skew`) and the
    online access statistics (:mod:`repro.adaptive.stats`), which summarize
    observed frequencies with exactly the same curve.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ValueError("counts must be one-dimensional")
    return np.sort(counts)[::-1]


def empirical_skew_summary(counts: np.ndarray, top_fraction: float = 0.0002) -> dict:
    """Summarize skew the way the paper does in Section 2.1.

    Returns the share of total accesses that go to the ``top_fraction`` most
    frequently accessed items (e.g. "18% of reads go to 0.02% of parameters").
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) == 0:
        raise ValueError("counts must be a non-empty one-dimensional array")
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    total = counts.sum()
    sorted_counts = frequency_histogram(counts)
    top_k = max(1, int(round(top_fraction * len(counts))))
    top_share = sorted_counts[:top_k].sum() / total if total > 0 else 0.0
    return {
        "num_items": int(len(counts)),
        "total_accesses": float(total),
        "top_fraction": float(top_k / len(counts)),
        "top_share": float(top_share),
    }
