"""Synthetic matrix-factorization dataset.

Mirrors the paper's matrix factorization workload (Section 5.1): a synthetic
matrix whose revealed cells follow a Zipf-1.1 distribution over rows and
columns, modeled after the Netflix Prize data. Cell values are generated from
ground-truth low-rank factors plus noise, so SGD matrix factorization can
recover them and test RMSE decreases over training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.rows import unique_rows
from repro.data.zipf import zipf_probabilities


@dataclass
class MatrixDataset:
    """Revealed cells of a synthetic low-rank matrix, with a test split."""

    num_rows: int
    num_cols: int
    rank: int
    train_cells: np.ndarray   # (N, 2) int64: row, col
    train_values: np.ndarray  # (N,) float32
    test_cells: np.ndarray    # (M, 2) int64
    test_values: np.ndarray   # (M,) float32
    row_frequencies: np.ndarray  # revealed cells per row (train)
    col_frequencies: np.ndarray  # revealed cells per column (train)

    @property
    def num_train(self) -> int:
        return len(self.train_cells)


def generate_matrix(
    num_rows: int = 2000,
    num_cols: int = 400,
    num_cells: int = 40000,
    rank: int = 8,
    exponent: float = 1.1,
    col_exponent: float | None = None,
    noise: float = 0.1,
    test_fraction: float = 0.05,
    seed: int = 0,
) -> MatrixDataset:
    """Generate a Zipf-skewed low-rank matrix completion dataset.

    The paper's matrix is 10m x 1m with 1b revealed zipf(1.1) cells; this
    generator reproduces the recipe at configurable (much smaller) scale.
    ``col_exponent`` lets the column skew differ from the row skew (at small
    scale a slightly heavier column skew is needed for a handful of columns
    to stand out as hot spots the way they do at the paper's scale).
    """
    if rank <= 0:
        raise ValueError("rank must be positive")
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)

    row_probs = zipf_probabilities(num_rows, exponent, shuffle=True, rng=rng)
    col_probs = zipf_probabilities(
        num_cols, exponent if col_exponent is None else col_exponent,
        shuffle=True, rng=rng,
    )

    rows = rng.choice(num_rows, size=num_cells, p=row_probs)
    cols = rng.choice(num_cols, size=num_cells, p=col_probs)
    cells = np.stack([rows, cols], axis=1).astype(np.int64)
    # Deduplicate revealed cells, keeping the realized skew.
    cells = unique_rows(cells)
    rng.shuffle(cells)

    # Ground-truth low-rank factors.
    row_factors = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(num_rows, rank))
    col_factors = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(num_cols, rank))
    values = np.einsum(
        "ij,ij->i", row_factors[cells[:, 0]], col_factors[cells[:, 1]]
    )
    values = values + rng.normal(0.0, noise, size=len(values))
    values = values.astype(np.float32)

    num_test = max(1, int(round(test_fraction * len(cells))))
    test_cells, train_cells = cells[:num_test], cells[num_test:]
    test_values, train_values = values[:num_test], values[num_test:]

    row_frequencies = np.bincount(train_cells[:, 0], minlength=num_rows).astype(np.float64)
    col_frequencies = np.bincount(train_cells[:, 1], minlength=num_cols).astype(np.float64)

    return MatrixDataset(
        num_rows=num_rows,
        num_cols=num_cols,
        rank=rank,
        train_cells=train_cells,
        train_values=train_values,
        test_cells=test_cells,
        test_values=test_values,
        row_frequencies=row_frequencies,
        col_frequencies=col_frequencies,
    )
