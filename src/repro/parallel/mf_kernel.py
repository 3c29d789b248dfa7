"""The worker-side matrix-factorization kernel: raw SGD deltas for one slice.

A worker computes the value-only part of the fused remainder — prediction,
error, gradients, learning-rate scaling — for its contiguous slice of the
round's conflict-free points, reading factor rows straight from the shared
parameter matrix and writing raw (pre-clip) deltas plus per-point statistics
into shared scratch. Everything *stateful* stays on the coordinator: the
update-norm clipper's running mean and the epoch loss accumulate there, in
exact point order, during the merge walk.

Bit-identity contract
---------------------
Every expression below mirrors
:meth:`repro.ml.matrix_factorization.MatrixFactorizationTask._step`
element for element on the same dtypes (the task runs both factors through
each expression at once; here they stay two rows, which changes no
element's operands or operation order):

* ``value`` is a Python float (the sequential path iterates a ``tolist()``
  of the float64 training values; the float64 round-trip through shared
  memory is exact);
* ``error`` and ``error * error`` are Python-float (float64) arithmetic;
* ``error * col - reg * row`` and ``lr * grad`` multiply float32 arrays by
  Python-float scalars, which NumPy keeps in float32;
* the update norm is ``float(np.sqrt(delta.dot(delta)))`` — a float32 dot
  and square root widened to float64, stored losslessly in float64 scratch.

The fused rows a worker reads are, by the conflict-group plan, disjoint from
every row written during the round before the coordinator's deferred
scatter, so reading the live shared matrix observes exactly the values the
sequential path reads at those points.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_fused_slice"]


def run_fused_slice(values: np.ndarray, keys: np.ndarray,
                    cell_values: np.ndarray, deltas: np.ndarray,
                    stats: np.ndarray, lo: int, hi: int,
                    learning_rate: float, regularization: float,
                    want_norms: bool) -> None:
    """Compute raw deltas for fused points ``[lo, hi)`` of the round.

    ``values`` is the shared ``num_keys x rank`` float32 parameter matrix;
    ``keys`` holds the fused points' physical keys (``2 * point`` row key,
    ``2 * point + 1`` column key); ``cell_values`` the training values.
    Outputs land in ``deltas`` (row ``2 * point`` / ``2 * point + 1``,
    float32) and ``stats`` (float64: squared error, row-delta norm,
    column-delta norm).
    """
    cells = cell_values[lo:hi].tolist()
    for point, value in enumerate(cells, start=lo):
        row_factor = values[keys[2 * point]]
        col_factor = values[keys[2 * point + 1]]
        prediction = float(row_factor.dot(col_factor))
        error = value - prediction
        grad_row = error * col_factor - regularization * row_factor
        grad_col = error * row_factor - regularization * col_factor
        delta_row = learning_rate * grad_row
        delta_col = learning_rate * grad_col
        deltas[2 * point] = delta_row
        deltas[2 * point + 1] = delta_col
        stats[point, 0] = error * error
        if want_norms:
            stats[point, 1] = float(np.sqrt(delta_row.dot(delta_row)))
            stats[point, 2] = float(np.sqrt(delta_col.dot(delta_col)))
