"""Optimizers and update utilities shared by the workloads.

Two paper-relevant details live here:

* **AdaGrad with PS-resident state.** The KGE task trains with AdaGrad
  (Section 5.1). In a distributed PS setting the accumulator must be shared
  across nodes, so — as in the paper's implementation — it is stored in the
  parameter value right next to the embedding. Accumulator updates are sums
  of squared gradients and therefore combine correctly under the PS's
  additive ``push``.
* **Gradient-norm clipping.** The paper clips updates to replicated
  parameters in the WV and MF tasks (updates exceeding twice the running
  average norm) to prevent exploding gradients under staleness.
* **Bold driver** learning-rate schedule used by the MF implementation the
  paper adapts.
"""

from __future__ import annotations

import numpy as np


class AdaGrad:
    """AdaGrad step computation with the accumulator stored in the PS value.

    The parameter value layout is ``[weights (d) | accumulator (d)]``. Given a
    pulled value and a gradient, :meth:`compute_update` returns the *delta*
    to push: the weight part moves by ``-lr * g / sqrt(acc + g^2 + eps)`` and
    the accumulator part by ``g^2``.
    """

    def __init__(self, learning_rate: float = 0.1, eps: float = 1e-8) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.learning_rate = float(learning_rate)
        self.eps = float(eps)

    def compute_update(self, value: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Delta to push for one parameter (1-D) or a batch (2-D).

        ``value`` has length ``2 d`` (weights then accumulator); ``gradient``
        has length ``d``. Gradients here follow the convention "direction of
        steepest descent is ``-gradient``", i.e. we apply ``-lr * adjusted``.
        """
        value = np.asarray(value, dtype=np.float32)
        gradient = np.asarray(gradient, dtype=np.float32)
        dim = gradient.shape[-1]
        if value.shape[-1] != 2 * dim:
            raise ValueError(
                f"value layout must be [weights|accumulator] of length {2 * dim}, "
                f"got length {value.shape[-1]}"
            )
        accumulator = value[..., dim:]
        grad_sq = gradient * gradient
        adjusted = gradient / np.sqrt(accumulator + grad_sq + self.eps)
        delta = np.empty(adjusted.shape[:-1] + (2 * dim,), dtype=np.float32)
        delta[..., :dim] = -self.learning_rate * adjusted
        delta[..., dim:] = grad_sq
        return delta


def clip_update_norm(update: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``update`` down so its L2 norm does not exceed ``max_norm``.

    Applied per parameter (row-wise for 2-D inputs). ``max_norm <= 0``
    disables clipping.
    """
    if max_norm <= 0:
        return update
    update = np.asarray(update, dtype=np.float32)
    if update.ndim == 1:
        norm = float(np.linalg.norm(update))
        if norm > max_norm:
            return update * (max_norm / norm)
        return update
    norms = np.linalg.norm(update, axis=-1, keepdims=True)
    scale = np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
    return (update * scale).astype(np.float32)


#: NumPy 2's row-wise dot; ``None`` on NumPy 1.
_VECDOT = getattr(np, "vecdot", None)


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``row.dot(row)`` of every row of a 2-D array, in one call.

    ``np.vecdot`` runs the same BLAS dot per row at half the dispatch cost
    of the stacked matmul that NumPy 1 falls back to.
    """
    if _VECDOT is not None:
        return _VECDOT(rows, rows)
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


class UpdateNormClipper:
    """Clip updates that exceed a multiple of the running average norm.

    This matches the paper's setup more closely than a fixed threshold: "we
    used gradient norm clipping ... for replicated parameters in the WV and
    MF tasks (clipping updates that exceed the average norm by more than 2x)".

    The running average is computed over *non-zero* update norms and clipping
    only starts after ``warmup`` updates have been observed; otherwise the
    zero-norm updates that are common early in training (e.g. Word2Vec output
    vectors are initialized to zero) would drag the average to zero and
    suppress all learning.
    """

    def __init__(self, factor: float = 2.0, warmup: int = 100) -> None:
        if factor <= 0:
            raise ValueError("factor must be positive")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.factor = float(factor)
        self.warmup = int(warmup)
        self._count = 0
        self._mean_norm = 0.0

    def clip(self, update: np.ndarray) -> np.ndarray:
        update = np.asarray(update, dtype=np.float32)
        # sqrt(x . x) is what np.linalg.norm computes for 1-D inputs, minus
        # several layers of dispatch overhead (this runs once per update row).
        norm = float(np.sqrt(update.dot(update)))
        if (self._count >= self.warmup and self._mean_norm > 0
                and norm > self.factor * self._mean_norm):
            update = update * (self.factor * self._mean_norm / max(norm, 1e-12))
            norm = self.factor * self._mean_norm
        # Update the running mean with the (possibly clipped) non-zero norm.
        if norm > 0:
            self._count += 1
            self._mean_norm += (norm - self._mean_norm) / self._count
        return update

    def clip_rows(self, updates: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`clip` of a 2-D float32 batch, in order.

        Bit-identical to calling :meth:`clip` once per row. The squared
        norms come from one batched call (:func:`_row_dots`) that runs the
        same BLAS dot per row as ``row.dot(row)``
        (``tests/test_ml_optimizer.py`` pins the identity on both of its
        routes, so a NumPy build that routes differently fails loudly).
        The square roots are one elementwise call, and the (inherently
        sequential) running-mean logic runs on Python floats. ``updates``
        must be freshly allocated — clipped rows are scaled in place.
        """
        if len(updates) == 0:
            return updates
        norms = np.sqrt(_row_dots(updates)).tolist()
        count = self._count
        mean = self._mean_norm
        factor = self.factor
        warmup = self.warmup
        for i, norm in enumerate(norms):
            if count >= warmup and mean > 0 and norm > factor * mean:
                updates[i] = updates[i] * (factor * mean / max(norm, 1e-12))
                norm = factor * mean
            if norm > 0:
                count += 1
                mean += (norm - mean) / count
        self._count = count
        self._mean_norm = mean
        return updates


class BoldDriver:
    """Bold-driver learning-rate schedule (used by the MF task).

    After each epoch the learning rate is increased by ``increase`` if the
    training loss decreased and multiplied by ``decrease`` if it increased —
    the heuristic responsible for the step pattern visible in the paper's MF
    convergence curves.
    """

    def __init__(self, initial_learning_rate: float, increase: float = 1.05,
                 decrease: float = 0.5) -> None:
        if initial_learning_rate <= 0:
            raise ValueError("initial_learning_rate must be positive")
        if increase < 1.0:
            raise ValueError("increase must be >= 1.0")
        if not 0 < decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        self.learning_rate = float(initial_learning_rate)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self._previous_loss: float | None = None

    def update(self, epoch_loss: float) -> float:
        """Adjust and return the learning rate given the last epoch's loss."""
        if self._previous_loss is not None:
            if epoch_loss <= self._previous_loss:
                self.learning_rate *= self.increase
            else:
                self.learning_rate *= self.decrease
        self._previous_loss = float(epoch_loss)
        return self.learning_rate
