"""Tests for the optimizers and update utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import optimizer
from repro.ml.optimizer import (
    AdaGrad,
    BoldDriver,
    UpdateNormClipper,
    _row_dots,
    clip_update_norm,
)


class TestAdaGrad:
    def test_rejects_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            AdaGrad(learning_rate=0.0)
        with pytest.raises(ValueError):
            AdaGrad(eps=0.0)

    def test_update_shape_and_layout(self):
        optimizer = AdaGrad(0.1)
        value = np.zeros(8, dtype=np.float32)  # 4 weights + 4 accumulator
        gradient = np.ones(4, dtype=np.float32)
        delta = optimizer.compute_update(value, gradient)
        assert delta.shape == (8,)
        # Weight part moves against the gradient, accumulator gains grad^2.
        assert np.all(delta[:4] < 0)
        np.testing.assert_allclose(delta[4:], 1.0)

    def test_first_step_size_is_learning_rate(self):
        optimizer = AdaGrad(0.1, eps=1e-12)
        value = np.zeros(4, dtype=np.float32)
        gradient = np.array([2.0, -3.0], dtype=np.float32)
        delta = optimizer.compute_update(value, gradient)
        # With zero accumulator the adjusted gradient is g / |g| = sign(g).
        np.testing.assert_allclose(delta[:2], [-0.1, 0.1], rtol=1e-4)

    def test_weight_step_follows_the_accumulator(self):
        """The weight part is ``-lr * g / sqrt(acc + g^2 + eps)`` per
        element, reading the accumulator half of the value."""
        optimizer = AdaGrad(0.5, eps=1e-6)
        value = np.array([9.0, 9.0, 3.0, 0.25], dtype=np.float32)
        gradient = np.array([1.0, -2.0], dtype=np.float32)
        delta = optimizer.compute_update(value, gradient)
        expected = -0.5 * gradient / np.sqrt(value[2:] + gradient ** 2 + 1e-6)
        np.testing.assert_allclose(delta[:2], expected, rtol=1e-6)
        np.testing.assert_allclose(delta[2:], gradient ** 2)

    def test_accumulator_shrinks_subsequent_steps(self):
        optimizer = AdaGrad(0.1)
        value = np.zeros(4, dtype=np.float32)
        gradient = np.array([1.0, 1.0], dtype=np.float32)
        first = optimizer.compute_update(value, gradient)
        value = value + first
        second = optimizer.compute_update(value, gradient)
        assert np.all(np.abs(second[:2]) < np.abs(first[:2]))

    def test_batched_values(self):
        optimizer = AdaGrad(0.1)
        values = np.zeros((3, 4), dtype=np.float32)
        gradients = np.ones((3, 2), dtype=np.float32)
        deltas = optimizer.compute_update(values, gradients)
        assert deltas.shape == (3, 4)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdaGrad(0.1).compute_update(np.zeros(5), np.zeros(2))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2))
    def test_accumulator_is_monotone(self, gradient):
        """The accumulator part of the delta is always non-negative, so the
        accumulator itself never decreases — which is what makes pushing it
        additively through the PS correct."""
        optimizer = AdaGrad(0.1)
        delta = optimizer.compute_update(np.zeros(4, dtype=np.float32),
                                         np.asarray(gradient, dtype=np.float32))
        assert np.all(delta[2:] >= 0)


class TestClipUpdateNorm:
    def test_no_clipping_below_threshold(self):
        update = np.array([0.3, 0.4], dtype=np.float32)
        np.testing.assert_array_equal(clip_update_norm(update, 1.0), update)

    def test_clipping_above_threshold(self):
        update = np.array([3.0, 4.0], dtype=np.float32)
        clipped = clip_update_norm(update, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction is preserved.
        np.testing.assert_allclose(clipped / np.linalg.norm(clipped),
                                   update / np.linalg.norm(update), rtol=1e-5)

    def test_rowwise_clipping(self):
        updates = np.array([[3.0, 4.0], [0.3, 0.4]], dtype=np.float32)
        clipped = clip_update_norm(updates, 1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped[1], updates[1])

    def test_disabled_with_non_positive_max(self):
        update = np.array([3.0, 4.0], dtype=np.float32)
        np.testing.assert_array_equal(clip_update_norm(update, 0.0), update)


class TestUpdateNormClipper:
    def test_rejects_invalid_args(self):
        with pytest.raises(ValueError):
            UpdateNormClipper(factor=0)
        with pytest.raises(ValueError):
            UpdateNormClipper(warmup=0)

    def test_no_clipping_during_warmup(self):
        clipper = UpdateNormClipper(factor=2.0, warmup=10)
        large = np.array([100.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(clipper.clip(large), large)

    def test_zero_norm_updates_do_not_poison_the_average(self):
        clipper = UpdateNormClipper(factor=2.0, warmup=2)
        for _ in range(50):
            clipper.clip(np.zeros(2, dtype=np.float32))
        assert clipper._mean_norm == 0.0
        # A normal update afterwards is not clipped to zero.
        update = np.array([1.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(clipper.clip(update), update)

    def test_outlier_clipped_after_warmup(self):
        clipper = UpdateNormClipper(factor=2.0, warmup=5)
        for _ in range(20):
            clipper.clip(np.array([1.0, 0.0], dtype=np.float32))
        outlier = np.array([100.0, 0.0], dtype=np.float32)
        clipped = clipper.clip(outlier)
        assert np.linalg.norm(clipped) == pytest.approx(2.0, rel=0.01)


    @pytest.mark.parametrize("strided", [False, True])
    def test_batched_row_dots_are_the_per_row_blas_dots(self, strided,
                                                        monkeypatch):
        """``clip_rows`` takes all squared norms from one ``np.vecdot`` call
        (NumPy 2) or one stacked matmul of ``[1, d] @ [d, 1]`` products
        (NumPy 1) and relies on NumPy routing each row to the same BLAS dot
        ``row.dot(row)`` calls. A build that routes differently (another
        summation order) must fail here, not drift silently. Both routes
        are checked wherever NumPy has both."""
        for vecdot in {optimizer._VECDOT, None}:
            monkeypatch.setattr(optimizer, "_VECDOT", vecdot)
            rng = np.random.default_rng(11)
            for dim in (4, 5, 8, 16, 31, 50, 64, 100, 128):
                for num_rows in (1, 2, 3, 20, 257, 1000):
                    rows = rng.normal(0, 1, size=(num_rows, 2 * dim)) \
                        .astype(np.float32)
                    rows = rows[:, ::2] if strided else rows[:, :dim].copy()
                    expected = np.array([row.dot(row) for row in rows],
                                        dtype=np.float32)
                    assert _row_dots(rows).tobytes() == expected.tobytes(), \
                        (vecdot, dim, num_rows)

    def test_clip_rows_is_clip_row_by_row(self):
        """Rows, clipping decisions and the running mean, bit for bit — over
        a stream that leaves warm-up and clips outliers."""
        rng = np.random.default_rng(12)
        batched = UpdateNormClipper(factor=2.0, warmup=20)
        single = UpdateNormClipper(factor=2.0, warmup=20)
        clipped_rows = 0
        for _ in range(300):
            updates = rng.normal(0, 0.1, size=(int(rng.integers(0, 24)), 8)) \
                .astype(np.float32)
            updates[rng.random(len(updates)) < 0.1] *= 40.0  # outliers
            updates[rng.random(len(updates)) < 0.1] = 0.0    # zero norms
            expected = [single.clip(row.copy()) for row in updates]
            clipped_rows += sum(not np.array_equal(row, before)
                                for row, before in zip(expected, updates))
            result = batched.clip_rows(updates.copy())
            assert len(result) == len(expected)
            for row, reference in zip(result, expected):
                assert row.tobytes() == reference.tobytes()
            assert vars(batched) == vars(single)
        assert clipped_rows > 50


class TestBoldDriver:
    def test_rejects_invalid_args(self):
        with pytest.raises(ValueError):
            BoldDriver(0.0)
        with pytest.raises(ValueError):
            BoldDriver(0.1, increase=0.9)
        with pytest.raises(ValueError):
            BoldDriver(0.1, decrease=1.5)

    def test_first_update_keeps_rate(self):
        driver = BoldDriver(0.1)
        assert driver.update(1.0) == pytest.approx(0.1)

    def test_rate_increases_when_loss_decreases(self):
        driver = BoldDriver(0.1, increase=1.05)
        driver.update(1.0)
        assert driver.update(0.9) == pytest.approx(0.105)

    def test_rate_halves_when_loss_increases(self):
        driver = BoldDriver(0.1, decrease=0.5)
        driver.update(1.0)
        assert driver.update(1.5) == pytest.approx(0.05)

    def test_equal_loss_counts_as_improvement(self):
        driver = BoldDriver(0.1)
        driver.update(1.0)
        assert driver.update(1.0) > 0.1
