"""Tests for the word vectors and matrix factorization tasks."""

import numpy as np
import pytest

from repro.data.corpus import generate_corpus
from repro.data.matrix import generate_matrix
from repro.ml.matrix_factorization import MatrixFactorizationTask
from repro.ml.optimizer import UpdateNormClipper
from repro.ml.task import RoundWorkItem
from repro.ml.word2vec import WordVectorsTask
from repro.ps.local import SingleNodePS
from repro.simulation.cluster import Cluster, ClusterConfig


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(vocab_size=250, num_sentences=250, sentence_length=8,
                           num_topics=6, seed=3)


@pytest.fixture(scope="module")
def matrix():
    return generate_matrix(num_rows=150, num_cols=40, num_cells=4000, rank=4, seed=2)


def train_on_single_node(task, epochs, seed=0, workers=2, chunk=16):
    cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=workers))
    store = task.create_store(seed=seed)
    ps = SingleNodePS(store, cluster)
    task.register_sampling(ps)
    shards = task.create_shards(1, workers, seed=seed)
    initial = task.evaluate(store)
    for epoch in range(epochs):
        for worker_id, shard in enumerate(shards[0]):
            worker = cluster.worker(0, worker_id)
            for start in range(0, len(shard), chunk):
                task.process_round(ps, [RoundWorkItem(
                    worker, shard[start: start + chunk], None)])
        task.on_epoch_end(epoch)
    return initial, task.evaluate(store), store


class TestWordVectorsLayout:
    def test_key_space_has_input_and_output_layers(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        assert task.num_keys() == 2 * corpus.vocab_size

    def test_store_init_input_random_output_zero(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        store = task.create_store(seed=0)
        assert np.abs(store.get(np.arange(store.num_keys))[: corpus.vocab_size]).max() > 0
        assert np.all(store.get(np.arange(store.num_keys))[corpus.vocab_size:] == 0)

    def test_data_points_are_tokens_with_context(self, corpus):
        task = WordVectorsTask(corpus, dim=4, window=2)
        assert 0 < task.num_data_points() <= sum(map(len, corpus.sentences))
        # Every data point has at least one context word within the window.
        widths = np.diff(task._context_offsets)
        assert len(widths) == task.num_data_points()
        assert widths.min() >= 1 and widths.max() <= 2 * task.window

    @pytest.mark.parametrize("window", [0, 1, 2, 5])
    def test_context_windows_match_per_token_reference(self, window):
        """The CSR context arrays hold, token by token, what slicing each
        sentence around the token gives (sentences of uneven length)."""
        sentences = [np.arange(length, dtype=np.int64) + 10 * length
                     for length in (1, 3, 0, 8, 2, 5)]
        corpus = generate_corpus(vocab_size=100, num_sentences=6, seed=0)
        corpus.sentences = sentences
        task = WordVectorsTask(corpus, dim=4, window=window)
        centers, contexts = [], []
        for sentence in sentences:
            for i in range(len(sentence)):
                context = np.concatenate([sentence[max(0, i - window):i],
                                          sentence[i + 1:i + window + 1]])
                if len(context):
                    centers.append(sentence[i])
                    contexts.append(corpus.vocab_size + context)
        np.testing.assert_array_equal(task._centers, centers)
        offsets = task._context_offsets
        assert [task._context_keys[lo:hi].tolist() for lo, hi in
                zip(offsets[:-1], offsets[1:])] == [c.tolist() for c in contexts]

    def test_access_counts_output_layer_hotter(self, corpus):
        task = WordVectorsTask(corpus, dim=4, window=2)
        counts = task.access_counts()
        assert counts[corpus.vocab_size:].sum() > counts[: corpus.vocab_size].sum()

    def test_sampling_access_counts_only_output_layer(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        counts = task.sampling_access_counts()
        assert counts[: corpus.vocab_size].sum() == 0
        assert counts[corpus.vocab_size:].sum() > 0

    def test_shards_partition_data(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        shards = task.create_shards(2, 3, seed=0)
        total = sum(len(w) for node in shards for w in node)
        assert total == task.num_data_points()


class TestWordVectorsTraining:
    def test_similarity_accuracy_improves(self, corpus):
        task = WordVectorsTask(corpus, dim=8, window=2, num_negatives=2,
                               learning_rate=0.3)
        initial, final, _ = train_on_single_node(task, epochs=3)
        assert final["similarity_accuracy"] > initial["similarity_accuracy"]
        assert final["similarity_accuracy"] > 60.0

    def test_output_vectors_receive_updates(self, corpus):
        task = WordVectorsTask(corpus, dim=4, window=2, num_negatives=2)
        _, _, store = train_on_single_node(task, epochs=1)
        assert np.abs(store.get(np.arange(store.num_keys))[corpus.vocab_size:]).max() > 0

    def test_requires_sampling_registration(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        ps = SingleNodePS(task.create_store(), cluster)
        with pytest.raises(RuntimeError):
            task.process_round(ps, [RoundWorkItem(cluster.worker(0, 0),
                                                  np.array([0]), None)])

    def test_evaluation_range(self, corpus):
        task = WordVectorsTask(corpus, dim=4)
        accuracy = task.evaluate(task.create_store())["similarity_accuracy"]
        assert 0.0 <= accuracy <= 100.0


class TestMatrixFactorizationLayout:
    def test_key_space(self, matrix):
        task = MatrixFactorizationTask(matrix)
        assert task.num_keys() == matrix.num_rows + matrix.num_cols
        assert task.value_length() == matrix.rank

    def test_access_counts_match_frequencies(self, matrix):
        task = MatrixFactorizationTask(matrix)
        counts = task.access_counts()
        np.testing.assert_array_equal(counts[: matrix.num_rows], matrix.row_frequencies)
        np.testing.assert_array_equal(counts[matrix.num_rows:], matrix.col_frequencies)

    def test_no_sampling_access(self, matrix):
        task = MatrixFactorizationTask(matrix)
        assert task.sampling_access_counts().sum() == 0

    def test_shards_partition_rows_by_node(self, matrix):
        task = MatrixFactorizationTask(matrix)
        shards = task.create_shards(num_nodes=3, workers_per_node=2, seed=0)
        all_indices = np.concatenate([w for node in shards for w in node])
        assert sorted(all_indices.tolist()) == list(range(matrix.num_train))
        # All cells of a row live on exactly one node.
        row_to_node = {}
        for node_id, node in enumerate(shards):
            for shard in node:
                for index in shard:
                    row = int(matrix.train_cells[index, 0])
                    assert row_to_node.setdefault(row, node_id) == node_id

    def test_worker_shards_ordered_by_column(self, matrix):
        task = MatrixFactorizationTask(matrix)
        shards = task.create_shards(num_nodes=1, workers_per_node=2, seed=0)
        for shard in shards[0]:
            columns = matrix.train_cells[shard, 1]
            # Each column's cells appear contiguously (visit column by column).
            changes = np.count_nonzero(np.diff(columns) != 0)
            assert changes == len(np.unique(columns)) - 1


class TestMatrixFactorizationTraining:
    def test_rmse_decreases(self, matrix):
        task = MatrixFactorizationTask(matrix, learning_rate=0.5)
        initial, final, _ = train_on_single_node(task, epochs=5)
        assert final["test_rmse"] < initial["test_rmse"]

    def test_bold_driver_adapts_learning_rate(self, matrix):
        task = MatrixFactorizationTask(matrix, learning_rate=0.1)
        initial_rate = task.learning_rate
        train_on_single_node(task, epochs=3)
        assert task.learning_rate != initial_rate

    def test_bold_driver_can_be_disabled(self, matrix):
        task = MatrixFactorizationTask(matrix, learning_rate=0.1, use_bold_driver=False)
        train_on_single_node(task, epochs=2)
        assert task.learning_rate == 0.1

    def test_epoch_loss_resets_between_epochs(self, matrix):
        task = MatrixFactorizationTask(matrix)
        train_on_single_node(task, epochs=1)
        assert task._epoch_points == 0

    def test_evaluation_is_finite(self, matrix):
        task = MatrixFactorizationTask(matrix)
        rmse = task.evaluate(task.create_store())["test_rmse"]
        assert np.isfinite(rmse) and rmse > 0


class _TwoRowStep:
    """The MF step as it was before it went full-width: row factor and
    column factor through separate expressions, the row delta clipped
    before the column delta. Kept here, not in ``src/``, as the reference
    :meth:`MatrixFactorizationTask._step` must reproduce bit for bit."""

    def __init__(self, learning_rate, regularization, clip_factor):
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.clipper = UpdateNormClipper(clip_factor) if clip_factor > 0 else None
        self.squared_error = 0.0
        self.points = 0

    def _clip(self, update):
        if self.clipper is None:
            return np.asarray(update, dtype=np.float32)
        return np.asarray(self.clipper.clip(update), dtype=np.float32)

    def __call__(self, row_factor, col_factor, value):
        prediction = float(row_factor.dot(col_factor))
        error = value - prediction
        self.squared_error += error * error
        self.points += 1
        grad_row = error * col_factor - self.regularization * row_factor
        grad_col = error * row_factor - self.regularization * col_factor
        delta_row = self._clip(self.learning_rate * grad_row)
        delta_col = self._clip(self.learning_rate * grad_col)
        deltas = np.empty((2, len(delta_row)), dtype=np.float32)
        deltas[0] = delta_row
        deltas[1] = delta_col
        return deltas


class TestMatrixFactorizationStep:
    @pytest.mark.parametrize("clip_factor", [2.0, 0])
    @pytest.mark.parametrize("rank", [4, 8, 16, 50])
    def test_full_width_step_is_the_two_row_step(self, rank, clip_factor):
        """Deltas, loss accumulators and clipper state stay bit-equal over a
        chain of 8000 points per rank (32 000 in all) in which each point's
        factors carry the previous points' deltas, with outliers that clip
        once the warm-up is over."""
        dataset = generate_matrix(num_rows=10, num_cols=10, num_cells=50,
                                  rank=rank, seed=1)
        task = MatrixFactorizationTask(dataset, learning_rate=0.3,
                                       regularization=0.02,
                                       clip_factor=clip_factor)
        reference = _TwoRowStep(0.3, 0.02, clip_factor)
        rng = np.random.default_rng(rank)
        factors = rng.normal(0, 0.3, size=(40, rank)).astype(np.float32)
        clipped = 0
        for point in range(8000):
            keys = rng.choice(40, size=2, replace=False)
            pulled = factors[keys]
            if rng.random() < 0.05:
                pulled = pulled * np.float32(25.0)  # an update far off the mean
            value = float(rng.normal())
            expected = reference(pulled[0].copy(), pulled[1].copy(), value)
            deltas = task._step(pulled, value)
            assert deltas.dtype == np.float32
            assert deltas.tobytes() == expected.tobytes(), point
            assert task._epoch_squared_error == reference.squared_error
            assert task._epoch_points == reference.points
            if reference.clipper is not None:
                assert vars(task._clipper) == vars(reference.clipper)
                raw = task.learning_rate * (
                    (value - float(pulled[0].dot(pulled[1]))) * pulled[::-1]
                    - task.regularization * pulled)
                clipped += not np.array_equal(raw, deltas)
            factors[keys] += np.clip(deltas, -0.05, 0.05)  # chain, bounded
        assert task._clipper is None or clipped > 100


def _composed_token_deltas(task, clipper, center_vec, context_vecs, neg_vecs):
    """The word-vectors token step as it was before it was fused: each score
    block through its own sigmoid and outer product, each row block scaled
    on its own. Kept here as the reference
    :meth:`WordVectorsTask._token_deltas` must reproduce bit for bit."""
    num_pairs = len(context_vecs)
    pos_g = 1.0 / (1.0 + np.exp(-context_vecs.dot(center_vec).clip(-30.0, 30.0))) - 1.0
    grad_center = pos_g.dot(context_vecs)
    deltas = np.empty((1 + num_pairs + len(neg_vecs), task.dim), dtype=np.float32)
    if len(neg_vecs):
        neg_g = 1.0 / (1.0 + np.exp(-neg_vecs.dot(center_vec).clip(-30.0, 30.0)))
        grad_center = grad_center + neg_g.dot(neg_vecs)
        deltas[1 + num_pairs:] = -task.learning_rate \
            * (neg_g[:, None] * center_vec[None, :])
    deltas[0] = -task.learning_rate * grad_center
    deltas[1:1 + num_pairs] = -task.learning_rate \
        * (pos_g[:, None] * center_vec[None, :])
    return deltas if clipper is None else clipper.clip_rows(deltas)


class TestWordVectorsStep:
    @pytest.mark.parametrize("clip_factor", [2.0, 0])
    @pytest.mark.parametrize("dim", [4, 8, 13])
    def test_fused_step_is_the_composed_step(self, corpus, dim, clip_factor):
        """Deltas and clipper state stay bit-equal over 4000 random tokens
        per case: 0-6 context words, 0-4 negatives per pair, scales up to
        saturated sigmoids."""
        task = WordVectorsTask(corpus, dim=dim, learning_rate=0.07,
                               clip_factor=clip_factor)
        clipper = UpdateNormClipper(clip_factor) if clip_factor > 0 else None
        rng = np.random.default_rng(dim)
        for token in range(4000):
            num_pairs = int(rng.integers(0, 7))
            negatives = num_pairs * int(rng.integers(0, 5))
            scale = float(rng.choice([0.01, 0.3, 2.0, 20.0]))
            rows = rng.normal(0, scale, size=(1 + num_pairs + negatives, dim)) \
                .astype(np.float32)
            values = (rows[0], rows[1:1 + num_pairs], rows[1 + num_pairs:])
            expected = _composed_token_deltas(task, clipper, *values)
            deltas = task._token_deltas(*values)
            assert deltas.dtype == np.float32
            assert deltas.tobytes() == expected.tobytes(), token
            if clipper is not None:
                assert vars(task._clipper) == vars(clipper)
