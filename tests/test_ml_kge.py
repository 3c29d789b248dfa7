"""Tests for the ComplEx knowledge graph embeddings task."""

import numpy as np
import pytest

from repro.core.sampling.conformity import ConformityLevel
from repro.data.knowledge_graph import generate_knowledge_graph
from repro.ml.kge import ComplExModel, ComplExStep, KGETask, _sigmoid
from repro.ml.optimizer import AdaGrad
from repro.ps.local import SingleNodePS
from repro.simulation.cluster import Cluster, ClusterConfig


@pytest.fixture(scope="module")
def graph():
    return generate_knowledge_graph(
        num_entities=120, num_relations=6, num_triples=900, seed=4
    )


@pytest.fixture
def task(graph):
    return KGETask(graph, dim=4, num_negatives=2)


def _true_triples(graph) -> set:
    """Every (s, r, o) of both splits: what filtered ranking filters out."""
    combined = np.concatenate([graph.train_triples, graph.test_triples])
    return {tuple(int(x) for x in row) for row in combined}


class TestComplExModel:
    def setup_method(self):
        self.model = ComplExModel(dim=3)
        rng = np.random.default_rng(0)
        self.s = rng.normal(size=6).astype(np.float32)
        self.r = rng.normal(size=6).astype(np.float32)
        self.o = rng.normal(size=6).astype(np.float32)

    def test_score_matches_complex_arithmetic(self):
        s_c = self.model.to_complex(self.s)
        r_c = self.model.to_complex(self.r)
        o_c = self.model.to_complex(self.o)
        expected = float(np.real(np.sum(s_c * r_c * np.conj(o_c))))
        assert self.model.score(self.s, self.r, self.o) == pytest.approx(expected, rel=1e-5)

    def test_score_against_all_matches_pointwise(self):
        rng = np.random.default_rng(1)
        entities = rng.normal(size=(10, 6)).astype(np.float32)
        scores = self.model.score_against_all(self.s, self.r, entities)
        for i in range(10):
            assert scores[i] == pytest.approx(
                self.model.score(self.s, self.r, entities[i]), rel=1e-4
            )

    def test_score_all_subjects_matches_pointwise(self):
        rng = np.random.default_rng(2)
        entities = rng.normal(size=(10, 6)).astype(np.float32)
        scores = self.model.score_all_subjects(self.r, self.o, entities)
        for i in range(10):
            assert scores[i] == pytest.approx(
                self.model.score(entities[i], self.r, self.o), rel=1e-4
            )

    def test_gradients_match_numerical_gradients(self):
        """Analytical gradients of the score agree with finite differences."""
        dscore = 1.0
        grad_s, grad_r, grad_o = self.model.gradients(self.s, self.r, self.o, dscore)
        eps = 1e-3

        def numerical(vector, index, which):
            perturbed = {"s": self.s.copy(), "r": self.r.copy(), "o": self.o.copy()}
            perturbed[which][index] += eps
            plus = self.model.score(perturbed["s"], perturbed["r"], perturbed["o"])
            perturbed[which][index] -= 2 * eps
            minus = self.model.score(perturbed["s"], perturbed["r"], perturbed["o"])
            return (plus - minus) / (2 * eps)

        for index in range(6):
            assert grad_s[index] == pytest.approx(numerical(self.s, index, "s"), abs=1e-2)
            assert grad_r[index] == pytest.approx(numerical(self.r, index, "r"), abs=1e-2)
            assert grad_o[index] == pytest.approx(numerical(self.o, index, "o"), abs=1e-2)

    def test_gradients_scale_with_dscore(self):
        grad_1 = self.model.gradients(self.s, self.r, self.o, 1.0)
        grad_2 = self.model.gradients(self.s, self.r, self.o, 2.0)
        for a, b in zip(grad_1, grad_2):
            np.testing.assert_allclose(2 * a, b, rtol=1e-5)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            ComplExModel(0)


def _reference_steps(model, optimizer, values, regularization=0.0):
    """A batch of independent steps composed from the public half-width API.

    ``values`` is ``(inputs, 3 + negatives, 4 dim)``; the rows of one input
    are ``[s, r, o, negatives...]``, the first half of the negatives
    perturbing the subject, the second half the object. Per input this is
    the step as the task computed it before :class:`ComplExStep`: one
    ``score`` and one ``gradients`` call over the positive and the perturbed
    triples, the per-key sums in the order positive, perturbed-subject
    block, perturbed-object block, and AdaGrad on every row. The leading
    axis only batches the inputs (all public functions broadcast over it).
    """
    dim2 = 2 * model.dim
    weights = values[:, :, :dim2]
    s_w, r_w, o_w = weights[:, 0:1], weights[:, 1:2], weights[:, 2:3]
    neg_w = weights[:, 3:]
    count = neg_w.shape[1]
    half = count // 2
    subjects = np.concatenate(
        [s_w, neg_w[:, :half], np.repeat(s_w, count - half, axis=1)], axis=1)
    objects = np.concatenate(
        [o_w, np.repeat(o_w, half, axis=1), neg_w[:, half:]], axis=1)
    dscores = _sigmoid(model.score(subjects, r_w, objects))
    dscores[:, 0] = dscores[:, 0] - 1.0
    g_subj, g_rel, g_obj = model.gradients(subjects, r_w, objects, dscores)
    grad_s, grad_r, grad_o = g_subj[:, 0], g_rel[:, 0], g_obj[:, 0]
    if half:
        grad_r = grad_r + g_rel[:, 1:1 + half].sum(axis=1)
        grad_o = grad_o + g_obj[:, 1:1 + half].sum(axis=1)
    if count > half:
        grad_s = grad_s + g_subj[:, 1 + half:].sum(axis=1)
        grad_r = grad_r + g_rel[:, 1 + half:].sum(axis=1)
    if regularization:
        grad_s = grad_s + regularization * s_w[:, 0]
        grad_r = grad_r + regularization * r_w[:, 0]
        grad_o = grad_o + regularization * o_w[:, 0]
    grads = np.concatenate(
        [grad_s[:, None], grad_r[:, None], grad_o[:, None],
         g_subj[:, 1:1 + half], g_obj[:, 1 + half:]], axis=1)
    return optimizer.compute_update(values, grads)


class TestComplExStep:
    """The full-width step is the half-width composition, bit for bit."""

    @pytest.mark.parametrize("regularization", [0.0, 0.01])
    @pytest.mark.parametrize("negatives", [1, 2, 3, 8])
    @pytest.mark.parametrize("dim", [4, 5, 8, 16])
    def test_bit_identical_to_public_composition(self, dim, negatives,
                                                 regularization):
        rng = np.random.default_rng(1000 * dim + 10 * negatives)
        model = ComplExModel(dim)
        optimizer = AdaGrad(0.1)
        step = ComplExStep(dim, 2 * negatives)
        rows = 3 + 2 * negatives
        for scale in (0.1, 1.0, 4.0, 30.0):  # up to saturated sigmoids
            batch = rng.normal(0, scale, size=(500, rows, 4 * dim)) \
                .astype(np.float32)
            # The accumulator half is a sum of squares: non-negative, and
            # exactly zero on a fresh row.
            batch[:, :, 2 * dim:] = np.square(batch[:, :, 2 * dim:]) \
                * (rng.random((500, rows, 1)) < 0.8)
            expected = _reference_steps(model, optimizer, batch, regularization)
            for values, deltas in zip(batch, expected):
                assert step.deltas(values, optimizer, regularization) \
                    .tobytes() == deltas.tobytes()

    def test_reference_batching_is_exact(self):
        """The batched reference equals one public-API composition per input."""
        rng = np.random.default_rng(11)
        model = ComplExModel(8)
        optimizer = AdaGrad(0.1)
        batch = np.abs(rng.normal(size=(40, 9, 32))).astype(np.float32)
        together = _reference_steps(model, optimizer, batch, 0.01)
        for values, deltas in zip(batch, together):
            alone = _reference_steps(model, optimizer, values[None], 0.01)[0]
            assert alone.tobytes() == deltas.tobytes()

    def test_odd_sample_counts_and_no_samples(self):
        rng = np.random.default_rng(7)
        model = ComplExModel(4)
        optimizer = AdaGrad(0.1)
        for num_sampled in (0, 1, 5):
            step = ComplExStep(4, num_sampled)
            batch = np.abs(rng.normal(size=(50, 3 + num_sampled, 16))) \
                .astype(np.float32)
            expected = _reference_steps(model, optimizer, batch)
            for values, deltas in zip(batch, expected):
                assert step.deltas(values, optimizer).tobytes() \
                    == deltas.tobytes()

    def test_values_are_not_modified(self):
        values = np.random.default_rng(3).random((7, 16)).astype(np.float32)
        before = values.copy()
        ComplExStep(4, 4).deltas(values, AdaGrad(0.1))
        assert np.array_equal(values, before)


class TestKGETaskLayout:
    def test_key_space_covers_entities_and_relations(self, task, graph):
        assert task.num_keys() == graph.num_entities + graph.num_relations
        assert task.relation_key(0) == graph.num_entities

    def test_value_length_includes_adagrad_state(self, task):
        assert task.value_length() == 4 * task.dim

    def test_store_initialization(self, task):
        store = task.create_store(seed=0)
        weights = store.get(np.arange(store.num_keys))[:, : 2 * task.dim]
        accumulators = store.get(np.arange(store.num_keys))[:, 2 * task.dim:]
        assert np.abs(weights).max() > 0
        assert np.all(accumulators == 0)

    def test_access_counts_cover_all_keys(self, task, graph):
        counts = task.access_counts()
        assert len(counts) == task.num_keys()
        assert counts[: graph.num_entities].sum() == pytest.approx(
            2 * graph.num_train
        )
        assert counts[graph.num_entities:].sum() == pytest.approx(graph.num_train)

    def test_sampling_access_counts_are_uniform_over_entities(self, task, graph):
        counts = task.sampling_access_counts()
        entity_counts = counts[: graph.num_entities]
        assert np.allclose(entity_counts, entity_counts[0])
        assert counts[graph.num_entities:].sum() == 0

    def test_shards_partition_the_training_data(self, task, graph):
        shards = task.create_shards(num_nodes=3, workers_per_node=2, seed=0)
        all_indices = np.concatenate([w for node in shards for w in node])
        assert sorted(all_indices.tolist()) == list(range(graph.num_train))


class TestKGETraining:
    def _train(self, task, epochs=2, seed=0):
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=2))
        store = task.create_store(seed=seed)
        ps = SingleNodePS(store, cluster)
        task.register_sampling(ps)
        shards = task.create_shards(1, 2, seed=seed)
        initial = task.evaluate(store)
        for _ in range(epochs):
            for worker_id, shard in enumerate(shards[0]):
                worker = cluster.worker(0, worker_id)
                for start in range(0, len(shard), 16):
                    task.process_chunk(ps, worker, shard[start: start + 16])
        return initial, task.evaluate(store)

    def test_training_improves_filtered_mrr(self, graph):
        task = KGETask(graph, dim=4, num_negatives=2, learning_rate=0.2)
        initial, final = self._train(task, epochs=3)
        assert final["mrr_filtered"] > initial["mrr_filtered"]
        assert final["mrr_filtered"] > 2 * initial["mrr_filtered"]

    def test_requires_sampling_registration(self, task):
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        store = task.create_store()
        ps = SingleNodePS(store, cluster)
        with pytest.raises(RuntimeError):
            task.process_chunk(ps, cluster.worker(0, 0), np.array([0, 1]))

    def test_adagrad_accumulators_grow_during_training(self, graph):
        task = KGETask(graph, dim=4, num_negatives=2)
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        store = task.create_store()
        ps = SingleNodePS(store, cluster)
        task.register_sampling(ps)
        task.process_chunk(ps, cluster.worker(0, 0), np.arange(50))
        accumulators = store.get(np.arange(store.num_keys))[:, 2 * task.dim:]
        assert accumulators.max() > 0
        assert accumulators.min() >= 0

    def test_evaluation_metrics_well_formed(self, task):
        store = task.create_store()
        metrics = task.evaluate(store)
        assert 0.0 <= metrics["mrr_filtered"] <= 1.0
        assert 0.0 <= metrics["hits_at_10"] <= 1.0

    def test_filtered_rank_excludes_known_true_triples(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        # Without filtering, target 4 ranks 5th; entities 0-2 are known true
        # and must be filtered out, leaving rank 2 (behind entity 3 only).
        rank = KGETask._filtered_rank(scores, target=4,
                                     known_true=np.array([0, 1, 2]))
        assert rank == 2

    def test_filtered_rank_keeps_target_itself(self):
        scores = np.array([1.0, 2.0])
        assert KGETask._filtered_rank(scores, target=1,
                                     known_true=np.array([1])) == 1

    def test_filter_index_lists_the_known_true_entities(self, graph, task):
        true_triples = _true_triples(graph)
        assert len(task._known_objects) == len(task._known_subjects) \
            == graph.num_test
        for index, (s, r, o) in enumerate(graph.test_triples.tolist()):
            objects = task._known_objects[index]
            subjects = task._known_subjects[index]
            assert objects.dtype == subjects.dtype == np.int64
            assert sorted(objects.tolist()) == sorted(
                e for (s2, r2, e) in true_triples if (s2, r2) == (s, r))
            assert sorted(subjects.tolist()) == sorted(
                e for (e, r2, o2) in true_triples if (r2, o2) == (r, o))

    def test_evaluation_matches_the_masked_ranking(self, graph, task):
        """MRR and Hits@10 are those of the per-query mask over a set of
        known-true entities (the implementation this index replaced)."""
        store = task.create_store(seed=3)
        dim2 = 2 * task.dim
        entity_w = store.get(np.arange(store.num_keys))[: graph.num_entities, :dim2]
        true_triples = _true_triples(graph)
        reciprocal_ranks = []
        hits = 0
        for s, r, o in graph.test_triples.tolist():
            relation_w = store.get(np.arange(store.num_keys))[task.relation_key(r), :dim2]
            queries = (
                (task.model.score_against_all(entity_w[s], relation_w, entity_w),
                 o, {e for (s2, r2, e) in true_triples if (s2, r2) == (s, r)}),
                (task.model.score_all_subjects(relation_w, entity_w[o], entity_w),
                 s, {e for (e, r2, o2) in true_triples if (r2, o2) == (r, o)}),
            )
            for scores, target, known in queries:
                mask = np.ones(len(scores), dtype=bool)
                mask[sorted(known - {target})] = False
                rank = int(np.count_nonzero(scores[mask] > scores[target])) + 1
                reciprocal_ranks.append(1.0 / rank)
                hits += int(rank <= 10)
        assert task.evaluate(store) == {
            "mrr_filtered": float(np.mean(reciprocal_ranks)),
            "hits_at_10": hits / len(reciprocal_ranks),
        }

    def test_sampling_level_is_passed_to_registration(self, graph, store):
        task = KGETask(graph, dim=4, sampling_level=ConformityLevel.NON_CONFORM)
        assert task.sampling_level is ConformityLevel.NON_CONFORM
