"""Edge-case coverage for ``run_experiment`` and the cached workloads.

Covers the corners the main runner tests skip: quality evaluated after
every epoch, workers whose shard is empty, and the read-only guarantee of
the ``lru_cache``'d benchmark datasets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.task import TrainingTask
from repro.ps.rounds import PUSH
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import (
    _cached_corpus,
    _cached_knowledge_graph,
    _cached_matrix,
    kge_task,
    matrix_factorization_task,
    word_vectors_task,
)
from repro.simulation.cluster import ClusterConfig


class TinyTask(TrainingTask):
    """A minimal deterministic task with a configurable number of points."""

    name = "tiny"
    quality_metric = "progress"

    def __init__(self, num_points: int, num_keys: int = 12) -> None:
        self._num_points = num_points
        self._keys = num_keys
        self.processed_chunks = []

    def num_keys(self):
        return self._keys

    def value_length(self):
        return 2

    def create_store(self, seed=0):
        return ParameterStore(self._keys, 2)

    def access_counts(self):
        return np.ones(self._keys)

    def num_data_points(self):
        return self._num_points

    def create_shards(self, num_nodes, workers_per_node, seed=0):
        # Deliberately unbalanced: all data goes to worker (0, 0); every
        # other worker receives an empty shard.
        empty = np.empty(0, dtype=np.int64)
        shards = [[empty for _ in range(workers_per_node)]
                  for _ in range(num_nodes)]
        shards[0][0] = np.arange(self._num_points)
        return shards

    def step_chunk(self, ps, charger, worker, data_indices):
        # One point: a push of every key, then the chunk's compute.
        keys = np.asarray(data_indices, dtype=np.int64) % self._keys
        charger.charge_chunk(worker, keys, [
            (PUSH, 0, len(keys), len(keys) * ps.network.compute_per_step)])
        charger.add(0, len(keys), np.ones((len(keys), 2), dtype=np.float32))
        self.processed_chunks.append(
            (worker.global_worker_id, len(data_indices))
        )

    def evaluate(self, store):
        return {"progress": float(store.get(np.arange(store.num_keys)).sum())}


def _config(**kwargs):
    kwargs.setdefault(
        "cluster", ClusterConfig(num_nodes=2, workers_per_node=2)
    )
    kwargs.setdefault("chunk_size", 4)
    return ExperimentConfig(**kwargs)


class TestRunExperimentEdgeCases:
    def test_every_epoch_is_evaluated(self):
        task = TinyTask(num_points=16)
        result = run_experiment(
            task, make_ps_factory("classic"), _config(epochs=2),
        )
        # Each record carries the quality after its own epoch: 16 pushes of
        # value_length ones per epoch.
        assert result.epochs_completed == 2
        assert [record.quality["progress"] for record in result.records] \
            == pytest.approx([16 * 2, 2 * 16 * 2])

    def test_empty_worker_shards_are_skipped(self):
        task = TinyTask(num_points=10)
        result = run_experiment(
            task, make_ps_factory("classic"), _config(epochs=1)
        )
        assert result.epochs_completed == 1
        # Only worker (0, 0) processed data; every point exactly once.
        assert {key for key, _ in task.processed_chunks} == {(0, 0)}
        assert sum(count for _, count in task.processed_chunks) == 10

    def test_all_shards_empty_still_completes(self):
        task = TinyTask(num_points=0)
        result = run_experiment(
            task, make_ps_factory("classic"), _config(epochs=2)
        )
        assert result.epochs_completed == 2
        assert task.processed_chunks == []

    def test_single_data_point_many_workers(self):
        task = TinyTask(num_points=1)
        result = run_experiment(
            task, make_ps_factory("lapse"), _config(epochs=1)
        )
        assert result.epochs_completed == 1
        assert sum(count for _, count in task.processed_chunks) == 1


class TestCachedDatasetsReadOnly:
    """The lru_cache'd benchmark datasets must be immutable."""

    def test_cached_knowledge_graph_is_frozen(self):
        graph = _cached_knowledge_graph(200, 4, 300, 1.1, 123)
        with pytest.raises(ValueError, match="read-only"):
            graph.train_triples[0, 0] = 99
        with pytest.raises(ValueError, match="read-only"):
            graph.entity_frequencies[0] = 1.0

    def test_cached_corpus_is_frozen(self):
        corpus = _cached_corpus(50, 20, 6, 2, 123)
        frozen_arrays = [
            value for value in vars(corpus).values()
            if isinstance(value, np.ndarray)
        ]
        assert frozen_arrays, "corpus should expose array attributes"
        for array in frozen_arrays:
            assert not array.flags.writeable
        # Sentence lists are frozen element-wise.
        if isinstance(corpus.sentences, (list, tuple)):
            for sentence in corpus.sentences:
                if isinstance(sentence, np.ndarray):
                    assert not sentence.flags.writeable

    def test_cached_matrix_is_frozen(self):
        matrix = _cached_matrix(40, 10, 200, 4, 1.4, 123)
        with pytest.raises(ValueError, match="read-only"):
            matrix.train_values[0] = 0.0

    def test_fresh_test_scale_datasets_stay_writable(self):
        # Only the *shared, cached* datasets are frozen; per-call generators
        # keep returning private writable arrays.
        task = kge_task(scale="test", seed=99)
        task.graph.train_triples[0, 0] = task.graph.train_triples[0, 0]

    def test_bench_tasks_train_on_frozen_datasets(self):
        # Guard: the training and evaluation hot paths must not rely on
        # mutating the (frozen) cached datasets.
        from repro.simulation.cluster import Cluster

        for factory in (kge_task, word_vectors_task, matrix_factorization_task):
            task = factory(scale="bench")
            cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=2))
            store = task.create_store(seed=0)
            ps = make_ps_factory("classic")(store, cluster, task)
            task.register_sampling(ps)
            worker = cluster.worker(0, 0)
            chunk = np.arange(min(16, task.num_data_points()), dtype=np.int64)
            task.prefetch(ps, worker, chunk)
            assert task.process_chunk(ps, worker, chunk) == len(chunk)
            quality = task.evaluate(store)
            assert task.quality_metric in quality
