"""Tests for the experiment runner, system registry, workloads and reporting."""

import numpy as np
import pytest

from repro.core.nups import NuPS
from repro.ml.task import TrainingTask
from repro.ps.chunks import StorageConfig
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.rounds import PUSH
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import EpochRecord, ExperimentResult, run_experiment
from repro.runner.reporting import format_table, format_value, quality_over_time_table, summary_table
from repro.runner.systems import SYSTEM_NAMES, build_parameter_server, make_ps_factory
from repro.runner.workloads import kge_task, make_task, matrix_factorization_task, word_vectors_task
from repro.simulation.cluster import Cluster, ClusterConfig


class CountingTask(TrainingTask):
    """A minimal task that counts how its hooks are called."""

    name = "counting"
    quality_metric = "progress"
    higher_is_better = True

    def __init__(self, num_points: int = 40, keys: int = 20) -> None:
        self._num_points = num_points
        self._keys = keys
        self.processed = 0
        self.prefetched = 0
        self.epoch_ends = 0

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
        rng = np.random.default_rng(seed)
        parts = self.partition_round_robin(np.arange(self._num_points), num_nodes, rng)
        return [self.partition_round_robin(p, workers_per_node, rng) for p in parts]

    def prefetch(self, ps, worker, data_indices):
        self.prefetched += len(data_indices)

    def step_chunk(self, ps, charger, worker, data_indices):
        # One point: a push of every key, then the chunk's compute.
        keys = np.asarray(data_indices, dtype=np.int64) % self._keys
        charger.charge_chunk(worker, keys, [
            (PUSH, 0, len(keys), len(keys) * ps.network.compute_per_step)])
        charger.add(0, len(keys), np.ones((len(keys), 2), dtype=np.float32))
        self.processed += len(data_indices)

    def on_epoch_end(self, epoch):
        self.epoch_ends += 1

    def evaluate(self, store):
        return {"progress": float(store.get(np.arange(store.num_keys)).sum())}


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(epochs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(chunk_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)


class TestRunExperiment:
    def _config(self, nodes=2, epochs=2, **kwargs):
        return ExperimentConfig(
            cluster=ClusterConfig(num_nodes=nodes, workers_per_node=2),
            epochs=epochs, chunk_size=4, **kwargs,
        )

    def test_processes_every_data_point_each_epoch(self):
        task = CountingTask(num_points=40)
        result = run_experiment(task, make_ps_factory("classic"), self._config(epochs=2))
        assert task.processed == 80
        assert task.epoch_ends == 2
        assert result.epochs_completed == 2

    def test_prefetch_covers_all_chunks(self):
        task = CountingTask(num_points=40)
        run_experiment(task, make_ps_factory("lapse"), self._config(epochs=1))
        assert task.prefetched >= 40

    def test_records_are_monotone_in_time(self):
        task = CountingTask()
        result = run_experiment(task, make_ps_factory("classic"), self._config(epochs=3))
        times = result.times()
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert all(isinstance(r, EpochRecord) for r in result.records)

    def test_quality_reflects_all_pushes(self):
        task = CountingTask(num_points=40)
        result = run_experiment(task, make_ps_factory("classic"), self._config(epochs=1))
        # Every data point pushes a (1, 1) delta: total sum = 2 * points.
        assert result.final_quality() == pytest.approx(80.0)

    def test_metrics_snapshot_present(self):
        task = CountingTask()
        result = run_experiment(task, make_ps_factory("classic"), self._config(epochs=1))
        assert result.metrics.get("access.total", 0) > 0

    def test_system_name_defaults_to_ps_name(self):
        task = CountingTask()
        result = run_experiment(task, make_ps_factory("classic"), self._config(epochs=1))
        assert result.system == "classic"

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            task = CountingTask()
            results.append(run_experiment(
                task, make_ps_factory("nups"), self._config(epochs=2, seed=5)
            ))
        assert results[0].final_quality() == results[1].final_quality()
        assert results[0].total_time == results[1].total_time


class TestExperimentResult:
    def _result(self, qualities, higher_is_better=True):
        records = [
            EpochRecord(epoch=i + 1, sim_time=float(i + 1), epoch_duration=1.0,
                        quality={"q": value})
            for i, value in enumerate(qualities)
        ]
        return ExperimentResult(
            system="test", task="t", num_nodes=1, workers_per_node=1,
            initial_quality={"q": qualities[0] if qualities else 0.0},
            records=records, quality_metric="q", higher_is_better=higher_is_better,
        )

    def test_time_to_quality_higher_is_better(self):
        result = self._result([0.1, 0.5, 0.9])
        assert result.time_to_quality(0.5) == 2.0
        assert result.time_to_quality(0.95) is None

    def test_time_to_quality_lower_is_better(self):
        result = self._result([1.0, 0.5, 0.2], higher_is_better=False)
        assert result.time_to_quality(0.5) == 2.0

    def test_best_and_final_quality(self):
        result = self._result([0.1, 0.9, 0.5])
        assert result.best_quality() == 0.9
        assert result.final_quality() == 0.5

    def test_mean_epoch_time(self):
        assert self._result([0.1, 0.2]).mean_epoch_time() == 1.0

    def test_empty_result(self):
        result = ExperimentResult(
            system="x", task="t", num_nodes=1, workers_per_node=1,
            initial_quality={"q": 0.3}, quality_metric="q",
        )
        assert result.total_time == 0.0
        assert result.final_quality() == pytest.approx(0.3)


class TestSystemRegistry:
    @pytest.fixture
    def env(self):
        task = kge_task("test")
        cluster = Cluster(ClusterConfig(num_nodes=4, workers_per_node=2))
        store = task.create_store()
        return task, cluster, store

    def test_all_names_build(self, env):
        task, cluster, store = env
        for name in SYSTEM_NAMES:
            if name == "single-node":
                continue
            ps = build_parameter_server(name, store, cluster, task)
            assert ps is not None

    def test_single_node_requires_one_node(self, env):
        task, _, store = env
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=2))
        ps = build_parameter_server("single-node", store, cluster, task)
        assert isinstance(ps, SingleNodePS)

    def test_unknown_name_rejected(self, env):
        task, cluster, store = env
        with pytest.raises(ValueError):
            build_parameter_server("definitely-not-a-ps", store, cluster, task)
        with pytest.raises(ValueError):
            make_ps_factory("definitely-not-a-ps")

    def test_expected_types(self, env):
        task, cluster, store = env
        assert isinstance(build_parameter_server("classic", store, cluster, task), ClassicPS)
        assert isinstance(build_parameter_server("lapse", store, cluster, task), RelocationPS)
        ssp = build_parameter_server("ssp", store, cluster, task)
        assert isinstance(ssp, ReplicationPS) and ssp.protocol is ReplicationProtocol.SSP
        essp = build_parameter_server("essp", store, cluster, task)
        assert essp.protocol is ReplicationProtocol.ESSP
        assert isinstance(build_parameter_server("nups", store, cluster, task), NuPS)

    def test_nups_untuned_uses_hot_spot_heuristic(self, env):
        task, cluster, store = env
        ps = build_parameter_server("nups", store, cluster, task)
        assert ps.plan.num_replicated >= 0
        assert ps.integrate_sampling

    def test_ablation_variants(self, env):
        task, cluster, store = env
        no_sampling = build_parameter_server("relocation+replication", store, cluster, task)
        assert not no_sampling.integrate_sampling
        relocation_only = build_parameter_server("relocation+sampling", store, cluster, task)
        assert relocation_only.plan.num_replicated == 0
        assert relocation_only.integrate_sampling

    def test_nups_tuned_wv_replicates_more_keys(self):
        task = word_vectors_task("test")
        cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=2))
        store = task.create_store()
        untuned = build_parameter_server("nups", store, cluster, task)
        tuned = build_parameter_server("nups-tuned", store, cluster, task)
        assert tuned.plan.num_replicated >= untuned.plan.num_replicated
        assert tuned.sampling_manager.config.scheme_override == "local"

    def test_overrides_forwarded(self, env):
        task, cluster, store = env
        ps = build_parameter_server("nups", store, cluster, task,
                                    pool_size=7, use_frequency=3, sync_interval=0.5)
        scheme_config = ps.sampling_manager.config.scheme_config
        assert scheme_config.pool_size == 7
        assert scheme_config.use_frequency == 3
        assert ps.replica_manager.sync_interval == 0.5

    @pytest.mark.parametrize("name, overrides", [
        ("nups", {"pool_sise": 3}),         # a misspelled NuPS parameter
        ("classic", {"pool_size": 3}),      # a NuPS parameter elsewhere
    ])
    def test_wrong_override_fails_before_any_round(self, name, overrides):
        """A builder declares its parameters: an override it does not take
        raises instead of silently running the default."""
        task = CountingTask(num_points=40)
        factory = make_ps_factory(name, **overrides)
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=1, chunk_size=4)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            run_experiment(task, factory, config)
        assert task.processed == 0 and task.prefetched == 0

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_every_system_rejects_unknown_overrides(self, env, name):
        task, cluster, store = env
        if name == "single-node":
            cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=2))
        with pytest.raises(TypeError, match="pool_sise"):
            build_parameter_server(name, store, cluster, task, pool_sise=3)
        # The storage backend is an experiment setting, not a PS override.
        with pytest.raises(TypeError, match="storage"):
            build_parameter_server(name, store, cluster, task,
                                   storage=StorageConfig(backend="sparse"))


class TestWorkloadPresets:
    @pytest.mark.parametrize("name", ["kge", "word_vectors", "matrix_factorization"])
    def test_test_scale_presets_are_small(self, name):
        task = make_task(name, scale="test")
        assert task.num_data_points() < 10_000
        assert task.num_keys() < 10_000

    def test_unknown_task_and_scale_rejected(self):
        with pytest.raises(ValueError):
            make_task("nope")
        with pytest.raises(ValueError):
            kge_task(scale="huge")
        with pytest.raises(ValueError):
            word_vectors_task(scale="huge")
        with pytest.raises(ValueError):
            matrix_factorization_task(scale="huge")

    def test_task_kwargs_forwarded(self):
        task = kge_task("test", num_negatives=5)
        assert task.num_negatives == 5


class TestReporting:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(0.000123456) == "0.0001235"
        assert format_value(float("nan")) == "nan"
        assert format_value("abc") == "abc"
        assert format_value(0.0) == "0"

    def test_format_table_alignment(self):
        table = format_table(["a", "metric"], [[1, 2.5], [10, 0.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_quality_over_time_table(self):
        task = CountingTask()
        config = ExperimentConfig(cluster=ClusterConfig(num_nodes=1, workers_per_node=2),
                                  epochs=2, chunk_size=4)
        result = run_experiment(task, make_ps_factory("single-node"), config)
        text = quality_over_time_table([result])
        assert "single-node" in text
        assert "epoch" in text

    def test_summary_table(self):
        task = CountingTask()
        config = ExperimentConfig(cluster=ClusterConfig(num_nodes=1, workers_per_node=2),
                                  epochs=1, chunk_size=4)
        result = run_experiment(task, make_ps_factory("single-node"), config)
        assert "single-node" in summary_table([result])
