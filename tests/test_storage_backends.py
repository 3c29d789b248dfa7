"""Dense/sparse storage backend equivalence and memory-budget regression.

The dense backend is the bit-identity oracle for the sparse chunked backend:
every operation, and every end-to-end experiment, must produce exactly the
same values, versions, simulated clocks and metrics on both. The budget
tests pin the tentpole scaling property — a sparse store over 10^8 logical
keys with a small touched set stays under an explicit memory budget that the
dense backend could not possibly meet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.ps.chunks import ChunkedTable, MemoryBudgetExceeded, StorageConfig
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import ExperimentResult, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.simulation.cluster import ClusterConfig


SPARSE = StorageConfig(backend="sparse", chunk_rows=64)


def _dense_and_sparse(num_keys=500, value_length=4, seed=3, init_scale=0.0):
    dense = ParameterStore(num_keys, value_length, seed=seed,
                           init_scale=init_scale)
    sparse = ParameterStore(num_keys, value_length, seed=seed,
                            init_scale=init_scale, storage=SPARSE)
    return dense, sparse


def _assert_stores_equal(dense: ParameterStore, sparse: ParameterStore):
    all_keys = np.arange(dense.num_keys, dtype=np.int64)
    np.testing.assert_array_equal(dense.get(all_keys), sparse.get(all_keys))
    np.testing.assert_array_equal(dense.read_versions(all_keys),
                                  sparse.read_versions(all_keys))


class TestSparseStoreMatchesDenseOracle:
    def test_random_init_is_bit_identical(self):
        dense, sparse = _dense_and_sparse(seed=7, init_scale=0.1)
        _assert_stores_equal(dense, sparse)

    def test_add_set_get_sequence(self):
        rng = np.random.default_rng(0)
        dense, sparse = _dense_and_sparse()
        for _ in range(25):
            keys = rng.integers(0, 500, size=rng.integers(1, 80),
                                dtype=np.int64)
            deltas = rng.normal(size=(len(keys), 4)).astype(np.float32)
            if rng.random() < 0.3:
                distinct = np.unique(keys)
                block = rng.normal(size=(len(distinct), 4)).astype(np.float32)
                dense.set(distinct, block)
                sparse.set(distinct, block)
            else:
                dense.add(keys, deltas)
                sparse.add(keys, deltas)
        _assert_stores_equal(dense, sparse)

    def test_add_distinct_matches(self):
        dense, sparse = _dense_and_sparse()
        keys = np.array([3, 64, 65, 499], dtype=np.int64)
        deltas = np.full((4, 4), 0.25, dtype=np.float32)
        dense.add_distinct(keys, deltas)
        sparse.add_distinct(keys, deltas)
        _assert_stores_equal(dense, sparse)

    def test_duplicate_keys_accumulate_identically(self):
        dense, sparse = _dense_and_sparse()
        keys = np.array([10, 10, 10, 63, 64, 10], dtype=np.int64)
        deltas = np.arange(24, dtype=np.float32).reshape(6, 4) * 0.1
        dense.add(keys, deltas)
        sparse.add(keys, deltas)
        _assert_stores_equal(dense, sparse)
        assert sparse.version(10) == 4

    @pytest.mark.parametrize("size", [3, 16])
    def test_small_batches_with_repeated_keys(self, size):
        """The KGE access shape: a triple pulls and pushes 3 direct and 16
        sampled keys, and a key can occur twice in one batch."""
        rng = np.random.default_rng(size)
        dense, sparse = _dense_and_sparse()
        for _ in range(150):
            keys = rng.integers(0, 500, size=size, dtype=np.int64)
            keys[-1] = keys[0]
            np.testing.assert_array_equal(dense.get(keys), sparse.get(keys))
            deltas = rng.normal(size=(size, 4)).astype(np.float32)
            dense.add(keys, deltas)
            sparse.add(keys, deltas)
            np.testing.assert_array_equal(dense.read_versions(keys),
                                          sparse.read_versions(keys))
        _assert_stores_equal(dense, sparse)

    def test_permute_matches(self):
        rng = np.random.default_rng(1)
        dense, sparse = _dense_and_sparse(num_keys=128)
        keys = rng.integers(0, 128, size=40, dtype=np.int64)
        deltas = rng.normal(size=(40, 4)).astype(np.float32)
        dense.add(keys, deltas)
        sparse.add(keys, deltas)
        perm = rng.permutation(128).astype(np.int64)
        dense.permute(perm)
        sparse.permute(perm)
        _assert_stores_equal(dense, sparse)

    def test_write_rows_does_not_bump_versions(self):
        for store in _dense_and_sparse():
            keys = np.array([5, 70], dtype=np.int64)
            store.add(keys, np.ones((2, 4), dtype=np.float32))
            before = store.read_versions(keys)
            store.write_rows(keys, np.zeros((2, 4), dtype=np.float32))
            np.testing.assert_array_equal(store.read_versions(keys), before)
            assert store.get(keys).sum() == 0.0

    def test_write_versions_roundtrip(self):
        for store in _dense_and_sparse():
            keys = np.array([1, 2], dtype=np.int64)
            store.write_versions(keys, np.array([10, 20]))
            np.testing.assert_array_equal(store.read_versions(keys), [10, 20])

    def test_values_property_densifies_coherently(self):
        _, sparse = _dense_and_sparse()
        sparse.add(np.array([7]), np.ones((1, 4), dtype=np.float32))
        dense_view = sparse.values
        assert dense_view.shape == (500, 4)
        assert dense_view[7].sum() == 4.0
        # Direct writes and chunked ops must stay coherent after densify.
        dense_view[9] = 2.0
        np.testing.assert_array_equal(sparse.get(np.array([9]))[0],
                                      np.full(4, 2.0, np.float32))
        sparse.add(np.array([11]), np.ones((1, 4), dtype=np.float32))
        assert dense_view[11].sum() == 4.0


class TestWithStorageConversion:
    def test_round_trip_preserves_contents(self):
        dense = ParameterStore(300, 4, seed=2, init_scale=0.05)
        dense.add(np.array([5, 100]), np.ones((2, 4), dtype=np.float32))
        sparse = dense.with_storage(SPARSE)
        assert sparse.backend == "sparse"
        _assert_stores_equal(dense, sparse)
        back = sparse.with_storage(StorageConfig())
        assert back.backend == "dense"
        _assert_stores_equal(dense, back)

    def test_zero_regions_stay_unmaterialized(self):
        dense = ParameterStore(10_000, 4)
        dense.add(np.array([0, 9_999]), np.ones((2, 4), dtype=np.float32))
        sparse = dense.with_storage(SPARSE)
        # Only the two touched chunks (values + versions) materialize.
        assert sparse.materialized_chunks() == 2
        _assert_stores_equal(dense, sparse)

    def test_rejects_non_config(self):
        with pytest.raises(TypeError):
            ParameterStore(10, 2).with_storage("sparse")


class TestViewContract:
    """``view`` promises a zero-copy read-only view for contiguous ranges
    and documents the copy fallback for everything else (regression: fancy
    indexing silently returned a copy while the docstring said view)."""

    def test_contiguous_range_is_zero_copy_on_dense(self):
        store = ParameterStore(100, 4, seed=0, init_scale=0.1)
        view = store.view(np.arange(10, 20))
        assert np.shares_memory(view, store.values)
        assert not view.flags.writeable

    def test_single_key_is_zero_copy_on_dense(self):
        store = ParameterStore(100, 4)
        assert np.shares_memory(store.view(np.array([42])), store.values)

    def test_view_tracks_subsequent_writes(self):
        # The zero-copy contract, observably: a true view sees later writes.
        store = ParameterStore(100, 4)
        view = store.view(np.arange(5, 8))
        store.add(np.array([6]), np.ones((1, 4), dtype=np.float32))
        assert view[1].sum() == 4.0

    def test_non_contiguous_falls_back_to_copy(self):
        store = ParameterStore(100, 4, seed=0, init_scale=0.1)
        view = store.view(np.array([3, 7, 50]))
        assert not np.shares_memory(view, store.values)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, store.get(np.array([3, 7, 50])))

    def test_sparse_range_written_in_order_is_zero_copy(self):
        store = ParameterStore(1000, 4, storage=SPARSE)
        store.add(np.arange(128, 140), np.ones((12, 4), dtype=np.float32))
        view = store.view(np.arange(130, 136))  # consecutive records
        assert np.shares_memory(view, store._values[130])  # the live row
        assert not view.flags.writeable
        store.add(np.array([135]), np.ones((1, 4), dtype=np.float32))
        assert view[5].sum() == 8.0  # zero-copy: sees the later write

    def test_sparse_range_with_an_unwritten_key_copies(self):
        store = ParameterStore(1000, 4, storage=SPARSE)
        store.add(np.array([130]), np.ones((1, 4), dtype=np.float32))
        view = store.view(np.arange(128, 140))  # in a materialized chunk
        assert not np.shares_memory(view, store._values[130])
        assert view[2].sum() == 4.0 and view.sum() == 4.0

    def test_sparse_unmaterialized_range_copies(self):
        store = ParameterStore(1000, 4, storage=SPARSE)
        view = store.view(np.arange(200, 210))
        assert not view.flags.writeable
        assert view.sum() == 0.0


class TestCopyWithoutThrowawayAllocation:
    def test_copy_never_calls_init(self, monkeypatch):
        """Regression: ``copy`` used to build the clone through ``__init__``,
        allocating a throwaway zero matrix that doubled peak memory."""
        store = ParameterStore(100, 4, seed=1, init_scale=0.1)

        def _boom(self, *args, **kwargs):
            raise AssertionError("copy() must not round-trip through __init__")

        monkeypatch.setattr(ParameterStore, "__init__", _boom)
        clone = store.copy()
        np.testing.assert_array_equal(clone.values, store.values)

    def test_sparse_copy_clones_materialized_chunks_only(self):
        store = ParameterStore(10_000, 4, storage=SPARSE)
        store.add(np.array([500]), np.ones((1, 4), dtype=np.float32))
        clone = store.copy()
        assert clone.materialized_chunks() == 1
        assert clone.nbytes() == store.nbytes()
        clone.add(np.array([500]), np.ones((1, 4), dtype=np.float32))
        # Independent: the original must not see the clone's write.
        assert store.get(np.array([500]))[0, 0] == 1.0


class TestMemoryBudgetRegression:
    """The tentpole scaling property, pinned as a regression test."""

    NUM_KEYS = 10**8
    BUDGET = 64 * 2**20  # 64 MiB — dense would need ~4 GiB (values+versions)

    def _sparse_config(self):
        return StorageConfig(backend="sparse", chunk_rows=64,
                             store_budget_bytes=self.BUDGET)

    def test_hundred_million_keys_under_budget(self):
        store = ParameterStore(self.NUM_KEYS, 8,
                               storage=self._sparse_config())
        rng = np.random.default_rng(0)
        touched = rng.integers(0, self.NUM_KEYS, size=10_000, dtype=np.int64)
        store.add(touched, rng.normal(size=(10_000, 8)).astype(np.float32))
        assert store.nbytes() <= self.BUDGET
        # The dense backend would allocate the full key space up front:
        dense_required = self.NUM_KEYS * (8 * 4 + 8)  # values + versions
        assert dense_required > 50 * self.BUDGET
        # Reads of untouched keys stay free and correct.
        probe = np.array([1, self.NUM_KEYS - 2], dtype=np.int64)
        assert store.get(probe).sum() == 0.0
        assert store.version(1) == 0

    def test_exceeding_budget_raises_actionable_error(self):
        config = StorageConfig(backend="sparse", chunk_rows=4096,
                               store_budget_bytes=1 * 2**20)  # 1 MiB
        store = ParameterStore(self.NUM_KEYS, 8, storage=config)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, self.NUM_KEYS, size=5_000, dtype=np.int64)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            store.add(keys, np.ones((5_000, 8), dtype=np.float32))
        message = str(excinfo.value)
        assert "memory budget" in message
        assert "chunk_rows" in message
        assert "Raise the budget" in message


#: The scale cell of ``perfbench``'s ``sparse_store`` workload in small, in
#: a process of its own: pools are anonymous mappings whose pages count only
#: once written. The peak is ``VmHWM``, not ``ru_maxrss``, which a child
#: inherits across ``exec`` from the (much larger) pytest process.
_SCALE_CELL = """
import gc, json
import numpy as np
from repro.ps.chunks import ChunkedTable, StorageConfig
from repro.ps.storage import ParameterStore
from repro.runner.systems import build_parameter_server
from repro.simulation.cluster import Cluster, ClusterConfig

def peak_mib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")) / 1024

baseline = peak_mib()
store = ParameterStore(10**8, 8, storage=StorageConfig(
    backend="sparse", chunk_rows=2048))
cluster = Cluster(ClusterConfig(num_nodes=8, workers_per_node=2))
ps = build_parameter_server("essp", store, cluster, None)
rng = np.random.default_rng(0)
delta = np.full((128, 8), 0.01, dtype=np.float32)
for node_id in range(8):
    worker = cluster.worker(node_id, 0)
    keys = rng.integers(0, 10**8, size=128)
    ps.localize(worker, keys)
    ps.pull(worker, keys)
    ps.push(worker, keys, delta)
for worker in cluster.workers():
    ps.advance_clock(worker)
ps.finish_epoch()
grown = peak_mib() - baseline
tables = [obj for obj in gc.get_objects()
          if isinstance(obj, ChunkedTable) and obj.num_rows == 10**8]
print(json.dumps({"grown_mib": grown,
                  "tables": len(tables),
                  "records": sum(len(t._written) - 1 for t in tables),
                  "stored": float(store.get(np.arange(10**8 - 5, 10**8)).sum()),
                  "chunks": store.materialized_chunks()}))
"""


def test_scale_cell_resident_memory_and_records():
    """10^8 keys, 8-node ESSP, 1024 touched keys: one table for the store
    and one per node, each an index plus one record per written key;
    measured 7.4 MiB. It was 19.3 MiB with a page table per table (9 x
    0.37 MiB) and one 4 KiB page per touched key and table, and 62 MiB with
    a page table per container (42 of them)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", _SCALE_CELL], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["tables"] == 9
    # Each node writes its 128 keys (few collide), the store all of them.
    assert 2 * 1000 <= report["records"] <= 2 * 1024
    assert report["chunks"] >= 1000 and report["stored"] == 0.0
    assert report["grown_mib"] < 12, report


# --------------------------------------------------------------------------
# End-to-end bit-identity: every PS architecture, dense vs sparse backend.
# --------------------------------------------------------------------------

def _run(system: str, storage=None, scenario_name=None) -> ExperimentResult:
    scenario = make_scenario(scenario_name) if scenario_name else None
    task = make_task("kge", scale="test")
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=2, chunk_size=8, seed=5, scenario=scenario, storage=storage,
    )
    return run_experiment(task, make_ps_factory(system), config)


def _assert_identical(first: ExperimentResult, second: ExperimentResult):
    assert first.initial_quality == second.initial_quality
    assert first.epochs_completed == second.epochs_completed
    for rec_a, rec_b in zip(first.records, second.records):
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.epoch_duration == rec_b.epoch_duration
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics
    assert first.metrics == second.metrics


SPARSE_RUN = StorageConfig(backend="sparse", chunk_rows=256)


@pytest.mark.parametrize("system", ["classic", "lapse", "essp", "nups"])
def test_sparse_backend_is_bit_identical(system):
    _assert_identical(_run(system), _run(system, storage=SPARSE_RUN))


def test_sparse_backend_bit_identical_under_drift_scenario():
    _assert_identical(_run("nups", scenario_name="drift"),
                      _run("nups", storage=SPARSE_RUN, scenario_name="drift"))


def test_sparse_backend_bit_identical_under_faults():
    _assert_identical(
        _run("essp", scenario_name="crash-storm"),
        _run("essp", storage=SPARSE_RUN, scenario_name="crash-storm"),
    )


TASK_NAMES = ("kge", "word_vectors", "matrix_factorization")


@pytest.mark.parametrize(
    ("task_name", "scenario_name"),
    [(task, None) for task in TASK_NAMES]
    + [(task, "drift") for task in TASK_NAMES],
    ids=list(TASK_NAMES) + [f"{task}-drift" for task in TASK_NAMES])
def test_a_sparse_store_stays_chunked_through_training(task_name,
                                                       scenario_name,
                                                       monkeypatch):
    """Evaluation reads rows with ``get``. It read ``store.values``, which
    densified a sparse store at the initial evaluation, so every sparse run
    trained on a dense table while reporting the sparse backend. A drift
    relabels the written keys; it densified the store."""
    densified = []
    densify = ChunkedTable._densify
    monkeypatch.setattr(
        ChunkedTable, "_densify",
        lambda table, *args: densified.append(table.label)
        or densify(table, *args))
    held = {}

    def factory(store, cluster, task):
        held["ps"] = make_ps_factory("nups")(store, cluster, task)
        return held["ps"]

    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
        epochs=3 if scenario_name else 1, chunk_size=8, seed=5,
        storage=SPARSE_RUN,
        scenario=make_scenario(scenario_name) if scenario_name else None,
    )
    result = run_experiment(make_task(task_name, scale="test"), factory,
                            config)
    assert result.storage_backend == "sparse"
    assert result.metrics.get("scenario.drifts", 0) == bool(scenario_name)
    assert densified == []
    assert held["ps"].store._table._fill_end == 1  # not densified



def test_permute_relabels_a_sparse_store_like_a_dense_one():
    """A sparse store's permutation moves its written keys' records to the
    new keys, charging the chunks they land in; nothing is densified."""
    dense = ParameterStore(12, 2)
    sparse = ParameterStore(12, 2, storage=StorageConfig(
        backend="sparse", chunk_rows=3, store_budget_bytes=12 * 16))
    keys = np.array([0, 4, 5])
    for store in (dense, sparse):
        store.add(keys, np.arange(6, dtype=np.float32).reshape(3, 2) + 1)
        store.add(keys[:1], np.ones((1, 2), dtype=np.float32))
    sigma = np.roll(np.arange(12), 6)  # key k -> (k + 6) % 12
    for _ in range(2):
        for store in (dense, sparse):
            store.permute(sigma)
        every = np.arange(12)
        np.testing.assert_array_equal(sparse.get(every), dense.get(every))
        np.testing.assert_array_equal(sparse.read_versions(every),
                                      dense.read_versions(every))
    assert sparse._table._fill_end == 1  # not densified
    # Chunks {0, 1} held the keys, {2, 3} after the first permutation.
    assert sparse.materialized_chunks() == 4
    assert sparse.nbytes() == 4 * 3 * 16
