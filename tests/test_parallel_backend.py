"""Cross-backend differential suite for the parallel execution backend.

The parallel backend's contract is the strongest the runner makes: selecting
``execution_backend="parallel"`` must not change a single bit of an
experiment — clocks, metrics, quality, *and the parameter store itself*
(values and per-key versions) must equal the sequential reference exactly,
for every architecture and scenario. This suite drives that contract:

* a differential matrix over all six MF architectures x {static, drift,
  churn}, comparing parallel against the sequential reference including the
  final store state — plus a NuPS plan that replicates keys, where the
  worker pool must stand back (replicated values are not in the store);
* the wrapped parameter servers: behind the fault proxy the pool dispatches
  in every round no gate can fire in, over a store that crash recovery and
  partition heal rewrite between rounds; behind the drift remapper it must
  stand back (the task holds logical keys);
* seeded random-workload fuzzing: random (system, seed, chunk_size, epochs)
  draws executed under all three backends, asserting exact equality;
* failure modes: a killed worker surfaces as an actionable
  :class:`ParallelExecutionError` quickly (never a hang), and the pool cache
  rebuilds a fresh pool afterwards;
* hygiene: no ``/dev/shm`` segments survive an experiment, and a full
  interpreter run leaves no resource-tracker leak warnings;
* the report pipeline's fork workers force inner experiments to the fused
  backend (no nested process pools, no oversubscription, no deadlock).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.parallel import (
    PARALLEL_DISABLE_ENV,
    SEGMENT_PREFIX,
    ParallelConfig,
    ParallelExecutionError,
)
from repro.parallel.backend import ParallelExecutor, _borrow_pool, _pool_cache
from repro.parallel.pool import WorkerPool
from repro.report import pipeline as report_pipeline
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import resolve_execution_backend, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import make_scenario
from repro.scenarios.remap import _RemappedPointCharger
from repro.simulation.cluster import ClusterConfig

MF_SYSTEMS = ["classic", "lapse", "ssp", "essp", "nups", "single-node"]


# ------------------------------------------------------------------ helpers
def _experiment(system, backend, scenario_name=None, chunk_size=8, seed=5,
                epochs=2, task_name="matrix_factorization", num_workers=2,
                scenario=None, **overrides):
    """One test-scale run; returns ``(result, final_store)``.

    The factory is wrapped to capture the parameter server, so assertions
    can reach the trained store (values and versions) after the run — the
    part of the state an :class:`ExperimentResult` does not expose.
    ``scenario`` is a scenario object where a preset's defaults do not do;
    ``overrides`` go to the system's builder.
    """
    task = make_task(task_name, scale="test")
    if scenario is None and scenario_name:
        scenario = make_scenario(scenario_name)
    parallel = ParallelConfig(num_workers=num_workers) \
        if backend == "parallel" else None
    config = ExperimentConfig(
        cluster=ClusterConfig(num_nodes=1 if system == "single-node" else 2,
                              workers_per_node=2),
        epochs=epochs, chunk_size=chunk_size, seed=seed, scenario=scenario,
        execution_backend=backend, parallel=parallel,
    )
    base = make_ps_factory(system, **overrides)
    captured = {}

    def factory(store, cluster, task):
        ps = base(store, cluster, task)
        captured["ps"] = ps
        return ps

    result = run_experiment(task, factory, config)
    return result, captured["ps"].store


def _assert_equivalent(pair_a, pair_b) -> None:
    """Exact equality: result records, metrics, and the trained store."""
    a, store_a = pair_a
    b, store_b = pair_b
    assert a.initial_quality == b.initial_quality
    assert a.epochs_completed == b.epochs_completed
    assert len(a.records) == len(b.records)
    for rec_a, rec_b in zip(a.records, b.records):
        assert rec_a.epoch == rec_b.epoch
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.epoch_duration == rec_b.epoch_duration
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics
    assert a.metrics == b.metrics
    assert np.array_equal(store_a.values, store_b.values)
    assert np.array_equal(store_a.versions, store_b.versions)


# ------------------------------------------------- differential matrix
@pytest.mark.parametrize("system", MF_SYSTEMS)
def test_parallel_matches_sequential(system):
    _assert_equivalent(
        _experiment(system, "parallel"),
        _experiment(system, "sequential"),
    )


def test_parallel_matches_sequential_with_replicated_keys():
    """NuPS serves replicated keys from the node's replica: the worker pool
    and its merge walk, which read and write the store, must not take such
    a round just because NuPS hands out a charger."""
    task = make_task("matrix_factorization", scale="test")
    overrides = dict(
        plan=ManagementPlan.top_k_by_count(task.access_counts(), 6),
        sync_interval=0.001,
    )
    parallel = _experiment("nups", "parallel", **overrides)
    assert parallel[0].metrics["access.pull.replica.local"] > 0
    assert parallel[0].metrics["access.pull.local"] > 0
    _assert_equivalent(parallel, _experiment("nups", "sequential", **overrides))


@pytest.mark.parametrize("scenario_name", ["drift", "churn"])
@pytest.mark.parametrize("system", MF_SYSTEMS)
def test_parallel_matches_sequential_under_scenarios(system, scenario_name):
    # Four epochs so the drift preset (epoch 2) actually rewires the
    # logical-to-physical mapping before the comparison window closes.
    _assert_equivalent(
        _experiment(system, "parallel", scenario_name=scenario_name,
                    epochs=4),
        _experiment(system, "sequential", scenario_name=scenario_name,
                    epochs=4),
    )


def _count_dispatches(monkeypatch) -> list:
    """Record the size of every round the worker pool is handed from now on."""
    dispatched = []
    dispatch = ParallelExecutor.dispatch_mf_round

    def counted(executor, fused_keys, fused_values, *args, **kwargs):
        dispatched.append(len(fused_values))
        return dispatch(executor, fused_keys, fused_values, *args, **kwargs)

    monkeypatch.setattr(ParallelExecutor, "dispatch_mf_round", counted)
    return dispatched


@pytest.mark.parametrize("system, scenario_name, dispatches", [
    ("ssp", "crash-storm", False),  # replica values are not in the store
    ("classic", "crash-storm", True),
    ("nups", "split-brain", True),
    ("lapse", "split-brain", True),
])
def test_parallel_matches_sequential_behind_the_fault_proxy(
        system, scenario_name, dispatches, monkeypatch):
    """While no gate can fire the proxy hands out the inner PS's charger,
    so the pool dispatches behind it in the rounds that are not degraded —
    over a shared-memory store that a checkpoint restore (crash) and the
    replay of buffered minority writes (heal) rewrite between rounds."""
    dispatched = _count_dispatches(monkeypatch)
    parallel = _experiment(system, "parallel", scenario_name=scenario_name,
                           epochs=3)
    assert bool(dispatched) == dispatches
    metrics = parallel[0].metrics
    if scenario_name == "crash-storm":
        assert metrics["faults.keys_recovered_from_checkpoint"] > 0
        assert metrics["faults.lost_chunks"] > 0  # degraded rounds ran
    else:
        assert metrics["elastic.replayed_writes"] > 0
        assert metrics["elastic.deferred_chunks"] > 0
    _assert_equivalent(parallel, _experiment(
        system, "sequential", scenario_name=scenario_name, epochs=3))


def test_parallel_stands_back_behind_the_key_remapper(monkeypatch):
    """Behind the drift remapper the task holds logical keys, which stop
    addressing the store at the first drift: the remapped charger says
    ``values_in_store = False`` and the pool takes no round, although the
    inner NuPS (a plan without replicas) would let it. Mutation check:
    with the property forced to ``True`` the pool is handed logical keys
    and the run diverges."""
    def early_drift():
        return make_scenario("drift", at=((1, 0),))

    sequential = _experiment("nups", "sequential", scenario=early_drift(),
                             epochs=3)
    dispatched = _count_dispatches(monkeypatch)
    parallel = _experiment("nups", "parallel", scenario=early_drift(), epochs=3)
    assert parallel[0].metrics["scenario.drifts"] == 1
    assert dispatched == []
    _assert_equivalent(parallel, sequential)

    monkeypatch.setattr(_RemappedPointCharger, "values_in_store", True)
    mutated = _experiment("nups", "parallel", scenario=early_drift(), epochs=3)
    assert dispatched
    with pytest.raises(AssertionError):
        _assert_equivalent(mutated, sequential)


@pytest.mark.parametrize("system", ["lapse", "nups"])
def test_parallel_matches_fused(system):
    _assert_equivalent(
        _experiment(system, "parallel"),
        _experiment(system, "fused"),
    )


def test_parallel_with_single_worker_matches_sequential():
    """num_workers=1 exercises the trivial partition of the merge contract."""
    _assert_equivalent(
        _experiment("lapse", "parallel", num_workers=1),
        _experiment("lapse", "sequential"),
    )


def test_parallel_matches_sequential_on_sparse_storage():
    """Chunk pinning: the sparse store densifies into shared memory."""
    from repro.ps.chunks import StorageConfig

    results = []
    for backend in ("parallel", "sequential"):
        task = make_task("matrix_factorization", scale="test")
        parallel = ParallelConfig(num_workers=2) \
            if backend == "parallel" else None
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=2, chunk_size=8, seed=5,
            execution_backend=backend, parallel=parallel,
            storage=StorageConfig(backend="sparse", chunk_rows=64),
        )
        results.append(run_experiment(task, make_ps_factory("lapse"), config))
    a, b = results
    assert a.metrics == b.metrics
    for rec_a, rec_b in zip(a.records, b.records):
        assert rec_a.sim_time == rec_b.sim_time
        assert rec_a.quality == rec_b.quality
        assert rec_a.metrics == rec_b.metrics


# ------------------------------------------------------ seeded fuzzing
def test_fuzz_random_workloads_agree_across_backends():
    """Random (system, seed, chunk_size, epochs) draws, all three backends.

    Exact equality of clocks, metrics, quality and parameter values — any
    order-dependent float fold that diverges between the in-process walk and
    the worker/merge split shows up here as a bit diff.
    """
    rng = np.random.default_rng(20220614)
    for _ in range(4):
        system = MF_SYSTEMS[int(rng.integers(len(MF_SYSTEMS)))]
        seed = int(rng.integers(1, 1000))
        chunk_size = int(rng.integers(3, 24))
        epochs = int(rng.integers(1, 4))
        num_workers = int(rng.integers(1, 4))
        reference = _experiment(system, "sequential", seed=seed,
                                chunk_size=chunk_size, epochs=epochs)
        for backend in ("fused", "parallel"):
            _assert_equivalent(
                _experiment(system, backend, seed=seed,
                            chunk_size=chunk_size, epochs=epochs,
                            num_workers=num_workers),
                reference,
            )


# ------------------------------------------------------- failure modes
def test_killed_worker_raises_actionable_error_quickly():
    """SIGKILL mid-round surfaces as ParallelExecutionError, not a hang."""
    pool = WorkerPool(2)
    try:
        pool.broadcast({"op": "ping"}, timeout=10.0)  # workers are up
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        pool._procs[0].join(10.0)  # reap, so is_alive() sees the death
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as excinfo:
            pool.submit([{"op": "ping"}, {"op": "ping"}])
            pool.wait(timeout=60.0)
        elapsed = time.monotonic() - start
        # Death detection must not wait out the 60 s round timeout.
        assert elapsed < 10.0
        message = str(excinfo.value)
        assert "died mid-round" in message
        assert "ParallelConfig.num_workers" in message  # the knob to turn
        assert pool.broken
        with pytest.raises(ParallelExecutionError):
            pool.submit([{"op": "ping"}, None])  # broken pools refuse work
    finally:
        pool.close()


def test_worker_exception_carries_traceback():
    pool = WorkerPool(1)
    try:
        pool.submit([{"op": "mf", "values": {"name": "no_such_segment",
                                             "shape": (1, 1),
                                             "dtype": "<f4"}}])
        with pytest.raises(ParallelExecutionError) as excinfo:
            pool.wait(timeout=30.0)
        assert "worker 0 raised" in str(excinfo.value)
        assert "Traceback" in str(excinfo.value)
    finally:
        pool.close()


def test_stalled_worker_times_out_with_actionable_error():
    pool = WorkerPool(1)
    try:
        # Never dispatch anything, then pretend worker 0 owes a reply: the
        # wait loop must hit the deadline and name the timeout knob.
        pool._pending = [0]
        with pytest.raises(ParallelExecutionError) as excinfo:
            pool.wait(timeout=0.2)
        assert "worker_timeout" in str(excinfo.value)
        assert pool.broken
    finally:
        pool.close()


def test_pool_cache_rebuilds_after_breakage():
    pool = _borrow_pool(2)
    assert _borrow_pool(2) is pool  # warm reuse
    os.kill(pool._procs[1].pid, signal.SIGKILL)
    pool._procs[1].join(10.0)
    assert not pool.alive
    fresh = _borrow_pool(2)
    try:
        assert fresh is not pool
        assert fresh.alive
        fresh.broadcast({"op": "ping"}, timeout=10.0)
    finally:
        fresh.close()
        _pool_cache.clear()


def test_experiment_survives_prior_pool_breakage():
    """An experiment after a pool breakage transparently re-forks and runs."""
    pool = _borrow_pool(2)
    os.kill(pool._procs[0].pid, signal.SIGKILL)
    pool._procs[0].join(10.0)
    _assert_equivalent(
        _experiment("lapse", "parallel"),
        _experiment("lapse", "sequential"),
    )


# ------------------------------------------------------------- hygiene
def _own_segments():
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    prefix = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return [name for name in os.listdir(shm_dir) if name.startswith(prefix)]


def test_no_shared_memory_segments_leak():
    _experiment("lapse", "parallel")
    assert _own_segments() == []


def test_interpreter_exit_is_resource_tracker_clean():
    """A whole run in a fresh interpreter ends without leak warnings.

    Python's resource tracker prints "leaked shared_memory objects" to
    stderr at exit for any segment registered but never unlinked; an empty
    stderr proves coordinator-side unlink discipline covers the fork
    workers' attachments too.
    """
    code = textwrap.dedent("""
        from repro.parallel import ParallelConfig
        from repro.runner.config import ExperimentConfig
        from repro.runner.experiment import run_experiment
        from repro.runner.systems import make_ps_factory
        from repro.runner.workloads import make_task
        from repro.simulation.cluster import ClusterConfig

        task = make_task("matrix_factorization", scale="test")
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=1, chunk_size=8, seed=5,
            execution_backend="parallel",
            parallel=ParallelConfig(num_workers=2),
        )
        result = run_experiment(task, make_ps_factory("lapse"), config)
        assert result.epochs_completed == 1
        print("RUN_OK")
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "RUN_OK" in proc.stdout
    assert "leaked shared_memory" not in proc.stderr
    assert "resource_tracker" not in proc.stderr


# ---------------------------------------------- pipeline nesting guard
def test_disable_env_downgrades_parallel_to_fused(monkeypatch):
    config = ExperimentConfig(execution_backend="parallel",
                              parallel=ParallelConfig(num_workers=2))
    monkeypatch.delenv(PARALLEL_DISABLE_ENV, raising=False)
    assert resolve_execution_backend(config) == "parallel"
    monkeypatch.setenv(PARALLEL_DISABLE_ENV, "1")
    assert resolve_execution_backend(config) == "fused"
    monkeypatch.setenv(PARALLEL_DISABLE_ENV, "0")
    assert resolve_execution_backend(config) == "parallel"


_FAKE_BENCHMARK = textwrap.dedent("""
    import os


    def run():
        from repro.parallel import ParallelConfig
        from repro.runner.config import ExperimentConfig
        from repro.runner.experiment import resolve_execution_backend

        config = ExperimentConfig(
            execution_backend="parallel",
            parallel=ParallelConfig(num_workers=2),
        )
        return {
            "disable_env": os.environ.get("REPRO_PARALLEL_DISABLE"),
            "inner_sweeps": os.environ.get("REPRO_BENCH_PARALLEL"),
            "resolved_backend": resolve_execution_backend(config),
        }
""")


def test_pipeline_fork_workers_force_fused_backend(tmp_path, monkeypatch):
    """``reproduce --jobs 2``: no deadlock, no nested worker pools.

    Two fake benchmarks run in the pipeline's fork pool; each reports the
    environment its experiments would see. Both must resolve the parallel
    backend down to fused (no process pools inside fork workers) with inner
    sweeps serialized, and the coordinator's environment must be restored
    afterwards.
    """
    specs = [
        report_pipeline.BenchmarkSpec(f"fake{i}", f"bench_fake{i}",
                                      f"Fake benchmark {i}", "appendix")
        for i in (1, 2)
    ]
    for spec in specs:
        (tmp_path / f"{spec.module}.py").write_text(_FAKE_BENCHMARK)
    monkeypatch.setattr(report_pipeline, "REGISTRY", specs)
    monkeypatch.setattr(report_pipeline, "_SPECS_BY_ID",
                        {spec.id: spec for spec in specs})
    monkeypatch.setattr(report_pipeline, "_REGISTRY_MODULES",
                        tuple(spec.module for spec in specs))
    monkeypatch.delenv(PARALLEL_DISABLE_ENV, raising=False)

    report = report_pipeline.run_pipeline(jobs=2, fast=True,
                                          benchmarks_dir=tmp_path)

    assert report["jobs"] == 2
    assert report["summary"]["benchmarks_failed"] == []
    for bench in report["benchmarks"]:
        assert bench["status"] == "ok", bench["error"]
        result = bench["result"]
        assert result["disable_env"] == "1"
        assert result["inner_sweeps"] == "0"
        assert result["resolved_backend"] == "fused"
    # The guard is scoped to the pipeline run: the env var is restored.
    assert PARALLEL_DISABLE_ENV not in os.environ
