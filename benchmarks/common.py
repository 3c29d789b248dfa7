"""Shared infrastructure for the benchmark harness.

Every benchmark file reproduces one table or figure of the paper's evaluation
(the file names carry the index: ``bench_fig06_*`` is Figure 6, and so on).
The benchmarks run scaled-down synthetic workloads on the simulated cluster
and print the same rows / series the paper reports; absolute numbers are
simulated seconds, but the *shape* — which system wins, by roughly what
factor, where crossovers happen — is what is being reproduced (see README.md,
"Benchmarks").

Each benchmark has two entry points:

* **pytest** (prints the tables, asserts the shape)::

      pytest benchmarks/ --benchmark-only

* **``run() -> dict``** — a structured, JSON-serializable result consumed
  by the one-command reproduction pipeline (``python -m repro reproduce``),
  which executes every benchmark through :mod:`repro.report.pipeline` and
  checks the paper-claim registry (:mod:`repro.report.claims`) against the
  returned dicts. ``run()`` performs the same computation the pytest path
  does (and prints the same tables), exactly once per case.

Set ``REPRO_BENCH_FAST=1`` to cut epochs/sweeps further for a quick smoke run.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.ps.chunks import StorageConfig
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import ExperimentResult, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import (
    NUPS_BENCH_OVERRIDES,
    kge_task,
    matrix_factorization_task,
    word_vectors_task,
)
from repro.simulation.cluster import ClusterConfig


#: Reduce epochs / sweep points when set (smoke-test mode).
FAST = bool(int(os.environ.get("REPRO_BENCH_FAST", "0")))

#: Nodes and workers of the paper's main setting.
DEFAULT_NODES = 8
WORKERS_PER_NODE = 8

#: Epochs per task for the end-to-end benchmarks.
EPOCHS = {"kge": 2 if FAST else 3,
          "word_vectors": 2 if FAST else 3,
          "matrix_factorization": 3 if FAST else 6}

#: The three workloads of Table 2 at benchmark scale.
TASK_FACTORIES: Dict[str, Callable] = {
    "kge": kge_task,
    "word_vectors": word_vectors_task,
    "matrix_factorization": matrix_factorization_task,
}

#: System-specific overrides (scaled-down NuPS settings, see workloads.py).
SYSTEM_OVERRIDES: Dict[str, Dict[str, object]] = {
    "nups": dict(NUPS_BENCH_OVERRIDES),
    "nups-tuned": dict(NUPS_BENCH_OVERRIDES),
    "nups-adaptive": dict(NUPS_BENCH_OVERRIDES),
    "relocation+replication": dict(NUPS_BENCH_OVERRIDES),
    "relocation+sampling": dict(NUPS_BENCH_OVERRIDES),
}


def experiment_config(num_nodes: int = DEFAULT_NODES, epochs: int = 3,
                      seed: int = 0,
                      storage: Optional[StorageConfig] = None
                      ) -> ExperimentConfig:
    """The standard experiment configuration used across benchmarks."""
    workers = WORKERS_PER_NODE
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=num_nodes, workers_per_node=workers),
        epochs=epochs,
        chunk_size=8,
        seed=seed,
        storage=storage,
    )


def run_system(task_name: str, system: str, num_nodes: int = DEFAULT_NODES,
               epochs: Optional[int] = None, seed: int = 0,
               task_kwargs: Optional[dict] = None,
               system_overrides: Optional[dict] = None,
               storage: Optional[StorageConfig] = None) -> ExperimentResult:
    """Run one (task, system) experiment at benchmark scale.

    ``storage`` selects the store's backend (``ExperimentConfig.storage``);
    ``system_overrides`` are the system builder's keyword parameters.
    """
    factory = TASK_FACTORIES[task_name]
    task = factory("bench", **(task_kwargs or {}))
    nodes = 1 if system == "single-node" else num_nodes
    overrides = dict(SYSTEM_OVERRIDES.get(system, {}))
    overrides.update(system_overrides or {})
    config = experiment_config(
        num_nodes=nodes, epochs=epochs or EPOCHS[task_name], seed=seed,
        storage=storage,
    )
    return run_experiment(
        task, make_ps_factory(system, **overrides), config, system_name=system
    )


def _parallel_workers(num_jobs: int) -> int:
    """Worker-process count for a sweep of ``num_jobs`` independent runs.

    Controlled by ``REPRO_BENCH_PARALLEL``: unset picks ``cpu_count`` workers
    automatically (sequential on single-core machines), ``0`` forces
    sequential execution, and any other integer forces that many workers.
    """
    setting = os.environ.get("REPRO_BENCH_PARALLEL", "")
    if setting:
        try:
            return max(1, min(int(setting), num_jobs))
        except ValueError:
            return 1
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, num_jobs))


def _run_system_job(task_name: str, system: str, kwargs: dict) -> ExperimentResult:
    return run_system(task_name, system, **kwargs)


def run_systems(task_name: str, systems: Sequence[str], **kwargs
                ) -> List[ExperimentResult]:
    """Run several systems on the same workload.

    The runs are independent, deterministic simulations, so on multi-core
    machines they execute in worker processes (fork) with results identical
    to sequential execution; see :func:`_parallel_workers` for the knob.
    """
    workers = _parallel_workers(len(systems))
    if workers > 1 and hasattr(os, "fork"):
        # Warm the dataset cache first so forked workers inherit it.
        TASK_FACTORIES[task_name]("bench", **(kwargs.get("task_kwargs") or {}))
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (OSError, ValueError):
            pool = None  # cannot fork here: fall back to sequential
        if pool is not None:
            # Real benchmark failures must propagate, not silently trigger
            # a sequential re-run — only pool *creation* is best-effort.
            with pool:
                return pool.starmap(
                    _run_system_job,
                    [(task_name, system, kwargs) for system in systems],
                )
    return [run_system(task_name, system, **kwargs) for system in systems]


def heuristic_key_count(task) -> int:
    """Number of keys the untuned hot-spot heuristic replicates for ``task``.

    At the paper's scale the heuristic (access count > 100x the mean) always
    selects a non-empty hot-spot set (900 keys for KGE, 3272 for WV, 755 for
    MF). At benchmark scale the MF matrix is so small that no column exceeds
    100x the mean; the replication-extent benchmarks then fall back to a
    small fixed hot-spot set (see the fallback below) so the sweep remains
    meaningful.
    """
    from repro.core.management import ManagementPlan

    counts = task.access_counts()
    heuristic = ManagementPlan.from_access_counts(counts).num_replicated
    if heuristic > 0:
        return heuristic
    return max(4, task.num_keys() // 150)


def trained(result: ExperimentResult) -> bool:
    """Whether an experiment improved model quality over the initialization."""
    initial = result.initial_quality[result.quality_metric]
    if result.higher_is_better:
        return bool(result.best_quality() > initial)
    return bool(result.best_quality() < initial)


def result_summary(result: ExperimentResult) -> dict:
    """JSON-serializable summary of one experiment (for ``run()`` payloads)."""
    return {
        "system": result.system,
        "task": result.task,
        "num_nodes": result.num_nodes,
        "epochs": result.epochs_completed,
        "mean_epoch_time": result.mean_epoch_time(),
        "total_time": result.total_time,
        "final_quality": result.final_quality(),
        "best_quality": result.best_quality(),
        "initial_quality": result.initial_quality.get(result.quality_metric),
        "trained": trained(result),
    }


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def run_once(benchmark, function: Callable[[], object]):
    """Run ``function`` exactly once under pytest-benchmark.

    The experiments are deterministic simulations; repeating them only to
    collect wall-clock statistics would multiply the harness run time for no
    informational gain.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)
