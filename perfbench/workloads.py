"""The five workloads: fixed lists of cells, and how one cell is run.

Everything here goes through the program's stable public entry points and
looks functions up on their modules *at call time*, so that a traced pass
(see :mod:`perfbench.spans`) sees the wrapped versions.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.runner.experiment as experiment
import repro.runner.systems as systems
import repro.runner.workloads as tasks
import repro.scenarios.presets as presets
import repro.ps.storage as storage
import repro.simulation.cluster as simulation
from repro.ps.chunks import StorageConfig
from repro.runner.config import ExperimentConfig

from perfbench.spans import Tracing

NUM_NODES = 8
WORKERS_PER_NODE = 8
CHUNK_SIZE = 8
MIB = 1024.0 ** 2
MIN_PASSES = 3
#: Tasks whose quality need not improve for the operation to count as correct.
#: Filtered MRR of the KGE task is noise this early: it ended below the initial
#: model on 6 of 20 seeds on the classic PS (two epochs) and on 1 of 30 on NuPS
#: (one epoch) with nothing wrong. MF's RMSE and WV's accuracy improved on
#: every one of 40 seeds, by at least 8 % and 25 %.
NO_LEARNING_GATE = frozenset({"kge"})


def cpu_seconds() -> float:
    """Process CPU seconds so far, self plus waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class CellOutcome:
    """What one (cell, pass) produced; ``error`` is set when it failed."""

    cell: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    sim_time_s: float = 0.0
    points: float = 0.0
    quality_gain: Optional[float] = None  # None: the cell trains no model
    access_group: Optional[tuple] = None  # cells that must agree on access.total
    counters: Dict[str, float] = field(default_factory=dict)
    state_bytes: int = 0
    materialized_chunks: int = 0
    digest: str = ""
    error: Optional[str] = None


def _hash_state(sha, counters: Dict[str, float], store, keys: np.ndarray) -> None:
    """Feed the sorted counters and the stored values of ``keys`` to ``sha``."""
    for name in sorted(counters):
        sha.update(name.encode())
        sha.update(np.float64(counters[name]).tobytes())
    for lo in range(0, len(keys), 65536):
        sha.update(np.ascontiguousarray(store.get(keys[lo:lo + 65536])).tobytes())


@dataclass(frozen=True)
class ExperimentCell:
    """One ``run_experiment`` call: a task on a system, optionally perturbed."""

    id: str
    task: str
    system: str
    epochs: int
    scenario: Optional[str] = None
    storage: Optional[StorageConfig] = None

    def prepare(self, seed: int, smoke: bool) -> dict:
        """Fresh task and config (tasks carry learning-rate state across runs).

        The dataset is the preset's own (the one every other benchmark of
        the repository trains on); ``seed`` drives what a run generates from
        it: model initialization, sharding and the workers' random streams.
        Offsetting the dataset seeds as well moved ``access.total`` by up to
        5 % between seeds, so that runs measured different amounts of work.
        """
        task = tasks.make_task(self.task, "test" if smoke else "bench")
        overrides = dict(tasks.NUPS_BENCH_OVERRIDES) \
            if self.system.startswith("nups") else {}
        config = ExperimentConfig(
            cluster=simulation.ClusterConfig(num_nodes=NUM_NODES,
                                             workers_per_node=WORKERS_PER_NODE),
            epochs=self.epochs, chunk_size=CHUNK_SIZE, seed=seed,
            scenario=presets.make_scenario(self.scenario)
            if self.scenario else None,
            storage=self.storage,
        )
        return {"task": task, "config": config, "overrides": overrides}

    def run(self, state: dict) -> None:
        inner = systems.make_ps_factory(self.system, **state["overrides"])

        def factory(store, cluster, task):
            state["ps"] = inner(store, cluster, task)
            return state["ps"]

        state["result"] = experiment.run_experiment(
            state["task"], factory, state["config"], system_name=self.system)

    def outcome(self, state: dict, out: CellOutcome) -> None:
        result, task, ps = state["result"], state["task"], state["ps"]
        counters = result.metrics
        metric = result.quality_metric
        initial = float(result.initial_quality[metric])
        final = result.final_quality()
        gain = (final - initial) if result.higher_is_better else (initial - final)
        out.sim_time_s = float(result.total_time)
        out.points = result.epochs_completed * task.num_data_points() \
            - counters.get("faults.lost_points", 0.0)
        out.quality_gain = gain / max(abs(initial), abs(final))
        if self.scenario is None:
            out.access_group = (self.task, self.epochs)
        out.counters = dict(counters)
        out.state_bytes = int(sum(ps.state_nbytes().values()))
        if ps.store.backend == "sparse":
            out.materialized_chunks = int(ps.store.materialized_chunks())
        if self.task not in NO_LEARNING_GATE and not gain > 0:
            out.error = f"model did not improve: {metric} {initial} -> {final}"
        sha = hashlib.sha256()
        sha.update(np.asarray(result.times() + [initial] + result.qualities(),
                              dtype=np.float64).tobytes())
        _hash_state(sha, counters, ps.store,
                    np.arange(ps.store.num_keys, dtype=np.int64))
        out.digest = sha.hexdigest()


# The scale cell's frozen sizes: 10^8 logical keys on 8 nodes x 2 workers.
SCALE_SYSTEM = "essp"
SCALE_KEYS = 10 ** 8
SCALE_WORKERS_PER_NODE = 2
SCALE_VALUE_LENGTH = 8
SCALE_CHUNK_ROWS = 2048
SCALE_STORE_BUDGET = 256 * 1024 ** 2
SCALE_NODE_BUDGET = 64 * 1024 ** 2
SCALE_WORKING_SET = 64   # keys a node draws from, before deduplication
SCALE_BATCH = 128        # keys per pull and per push
SCALE_ROUNDS = 4
SCALE_ADVANCE_EVERY = 2  # rounds between clock advances


@dataclass(frozen=True)
class ScaleCell:
    """10^8 logical keys on the sparse backend, driven straight at the PS API.

    Every node pulls and pushes ``SCALE_BATCH`` keys per worker and round from
    its own small working set; the point is chunk lookup and materialization
    in a key space far too large for the dense layout.
    """

    id: str

    def prepare(self, seed: int, smoke: bool) -> dict:
        num_keys = 10 ** 6 if smoke else SCALE_KEYS
        rng = np.random.default_rng(seed)
        draw = rng.integers(0, num_keys, dtype=np.int64,
                            size=NUM_NODES * SCALE_WORKING_SET * 2)
        node_sets = np.array_split(np.unique(draw), NUM_NODES)
        batches = []
        for _ in range(SCALE_ROUNDS):
            for node_id, keys in enumerate(node_sets):
                ranks = np.arange(1, len(keys) + 1, dtype=np.float64)
                for worker_id in range(SCALE_WORKERS_PER_NODE):
                    batches.append((node_id, worker_id, rng.choice(
                        keys, size=SCALE_BATCH, p=(1 / ranks) / (1 / ranks).sum())))
        return {"num_keys": num_keys, "node_sets": node_sets, "batches": batches}

    def run(self, state: dict) -> None:
        config = StorageConfig(
            backend="sparse", chunk_rows=SCALE_CHUNK_ROWS,
            store_budget_bytes=SCALE_STORE_BUDGET,
            node_budget_bytes=SCALE_NODE_BUDGET,
        )
        store = storage.ParameterStore(state["num_keys"], SCALE_VALUE_LENGTH,
                                       storage=config)
        cluster = simulation.Cluster(simulation.ClusterConfig(
            num_nodes=NUM_NODES, workers_per_node=SCALE_WORKERS_PER_NODE))
        ps = systems.build_parameter_server(SCALE_SYSTEM, store, cluster, None)
        for node_id, keys in enumerate(state["node_sets"]):
            ps.localize(cluster.worker(node_id, 0), keys)
        delta = np.full((SCALE_BATCH, SCALE_VALUE_LENGTH), 0.01, dtype=np.float32)
        per_round = NUM_NODES * SCALE_WORKERS_PER_NODE
        for index, (node_id, worker_id, keys) in enumerate(state["batches"]):
            worker = cluster.worker(node_id, worker_id)
            ps.pull(worker, keys)
            ps.push(worker, keys, delta)
            done = (index + 1) // per_round
            if (index + 1) % per_round == 0 and done % SCALE_ADVANCE_EVERY == 0:
                for worker in cluster.workers():
                    ps.advance_clock(worker)
        ps.finish_epoch()
        state["ps"], state["cluster"] = ps, cluster

    def outcome(self, state: dict, out: CellOutcome) -> None:
        ps, cluster = state["ps"], state["cluster"]
        store = ps.store
        touched = np.concatenate(state["node_sets"])
        pushes = len(state["batches"]) * SCALE_BATCH
        out.sim_time_s = float(cluster.time)
        out.points = float(pushes)
        out.counters = dict(cluster.metrics.counters())
        out.state_bytes = int(sum(ps.state_nbytes().values()))
        out.materialized_chunks = int(store.materialized_chunks())
        # Every push adds 0.01 to each of SCALE_VALUE_LENGTH floats of a zero store.
        stored = float(store.get(touched).sum(dtype=np.float64))
        expected = 0.01 * SCALE_VALUE_LENGTH * pushes
        untouched = int(touched.max()) + 1
        if abs(stored - expected) > 1e-3 * expected:
            out.error = f"pushed mass lost: stored {stored}, pushed {expected}"
        elif untouched < store.num_keys and store.get(np.array([untouched])).any():
            out.error = f"untouched key {untouched} does not read as zero"
        elif store.nbytes() > SCALE_STORE_BUDGET:
            out.error = f"store over budget: {store.nbytes()} bytes"
        sha = hashlib.sha256()
        sha.update(np.float64(cluster.time).tobytes())
        _hash_state(sha, out.counters, store, touched)
        out.digest = sha.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Seconds one untraced pass took on the reference host when the sizes
    #: were frozen. It turns ``--seconds`` into a pass count that is the same
    #: for every commit: a best-of-N timing depends on N, so N must not grow
    #: when the code under test gets faster.
    pass_s: float
    cells: tuple

    def passes(self, seconds: float) -> int:
        """How many passes a run of ``seconds`` measures (at least three)."""
        return max(MIN_PASSES, round(seconds / self.pass_s))


_SPARSE = StorageConfig(backend="sparse", chunk_rows=256)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mf_dense",
        "matrix factorization, no sampling access: PS charging, clock folds, "
        "metrics and store scatter carry their largest share",
        3.0,
        tuple(ExperimentCell(system, "matrix_factorization", system, 3)
              for system in ("classic", "ssp", "lapse", "nups")),
    ),
    Workload(
        "kge_sampling",
        "ComplEx KGE, negative sampling dominates the access count and the "
        "round is the sequential fallback: per-triple math, scalar PS calls",
        2.3,
        tuple(ExperimentCell(system, "kge", system, 1)
              for system in ("classic", "nups")),
    ),
    Workload(
        "wv_sampling",
        "skip-gram word vectors, most accesses per data point in tiny "
        "batches: small-batch charging, clock, metrics, the other sampler",
        4.0,
        tuple(ExperimentCell(system, "word_vectors", system, 1)
              for system in ("classic", "nups")),
    ),
    Workload(
        "dynamic_mix",
        "matrix factorization through key remapping, the fault proxy, "
        "partition guards, the degraded round path and the adaptive controller",
        4.5,
        (
            ExperimentCell("drift", "matrix_factorization", "nups-adaptive", 3,
                           scenario="drift"),
            ExperimentCell("crash-storm", "matrix_factorization", "ssp", 3,
                           scenario="crash-storm"),
            ExperimentCell("autoscale-storm", "matrix_factorization", "lapse", 3,
                           scenario="autoscale-storm"),
            ExperimentCell("split-brain", "matrix_factorization", "nups", 3,
                           scenario="split-brain"),
        ),
    ),
    Workload(
        "sparse_store",
        "chunked sparse storage: chunk lookup and materialization instead of "
        "dense fancy-indexing, in 10^4 and in 10^8 logical keys",
        6.3,
        (
            ExperimentCell("kge-sparse", "kge", "nups", 1, storage=_SPARSE),
            ScaleCell("scale-essp"),
        ),
    ),
)}

#: Every cell id of every workload, in a fixed order (per-layer metric names).
CELL_IDS = tuple(dict.fromkeys(
    cell.id for workload in WORKLOADS.values() for cell in workload.cells))


def warm_up(workload: Workload, seed: int, smoke: bool) -> None:
    """Set-up: generate the datasets and build each task once."""
    for cell in workload.cells:
        cell.prepare(seed, smoke)


def run_pass(workload: Workload, seed: int, smoke: bool = False,
             recorder=None) -> List[CellOutcome]:
    """Run every cell of ``workload`` once; traced when ``recorder`` is given.

    Only the cells' ``run`` is timed and traced. Fresh tasks are built before
    and digests taken after, outside the wrappers, so a traced pass records
    exactly what an untraced pass times.
    """
    states = [cell.prepare(seed, smoke) for cell in workload.cells]
    outcomes = [CellOutcome(cell.id) for cell in workload.cells]
    with Tracing(recorder) if recorder is not None else nullcontext():
        for cell, state, out in zip(workload.cells, states, outcomes):
            gc.collect()  # the previous cell's garbage is not this cell's time
            if recorder is not None:
                recorder.begin_cell(cell.id)
            cpu0, start = cpu_seconds(), time.perf_counter()
            try:
                cell.run(state)
            except Exception:  # an operation that raises is a failed operation
                out.error = traceback.format_exc()
            out.wall_s = time.perf_counter() - start
            out.cpu_s = cpu_seconds() - cpu0
    for cell, state, out in zip(workload.cells, states, outcomes):
        if out.error is None:
            cell.outcome(state, out)
    return outcomes
