"""Scale sweep: sparse chunked storage, keys x nodes x skew, vs dense.

Exercises the storage layer (:mod:`repro.ps.chunks`) end to end and produces
the machine-checked scale claims:

* **bit identity** — converting an experiment to the sparse chunked backend
  changes nothing observable: simulated clocks, metrics and model quality are
  bit-identical to the dense oracle for every PS architecture.
* **memory ceiling** — the sparse backend runs 10^8 logical keys on 8+ nodes
  with resident state bounded by a stated memory budget, while the dense
  layout for the same architecture would need several times the *entire*
  budget (and more bytes than the whole benchmark process ever used).

Results are written to ``BENCH_scale.json``. Run with::

    PYTHONPATH=src python benchmarks/bench_scale.py

Set ``REPRO_BENCH_FAST=1`` for a quicker smoke run (the 10^8-key headline
cell is kept even in fast mode — it is the point of the benchmark).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    FAST,
    _parallel_workers,
    print_header,
    run_system,
)

import numpy as np  # noqa: E402

from repro.core.management import ManagementPlan  # noqa: E402
from repro.ps.chunks import StorageConfig  # noqa: E402
from repro.ps.storage import ParameterStore  # noqa: E402
from repro.runner.reporting import format_table  # noqa: E402
from repro.runner.systems import build_parameter_server  # noqa: E402
from repro.simulation.cluster import Cluster, ClusterConfig  # noqa: E402


OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

# ------------------------------------------------------------- equivalence
#: Workload and systems of the dense-vs-sparse bit-identity comparison.
EQ_TASK = "kge"
EQ_NODES = 4 if FAST else 8
EQ_SYSTEMS = ("classic", "lapse", "essp", "nups")
EQ_STORAGE = StorageConfig(backend="sparse", chunk_rows=256)

# ------------------------------------------------------------- scale sweep
#: Logical key counts of the sweep. The largest cell stays at 10^8 even in
#: fast mode: the memory-ceiling claims quantify over it.
SCALE_KEYS = (10**6, 10**8) if FAST else (10**6, 10**7, 10**8)
SCALE_NODES = (8,) if FAST else (8, 16)
#: Zipf-like exponents of the per-node access distribution (0 = uniform).
SKEWS = (0.0, 1.0)
#: The sweep runs the paper's system; the headline cell runs every
#: architecture side by side.
SWEEP_SYSTEM = "nups"
HEADLINE_SYSTEMS = ("classic", "lapse", "essp", "nups")

VALUE_LENGTH = 8
SCALE_CHUNK_ROWS = 2048
SCALE_WORKERS_PER_NODE = 2
#: The stated memory budget of every scale cell: the store plus a per-node
#: allowance for replica state. Each key space refuses a write that would
#: take its charged chunks over its budget *during* the run; the cells
#: additionally record the resident bytes they ended at.
STORE_BUDGET_BYTES = 256 * 1024**2
NODE_BUDGET_BYTES = 64 * 1024**2

#: Per-node working-set size, accesses per batch, and rounds per worker.
#: Sized so that even the largest cell (16 nodes, 10^8 keys, every touched
#: key in its own chunk) stays well under the store budget.
WORKING_SET_PER_NODE = 64
BATCH = 128
ROUNDS = 4 if FAST else 8
ADVANCE_EVERY = 2
#: Keys each node contributes to the NuPS replication plan (the hot head).
HOT_KEYS_PER_NODE = 8

#: Bytes per key of each dense per-node structure (see storage.py and
#: replication.py/relocation.py): float32 values + int64 versions for the
#: store; mask + values + clock + update mask + update buffer per replica
#: node; owner + arrival time for relocation; int64 slot table for the
#: replica manager.
_DENSE_STORE_BPK = 4 * VALUE_LENGTH + 8
_DENSE_REPLICA_BPK = 1 + 4 * VALUE_LENGTH + 8 + 1 + 4 * VALUE_LENGTH
_DENSE_RELOCATION_BPK = 8 + 8
_DENSE_SLOT_TABLE_BPK = 8


def budget_total_bytes(num_nodes: int) -> int:
    """The stated budget of one cell: store plus per-node allowances."""
    return STORE_BUDGET_BYTES + num_nodes * NODE_BUDGET_BYTES


def dense_required_bytes(system: str, num_keys: int, num_nodes: int) -> int:
    """Bytes the dense layout of ``system`` would need at this cell."""
    total = num_keys * _DENSE_STORE_BPK
    if system in ("lapse", "nups"):
        total += num_keys * _DENSE_RELOCATION_BPK
    if system in ("ssp", "essp"):
        total += num_nodes * num_keys * _DENSE_REPLICA_BPK
    if system == "nups":
        total += num_keys * _DENSE_SLOT_TABLE_BPK
    return total


# --------------------------------------------------------------------------
# Part 1: dense == sparse, bit for bit, at benchmark scale.
# --------------------------------------------------------------------------

def _fingerprint(result) -> dict:
    """Everything observable about an experiment, exactly as produced."""
    return {
        "initial_quality": dict(result.initial_quality),
        "records": [
            {
                "epoch": record.epoch,
                "sim_time": record.sim_time,
                "epoch_duration": record.epoch_duration,
                "quality": dict(record.quality),
                "metrics": dict(record.metrics),
            }
            for record in result.records
        ],
        "metrics": dict(result.metrics),
    }


def _equivalence_job(system: str, backend: str) -> dict:
    started = time.perf_counter()
    result = run_system(EQ_TASK, system, num_nodes=EQ_NODES,
                        storage=EQ_STORAGE if backend == "sparse" else None)
    wall = time.perf_counter() - started
    # The comparison means something only if each side trained on the
    # backend it is named after.
    if result.storage_backend != backend:
        raise RuntimeError(
            f"the {backend} equivalence run of {system} trained on the "
            f"{result.storage_backend} backend"
        )
    return dict(_fingerprint(result), wall_seconds=wall,
                storage_backend=result.storage_backend)


def _compare_fingerprints(dense: dict, sparse: dict) -> dict:
    """Per-aspect equality flags (floats compared exactly: bit identity)."""
    clocks = all(
        d["sim_time"] == s["sim_time"]
        and d["epoch_duration"] == s["epoch_duration"]
        for d, s in zip(dense["records"], sparse["records"])
    ) and len(dense["records"]) == len(sparse["records"])
    quality = (
        dense["initial_quality"] == sparse["initial_quality"]
        and all(d["quality"] == s["quality"]
                for d, s in zip(dense["records"], sparse["records"]))
    )
    metrics = (
        dense["metrics"] == sparse["metrics"]
        and all(d["metrics"] == s["metrics"]
                for d, s in zip(dense["records"], sparse["records"]))
    )
    flags = {
        "clocks_identical": clocks,
        "quality_identical": quality,
        "metrics_identical": metrics,
    }
    flags["identical"] = all(flags.values())
    flags["epochs"] = len(dense["records"])
    flags["backends"] = [dense["storage_backend"], sparse["storage_backend"]]
    flags["dense_total_time"] = (
        dense["records"][-1]["sim_time"] if dense["records"] else None
    )
    # Host seconds of the identical run on either backend (one sample each,
    # taken while other jobs may share the machine: a record, not a claim).
    flags["dense_wall_seconds"] = dense["wall_seconds"]
    flags["sparse_wall_seconds"] = sparse["wall_seconds"]
    flags["sparse_over_dense_wall"] = (
        sparse["wall_seconds"] / dense["wall_seconds"]
    )
    return flags


# --------------------------------------------------------------------------
# Part 2: the keys x nodes x skew sweep on the sparse backend.
# --------------------------------------------------------------------------

def _status_bytes(field: str) -> int | None:
    """``VmRSS`` / ``VmHWM`` of this process in bytes (None off Linux)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return 1024 * int(line.split()[1])
    except OSError:
        pass
    return None


def _fresh_rss(*cell) -> dict:
    """``resident_bytes`` of the scale ``cell`` and ``peak_rss_bytes`` (its
    ``VmHWM``, interpreter and imports included) in a fresh interpreter that
    runs only that cell, so that no other cell's memory is counted."""
    import subprocess

    import repro

    code = ("import json, bench_scale as b; "
            f"cell = b._run_scale_cell{cell!r}; "
            "print(json.dumps({'resident_bytes': cell['resident_bytes'], "
            "'peak_rss_bytes': b._status_bytes('VmHWM')}))")
    path = [str(Path(__file__).resolve().parent),
            str(Path(repro.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    return json.loads(done.stdout.splitlines()[-1])


def _node_working_sets(rng: np.random.Generator, num_keys: int,
                       num_nodes: int) -> list:
    """Disjoint per-node key working sets drawn from the full key space."""
    draw = rng.integers(0, num_keys, size=num_nodes * WORKING_SET_PER_NODE * 2,
                        dtype=np.int64)
    working = np.unique(draw)
    return np.array_split(working, num_nodes)


def _access_probabilities(size: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** -skew
    return weights / weights.sum()


def _run_scale_cell(num_keys: int, num_nodes: int, skew: float,
                    system: str, seed: int) -> dict:
    gc.collect()  # the previous cell's state is not this cell's memory
    rss_before = _status_bytes("VmRSS")
    started = time.perf_counter()
    storage = StorageConfig(
        backend="sparse", chunk_rows=SCALE_CHUNK_ROWS,
        store_budget_bytes=STORE_BUDGET_BYTES,
        node_budget_bytes=NODE_BUDGET_BYTES,
    )
    store = ParameterStore(num_keys, VALUE_LENGTH, storage=storage)
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes,
                                    workers_per_node=SCALE_WORKERS_PER_NODE))
    rng = np.random.default_rng(seed)
    node_sets = _node_working_sets(rng, num_keys, num_nodes)
    node_probs = [_access_probabilities(len(keys), skew) for keys in node_sets]

    overrides = {}
    if system == "nups":
        hot = np.concatenate([keys[:HOT_KEYS_PER_NODE] for keys in node_sets])
        overrides["plan"] = ManagementPlan(num_keys, hot)
    ps = build_parameter_server(system, store, cluster, None, **overrides)

    # Each node localizes its working set once (relocation PSs re-home the
    # keys; the others treat it as the documented no-op).
    for node_id, keys in enumerate(node_sets):
        ps.localize(cluster.worker(node_id, 0), keys)

    accesses = 0
    delta = np.full((BATCH, VALUE_LENGTH), 0.01, dtype=np.float32)
    for round_index in range(ROUNDS):
        for node_id in range(num_nodes):
            for worker_id in range(SCALE_WORKERS_PER_NODE):
                worker = cluster.worker(node_id, worker_id)
                keys = rng.choice(node_sets[node_id], size=BATCH,
                                  p=node_probs[node_id])
                ps.pull(worker, keys)
                ps.push(worker, keys, delta)
                accesses += 2 * BATCH
        if (round_index + 1) % ADVANCE_EVERY == 0:
            for node_id in range(num_nodes):
                for worker_id in range(SCALE_WORKERS_PER_NODE):
                    ps.advance_clock(cluster.worker(node_id, worker_id))
    ps.finish_epoch()

    # Untouched regions must read as zero without materializing anything.
    probe = int(np.max([keys.max() for keys in node_sets])) + 1
    if probe >= num_keys:
        probe = 0
        while any(probe in keys for keys in node_sets):  # pragma: no cover
            probe += 1
    untouched_zero = not store.get(np.array([probe])).any()

    state = {name: int(size) for name, size in ps.state_nbytes().items()}
    total_nbytes = sum(state.values())
    rss_after = _status_bytes("VmRSS")
    budget = budget_total_bytes(num_nodes)
    dense_required = dense_required_bytes(system, num_keys, num_nodes)
    return {
        "num_keys": num_keys,
        "num_nodes": num_nodes,
        "skew": skew,
        "system": system,
        "completed": True,
        "untouched_reads_zero": untouched_zero,
        "accesses": accesses,
        "touched_keys": int(sum(len(keys) for keys in node_sets)),
        "materialized_chunks": int(store.materialized_chunks()),
        "store_nbytes": int(store.nbytes()),
        "state_nbytes": state,
        "total_nbytes": int(total_nbytes),
        "budget_total_bytes": int(budget),
        "under_budget": bool(
            store.nbytes() <= STORE_BUDGET_BYTES and total_nbytes <= budget
        ),
        "dense_required_bytes": int(dense_required),
        "dense_over_budget": dense_required / budget,
        "wall_seconds": time.perf_counter() - started,
        # RSS growth while the cell's state is alive: ``total_nbytes`` counts
        # whole materialized chunks, the process only the pages written (a
        # record: other cells of a worker process can blur it; the headline
        # cells are measured again alone).
        "resident_bytes": None if rss_before is None
        else rss_after - rss_before,
    }


def _cell_id(num_keys: int, num_nodes: int, skew: float, system: str) -> str:
    return f"{system}@{num_keys:.0e}x{num_nodes}n_s{skew:g}".replace("+", "")


def _run_job(kind: str, *args) -> dict:
    if kind == "equivalence":
        return _equivalence_job(*args)
    return _run_scale_cell(*args)


def _mib(num_bytes: float) -> str:
    return f"{num_bytes / 1024**2:.1f} MiB"


def _mib_or_na(num_bytes: float | None) -> str:
    return "n/a" if num_bytes is None else _mib(num_bytes)


def run() -> dict:
    """Run the scale sweep; returns the ``BENCH_scale.json`` payload."""
    print_header(
        f"Sparse storage at scale — sweep {[f'{k:.0e}' for k in SCALE_KEYS]} "
        f"keys x {list(SCALE_NODES)} nodes x skew {list(SKEWS)}, "
        f"equivalence on {EQ_TASK} at {EQ_NODES} nodes"
    )

    headline_keys = max(SCALE_KEYS)
    headline_nodes = SCALE_NODES[0]
    headline_skew = 1.0
    sweep_cells = [
        (num_keys, num_nodes, skew, SWEEP_SYSTEM)
        for num_keys in SCALE_KEYS
        for num_nodes in SCALE_NODES
        for skew in SKEWS
    ]
    headline_cells = [
        (headline_keys, headline_nodes, headline_skew, system)
        for system in HEADLINE_SYSTEMS
        if (headline_keys, headline_nodes, headline_skew, system)
        not in sweep_cells
    ]
    scale_jobs = [
        ("scale", num_keys, num_nodes, skew, system, 1 + index)
        for index, (num_keys, num_nodes, skew, system)
        in enumerate(sweep_cells + headline_cells)
    ]
    eq_jobs = [("equivalence", system, backend)
               for system in EQ_SYSTEMS for backend in ("dense", "sparse")]

    jobs = eq_jobs + scale_jobs
    workers = _parallel_workers(len(jobs))
    outcomes = None
    if workers > 1 and hasattr(os, "fork"):
        from common import TASK_FACTORIES
        TASK_FACTORIES[EQ_TASK]("bench")  # warm the dataset cache pre-fork
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (OSError, ValueError):
            pool = None
        if pool is not None:
            with pool:
                outcomes = pool.starmap(_run_job, jobs)
    if outcomes is None:
        outcomes = [_run_job(*job) for job in jobs]
    by_job = dict(zip(jobs, outcomes))

    # ------------------------------------------------- dense == sparse
    equivalence: dict = {}
    for system in EQ_SYSTEMS:
        dense = by_job[("equivalence", system, "dense")]
        sparse = by_job[("equivalence", system, "sparse")]
        equivalence[system] = _compare_fingerprints(dense, sparse)
    print_header(f"dense vs sparse on {EQ_TASK}: bit identity per architecture")
    print(format_table(
        ["system", "identical", "clocks", "quality", "metrics", "epochs",
         "dense (s)", "sparse (s)", "sparse/dense"],
        [[system, f["identical"], f["clocks_identical"],
          f["quality_identical"], f["metrics_identical"], f["epochs"],
          f"{f['dense_wall_seconds']:.1f}", f"{f['sparse_wall_seconds']:.1f}",
          f"{f['sparse_over_dense_wall']:.2f}x"]
         for system, f in equivalence.items()],
    ))
    for system, flags in equivalence.items():
        assert flags["identical"], \
            f"sparse backend diverged from the dense oracle on {system}"

    # ------------------------------------------------- the sweep table
    cells = {
        _cell_id(*job[1:5]): by_job[job] for job in scale_jobs
    }
    print_header("scale sweep: resident memory under the stated budget")
    print(format_table(
        ["cell", "keys", "nodes", "skew", "resident", "budget",
         "dense would need", "chunks", "wall (s)"],
        [[cell_id, f"{cell['num_keys']:.0e}", cell["num_nodes"],
          f"{cell['skew']:g}", _mib(cell["total_nbytes"]),
          _mib(cell["budget_total_bytes"]),
          _mib(cell["dense_required_bytes"]),
          cell["materialized_chunks"], f"{cell['wall_seconds']:.1f}"]
         for cell_id, cell in cells.items()],
    ))
    for cell_id, cell in cells.items():
        assert cell["completed"], f"scale cell {cell_id} did not complete"
        assert cell["under_budget"], f"scale cell {cell_id} exceeded its budget"
        assert cell["untouched_reads_zero"], \
            f"scale cell {cell_id}: untouched keys must read as zero"

    # ------------------------------------------------- headline numbers
    headline = {
        system: cells[_cell_id(headline_keys, headline_nodes,
                               headline_skew, system)]
        for system in HEADLINE_SYSTEMS
    }
    seeds = {job[1:5]: job[5] for job in scale_jobs}
    for system, cell in headline.items():
        key = (headline_keys, headline_nodes, headline_skew, system)
        cell.update(_fresh_rss(*key, seeds[key]))
    peak_rss_bytes = 1024 * max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    min_dense_required = min(cell["dense_required_bytes"]
                             for cell in headline.values())
    dense_to_budget = min(cell["dense_over_budget"]
                          for cell in headline.values())
    checks = {
        "equivalence_all_identical": {
            system: flags["identical"]
            for system, flags in equivalence.items()
        },
        "cells_completed": {cell_id: cell["completed"]
                            for cell_id, cell in cells.items()},
        "cells_under_budget": {cell_id: cell["under_budget"]
                               for cell_id, cell in cells.items()},
        "headline_keys": headline_keys,
        "headline_nodes": headline_nodes,
        "headline_under_budget": {system: cell["under_budget"]
                                  for system, cell in headline.items()},
        "dense_to_budget_ratio": dense_to_budget,
        "min_dense_required_bytes": int(min_dense_required),
        "peak_rss_bytes": int(peak_rss_bytes),
        "rss_below_dense_required": bool(peak_rss_bytes < min_dense_required),
    }
    print_header(
        f"headline: {headline_keys:.0e} keys on {headline_nodes} nodes"
    )
    print(format_table(
        ["system", "materialized", "store", "RSS growth", "peak RSS",
         "dense would need", "x budget"],
        [[system, _mib(cell["total_nbytes"]), _mib(cell["store_nbytes"]),
          _mib_or_na(cell["resident_bytes"]),
          _mib_or_na(cell["peak_rss_bytes"]),
          _mib(cell["dense_required_bytes"]),
          f"{cell['dense_over_budget']:.1f}x"]
         for system, cell in headline.items()],
    ))
    print(f"\npeak process RSS: {_mib(peak_rss_bytes)} "
          f"(dense would need at least {_mib(min_dense_required)})")
    assert checks["rss_below_dense_required"], (
        "the benchmark process peaked above the dense requirement — the "
        "memory-ceiling story does not hold on this machine"
    )

    return {
        "fast_mode": FAST,
        "value_length": VALUE_LENGTH,
        "chunk_rows": SCALE_CHUNK_ROWS,
        "workers_per_node": SCALE_WORKERS_PER_NODE,
        "budgets": {
            "store_budget_bytes": STORE_BUDGET_BYTES,
            "node_budget_bytes": NODE_BUDGET_BYTES,
        },
        "equivalence": {
            "task": EQ_TASK,
            "num_nodes": EQ_NODES,
            "systems": equivalence,
        },
        "cells": cells,
        "headline": {system: cell for system, cell in headline.items()},
        "checks": checks,
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
