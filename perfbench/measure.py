"""Turn the outcomes of passes into the benchmark's named metrics.

The metric names and units here are the ones ``BENCHMARK.json`` lists; the
unit tests check that the two agree.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

from perfbench.spans import LAYERS, Recorder, self_times
from perfbench.workloads import CELL_IDS, MIB, CellOutcome

#: name -> unit, in the order they are printed.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "run_wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

SIM_UNITS: Dict[str, str] = {
    "sim.time_s": "s",
    "sim.quality_gain": "ratio",
    "sim.access_total": "count",
    "sim.local_share": "ratio",
    "sim.sample_accesses": "count",
    "sim.sample_local_share": "ratio",
    "sim.network_messages": "count",
    "sim.network_bytes": "bytes",
    "sim.relocations": "count",
    "sim.relocation_wait_share": "ratio",
    "sim.replica_syncs": "count",
    "sim.lost_points": "count",
    "sim.state_mib": "MiB",
    "sim.materialized_chunks": "count",
}

PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "phase.build_s": "s",
    "phase.train_s": "s",
    "phase.evaluate_s": "s",
    "phase.hooks_s": "s",
    "runner.rounds": "count",
    "runner.round_p50_ms": "ms",
    "runner.round_p99_ms": "ms",
    **{f"cell.{cell}.wall_s": "s" for cell in CELL_IDS},
    **SIM_UNITS,
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "trace.closure": "ratio",
}

# How a direct callee of the runner is booked to a phase, by method name.
_BUILD = frozenset({
    "create_store", "with_storage", "create_shards", "register_sampling",
    "bind", "install_adaptive", "__init__", "access_counts",
    "from_access_counts", "top_k_by_count", "relocate_all",
})
_TRAIN = frozenset({
    "process_round", "sequential_process_round", "prefetch_round",
    "housekeeping", "finish_epoch", "on_epoch_end",
})
_ROUND = frozenset({"process_round", "sequential_process_round"})
_HOOK_LAYERS = frozenset({"scenarios", "faults", "elastic", "adaptive"})


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a timing."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def fastest(passes: Sequence[Sequence[CellOutcome]], field: str) -> float:
    """Sum over the cells of each cell's fastest pass.

    The work of a cell is the same in every pass (its digest is checked), so
    whatever makes a pass slower is the host, not the program: on the noisy
    two-core reference box consecutive passes differ by 10-40 %, and the
    fastest pass per cell is the estimate that repeats between runs. The
    number of passes is fixed by the workload (``Workload.passes``), so the
    minimum is taken over as many draws on every commit.
    """
    return sum(min(getattr(outcomes[position], field) for outcomes in passes)
               for position in range(len(passes[0])))


def timing_stats(passes: Sequence[Sequence[CellOutcome]]) -> Dict[str, dict]:
    """``run_wall_s``, ``cpu_s`` and ``points_per_s`` of the untraced passes.

    ``value`` is the best-of-passes estimate (see :func:`fastest`);
    ``median``, ``q1``, ``q3`` and ``n`` describe the per-pass sums, the
    run-to-run spread that ``compare.py`` holds against the bound.
    """
    points = sum(out.points for out in passes[0])
    stats: Dict[str, dict] = {}
    for name, field in (("run_wall_s", "wall_s"), ("cpu_s", "cpu_s")):
        sums = [sum(getattr(out, field) for out in outcomes)
                for outcomes in passes]
        stats[name] = dict(quartiles(sums), value=fastest(passes, field))
    wall = stats["run_wall_s"]
    stats["points_per_s"] = {
        "value": points / wall["value"], "median": points / wall["median"],
        "q1": points / wall["q3"], "q3": points / wall["q1"], "n": wall["n"],
    }
    return stats


def verify(passes: Sequence[Sequence[CellOutcome]]) -> List[str]:
    """The reasons operations failed; one (cell, pass) is one operation.

    An operation fails if it raised or produced a wrong result (``error``),
    if its digest differs from the first pass's, or if cells that run the
    same task for the same epochs without a scenario disagree on
    ``access.total`` (every system must issue the same accesses).
    """
    failures: List[str] = []
    reference = {out.cell: out.digest for out in passes[0]}
    for index, outcomes in enumerate(passes):
        totals: Dict[tuple, float] = {}
        for out in outcomes:
            label = f"pass {index + 1} cell {out.cell}"
            if out.error is not None:
                failures.append(f"{label}: {out.error.strip().splitlines()[-1]}")
                continue
            if out.digest != reference[out.cell]:
                failures.append(f"{label}: sim_digest differs from pass 1")
                continue
            if out.access_group is not None:
                total = out.counters.get("access.total", 0.0)
                if totals.setdefault(out.access_group, total) != total:
                    failures.append(
                        f"{label}: access.total {total} differs from "
                        f"{totals[out.access_group]} of the same task")
    return failures


def _sum_matching(counters: Dict[str, float], prefixes: Sequence[str],
                  suffix: str = "") -> float:
    return sum(value for name, value in counters.items()
               if name.startswith(tuple(prefixes)) and name.endswith(suffix))


def sim_metrics(outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """The modelled systems' counters, summed over the cells (all exact)."""
    merged: Dict[str, float] = {}
    for out in outcomes:
        for name, value in out.counters.items():
            merged[name] = merged.get(name, 0.0) + value
    access = merged.get("access.total", 0.0)
    remote = _sum_matching(merged, ["access."], ".remote")
    sample_prefixes = ["access.sample.", "access.sample_push."]
    samples = _sum_matching(merged, sample_prefixes)
    sample_remote = _sum_matching(merged, sample_prefixes, ".remote")
    relocations = merged.get("relocation.count", 0.0)
    gains = [out.quality_gain for out in outcomes if out.quality_gain is not None]
    return {
        "sim.time_s": sum(out.sim_time_s for out in outcomes),
        "sim.quality_gain": statistics.mean(gains) if gains else 0.0,
        "sim.access_total": access,
        "sim.local_share": 1.0 - remote / access if access else 0.0,
        "sim.sample_accesses": samples,
        "sim.sample_local_share":
            1.0 - sample_remote / samples if samples else 0.0,
        "sim.network_messages": merged.get("network.messages", 0.0),
        "sim.network_bytes": merged.get("network.bytes", 0.0),
        "sim.relocations": relocations,
        "sim.relocation_wait_share":
            merged.get("relocation.waits", 0.0) / relocations
            if relocations else 0.0,
        "sim.replica_syncs": merged.get("replica.syncs", 0.0)
            + merged.get("replication.flushes", 0.0),
        "sim.lost_points": merged.get("faults.lost_points", 0.0),
        "sim.state_mib": sum(out.state_bytes for out in outcomes) / MIB,
        "sim.materialized_chunks":
            float(sum(out.materialized_chunks for out in outcomes)),
    }


def trace_metrics(recorder: Recorder, traced_wall_s: float) -> Dict[str, float]:
    """Layer self times and calls, phases and round times of one traced pass."""
    name_ids, parents, starts, ends = recorder.arrays()
    metrics: Dict[str, float] = {}
    self_s = self_times(parents, starts, ends)
    span_layer = recorder.span_layers(name_ids)
    totals = np.bincount(span_layer, weights=self_s, minlength=len(LAYERS))
    calls = np.bincount(span_layer, minlength=len(LAYERS))
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = float(totals[index])
        metrics[f"{layer}.calls"] = float(calls[index])

    # Phases: inclusive time of the runner's direct calls into other layers.
    layer_names = list(LAYERS)
    runner = layer_names.index("runner")
    methods = [name.rsplit(".", 1)[-1] for name in recorder.names]
    name_phase = np.zeros(len(recorder.names), dtype=np.int64)  # 0: none
    is_round = np.zeros(len(recorder.names), dtype=bool)
    for index, (method, layer) in enumerate(zip(methods, recorder.name_layers)):
        if method in _BUILD:
            name_phase[index] = 1
        elif method in _TRAIN:
            name_phase[index] = 2
        elif method == "evaluate":
            name_phase[index] = 3
        elif layer in _HOOK_LAYERS:
            name_phase[index] = 4
        is_round[index] = method in _ROUND
    from_runner = np.zeros(len(name_ids), dtype=bool)
    has_parent = parents >= 0
    from_runner[has_parent] = span_layer[parents[has_parent]] == runner
    durations = ends - starts
    phase = np.where(from_runner, name_phase[name_ids], 0)
    by_phase = np.bincount(phase, weights=durations, minlength=5)
    for index, name in enumerate(("build", "train", "evaluate", "hooks"), 1):
        metrics[f"phase.{name}_s"] = float(by_phase[index])
    rounds = durations[from_runner & is_round[name_ids]] * 1e3
    metrics["runner.rounds"] = float(len(rounds))
    metrics["runner.round_p50_ms"] = \
        float(np.percentile(rounds, 50)) if len(rounds) else 0.0
    metrics["runner.round_p99_ms"] = \
        float(np.percentile(rounds, 99)) if len(rounds) else 0.0
    metrics["trace.spans"] = float(len(name_ids))
    metrics["trace.closure"] = float(self_s.sum()) / traced_wall_s
    return metrics


def per_layer_metrics(untraced: Sequence[Sequence[CellOutcome]],
                      traced: Sequence[Sequence[CellOutcome]],
                      trace: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric.

    ``trace`` is :func:`trace_metrics` of one traced pass (the fastest), so
    the layers' self times belong together and add up to that pass's wall.
    """
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(trace)
    for position, out in enumerate(untraced[0]):
        metrics[f"cell.{out.cell}.wall_s"] = min(
            outcomes[position].wall_s for outcomes in untraced)
    metrics.update(sim_metrics(untraced[0]))
    metrics["trace.overhead_ratio"] = \
        fastest(traced, "wall_s") / fastest(untraced, "wall_s")
    return metrics


def predictions(workload: str, metrics: Dict[str, float]) -> List[dict]:
    """The zero-call predictions of the interaction table, checked.

    A violated prediction does not make the run incorrect; it says that the
    default path of a workload changed, which a reviewer should know.
    """
    expected_zero = ["parallel", "obs"]
    if workload != "dynamic_mix":
        expected_zero += ["adaptive", "scenarios", "faults", "elastic"]
    if workload in ("kge_sampling", "wv_sampling"):
        expected_zero.append("ps.replication")
    checks = [{
        "prediction": f"{layer}.calls == 0 on {workload}",
        "value": metrics[f"{layer}.calls"],
        "verdict": "ok" if metrics[f"{layer}.calls"] == 0 else "violated",
    } for layer in expected_zero]
    if workload in ("mf_dense", "dynamic_mix"):
        # NuPS builds its sampling manager and runs its (empty) housekeeping
        # every round, so the calls are not zero; the work must be.
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        share = metrics["core.sampling.self_s"] / total if total else 0.0
        checks.append({
            "prediction": f"no sampling on {workload}: sim.sample_accesses "
                          "== 0 and core.sampling below 1 % of layer time",
            "value": share,
            "verdict": "ok" if metrics["sim.sample_accesses"] == 0
            and share < 0.01 else "violated",
        })
    if workload == "sparse_store":
        largest = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
        checks.append({
            "prediction": "ps.storage is the largest layer on sparse_store",
            "value": largest,
            "verdict": "ok" if largest == "ps.storage" else "violated",
        })
    return checks


def closure_ok(value: float) -> bool:
    """Layer self times must add up to the traced wall time within 2 %.

    Self times telescope to the durations of the root spans, so this checks
    that the cells' time lies inside recorded spans (the entry points were
    wrapped and nothing ran outside them), not how time is split below.
    """
    return 0.98 <= value <= 1.02
