"""One-command reproduction pipeline over the ``benchmarks/`` scripts.

Every file in ``benchmarks/`` that reproduces a paper element exposes a
structured ``run() -> dict`` entry point next to its pytest/CLI face. This
module is the scheduler that executes them all as one evaluation run:

* **fork-worker parallelism** — benchmarks are independent, deterministic
  simulations, so on multi-core machines they run in forked worker
  processes (the same machinery the ``REPRO_BENCH_PARALLEL`` knob gives the
  in-benchmark system sweeps; inner sweeps are forced sequential while the
  pipeline itself is parallel, so cores are never oversubscribed);
* **fast/full modes** — ``fast=True`` exports ``REPRO_BENCH_FAST=1`` before
  the benchmark modules are imported, cutting epochs and sweep points
  exactly like the standalone scripts do;
* **per-benchmark timing and failure isolation** — a crashing benchmark is
  reported (status ``failed`` plus traceback) and its claims fail, but the
  remaining benchmarks still run and the report still renders;
* **shared cells** — a benchmark whose cells another one's include
  (:attr:`BenchmarkSpec.reads`) derives its result from that one's when
  both run, instead of running the same experiments twice.

After execution the paper-claim registry (:mod:`repro.report.claims`)
evaluates every registered claim against each benchmark's result dict; the
aggregate payload feeds :mod:`repro.report.render`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.report.claims import claims_for, evaluate_claims

__all__ = ["BenchmarkSpec", "REGISTRY", "run_pipeline", "to_jsonable"]

#: Repository layout: this file lives at src/repro/report/pipeline.py.
DEFAULT_BENCHMARKS_DIR = Path(__file__).resolve().parents[3] / "benchmarks"

PAPER = ("NuPS: A Parameter Server for Machine Learning with Non-Uniform "
         "Parameter Access (Renz-Wieland et al., SIGMOD 2022)")


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark script the pipeline knows how to execute."""

    id: str       #: short handle used by ``--only`` and the claim registry
    module: str   #: module name inside ``benchmarks/``
    title: str    #: human-readable paper element
    kind: str     #: ``figure`` | ``table`` | ``section`` | ``appendix``
    #: The id of a benchmark whose cells include all of this one's. When
    #: both run, this one's ``run(source_result)`` derives its result from
    #: the other's instead of running the cells again.
    reads: Optional[str] = None


#: Execution order: figures/tables first, engineering appendices last.
REGISTRY: List[BenchmarkSpec] = [
    BenchmarkSpec("fig01", "bench_fig01_headline",
                  "Figure 1: headline comparison on KGE", "figure",
                  reads="fig06"),
    BenchmarkSpec("fig03", "bench_fig03_skew",
                  "Figure 3: accesses per parameter (skew)", "figure"),
    BenchmarkSpec("fig06", "bench_fig06_end_to_end",
                  "Figure 6: end-to-end performance on the three workloads",
                  "figure"),
    BenchmarkSpec("fig07", "bench_fig07_ablation",
                  "Figure 7: ablation of NuPS's two features", "figure"),
    BenchmarkSpec("fig08", "bench_fig08_raw_scalability",
                  "Figure 8: raw scalability", "figure"),
    BenchmarkSpec("fig09", "bench_fig09_effective_scalability",
                  "Figure 9: effective scalability", "figure"),
    BenchmarkSpec("fig10", "bench_fig10_sampling_schemes",
                  "Figure 10: sampling schemes", "figure"),
    BenchmarkSpec("fig11", "bench_fig11_management_choice",
                  "Table 3 / Figure 11: choosing the management technique",
                  "figure"),
    BenchmarkSpec("fig12", "bench_fig12_staleness",
                  "Figure 12: replica staleness", "figure"),
    BenchmarkSpec("table1", "bench_table1_conformity",
                  "Table 1: conformity levels of the sampling schemes",
                  "table"),
    BenchmarkSpec("table2", "bench_table2_workloads",
                  "Table 2: evaluation workloads", "table"),
    BenchmarkSpec("sec58", "bench_sec58_task_specific",
                  "Section 5.8: comparison to task-specific implementations",
                  "section"),
    BenchmarkSpec("scenarios", "bench_scenarios",
                  "Appendix: dynamic-workload scenario sweep", "appendix"),
    BenchmarkSpec("faults", "bench_faults",
                  "Appendix: fault injection and recovery sweep", "appendix"),
    BenchmarkSpec("adaptive", "bench_adaptive",
                  "Appendix: adaptive parameter management under drift",
                  "appendix"),
    BenchmarkSpec("elastic", "bench_elastic",
                  "Appendix: elastic membership and partition tolerance",
                  "appendix"),
    BenchmarkSpec("scale", "bench_scale",
                  "Appendix: sparse chunked storage at scale", "appendix"),
    BenchmarkSpec("obs", "bench_obs",
                  "Appendix: telemetry overhead of the observability layer",
                  "appendix"),
]

_SPECS_BY_ID: Dict[str, BenchmarkSpec] = {spec.id: spec for spec in REGISTRY}
_REGISTRY_MODULES = tuple(spec.module for spec in REGISTRY)


def to_jsonable(value: object) -> object:
    """Recursively convert a ``run()`` result into JSON-serializable types.

    NumPy scalars and arrays, tuples, sets and non-string dict keys all
    appear naturally in benchmark results; ``REPRODUCTION.json`` needs
    plain Python containers.
    """
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if hasattr(value, "tolist"):  # numpy array
        return to_jsonable(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalar
        except Exception:  # pragma: no cover - exotic .item() signatures
            pass
    if isinstance(value, (str, bytes, bool, int, float)) or value is None:
        return value.decode("utf-8", "replace") if isinstance(value, bytes) else value
    return str(value)


def _worker_count(num_jobs: int, jobs: Optional[int]) -> int:
    """Pipeline worker-process count (mirrors ``benchmarks/common.py``)."""
    if jobs is not None:
        return max(1, min(int(jobs), num_jobs))
    setting = os.environ.get("REPRO_BENCH_PARALLEL", "")
    if setting:
        try:
            return max(1, min(int(setting), num_jobs))
        except ValueError:
            return 1
    return max(1, min(os.cpu_count() or 1, num_jobs))


def _execute_benchmark(args: Sequence[str],
                       source: Optional[Dict[str, object]] = None
                       ) -> Dict[str, object]:
    """Import one benchmark module and call its ``run()`` (worker side), or
    ``run(source["result"])`` given the entry of the benchmark it reads.

    Captures stdout, measures wall-clock time, and turns any exception —
    import-time or run-time — into a ``failed`` entry instead of letting it
    propagate, so one broken benchmark cannot take the pipeline down.
    """
    spec_id, module_name, benchmarks_dir = args
    if benchmarks_dir not in sys.path:
        sys.path.insert(0, benchmarks_dir)
    # Benchmark modules bake REPRO_BENCH_FAST into module-level constants at
    # import time; drop any cached copies so this run's mode applies.
    for name in _REGISTRY_MODULES + ("common",):
        sys.modules.pop(name, None)
    entry: Dict[str, object] = {"id": spec_id, "module": module_name,
                                "status": "ok", "error": None, "result": None}
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            module = importlib.import_module(module_name)
            if source is None:
                result = module.run()
            elif source["status"] != "ok":
                raise RuntimeError(
                    f"reads benchmark {source['id']}, which failed")
            else:
                result = module.run(source["result"])
        entry["result"] = to_jsonable(result)
    except Exception:
        entry["status"] = "failed"
        entry["error"] = traceback.format_exc()
    entry["seconds"] = round(time.perf_counter() - start, 3)
    entry["stdout"] = buffer.getvalue()
    return entry


def _select(only: Optional[Sequence[str]]) -> List[BenchmarkSpec]:
    if only is None:
        return list(REGISTRY)
    unknown = [bench_id for bench_id in only if bench_id not in _SPECS_BY_ID]
    if unknown:
        known = ", ".join(spec.id for spec in REGISTRY)
        raise ValueError(f"unknown benchmark id(s) {unknown}; known: {known}")
    return [spec for spec in REGISTRY if spec.id in set(only)]


def _warm_dataset_cache() -> None:
    """Generate the three bench-scale datasets once, pre-fork.

    Forked workers inherit the ``lru_cache``'d tasks, so every benchmark
    process reuses one set of cached datasets instead of regenerating them.
    """
    from repro.runner.workloads import TASK_FACTORIES

    for factory in TASK_FACTORIES.values():
        factory("bench")


def _timeout_entry(spec_id: str, module_name: str, timeout: float,
                   attempts: int, elapsed: float) -> Dict[str, object]:
    """The ``failed`` entry recorded for a benchmark that hit its deadline."""
    return {
        "id": spec_id,
        "module": module_name,
        "status": "failed",
        "error": (
            f"timed out: exceeded the per-benchmark wall-clock limit of "
            f"{timeout:g}s in each of {attempts} attempt(s)"
        ),
        "result": None,
        "seconds": round(elapsed, 3),
        "stdout": "",
        "attempts": attempts,
    }


def _run_pool(pool, job_args, timeout: Optional[float],
              progress) -> Dict[str, Dict[str, object]]:
    """Execute jobs on ``pool`` with per-job deadlines and one retry.

    Each job gets ``timeout`` wall-clock seconds per attempt; a job that
    exceeds it is resubmitted once, then recorded as failed-with-reason.
    The worker running a timed-out attempt may be stuck — it is reaped when
    the caller's ``with pool:`` block terminates the pool, so a hung
    benchmark cannot wedge the pipeline.
    """
    entries: Dict[str, Dict[str, object]] = {}
    pending = {}
    for args in job_args:
        deadline = None if timeout is None else time.monotonic() + timeout
        pending[args[0]] = {
            "handle": pool.apply_async(_execute_benchmark, (args,)),
            "deadline": deadline,
            "attempts": 1,
            "args": args,
            "first_submit": time.monotonic(),
        }
    while pending:
        for spec_id in list(pending):
            job = pending[spec_id]
            if job["handle"].ready():
                entry = job["handle"].get()
                entry["attempts"] = job["attempts"]
                entries[spec_id] = entry
                del pending[spec_id]
                if progress is not None:
                    progress(entry)
            elif job["deadline"] is not None \
                    and time.monotonic() > job["deadline"]:
                if job["attempts"] < 2:
                    job["attempts"] += 1
                    job["handle"] = pool.apply_async(
                        _execute_benchmark, (job["args"],)
                    )
                    job["deadline"] = time.monotonic() + timeout
                else:
                    entry = _timeout_entry(
                        spec_id, job["args"][1], timeout, job["attempts"],
                        time.monotonic() - job["first_submit"],
                    )
                    entries[spec_id] = entry
                    del pending[spec_id]
                    if progress is not None:
                        progress(entry)
        if pending:
            time.sleep(0.05)
    return entries


def run_pipeline(only: Optional[Sequence[str]] = None, fast: bool = False,
                 jobs: Optional[int] = None,
                 benchmarks_dir: Optional[Path] = None,
                 progress: Optional[Callable[[Dict[str, object]], None]] = None,
                 timeout: Optional[float] = None,
                 ) -> Dict[str, object]:
    """Run the selected benchmarks, evaluate all claims, return the payload.

    Parameters
    ----------
    only:
        Benchmark ids to run (default: the full registry).
    fast:
        Export ``REPRO_BENCH_FAST=1`` (smoke scale) instead of ``0``.
    jobs:
        Worker-process count; default follows ``REPRO_BENCH_PARALLEL`` /
        the CPU count, exactly like the in-benchmark sweeps.
    benchmarks_dir:
        Override the benchmarks directory (tests use this).
    progress:
        Optional callback invoked with each entry as it completes.
    timeout:
        Per-benchmark wall-clock limit in seconds (default: the
        ``REPRO_BENCH_TIMEOUT`` environment variable, unlimited if unset).
        A benchmark that exceeds it is retried once, then reported as
        failed-with-reason. Enforced preemptively on platforms with
        ``os.fork`` (the benchmark runs in a worker process that can be
        killed); without fork the limit cannot interrupt a running
        benchmark and is ignored.
    """
    specs = _select(only)
    directory = Path(benchmarks_dir or DEFAULT_BENCHMARKS_DIR)
    if not directory.is_dir():
        raise FileNotFoundError(f"benchmarks directory not found: {directory}")
    selected = {spec.id for spec in specs}
    derived = [spec for spec in specs if spec.reads in selected]
    job_args = [(spec.id, spec.module, str(directory)) for spec in specs
                if spec not in derived]
    workers = _worker_count(len(job_args), jobs)
    if timeout is None:
        setting = os.environ.get("REPRO_BENCH_TIMEOUT", "")
        if setting:
            try:
                timeout = float(setting)
            except ValueError:
                timeout = None
    if timeout is not None and timeout <= 0:
        timeout = None

    saved_env = {name: os.environ.get(name)
                 for name in ("REPRO_BENCH_FAST", "REPRO_BENCH_PARALLEL")}
    os.environ["REPRO_BENCH_FAST"] = "1" if fast else "0"
    start = time.perf_counter()
    try:
        entries_by_id: Dict[str, Dict[str, object]] = {}
        pool = None
        # A timeout needs a killable worker process even when workers == 1.
        if hasattr(os, "fork") and (workers > 1 or timeout is not None):
            # The pipeline takes the cores; in-benchmark sweeps go sequential.
            os.environ["REPRO_BENCH_PARALLEL"] = "0"
            _warm_dataset_cache()
            try:
                pool = multiprocessing.get_context("fork").Pool(workers)
            except (OSError, ValueError):
                pool = None
        if pool is not None:
            with pool:
                entries_by_id = _run_pool(pool, job_args, timeout, progress)
                if any(entry["status"] == "failed"
                       and str(entry.get("error", "")).startswith("timed out")
                       for entry in entries_by_id.values()):
                    # Workers stuck in timed-out benchmarks never return;
                    # terminate them instead of joining gracefully.
                    pool.terminate()
        else:
            for args in job_args:
                entry = _execute_benchmark(args)
                entry["attempts"] = 1
                entries_by_id[str(entry["id"])] = entry
                if progress is not None:
                    progress(entry)
        for spec in derived:
            entry = _execute_benchmark((spec.id, spec.module, str(directory)),
                                       entries_by_id[spec.reads])
            entry["attempts"] = 1
            entries_by_id[spec.id] = entry
            if progress is not None:
                progress(entry)
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    total_seconds = time.perf_counter() - start

    benchmarks: List[Dict[str, object]] = []
    claims_total = claims_passed = 0
    for spec in specs:
        entry = entries_by_id[spec.id]
        result = entry["result"] if entry["status"] == "ok" else None
        verdicts = evaluate_claims(spec.id, result)  # type: ignore[arg-type]
        claims_total += len(verdicts)
        claims_passed += sum(verdict.passed for verdict in verdicts)
        benchmarks.append({
            "id": spec.id,
            "module": spec.module,
            "title": spec.title,
            "kind": spec.kind,
            "status": entry["status"],
            "seconds": entry["seconds"],
            "attempts": entry.get("attempts", 1),
            "error": entry["error"],
            "claims": [verdict.to_dict() for verdict in verdicts],
            "result": result,
            "stdout": entry["stdout"],
        })

    failed = [b["id"] for b in benchmarks if b["status"] != "ok"]
    return {
        "paper": PAPER,
        "command": "python -m repro reproduce",
        "mode": "fast" if fast else "full",
        "jobs": workers,
        "benchmarks": benchmarks,
        "summary": {
            "benchmarks_total": len(benchmarks),
            "benchmarks_ok": len(benchmarks) - len(failed),
            "benchmarks_failed": sorted(failed),
            "claims_total": claims_total,
            "claims_passed": claims_passed,
            "claims_failed": claims_total - claims_passed,
            "seconds_total": round(total_seconds, 3),
        },
    }


def registered_but_unclaimed() -> List[str]:
    """Benchmarks in the registry with no registered claims (should be none)."""
    return [spec.id for spec in REGISTRY if not claims_for(spec.id)]
