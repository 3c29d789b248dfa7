"""Command-line interface for running reproduction experiments.

The CLI wraps the experiment harness so that the standard comparisons can be
run without writing Python::

    python -m repro run      --task kge --system nups --nodes 8 --epochs 2
    python -m repro compare  --task matrix_factorization --systems single-node lapse nups
    python -m repro skew     --task word_vectors
    python -m repro systems                     # list available systems
    python -m repro tasks                       # list available workloads
    python -m repro reproduce --fast            # full paper reproduction + claim report

All experiments run on the simulated cluster; times are simulated seconds.

``reproduce`` runs every benchmark in ``benchmarks/`` through the
reproduction pipeline (:mod:`repro.report`), evaluates the paper-claim
registry against the results, and writes ``REPRODUCTION.json`` and
``REPRODUCTION.md``. It exits non-zero when a benchmark fails, a claim
fails, or — with ``--check`` — a claim regresses against a committed
report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.skew import skew_report
from repro.analysis.speedup import (
    effective_speedup_from_results,
    raw_speedup_from_results,
)
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import ExperimentResult, run_experiment
from repro.runner.reporting import format_table, quality_over_time_table, summary_table
from repro.runner.systems import SYSTEM_NAMES, make_ps_factory
from repro.runner.workloads import NUPS_BENCH_OVERRIDES, TASK_FACTORIES, make_task
from repro.scenarios.presets import SCENARIO_NAMES, make_scenario
from repro.simulation.cluster import ClusterConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NuPS reproduction: run simulated parameter-server experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_experiment_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--task", choices=sorted(TASK_FACTORIES), default="kge",
                               help="workload to train (default: kge)")
        subparser.add_argument("--scale", choices=["test", "bench"], default="test",
                               help="workload size preset (default: test)")
        subparser.add_argument("--nodes", type=int, default=8,
                               help="number of simulated nodes (default: 8)")
        subparser.add_argument("--workers", type=int, default=8,
                               help="worker threads per node (default: 8)")
        subparser.add_argument("--epochs", type=int, default=2,
                               help="training epochs (default: 2)")
        subparser.add_argument("--seed", type=int, default=0)
        subparser.add_argument(
            "--scenario", choices=SCENARIO_NAMES, default=None,
            help="dynamic-workload scenario preset (drift, stragglers, "
                 "crash-storm, ...; default: static workload)")
        subparser.add_argument(
            "--storage-backend", choices=["dense", "sparse"], default=None,
            help="parameter-store storage backend (default: keep the "
                 "task's store as created, i.e. dense)")
        subparser.add_argument(
            "--trace", type=Path, default=None, metavar="PATH",
            help="record a telemetry trace and write it as JSONL to PATH "
                 "(render with `repro trace PATH`); `compare` inserts the "
                 "system name before the suffix")

    run_parser = subparsers.add_parser("run", help="train one task on one system")
    add_experiment_arguments(run_parser)
    run_parser.add_argument("--system", choices=SYSTEM_NAMES, default="nups")

    compare_parser = subparsers.add_parser(
        "compare", help="train one task on several systems and compare"
    )
    add_experiment_arguments(compare_parser)
    compare_parser.add_argument(
        "--systems", nargs="+", choices=SYSTEM_NAMES,
        default=["single-node", "classic", "lapse", "nups"],
    )

    skew_parser = subparsers.add_parser(
        "skew", help="print the access-skew profile of a workload (Figure 3)"
    )
    skew_parser.add_argument("--task", choices=sorted(TASK_FACTORIES), default="kge")
    skew_parser.add_argument("--scale", choices=["test", "bench"], default="test")

    subparsers.add_parser("systems", help="list available parameter-server systems")
    subparsers.add_parser("tasks", help="list available workloads")

    trace_parser = subparsers.add_parser(
        "trace", help="summarize a JSONL telemetry trace (from --trace)"
    )
    trace_parser.add_argument("file", type=Path,
                              help="JSONL trace written by run/compare --trace")
    trace_parser.add_argument(
        "--chrome", type=Path, default=None, metavar="OUT",
        help="also export Chrome trace-event JSON (open in Perfetto / "
             "chrome://tracing)")
    trace_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="span names to show in the by-simulated-time table (default: 10)")

    reproduce_parser = subparsers.add_parser(
        "reproduce",
        help="run the full paper reproduction and write REPRODUCTION.{json,md}",
    )
    reproduce_parser.add_argument(
        "--fast", action="store_true",
        help="smoke scale (REPRO_BENCH_FAST=1): fewer epochs and sweep points")
    reproduce_parser.add_argument(
        "--only", type=str, default=None, metavar="IDS",
        help="comma-separated benchmark ids to run, e.g. fig06,table2 "
             "(default: all; see --list)")
    reproduce_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="benchmark worker processes (default: REPRO_BENCH_PARALLEL "
             "or the CPU count)")
    reproduce_parser.add_argument(
        "--output-dir", type=Path, default=Path("."), metavar="DIR",
        help="where to write REPRODUCTION.json / REPRODUCTION.md "
             "(default: current directory)")
    reproduce_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-benchmark wall-clock limit; a benchmark over it is "
             "retried once, then reported as failed (default: "
             "REPRO_BENCH_TIMEOUT or unlimited)")
    reproduce_parser.add_argument(
        "--check", type=Path, default=None, metavar="JSON",
        help="also fail if any claim regresses against this committed "
             "REPRODUCTION.json")
    reproduce_parser.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="list the registered benchmarks and their claims, then exit")
    return parser


def _config(args: argparse.Namespace, system: str,
            trace: Optional[Path]) -> ExperimentConfig:
    """The experiment configuration of ``args`` for ``system``.

    Raises ``ValueError``/``TypeError`` naming the remedy when a flag is
    out of range (``--epochs 0``, ``--nodes 0``, ...).
    """
    num_nodes = 1 if system == "single-node" else args.nodes
    telemetry = None
    if trace is not None:
        from repro.obs import TelemetryConfig

        telemetry = TelemetryConfig(path=str(trace))
    storage = None
    if args.storage_backend is not None:
        from repro.ps.chunks import StorageConfig

        storage = StorageConfig(backend=args.storage_backend)
    return ExperimentConfig(
        cluster=ClusterConfig(num_nodes=num_nodes,
                              workers_per_node=args.workers),
        epochs=args.epochs, chunk_size=8, seed=args.seed,
        scenario=make_scenario(args.scenario) if args.scenario else None,
        storage=storage,
        telemetry=telemetry,
    )


def _config_error(args: argparse.Namespace, exc: Exception) -> int:
    """Report a bad flag the way argparse reports its own errors."""
    print(f"repro {args.command}: error: {exc}", file=sys.stderr)
    return 2


def _run_one(args: argparse.Namespace, system: str,
             config: ExperimentConfig) -> ExperimentResult:
    task = make_task(args.task, scale=args.scale)
    overrides = dict(NUPS_BENCH_OVERRIDES) if system.startswith(("nups", "relocation")) else {}
    return run_experiment(task, make_ps_factory(system, **overrides), config,
                          system_name=system)


def command_run(args: argparse.Namespace) -> int:
    try:
        config = _config(args, args.system, args.trace)
    except (ValueError, TypeError) as exc:
        return _config_error(args, exc)
    result = _run_one(args, args.system, config)
    print(quality_over_time_table([result]))
    print()
    print(summary_table([result]))
    if args.trace is not None:
        print(f"\nwrote trace to {args.trace} "
              f"(render with `repro trace {args.trace}`)", file=sys.stderr)
    return 0


def _system_trace_path(trace: Path, system: str) -> Path:
    """Per-system trace path for `compare`: run.jsonl -> run.nups.jsonl."""
    return trace.with_name(f"{trace.stem}.{system}{trace.suffix}")


def command_compare(args: argparse.Namespace) -> int:
    traces = [None if args.trace is None
              else _system_trace_path(args.trace, system)
              for system in args.systems]
    try:  # every configuration before any training starts
        configs = [_config(args, system, trace)
                   for system, trace in zip(args.systems, traces)]
    except (ValueError, TypeError) as exc:
        return _config_error(args, exc)
    results: List[ExperimentResult] = []
    for system, config in zip(args.systems, configs):
        print(f"running {args.task} on {system} ...", file=sys.stderr)
        results.append(_run_one(args, system, config))
    print(summary_table(results))
    if any(r.system == "single-node" for r in results) and len(results) > 1:
        print()
        rows = []
        raw = raw_speedup_from_results(results)
        effective = effective_speedup_from_results(results)
        for system in raw:
            rows.append([system, raw[system], effective.get(system)])
        print(format_table(["system", "raw speedup", "effective speedup"], rows))
    return 0


def command_skew(args: argparse.Namespace) -> int:
    task = make_task(args.task, scale=args.scale)
    report = skew_report(task)
    rows = [[key, value] for key, value in report.items()]
    print(format_table(["statistic", "value"], rows))
    return 0


def command_reproduce(args: argparse.Namespace) -> int:
    from repro.report.claims import claims_for, compare_verdicts
    from repro.report.pipeline import REGISTRY, run_pipeline
    from repro.report.render import write_reports

    if args.list_benchmarks:
        for spec in REGISTRY:
            print(f"{spec.id:12s} {spec.title}  "
                  f"[{len(claims_for(spec.id))} claims]")
        return 0

    only = ([part.strip() for part in args.only.split(",") if part.strip()]
            if args.only else None)

    committed = None
    if args.check is not None:
        # Read the committed report up front: a bad path must not surface
        # only after minutes of benchmark execution.
        try:
            committed = json.loads(Path(args.check).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read --check report {args.check}: {exc}",
                  file=sys.stderr)
            return 2

    def progress(entry) -> None:
        status = entry["status"] if entry["status"] == "ok" else "FAILED"
        print(f"  {entry['id']:12s} {status:7s} {entry['seconds']:8.1f}s",
              file=sys.stderr)

    mode = "fast" if args.fast else "full"
    print(f"reproducing ({mode} mode) ...", file=sys.stderr)
    try:
        payload = run_pipeline(only=only, fast=args.fast, jobs=args.jobs,
                               progress=progress, timeout=args.timeout)
    except ValueError as exc:  # unknown --only ids
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # no benchmarks/ next to the package
        print(f"error: {exc}", file=sys.stderr)
        print("`reproduce` needs the repository's benchmarks/ directory; "
              "run from a checkout (or an editable install).", file=sys.stderr)
        return 2

    args.output_dir.mkdir(parents=True, exist_ok=True)
    written = write_reports(payload,
                            args.output_dir / "REPRODUCTION.json",
                            args.output_dir / "REPRODUCTION.md")
    summary = payload["summary"]
    print(f"wrote {written['json']} and {written['md']}", file=sys.stderr)
    print(f"claims: {summary['claims_passed']}/{summary['claims_total']} "
          f"passed; benchmarks: {summary['benchmarks_ok']}/"
          f"{summary['benchmarks_total']} ok "
          f"({summary['seconds_total']:.1f}s)", file=sys.stderr)

    exit_code = 0
    if summary["claims_failed"] or summary["benchmarks_failed"]:
        exit_code = 1
    if committed is not None:
        regressions = compare_verdicts(committed, payload)
        if regressions:
            print("claim regressions against "
                  f"{args.check}:", file=sys.stderr)
            for regression in regressions:
                print(f"  - {regression}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"no claim regressions against {args.check}",
                  file=sys.stderr)
    return exit_code


def command_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, summarize, write_chrome_trace

    try:
        trace = load_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.file}: {exc}", file=sys.stderr)
        return 2
    print(summarize(trace, top=args.top))
    if args.chrome is not None:
        write_chrome_trace(trace, args.chrome)
        print(f"\nwrote Chrome trace-event JSON to {args.chrome} "
              "(load in https://ui.perfetto.dev or chrome://tracing)",
              file=sys.stderr)
    return 0


def command_systems(_: argparse.Namespace) -> int:
    for name in SYSTEM_NAMES:
        print(name)
    return 0


def command_tasks(_: argparse.Namespace) -> int:
    for name in sorted(TASK_FACTORIES):
        print(name)
    return 0


COMMANDS = {
    "run": command_run,
    "compare": command_compare,
    "skew": command_skew,
    "trace": command_trace,
    "systems": command_systems,
    "tasks": command_tasks,
    "reproduce": command_reproduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
