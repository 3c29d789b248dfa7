"""The whole benchmark in one command: ``python -m perfbench [--seed S]``.

Runs every workload twice through :mod:`perfbench.run`, each time in a fresh
subprocess (cold dataset caches, its own peak RSS): once untraced for the
end-to-end metrics and once traced for the per-layer metrics. Prints every
metric by name with its unit, the checked predictions and the failed
operations, and writes ``results.json`` and ``trace_<workload>.jsonl`` to the
output directory. Exits non-zero when an operation failed or a correctness
gate did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from perfbench import THREAD_PINS

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _CONTRACT = json.load(_handle)
WORKLOAD_NAMES = tuple(entry["name"] for entry in _CONTRACT["workloads"])


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_envelope(seed: int) -> dict:
    """Where and how the numbers were taken."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {name: "1" for name in THREAD_PINS},
        "seed": seed,
        "seconds_per_run": _CONTRACT["run_seconds"],
        "load_1m_start": os.getloadavg()[0],
    }


def run_one(workload: str, trace: int, args, out_dir: str) -> dict:
    command = [sys.executable, os.path.join(_HERE, "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(_CONTRACT["run_seconds"]),
               "--trace", str(trace), "--out", out_dir]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(out_dir, f"{workload}.trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        detail = json.load(handle)
    os.remove(path)  # folded into results.json
    return detail


def print_workload(name: str, result: dict) -> None:
    print(f"\n== {name}: {result['passes']} passes, "
          f"ops_attempted {result['ops_attempted']}, "
          f"ops_failed {result['ops_failed']}")
    for metric, stats in result["end_to_end"].items():
        spread = "".join(f"  {key} {stats[key]:.6g}"
                         for key in ("median", "q1", "q3") if key in stats)
        print(f"  {metric:28s} {stats['value']:14.6g} {stats['unit']:6s}"
              f"{spread}  n {stats['n']}")
    for metric, entry in result["per_layer"].items():
        print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    for check in result["predictions"]:
        print(f"  [{check['verdict']:8s}] {check['prediction']} "
              f"(measured {check['value']})")
    closure = "ok" if result["closure_ok"] else "violated"
    print(f"  [{closure:8s}] trace.closure within [0.98, 1.02]")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--smoke", action="store_true",
                        help="test-scale tasks and one pass: a check of the "
                             "benchmark itself, not a measurement")
    parser.add_argument("--out", default=os.path.join(_HERE, "out"))
    args = parser.parse_args(argv)

    started = time.perf_counter()
    host = host_envelope(args.seed)
    workloads = {}
    for name in args.workload or WORKLOAD_NAMES:
        untraced = run_one(name, 0, args, args.out)
        traced = run_one(name, 1, args, args.out)
        end_to_end = {
            metric: dict(stats, unit=untraced["metrics"][metric]["unit"])
            for metric, stats in untraced["end_to_end"].items()
        }
        workloads[name] = {
            "passes": untraced["passes"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "ops_attempted": untraced["ops_attempted"] + traced["ops_attempted"],
            "ops_failed": untraced["ops_failed"] + traced["ops_failed"],
            "failures": untraced["failures"] + traced["failures"],
            "predictions": traced["predictions"],
            "closure_ok": traced["closure_ok"],
            "correct": untraced["correct"] and traced["correct"],
        }
        print_workload(name, workloads[name])

    host["load_1m_end"] = os.getloadavg()[0]
    host["elapsed_s"] = time.perf_counter() - started
    # One core is this benchmark's own; more runnable work than the rest of
    # the machine can take is a busy host, which is flagged but not an error.
    cores = host["nproc"] or 1
    host["load_flag"] = host["load_1m_start"] > cores - 1 \
        or host["load_1m_end"] > cores
    if host["load_flag"]:
        print(f"\nWARNING: 1-minute load average was {host['load_1m_start']:.2f} "
              f"at the start and {host['load_1m_end']:.2f} at the end on "
              f"{cores} cores; timings may be inflated")
    results = {"host": host, "smoke": args.smoke, "workloads": workloads}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nwrote {path} in {host['elapsed_s']:.0f} s")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
