#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The load is a closed loop from one process and one thread: a *pass* runs
every cell of the workload once. ``--seconds`` buys a fixed number of passes
(``seconds`` over the workload's frozen reference pass time, at least three),
so every commit is measured over the same work. A timing is the sum over the
cells of each cell's fastest pass; the median and quartiles of the per-pass
sums go with it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path[:0] = [_ROOT, _SRC]

from perfbench import THREAD_PINS  # noqa: E402

for _name in THREAD_PINS:
    os.environ[_name] = "1"  # before NumPy is imported

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="test-scale tasks, one pass, one set-up probe")
    parser.add_argument("--out", default=None,
                        help="directory for the detailed result and the trace")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the workload's inputs, exit")
    return parser.parse_args(argv)


def time_setups(args: argparse.Namespace, count: int) -> list:
    """Wall seconds of ``count`` fresh interpreters doing only the set-up."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"perfbench: no program to measure: {_SRC}/repro is missing",
              file=sys.stderr)
        return 2

    from perfbench import measure
    from perfbench.spans import Recorder
    from perfbench.workloads import WORKLOADS, run_pass, warm_up

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    warm_up(workload, args.seed, args.smoke)
    if args.setup_only:
        return 0

    setups = []
    if args.trace == 0:
        setups = time_setups(args, 1 if args.smoke else SETUP_PROBES)

    count = workload.passes(args.seconds)
    if args.trace:
        count = max(2, count // 2)  # pairs of an untraced and a traced pass
    if args.smoke:
        count = 1
    untraced, traced, traces = [], [], []
    recorder, best, fastest_wall = None, 0, 0.0  # the fastest traced pass
    for _ in range(count):
        untraced.append(run_pass(workload, args.seed, args.smoke))
        if args.trace:
            candidate = Recorder()
            traced.append(run_pass(workload, args.seed, args.smoke, candidate))
            wall = sum(out.wall_s for out in traced[-1])
            traces.append(measure.trace_metrics(candidate, wall))
            if recorder is None or wall < fastest_wall:
                recorder, best, fastest_wall = candidate, len(traces) - 1, wall

    # Untraced passes first: pass 1 is the digest every other pass, traced
    # ones included, must reproduce (the recorder is a pure observer).
    failures = measure.verify(untraced + traced)
    attempted = (len(untraced) + len(traced)) * len(workload.cells)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "passes": len(untraced),
        "traced_passes": len(traced), "ops_attempted": attempted,
        "ops_failed": len(failures), "failures": failures,
    }
    correct = not failures
    if args.trace:
        values = measure.per_layer_metrics(untraced, traced, traces[best])
        units = measure.PER_LAYER_UNITS
        detail["predictions"] = measure.predictions(workload.name, values)
        detail["closure_ok"] = all(measure.closure_ok(trace["trace.closure"])
                                   for trace in traces)
        correct = correct and detail["closure_ok"]
    else:
        stats = measure.timing_stats(untraced)
        setup = measure.quartiles(setups)
        stats["setup_s"] = dict(setup, value=setup["median"])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats["peak_rss_mib"] = dict(measure.quartiles([rss]), value=rss)
        values = {name: stats[name]["value"]
                  for name in measure.END_TO_END_UNITS}
        units = measure.END_TO_END_UNITS
        detail["end_to_end"] = {name: stats[name] for name in units}
    detail["correct"] = correct
    detail["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{workload.name}.trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as out:
            json.dump(detail, out, indent=1)
        if recorder is not None:
            recorder.write_jsonl(
                os.path.join(args.out, f"trace_{workload.name}.jsonl"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
