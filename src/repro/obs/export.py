"""Trace exporters: JSONL event log, Chrome trace-event JSON, terminal summary.

Three consumers, three formats:

* :func:`write_jsonl` / :func:`load_jsonl` — the on-disk interchange format
  (one JSON record per line, header first). Schema pinned by the golden
  test in ``tests/test_obs.py``; version in ``header.schema``.
* :func:`to_chrome_trace` — the Chrome trace-event format (the JSON Array
  ``traceEvents`` flavor). Opens directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` with one process lane
  per node and one thread lane per worker; timestamps are **simulated**
  microseconds, so the lanes show where simulated time went — the quantity
  the paper's figures are about — not where the host's wall clock went.
* :func:`summarize` — a terminal rendering: top spans by simulated time,
  event counts, the per-kind traffic breakdown of the final metric
  counters, and the sampled memory/skew extremes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.tracer import SCHEMA_VERSION

PathLike = Union[str, Path]


# ---------------------------------------------------------------------- JSONL
def write_jsonl(trace: dict, path: PathLike) -> Path:
    """Write an in-memory trace (``Tracer.to_trace()``) as a JSONL log."""
    path = Path(path)
    header = {
        "type": "header",
        "schema": trace.get("schema", SCHEMA_VERSION),
        "meta": trace.get("meta", {}),
        "dropped": trace.get("dropped", 0),
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for family in ("spans", "events", "samples"):
            for record in trace.get(family, ()):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_jsonl(path: PathLike) -> dict:
    """Load a JSONL trace back into the in-memory shape."""
    trace = {"schema": None, "meta": {}, "spans": [], "events": [],
             "samples": [], "dropped": 0}
    families = {"span": trace["spans"], "event": trace["events"],
                "sample": trace["samples"]}
    with Path(path).open() as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON record: {exc}"
                ) from exc
            kind = record.get("type")
            if kind == "header":
                trace["schema"] = record.get("schema")
                trace["meta"] = record.get("meta", {})
                trace["dropped"] = record.get("dropped", 0)
            elif kind in families:
                families[kind].append(record)
            else:
                raise ValueError(
                    f"{path}:{line_number}: unknown record type {kind!r}"
                )
    if trace["schema"] is None:
        raise ValueError(f"{path}: missing header record (not a trace file?)")
    return trace


# --------------------------------------------------------- Chrome trace-event
def _lane(record: dict) -> tuple:
    """(pid, tid) of a record: coordinator is pid 0, node N is pid N+1."""
    node = record.get("node")
    worker = record.get("worker")
    if node is None:
        return 0, 0
    return int(node) + 1, 0 if worker is None else int(worker) + 1


def to_chrome_trace(trace: dict) -> dict:
    """Convert a trace to the Chrome trace-event JSON-object format.

    Spans become complete (``ph: "X"``) events, instant events become
    ``ph: "i"``, and samples become per-node counter tracks (``ph: "C"``)
    for queue depth and clock skew plus a global memory-residency track.
    Records without a simulated timestamp (wall-only events) are skipped:
    the timeline is simulated time.
    """
    out: List[dict] = []
    lanes = set()

    for span in trace.get("spans", ()):
        start = span.get("sim_start")
        end = span.get("sim_end")
        if start is None or end is None:
            continue
        pid, tid = _lane(span)
        lanes.add((pid, tid))
        args = dict(span.get("attrs", {}))
        args["wall_start"] = span.get("wall_start")
        out.append({
            "name": span["name"], "cat": span.get("cat", "span"),
            "ph": "X", "ts": start * 1e6,
            "dur": max(end - start, 0.0) * 1e6,
            "pid": pid, "tid": tid, "args": args,
        })

    for event in trace.get("events", ()):
        sim_time = event.get("sim_time")
        if sim_time is None:
            continue
        pid, tid = _lane(event)
        lanes.add((pid, tid))
        args = dict(event.get("attrs", {}))
        args["wall_time"] = event.get("wall_time")
        out.append({
            "name": event["name"], "cat": event.get("cat", "event"),
            "ph": "i", "s": "t" if event.get("node") is not None else "g",
            "ts": sim_time * 1e6, "pid": pid, "tid": tid, "args": args,
        })

    for sample in trace.get("samples", ()):
        ts = sample["sim_time"] * 1e6
        queues = sample.get("queues") or {}
        for node, depth in enumerate(queues.get("per_node", ())):
            lanes.add((node + 1, 0))
            out.append({"name": "queue depth", "ph": "C", "ts": ts,
                        "pid": node + 1, "tid": 0,
                        "args": {"pending": depth}})
        for node, skew in enumerate(sample.get("clock_skew", ())):
            lanes.add((node + 1, 0))
            out.append({"name": "clock skew", "ph": "C", "ts": ts,
                        "pid": node + 1, "tid": 0, "args": {"skew": skew}})
        nbytes = sample.get("state_nbytes") or {}
        if nbytes:
            lanes.add((0, 0))
            out.append({"name": "state nbytes", "ph": "C", "ts": ts,
                        "pid": 0, "tid": 0,
                        "args": {k: v for k, v in sorted(nbytes.items())}})

    meta: List[dict] = []
    for pid in sorted({pid for pid, _ in lanes}):
        name = "coordinator" if pid == 0 else f"node {pid - 1}"
        meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                     "args": {"name": name}})
    for pid, tid in sorted(lanes):
        name = "main" if tid == 0 else f"worker {tid - 1}"
        meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": name}})

    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated seconds (exported as microseconds)",
            **{k: str(v) for k, v in trace.get("meta", {}).items()
               if not isinstance(v, dict)},
        },
    }


def write_chrome_trace(trace: dict, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(trace)) + "\n")
    return path


# -------------------------------------------------------------------- summary
def _format_rows(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(str(headers[i])),
                  *(len(str(row[i])) for row in rows)) if rows
              else len(str(headers[i])) for i in range(len(headers))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return lines


def summarize(trace: dict, top: int = 10) -> str:
    """Render a terminal summary of a trace (``repro trace <file>``)."""
    meta = trace.get("meta", {})
    lines = []
    run = " ".join(f"{key}={meta[key]}" for key in
                   ("system", "task", "num_nodes", "workers_per_node",
                    "seed") if key in meta)
    lines.append(f"trace schema v{trace.get('schema')}  {run}".rstrip())
    lines.append(
        f"records: {len(trace.get('spans', []))} spans, "
        f"{len(trace.get('events', []))} events, "
        f"{len(trace.get('samples', []))} samples"
        + (f", {trace['dropped']} dropped" if trace.get("dropped") else "")
    )

    # Top spans by total simulated time, aggregated by span name.
    agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in trace.get("spans", ()):
        if span.get("sim_end") is None:
            continue
        entry = agg[span["name"]]
        entry[0] += 1
        entry[1] += span["sim_end"] - span["sim_start"]
    if agg:
        rows = [
            [name, count, f"{total:.6f}", f"{total / count:.6f}"]
            for name, (count, total) in sorted(
                agg.items(), key=lambda kv: -kv[1][1]
            )[:top]
        ]
        lines.append("")
        lines.append(f"top spans by simulated time (of {len(agg)} kinds):")
        lines.extend(_format_rows(
            ["span", "count", "sim total (s)", "sim mean (s)"], rows))

    # Event counts by category.name.
    counts: Dict[str, int] = defaultdict(int)
    for event in trace.get("events", ()):
        counts[f"{event.get('cat', '?')}.{event['name']}"] += 1
    if counts:
        lines.append("")
        lines.append("events:")
        lines.extend(_format_rows(
            ["event", "count"],
            [[name, n] for name, n in sorted(counts.items())]))

    # Traffic breakdown from the final metric counters (written into the
    # header by the runner when the experiment completes).
    metrics = meta.get("final_metrics") or {}
    access = {k: v for k, v in metrics.items()
              if k.startswith("access.") and k != "access.total"}
    total = metrics.get("access.total", 0.0)
    if access and total:
        rows = [[kind[len("access."):], f"{count:,.0f}",
                 f"{100.0 * count / total:.1f}%"]
                for kind, count in sorted(access.items(),
                                          key=lambda kv: -kv[1])]
        lines.append("")
        lines.append(f"traffic breakdown ({total:,.0f} accesses):")
        lines.extend(_format_rows(["kind", "count", "share"], rows))

    samples = trace.get("samples", ())
    if samples:
        last = samples[-1]
        peak_skew = max((max(s.get("clock_skew") or [0.0])
                         for s in samples), default=0.0)
        nbytes = sum((last.get("state_nbytes") or {}).values())
        lines.append("")
        lines.append(
            f"sampled series: final state {nbytes:,} bytes, "
            f"peak node clock skew {peak_skew:.6f}s"
        )
    return "\n".join(lines)
