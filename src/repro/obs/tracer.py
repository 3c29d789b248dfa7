"""Span-based tracing for the simulated cluster.

The tracer records three record families, each stamped with **both** clocks:

* **spans** — intervals with a simulated start/end (an epoch, one worker's
  scheduling round, a re-management transition). Spans nest: the tracer
  keeps a stack of open spans and links children to their parent, so the
  exported trace reconstructs the experiment → epoch → round hierarchy.
* **events** — instants (a replica sync, a checkpoint, a node crash, an
  adaptive decision, a perturbation firing). Events carry the simulated
  time of the subsystem that emitted them; wall-clock-only happenings
  record ``sim_time: null``.
* **samples** — periodic time-series snapshots taken by the
  :class:`~repro.obs.sampler.TelemetrySampler` (metric deltas, memory
  residency, clock skew, queue depths).

Telemetry is **off by default**: experiments run without a tracer unless
:class:`TelemetryConfig` is set on
:class:`~repro.runner.config.ExperimentConfig`, and every instrumentation
site guards with ``if tracer is not None`` (plus ``tracer.access_events``
on the per-access hot paths), so the off path is bit-identical to an
uninstrumented build — the house standard, enforced by the parametrized
determinism suite. The tracer itself never touches simulated state: it
only *reads* clocks and counters, so telemetry-on runs are bit-identical
too; what telemetry costs is wall-clock time, bounded by the ``obs.*``
claims of ``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Version of the JSONL trace schema (bumped on any record-shape change;
#: pinned by the golden-file test in ``tests/test_obs.py``).
SCHEMA_VERSION = 2

#: Hard cap on recorded spans+events+samples. Past the cap the tracer drops
#: new records (counting them in ``Tracer.dropped``) instead of growing
#: without bound — a runaway detail-level trace degrades, it never OOMs the
#: experiment.
MAX_RECORDS = 1_000_000


@dataclass
class TelemetryConfig:
    """Telemetry knobs of one experiment (``ExperimentConfig.telemetry``).

    Parameters
    ----------
    path:
        Optional file path; when set, the runner writes the JSONL event log
        there at the end of the experiment (see :mod:`repro.obs.export`).
        ``None`` keeps the trace in memory only
        (``ExperimentResult.trace``). The file's directory must exist when
        the config is built, so a bad path fails before any training.
    access_events:
        Record one event per PS ``pull``/``push``/``localize`` call
        (the *detail* level). Off by default: per-access events multiply
        the record count by orders of magnitude and are the one
        instrumentation level whose overhead is **not** covered by the
        default ≤5% ceiling (``bench_obs.py`` measures both levels).
    """

    path: Optional[str] = None
    access_events: bool = False

    def __post_init__(self) -> None:
        if self.path is not None:
            if not str(self.path):
                raise ValueError("path must be a non-empty string or None")
            directory = os.path.dirname(os.path.abspath(self.path))
            if not os.path.isdir(directory):
                raise ValueError(
                    f"trace path {self.path!r}: directory {directory!r} does "
                    "not exist; create it first or write the trace elsewhere"
                )


class Tracer:
    """Low-overhead recorder of spans, events and samples.

    All record methods are safe on the hot path: one list append and one
    ``perf_counter`` call each, no I/O (exporting happens once, at the end
    of the run). The tracer is attached to the cluster
    (``cluster.tracer``), where every subsystem finds it; ``None`` — the
    default — means telemetry is off.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        #: Pre-read flag for the per-access hot paths: architectures guard
        #: with ``tracer.access_events`` so the default level never pays
        #: per-access record costs.
        self.access_events = bool(self.config.access_events)
        self.spans: List[dict] = []
        self.events: List[dict] = []
        self.samples: List[dict] = []
        #: Records dropped after ``MAX_RECORDS`` was reached.
        self.dropped = 0
        #: Run metadata for the trace header (system, task, cluster shape,
        #: final metric counters); filled by the runner.
        self.meta: Dict[str, object] = {}
        self._count = 0
        self._next_span_id = 0
        self._open: List[dict] = []  # stack of open spans (parent linkage)
        self._wall_origin = time.perf_counter()

    # ------------------------------------------------------------------ clock
    def wall_now(self) -> float:
        """Wall-clock seconds since the tracer was created."""
        return time.perf_counter() - self._wall_origin

    # ------------------------------------------------------------------ spans
    def begin_span(self, name: str, category: str, sim_time: float,
                   node: Optional[int] = None, worker: Optional[int] = None,
                   **attrs) -> Optional[dict]:
        """Open a span at ``sim_time``; returns the span (or None if capped).

        The span nests under the innermost span still open. Close it with
        :meth:`end_span`; an experiment aborting mid-span leaves
        ``sim_end`` as ``None``, which the exporters render as "did not
        finish".
        """
        if self._count >= MAX_RECORDS:
            self.dropped += 1
            return None
        self._count += 1
        span = {
            "type": "span",
            "id": self._next_span_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "cat": category,
            "sim_start": sim_time,
            "sim_end": None,
            "wall_start": self.wall_now(),
            "wall_end": None,
            "node": node,
            "worker": worker,
        }
        if attrs:
            span["attrs"] = attrs
        self._next_span_id += 1
        self.spans.append(span)
        self._open.append(span)
        return span

    def end_span(self, span: Optional[dict], sim_time: float, **attrs) -> None:
        """Close ``span`` at ``sim_time`` (no-op when the span was capped)."""
        if span is None:
            return
        span["sim_end"] = sim_time
        span["wall_end"] = self.wall_now()
        if attrs:
            span.setdefault("attrs", {}).update(attrs)
        if self._open and self._open[-1] is span:
            self._open.pop()
        elif span in self._open:  # out-of-order close: drop through to it
            self._open.remove(span)

    def complete_span(self, name: str, category: str, sim_start: float,
                      sim_end: float, node: Optional[int] = None,
                      worker: Optional[int] = None, **attrs) -> None:
        """Record a span whose interval is already known (retrospective).

        Used for the per-worker round intervals: the runner reads each
        worker's clock before and after the round and records the interval
        in one call, without touching the open-span stack.
        """
        if self._count >= MAX_RECORDS:
            self.dropped += 1
            return
        self._count += 1
        wall = self.wall_now()
        span = {
            "type": "span",
            "id": self._next_span_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "cat": category,
            "sim_start": sim_start,
            "sim_end": sim_end,
            "wall_start": wall,
            "wall_end": wall,
            "node": node,
            "worker": worker,
        }
        if attrs:
            span["attrs"] = attrs
        self._next_span_id += 1
        self.spans.append(span)

    # ----------------------------------------------------------------- events
    def event(self, name: str, category: str, sim_time: Optional[float],
              node: Optional[int] = None, worker: Optional[int] = None,
              **attrs) -> None:
        """Record an instant event (``sim_time=None`` for wall-only events)."""
        if self._count >= MAX_RECORDS:
            self.dropped += 1
            return
        self._count += 1
        record = {
            "type": "event",
            "name": name,
            "cat": category,
            "sim_time": sim_time,
            "wall_time": self.wall_now(),
            "node": node,
            "worker": worker,
        }
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    # ---------------------------------------------------------------- samples
    def sample(self, sim_time: float, payload: Dict[str, object]) -> None:
        """Record one time-series sample (see ``TelemetrySampler``)."""
        if self._count >= MAX_RECORDS:
            self.dropped += 1
            return
        self._count += 1
        record = {
            "type": "sample",
            "sim_time": sim_time,
            "wall_time": self.wall_now(),
        }
        record.update(payload)
        self.samples.append(record)

    # ----------------------------------------------------------------- export
    def to_trace(self) -> dict:
        """The in-memory trace: header metadata plus all record lists."""
        return {
            "schema": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "spans": self.spans,
            "events": self.events,
            "samples": self.samples,
            "dropped": self.dropped,
        }
