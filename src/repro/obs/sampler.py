"""Periodic time-series sampling of the live experiment.

The sampler turns the end-of-run aggregates the harness always had into a
per-run *time series*: every ``SAMPLE_EVERY_ROUNDS`` scheduling rounds (and
once, forced, at each epoch boundary) it snapshots

* **metric deltas** since the previous sample — every counter the interval
  touched, via the registry's dirty-set (:meth:`MetricsRegistry.drain_dirty`,
  peeked non-destructively so the runner's per-epoch dirty scope survives)
  joined with value deltas from :meth:`MetricsRegistry.diff`;
* **memory residency** — the parameter server's ``state_nbytes()`` breakdown
  (store, replica manager, sampling pools);
* **per-node clock skew** — each node's time minus the slowest node's time,
  the straggler/imbalance signal;
* **queue depths** — pending work per node from the epoch's worker queues,
  which is where churn redistribution and partition-deferred chunks show up.

Samples land in the tracer's ``samples`` list and export alongside spans and
events (JSONL, Chrome counter tracks).
"""

from __future__ import annotations

from typing import Optional

#: Scheduling-round period of the sampler.
SAMPLE_EVERY_ROUNDS = 8


class TelemetrySampler:
    """Snapshots cluster/PS state into the tracer on a round schedule."""

    def __init__(self, tracer, cluster, ps) -> None:
        self.tracer = tracer
        self.cluster = cluster
        self.ps = ps
        self._baseline = cluster.metrics.counters()

    def maybe_sample(self, round_index: int, epoch_state=None) -> None:
        """Sample when ``round_index`` hits the configured period."""
        if (round_index + 1) % SAMPLE_EVERY_ROUNDS == 0:
            self.take_sample(epoch_state)

    def take_sample(self, epoch_state=None) -> None:
        """Take one sample now (also called, forced, at epoch boundaries)."""
        registry = self.cluster.metrics
        # Peek the dirty set without consuming it: the runner drains at
        # epoch boundaries to attribute counter activity to epochs, and a
        # mid-epoch drain here would silently eat that attribution (and
        # change EpochRecord.metrics — a bit-identity violation).
        touched = registry.drain_dirty()
        registry.mark_dirty(touched)
        deltas = registry.diff(self._baseline)
        for name in touched:
            deltas.setdefault(name, 0.0)
        self._baseline = registry.counters()

        nodes = self.cluster.nodes
        times = [node.time for node in nodes]
        floor = min(times)
        skew = [round(t - floor, 9) for t in times]

        pending = None
        if epoch_state is not None:
            per_node = [0] * len(nodes)
            for (node_id, _worker_id), queue in epoch_state.queues.items():
                per_node[node_id] += len(queue)
            pending = {"total": sum(per_node), "per_node": per_node}

        self.tracer.sample(self.cluster.time, {
            "metrics_delta": deltas,
            "state_nbytes": {k: int(v)
                             for k, v in self.ps.state_nbytes().items()},
            "clock_skew": skew,
            "queues": pending,
        })


def make_sampler(tracer, cluster, ps) -> Optional[TelemetrySampler]:
    """A sampler for ``tracer``, or ``None`` when telemetry is off."""
    if tracer is None:
        return None
    return TelemetrySampler(tracer, cluster, ps)
