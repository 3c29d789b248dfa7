"""Classic parameter server (PS-Lite-like).

Parameters are allocated to servers statically (range partitioning) and never
replicated or relocated (Section 3.1.1). Servers are co-located with workers,
so accesses to the local partition go through shared memory while accesses to
any other partition pay the full two-message remote cost. There is exactly
one current copy of each value, so the classic PS provides per-key sequential
consistency.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import WorkerContext


class ClassicPS(ParameterServer):
    """Static allocation, no replication, no relocation."""

    name = "classic"

    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        self._charge_partitioned(worker, keys, "pull")
        return self.store.get(keys)

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        self._charge_partitioned(worker, keys, "push")
        self.store.add(keys, deltas)

    def direct_point_charger(self, distribution_id: int | None = None):
        """Per-point charge replay for the task-level round engine.

        Sampling on a classic PS is application-side (the base class draws
        iid keys at ``prepare_sample`` and pulls them via direct access), so
        the same charger replays it; only an access-level tracer, which wants
        one event per call, keeps a task sequential.
        """
        if self._traces_accesses():
            return None
        return _ClassicPointCharger(self)

    # --------------------------------------------------------------- helpers
    def _charge_partitioned(self, worker: WorkerContext, keys: np.ndarray,
                            kind: str) -> None:
        """Charge local cost for home-partition keys, remote cost otherwise."""
        if len(keys) == 0:
            return
        node_id = worker.node_id
        n_local = 0
        counts: dict[int, int] = {}
        for owner in self.partitioner.owners(keys).tolist():
            if owner == node_id:
                n_local += 1
            else:
                counts[owner] = counts.get(owner, 0) + 1
        self._charge_local(worker, n_local, kind)
        if counts:
            # Clocks are charged per serving node, in server order (the
            # grouping ``_ClassicPointCharger`` replays); the additive
            # metrics are written once for the whole remote group.
            n_remote = 0
            for server in sorted(counts):
                count = counts[server]
                n_remote += count
                worker.clock.advance(count * self._remote_access_cost)
                self.cluster.node(server).server_clock.advance(
                    count * self._server_occupancy
                )
            self._record_remote_group(node_id, kind, n_remote)

    def _record_remote_group(self, node_id: int, kind: str,
                             n_remote: int) -> None:
        self.metrics.record_access(f"{kind}.remote", node_id, n_remote)
        self.metrics.increment("network.messages", 2 * n_remote, node=node_id)
        self.metrics.increment(
            "network.bytes", n_remote * self._cached_value_bytes, node=node_id,
        )


class _ClassicPointCharger(ChunkValues):
    """Exact per-point charge replay for a round of PS calls.

    Per data point the sequential task issues ``pull(direct)``,
    ``pull_sample``, ``push(direct)``, ``push_sample`` and a compute charge;
    on a classic PS both sampling calls are direct accesses, and matrix
    factorization's points have zero-width sample segments (no call). This
    charger replays that exact cost sequence — per call one local product,
    then per serving node in ascending order one worker- and one
    server-advance — from one owner lookup per chunk, with additive metric
    counters aggregated into one write per round.
    """

    __slots__ = ("acc",)

    def __init__(self, ps: ClassicPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     direct_widths: list, sample_widths: list,
                     compute_costs: list) -> None:
        """Charge one worker's chunk: per point, its calls + compute.

        ``keys`` holds, per point and in point order, the point's direct
        keys followed by its sample keys; the width lists give both counts
        per point. Also binds ``keys`` for the value pass (see
        :class:`~repro.ps.rounds.ChunkValues`).
        """
        ps = self.ps
        node_id = worker.node_id
        owners = ps.partitioner.owners(keys).tolist()
        self._bind(keys)
        local_cost = ps._local_access_cost
        remote_cost = ps._remote_access_cost
        occupancy = ps._server_occupancy
        scale = worker.compute_scale
        nodes = ps.cluster.nodes
        now = worker.clock.now
        local_side = 0
        position = 0
        for n_direct, n_sample, compute in zip(direct_widths, sample_widths,
                                               compute_costs):
            split = position + n_direct
            end = split + n_sample
            calls = []
            # An empty sample segment is no call.
            for lo, hi in ((position, split), (split, end)) if n_sample \
                    else ((position, split),):
                n_local = 0
                groups: dict = {}
                for owner in owners[lo:hi]:
                    if owner == node_id:
                        n_local += 1
                    else:
                        groups[owner] = groups.get(owner, 0) + 1
                local_side += n_local
                calls.append((n_local, sorted(groups.items())
                              if len(groups) > 1 else groups.items()))
            for n_local, groups in calls * 2:  # the pulls, then the pushes
                if n_local:
                    now += n_local * local_cost
                for server, count in groups:
                    now += count * remote_cost
                    nodes[server].server_clock.advance(count * occupancy)
            now += compute * scale
            position = end
        worker.clock.advance_to(now)
        self._add_side_counters(node_id, local_side, len(owners) - local_side)

    def _add_side_counters(self, node_id: int, local_side: int,
                           remote_side: int) -> None:
        """Counters of ``local_side`` + ``remote_side`` keys pulled and pushed."""
        acc = self.acc
        if local_side:
            acc.add_access(node_id, "pull.local", local_side)
            acc.add_access(node_id, "push.local", local_side)
        if remote_side:
            acc.add_access(node_id, "pull.remote", remote_side)
            acc.add_access(node_id, "push.remote", remote_side)
            acc.add_counter(node_id, "network.messages", 4 * remote_side)
            acc.add_counter(node_id, "network.bytes",
                            2 * remote_side * self.ps._cached_value_bytes)

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)
