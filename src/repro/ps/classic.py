"""Classic parameter server (PS-Lite-like).

Parameters are allocated to servers statically (range partitioning) and never
replicated or relocated (Section 3.1.1). Servers are co-located with workers,
so accesses to the local partition go through shared memory while accesses to
any other partition pay the full two-message remote cost. There is exactly
one current copy of each value, so the classic PS provides per-key sequential
consistency.
"""

from __future__ import annotations

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import WorkerContext


class ClassicPS(ParameterServer):
    """Static allocation, no replication, no relocation.

    Sampling is application-side (the base class draws iid keys at
    ``prepare_sample`` and pulls them via direct access), so the point
    charger serves the sampling tasks too.
    """

    name = "classic"


class _ClassicPointCharger(ChunkValues):
    """The classic PS's access-charging fold.

    Per call: the keys of the home partition as one shared-memory product,
    then per serving node in ascending order one worker- and one
    server-advance of its key count; both sampling kinds are direct
    accesses here. Owners are looked up once per chunk, counters aggregate
    into one write per round.
    """

    __slots__ = ("acc",)

    def __init__(self, ps: ClassicPS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        """Look the owners up, bind ``keys`` for the value pass
        (:class:`~repro.ps.rounds.ChunkValues`) and charge the chunk."""
        owners = self.ps.partitioner.owners(keys).tolist()
        self._bind(keys, calls)
        self._charge(worker, keys, calls, owners)

    def _fold(self, worker: WorkerContext, keys: np.ndarray, calls,
              owners: list) -> None:
        """The chunk's calls, call by call (see the class)."""
        ps = self.ps
        node_id = worker.node_id
        local_cost = ps._local_access_cost
        remote_cost = ps._remote_access_cost
        occupancy = ps._server_occupancy
        scale = worker.compute_scale
        nodes = ps.cluster.nodes
        now = worker.clock.now
        local = [0, 0]  # pulled, pushed
        remote = [0, 0]
        spans: dict = {}  # a point's pull and push share a span's grouping
        for kind, lo, hi, compute in calls:
            grouped = spans.get((lo, hi))
            if grouped is None:
                n_local = 0
                groups: dict = {}
                for owner in owners[lo:hi]:
                    if owner == node_id:
                        n_local += 1
                    else:
                        groups[owner] = groups.get(owner, 0) + 1
                grouped = spans[lo, hi] = (
                    n_local, hi - lo - n_local,
                    sorted(groups.items()) if len(groups) > 1
                    else list(groups.items()))
            n_local, n_remote, groups = grouped
            if n_local:
                now += n_local * local_cost
                local[kind >> 1] += n_local
            if n_remote:
                remote[kind >> 1] += n_remote
                for server, count in groups:
                    now += count * remote_cost
                    nodes[server].server_clock.advance(count * occupancy)
            if compute:
                now += compute * scale
        worker.clock.advance_to(now)
        acc = self.acc
        acc.add_access("pull.local", local[0])
        acc.add_access("push.local", local[1])
        acc.add_access("pull.remote", remote[0])
        acc.add_access("push.remote", remote[1])
        remote_total = remote[0] + remote[1]
        if remote_total:
            acc.add_counter("network.messages", 2 * remote_total)
            acc.add_counter("network.bytes",
                            remote_total * ps._cached_value_bytes)

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)


ClassicPS._charger = _ClassicPointCharger
