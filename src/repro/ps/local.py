"""Shared-memory single-node baseline.

The paper compares every distributed PS against a single node with 8 worker
threads that access the model through shared memory (Section 5.1). Here the
"single node" is a :class:`SingleNodePS` on a cluster configured with one
node: every access is a shared-memory access, there is no network cost, and
there is no staleness — workers always see the latest values.
"""

from __future__ import annotations

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import WorkerContext


class SingleNodePS(ParameterServer):
    """Shared-memory parameter access on a single node.

    Every call costs its key count times the shared-memory access cost,
    sampling included (the base class samples application-side).
    """

    name = "single-node"

    def __init__(self, store, cluster, seed: int = 0) -> None:
        super().__init__(store, cluster, seed)
        if cluster.num_nodes != 1:
            raise ValueError(
                "SingleNodePS requires a single-node cluster; got "
                f"{cluster.num_nodes} nodes"
            )


class _LocalPointCharger(ChunkValues):
    """Per-point charge replay on a single node: every access is local."""

    __slots__ = ("acc",)

    def __init__(self, ps: SingleNodePS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     calls) -> None:
        """Charge one worker's chunk: per call one shared-memory product of
        its key count (none for an empty call), then its compute charge.
        Also binds ``keys`` for the value pass
        (:class:`~repro.ps.rounds.ChunkValues`)."""
        self._bind(keys, calls)
        local_cost = self.ps._local_access_cost
        scale = worker.compute_scale
        now = worker.clock.now
        counts = [0, 0]  # pulled, pushed
        for kind, lo, hi, compute in calls:
            if hi > lo:
                now += (hi - lo) * local_cost
                counts[kind >> 1] += hi - lo
            if compute:
                now += compute * scale
        worker.clock.advance_to(now)
        self.acc.add_access("pull.local", counts[0])
        self.acc.add_access("push.local", counts[1])

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)


SingleNodePS._charger = _LocalPointCharger
