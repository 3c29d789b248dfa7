"""Shared-memory single-node baseline.

The paper compares every distributed PS against a single node with 8 worker
threads that access the model through shared memory (Section 5.1). Here the
"single node" is a :class:`SingleNodePS` on a cluster configured with one
node: every access is a shared-memory access, there is no network cost, and
there is no staleness — workers always see the latest values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.rounds import ChunkValues, RoundAccounting
from repro.simulation.cluster import WorkerContext


class SingleNodePS(ParameterServer):
    """Shared-memory parameter access on a single node."""

    name = "single-node"

    def __init__(self, store, cluster, seed: int = 0) -> None:
        super().__init__(store, cluster, seed)
        if cluster.num_nodes != 1:
            raise ValueError(
                "SingleNodePS requires a single-node cluster; got "
                f"{cluster.num_nodes} nodes"
            )

    def pull(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        self._trace_access("pull", worker, keys)
        self._charge_local(worker, len(keys), "pull")
        return self.store.get(keys)

    def push(self, worker: WorkerContext, keys: Sequence[int] | np.ndarray,
             deltas: np.ndarray) -> None:
        keys, deltas = self._validate_push(keys, deltas)
        self._trace_access("push", worker, keys)
        self._charge_local(worker, len(keys), "push")
        self.store.add(keys, deltas)

    def direct_point_charger(self, distribution_id: int | None = None):
        """Per-point charge replay for the task-level round engine.

        Every call costs its key count times the shared-memory access cost,
        sampling included (the base class samples application-side); only an
        access-level tracer, which wants one event per call, keeps a task
        sequential.
        """
        if self._traces_accesses():
            return None
        return _LocalPointCharger(self)


class _LocalPointCharger(ChunkValues):
    """Per-point charge replay on a single node: every access is local."""

    __slots__ = ("acc",)

    def __init__(self, ps: SingleNodePS) -> None:
        self.ps = ps
        self.acc = RoundAccounting()

    def charge_chunk(self, worker: WorkerContext, keys: np.ndarray,
                     direct_widths: list, sample_widths: list,
                     compute_costs: list) -> None:
        """Charge one worker's chunk: per point, its calls + compute.

        ``keys`` holds, per point, its direct keys followed by its sample
        keys. Per point ``pull(direct)``, ``pull_sample``, ``push(direct)``,
        ``push_sample`` — one product each, as ``_charge_local`` does, none
        for an empty call (matrix factorization's sample segments) — then the
        scaled compute charge. Also binds ``keys`` for the value pass
        (:class:`~repro.ps.rounds.ChunkValues`).
        """
        self._bind(keys)
        local_cost = self.ps._local_access_cost
        scale = worker.compute_scale
        now = worker.clock.now
        for n_direct, n_sample, compute in zip(direct_widths, sample_widths,
                                               compute_costs):
            for count in (n_direct, n_sample, n_direct, n_sample):
                if count:
                    now += count * local_cost
            now += compute * scale
        worker.clock.advance_to(now)
        self.acc.add_access(worker.node_id, "pull.local", len(self.keys))
        self.acc.add_access(worker.node_id, "push.local", len(self.keys))

    def finish(self) -> None:
        """Write the round's aggregated counters."""
        self.acc.flush(self.ps, 0.0)
