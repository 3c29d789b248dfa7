"""The common interface between workloads and the experiment runner.

A :class:`TrainingTask` owns a dataset and a model definition. It knows how
to lay the model out over the PS key space, how to shard its training data
over nodes and workers, how to train on a chunk of data points against a
charger of the parameter server (:meth:`TrainingTask.step_chunk`), and how to
evaluate model quality from the parameter store.

The experiment runner (:mod:`repro.runner.experiment`) interleaves chunk
processing across all workers of the simulated cluster and periodically runs
PS housekeeping, producing quality-over-time and quality-over-epoch curves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

import numpy as np

from repro.ps.base import ParameterServer
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


class RoundWorkItem:
    """One worker's share of a scheduling round.

    ``chunk`` holds the data indices to process now; ``next_chunk`` the
    indices the runner wants prefetched (localize-ahead) while the current
    chunk is being processed — ``None`` when the worker's queue is empty.
    """

    __slots__ = ("worker", "chunk", "next_chunk")

    def __init__(self, worker: WorkerContext, chunk: np.ndarray,
                 next_chunk) -> None:
        self.worker = worker
        self.chunk = chunk
        self.next_chunk = next_chunk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundWorkItem(worker=({self.worker.node_id},"
            f"{self.worker.worker_id}), chunk={len(self.chunk)})"
        )


class TrainingTask(ABC):
    """A distributed training workload driven through the PS API."""

    #: Short task identifier (used in reports).
    name = "abstract"
    #: Name of the primary quality metric returned by :meth:`evaluate`.
    quality_metric = "quality"
    #: Whether larger metric values are better (MRR, accuracy) or worse (RMSE).
    higher_is_better = True
    #: The id :meth:`register_sampling` got for the task's sampling
    #: distribution; ``None`` for tasks without sampling access.
    _distribution_id = None

    # ------------------------------------------------------------- model layout
    @abstractmethod
    def num_keys(self) -> int:
        """Number of parameter keys the task uses."""

    @abstractmethod
    def value_length(self) -> int:
        """Length of each parameter value (floats per key)."""

    @abstractmethod
    def create_store(self, seed: int = 0) -> ParameterStore:
        """Create and initialize the parameter store for this task."""

    @abstractmethod
    def access_counts(self) -> np.ndarray:
        """Expected per-key direct-access frequencies from dataset statistics.

        Used by NuPS's untuned heuristic to decide which keys to replicate
        (Section 5.1); no profiling run is needed.
        """

    def sampling_access_counts(self) -> np.ndarray:
        """Expected per-key *sampling*-access frequencies for one epoch.

        Zero for tasks without sampling access (e.g. matrix factorization).
        Used by the skew analysis that reproduces Figure 3.
        """
        return np.zeros(self.num_keys(), dtype=np.float64)

    def key_groups(self) -> List[tuple]:
        """Contiguous ``(start, stop)`` blocks of semantically uniform keys.

        Tasks lay several embedding matrices into one flat key space (e.g.
        entities then relations). The scenario engine's hot-set drift rotates
        the workload-to-key mapping *within* each block, so a rotated mapping
        never mixes key types and contiguous sampling-distribution supports
        stay contiguous. The default is a single block covering all keys.
        """
        return [(0, self.num_keys())]

    # ----------------------------------------------------------------- training
    @abstractmethod
    def num_data_points(self) -> int:
        """Number of training data points (one epoch processes each once)."""

    @abstractmethod
    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        """Partition the training data: ``shards[node][worker]`` -> data indices."""

    def register_sampling(self, ps: ParameterServer) -> None:
        """Register the task's sampling distributions with the PS (if any)."""

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        """Issue ``localize`` hints for the direct-access keys of a future chunk.

        The runner calls this one chunk ahead of processing, which gives
        relocation-capable PSs time to move the parameters before they are
        accessed — the "asynchronously relocates these parameters before they
        are accessed" pattern of Lapse and NuPS. The default is a no-op.
        """

    @abstractmethod
    def step_chunk(self, ps: ParameterServer, charger, worker: WorkerContext,
                   data_indices: np.ndarray) -> None:
        """Train on ``data_indices`` (a chunk of the worker's shard).

        The task's one training loop, written against a charger (see
        :mod:`repro.ps.rounds`): lay the chunk's keys out per point — direct
        keys, then the keys ``charger.take_samples`` returns for the
        chunk's sample handle — and hand them with their call list to
        ``charger.charge_chunk(worker, keys, calls)``; then, per point in
        order, ``charger.add(lo, hi, deltas)`` the deltas computed from
        ``charger.read(lo, hi)``. ``localize`` hints are issued ahead of
        time through :meth:`prefetch`.
        """

    def prepare_samples(self, ps: ParameterServer, worker: WorkerContext,
                        count: int):
        """``prepare_sample`` of a chunk's ``count`` samples from the task's
        distribution; ``None`` when the chunk needs none."""
        if self._distribution_id is None:
            raise RuntimeError("register_sampling must be called before training")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return None
        return ps.prepare_sample(worker, self._distribution_id, count)

    def prefetch_round(self, ps: ParameterServer,
                       pairs: Sequence[tuple]) -> None:
        """Issue the localize hints of one round for several workers.

        ``pairs`` is a sequence of ``(worker, data_indices)`` in worker
        order. The default delegates to :meth:`prefetch` per worker, which is
        exactly what the sequential driver does (hint issue order matters:
        relocations queue on per-node communication threads).
        """
        for worker, data_indices in pairs:
            self.prefetch(ps, worker, data_indices)

    def process_round(self, ps: ParameterServer,
                      items: Sequence[RoundWorkItem]) -> None:
        """Process one scheduling round across all active workers.

        :meth:`process_item` per worker in order, over the PS's fold
        charger (:meth:`~repro.ps.base.ParameterServer.direct_point_charger`),
        bit-identical to the calls issued one by one (see
        :mod:`repro.ps.rounds`). The runner's degraded rounds run
        :meth:`process_item` over the interposer's per-call charger.
        """
        charger = ps.direct_point_charger(self._distribution_id)
        for item in items:
            self.process_item(ps, charger, item)
        charger.finish()

    def process_item(self, ps: ParameterServer, charger,
                     item: RoundWorkItem) -> None:
        """One worker's share of a round over ``charger``: prefetch the
        next chunk, step the current one, advance the clock."""
        worker = item.worker
        if item.next_chunk is not None and len(item.next_chunk):
            self.prefetch(ps, worker, item.next_chunk)
        self.step_chunk(ps, charger, worker, item.chunk)
        ps.advance_clock(worker)

    def on_epoch_end(self, epoch: int) -> None:
        """Hook called after every epoch (e.g. for learning-rate schedules)."""

    # --------------------------------------------------------------- evaluation
    @abstractmethod
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Compute model quality metrics from the current parameter values."""

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def partition_round_robin(indices: np.ndarray, num_parts: int,
                              rng: np.random.Generator) -> List[np.ndarray]:
        """Randomly partition ``indices`` into ``num_parts`` balanced parts."""
        indices = np.asarray(indices)
        shuffled = indices[rng.permutation(len(indices))]
        return [shuffled[part::num_parts] for part in range(num_parts)]

    def describe(self) -> Dict[str, object]:
        """A short description of the workload (for reports and examples)."""
        return {
            "task": self.name,
            "num_keys": self.num_keys(),
            "value_length": self.value_length(),
            "num_data_points": self.num_data_points(),
            "quality_metric": self.quality_metric,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
