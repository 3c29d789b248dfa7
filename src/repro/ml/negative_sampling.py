"""Helpers for requesting negative samples through the PS sampling API.

The KGE and WV tasks both follow the same pattern (Section 4.3): call
``prepare_sample`` once per chunk of data points (so the PS can do
preparatory work such as localizing the sampled keys) and then call
``pull_sample`` in small portions, one per data point. The
:class:`NegativeSampleStream` wraps that pattern.

:func:`replayed_sampling_round` is the production round path of both tasks:
per worker chunk, in worker order, one *charge replay* of all the chunk's
per-point calls through the PS's point charger, then one *value pass* that
runs the per-point arithmetic in the sequential order on live rows. It is
bit-identical to :func:`~repro.ml.task.sequential_process_round` because
neither charging nor sample selection reads parameter values, and values
never read clocks inside a round (replica synchronization runs in
``housekeeping``, between rounds).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.ml.task import RoundWorkItem, TrainingTask, sequential_process_round
from repro.ps.base import ParameterServer, PullResult, SampleHandle
from repro.simulation.cluster import WorkerContext


def replayed_sampling_round(task: TrainingTask, ps: ParameterServer,
                            items: Sequence[RoundWorkItem],
                            distribution_id: Optional[int],
                            process_chunk: Callable) -> None:
    """One round of a sampling task: per chunk, charge replay + value pass.

    The order of :func:`~repro.ml.task.sequential_process_round` is kept at
    chunk granularity — prefetch the next chunk, process the current one,
    advance the clock, one worker after the other — so every piece of
    order-dependent state (relocations, sampling pools and RNG streams,
    chained updates of shared rows) evolves exactly as in the sequential
    path. ``process_chunk(ps, charger, worker, chunk)`` is the task's
    two-pass chunk step. When the PS offers no sampling-aware charger (see
    :meth:`ParameterServer.direct_point_charger
    <repro.ps.base.ParameterServer.direct_point_charger>` for the
    conditions) the round runs through the sequential path unchanged.
    """
    charger = None
    if distribution_id is not None:
        charger = ps.direct_point_charger(distribution_id)
    if charger is None:
        sequential_process_round(task, ps, items)
        return
    for item in items:
        worker = item.worker
        if item.next_chunk is not None and len(item.next_chunk):
            task.prefetch(ps, worker, item.next_chunk)
        process_chunk(ps, charger, worker, item.chunk)
        ps.advance_clock(worker)
    charger.finish()


class NegativeSampleStream:
    """Pulls negative samples in portions from a prepared handle."""

    def __init__(self, ps: ParameterServer, worker: WorkerContext,
                 distribution_id: int, total_samples: int) -> None:
        if total_samples < 0:
            raise ValueError("total_samples must be non-negative")
        self.ps = ps
        self.worker = worker
        self.distribution_id = distribution_id
        self.total_samples = int(total_samples)
        self._handle: Optional[SampleHandle] = None
        if self.total_samples > 0:
            self._handle = ps.prepare_sample(worker, distribution_id, self.total_samples)
        self._delivered = 0

    @property
    def remaining(self) -> int:
        return self.total_samples - self._delivered

    def next(self, count: int) -> PullResult:
        """Pull the next ``count`` negative samples (keys and values)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0 or self._handle is None:
            empty = np.empty(0, dtype=np.int64)
            return PullResult(keys=empty, values=np.empty((0, self.ps.store.value_length),
                                                          dtype=np.float32))
        count = min(count, self.remaining)
        result = self.ps.pull_sample(self.worker, self._handle, count)
        self._delivered += len(result.keys)
        return result

    def drain(self) -> np.ndarray:
        """All remaining sample keys at once: uncharged, without values.

        For the charge-replay round path, which charges and reads the keys
        through the PS's point charger instead of ``pull_sample``. Only
        valid for handles whose keys were fixed by ``prepare_sample`` — the
        PS vouches for that by handing out a sampling-aware charger.
        """
        handle = self._handle
        if handle is None:
            return np.empty(0, dtype=np.int64)
        count = self.remaining
        keys = handle.take(count)
        handle.delivered += count
        self._delivered += count
        return keys

    def push_updates(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """Push updates for previously pulled sample keys."""
        if len(keys) == 0:
            return
        self.ps.push_sample(self.worker, keys, deltas)
