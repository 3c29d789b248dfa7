"""The training driver: interleaved simulated-parallel execution.

``run_experiment`` trains one task on one parameter server over the simulated
cluster. Per scheduling round, every worker processes one chunk of its local
data shard; PS housekeeping (replica synchronization, sampling-pool
maintenance) runs between rounds. Per-worker simulated clocks advance as the
PS charges access costs and the task charges compute costs, so the epoch's
simulated run time is the time of the slowest worker — exactly how wall-clock
epoch time behaves on a real cluster.

After every epoch the model is evaluated from the (synchronized) parameter
store, which produces the quality-over-time and quality-over-epoch series the
paper's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ml.task import RoundWorkItem, TrainingTask
from repro.ps.base import ParameterServer
from repro.runner.config import ExperimentConfig
from repro.simulation.cluster import Cluster

PSFactory = Callable[..., ParameterServer]


@dataclass
class EpochRecord:
    """Quality, timing and activity of one training epoch."""

    epoch: int
    sim_time: float
    epoch_duration: float
    quality: Dict[str, float]
    #: Per-epoch *deltas* of the cluster's metric counters (what happened
    #: during this epoch, not cumulatively), snapshot via the registry's
    #: dirty-set: a counter the epoch touched is included even when its net
    #: delta is zero. Benchmarks use these to trace how e.g. the
    #: localization rate reacts to mid-run perturbations.
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """The outcome of one experiment: per-epoch records plus PS counters."""

    system: str
    task: str
    num_nodes: int
    workers_per_node: int
    initial_quality: Dict[str, float]
    records: List[EpochRecord] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    quality_metric: str = "quality"
    higher_is_better: bool = True
    #: Storage backend of the store the PS trained on (``"dense"`` or
    #: ``"sparse"``).
    storage_backend: str = "dense"
    #: In-memory telemetry trace (``Tracer.to_trace()``), set only when the
    #: experiment ran with ``config.telemetry``; ``None`` otherwise.
    trace: Optional[dict] = None

    # --------------------------------------------------------------- accessors
    @property
    def epochs_completed(self) -> int:
        return len(self.records)

    @property
    def total_time(self) -> float:
        return self.records[-1].sim_time if self.records else 0.0

    def qualities(self, metric: Optional[str] = None) -> List[float]:
        metric = metric or self.quality_metric
        return [record.quality[metric] for record in self.records]

    def times(self) -> List[float]:
        return [record.sim_time for record in self.records]

    def final_quality(self, metric: Optional[str] = None) -> float:
        metric = metric or self.quality_metric
        if not self.records:
            return float(self.initial_quality.get(metric, float("nan")))
        return float(self.records[-1].quality[metric])

    def best_quality(self, metric: Optional[str] = None) -> float:
        metric = metric or self.quality_metric
        values = self.qualities(metric)
        if not values:
            return float(self.initial_quality.get(metric, float("nan")))
        return max(values) if self.higher_is_better else min(values)

    def mean_epoch_time(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([record.epoch_duration for record in self.records]))

    def time_to_quality(self, threshold: float) -> Optional[float]:
        """Simulated time of the first epoch at which quality reaches ``threshold``.

        Returns ``None`` when the threshold is never reached (the paper then
        reports the variant as not reaching the 90% mark within the budget).
        """
        for record in self.records:
            value = record.quality[self.quality_metric]
            reached = value >= threshold if self.higher_is_better else value <= threshold
            if reached:
                return record.sim_time
        return None

    def describe(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "task": self.task,
            "nodes": self.num_nodes,
            "epochs": self.epochs_completed,
            "final_quality": self.final_quality(),
            "mean_epoch_time": self.mean_epoch_time(),
        }


def run_experiment(
    task: TrainingTask,
    ps_factory: PSFactory,
    config: Optional[ExperimentConfig] = None,
    system_name: Optional[str] = None,
) -> ExperimentResult:
    """Train ``task`` on the PS built by ``ps_factory`` and record quality.

    ``ps_factory`` is called as ``ps_factory(store, cluster, task)`` and must
    return a :class:`~repro.ps.base.ParameterServer` operating on that store
    and cluster (see :mod:`repro.runner.systems` for the standard factories).
    """
    config = config or ExperimentConfig()
    cluster = Cluster(config.cluster)
    tracer = None
    if config.telemetry is not None:
        # Install the tracer before the PS is built: architectures cache
        # the reference in __init__, and every subsystem reads it from the
        # cluster. With telemetry off, cluster.tracer stays None and no
        # instrumentation site records anything.
        from repro.obs import Tracer

        tracer = Tracer(config.telemetry)
        cluster.tracer = tracer
    store = task.create_store(seed=config.seed)
    if config.storage is not None:
        # Convert the task's store to the configured backend before the PS
        # sees it (PSs derive their own state layout from store.storage).
        # The conversion copies values/versions block-wise, so dense and
        # sparse runs start from bit-identical state.
        store = store.with_storage(config.storage)
    ps = ps_factory(store, cluster, task)
    # Evaluate against the store the PS actually trains: a caller's factory
    # may hand the PS another store than the one it was given (a converted
    # backend, a copy), and evaluating the given one would silently freeze
    # quality.
    store = ps.store
    # A dynamic-workload scenario may put its interposer in front of the PS
    # (key translation for hot-set drift, fault and partition gates) and
    # receives callbacks at epoch and round boundaries. Without a scenario
    # the experiment runs on the raw PS, exactly as before.
    runtime = config.scenario.bind(task, ps, cluster, config) \
        if config.scenario is not None else None
    train_ps = runtime.training_ps if runtime is not None else ps
    task.register_sampling(train_ps)

    if tracer is not None:
        tracer.meta.update({
            "system": system_name or ps.name,
            "task": task.name,
            "num_nodes": cluster.num_nodes,
            "workers_per_node": cluster.workers_per_node,
            "seed": config.seed,
            "epochs": config.epochs,
        })
    shards = task.create_shards(
        cluster.num_nodes, cluster.workers_per_node, seed=config.seed
    )
    workers = list(cluster.workers())
    if runtime is not None:
        runtime.on_experiment_start()

    sampler = None
    experiment_span = None
    if tracer is not None:
        from repro.obs import make_sampler

        sampler = make_sampler(tracer, cluster, ps)
        experiment_span = tracer.begin_span(
            "experiment", "run", cluster.time)

    def evaluate() -> Dict[str, float]:
        eval_store = runtime.logical_store(store) if runtime is not None else store
        return task.evaluate(eval_store)

    result = ExperimentResult(
        system=system_name or ps.name,
        task=task.name,
        num_nodes=cluster.num_nodes,
        workers_per_node=cluster.workers_per_node,
        initial_quality=evaluate(),
        quality_metric=task.quality_metric,
        higher_is_better=task.higher_is_better,
        storage_backend=store.backend,
    )

    for epoch in range(config.epochs):
        # Snapshot before the scenario's epoch-start hooks so that work they
        # trigger (drift flushes, network changes) is attributed to this
        # epoch's record rather than falling between epochs.
        epoch_start = cluster.time
        counters_before = cluster.metrics.counters()
        cluster.metrics.drain_dirty()  # open this epoch's dirty scope
        epoch_span = None
        if tracer is not None:
            epoch_span = tracer.begin_span("epoch", "run", epoch_start,
                                           epoch=epoch + 1)
        if runtime is not None:
            runtime.begin_epoch(epoch)
        _run_epoch(task, train_ps, cluster, shards, workers, config, runtime,
                   tracer=tracer, sampler=sampler)
        train_ps.finish_epoch()
        task.on_epoch_end(epoch)
        if runtime is not None:
            runtime.end_epoch(epoch)

        quality = evaluate()
        counters_after = cluster.metrics.counters()
        # Dirty-set snapshot rather than value diffing: a counter the epoch
        # touched is reported even when its delta is zero (+1 then -1 within
        # the epoch is activity, not absence of it).
        epoch_metrics = {
            name: counters_after.get(name, 0.0) - counters_before.get(name, 0.0)
            for name in sorted(cluster.metrics.drain_dirty())
        }
        result.records.append(EpochRecord(
            epoch=epoch + 1,
            sim_time=cluster.time,
            epoch_duration=cluster.time - epoch_start,
            quality=quality,
            metrics=epoch_metrics,
        ))
        if tracer is not None:
            tracer.end_span(epoch_span, cluster.time)

    if tracer is not None:
        tracer.end_span(experiment_span, cluster.time,
                        epochs_completed=result.epochs_completed)
    result.metrics = cluster.metrics.counters()
    if tracer is not None:
        tracer.meta["final_metrics"] = cluster.metrics.counters()
        result.trace = tracer.to_trace()
        if config.telemetry.path is not None:
            from repro.obs import write_jsonl

            write_jsonl(result.trace, config.telemetry.path)
    return result


class _WorkerQueue:
    """Pending data of one worker: one index array and a cursor into it.

    ``take`` and ``peek`` are plain slices (views) of the array. Worker churn
    redistributes a paused worker's remaining indices and a partition
    re-queues a deferred chunk; both ``append``, which builds one new array
    of the pending tail and the new indices.
    """

    __slots__ = ("pending", "offset")

    def __init__(self, shard: np.ndarray) -> None:
        self.pending = np.asarray(shard, dtype=np.int64)
        self.offset = 0

    def __len__(self) -> int:
        return len(self.pending) - self.offset

    def take(self, count: int) -> np.ndarray:
        """Remove and return up to ``count`` leading indices."""
        chunk = self.peek(count)
        self.offset += len(chunk)
        return chunk

    def peek(self, count: int) -> np.ndarray:
        """The next up-to-``count`` indices without removing them."""
        return self.pending[self.offset:self.offset + count]

    def drain(self) -> np.ndarray:
        """Remove and return everything that is still pending."""
        return self.take(len(self))

    def append(self, indices: np.ndarray) -> None:
        if len(indices):
            self.pending = np.concatenate((self.pending[self.offset:], indices))
            self.offset = 0


class _EpochState:
    """The per-epoch work queues of all workers, with shard redistribution."""

    def __init__(self, workers, shards, chunk_size: int) -> None:
        self.chunk_size = int(chunk_size)
        self.queues: Dict[tuple, _WorkerQueue] = {
            (w.node_id, w.worker_id): _WorkerQueue(
                shards[w.node_id][w.worker_id]
            )
            for w in workers
        }

    def has_pending(self) -> bool:
        return any(len(queue) for queue in self.queues.values())

    def take_chunk(self, worker_key: tuple) -> np.ndarray:
        return self.queues[worker_key].take(self.chunk_size)

    def peek_chunk(self, worker_key: tuple) -> np.ndarray:
        return self.queues[worker_key].peek(self.chunk_size)

    def redistribute(self, worker_key: tuple, active_keys) -> None:
        """Split ``worker_key``'s remaining work over the ``active_keys``."""
        receivers = [key for key in active_keys if key != worker_key]
        if not receivers:
            return  # nobody to take the work over; leave it queued
        remaining = self.queues[worker_key].drain()
        if len(remaining) == 0:
            return
        for receiver, part in zip(
            receivers, np.array_split(remaining, len(receivers))
        ):
            self.queues[receiver].append(part)


def sequential_process_round(task, ps, cluster, items, state=None) -> None:
    """Process a round item by item, surviving dead-owner timeouts.

    Active only while a gate of the scenario's interposer can fire (see
    :meth:`~repro.scenarios.interposer.ScenarioParameterServer.degraded`):
    each worker's share (``task.process_item``) runs over the interposer's
    per-call charger, call by call through the gates, so that a
    :class:`~repro.faults.errors.DeadOwnerError` drops just that chunk —
    one round of one worker's lost work — instead of aborting the epoch.

    A :class:`~repro.faults.errors.PartitionedOwnerError` is admission
    control, not loss: the chunk is re-queued at the back of its worker's
    queue (retried after the partition heals) and the worker is charged one
    round-trip of backoff. The partition heals on a round schedule, so the
    deferred work always drains.
    """
    from repro.faults.errors import DeadOwnerError, PartitionedOwnerError

    charger = ps.direct_point_charger()
    for item in items:
        try:
            task.process_item(ps, charger, item)
        except PartitionedOwnerError:
            worker = item.worker
            if state is not None:
                state.queues[(worker.node_id, worker.worker_id)].append(
                    item.chunk
                )
            worker.clock.advance(cluster.network.message_cost(0))
            cluster.metrics.increment("elastic.deferred_chunks", 1)
        except DeadOwnerError:
            cluster.metrics.increment("faults.lost_chunks", 1)
            cluster.metrics.increment("faults.lost_points", len(item.chunk))
    charger.finish()


def _run_epoch(task, ps, cluster, shards, workers, config, runtime=None,
               tracer=None, sampler=None) -> None:
    """One epoch: every worker processes its full shard, chunk by chunk.

    Per scheduling round the driver collects every active worker's next
    chunk into :class:`~repro.ml.task.RoundWorkItem`\\ s and hands the whole
    round to the task's ``process_round``; a degraded round goes item by
    item (:func:`sequential_process_round`). Assembling the round first only
    reorders per-worker queue bookkeeping, which has no simulation state.
    PS housekeeping runs after every round.
    """
    state = _EpochState(workers, shards, config.chunk_size)
    interposer = None
    if runtime is not None:
        runtime.attach_epoch_state(state)
        interposer = runtime.interposer
    # Prefetch the very first chunk of every worker so that its parameters
    # can be relocated before processing starts.
    first_pairs = []
    for worker in workers:
        first_chunk = state.peek_chunk(worker.global_worker_id)
        if len(first_chunk):
            first_pairs.append((worker, first_chunk))
    if first_pairs:
        task.prefetch_round(ps, first_pairs)
    round_index = 0
    while state.has_pending():
        items = []
        for worker in workers:
            key = worker.global_worker_id
            if runtime is not None and not runtime.is_active(key):
                continue
            chunk = state.take_chunk(key)
            if len(chunk) == 0:
                continue
            # Localize the *next* chunk's parameters while this chunk is
            # being processed (asynchronous relocate-before-access).
            next_chunk = state.peek_chunk(key)
            items.append(RoundWorkItem(
                worker, chunk, next_chunk if len(next_chunk) else None,
            ))
        if items:
            if tracer is not None:
                starts = [item.worker.clock.now for item in items]
            if interposer is not None and interposer.degraded():
                sequential_process_round(task, ps, cluster, items, state)
            else:
                task.process_round(ps, items)
            if tracer is not None:
                # One retrospective span per worker: the simulated interval
                # its clock advanced over while processing this round's
                # chunk. Exported as one Perfetto lane per (node, worker).
                for item, sim_start in zip(items, starts):
                    worker = item.worker
                    tracer.complete_span(
                        "round", "round", sim_start, worker.clock.now,
                        node=worker.node_id, worker=worker.worker_id,
                        round=round_index, points=len(item.chunk),
                    )
        now = cluster.time
        ps.housekeeping(now)
        if tracer is not None:
            tracer.event("housekeeping", "round", now, round=round_index)
        if runtime is not None:
            runtime.on_round(round_index)
        if sampler is not None:
            sampler.maybe_sample(round_index, state)
        round_index += 1
        if not items:
            # Every pending queue belongs to a paused worker and nothing was
            # redistributed this round; bail out rather than spin forever.
            break
    ps.housekeeping(cluster.time)
    if sampler is not None:
        sampler.take_sample(state)  # close the epoch's time series
    if runtime is not None:
        runtime.detach_epoch_state()
