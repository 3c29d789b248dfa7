"""The per-key scalar reference of every architecture's access charging.

Production charges every access through one fold per architecture, the
point charger's ``charge_chunk`` over a chunk's call list; a ``pull`` or
``push`` is a one-call chunk of it. The subclasses here are the independent
reference those folds are tested against: their ``pull``/``push`` (and
NuPS's sampling calls) charge the way the architectures are defined, key by
key where the definition is per key (relocation, replication, NuPS's
relocated keys) and call by call where it groups (a call's local keys as one
product, its remote keys per serving node in ascending order), with their
own cost lookups and metric writes, record their own access events, and
move values through the store API directly. They hand out no fold charger
(``None``): a round on an oracle runs through :func:`sequential_rounds`.

The task side of the oracle is written here too: :func:`sequential_rounds`
makes a task run every round, degraded ones included, through its own
per-call round loop (:func:`per_call_round`) over hand-written per-call
chunk loops (:func:`mf_chunk`, :func:`kge_chunk`, :func:`wv_chunk`) that lay
out their keys and issue their calls independently of the tasks' chunk
steps.

Test-only: nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.nups import NuPS
from repro.ml.kge import KGETask
from repro.ml.matrix_factorization import MatrixFactorizationTask
from repro.ml.word2vec import WordVectorsTask
from repro.ps.base import PullResult
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import INTRA_PROCESS_FACTOR, ReplicationPS
import replicas

__all__ = [
    "ScalarClassicPS",
    "ScalarNuPS",
    "ScalarRelocationPS",
    "ScalarReplicationPS",
    "ScalarSingleNodePS",
    "SampleStream",
    "oracle_of",
    "sequential_rounds",
]


def _home(ps, key: int) -> int:
    """The node ``key`` is partitioned to."""
    return int(ps.partitioner.owners(np.array([key]))[0])


def charge_local(ps, worker, count: int, kind: str) -> None:
    """Charge ``count`` shared-memory accesses to the worker."""
    if count <= 0:
        return
    worker.clock.advance(count * ps.network.local_access_cost)
    ps.metrics.record_access(f"{kind}.local", count)


def charge_remote(ps, worker, count: int, kind: str, server_id: int) -> None:
    """Charge ``count`` classic remote accesses (two messages each) served
    by ``server_id``, whose request thread each of them occupies."""
    if count <= 0:
        return
    value_bytes = ps.store.value_bytes()
    worker.clock.advance(count * ps.network.remote_access_cost(value_bytes))
    if server_id != worker.node_id:
        ps.cluster.node(server_id).server_clock.advance(
            count * ps.network.server_occupancy(value_bytes))
    ps.metrics.record_access(f"{kind}.remote", count)
    ps.metrics.increment("network.messages", 2 * count)
    ps.metrics.increment("network.bytes", count * value_bytes)


def no_fold(ps, distribution_id=None):
    """``direct_point_charger`` of every oracle: ``None``, no fold to hand
    out; an oracle's rounds run through :func:`sequential_rounds`."""
    return None


def trace(ps, kind, worker, keys):
    """Record one ``kind`` call of ``keys`` as an access event."""
    tracer = ps.tracer
    if tracer is not None and tracer.access_events:
        tracer.event(kind, "access", worker.clock.now, node=worker.node_id,
                     worker=worker.worker_id, keys=len(keys))


def pull_per_call(ps, worker, keys):
    """``pull`` — and a sample pull, a direct one here — charged by the
    oracle's ``_charge``, values from the store."""
    keys = np.asarray(keys, dtype=np.int64)
    trace(ps, "pull", worker, keys)
    ps._charge(worker, keys, "pull")
    return ps.store.get(keys)


def push_per_call(ps, worker, keys, deltas):
    """``push`` — and a sample push, a direct one here — charged by the
    oracle's ``_charge``, values to the store."""
    keys, deltas = ps._validate_push(keys, deltas)
    trace(ps, "push", worker, keys)
    ps._charge(worker, keys, "push")
    ps.store.add(keys, deltas)


class ScalarSingleNodePS(SingleNodePS):
    """Every call: its key count times the shared-memory access cost."""

    # Sampling is application-side: its calls are direct ones.
    direct_point_charger = no_fold
    pull = pull_keys = pull_per_call
    push = push_sample = push_per_call

    def _charge(self, worker, keys, kind):
        charge_local(self, worker, len(keys), kind)


class ScalarClassicPS(ClassicPS):
    """Every call: its home-partition keys as one shared-memory product,
    then its remote keys per serving node, in ascending node order."""

    # Sampling is application-side: its calls are direct ones.
    direct_point_charger = no_fold
    pull = pull_keys = pull_per_call
    push = push_sample = push_per_call

    def _charge(self, worker, keys, kind):
        counts = {}
        for owner in self.partitioner.owners(keys).tolist():
            counts[owner] = counts.get(owner, 0) + 1
        charge_local(self, worker, counts.pop(worker.node_id, 0), kind)
        for server in sorted(counts):
            charge_remote(self, worker, counts[server], kind, server)


class ScalarRelocationPS(RelocationPS):
    """Relocation key by key: hints, local accesses with their arrival
    waits, remote accesses routed via the home node."""

    # Sampling is application-side: its calls are direct ones.
    direct_point_charger = no_fold
    pull = pull_keys = pull_per_call
    push = push_sample = push_per_call

    def _relocate_batch(self, node_id, keys, worker_clock=None,
                        sampling=False):
        background = self.cluster.node(node_id).background_clock
        value_bytes = self.store.value_bytes()
        relocation_latency = self.network.relocation_cost(value_bytes)
        occupancy = self.network.relocation_occupancy(value_bytes)
        for key in keys.tolist():
            if self.current_owner[key] == node_id:
                continue
            # The node's communication thread is busy for ``occupancy`` per
            # relocation; the key arrives one protocol round trip after the
            # request leaves, or when the thread is done, whichever is later.
            start = background.now if worker_clock is None \
                else max(worker_clock, background.now)
            background.advance_to(start + occupancy)
            self.current_owner[key] = node_id
            self.arrival_time[key] = max(start + relocation_latency,
                                         background.now)
            self.metrics.increment("relocation.count", 1)
            if sampling:
                self.metrics.increment("relocation.sampling", 1)
            self.metrics.increment("network.messages", 3)
            self.metrics.increment("network.bytes", value_bytes)

    def _charge(self, worker, keys, kind):
        node_id = worker.node_id
        for key in keys.tolist():
            if self.current_owner[key] == node_id:
                arrival = self.arrival_time[key]
                if arrival > worker.clock.now:
                    # On its way here: wait for the relocation, then access
                    # through shared memory.
                    worker.clock.advance_to(arrival)
                    self.metrics.increment("relocation.waits", 1)
                charge_local(self, worker, 1, kind)
            else:
                self._charge_routed_remote(worker, key, kind)

    def _charge_routed_remote(self, worker, key, kind):
        """Two messages while the key is at its home node, three when the
        home node forwards to where it was relocated."""
        value_bytes = self.store.value_bytes()
        owner = int(self.current_owner[key])
        messages = 2 if owner == _home(self, key) else 3
        worker.clock.advance((messages - 1) * self.network.message_cost(0)
                             + self.network.message_cost(value_bytes))
        self.cluster.node(owner).server_clock.advance(
            self.network.server_occupancy(value_bytes))
        self.metrics.record_access(f"{kind}.remote", 1)
        self.metrics.increment("network.messages", messages)
        self.metrics.increment("network.bytes", value_bytes)


class ScalarNuPS(NuPS):
    """NuPS call by call: a call's replicated keys as one shared-memory
    product on the node's replica, then its relocated keys key by key."""

    direct_point_charger = no_fold
    _relocate_batch = ScalarRelocationPS._relocate_batch
    _charge = ScalarRelocationPS._charge
    _charge_routed_remote = ScalarRelocationPS._charge_routed_remote

    def pull(self, worker, keys):
        keys = np.asarray(keys, dtype=np.int64)
        trace(self, "pull", worker, keys)
        return self._pull(worker, keys, sampling=False)

    def push(self, worker, keys, deltas):
        self._push(worker, keys, deltas, sampling=False)

    def pull_keys(self, worker, keys):
        """A sample pull is a direct one without integrated sampling, and
        only a direct one records an access event."""
        if not self.integrate_sampling:
            return self.pull(worker, keys)
        return self._pull(worker, np.asarray(keys, dtype=np.int64),
                          sampling=True)

    def push_sample(self, worker, keys, deltas):
        self._push(worker, keys, deltas, sampling=self.integrate_sampling)

    def _pull(self, worker, keys, sampling):
        if not sampling and self.access_observer is not None:
            self.access_observer.observe(keys)
        kind = "sample" if sampling else "pull"
        replicated = self.plan.replicated_mask(keys)
        values = self.store.get(keys)
        if replicated.any():
            values[replicated] = replicas.read(
                self.replica_manager, worker.node_id, keys[replicated])
            charge_local(self, worker, int(replicated.sum()),
                         f"{kind}.replica")
        relocated = keys[~replicated]
        self._charge(worker, relocated, kind)
        if not sampling:
            self._recent_direct[worker.node_id].extend(relocated.tolist())
        return values

    def _push(self, worker, keys, deltas, sampling):
        keys, deltas = self._validate_push(keys, deltas)
        if not sampling:
            trace(self, "push", worker, keys)
            if self.access_observer is not None:
                self.access_observer.observe(keys)
        kind = "sample_push" if sampling else "push"
        replicated = self.plan.replicated_mask(keys)
        if replicated.any():
            replicas.add(self.replica_manager, worker.node_id,
                         keys[replicated], deltas[replicated])
            charge_local(self, worker, int(replicated.sum()),
                         f"{kind}.replica")
        self._charge(worker, keys[~replicated], kind)
        self.store.add(keys[~replicated], deltas[~replicated])


class ScalarReplicationPS(ReplicationPS):
    """SSP/ESSP key by key: a fresh replica costs one intra-process
    message, a stale or missing one refreshes first from its owner."""

    direct_point_charger = no_fold

    def pull(self, worker, keys):
        keys = np.asarray(keys, dtype=np.int64)
        trace(self, "pull", worker, keys)
        state = self._nodes[worker.node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        values = np.empty((len(keys), self.store.value_length),
                          dtype=np.float32)
        for i, key in enumerate(keys.tolist()):
            if state.replica_mask[key] and state.replica_clock[key] \
                    >= worker_clock - self.staleness:
                values[i] = state.replica_values[key]
                self._charge_intra_process(worker, "pull.replica")
            else:
                values[i] = self._refresh_replica(worker, state, key,
                                                  worker_clock)
        return values

    def push(self, worker, keys, deltas):
        keys, deltas = self._validate_push(keys, deltas)
        trace(self, "push", worker, keys)
        state = self._nodes[worker.node_id]
        worker_clock = state.worker_clocks.get(worker.worker_id, 0)
        state.pending_updates.append(keys)
        for key, delta in zip(keys.tolist(), deltas):
            if not state.replica_mask[key]:
                # Petuum reads before it writes: create the replica first.
                self._refresh_replica(worker, state, key, worker_clock)
            state.replica_values[key] = state.replica_values[key] + delta
            state.update_values[key] = state.update_values[key] + delta
            state.update_mask[key] = True
            self._charge_intra_process(worker, "push.replica")

    # Sampling is application-side: its calls are direct ones.
    pull_keys, push_sample = pull, push

    def _refresh_replica(self, worker, state, key, worker_clock):
        """Synchronously (re)fetch ``key`` from its owning server."""
        owner = _home(self, key)
        if owner == worker.node_id:
            self._charge_intra_process(worker, "pull.local_server")
        else:
            charge_remote(self, worker, 1, "pull", owner)
        value = self.store.get([key])[0]
        if state.update_mask[key]:
            value = value + state.update_values[key]
        state.replica_values[key] = value
        state.replica_mask[key] = True
        state.replica_clock[key] = worker_clock
        return value.copy()

    def _charge_intra_process(self, worker, kind):
        worker.clock.advance(
            1 * self.network.local_access_cost * INTRA_PROCESS_FACTOR)
        self.metrics.record_access(kind, 1)


#: Production class -> its oracle.
ORACLES = {
    SingleNodePS: ScalarSingleNodePS,
    ClassicPS: ScalarClassicPS,
    RelocationPS: ScalarRelocationPS,
    NuPS: ScalarNuPS,
    ReplicationPS: ScalarReplicationPS,
}


def oracle_of(ps):
    """Turn the freshly built production PS ``ps`` into its oracle, in
    place: same state, per-call reference charging."""
    ps.__class__ = ORACLES[type(ps)]
    return ps


# ------------------------------------------------------------- task side
class SampleStream:
    """A chunk's samples: one ``prepare_sample`` for ``total`` samples, then
    ``pull_sample`` in portions, one per data point."""

    def __init__(self, ps, worker, distribution_id, total):
        self.ps = ps
        self.worker = worker
        self.remaining = int(total)
        self._handle = None
        if self.remaining > 0:
            self._handle = ps.prepare_sample(worker, distribution_id,
                                             self.remaining)

    def next(self, count):
        """Pull the next ``count`` samples (at most what is left)."""
        if count == 0 or self._handle is None:
            return PullResult(
                keys=np.empty(0, dtype=np.int64),
                values=np.empty((0, self.ps.store.value_length),
                                dtype=np.float32))
        result = self.ps.pull_sample(self.worker, self._handle,
                                     min(count, self.remaining))
        self.remaining -= len(result.keys)
        return result

    def push_updates(self, keys, deltas):
        """``push_sample`` the deltas of pulled sample keys (none: no call)."""
        if len(keys):
            self.ps.push_sample(self.worker, keys, deltas)


def _distribution(task):
    if task._distribution_id is None:
        raise RuntimeError("register_sampling must be called before training")
    return task._distribution_id


def mf_chunk(task, ps, worker, data_indices):
    """Per cell: ``pull`` its two factors, ``push`` their deltas, compute."""
    data_indices = np.asarray(data_indices, dtype=np.int64)
    compute_cost = ps.network.compute_per_step
    for keys, value in zip(task._cell_keys[data_indices],
                           task.dataset.train_values[data_indices].tolist()):
        ps.push(worker, keys, task._step(ps.pull(worker, keys), value))
        worker.charge_compute(compute_cost)


def kge_chunk(task, ps, worker, data_indices):
    """Per triple: ``pull`` subject, relation, object, pull its negatives,
    ``push`` and push back the deltas, compute."""
    distribution_id = _distribution(task)
    triples = task.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
    if len(triples) == 0:
        return
    negatives_per_triple = 2 * task.num_negatives
    stream = SampleStream(ps, worker, distribution_id,
                          len(triples) * negatives_per_triple)
    compute_cost = task.network_compute_cost(ps)
    for subject, relation, obj in triples.tolist():
        direct_keys = np.asarray(
            [subject, task.relation_key(relation), obj], dtype=np.int64)
        direct_values = ps.pull(worker, direct_keys)
        negatives = stream.next(negatives_per_triple)
        deltas = task._step(len(negatives.keys)).deltas(
            np.concatenate([direct_values, negatives.values]),
            task.optimizer, task.regularization)
        ps.push(worker, direct_keys, deltas[:3])
        stream.push_updates(negatives.keys, deltas[3:])
        worker.charge_compute(compute_cost)


def wv_chunk(task, ps, worker, data_indices):
    """Per token: ``pull`` center and context words, pull its negatives,
    ``push`` and push back the deltas, compute."""
    distribution_id = _distribution(task)
    data_indices = np.asarray(data_indices, dtype=np.int64)
    if len(data_indices) == 0:
        return
    offsets = task._context_offsets
    total_pairs = int((offsets[data_indices + 1] - offsets[data_indices]).sum())
    stream = SampleStream(ps, worker, distribution_id,
                          total_pairs * task.num_negatives)
    for index in data_indices.tolist():
        context_keys = task._context_keys[offsets[index]:offsets[index + 1]]
        num_pairs = len(context_keys)
        direct_keys = np.empty(num_pairs + 1, dtype=np.int64)
        direct_keys[0] = task._centers[index]
        direct_keys[1:] = context_keys
        direct_values = ps.pull(worker, direct_keys)
        negatives = stream.next(num_pairs * task.num_negatives)
        deltas = task._token_deltas(direct_values[0], direct_values[1:],
                                    negatives.values)
        ps.push(worker, direct_keys, deltas[:num_pairs + 1])
        stream.push_updates(negatives.keys, deltas[num_pairs + 1:])
        worker.charge_compute(task._compute_cost(ps, num_pairs))


#: Task class -> its hand-written per-call chunk loop.
PER_CALL_CHUNKS = {
    MatrixFactorizationTask: mf_chunk,
    KGETask: kge_chunk,
    WordVectorsTask: wv_chunk,
}


def per_call_round(task, chunk, ps, items):
    """A round as ``process_round`` runs it, over the per-call loop
    ``chunk``: per item, in worker order, prefetch the next chunk, run the
    current one, advance the bounded-staleness clock."""
    for item in items:
        worker = item.worker
        if item.next_chunk is not None and len(item.next_chunk):
            task.prefetch(ps, worker, item.next_chunk)
        chunk(task, ps, worker, item.chunk)
        ps.advance_clock(worker)


def sequential_rounds(task):
    """Make ``task`` run every round, degraded ones included, through
    :func:`per_call_round` over its hand-written per-call loop
    (:data:`PER_CALL_CHUNKS`) instead of its chunk step; returns ``task``."""
    task.process_round = functools.partial(per_call_round, task,
                                           PER_CALL_CHUNKS[type(task)])
    return task
