"""The production round path against its oracle: equivalence and satellites.

The contract is exact: a task's ``process_round`` (its chunk step over the
PS's fold charger, or over the per-call charger where the PS hands out none)
must not change a single bit of an
:class:`~repro.runner.experiment.ExperimentResult` against the hand-written
per-call loops of :func:`scalar_oracle.sequential_rounds` for any task,
system, or scenario — nor of any clock, metric, stored value or piece of PS
state behind it. This suite drives the production path
(``direct_point_charger`` → ``charge_chunk`` →
``ChunkValues.read``/``add``; matrix factorization's points are sampling
points with zero-width sample segments) and the per-call oracle on identical
workloads and asserts exact equality, plus unit coverage for the satellite
fixes (worker-queue peek caching, dirty-set epoch metrics).

The matrix-factorization section crosses every architecture with both
storage backends, staleness bounds and seeds; the sampling section drives
the point chargers against the per-call sequence on twin parameter servers.
Both compare whole experiments including every piece of PS state and pin
both directions of the path selection: the default configuration issues no
``pull``/``push`` at all, each fallback condition issues them. A last
section holds the wrapped and observed parameter servers — the scenario
interposer with its key translation and its gates, NuPS under a statistics
tap — which are replay cells too: the comparison includes the tap's sketch,
and ``pull``/``push`` reach the PS only from the rounds the runner degrades.
"""

from __future__ import annotations

import copy
from collections import namedtuple

import numpy as np
import pytest

import repro.runner.experiment as experiment_module
from repro.adaptive import AdaptiveConfig
from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UniformDistribution
from repro.core.sampling.manager import SamplingConfig
from repro.core.sampling.schemes import (LOCAL_REFRESH_INTERVAL,
                                        SCHEMES_BY_NAME, SchemeConfig)
from repro.elastic import PartitionState
from repro.faults import MembershipController
from repro.ml.matrix_factorization import MatrixFactorizationTask
from repro.ml.task import RoundWorkItem
from repro.ps.chunks import StorageConfig
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.rounds import RoundAccounting, point_calls
from repro.ps.storage import ParameterStore
from repro.runner.config import ExperimentConfig
from repro.runner.experiment import _WorkerQueue, run_experiment
from repro.runner.systems import make_ps_factory
from repro.runner.workloads import make_task
from repro.scenarios import (
    KeyRemapper,
    Perturbation,
    Scenario,
    ScenarioParameterServer,
    make_scenario,
)
from repro.simulation.cluster import Cluster, ClusterConfig
from repro.simulation.metrics import MetricsRegistry
from adaptive_tap import install_tap
from scalar_oracle import SampleStream, oracle_of, sequential_rounds

NUM_KEYS = 120
VALUE_LENGTH = 4


# ---------------------------------------------------------------- PS builders
def _cluster(num_nodes=3, workers_per_node=2) -> Cluster:
    return Cluster(ClusterConfig(num_nodes=num_nodes,
                                 workers_per_node=workers_per_node))


def _ps_builders():
    def nups(store, cluster):
        plan = ManagementPlan(store.num_keys,
                              np.arange(12, dtype=np.int64))
        return NuPS(store, cluster, plan=plan, sync_interval=0.001, seed=0)

    def nups_relocate_all(store, cluster):
        return NuPS(store, cluster,
                    plan=ManagementPlan.relocate_all(store.num_keys),
                    sync_interval=None, seed=0)

    return {"nups": nups, "nups-relocate-all": nups_relocate_all}


def _scalar(ps) -> None:
    """Turn ``ps`` (below the interposer, if any) into its scalar oracle."""
    oracle_of(getattr(ps, "inner", ps))


def _assert_cluster_identical(a: Cluster, b: Cluster) -> None:
    for node_a, node_b in zip(a.nodes, b.nodes):
        for clock_a, clock_b in zip(node_a.worker_clocks, node_b.worker_clocks):
            assert clock_a.now == clock_b.now
        assert node_a.background_clock.now == node_b.background_clock.now
        assert node_a.server_clock.now == node_b.server_clock.now
    assert a.metrics.counters() == b.metrics.counters()


# ------------------------------------------------------- runner-level fusion
#: One experiment: its result plus the objects that hold the rest of the
#: state a bit-identity claim is about. ``calls`` counts the ``pull`` and
#: ``push`` calls that reached the raw PS.
Run = namedtuple("Run", "result ps cluster task calls degraded_calls")


def _experiment(task_name, system, backend, scenario_name=None,
                chunk_size=8, seed=5, epochs=2, telemetry=False,
                storage=None, factory=None, task=None, straggler=False,
                scenario=None, num_nodes=2):
    """Run the test-scale experiment on one side of the execution switch.

    ``backend`` is ``"fused"`` (the production round path) or
    ``"sequential"`` (the oracle,
    :func:`scalar_oracle.sequential_rounds`). With ``telemetry`` the
    observability tracer rides along (it must not change a single bit):
    ``True`` records one event per PS call, ``"default"`` the default level.
    ``factory`` replaces the named system's PS factory and ``task`` the
    preset task; ``straggler`` slows one worker's compute down; ``scenario``
    is a scenario object where a preset's defaults do not do; the cluster
    has ``num_nodes`` nodes of two workers.

    ``Run.calls`` counts the ``pull``/``push`` calls that reached the raw PS,
    ``Run.degraded_calls`` those of them issued by the runner's degraded
    rounds (a node down or a partition live: per call on both paths).
    """
    task = task or make_task(task_name, scale="test")
    if scenario is None and scenario_name:
        scenario = make_scenario(scenario_name)
    assert backend in ("fused", "sequential")
    if backend == "sequential":
        sequential_rounds(task)
    telemetry_config = None
    if telemetry:
        from repro.obs import TelemetryConfig

        telemetry_config = TelemetryConfig(access_events=telemetry is True)
    config = ExperimentConfig(
        cluster=ClusterConfig(
            num_nodes=1 if system == "single-node" else num_nodes,
            workers_per_node=2),
        epochs=epochs, chunk_size=chunk_size, seed=seed, scenario=scenario,
        telemetry=telemetry_config, storage=storage,
    )
    inner = factory or make_ps_factory(system)
    built = {}
    calls = {"pull": 0, "push": 0}

    def counting_factory(store, cluster, task):
        ps = built["ps"] = inner(store, cluster, task)
        built["cluster"] = cluster
        if straggler:
            cluster.worker(0, 1).compute_scale = 2.5
        for name in calls:
            def counted(*args, _name=name, _call=getattr(ps, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            setattr(ps, name, counted)
        return ps

    degraded_calls = {"pull": 0, "push": 0}
    degraded_round = experiment_module._degraded_process_round

    def counting_degraded_round(*args, **kwargs):
        before = dict(calls)
        degraded_round(*args, **kwargs)
        for name in calls:
            degraded_calls[name] += calls[name] - before[name]

    experiment_module._degraded_process_round = counting_degraded_round
    try:
        result = run_experiment(task, counting_factory, config)
    finally:
        experiment_module._degraded_process_round = degraded_round
    return Run(result, built["ps"], built["cluster"], task, calls,
               degraded_calls)


def _generator_states(ps) -> dict:
    states = {"ps": ps.rng.bit_generator.state}
    for node_id, rng in getattr(ps, "_node_rngs", {}).items():
        states[node_id] = rng.bit_generator.state
    return states


def _assert_stats_identical(a, b) -> None:
    """Two statistics taps hold the same sketch and totals, bit for bit."""
    assert a.sketch._keys.tobytes() == b.sketch._keys.tobytes()
    assert a.sketch._counts.tobytes() == b.sketch._counts.tobytes()
    assert a.sketch._index == b.sketch._index
    assert len(a.sketch) == len(b.sketch)
    assert np.float64(a.total_observed).tobytes() \
        == np.float64(b.total_observed).tobytes()
    assert a.lifetime_observed == b.lifetime_observed


def _assert_ps_state_identical(a, b) -> None:
    """Everything a PS holds besides clocks and metrics, to the last bit."""
    while hasattr(a, "inner"):  # the state lives below the interposer
        a, b = a.inner, b.inner
    all_keys = np.arange(a.store.num_keys, dtype=np.int64)
    assert a.store.get(all_keys).tobytes() == b.store.get(all_keys).tobytes()
    assert np.array_equal(a.store.read_versions(all_keys),
                          b.store.read_versions(all_keys))
    assert _generator_states(a) == _generator_states(b)
    for name in ("current_owner", "arrival_time"):
        if hasattr(a, name):
            assert np.array_equal(getattr(a, name).take(all_keys),
                                  getattr(b, name).take(all_keys)), name
    if isinstance(a, ReplicationPS):
        assert a._nodes.keys() == b._nodes.keys()
        for node, state_a in a._nodes.items():
            state_b = b._nodes[node]
            assert state_a.worker_clocks == state_b.worker_clocks
            for name in ("replica_mask", "replica_clock", "update_mask"):
                assert np.array_equal(getattr(state_a, name).take(all_keys),
                                      getattr(state_b, name).take(all_keys)), name
            for name in ("replica_values", "update_values"):
                assert getattr(state_a, name).take(all_keys, axis=0).tobytes() \
                    == getattr(state_b, name).take(all_keys, axis=0).tobytes(), name
            # The replay records a chunk's keys once, the per-call path once
            # per push: the flush reads them as a set.
            pending_a, pending_b = (
                set(np.concatenate(state.pending_updates).tolist())
                if state.pending_updates else set()
                for state in (state_a, state_b)
            )
            assert pending_a == pending_b
    if isinstance(a, NuPS):
        assert (a.access_observer is None) == (b.access_observer is None)
        if a.access_observer is not None:
            _assert_stats_identical(a.access_observer, b.access_observer)
        assert (a.adaptive_controller is None) == (b.adaptive_controller is None)
        if a.adaptive_controller is not None:
            assert a.adaptive_controller.describe() \
                == b.adaptive_controller.describe()
        assert np.array_equal(a.plan.replicated_keys, b.plan.replicated_keys)
        assert {node: list(recent) for node, recent in a._recent_direct.items()} \
            == {node: list(recent) for node, recent in b._recent_direct.items()}
        manager_a, manager_b = a.replica_manager, b.replica_manager
        assert manager_a.syncs_performed == manager_b.syncs_performed
        for name in ("_replicas", "_buffers", "_dirty"):
            state_a, state_b = getattr(manager_a, name), getattr(manager_b, name)
            assert state_a.keys() == state_b.keys()
            for node in state_a:
                assert state_a[node].tobytes() == state_b[node].tobytes(), name
        for distribution_id in sorted(a.sampling_manager._registered):
            pools_a = getattr(a.sampling_manager.scheme_for(distribution_id),
                              "_node_state", {})
            pools_b = getattr(b.sampling_manager.scheme_for(distribution_id),
                              "_node_state", {})
            assert pools_a.keys() == pools_b.keys()
            for node in pools_a:
                assert vars(pools_a[node]).keys() == vars(pools_b[node]).keys()
                for field, value in vars(pools_a[node]).items():
                    other = getattr(pools_b[node], field)
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(value, other), field
                    elif field != "sampler":  # alias tables: rebuilt from keys
                        assert value == other, field


def _assert_results_identical(a, b) -> None:
    """Two runs agree on the result and on every piece of simulation state:
    per-epoch records, metrics, all worker/server/background clocks, store
    value bytes and versions, ownership, replica state (NuPS's replica
    manager; SSP/ESSP's replica and update matrices, masks, replica clocks
    and pending key sets), the installed plan, the statistics tap's sketch
    and totals and the adaptive controller's report, recent-access buffers,
    sampling pools, every random generator and the task's clipper and loss
    accumulators."""
    result_a, result_b = a.result, b.result
    assert result_a.initial_quality == result_b.initial_quality
    assert result_a.epochs_completed == result_b.epochs_completed
    for record_a, record_b in zip(result_a.records, result_b.records):
        assert record_a.sim_time == record_b.sim_time
        assert record_a.epoch_duration == record_b.epoch_duration
        assert record_a.quality == record_b.quality
        assert record_a.metrics == record_b.metrics
    assert result_a.metrics == result_b.metrics
    _assert_cluster_identical(a.cluster, b.cluster)
    _assert_ps_state_identical(a.ps, b.ps)
    clipper_a = getattr(a.task, "_clipper", None)
    if clipper_a is not None:
        assert vars(clipper_a) == vars(b.task._clipper)
    assert getattr(a.task, "learning_rate", None) \
        == getattr(b.task, "learning_rate", None)


# ------------------------------------------- matrix factorization: replay
#: Slots of the statistics taps in the wrapped cells: far fewer than keys in
#: use, so the sketch evicts all the time.
SKETCH_SLOTS = 16


def _drifted_adaptive(build_nups, groups):
    """``build_nups`` below a key remapping that is not the identity, with a
    small statistics tap whose top-k policy re-manages from
    ``housekeeping``: the interposer and the tap at once."""
    def build(store, cluster):
        remapper = KeyRemapper(store.num_keys, groups)
        sigma = remapper.rotation(0.3)
        store.permute(sigma)
        remapper.apply(sigma)
        ps = build_nups(store, cluster)
        install_tap(ps, AdaptiveConfig(
            policy="top-k", top_k=5, period=2e-4, half_life=1e-3,
            warmup_observations=50), SKETCH_SLOTS)
        return ScenarioParameterServer(ps, remapper)
    return build


def _assert_drifted_adaptive_ran(ps) -> None:
    """Non-vacuity of a :func:`_drifted_adaptive` twin: translated keys, a
    sketch that had to evict, and a policy that re-managed."""
    assert not ps.remapper.is_identity
    controller = ps.inner.adaptive_controller
    assert controller.adaptations > 0
    assert len(controller.stats.sketch) == SKETCH_SLOTS
    assert controller.stats.lifetime_observed > 1000


def _direct_ps_builders():
    """Every architecture, with the state that makes its replay non-trivial:
    replicated hot keys on NuPS, each staleness bound on SSP/ESSP, and NuPS
    remapped and observed (``_direct_chunks`` draws every chunk from both
    key groups: row keys below 90, column keys from 90)."""
    builders = {
        "classic": lambda store, cluster: ClassicPS(store, cluster, seed=0),
        "relocation": lambda store, cluster: RelocationPS(store, cluster, seed=0),
        "nups": _ps_builders()["nups"],
        "nups-relocate-all": _ps_builders()["nups-relocate-all"],
        "nups-drifted-adaptive": _drifted_adaptive(
            _ps_builders()["nups"], [(0, 90), (90, NUM_KEYS)]),
        "single-node": lambda store, cluster: SingleNodePS(store, cluster),
    }
    for protocol in ReplicationProtocol:
        for staleness in (0, 1, 2):
            builders[f"{protocol.value}-s{staleness}"] = (
                lambda store, cluster, protocol=protocol, staleness=staleness:
                ReplicationPS(store, cluster, protocol=protocol,
                              staleness=staleness, seed=0))
    return builders


def _direct_chunks(rng, workers, rounds=10):
    """Per (round, worker): a ragged chunk of points with one to four direct
    keys each — a row key, then up to three column keys that repeat along
    the chunk (the column factors) —, the per-point widths, deltas, and an
    optional localize hint."""
    plans = []
    for _ in range(rounds):
        for worker in workers:
            num_points = int(rng.integers(1, 10))
            widths = rng.integers(1, 5, size=num_points).tolist()
            rows = rng.integers(0, 90, size=num_points)
            if rng.random() < 0.3:
                rows[-1] = rows[0]  # a repeated row key as well
            columns = (90 + np.sort(rng.integers(
                0, 4, size=sum(widths) - num_points))).tolist()
            keys = []
            for row, width in zip(rows.tolist(), widths):
                keys.append(row)
                keys.extend(columns[:width - 1])
                del columns[:width - 1]
            keys = np.array(keys, dtype=np.int64)
            deltas = rng.normal(0, 0.01, size=(len(keys), VALUE_LENGTH)) \
                .astype(np.float32)
            hint = np.unique(keys) if rng.random() < 0.7 else None
            plans.append((worker.global_worker_id, keys, widths, deltas, hint))
    return plans


def _mixes_fresh_stale_and_repeated(ps, worker, keys) -> bool:
    state = ps._nodes[worker.node_id]
    fresh = state.replica_mask[keys] & (
        state.replica_clock[keys]
        >= state.worker_clocks.get(worker.worker_id, 0) - ps.staleness)
    return bool(fresh.any() and not fresh.all()
                and len(set(keys.tolist())) < len(keys))


def _drive_direct(name, replay: bool):
    cluster = _cluster(num_nodes=1 if name == "single-node" else 5)
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=2, init_scale=0.1)
    ps = _direct_ps_builders()[name](store, cluster)
    if not replay:
        _scalar(ps)
    workers = list(cluster.workers())
    workers[1].compute_scale = 2.5  # a straggler: compute is scaled, access not
    plans = _direct_chunks(np.random.default_rng(23), workers)
    seen = []
    mixed_chunks = 0
    for index, (worker_key, keys, widths, deltas, hint) in enumerate(plans):
        worker = cluster.worker(*worker_key)
        if hint is not None:
            ps.localize(worker, hint)  # in flight when the chunk starts
        if isinstance(ps, ReplicationPS):
            mixed_chunks += _mixes_fresh_stale_and_repeated(ps, worker, keys)
        bounds = np.cumsum([0] + widths).tolist()
        if replay:
            charger = ps.direct_point_charger()
            charger.charge_chunk(worker, keys, point_calls(
                widths, [0] * len(widths), [3e-6] * len(widths)))
            for lo, hi in zip(bounds, bounds[1:]):
                seen.append(charger.read(lo, hi))
                charger.add(lo, hi, deltas[lo:hi])
            ps.advance_clock(worker)
            charger.finish()
        else:
            for lo, hi in zip(bounds, bounds[1:]):
                seen.append(ps.pull(worker, keys[lo:hi]))
                ps.push(worker, keys[lo:hi], deltas[lo:hi])
                worker.charge_compute(3e-6)
            ps.advance_clock(worker)
        if index % len(workers) == len(workers) - 1:
            ps.housekeeping(cluster.time)
    # No finish_epoch: the buffered state is part of the comparison.
    return cluster, ps, seen, mixed_chunks


@pytest.mark.parametrize("name", sorted(_direct_ps_builders()))
def test_point_charger_replays_direct_calls(name):
    """A zero-sample ``charge_chunk`` + ``read``/``add`` == a pull and a
    push per point on the scalar oracle, on ragged chunks of one- to
    four-key points with repeated keys, in-flight relocations, replicated
    keys, a straggler and — on SSP/ESSP — chunks that mix fresh replicas,
    stale ones and a repeated key, with flushes and eager refreshes between
    the chunks."""
    replay_cluster, replay_ps, replay_seen, mixed = _drive_direct(name, True)
    call_cluster, call_ps, call_seen, _ = _drive_direct(name, False)
    _assert_cluster_identical(replay_cluster, call_cluster)
    _assert_ps_state_identical(replay_ps, call_ps)
    assert len(replay_seen) == len(call_seen)
    for replayed, called in zip(replay_seen, call_seen):
        assert replayed.tobytes() == called.tobytes()
    metrics = call_cluster.metrics
    if isinstance(call_ps, RelocationPS):
        assert metrics.get("relocation.waits") > 0
    if name.startswith("nups") and name != "nups-relocate-all":
        assert metrics.get("access.pull.replica.local") > 0
    if name == "nups-drifted-adaptive":
        _assert_drifted_adaptive_ran(call_ps)
    if isinstance(call_ps, ReplicationPS):
        assert mixed > 0
        assert metrics.get("replication.flushes") > 0


def test_replication_charger_applies_server_occupancy_per_chunk():
    """ESSP's eager refresh adds its own constant to the server clocks at
    every ``advance_clock``; the replay's occupancy additions must land
    before it, not at the end of the round."""
    cluster = _cluster()
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=2, init_scale=0.1)
    ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.ESSP,
                       staleness=1, seed=0)
    worker = cluster.worker(0, 0)
    remote = np.flatnonzero(ps.partitioner.owners(np.arange(NUM_KEYS)) == 2)
    charger = ps.direct_point_charger()
    charger.charge_chunk(worker, remote[:2], point_calls([2], [0], [0.0]))
    assert cluster.node(2).server_clock.now == 2 * ps._server_occupancy


MF_SYSTEMS = ["classic", "lapse", "ssp", "essp", "nups", "single-node"]
SPARSE = StorageConfig(backend="sparse", chunk_rows=64)


@pytest.mark.parametrize("backend", ["fused"])
@pytest.mark.parametrize("system", MF_SYSTEMS)
@pytest.mark.parametrize("chunk_size", [4, 32])
def test_round_fusion_bit_identical_mf(system, chunk_size, backend):
    _assert_results_identical(
        _experiment("matrix_factorization", system, backend,
                    chunk_size=chunk_size),
        _experiment("matrix_factorization", system, "sequential",
                    chunk_size=chunk_size),
    )


@pytest.mark.parametrize("backend", ["fused"])
@pytest.mark.parametrize("system", ["lapse", "essp", "nups"])
def test_round_fusion_bit_identical_mf_with_telemetry(system, backend):
    """The default-level tracer rides along on both paths without
    perturbing a bit (an access-level tracer selects the per-call path, see
    ``MF_FALLBACKS``)."""
    _assert_results_identical(
        _experiment("matrix_factorization", system, backend,
                    telemetry="default"),
        _experiment("matrix_factorization", system, "sequential",
                    telemetry="default"),
    )


def _mf_factory(system, task, staleness):
    """The named system with the state the preset leaves untested: a NuPS
    plan that replicates the hottest columns (the presets' 100x-mean plan
    replicates no MF key at all), and a chosen SSP/ESSP staleness bound."""
    if system == "nups":
        plan = ManagementPlan.top_k_by_count(task.access_counts(), 6)
        return make_ps_factory("nups", plan=plan, sync_interval=0.001)
    if system in ("ssp", "essp"):
        def factory(store, cluster, task):
            return ReplicationPS(store, cluster,
                                 protocol=ReplicationProtocol(system),
                                 staleness=staleness)
        return factory
    return make_ps_factory(system)


def _mf_matrix(seeds, tier_one: bool):
    """(system, storage, staleness, seed) cells of the MF differential
    matrix: {classic, lapse, ssp, essp, nups, single-node} x {dense, sparse}
    x staleness {0, 1, 2} (where there is one) x seeds. Tier-1 runs one seed
    and crosses staleness with the dense backend only."""
    for seed in seeds:
        for system in MF_SYSTEMS:
            bounds = (0, 1, 2) if system in ("ssp", "essp") else (None,)
            for storage in (None, SPARSE):
                for staleness in bounds:
                    if tier_one and storage is SPARSE and staleness in (0, 2):
                        continue
                    yield pytest.param(
                        system, storage, staleness, seed,
                        id=f"{system}-{'sparse' if storage else 'dense'}-"
                           f"s{staleness}-{seed}",
                    )


def _check_mf_cell(system, storage, staleness, seed, epochs):
    """Fused == sequential on all state, with a straggler, a chunk size
    that leaves ragged last chunks, and (SSP/ESSP) chunks that mix fresh
    replicas, stale ones and the repeated column key."""
    runs = []
    for backend in ("fused", "sequential"):
        task = make_task("matrix_factorization", scale="test")
        runs.append(_experiment(
            "matrix_factorization", system, backend, storage=storage,
            chunk_size=7, seed=seed, epochs=epochs, straggler=True, task=task,
            factory=_mf_factory(system, task, staleness),
        ))
    fused, sequential = runs
    _assert_results_identical(fused, sequential)
    assert fused.calls == {"pull": 0, "push": 0}
    assert sequential.calls["pull"] > 0 and sequential.calls["push"] > 0
    metrics = sequential.result.metrics
    if system == "nups":
        # The forced plan must route real traffic through the replicas.
        assert metrics["access.pull.replica.local"] > 0
        assert metrics["access.pull.local"] + metrics["access.pull.remote"] > 0
    if system in ("ssp", "essp"):
        assert metrics["access.pull.replica"] > 0
        assert metrics["access.pull.remote"] > 0


@pytest.mark.parametrize("system, storage, staleness, seed",
                         _mf_matrix([5], tier_one=True))
def test_mf_round_bit_identical(system, storage, staleness, seed):
    _check_mf_cell(system, storage, staleness, seed, epochs=2)


@pytest.mark.slow
@pytest.mark.parametrize("system, storage, staleness, seed",
                         _mf_matrix([0, 7, 2 ** 31 - 1], tier_one=False))
def test_mf_round_bit_identical_full_cross(system, storage, staleness, seed):
    _check_mf_cell(system, storage, staleness, seed, epochs=3)


@pytest.mark.parametrize("system", MF_SYSTEMS)
def test_default_config_mf_round_issues_no_pull_or_push(system):
    """Non-vacuity: on every architecture the fused run really is the
    replay path; only the sequential backend calls ``ps.pull``/``ps.push``."""
    assert _experiment("matrix_factorization", system, "fused",
                       epochs=1).calls == {"pull": 0, "push": 0}
    calls = _experiment("matrix_factorization", system, "sequential",
                        epochs=1).calls
    assert calls["pull"] > 0 and calls["push"] > 0


@pytest.mark.parametrize("task_name", ["matrix_factorization", "kge"])
@pytest.mark.parametrize("system", MF_SYSTEMS)
def test_fused_round_matches_the_oracle_round(system, task_name):
    """The production round — each architecture's one charging fold,
    replayed per chunk — against a sequential round on the architecture's
    scalar oracle (``tests/scalar_oracle.py``): independent code, every bit
    of state equal, with a straggler, ragged chunks, NuPS's replicated keys
    and an SSP/ESSP staleness bound of one."""
    runs = []
    for oracle in (False, True):
        task = make_task(task_name, scale="test")
        factory = _mf_factory(system, task, staleness=1)
        if oracle:
            def factory(store, cluster, task, inner=factory):
                return oracle_of(inner(store, cluster, task))
        runs.append(_experiment(
            task_name, system, "sequential" if oracle else "fused",
            chunk_size=7, straggler=True, task=task, factory=factory))
    fused, sequential = runs
    _assert_results_identical(fused, sequential)
    assert fused.calls == {"pull": 0, "push": 0}
    assert sequential.calls["pull"] > 0 and sequential.calls["push"] > 0
    if system == "nups":
        assert sequential.result.metrics["access.pull.replica.local"] > 0


#: One entry per condition under which ``direct_point_charger`` must answer
#: ``None`` for matrix factorization (the list in its docstring).
MF_FALLBACKS = {
    "access-events-ssp": dict(system="ssp", telemetry=True),
    "access-events-classic": dict(system="classic", telemetry=True),
}


@pytest.mark.parametrize("condition", sorted(MF_FALLBACKS))
def test_mf_round_falls_back_to_sequential(condition):
    """Each fallback condition keeps the per-call path (``pull``/``push``
    reach the PS) and leaves results identical to the sequential backend."""
    kwargs = dict(system="nups", epochs=1)
    kwargs.update(MF_FALLBACKS[condition])
    system = kwargs.pop("system")
    fused = _experiment("matrix_factorization", system, "fused", **kwargs)
    sequential = _experiment("matrix_factorization", system, "sequential",
                             **kwargs)
    _assert_results_identical(fused, sequential)
    assert fused.calls["pull"] > 0 and fused.calls["push"] > 0
    assert fused.calls == sequential.calls


def _mf_with_bad_row(bad_key: int):
    dataset = copy.copy(make_task("matrix_factorization", scale="test").dataset)
    cells = dataset.train_cells.copy()
    cells[np.arange(len(cells)) % 97 == 3, 0] = bad_key
    dataset.train_cells = cells
    return MatrixFactorizationTask(dataset)


@pytest.mark.parametrize("bad_key", [10 ** 6, -3])
@pytest.mark.parametrize("system", MF_SYSTEMS)
def test_mf_bad_keys_raise_the_sequential_exception(system, bad_key):
    """A key outside the store raises the sequential path's exception type
    on the replay path too — ``IndexError`` where an owner / replica lookup
    comes first, ``KeyError`` from the store's range check."""
    with pytest.raises((IndexError, KeyError)) as sequential:
        _experiment("matrix_factorization", system, "sequential", epochs=1,
                    task=_mf_with_bad_row(bad_key))
    with pytest.raises(sequential.type):
        _experiment("matrix_factorization", system, "fused", epochs=1,
                    task=_mf_with_bad_row(bad_key))


@pytest.mark.parametrize("scenario_name",
                         ["drift", "churn", "stragglers",
                          "degrading-network"])
@pytest.mark.parametrize("system", ["lapse", "nups"])
def test_round_fusion_composes_with_scenarios(system, scenario_name):
    # Four epochs so that the drift preset (epoch 2) actually rewires the
    # logical-to-physical mapping: post-drift epochs are where a fused path
    # that bypassed the key translation would diverge.
    _assert_results_identical(
        _experiment("matrix_factorization", system, "fused",
                    scenario_name=scenario_name, epochs=4),
        _experiment("matrix_factorization", system, "sequential",
                    scenario_name=scenario_name, epochs=4),
    )


def test_round_fusion_respects_remapped_ps():
    """Post-drift, the interposer must keep fused paths translated.

    Regression: the remapper's ``__getattr__`` used to leak the inner PS's
    ``direct_point_charger``, letting the fused MF walk access
    the raw store with logical keys once the mapping was no longer the
    identity. The fused drift run must keep relocating effectively after the
    drift, exactly like the sequential one.
    """
    fused = _experiment("matrix_factorization", "lapse", "fused",
                        scenario_name="drift", epochs=4)
    sequential = _experiment("matrix_factorization", "lapse", "sequential",
                             scenario_name="drift", epochs=4)
    _assert_results_identical(fused, sequential)
    last = fused.result.records[-1].metrics
    local = last.get("access.pull.local", 0.0) + last.get("access.push.local", 0.0)
    remote = last.get("access.pull.remote", 0.0) + last.get("access.push.remote", 0.0)
    # Relocation re-adapts after the drift: locality dominates again.
    assert local > remote


# ------------------------------------------- sampling tasks: charge replay
def _sampling_ps_builders():
    def nups(store, cluster, scheme_override=None, **kwargs):
        plan = ManagementPlan(store.num_keys,
                              np.array([0, 3, 7, 41, 90], dtype=np.int64))
        config = SamplingConfig(scheme_config=SchemeConfig(pool_size=12,
                                                           use_frequency=3),
                                scheme_override=scheme_override)
        return NuPS(store, cluster, plan=plan, sampling_config=config,
                    sync_interval=0.0005, seed=0, **kwargs)

    def nups_with(**kwargs):
        return lambda store, cluster: nups(store, cluster, **kwargs)

    def nups_relocate_all(store, cluster):
        return NuPS(store, cluster,
                    plan=ManagementPlan.relocate_all(store.num_keys),
                    sync_interval=None, seed=0)

    return {
        "classic": lambda store, cluster: ClassicPS(store, cluster, seed=0),
        "relocation": lambda store, cluster: RelocationPS(store, cluster, seed=0),
        "nups": nups,
        "nups-relocate-all": nups_relocate_all,
        # Keys chosen at pull time, selected by the fold in call order.
        "nups-local": nups_with(scheme_override="local"),
        "nups-repurposing": nups_with(
            scheme_override="direct_access_repurposing"),
        # Application-side sampling: sampling calls charged as direct ones.
        "nups-not-integrated": nups_with(integrate_sampling=False),
        # The sampled support [0, 60) is one key group; the direct keys of
        # ``_sampling_chunks`` come from both.
        "nups-drifted-adaptive": _drifted_adaptive(
            nups, [(0, 60), (60, NUM_KEYS)]),
        "single-node": lambda store, cluster: SingleNodePS(store, cluster),
        **{name: build for name, build in _direct_ps_builders().items()
           if name.startswith(("ssp-", "essp-"))},
    }


def _sampling_chunks(rng, workers, rounds=12):
    """Per (round, worker): ragged points of direct keys, sample counts,
    deltas and compute costs, plus an optional localize hint."""
    plans = []
    for _ in range(rounds):
        for worker in workers:
            points = []
            for _ in range(int(rng.integers(1, 5))):
                n_direct = int(rng.integers(1, 7))
                n_sample = int(rng.integers(0, 3)) * n_direct
                # A small key range: direct keys repeat inside a point and
                # collide with the sampled keys (support [0, 60)).
                direct = rng.integers(0, NUM_KEYS, size=n_direct) \
                    .astype(np.int64)
                deltas = rng.normal(0, 0.01, size=(n_direct + n_sample,
                                                   VALUE_LENGTH)).astype(np.float32)
                points.append((direct, n_sample, deltas, float(rng.random())))
            hint = np.concatenate([p[0] for p in points]) \
                if rng.random() < 0.7 else None
            plans.append((worker.global_worker_id, points, hint))
    return plans


def _replica_mix(ps, worker, keys, direct_widths, sample_widths) -> set:
    """What an SSP/ESSP chunk holds: ``fresh``, ``stale`` and ``missing``
    replicas, ``repeated`` keys, and a key whose first access is a sample
    and a later one direct (``sample-then-direct``)."""
    state = ps._nodes[worker.node_id]
    replicated = state.replica_mask[keys]
    fresh = replicated & (
        state.replica_clock[keys]
        >= state.worker_clocks.get(worker.worker_id, 0) - ps.staleness)
    mix = {label for label, present in (
        ("fresh", fresh.any()), ("stale", (replicated & ~fresh).any()),
        ("missing", not replicated.all()),
        ("repeated", len(set(keys.tolist())) < len(keys))) if present}
    first_sampled = {}
    position = 0
    for n_direct, n_sample in zip(direct_widths, sample_widths):
        for key in keys[position:position + n_direct].tolist():
            if first_sampled.get(key) is True:
                mix.add("sample-then-direct")
            first_sampled.setdefault(key, False)
        for key in keys[position + n_direct:
                        position + n_direct + n_sample].tolist():
            first_sampled.setdefault(key, True)
        position += n_direct + n_sample
    return mix


def _drive_sampling(name, replay: bool):
    """Both sides of one sampling workload; also returns, on the replay
    side of an SSP/ESSP server, the :func:`_replica_mix` of every chunk.
    Each chunk ends in a clock advance, except in the first five rounds
    for a node's second worker: until it clocks, the node neither flushes
    nor refreshes, so ESSP's replicas go stale too, and then its clock
    lags."""
    # Five nodes: a call has up to four serving nodes, whose charging order
    # (ascending) shows in the float sums only from three on.
    cluster = _cluster(num_nodes=1 if name == "single-node" else 5)
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=2, init_scale=0.1)
    ps = _sampling_ps_builders()[name](store, cluster)
    if not replay:
        _scalar(ps)
    distribution_id = ps.register_distribution(UniformDistribution(0, 60),
                                               ConformityLevel.BOUNDED)
    workers = list(cluster.workers())
    workers[1].compute_scale = 2.5  # a straggler: compute is scaled, access not
    plans = _sampling_chunks(np.random.default_rng(17), workers)
    seen = []
    mixes = []
    for index, (worker_key, points, hint) in enumerate(plans):
        worker = cluster.worker(*worker_key)
        if hint is not None:
            ps.localize(worker, hint)  # in flight when the chunk starts
        total = sum(p[1] for p in points)
        if replay:
            charger = ps.direct_point_charger(distribution_id)
            samples = charger.take_samples(
                ps.prepare_sample(worker, distribution_id, total)
                if total else None)
            taken = 0
            keys = []
            for direct, n_sample, _, _ in points:
                keys += [direct, samples[taken:taken + n_sample]]
                taken += n_sample
            keys = np.concatenate(keys)
            direct_widths = [len(p[0]) for p in points]
            sample_widths = [p[1] for p in points]
            if isinstance(ps, ReplicationPS):
                mixes.append(_replica_mix(ps, worker, keys, direct_widths,
                                          sample_widths))
            charger.charge_chunk(worker, keys, point_calls(
                direct_widths, sample_widths, [p[3] for p in points]))
            lo = 0
            for direct, n_sample, deltas, _ in points:
                hi = lo + len(direct) + n_sample
                seen.append(charger.read(lo, hi))
                charger.add(lo, hi, deltas)
                lo = hi
            charger.finish()
        else:
            stream = SampleStream(ps, worker, distribution_id, total)
            for direct, n_sample, deltas, compute in points:
                pulled = ps.pull(worker, direct)
                negatives = stream.next(n_sample)
                seen.append(np.concatenate([pulled, negatives.values]))
                ps.push(worker, direct, deltas[:len(direct)])
                stream.push_updates(negatives.keys, deltas[len(direct):])
                worker.charge_compute(compute)
        if worker.worker_id == 0 or index // len(workers) >= 5:
            ps.advance_clock(worker)
        if index % len(workers) == len(workers) - 1:
            ps.housekeeping(cluster.time)
    ps.finish_epoch()
    return cluster, ps, seen, mixes


@pytest.mark.parametrize("name", sorted(_sampling_ps_builders()))
def test_point_charger_replays_sampling_calls(name):
    """``charge_chunk`` + ``read``/``add`` == the four calls per
    point on the scalar oracle, on ragged points with repeated keys, in-flight relocations,
    replicated keys, a straggler and — on SSP/ESSP at each staleness bound
    — chunks that mix fresh, stale, missing and repeated keys, with a key
    sampled before it is accessed directly, and flushes and eager refreshes
    between the chunks."""
    replay_cluster, replay_ps, replay_seen, mixes = _drive_sampling(name, True)
    call_cluster, call_ps, call_seen, _ = _drive_sampling(name, False)
    _assert_cluster_identical(replay_cluster, call_cluster)
    _assert_ps_state_identical(replay_ps, call_ps)
    assert len(replay_seen) == len(call_seen)
    for replayed, called in zip(replay_seen, call_seen):
        assert replayed.tobytes() == called.tobytes()
    if isinstance(call_ps, RelocationPS):
        # The workload must exercise the wait-for-arrival fold.
        assert call_cluster.metrics.get("relocation.waits") > 0
    if name == "nups-drifted-adaptive":
        _assert_drifted_adaptive_ran(call_ps)
    if isinstance(call_ps, ReplicationPS):
        wanted = [{"fresh", "stale", "missing", "repeated"}]
        if name == "essp-s0":
            # A replica is fresh at staleness 0 only at the clock it was
            # installed at, and ESSP reinstalls a node's replicas at the
            # node clock on every clock advance: no chunk of this schedule
            # holds fresh and stale replicas at once.
            wanted = [{"fresh", "missing", "repeated"},
                      {"stale", "missing", "repeated"}]
        for labels in wanted:
            assert any(labels <= mix for mix in mixes)
        assert any("sample-then-direct" in mix for mix in mixes)
        assert call_cluster.metrics.get("replication.flushes") > 0
        if call_ps.protocol is ReplicationProtocol.ESSP:
            assert call_cluster.metrics.get("replication.eager_refreshes") > 0


def test_chunk_values_checks_keys_per_chunk_and_deltas_per_point():
    cluster = _cluster()
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=2, init_scale=0.1)
    charger = ClassicPS(store, cluster, seed=0).direct_point_charger(0)
    worker = cluster.worker(0, 0)
    with pytest.raises(IndexError):  # the owner lookup, as in ps.pull
        charger.charge_chunk(worker, np.array([1, NUM_KEYS + 3]),
                             point_calls([1], [1], [0.0]))
    with pytest.raises(KeyError):
        charger.charge_chunk(worker, np.array([1, -2]),
                             point_calls([1], [1], [0.0]))
    charger.charge_chunk(worker, np.array([5, 9, 5]),
                         point_calls([2], [1], [0.0]))
    with pytest.raises(ValueError, match="deltas must have shape"):
        charger.add(0, 3, np.zeros((2, VALUE_LENGTH), dtype=np.float32))
    before = store.get(np.array([5, 9]))
    charger.add(0, 3, np.ones((3, VALUE_LENGTH), dtype=np.float32))
    # Key 5 occurs twice in the point: both deltas land, in order.
    assert np.array_equal(store.get(np.array([5, 9])),
                          before + np.array([[2.0], [1.0]], dtype=np.float32))
    assert store.read_versions([5])[0] == 2 and store.read_versions([9])[0] == 1


SAMPLING_SYSTEMS = ["classic", "lapse", "ssp", "essp", "nups"]


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("system", SAMPLING_SYSTEMS)
def test_round_fusion_bit_identical_kge(system, telemetry):
    _assert_results_identical(
        _experiment("kge", system, "fused", telemetry=telemetry),
        _experiment("kge", system, "sequential", telemetry=telemetry),
    )


@pytest.mark.parametrize("system", SAMPLING_SYSTEMS)
def test_round_fusion_bit_identical_word_vectors(system):
    _assert_results_identical(
        _experiment("word_vectors", system, "fused"),
        _experiment("word_vectors", system, "sequential"),
    )


@pytest.mark.parametrize("task", ["kge", "word_vectors"])
def test_single_node_replays_the_sampling_tasks(task):
    """The single-node charger has the sampling shape too."""
    fused = _experiment(task, "single-node", "fused", epochs=1)
    _assert_results_identical(
        fused, _experiment(task, "single-node", "sequential", epochs=1))
    assert fused.calls == {"pull": 0, "push": 0}


def _sampling_matrix(seeds, tier_one: bool):
    """(task, system, storage, chunk_size, seed) cells of the differential
    matrix: {kge, wv} x {classic, lapse, ssp, essp, nups} x {dense, sparse}
    x chunk size {1, 8, 32} x seeds. Tier-1 runs one seed and, per system,
    one task at each chunk size off 8 plus both tasks on the sparse backend;
    the dense chunk-size-8 cells are the two tests above."""
    for seed in seeds:
        for task in ("kge", "word_vectors"):
            for system in SAMPLING_SYSTEMS:
                for storage in (None, SPARSE):
                    for chunk_size in (1, 8, 32):
                        if tier_one and (storage, chunk_size) not in (
                                (SPARSE, 8),
                                (None, 1 if task == "kge" else 32)):
                            continue
                        yield pytest.param(
                            task, system, storage, chunk_size, seed,
                            id=f"{task}-{system}-"
                               f"{'sparse' if storage else 'dense'}-"
                               f"{chunk_size}-{seed}",
                        )


def _check_sampling_cell(task, system, storage, chunk_size, seed, epochs):
    fused = _experiment(task, system, "fused", storage=storage,
                        chunk_size=chunk_size, seed=seed, epochs=epochs)
    sequential = _experiment(task, system, "sequential", storage=storage,
                             chunk_size=chunk_size, seed=seed, epochs=epochs)
    _assert_results_identical(fused, sequential)
    assert fused.calls == {"pull": 0, "push": 0}
    assert sequential.calls["pull"] > 0 and sequential.calls["push"] > 0


@pytest.mark.parametrize("task, system, storage, chunk_size, seed",
                         _sampling_matrix([5], tier_one=True))
def test_sampling_round_bit_identical(task, system, storage, chunk_size, seed):
    _check_sampling_cell(task, system, storage, chunk_size, seed, epochs=1)


@pytest.mark.slow
@pytest.mark.parametrize("task, system, storage, chunk_size, seed",
                         _sampling_matrix([0, 7, 2 ** 31 - 1], tier_one=False))
def test_sampling_round_bit_identical_full_cross(task, system, storage,
                                                 chunk_size, seed):
    _check_sampling_cell(task, system, storage, chunk_size, seed, epochs=2)


@pytest.mark.parametrize("task, system, scenario_name", [
    ("kge", "nups", "stragglers"),
    ("kge", "nups", "crash-storm"),
    ("kge", "lapse", "degrading-network"),
    ("word_vectors", "lapse", "churn"),
    ("word_vectors", "nups", "autoscale-storm"),
])
def test_sampling_round_composes_with_scenarios(task, system, scenario_name):
    """Scenarios that leave the PS unwrapped keep the replay path: scaled
    compute, paused workers, a changing network, and — the relocation family
    waits natively — crashes and membership changes between rounds."""
    fused = _experiment(task, system, "fused", scenario_name=scenario_name)
    sequential = _experiment(task, system, "sequential",
                             scenario_name=scenario_name)
    _assert_results_identical(fused, sequential)
    assert fused.calls == {"pull": 0, "push": 0}


@pytest.mark.parametrize("system", SAMPLING_SYSTEMS)
def test_default_config_kge_round_issues_no_pull_or_push(system):
    """Non-vacuity: the fused run really is the replay path. A default
    configuration moves every value through the point charger; only the
    sequential backend calls ``ps.pull`` / ``ps.push``."""
    assert _experiment("kge", system, "fused", epochs=1).calls \
        == {"pull": 0, "push": 0}
    calls = _experiment("kge", system, "sequential", epochs=1).calls
    assert calls["pull"] > 0 and calls["push"] > 0


def _nups_factory(**overrides):
    return make_ps_factory("nups", **overrides)


#: One entry per condition under which ``direct_point_charger`` must answer
#: ``None`` for a sampling task (the list in its docstring).
SAMPLING_FALLBACKS = {
    "postponing-scheme": dict(
        factory=_nups_factory(scheme_override="sample_reuse_postponing")),
    "access-events": dict(task="word_vectors", system="lapse", telemetry=True),
}


@pytest.mark.parametrize("condition", sorted(SAMPLING_FALLBACKS))
def test_sampling_round_falls_back_to_sequential(condition):
    """Each fallback condition keeps the per-call path (``pull``/``push``
    reach the PS) and leaves results identical to the sequential backend."""
    kwargs = dict(task="kge", system="nups", epochs=1)
    kwargs.update(SAMPLING_FALLBACKS[condition])
    task, system = kwargs.pop("task"), kwargs.pop("system")
    fused = _experiment(task, system, "fused", **kwargs)
    sequential = _experiment(task, system, "sequential", **kwargs)
    _assert_results_identical(fused, sequential)
    assert fused.calls["pull"] > 0 and fused.calls["push"] > 0
    assert fused.calls == sequential.calls


#: Sampling whose keys are chosen at pull time (local sampling, direct-access
#: repurposing) or in application code (``integrate_sampling=False``): the
#: NuPS fold selects them itself.
PULL_TIME_SAMPLING = {
    "local-scheme": dict(factory=_nups_factory(scheme_override="local")),
    "repurposing-scheme": dict(
        factory=_nups_factory(scheme_override="direct_access_repurposing")),
    "sampling-not-integrated": dict(system="relocation+replication"),
}


@pytest.mark.parametrize("storage", [None, SPARSE], ids=["dense", "sparse"])
@pytest.mark.parametrize("task", ["kge", "word_vectors"])
@pytest.mark.parametrize("condition", sorted(PULL_TIME_SAMPLING))
def test_pull_time_sampling_round_replays(condition, task, storage):
    """No ``pull``/``push`` reaches the PS, and results and state equal the
    sequential backend's, which issues every call."""
    kwargs = dict(system="nups", epochs=1, storage=storage)
    kwargs.update(PULL_TIME_SAMPLING[condition])
    system = kwargs.pop("system")
    fused = _experiment(task, system, "fused", **kwargs)
    sequential = _experiment(task, system, "sequential", **kwargs)
    _assert_results_identical(fused, sequential)
    assert fused.calls == {"pull": 0, "push": 0}
    assert sequential.calls["pull"] > 0 and sequential.calls["push"] > 0


# ------------------------------- wrapped and observed parameter servers
WRAPPED_TASKS = ("matrix_factorization", "kge", "word_vectors")
WRAPPED_KINDS = ("drift", "crash-storm", "split-brain")


def _wrapped_cell(task, kind):
    """``(system, factory, scenario)`` of one wrapped cell.

    ``drift``: ``nups-adaptive`` below the key remapper; the mapping turns
    at epoch 1 without the oracle's re-management, so only the online top-k
    policy, fed by a statistics tap small enough to evict all the time,
    re-targets the six replicas. ``crash-storm``: SSP, a statically
    partitioned PS, behind the dead-owner gate. ``split-brain``: NuPS
    behind the partition guard, with replicas that the heal has to flush
    and reload.
    """
    plan = ManagementPlan.top_k_by_count(task.access_counts(), 6)
    if kind == "drift":
        adaptive = AdaptiveConfig(
            policy="top-k", top_k=6, period=0.002, half_life=0.004,
            warmup_observations=100)
        nups = make_ps_factory("nups", plan=plan, sync_interval=0.001)

        def factory(store, cluster, task):
            ps = nups(store, cluster, task)
            install_tap(ps, adaptive, SKETCH_SLOTS)
            return ps
        return "nups-adaptive", factory, make_scenario(
            "drift", at=((1, 0),), oracle_remanage=False)
    if kind == "crash-storm":
        return "ssp", make_ps_factory("ssp"), make_scenario("crash-storm")
    factory = make_ps_factory("nups", plan=plan, sync_interval=0.001)
    return "nups", factory, make_scenario("split-brain")


def _wrapped_matrix(seeds, tier_one: bool):
    """(task, kind, storage, seed) cells: {MF, KGE, WV} x {drift,
    crash-storm, split-brain} x {dense, sparse} x seeds. Tier-1 runs one
    seed and the sparse backend only where the scenario restructures it
    (MF under drift: ``permute`` densifies the store)."""
    for seed in seeds:
        for task in WRAPPED_TASKS:
            for kind in WRAPPED_KINDS:
                for storage in (None, SPARSE):
                    if tier_one and storage is SPARSE and (task, kind) != (
                            "matrix_factorization", "drift"):
                        continue
                    yield pytest.param(
                        task, kind, storage, seed,
                        id=f"{task}-{kind}-"
                           f"{'sparse' if storage else 'dense'}-{seed}",
                    )


def _check_wrapped_cell(task_name, kind, storage, seed, epochs):
    """Fused == sequential behind the interposer and under the tap, on all
    state including the sketch; the fused run issues ``pull``/``push`` only
    from the rounds the runner degrades."""
    runs = {}
    for backend in ("fused", "sequential"):
        task = make_task(task_name, scale="test")
        system, factory, scenario = _wrapped_cell(task, kind)
        runs[backend] = _experiment(
            task_name, system, backend, scenario=scenario, storage=storage,
            chunk_size=7, seed=seed, epochs=epochs, task=task,
            factory=factory,
            # Four nodes: two can crash at once, and a majority side of
            # three owns keys that its own workers can still reach.
            num_nodes=4)
    fused, sequential = runs["fused"], runs["sequential"]
    assert sequential.calls["pull"] > 0 and sequential.calls["push"] > 0
    _assert_results_identical(fused, sequential)
    if kind == "drift":
        assert fused.calls == {"pull": 0, "push": 0}
    else:
        # Per call only while a node is down / the partition is live.
        assert fused.calls == sequential.degraded_calls
        for name, count in fused.calls.items():
            assert count < sequential.calls[name]
    if kind == "drift":
        # The mapping is not the identity while fused rounds run (from
        # epoch 1), the sketch is full and evicting, the policy re-manages.
        drifts = [record.metrics.get("scenario.drifts", 0)
                  for record in sequential.result.records]
        assert drifts[:2] == [0, 1] and sum(drifts) == 1
        controller = sequential.ps.adaptive_controller
        assert controller.adaptations > 0
        assert len(controller.stats.sketch) == SKETCH_SLOTS
    elif kind == "crash-storm":
        assert sequential.result.metrics["faults.crashes"] > 0
        assert min(sequential.degraded_calls.values()) > 0
    else:
        # The guard rejects a majority call before it reaches the PS and
        # serves the minority itself, so few calls (on KGE none) get through.
        metrics = sequential.result.metrics
        assert metrics["elastic.partition_heals"] == 1
        assert metrics["elastic.stale_reads"] > 0
        assert metrics["elastic.deferred_chunks"] > 0
        if task_name == "matrix_factorization":
            assert min(sequential.degraded_calls.values()) > 0


@pytest.mark.parametrize("task, kind, storage, seed",
                         _wrapped_matrix([5], tier_one=True))
def test_wrapped_round_bit_identical(task, kind, storage, seed):
    _check_wrapped_cell(task, kind, storage, seed, epochs=2)


@pytest.mark.slow
@pytest.mark.parametrize("task, kind, storage, seed",
                         _wrapped_matrix([0, 7, 2 ** 31 - 1], tier_one=False))
def test_wrapped_round_bit_identical_full_cross(task, kind, storage, seed):
    _check_wrapped_cell(task, kind, storage, seed, epochs=3)


#: The presets that were fallback conditions until the interposer and the tap
#: joined the replay path, as users run them: the default tap (512 slots,
#: hot-spot policy), the drift preset (epoch 2) over ESSP and NuPS, the
#: crash-storm preset behind the dead-owner gate.
WRAPPED_PRESETS = {
    "mf-access-observer": dict(task="matrix_factorization",
                               system="nups-adaptive"),
    "mf-drift-remap": dict(task="matrix_factorization", system="essp",
                           scenario_name="drift", epochs=3),
    "mf-fault-proxy": dict(task="matrix_factorization", system="ssp",
                           scenario_name="crash-storm"),
    "kge-access-observer": dict(task="kge", system="nups-adaptive"),
    "kge-drift-remap": dict(task="kge", system="nups", scenario_name="drift",
                            epochs=3),
    "kge-fault-proxy": dict(task="kge", system="classic",
                            scenario_name="crash-storm"),
    # Local sampling behind the key remapper: selected in physical keys.
    "kge-tuned-drift-remap": dict(task="kge", system="nups-tuned",
                                  scenario_name="drift", epochs=3),
    "wv-tuned-drift-remap-sparse": dict(
        task="word_vectors", system="nups-tuned", scenario_name="drift",
        epochs=3, storage=SPARSE),
}


@pytest.mark.parametrize("preset", sorted(WRAPPED_PRESETS))
def test_wrapped_presets_take_the_replay_path(preset):
    """Identical to the sequential backend, and ``pull``/``push`` reach the
    PS only from the rounds the runner degrades (none without faults)."""
    kwargs = dict(epochs=1)
    kwargs.update(WRAPPED_PRESETS[preset])
    task, system = kwargs.pop("task"), kwargs.pop("system")
    fused = _experiment(task, system, "fused", **kwargs)
    sequential = _experiment(task, system, "sequential", **kwargs)
    _assert_results_identical(fused, sequential)
    assert fused.calls == sequential.degraded_calls
    for name, count in fused.calls.items():
        assert count < sequential.calls[name]
    assert (sequential.degraded_calls["pull"] > 0) \
        == preset.endswith("fault-proxy")
    if "drift" in preset:
        assert fused.result.metrics["scenario.drifts"] == 1


def _proxied_world(condition, task_name="matrix_factorization",
                   system="classic"):
    """A PS behind the interposer with one gate condition set, or after a
    planned removal, a round of work for workers the condition lets through,
    and the number of ``pull`` calls that reached the interposer."""
    task = make_task(task_name, scale="test")
    cluster = Cluster(ClusterConfig(num_nodes=3, workers_per_node=2))
    store = task.create_store(seed=5)
    if system == "classic":
        ps = ClassicPS(store, cluster, seed=0)
    else:
        ps = ReplicationPS(store, cluster, protocol=ReplicationProtocol.SSP,
                           staleness=1, seed=0)
    proxy = ScenarioParameterServer(ps)
    task.register_sampling(proxy)
    if condition == "partition-live":
        # Minority workers: stale reads and buffered writes, no rejection.
        proxy.partition = PartitionState(ps, {2}, cluster.time)
        nodes = [2]
    elif condition == "node-down":
        proxy.controller = MembershipController(ps, start_time=cluster.time)
        proxy.controller.crash_node(2, cluster.time)
        nodes = [0, 1]
    else:
        MembershipController(ps).scale_in(2, cluster.time)
        nodes = [0, 1]
    pulls = []
    pull = proxy.pull

    def counted_pull(worker, keys):
        pulls.append(len(keys))
        return pull(worker, keys)

    proxy.pull = counted_pull
    shards = task.create_shards(3, 2, seed=5)
    items = [
        RoundWorkItem(cluster.worker(node, worker_id), shard[:8], shard[8:16])
        for node in nodes for worker_id, shard in enumerate(shards[node])
    ]
    return task, cluster, proxy, items, pulls


@pytest.mark.parametrize("condition", ["partition-live", "node-down"])
def test_fault_proxy_gate_conditions_keep_the_per_call_path(condition):
    """While a gate of the interposer can fire it hands out no charger, and
    a round asked of the task runs call by call through the gates, exactly
    like the per-call oracle."""
    task, cluster, proxy, items, pulls = _proxied_world(condition)
    assert proxy.direct_point_charger() is None
    assert proxy.direct_point_charger(0) is None
    task.process_round(proxy, items)
    assert len(pulls) == sum(len(item.chunk) for item in items) > 0

    twin_task, twin_cluster, twin_proxy, twin_items, _ = _proxied_world(condition)
    sequential_rounds(twin_task).process_round(twin_proxy, twin_items)
    _assert_cluster_identical(cluster, twin_cluster)
    _assert_ps_state_identical(proxy, twin_proxy)
    metrics = cluster.metrics
    if condition == "partition-live":
        assert metrics.get("elastic.stale_reads") == 2 * len(pulls)
    else:
        assert metrics.get("faults.retries") > 0


@pytest.mark.parametrize("system", ["classic", "ssp"])
@pytest.mark.parametrize("task_name", ["matrix_factorization", "kge"])
def test_planned_removal_behind_the_interposer_replays(task_name, system):
    """After a proper scale-in no key routes at the removed node, so no gate
    can fire: the interposer hands out the inner PS's charger, and the fused
    round is bit-identical to the per-call oracle in cluster and PS
    state."""
    task, cluster, proxy, items, pulls = _proxied_world(
        "member-removed", task_name, system)
    assert cluster.removed == {2}
    distribution_id = getattr(task, "_distribution_id", None)
    charger = proxy.direct_point_charger(distribution_id)
    assert type(charger) is type(proxy.inner.direct_point_charger(
        distribution_id))
    assert charger is not None
    task.process_round(proxy, items)
    assert pulls == []

    twin_task, twin_cluster, twin_proxy, twin_items, twin_pulls = \
        _proxied_world("member-removed", task_name, system)
    sequential_rounds(twin_task).process_round(twin_proxy, twin_items)
    assert len(twin_pulls) > 0
    _assert_cluster_identical(cluster, twin_cluster)
    _assert_ps_state_identical(proxy, twin_proxy)


def test_only_postponing_keeps_sampling_on_the_per_call_path():
    """NuPS hands out its fold charger for every scheme but postponing, and
    without integrated sampling."""
    cluster = _cluster()

    def answers(**kwargs):
        ps = NuPS(ParameterStore(NUM_KEYS, VALUE_LENGTH), cluster, seed=0,
                  **kwargs)
        distribution_id = ps.register_distribution(
            UniformDistribution(0, 60), ConformityLevel.CONFORM)
        return ps.direct_point_charger(distribution_id) is not None

    folds = {name: answers(sampling_config=SamplingConfig(
        scheme_override=name)) for name in SCHEMES_BY_NAME}
    folds["not-integrated"] = answers(integrate_sampling=False)
    assert folds == {
        "independent": True,
        "sample_reuse": True,
        "sample_reuse_postponing": False,
        "local": True,
        "direct_access_repurposing": True,
        "not-integrated": True,
    }


def _pull_time_chunks(scheme_override, chunks, fold, between=None):
    """Node 0's worker runs ``chunks`` — each a list of points ``(direct
    keys, sample count)`` — on a two-node NuPS whose samples come from
    ``scheme_override``, through the fold charger or call by call on the
    scalar oracle; ``between(ps, cluster)`` runs before the second chunk.
    Returns the cluster, the PS, the sample keys per point and the values
    each point read."""
    cluster = _cluster(num_nodes=2, workers_per_node=1)
    store = ParameterStore(NUM_KEYS, VALUE_LENGTH, seed=2, init_scale=0.1)
    ps = NuPS(store, cluster,
              plan=ManagementPlan(NUM_KEYS, np.array([1, 2, 50])),
              sampling_config=SamplingConfig(scheme_override=scheme_override),
              sync_interval=None, seed=0)
    if not fold:
        _scalar(ps)
    distribution_id = ps.register_distribution(UniformDistribution(0, 60),
                                               ConformityLevel.NON_CONFORM)
    worker = cluster.worker(0, 0)
    sampled, seen = [], []
    for index, points in enumerate(chunks):
        if index == 1 and between is not None:
            between(ps, cluster)
        total = sum(n_sample for _, n_sample in points)
        deltas = [np.full((len(direct) + n_sample, VALUE_LENGTH),
                          0.01 * (point + 1), dtype=np.float32)
                  for point, (direct, n_sample) in enumerate(points)]
        if fold:
            charger = ps.direct_point_charger(distribution_id)
            samples = charger.take_samples(
                ps.prepare_sample(worker, distribution_id, total))
            assert (samples == -1).all()  # selected by charge_chunk
            keys, taken = [], 0
            for direct, n_sample in points:
                keys += [np.asarray(direct, dtype=np.int64),
                         samples[taken:taken + n_sample]]
                taken += n_sample
            keys = np.concatenate(keys)
            charger.charge_chunk(worker, keys, point_calls(
                [len(p[0]) for p in points], [p[1] for p in points],
                [0.5] * len(points)))
            lo = 0
            for (direct, n_sample), point_deltas in zip(points, deltas):
                hi = lo + len(direct) + n_sample
                sampled.append(keys[lo + len(direct):hi].tolist())
                seen.append(charger.read(lo, hi))
                charger.add(lo, hi, point_deltas)
                lo = hi
            charger.finish()
        else:
            stream = SampleStream(ps, worker, distribution_id, total)
            for (direct, n_sample), point_deltas in zip(points, deltas):
                direct = np.asarray(direct, dtype=np.int64)
                pulled = ps.pull(worker, direct)
                negatives = stream.next(n_sample)
                sampled.append(negatives.keys.tolist())
                seen.append(np.concatenate([pulled, negatives.values]))
                ps.push(worker, direct, point_deltas[:len(direct)])
                stream.push_updates(negatives.keys,
                                    point_deltas[len(direct):])
                worker.charge_compute(0.5)
    return cluster, ps, sampled, seen


def _assert_pull_time_twins_identical(fold_run, call_run) -> None:
    (fold_cluster, fold_ps, fold_sampled, fold_seen), \
        (call_cluster, call_ps, call_sampled, call_seen) = fold_run, call_run
    assert fold_sampled == call_sampled
    assert [v.tobytes() for v in fold_seen] == [v.tobytes() for v in call_seen]
    _assert_cluster_identical(fold_cluster, call_cluster)
    _assert_ps_state_identical(fold_ps, call_ps)


def test_local_sampling_redraws_and_refreshes_inside_one_chunk():
    """Node 1 relocates half of node 0's sampled support away after node
    0's sampler cached it. In node 0's next chunk, the first selection
    finds stale keys and redraws them, and a later one crosses
    ``LOCAL_REFRESH_INTERVAL`` and re-reads the support: the fold selects,
    charges and updates exactly as the per-call path."""
    def steal(ps, cluster):
        ps.localize(cluster.worker(1, 0), np.arange(0, 60, 2))

    # One point with a sample; then 30 points of 20 samples (fewer than
    # the 32 local keys left): after the first point's redraw, 26 more
    # reach the interval.
    chunks = [[([70], 1)], [([70 + point % 3, point], 20)
                            for point in range(30)]]
    refreshes, stale = [], []

    def observe(ps):
        scheme = ps.sampling_manager.scheme_for(0)
        refresh, keys_are_local = scheme._refresh, ps.keys_are_local

        def recording_refresh(node_id, state):
            refreshes.append(state.samples_since_refresh)
            refresh(node_id, state)

        def recording_keys_are_local(node_id, keys):
            local = keys_are_local(node_id, keys)
            stale.append(int((~local).sum()))
            return local

        scheme._refresh = recording_refresh
        ps.keys_are_local = recording_keys_are_local

    fold_run = _pull_time_chunks(
        "local", chunks, fold=True,
        between=lambda ps, cluster: (steal(ps, cluster), observe(ps)))
    _assert_pull_time_twins_identical(
        fold_run, _pull_time_chunks("local", chunks, fold=False,
                                    between=steal))
    # Within the second chunk: a stale draw redrawn, then the interval.
    assert stale[0] > 0 and sum(stale[1:]) == 0
    assert refreshes[0] < LOCAL_REFRESH_INTERVAL <= max(refreshes[1:])
    assert all(key % 2 or key in (2, 50)
               for point in fold_run[2][1:] for key in point)


def test_repurposing_samples_a_key_the_same_chunk_pulled_directly():
    """Direct-access repurposing draws from the node's recent direct
    accesses: a later point of a chunk samples a key that an earlier point
    of the same chunk pulled directly, as call by call."""
    chunks = [[([10], 0)],  # the recent buffer, before the chunk: key 10
              [([70], 4), ([33, 71], 4), ([72], 6)]]
    fold_run = _pull_time_chunks("direct_access_repurposing", chunks,
                                 fold=True)
    _assert_pull_time_twins_identical(
        fold_run, _pull_time_chunks("direct_access_repurposing", chunks,
                                    fold=False))
    sampled = fold_run[2]
    assert sampled[1] == [10] * 4  # only key 10 is in the support yet
    assert 33 in sampled[2] + sampled[3]


class _BadSamples(UniformDistribution):
    """A distribution that slips one fixed key into every draw."""

    def __init__(self, support: int, bad_key: int) -> None:
        super().__init__(0, support)
        self.bad_key = bad_key

    def sample(self, rng, size):
        keys = super().sample(rng, size)
        if len(keys):
            keys[len(keys) // 2] = self.bad_key
        return keys


def _kge_with_bad_key(where: str, bad_key: int):
    task = make_task("kge", scale="test")
    if where == "dataset":
        triples = task.graph.train_triples.copy()
        triples[:, 0] = np.where(np.arange(len(triples)) % 97 == 3, bad_key,
                                 triples[:, 0])
        task.graph.train_triples = triples
    else:
        def register_sampling(ps, task=task):
            task._distribution_id = ps.register_distribution(
                _BadSamples(task.graph.num_entities, bad_key),
                task.sampling_level)
        task.register_sampling = register_sampling
    return task


@pytest.mark.parametrize("where", ["dataset", "sample"])
@pytest.mark.parametrize("bad_key, error", [(10 ** 6, IndexError),
                                            (-3, KeyError)])
@pytest.mark.parametrize("system", SAMPLING_SYSTEMS)
def test_bad_keys_raise_the_sequential_exception(system, bad_key, error, where):
    """Error paths keep their checks: a key outside the store raises the
    sequential path's exception type on the replay path too — ``IndexError``
    from the owner lookup, ``KeyError`` from the store's range check."""
    for backend in ("sequential", "fused"):
        with pytest.raises(error):
            _experiment("kge", system, backend, epochs=1,
                        task=_kge_with_bad_key(where, bad_key))


# ------------------------------------------------------------ worker queues
class TestWorkerQueue:
    def _queue_with_appends(self):
        queue = _WorkerQueue(np.arange(5, dtype=np.int64))
        queue.append(np.arange(100, 104, dtype=np.int64))
        queue.append(np.arange(200, 203, dtype=np.int64))
        return queue

    def test_peek_then_take_crosses_appends(self):
        queue = self._queue_with_appends()
        peeked = queue.peek(8)
        assert list(queue.peek(8)) == list(peeked)
        taken = queue.take(8)
        assert list(taken) == [0, 1, 2, 3, 4, 100, 101, 102]
        assert list(queue.take(10)) == [103, 200, 201, 202]
        assert len(queue) == 0

    def test_append_extends_a_short_peek(self):
        queue = self._queue_with_appends()
        short = queue.peek(20)  # 12 elements: everything pending
        assert len(short) == 12
        queue.append(np.array([7], dtype=np.int64))
        extended = queue.peek(20)
        assert len(extended) == 13
        assert list(queue.take(20)) == list(extended)

    def test_take_after_a_longer_peek(self):
        queue = self._queue_with_appends()
        queue.peek(8)
        assert list(queue.take(6)) == [0, 1, 2, 3, 4, 100]
        assert list(queue.peek(3)) == [101, 102, 103]

    def test_behavior_matches_uncached_reference(self):
        rng = np.random.default_rng(3)
        queue = _WorkerQueue(rng.integers(0, 50, size=7).astype(np.int64))
        mirror = []  # flat reference
        mirror.extend(queue.peek(100).tolist())
        for _ in range(6):
            count = int(rng.integers(1, 5))
            if rng.random() < 0.4:
                extra = rng.integers(0, 50, size=int(rng.integers(1, 4))) \
                    .astype(np.int64)
                queue.append(extra)
                mirror.extend(extra.tolist())
            assert queue.peek(count).tolist() == mirror[:count]
            assert queue.take(count).tolist() == mirror[:count]
            del mirror[:count]
            assert len(queue) == len(mirror)

    @pytest.mark.parametrize("seed", range(4))
    def test_epoch_queues_match_lists_under_drain_redistribute_requeue(
            self, seed):
        """Every queue of an epoch against a plain list: chunks taken and
        peeked, a paused worker's rest redistributed over the others (the
        churn path), a taken chunk re-queued at its worker's back (the
        partition path), an emptied queue appended to again."""
        rng = np.random.default_rng(seed)
        Worker = namedtuple("Worker", "node_id worker_id")
        workers = [Worker(node, slot) for node in range(2) for slot in range(2)]
        shards = [[rng.integers(0, 1000, size=int(rng.integers(0, 30)))
                   .astype(np.int64) for _ in range(2)] for _ in range(2)]
        state = experiment_module._EpochState(workers, shards, chunk_size=4)
        lists = {(w.node_id, w.worker_id): shards[w.node_id][w.worker_id]
                 .tolist() for w in workers}
        keys = list(lists)
        for _ in range(60):
            key = keys[int(rng.integers(len(keys)))]
            op = rng.random()
            if op < 0.5:
                chunk = state.take_chunk(key)
                assert chunk.tolist() == lists[key][:4]
                del lists[key][:4]
                if len(chunk) and rng.random() < 0.3:  # deferred: re-queue
                    state.queues[key].append(chunk)
                    lists[key].extend(chunk.tolist())
            elif op < 0.8:
                assert state.peek_chunk(key).tolist() == lists[key][:4]
            else:
                active = [k for k in keys if rng.random() < 0.7]
                state.redistribute(key, active)
                receivers = [k for k in active if k != key]
                if receivers:
                    rest, lists[key] = lists[key], []
                    for receiver, part in zip(receivers, np.array_split(
                            np.asarray(rest, dtype=np.int64),
                            len(receivers))):
                        lists[receiver].extend(part.tolist())
            for k in keys:
                assert len(state.queues[k]) == len(lists[k])
                assert state.queues[k].peek(1000).dtype == np.int64
            assert state.has_pending() == any(lists.values())
        for k in keys:
            assert state.queues[k].drain().tolist() == lists[k]
            assert len(state.queues[k]) == 0


# ---------------------------------------------------- round accounting flush
class TestRoundAccountingFlush:
    @pytest.mark.parametrize("seed", range(3))
    def test_flush_equals_the_writes_one_by_one(self, seed):
        """One flush writes the same counters and dirty set as the adds
        written one by one, zero entries skipped, and advances each server
        clock as its adds' occupancies would, one at a time."""
        rng = np.random.default_rng(seed)
        kinds = ["pull.local", "push.local", "pull.remote", "push.replica",
                 "sample.local"]
        names = ["network.messages", "network.bytes", "relocation.waits"]
        occupancy = 0.1 + rng.random()
        flushed, sequence = Cluster(ClusterConfig(num_nodes=3)), \
            Cluster(ClusterConfig(num_nodes=3))
        for node_id in range(3):
            start = float(rng.random())
            flushed.node(node_id).server_clock.advance(start)
            sequence.node(node_id).server_clock.advance(start)
        acc = RoundAccounting()
        metrics = sequence.metrics
        for _ in range(300):
            amount = int(rng.integers(0, 4))
            draw = rng.random()
            if draw < 0.5:
                kind = kinds[int(rng.integers(len(kinds)))]
                acc.add_access(kind, amount)
                if amount:
                    metrics.record_access(kind, amount)
            elif draw < 0.8:
                name = names[int(rng.integers(len(names)))]
                acc.add_counter(name, amount)
                if amount:
                    metrics.increment(name, amount)
            else:
                server = int(rng.integers(3))
                acc.add_server(server, amount)
                for _ in range(amount):
                    sequence.node(server).server_clock.advance(occupancy)
        acc.flush(namedtuple("PS", "cluster metrics")(
            flushed, flushed.metrics), occupancy)
        assert flushed.metrics.counters() == metrics.counters()
        assert flushed.metrics.drain_dirty() == metrics.drain_dirty()
        assert [node.server_clock.now for node in flushed.nodes] \
            == [node.server_clock.now for node in sequence.nodes]

    def test_a_flush_of_zeros_writes_nothing(self):
        acc = RoundAccounting()
        acc.add_access("pull.local", 0)
        acc.add_counter("network.messages", 0)
        acc.add_server(1, 0)
        cluster = Cluster(ClusterConfig(num_nodes=2))
        acc.flush(namedtuple("PS", "cluster metrics")(
            cluster, cluster.metrics), 0.5)
        assert cluster.metrics.counters() == {}
        assert cluster.metrics.drain_dirty() == set()
        assert [node.server_clock.now for node in cluster.nodes] == [0.0, 0.0]


# --------------------------------------------- satellite: dirty-set snapshots
class _TouchNetZero(Perturbation):
    """Increments and immediately reverts a counter every epoch."""

    def on_epoch_start(self, ctx) -> None:
        ctx.metrics.increment("scenario.net_zero_probe", 1.0)
        ctx.metrics.increment("scenario.net_zero_probe", -1.0)


class TestDirtySetEpochMetrics:
    def test_registry_drain_dirty(self):
        registry = MetricsRegistry()
        registry.increment("a", 2.0)
        registry.record_access("pull.local", count=3)
        assert registry.drain_dirty() == {"a", "access.pull.local",
                                          "access.total"}
        assert registry.drain_dirty() == set()
        registry.increment("b", 1.0)
        registry.increment("b", -1.0)
        assert registry.get("b") == 0.0
        assert registry.drain_dirty() == {"b"}

    def test_epoch_record_includes_touched_net_zero_counter(self):
        """+1 then -1 within an epoch is activity, not absence of it."""
        scenario = Scenario("net-zero-probe", [_TouchNetZero()])
        task = make_task("matrix_factorization", scale="test")
        config = ExperimentConfig(
            cluster=ClusterConfig(num_nodes=2, workers_per_node=2),
            epochs=2, chunk_size=8, seed=1, scenario=scenario,
        )
        result = run_experiment(task, make_ps_factory("classic"), config)
        for record in result.records:
            assert record.metrics["scenario.net_zero_probe"] == 0.0
            # Ordinary activity is still reported as nonzero deltas.
            assert record.metrics["access.total"] > 0
