"""How a chunk step's sample keys reach the PS on either charger.

A task prepares one sample handle per chunk (``TrainingTask.prepare_samples``)
and asks its charger for the chunk's sample keys (``take_samples``). The fold
charger takes them all at once, uncharged, and charges their pulls in its
fold (NuPS's selects a pull-time or postponing scheme's keys in
``charge_chunk``); the scenario interposer's per-call charger
(:class:`~repro.scenarios.interposer.PerCallCharger`) leaves them pending
and issues one ``pull_sample`` per point at the point's ``read``, pushing
back to the keys that call delivered. The last section makes a postponing
scheme reorder a handle between its prepare and its chunk.
"""

import numpy as np
import pytest

from repro.core.management import ManagementPlan
from repro.core.nups import NuPS
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UniformDistribution
from repro.core.sampling.manager import SamplingConfig
from repro.core.sampling.schemes import SchemeConfig
from repro.ps.local import SingleNodePS
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.runner.workloads import make_task
from repro.scenarios.interposer import PerCallCharger
from repro.simulation.cluster import Cluster, ClusterConfig
from scalar_oracle import SampleStream, oracle_of

LENGTH = 3


@pytest.fixture
def env():
    """A sampling task registered with a single-node PS, and its worker."""
    task = make_task("kge", scale="test")
    cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
    ps = SingleNodePS(task.create_store(seed=0), cluster)
    task.register_sampling(ps)
    return task, ps, cluster.worker(0, 0)


def _per_call_chunk(ps, worker, handle, points):
    """A per-call charger over ``points``, each ``(direct keys, samples)``,
    charged and ready for its points' ``read``/``add``."""
    charger = PerCallCharger(ps)
    samples = charger.take_samples(handle)
    keys, taken = [], 0
    for direct, n_sample in points:
        keys += [np.asarray(direct, dtype=np.int64),
                 samples[taken:taken + n_sample]]
        taken += n_sample
    charger.charge_chunk(worker, np.concatenate(keys), point_calls(
        [len(p[0]) for p in points], [p[1] for p in points],
        [0.0] * len(points)))
    return charger


def _pushed_sample_keys(ps):
    """Record the keys of every ``push_sample`` call that reaches ``ps``."""
    pushed = []
    push_sample = ps.push_sample

    def recording(worker, keys, deltas):
        pushed.append(np.array(keys))
        push_sample(worker, keys, deltas)

    ps.push_sample = recording
    return pushed


class TestPreparedSamples:
    def test_rejects_negative_total(self, env):
        task, ps, worker = env
        with pytest.raises(ValueError):
            task.prepare_samples(ps, worker, -1)

    def test_requires_registration(self, env):
        task, ps, worker = env
        task._distribution_id = None
        with pytest.raises(RuntimeError):
            task.prepare_samples(ps, worker, 4)

    def test_zero_samples_prepare_no_handle(self, env):
        task, ps, worker = env
        state = ps.rng.bit_generator.state
        assert task.prepare_samples(ps, worker, 0) is None
        assert ps.rng.bit_generator.state == state  # nothing drawn
        charger = PerCallCharger(ps)
        assert charger.take_samples(None).dtype == np.int64
        assert len(charger.take_samples(None)) == 0


class TestPerCallSamples:
    def test_no_handle_reads_and_pushes_the_direct_keys_only(self, env):
        task, ps, worker = env
        pushed = _pushed_sample_keys(ps)
        charger = _per_call_chunk(ps, worker, None, [([1, 2], 0)])
        # A sample span with no handle delivers nothing either.
        charger.charge_chunk(worker, np.array([1, 2, -1, -1]),
                             point_calls([2], [2], [0.0]))
        values = charger.read(0, 4)
        assert values.shape == (2, ps.store.value_length)
        charger.add(0, 4, np.ones((2, ps.store.value_length), np.float32))
        assert pushed == []

    def test_prepared_keys_stay_pending(self, env):
        task, ps, worker = env
        handle = task.prepare_samples(ps, worker, 6)
        prepared = handle.peek(6)
        samples = PerCallCharger(ps).take_samples(handle)
        assert samples.tolist() == prepared.tolist()
        assert handle.remaining == 6

    def test_delivers_exactly_the_prepared_total(self, env):
        """``remaining`` counts down per point; a point asking for more than
        is left gets the rest (the clamp), and its ``add`` takes that many
        sample rows."""
        task, ps, worker = env
        handle = task.prepare_samples(ps, worker, 10)
        pushed = _pushed_sample_keys(ps)
        charger = _per_call_chunk(ps, worker, handle,
                                  [([1], 4), ([2], 4), ([3], 4)])
        rows = []
        lo = 0
        for remaining in (6, 2, 0):
            values = charger.read(lo, lo + 5)
            assert handle.remaining == remaining
            rows.append(len(values))
            charger.add(lo, lo + 5, np.zeros(
                (len(values), ps.store.value_length), np.float32))
            lo += 5
        assert rows == [5, 5, 3]
        assert [len(keys) for keys in pushed] == [4, 4, 2]

    def test_values_match_the_store(self, env):
        task, ps, worker = env
        handle = task.prepare_samples(ps, worker, 5)
        prepared = handle.peek(5)
        charger = _per_call_chunk(ps, worker, handle, [([7, 8], 5)])
        values = charger.read(0, 7)
        np.testing.assert_array_equal(
            values, ps.store.get(np.concatenate([[7, 8], prepared])))

    def test_add_pushes_the_deltas_to_the_delivered_keys(self, env):
        task, ps, worker = env
        handle = task.prepare_samples(ps, worker, 3)
        charger = _per_call_chunk(ps, worker, handle, [([0], 3)])
        pushed = _pushed_sample_keys(ps)
        charger.read(0, 4)
        assert handle.remaining == 0
        every_key = np.arange(ps.store.num_keys)
        expected = ps.store.get(every_key)
        deltas = np.ones((4, ps.store.value_length), dtype=np.float32)
        charger.add(0, 4, deltas)
        (sample_keys,) = pushed
        np.add.at(expected, np.concatenate([[0], sample_keys]), deltas)
        np.testing.assert_allclose(ps.store.get(every_key), expected,
                                   rtol=1e-6)

    def test_an_empty_sample_pull_pushes_nothing(self, env):
        task, ps, worker = env
        handle = task.prepare_samples(ps, worker, 2)
        charger = _per_call_chunk(ps, worker, handle, [([0], 2), ([1], 2)])
        pushed = _pushed_sample_keys(ps)
        for lo in (0, 3):
            values = charger.read(lo, lo + 3)
            charger.add(lo, lo + 3, np.ones((len(values),
                                             ps.store.value_length),
                                            np.float32))
        assert [len(keys) for keys in pushed] == [2]
        assert handle.remaining == 0


class TestFoldSamples:
    def test_take_samples_delivers_the_keys_the_pulls_would(self, env):
        task, ps, worker = env
        ps.rng = np.random.default_rng(0)
        pulled = task.prepare_samples(ps, worker, 9)
        expected = np.concatenate([ps.pull_sample(worker, pulled, 4).keys,
                                   ps.pull_sample(worker, pulled, 5).keys])
        ps.rng = np.random.default_rng(0)  # the same draws for the twin
        handle = task.prepare_samples(ps, worker, 9)
        clock_before = worker.clock.now
        taken = ps.direct_point_charger(task._distribution_id) \
            .take_samples(handle)
        # Same keys in the same order, nothing charged, handle exhausted.
        assert taken.tolist() == expected.tolist()
        assert worker.clock.now == clock_before
        assert handle.remaining == 0 and len(handle.take(3)) == 0

    def test_take_samples_after_partial_pulls_returns_the_rest(self, env):
        task, ps, worker = env
        charger = ps.direct_point_charger(task._distribution_id)
        ps.rng = np.random.default_rng(3)
        all_keys = charger.take_samples(task.prepare_samples(ps, worker, 7))
        ps.rng = np.random.default_rng(3)
        handle = task.prepare_samples(ps, worker, 7)
        head = ps.pull_sample(worker, handle, 3).keys
        rest = charger.take_samples(handle)
        assert np.concatenate([head, rest]).tolist() == all_keys.tolist()

    def test_take_samples_without_a_handle(self, env):
        task, ps, worker = env
        taken = ps.direct_point_charger(task._distribution_id) \
            .take_samples(None)
        assert taken.dtype == np.int64 and len(taken) == 0

    def test_a_pull_time_handle_is_selected_by_charge_chunk(self):
        """A handle whose scheme selects at pull time (local sampling) is
        laid out as ``-1`` with nothing delivered; ``charge_chunk`` selects
        its keys into the chunk's sample positions and delivers them."""
        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        ps = NuPS(ParameterStore(NUM_KEYS, LENGTH), cluster,
                  sampling_config=SamplingConfig(scheme_override="local"),
                  sync_interval=None, seed=0)
        distribution_id = ps.register_distribution(
            UniformDistribution(0, 20), ConformityLevel.NON_CONFORM)
        worker = cluster.worker(0, 0)
        charger = ps.direct_point_charger(distribution_id)
        handle = ps.prepare_sample(worker, distribution_id, 5)
        samples = charger.take_samples(handle)
        assert samples.tolist() == [-1] * 5 and handle.remaining == 5
        keys = np.concatenate([[30, 31], samples])
        charger.charge_chunk(worker, keys, point_calls([2], [5], [0.0]))
        assert handle.remaining == 0
        assert keys[:2].tolist() == [30, 31]
        assert ((keys[2:] >= 0) & (keys[2:] < 20)).all()
        assert charger.read(0, 7).shape == (7, LENGTH)


# ------------------------------------------------------------- postponing
NUM_KEYS = 40


def _postponing_world():
    """Two-node NuPS, everything relocated, a postponing scheme over
    ``[0, 20)``, and the worker of node 0."""
    cluster = Cluster(ClusterConfig(num_nodes=2, workers_per_node=1))
    store = ParameterStore(NUM_KEYS, LENGTH, seed=4, init_scale=0.1)
    config = SamplingConfig(scheme_config=SchemeConfig(pool_size=6,
                                                       use_frequency=2))
    ps = NuPS(store, cluster, plan=ManagementPlan.relocate_all(NUM_KEYS),
              sampling_config=config, sync_interval=None, seed=0)
    distribution_id = ps.register_distribution(UniformDistribution(0, 20),
                                               ConformityLevel.LONG_TERM)
    return cluster, ps, distribution_id, cluster.worker(0, 0)


def _relocate_second_key_away(cluster, ps, handle):
    """Node 1 relocates the handle's second pending key to itself."""
    ps.localize(cluster.worker(1, 0), handle.peek(2)[1:])


#: Two points of two direct keys and four samples each.
DIRECT = ([30, 31], [32, 30])


def _deltas(point):
    return np.full((6, LENGTH), 0.01 * (point + 1), dtype=np.float32) \
        * np.arange(1, 7, dtype=np.float32)[:, None]


def test_a_postponed_sample_is_pushed_where_it_was_delivered():
    """Between node 0's ``prepare_sample`` and its chunk, node 1 relocates
    one of the handle's keys away. The postponing scheme moves that key to
    the back of the handle and re-localizes it, so the fold charger's
    ``charge_chunk`` selects other keys into the points' sample positions
    than ``prepare_sample`` drew; each point's ``add`` goes to the keys its
    sample pull delivered, and the state equals the oracle's per-call
    loop."""
    _postponed_chunk(per_call=False)


def test_a_postponed_sample_is_pushed_where_the_per_call_charger_pulled_it():
    """The same chunk over the interposer's per-call charger: each point's
    ``pull_sample`` delivers other keys than ``prepare_sample`` laid out,
    each ``push_sample`` goes to exactly the keys its pull delivered, and
    the state equals the oracle's per-call loop."""
    _postponed_chunk(per_call=True)


def _postponed_chunk(per_call):
    cluster, ps, distribution_id, worker = _postponing_world()
    handle = ps.prepare_sample(worker, distribution_id, 8)
    prepared = handle.peek(8)
    _relocate_second_key_away(cluster, ps, handle)
    appended = []
    append_back = handle.append_back
    handle.append_back = lambda key: (appended.append(key), append_back(key))
    if per_call:
        pushed = _pushed_sample_keys(ps)
        pulled = []
        pull_sample = ps.pull_sample

        def recording_pull(worker, handle, count):
            result = pull_sample(worker, handle, count)
            pulled.append(result.keys)
            return result

        ps.pull_sample = recording_pull
        charger = PerCallCharger(ps)
    else:
        charger = ps.direct_point_charger(distribution_id)
    samples = charger.take_samples(handle)
    laid_out = prepared.tolist() if per_call else [-1] * 8
    assert samples.tolist() == laid_out and handle.remaining == 8
    keys = np.concatenate([DIRECT[0], samples[:4], DIRECT[1], samples[4:]])
    charger.charge_chunk(worker, keys, point_calls([2, 2], [4, 4],
                                                   [0.5, 0.5]))
    for point, lo in enumerate((0, 6)):
        assert len(charger.read(lo, lo + 6)) == 6
        charger.add(lo, lo + 6, _deltas(point))
    charger.finish()

    assert appended == [int(prepared[1])] and handle.remaining == 0
    if per_call:
        delivered = np.concatenate(pulled)
        assert np.concatenate(pushed).tolist() == delivered.tolist()
    else:
        delivered = np.concatenate([keys[2:6], keys[8:]])
    assert delivered.tolist() == prepared[[0, 2, 3, 4, 5, 6, 7, 1]].tolist()

    # The reference: the same calls, issued by the oracle's per-call loop.
    twin_cluster, twin_ps, twin_distribution, twin_worker = \
        _postponing_world()
    oracle_of(twin_ps)
    stream = SampleStream(twin_ps, twin_worker, twin_distribution, 8)
    _relocate_second_key_away(twin_cluster, twin_ps, stream._handle)
    for point, direct in enumerate(DIRECT):
        direct = np.asarray(direct, dtype=np.int64)
        twin_ps.pull(twin_worker, direct)
        negatives = stream.next(4)
        assert negatives.keys.tolist() == \
            delivered[4 * point:4 * point + 4].tolist()
        deltas = _deltas(point)
        twin_ps.push(twin_worker, direct, deltas[:2])
        stream.push_updates(negatives.keys, deltas[2:])
        twin_worker.charge_compute(0.5)

    every_key = np.arange(NUM_KEYS)
    assert ps.store.get(every_key).tobytes() \
        == twin_ps.store.get(every_key).tobytes()
    assert worker.clock.now == twin_worker.clock.now
    assert ps.current_owner.take(every_key).tolist() \
        == twin_ps.current_owner.take(every_key).tolist()
    assert ps.arrival_time.take(every_key).tolist() \
        == twin_ps.arrival_time.take(every_key).tolist()
    assert cluster.metrics.counters() == twin_cluster.metrics.counters()
