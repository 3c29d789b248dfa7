"""Knowledge graph embeddings with ComplEx (the paper's KGE task).

The task trains ComplEx embeddings with SGD + AdaGrad and negative sampling
(Section 5.1): for every positive subject–relation–object triple, the subject
and the object are each perturbed ``num_negatives`` times with entities drawn
uniformly at random, and the model is trained with a binary logistic loss on
positive vs. negative triples. Model quality is measured with filtered mean
reciprocal rank (MRR) over a held-out test split.

PS key layout
-------------
* entity ``e``  -> key ``e``            (``0 <= e < num_entities``)
* relation ``r`` -> key ``num_entities + r``

Each value is ``[re | im | acc_re | acc_im]``: the complex embedding followed
by its AdaGrad accumulator, so that the optimizer state is shared through the
PS exactly like the embeddings themselves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UniformDistribution
from repro.data.knowledge_graph import KnowledgeGraph
from repro.data.rows import unique_rows
from repro.ml.negative_sampling import (
    NegativeSampleStream,
    replayed_sampling_round,
)
from repro.ml.optimizer import AdaGrad
from repro.ml.task import TrainingTask
from repro.ps.base import ParameterServer
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


class ComplExModel:
    """Scores and gradients of the ComplEx model (Trouillon et al.).

    All functions operate on *weight* vectors of length ``2 * dim`` laid out
    as ``[re | im]``.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    # ----------------------------------------------------------------- helpers
    def split(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``[re | im]`` weights into their real and imaginary parts."""
        return weights[..., : self.dim], weights[..., self.dim: 2 * self.dim]

    def to_complex(self, weights: np.ndarray) -> np.ndarray:
        real, imag = self.split(weights)
        return real + 1j * imag

    # ------------------------------------------------------------------ scoring
    def score(self, subject_w: np.ndarray, relation_w: np.ndarray,
              object_w: np.ndarray) -> np.ndarray:
        """ComplEx score Re(<s, r, conj(o)>); broadcasts over leading axes."""
        s_re, s_im = self.split(subject_w)
        r_re, r_im = self.split(relation_w)
        o_re, o_im = self.split(object_w)
        return (
            (r_re * (s_re * o_re + s_im * o_im)).sum(axis=-1)
            + (r_im * (s_re * o_im - s_im * o_re)).sum(axis=-1)
        )

    def score_against_all(self, subject_w: np.ndarray, relation_w: np.ndarray,
                          all_entity_w: np.ndarray,
                          conj_entities: np.ndarray | None = None) -> np.ndarray:
        """Scores of (s, r, e) for every entity e (vectorized, for ranking).

        ``conj_entities`` optionally passes ``conj(to_complex(all_entity_w))``
        precomputed, so rankings over many queries against the same entity
        matrix do not convert it once per query.
        """
        s_c = self.to_complex(subject_w)
        r_c = self.to_complex(relation_w)
        if conj_entities is None:
            conj_entities = np.conj(self.to_complex(all_entity_w))
        return np.real((s_c * r_c) @ conj_entities.T)

    def score_all_subjects(self, relation_w: np.ndarray, object_w: np.ndarray,
                           all_entity_w: np.ndarray,
                           entities_c: np.ndarray | None = None) -> np.ndarray:
        """Scores of (e, r, o) for every entity e (vectorized, for ranking)."""
        r_c = self.to_complex(relation_w)
        o_c = self.to_complex(object_w)
        if entities_c is None:
            entities_c = self.to_complex(all_entity_w)
        return np.real(entities_c @ (r_c * np.conj(o_c)).T).ravel()

    # ---------------------------------------------------------------- gradients
    def gradients(self, subject_w: np.ndarray, relation_w: np.ndarray,
                  object_w: np.ndarray, dscore: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of ``dscore * score`` w.r.t. subject, relation and object.

        Inputs broadcast over a leading batch axis; ``dscore`` has shape
        ``()`` or ``(batch,)``. Returns weight-shaped gradients.
        """
        s_re, s_im = self.split(subject_w)
        r_re, r_im = self.split(relation_w)
        o_re, o_im = self.split(object_w)
        dscore = np.asarray(dscore, dtype=np.float32)[..., None]

        def assemble(real_part: np.ndarray, imag_part: np.ndarray) -> np.ndarray:
            grad = np.empty(real_part.shape[:-1] + (2 * self.dim,),
                            dtype=np.float32)
            grad[..., : self.dim] = real_part
            grad[..., self.dim:] = imag_part
            return grad

        grad_s = assemble(dscore * (r_re * o_re + r_im * o_im),
                          dscore * (r_re * o_im - r_im * o_re))
        grad_r = assemble(dscore * (s_re * o_re + s_im * o_im),
                          dscore * (s_re * o_im - s_im * o_re))
        grad_o = assemble(dscore * (r_re * s_re - r_im * s_im),
                          dscore * (r_re * s_im + r_im * s_re))
        return grad_s, grad_r, grad_o


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x.clip(-30.0, 30.0)))


class ComplExStep:
    """One SGD step of a triple and its negatives in full-width expressions.

    The step scores and differentiates a batch of ``n = 1 + negatives``
    triples that share the relation: row 0 is the positive ``(s, r, o)``,
    the next ``half`` rows perturb the subject, the rest perturb the object.
    :meth:`ComplExModel.score` and :meth:`ComplExModel.gradients` evaluate it
    in half-width ``re``/``im`` slices, ~40 small NumPy calls. Here every
    term is one ``[re | im]``-wide expression. With the swapped halves
    ``o~ = [o_im | o_re]`` and ``s~ = [s_im | s_re]`` and the tiled halves
    ``a_re = [a_re | a_re]``, ``a_im = [a_im | a_im]``::

        g_s / d = r_re * o + (r_im * [+1 | -1]) * o~
        g_o / d = r_re * s + (r_im * [-1 | +1]) * s~
        X       = s_re * o + (s_im * [+1 | -1]) * o~      (= g_r / d)
        score   = sum(r * X): first half + second half

    which is, element for element, the operands and the operation order of
    the half-width formulas (a sign moved into a factor is exact:
    ``a * (-b) = -(a * b)`` and ``x + (-y) = x - y`` in IEEE arithmetic), so
    the result is bit-identical. All three lines have the shape
    ``P * L + (Q * sign) * M``; one gather through a precomputed index pulls
    the four ``(3, n, 2 dim)`` operand blocks out of the pulled values, four
    in-place products and sums evaluate all three lines at once, and one
    broadcast multiplies the ``n`` loss derivatives in. The per-key sums
    keep the task's order (positive row, perturbed-subject rows,
    perturbed-object rows) and one AdaGrad call covers every row.

    ``values`` rows are ``[s, r, o, negatives...]``, each
    ``[re | im | acc_re | acc_im]``; the result is the delta of every row.
    """

    def __init__(self, dim: int, num_sampled: int) -> None:
        self.dim = dim
        self.num_sampled = num_sampled
        self.half = half = num_sampled // 2
        dim2 = 2 * dim
        batch = 1 + num_sampled
        # Row of ``values`` holding each batch row's subject / object.
        subject = np.asarray(
            [0] + list(range(3, 3 + half)) + [0] * (num_sampled - half))
        obj = np.asarray(
            [2] * (1 + half) + list(range(3 + half, 3 + num_sampled)))
        relation = np.full(batch, 1)
        column = np.arange(dim2)
        swapped = (column + dim) % dim2
        real = column % dim
        imag = dim + real

        def cells(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
            return rows[:, None] * (4 * dim) + columns[None, :]

        # index[k, line]: operand k (L, M, P, Q) of line (g_s, g_o, X).
        index = np.empty((4, 3, batch, dim2), dtype=np.intp)
        index[0] = cells(obj, column), cells(subject, column), cells(obj, column)
        index[1] = cells(obj, swapped), cells(subject, swapped), cells(obj, swapped)
        index[2] = cells(relation, real), cells(relation, real), cells(subject, real)
        index[3] = cells(relation, imag), cells(relation, imag), cells(subject, imag)
        self._index = index
        sign = np.ones((3, batch, dim2), dtype=np.float32)
        sign[0, :, dim:] = -1.0
        sign[1, :, :dim] = -1.0
        sign[2, :, dim:] = -1.0
        self._sign = sign

    def deltas(self, values: np.ndarray, optimizer: AdaGrad,
               regularization: float = 0.0) -> np.ndarray:
        """AdaGrad deltas for the ``3 + num_sampled`` pulled ``values``."""
        dim = self.dim
        dim2 = 2 * dim
        half = self.half
        batch = 1 + self.num_sampled
        left, mirrored, factor, signed = values.ravel().take(self._index)
        signed *= self._sign
        factor *= left
        signed *= mirrored
        factor += signed
        lines = factor  # g_s / d, g_o / d, X

        weights = values[:, :dim2]
        sums = (weights[1] * lines[2]).reshape(batch, 2, dim).sum(axis=-1)
        dscores = _sigmoid(sums[:, 0] + sums[:, 1])
        dscores[0] = dscores[0] - 1.0  # positive triple: label 1
        lines *= dscores.reshape(batch, 1)
        g_subj, g_obj, g_rel = lines

        # Accumulate in the seed's order: positive gradient, then the
        # perturbed-subject block, then the perturbed-object block.
        grad_s = g_subj[0]
        grad_r = g_rel[0]
        grad_o = g_obj[0]
        if half:
            grad_r = grad_r + g_rel[1:1 + half].sum(axis=0)
            grad_o = grad_o + g_obj[1:1 + half].sum(axis=0)
        if batch > 1 + half:
            grad_s = grad_s + g_subj[1 + half:].sum(axis=0)
            grad_r = grad_r + g_rel[1 + half:].sum(axis=0)
        if regularization:
            grad_s = grad_s + regularization * weights[0]
            grad_r = grad_r + regularization * weights[1]
            grad_o = grad_o + regularization * weights[2]

        # The gradient of a perturbed subject (object) is that row's
        # subject (object) gradient.
        grads = np.empty((2 + batch, dim2), dtype=np.float32)
        grads[0] = grad_s
        grads[1] = grad_r
        grads[2] = grad_o
        grads[3:3 + half] = g_subj[1:1 + half]
        grads[3 + half:] = g_obj[1 + half:]
        return optimizer.compute_update(values, grads)


class KGETask(TrainingTask):
    """The knowledge graph embeddings workload (ComplEx + negative sampling)."""

    name = "kge"
    quality_metric = "mrr_filtered"
    higher_is_better = True

    def __init__(
        self,
        graph: KnowledgeGraph,
        dim: int = 8,
        num_negatives: int = 4,
        learning_rate: float = 0.1,
        init_scale: float = 0.1,
        sampling_level: ConformityLevel = ConformityLevel.BOUNDED,
        regularization: float = 0.0,
    ) -> None:
        self.graph = graph
        self.model = ComplExModel(dim)
        self.dim = int(dim)
        self.num_negatives = int(num_negatives)
        self.optimizer = AdaGrad(learning_rate)
        self.init_scale = float(init_scale)
        self.sampling_level = sampling_level
        self.regularization = float(regularization)
        self._distribution_id: Optional[int] = None
        self._steps: Dict[int, ComplExStep] = {}
        self._build_filter_index()

    # -------------------------------------------------------------- model layout
    def num_keys(self) -> int:
        return self.graph.num_entities + self.graph.num_relations

    def value_length(self) -> int:
        # [re | im | acc_re | acc_im]
        return 4 * self.dim

    def create_store(self, seed: int = 0) -> ParameterStore:
        store = ParameterStore(self.num_keys(), self.value_length())
        rng = np.random.default_rng(seed)
        weights = rng.normal(
            0.0, self.init_scale, size=(self.num_keys(), 2 * self.dim)
        ).astype(np.float32)
        values = np.concatenate(
            [weights, np.zeros_like(weights)], axis=1
        )
        store.set(np.arange(self.num_keys()), values)
        return store

    def access_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        counts[: self.graph.num_entities] = self.graph.entity_frequencies
        counts[self.graph.num_entities:] = self.graph.relation_frequencies
        return counts

    def sampling_access_counts(self) -> np.ndarray:
        """Uniform negative sampling: every entity is equally likely."""
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        total_samples = self.graph.num_train * 2 * self.num_negatives
        counts[: self.graph.num_entities] = total_samples / self.graph.num_entities
        return counts

    def relation_key(self, relation: int) -> int:
        return self.graph.num_entities + int(relation)

    def key_groups(self) -> List[tuple]:
        """Entities and relations drift independently (see the base class)."""
        return [
            (0, self.graph.num_entities),
            (self.graph.num_entities, self.num_keys()),
        ]

    # ------------------------------------------------------------------ training
    def num_data_points(self) -> int:
        return self.graph.num_train

    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        rng = np.random.default_rng(seed)
        indices = np.arange(self.graph.num_train)
        node_parts = self.partition_round_robin(indices, num_nodes, rng)
        return [
            self.partition_round_robin(part, workers_per_node, rng)
            for part in node_parts
        ]

    def register_sampling(self, ps: ParameterServer) -> None:
        distribution = UniformDistribution(0, self.graph.num_entities)
        self._distribution_id = ps.register_distribution(distribution, self.sampling_level)

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        triples = self.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
        if len(triples) == 0:
            return
        direct_keys = np.unique(np.concatenate([
            triples[:, 0],
            triples[:, 2],
            self.graph.num_entities + triples[:, 1],
        ]))
        ps.localize(worker, direct_keys)

    def process_round(self, ps: ParameterServer, items) -> None:
        """Round execution for KGE: charge replay + value pass per chunk.

        Which negatives a step receives depends on every sample drawn before
        it (pool cursors, RNG streams), and ~94% of a round's triples chain
        through a shared relation row, so the *order* of the sequential path
        is kept: one worker chunk after the other, one triple after the
        other. What is not kept is the four PS call chains per triple.
        Sample selection and access charging never read parameter values,
        so after the unchanged prefetch and ``prepare_sample`` a chunk's
        sample keys are taken at once, all of its calls are charged in one
        replay through the PS's point charger, and the triples then run on
        live rows with one gather and one scatter each (see
        :func:`~repro.ml.negative_sampling.replayed_sampling_round`; the
        fallback conditions are listed at
        :meth:`ParameterServer.direct_point_charger
        <repro.ps.base.ParameterServer.direct_point_charger>`).
        """
        replayed_sampling_round(self, ps, items, self._distribution_id,
                                self._replay_chunk)

    def _replay_chunk(self, ps: ParameterServer, charger,
                      worker: WorkerContext, data_indices: np.ndarray) -> None:
        """:meth:`process_chunk` as one charge replay and one value pass."""
        triples = self.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
        num_points = len(triples)
        if num_points == 0:
            return
        num_sampled = 2 * self.num_negatives
        stream = NegativeSampleStream(
            ps, worker, self._distribution_id, num_points * num_sampled
        )
        # Per triple: subject, relation, object, then its negatives.
        width = 3 + num_sampled
        keys = np.empty((num_points, width), dtype=np.int64)
        keys[:, 0] = triples[:, 0]
        keys[:, 1] = self.graph.num_entities + triples[:, 1]
        keys[:, 2] = triples[:, 2]
        keys[:, 3:] = stream.drain().reshape(num_points, num_sampled)
        charger.charge_chunk(worker, keys.ravel(), point_calls(
            [3] * num_points, [num_sampled] * num_points,
            [self.network_compute_cost(ps)] * num_points))
        step = self._step(num_sampled)
        for lo in range(0, num_points * width, width):
            hi = lo + width
            charger.add(lo, hi, step.deltas(
                charger.read(lo, hi), self.optimizer, self.regularization
            ))

    def process_chunk(self, ps: ParameterServer, worker: WorkerContext,
                      data_indices: np.ndarray, rng: np.random.Generator) -> int:
        if self._distribution_id is None:
            raise RuntimeError("register_sampling must be called before training")
        triples = self.graph.train_triples[np.asarray(data_indices, dtype=np.int64)]
        if len(triples) == 0:
            return 0

        negatives_per_triple = 2 * self.num_negatives
        stream = NegativeSampleStream(
            ps, worker, self._distribution_id, len(triples) * negatives_per_triple
        )

        compute_cost = self.network_compute_cost(ps)  # constant per chunk
        for subject, relation, obj in triples:
            self._train_triple(ps, worker, int(subject), int(relation), int(obj), stream)
            worker.charge_compute(compute_cost)
        return len(triples)

    def network_compute_cost(self, ps: ParameterServer) -> float:
        """Computation cost of one SGD step (scaled by the negative count)."""
        return ps.network.compute_per_step * (1 + 2 * self.num_negatives / 10.0)

    def _step(self, num_sampled: int) -> ComplExStep:
        """The step kernel for triples with ``num_sampled`` negatives."""
        step = self._steps.get(num_sampled)
        if step is None:
            step = self._steps[num_sampled] = ComplExStep(self.dim, num_sampled)
        return step

    def _train_triple(self, ps: ParameterServer, worker: WorkerContext,
                      subject: int, relation: int, obj: int,
                      stream: NegativeSampleStream) -> None:
        direct_keys = np.asarray(
            [subject, self.relation_key(relation), obj], dtype=np.int64
        )
        direct_values = ps.pull(worker, direct_keys)
        negatives = stream.next(2 * self.num_negatives)
        deltas = self._step(len(negatives.keys)).deltas(
            np.concatenate([direct_values, negatives.values]),
            self.optimizer, self.regularization,
        )
        ps.push(worker, direct_keys, deltas[:3])
        stream.push_updates(negatives.keys, deltas[3:])

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Filtered MRR and Hits@10 over the test split (both directions)."""
        if self.graph.num_test == 0:
            return {"mrr_filtered": 0.0, "hits_at_10": 0.0}
        dim2 = 2 * self.dim
        # One gather of every key: ``store.values`` would densify a sparse
        # store for good.
        weights = store.get(np.arange(self.num_keys()))[:, :dim2]
        entity_w = weights[: self.graph.num_entities]
        # The entity matrix is shared by every ranking query of this
        # evaluation round: convert it to complex form once, not per triple.
        entities_c = self.model.to_complex(entity_w)
        conj_entities = np.conj(entities_c)
        reciprocal_ranks: List[float] = []
        hits = 0
        total = 0
        for index, (subject, relation, obj) in enumerate(self.graph.test_triples):
            subject, relation, obj = int(subject), int(relation), int(obj)
            relation_w = weights[self.relation_key(relation)]
            subject_w = entity_w[subject]
            object_w = entity_w[obj]

            # Object ranking (s, r, ?).
            scores = self.model.score_against_all(
                subject_w, relation_w, entity_w, conj_entities=conj_entities
            )
            rank = self._filtered_rank(scores, obj, self._known_objects[index])
            reciprocal_ranks.append(1.0 / rank)
            hits += int(rank <= 10)
            total += 1

            # Subject ranking (?, r, o).
            scores = self.model.score_all_subjects(
                relation_w, object_w, entity_w, entities_c=entities_c
            )
            rank = self._filtered_rank(scores, subject,
                                       self._known_subjects[index])
            reciprocal_ranks.append(1.0 / rank)
            hits += int(rank <= 10)
            total += 1

        return {
            "mrr_filtered": float(np.mean(reciprocal_ranks)),
            "hits_at_10": hits / total,
        }

    @staticmethod
    def _filtered_rank(scores: np.ndarray, target: int,
                       known_true: np.ndarray) -> int:
        """Rank of ``target`` among the entities not in ``known_true``.

        ``known_true`` is an index array of distinct entities; the target
        itself never counts (its score is not greater than itself), so it
        may or may not be listed.
        """
        target_score = scores[target]
        better = np.count_nonzero(scores > target_score) \
            - np.count_nonzero(scores[known_true] > target_score)
        return int(better) + 1

    def _build_filter_index(self) -> None:
        """Per test triple, the entities a filtered ranking must skip.

        ``_known_objects[i]`` holds every object ``e`` for which
        ``(s_i, r_i, e)`` is a train or test triple, ``_known_subjects[i]``
        every subject of ``(e, r_i, o_i)``: distinct ``int64`` indices,
        sliced out of one grouped array per direction.
        """
        graph = self.graph
        triples = unique_rows(
            np.concatenate([graph.train_triples, graph.test_triples])
        ).astype(np.int64)
        test = np.asarray(graph.test_triples, dtype=np.int64)
        span = max(graph.num_entities, graph.num_relations)

        def known(group_a: int, group_b: int, member: int) -> List[np.ndarray]:
            codes = triples[:, group_a] * span + triples[:, group_b]
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            members = triples[order, member]
            queries = test[:, group_a] * span + test[:, group_b]
            first = np.searchsorted(codes, queries, side="left").tolist()
            last = np.searchsorted(codes, queries, side="right").tolist()
            return [members[lo:hi] for lo, hi in zip(first, last)]

        self._known_objects = known(0, 1, 2)
        self._known_subjects = known(1, 2, 0)
