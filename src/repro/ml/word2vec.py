"""Word vectors with skip-gram Word2Vec and negative sampling (the WV task).

The task trains skip-gram word vectors with SGD and negative sampling
(Section 5.1). A data point is one token (center-word position): the model is
updated for every (center, context) pair inside the window, and
``num_negatives`` negative context words per pair are drawn from the unigram
distribution raised to 0.75. Model quality is measured with a
similarity-probe accuracy — the fraction of (anchor, same-topic, other-topic)
probes for which the anchor's vector is closer to the same-topic word — which
stands in for the analogical-reasoning accuracy the paper reports on
natural-language data (see README.md, "Benchmarks").

PS key layout
-------------
* input (center) vector of word ``w``  -> key ``w``
* output (context) vector of word ``w`` -> key ``vocab_size + w``

Negative sampling only ever touches output-layer keys, which is why the
paper's Figure 3b shows the two layers as visually distinct populations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import UnigramDistribution
from repro.data.corpus import Corpus
from repro.ml.optimizer import UpdateNormClipper
from repro.ml.task import TrainingTask
from repro.ps.base import ParameterServer
from repro.ps.rounds import point_calls
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import WorkerContext


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x.clip(-30.0, 30.0)))


class WordVectorsTask(TrainingTask):
    """The word vectors workload (skip-gram with negative sampling)."""

    name = "word_vectors"
    quality_metric = "similarity_accuracy"
    higher_is_better = True

    def __init__(
        self,
        corpus: Corpus,
        dim: int = 8,
        window: int = 2,
        num_negatives: int = 3,
        learning_rate: float = 0.1,
        init_scale: float = 0.1,
        unigram_power: float = 0.75,
        clip_factor: float = 2.0,
        sampling_level: ConformityLevel = ConformityLevel.BOUNDED,
    ) -> None:
        self.corpus = corpus
        self.dim = int(dim)
        self.window = int(window)
        self.num_negatives = int(num_negatives)
        self.learning_rate = float(learning_rate)
        self.init_scale = float(init_scale)
        self.unigram_power = float(unigram_power)
        self.sampling_level = sampling_level
        self._clipper = UpdateNormClipper(clip_factor) if clip_factor > 0 else None
        self._centers, self._context_keys, self._context_offsets = \
            self._build_positions(corpus, self.window)

    @staticmethod
    def _build_positions(corpus: Corpus, window: int
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One data point per token with a context: its word id and context keys.

        The context is stored flat (CSR): data point ``t``'s output keys are
        ``keys[offsets[t]:offsets[t + 1]]``, the words up to ``window``
        positions before the token and then after it, within its sentence.
        A token with no other word of its sentence in the window is not a
        data point.
        """
        tokens = np.concatenate(corpus.sentences).astype(np.int64, copy=False)
        lengths = [len(sentence) for sentence in corpus.sentences]
        sentence_of = np.repeat(np.arange(len(lengths)), lengths)
        shifts = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
        neighbours = np.arange(len(tokens))[:, None] + shifts
        inside = (neighbours >= 0) & (neighbours < len(tokens))
        neighbours[~inside] = 0
        inside &= sentence_of[neighbours] == sentence_of[:, None]
        widths = inside.sum(axis=1)
        has_context = widths > 0
        offsets = np.zeros(int(has_context.sum()) + 1, dtype=np.int64)
        np.cumsum(widths[has_context], out=offsets[1:])
        # Row-major selection keeps each token's neighbours in sentence order.
        keys = corpus.vocab_size + tokens[neighbours[inside]]
        return tokens[has_context], keys, offsets

    # -------------------------------------------------------------- model layout
    def num_keys(self) -> int:
        return 2 * self.corpus.vocab_size

    def value_length(self) -> int:
        return self.dim

    def create_store(self, seed: int = 0) -> ParameterStore:
        store = ParameterStore(self.num_keys(), self.value_length())
        rng = np.random.default_rng(seed)
        # Word2Vec convention: input vectors random, output vectors zero.
        input_vectors = rng.uniform(
            -self.init_scale, self.init_scale,
            size=(self.corpus.vocab_size, self.dim),
        ).astype(np.float32)
        store.set(np.arange(self.corpus.vocab_size), input_vectors)
        return store

    def access_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        # Input keys: accessed once per occurrence as a center word; output
        # keys: accessed roughly (2 * window) times per occurrence as context.
        counts[: self.corpus.vocab_size] = self.corpus.word_frequencies
        counts[self.corpus.vocab_size:] = self.corpus.word_frequencies * 2 * self.window
        return counts

    def sampling_access_counts(self) -> np.ndarray:
        """Negatives are drawn from the unigram^0.75 distribution (output layer)."""
        counts = np.zeros(self.num_keys(), dtype=np.float64)
        weights = np.power(self.corpus.word_frequencies + 1e-12, self.unigram_power)
        probabilities = weights / weights.sum()
        total_pairs = len(self._context_keys)
        total_samples = total_pairs * self.num_negatives
        counts[self.corpus.vocab_size:] = total_samples * probabilities
        return counts

    def key_groups(self) -> List[tuple]:
        """Input and output layers drift independently (see the base class)."""
        return [
            (0, self.corpus.vocab_size),
            (self.corpus.vocab_size, self.num_keys()),
        ]

    # ------------------------------------------------------------------ training
    def num_data_points(self) -> int:
        return len(self._centers)

    def create_shards(self, num_nodes: int, workers_per_node: int,
                      seed: int = 0) -> List[List[np.ndarray]]:
        rng = np.random.default_rng(seed)
        indices = np.arange(len(self._centers))
        node_parts = self.partition_round_robin(indices, num_nodes, rng)
        return [
            self.partition_round_robin(part, workers_per_node, rng)
            for part in node_parts
        ]

    def register_sampling(self, ps: ParameterServer) -> None:
        distribution = UnigramDistribution(
            self.corpus.word_frequencies + 1e-12,
            power=self.unigram_power,
            key_offset=self.corpus.vocab_size,
        )
        self._distribution_id = ps.register_distribution(distribution, self.sampling_level)

    def prefetch(self, ps: ParameterServer, worker: WorkerContext,
                 data_indices: np.ndarray) -> None:
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return
        offsets, keys = self._context_offsets, self._context_keys
        context_keys = [keys[lo:hi] for lo, hi in zip(
            offsets[data_indices].tolist(), offsets[data_indices + 1].tolist())]
        direct_keys = np.unique(np.concatenate(
            [self._centers[data_indices]] + context_keys
        ))
        ps.localize(worker, direct_keys)

    def step_chunk(self, ps: ParameterServer, charger, worker: WorkerContext,
                   data_indices: np.ndarray) -> None:
        """The chunk's tokens against ``charger``.

        Like KGE (see :meth:`repro.ml.kge.KGETask.step_chunk`): per token
        ``pull`` the center and context words, ``pull_sample`` the
        negatives, ``push`` and ``push_sample`` the deltas, then the
        token's compute, token after token — negatives depend on every
        sample drawn before them, tokens chain through shared context rows,
        and the update clipper's running mean is stateful. Points are
        ragged: ``1 + P`` direct keys and ``P * negatives`` samples for a
        token with ``P`` context words.
        """
        data_indices = np.asarray(data_indices, dtype=np.int64)
        if len(data_indices) == 0:
            return
        starts = self._context_offsets[data_indices]
        ends = self._context_offsets[data_indices + 1]
        pairs = (ends - starts).tolist()
        samples = charger.take_samples(self.prepare_samples(
            ps, worker, sum(pairs) * self.num_negatives))
        direct_widths = [1 + p for p in pairs]
        sample_widths = [p * self.num_negatives for p in pairs]
        # Per token: center, context words, then the token's negatives.
        keys = np.empty(sum(direct_widths) + len(samples), dtype=np.int64)
        position = taken = 0
        for center, lo, hi, n_sample in zip(
                self._centers[data_indices].tolist(), starts.tolist(),
                ends.tolist(), sample_widths):
            split = position + 1 + hi - lo
            keys[position] = center
            keys[position + 1:split] = self._context_keys[lo:hi]
            keys[split:split + n_sample] = samples[taken:taken + n_sample]
            position = split + n_sample
            taken += n_sample
        charger.charge_chunk(worker, keys, point_calls(
            direct_widths, sample_widths,
            [self._compute_cost(ps, p) for p in pairs]))
        lo = 0
        for n_direct, n_sample in zip(direct_widths, sample_widths):
            hi = lo + n_direct + n_sample
            values = charger.read(lo, hi)
            charger.add(lo, hi, self._token_deltas(
                values[0], values[1:n_direct], values[n_direct:]
            ))
            lo = hi

    def _compute_cost(self, ps: ParameterServer, num_pairs: int) -> float:
        """One skip-gram pair is roughly one SGD step's worth of computation."""
        return ps.network.compute_per_step * num_pairs \
            * (1 + self.num_negatives) / 4.0

    def _token_deltas(self, center_vec: np.ndarray, context_vecs: np.ndarray,
                      neg_vecs: np.ndarray) -> np.ndarray:
        """Clipped SGD deltas of one token: center, contexts, negatives."""
        num_pairs = len(context_vecs)
        # Context pairs have label 1, negatives (paired with the center)
        # label 0. The two score GEMVs stay separate: one stacked GEMV
        # rounds differently.
        scores = np.empty(num_pairs + len(neg_vecs), dtype=np.float32)
        np.dot(context_vecs, center_vec, out=scores[:num_pairs])
        np.dot(neg_vecs, center_vec, out=scores[num_pairs:])
        g = _sigmoid(scores)
        g[:num_pairs] -= 1.0
        deltas = np.empty((1 + len(g), self.dim), dtype=np.float32)
        deltas[0] = g[:num_pairs].dot(context_vecs)
        if len(neg_vecs):
            deltas[0] += g[num_pairs:].dot(neg_vecs)
        np.multiply(g[:, None], center_vec[None, :], out=deltas[1:])
        deltas *= -self.learning_rate
        # The clipper's running mean is stateful: rows are clipped in the
        # order center, contexts, negatives.
        return self._clip_rows(deltas)

    def _clip_rows(self, updates: np.ndarray) -> np.ndarray:
        if self._clipper is None:
            return updates
        return self._clipper.clip_rows(updates)

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, store: ParameterStore) -> Dict[str, float]:
        """Similarity-probe accuracy from the input vectors (percent)."""
        probes = self.corpus.similarity_probes
        if len(probes) == 0:
            return {"similarity_accuracy": 0.0}
        vectors = store.get(np.arange(self.corpus.vocab_size))
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        normalized = vectors / np.maximum(norms, 1e-12)
        anchor = normalized[probes[:, 0]]
        same = normalized[probes[:, 1]]
        different = normalized[probes[:, 2]]
        same_similarity = np.einsum("ij,ij->i", anchor, same)
        different_similarity = np.einsum("ij,ij->i", anchor, different)
        accuracy = float(np.mean(same_similarity > different_similarity)) * 100.0
        return {"similarity_accuracy": accuracy}
