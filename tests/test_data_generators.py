"""Tests for the synthetic dataset generators."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.corpus import _build_similarity_probes, generate_corpus
from repro.data.knowledge_graph import generate_knowledge_graph
from repro.data.matrix import generate_matrix
from repro.data.rows import unique_rows
from repro.data.zipf import empirical_skew_summary, zipf_probabilities
from repro.runner.workloads import make_task


class TestZipfUtilities:
    def test_probabilities_normalized_and_decreasing(self):
        probs = zipf_probabilities(100, 1.1)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(probs) < 0)

    def test_shuffle_permutes(self):
        rng = np.random.default_rng(0)
        shuffled = zipf_probabilities(50, 1.1, shuffle=True, rng=rng)
        plain = zipf_probabilities(50, 1.1)
        assert shuffled.sum() == pytest.approx(1.0)
        assert sorted(shuffled) == pytest.approx(sorted(plain))
        assert not np.allclose(shuffled, plain)

    def test_exponent_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_probabilities(10, 0.0), 0.1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -1.0)

    def test_skew_summary(self):
        counts = np.array([1000.0] + [1.0] * 999)
        summary = empirical_skew_summary(counts, top_fraction=0.001)
        assert summary["top_share"] == pytest.approx(1000.0 / 1999.0)
        assert summary["num_items"] == 1000

    def test_skew_summary_validation(self):
        with pytest.raises(ValueError):
            empirical_skew_summary(np.array([]))
        with pytest.raises(ValueError):
            empirical_skew_summary(np.ones(5), top_fraction=0.0)


class TestKnowledgeGraphGenerator:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_knowledge_graph(
            num_entities=300, num_relations=8, num_triples=3000, seed=0
        )

    def test_triples_within_ranges(self, graph):
        for split in (graph.train_triples, graph.test_triples):
            assert split[:, 0].max() < graph.num_entities
            assert split[:, 2].max() < graph.num_entities
            assert split[:, 1].max() < graph.num_relations
            assert split.min() >= 0

    def test_train_test_split_disjoint(self, graph):
        train = {tuple(t) for t in graph.train_triples.tolist()}
        test = {tuple(t) for t in graph.test_triples.tolist()}
        assert train.isdisjoint(test)

    def test_no_duplicate_triples(self, graph):
        combined = np.concatenate([graph.train_triples, graph.test_triples])
        assert len(np.unique(combined, axis=0)) == len(combined)

    def test_entity_frequencies_match_triples(self, graph):
        expected = np.bincount(
            np.concatenate([graph.train_triples[:, 0], graph.train_triples[:, 2]]),
            minlength=graph.num_entities,
        )
        np.testing.assert_array_equal(graph.entity_frequencies, expected)

    def test_relation_frequencies_match_triples(self, graph):
        np.testing.assert_array_equal(
            graph.relation_frequencies,
            np.bincount(graph.train_triples[:, 1], minlength=graph.num_relations),
        )

    def test_entity_access_is_skewed(self, graph):
        """A small share of entities receives a large share of accesses."""
        summary = empirical_skew_summary(graph.entity_frequencies + 1e-9, top_fraction=0.05)
        assert summary["top_share"] > 0.3

    def test_reproducible(self):
        a = generate_knowledge_graph(num_entities=100, num_relations=4, num_triples=500, seed=5)
        b = generate_knowledge_graph(num_entities=100, num_relations=4, num_triples=500, seed=5)
        np.testing.assert_array_equal(a.train_triples, b.train_triples)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_knowledge_graph(num_entities=4, num_clusters=8)
        with pytest.raises(ValueError):
            generate_knowledge_graph(noise=1.5)
        with pytest.raises(ValueError):
            generate_knowledge_graph(test_fraction=0.0)


class TestCorpusGenerator:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(vocab_size=200, num_sentences=300, sentence_length=10, seed=1)

    def test_sentences_within_vocab(self, corpus):
        for sentence in corpus.sentences:
            assert sentence.min() >= 0
            assert sentence.max() < corpus.vocab_size
            assert len(sentence) == 10

    def test_num_tokens(self, corpus):
        assert len(corpus.sentences) == 300
        assert sum(len(sentence) for sentence in corpus.sentences) == 300 * 10
        assert corpus.word_frequencies.sum() == 300 * 10

    def test_word_frequencies_match_tokens(self, corpus):
        expected = np.bincount(np.concatenate(corpus.sentences), minlength=corpus.vocab_size)
        np.testing.assert_array_equal(corpus.word_frequencies, expected)

    def test_frequencies_are_skewed(self, corpus):
        summary = empirical_skew_summary(corpus.word_frequencies + 1e-9, top_fraction=0.05)
        assert summary["top_share"] > 0.3

    def test_probes_are_valid(self, corpus):
        probes = corpus.similarity_probes
        assert probes.shape[1] == 3
        assert len(probes) > 0
        for anchor, same, different in probes:
            assert corpus.word_topics[anchor] == corpus.word_topics[same]
            assert corpus.word_topics[anchor] != corpus.word_topics[different]
            assert anchor != same

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_corpus(vocab_size=5, num_topics=10)
        with pytest.raises(ValueError):
            generate_corpus(topic_purity=1.5)

    def test_reproducible(self):
        a = generate_corpus(vocab_size=100, num_sentences=50, seed=3)
        b = generate_corpus(vocab_size=100, num_sentences=50, seed=3)
        np.testing.assert_array_equal(np.concatenate(a.sentences), np.concatenate(b.sentences))

    # The bench and the test preset of the word-vector task (vocab_size,
    # num_sentences, sentence_length, num_topics), and two odd shapes:
    # purities that put no token, or every token, on the topic.
    @pytest.mark.parametrize("seed", [0, 2, 5])
    @pytest.mark.parametrize("sizes,purity", [
        ((3000, 1500, 10, 10), 0.85), ((300, 150, 8, 6), 0.85),
        ((40, 30, 5, 4), 0.0), ((40, 30, 5, 4), 1.0),
    ])
    def test_matches_the_per_sentence_choice_loop(self, sizes, purity, seed):
        vocab_size, num_sentences, sentence_length, num_topics = sizes
        corpus = generate_corpus(
            vocab_size=vocab_size, num_sentences=num_sentences,
            sentence_length=sentence_length, num_topics=num_topics,
            topic_purity=purity, seed=seed)
        sentences, frequencies, topics, probes = _loop_corpus(
            vocab_size, num_sentences, sentence_length, num_topics, purity,
            seed)
        assert [s.dtype for s in corpus.sentences] == [s.dtype for s in sentences]
        np.testing.assert_array_equal(np.stack(corpus.sentences),
                                      np.stack(sentences))
        np.testing.assert_array_equal(corpus.word_frequencies, frequencies)
        np.testing.assert_array_equal(corpus.word_topics, topics)
        np.testing.assert_array_equal(corpus.similarity_probes, probes)


def _loop_corpus(vocab_size, num_sentences, sentence_length, num_topics,
                 topic_purity, seed, frequency_exponent=1.1, num_probes=500):
    """``generate_corpus`` as one ``random`` and two ``choice(p=...)`` calls
    per sentence: the reference the array form must reproduce draw for draw."""
    rng = np.random.default_rng(seed)
    global_probs = zipf_probabilities(vocab_size, frequency_exponent,
                                      shuffle=True, rng=rng)
    word_topics = rng.integers(0, num_topics, size=vocab_size)
    topic_words, topic_word_probs = [], []
    for topic in range(num_topics):
        members = np.flatnonzero(word_topics == topic)
        if len(members) == 0:
            members = rng.integers(0, vocab_size, size=2)
        probs = global_probs[members]
        topic_words.append(members)
        topic_word_probs.append(probs / probs.sum())
    sentences = []
    for _ in range(num_sentences):
        topic = int(rng.integers(0, num_topics))
        from_topic = rng.random(sentence_length) < topic_purity
        sentence = np.empty(sentence_length, dtype=np.int64)
        num_topic_tokens = int(from_topic.sum())
        if num_topic_tokens:
            sentence[from_topic] = rng.choice(
                topic_words[topic], size=num_topic_tokens,
                p=topic_word_probs[topic])
        if sentence_length - num_topic_tokens:
            sentence[~from_topic] = rng.choice(
                vocab_size, size=sentence_length - num_topic_tokens,
                p=global_probs)
        sentences.append(sentence)
    frequencies = np.bincount(np.concatenate(sentences),
                              minlength=vocab_size).astype(np.float64)
    probes = _build_similarity_probes(rng, word_topics, frequencies, num_probes)
    return sentences, frequencies, word_topics, probes


class TestMatrixGenerator:
    @pytest.fixture(scope="class")
    def matrix(self):
        return generate_matrix(num_rows=200, num_cols=50, num_cells=3000, rank=4, seed=2)

    def test_cells_within_bounds(self, matrix):
        for cells in (matrix.train_cells, matrix.test_cells):
            assert cells[:, 0].max() < matrix.num_rows
            assert cells[:, 1].max() < matrix.num_cols
            assert cells.min() >= 0

    def test_no_duplicate_cells(self, matrix):
        combined = np.concatenate([matrix.train_cells, matrix.test_cells])
        assert len(np.unique(combined, axis=0)) == len(combined)

    def test_values_align_with_cells(self, matrix):
        assert len(matrix.train_values) == len(matrix.train_cells)
        assert len(matrix.test_values) == len(matrix.test_cells)

    def test_frequencies_match_cells(self, matrix):
        np.testing.assert_array_equal(
            matrix.row_frequencies,
            np.bincount(matrix.train_cells[:, 0], minlength=matrix.num_rows),
        )
        np.testing.assert_array_equal(
            matrix.col_frequencies,
            np.bincount(matrix.train_cells[:, 1], minlength=matrix.num_cols),
        )

    def test_cells_are_skewed(self, matrix):
        summary = empirical_skew_summary(matrix.col_frequencies + 1e-9, top_fraction=0.05)
        assert summary["top_share"] > 0.15

    def test_values_have_low_rank_structure(self, matrix):
        """The generated values are far from pure noise: their variance is
        dominated by the low-rank signal, not the additive noise."""
        assert matrix.train_values.std() > 2 * 0.1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_matrix(rank=0)
        with pytest.raises(ValueError):
            generate_matrix(test_fraction=1.0)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=20, max_value=200), st.integers(min_value=100, max_value=1000))
def test_kg_generator_is_well_formed_for_any_size(num_entities, num_triples):
    graph = generate_knowledge_graph(
        num_entities=num_entities, num_relations=4, num_triples=num_triples,
        num_clusters=4, seed=0,
    )
    assert graph.num_train + graph.num_test <= num_triples
    assert graph.num_train > 0 and graph.num_test > 0
    assert len(graph.entity_frequencies) == num_entities


# --------------------------------------------------------------------------
# Golden digests: datasets and task structures are byte-identical to the
# per-item loops the array forms replaced (the constants were computed with
# those loops), so every counter and cell digest downstream is unchanged.
# --------------------------------------------------------------------------

def _digest(*values) -> str:
    """sha256 prefix of arrays (dtype, shape, bytes), ragged lists and scalars."""
    sha = hashlib.sha256()
    for value in values:
        if isinstance(value, list):
            arrays = [np.asarray(item) for item in value]
            sha.update(b"list")
            sha.update(np.asarray([len(a) for a in arrays], dtype=np.int64).tobytes())
            for array in arrays:
                sha.update(array.dtype.str.encode())
                sha.update(np.ascontiguousarray(array).tobytes())
        elif isinstance(value, np.ndarray):
            sha.update(value.dtype.str.encode())
            sha.update(repr(value.shape).encode())
            sha.update(np.ascontiguousarray(value).tobytes())
        else:
            sha.update(repr(value).encode())
    return sha.hexdigest()[:16]


def _dataset_digest(dataset) -> str:
    fields = vars(dataset)
    return _digest(*[fields[name] for name in sorted(fields)])


def _task_digest(task) -> str:
    """The structures a task builds from its dataset at construction."""
    if task.name == "kge":
        return _digest(task._known_objects, task._known_subjects)
    if task.name == "word_vectors":
        words = task._context_keys - task.corpus.vocab_size
        contexts = np.split(words, task._context_offsets[1:-1])
        return _digest(task._centers, contexts)
    return _digest([shard for node in task.create_shards(2, 3, seed=0)
                    for shard in node])


#: (task, preset, dataset seed) -> (dataset digest, task digest).
GOLDEN_DIGESTS = {
    ("kge", "bench", 0): ("2fe1e0b5cea6f7ba", "ebd5d76ccb7fcc47"),
    ("kge", "bench", 1): ("1ae47f766828528a", "14809cdb0b66e48c"),
    ("kge", "bench", 2): ("440b39ef3a863c35", "c191f8e1c952ed03"),
    ("kge", "test", 0): ("9a47b07bfd5a560f", "448aa95535352b3c"),
    ("kge", "test", 1): ("fb33d77d16cb5124", "802e22ab408a69fa"),
    ("kge", "test", 2): ("d2d28a5add962fd2", "4389401827a61751"),
    ("word_vectors", "bench", 0): ("72e451e349b2be92", "21b8dba4774ac6a0"),
    ("word_vectors", "bench", 1): ("efc879ade810a8f8", "ffd8fef59768f7c5"),
    ("word_vectors", "bench", 2): ("819766f36d221e62", "1f87e2acc602e8ae"),
    ("word_vectors", "test", 0): ("d0d12c8df5c84242", "2677ebcd1b43125b"),
    ("word_vectors", "test", 1): ("66f19ffd7f56ea6b", "4a5e1e8baccb4a6f"),
    ("word_vectors", "test", 2): ("9bfea600258ef173", "881272dba99d583a"),
    ("matrix_factorization", "bench", 0): ("9f8e79e75ede0a8f", "2ae8988bf3d476eb"),
    ("matrix_factorization", "bench", 1): ("c4e2a0efd37a1992", "89c5fcaed7513d9c"),
    ("matrix_factorization", "bench", 2): ("d7f0ae1861047d8e", "3e79483c1797e38e"),
    ("matrix_factorization", "test", 0): ("89fcd11b9b35a720", "2a67d3fd9adc479c"),
    ("matrix_factorization", "test", 1): ("499dc426cca3660b", "bbdba4c1e0e9b4ef"),
    ("matrix_factorization", "test", 2): ("9c6214a24e7f3829", "2a826fd9789839b9"),
}


@pytest.mark.parametrize("name,scale,seed", sorted(GOLDEN_DIGESTS))
def test_generated_datasets_and_tasks_match_golden_digests(name, scale, seed):
    task = make_task(name, scale, seed=seed)
    dataset = {"kge": "graph", "word_vectors": "corpus"}.get(name, "dataset")
    assert (_dataset_digest(getattr(task, dataset)), _task_digest(task)) \
        == GOLDEN_DIGESTS[(name, scale, seed)]


def test_scalar_choice_is_one_double_through_the_cdf():
    """The identity the KG object draw rests on: ``Generator.choice`` with a
    scalar size and ``p`` consumes one ``random()`` double and returns the
    member at ``cdf.searchsorted(u, side="right")`` of the normalised CDF."""
    probs = zipf_probabilities(40, 1.1, shuffle=True, rng=np.random.default_rng(1))
    members = np.arange(100, 140)
    scalar, batched = np.random.default_rng(5), np.random.default_rng(5)
    expected = [scalar.choice(members, p=probs) for _ in range(500)]
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    drawn = members[cdf.searchsorted(batched.random(500), side="right")]
    np.testing.assert_array_equal(drawn, expected)
    assert scalar.random() == batched.random()


@pytest.mark.parametrize("shape,low,high", [
    ((0, 3), 0, 5), ((1, 3), 0, 5), ((200, 1), -3, 4), ((500, 3), 0, 6),
    ((300, 2), -(2 ** 40), 2 ** 40), ((400, 4), -2, 2),
])
def test_unique_rows_matches_numpy_unique(shape, low, high):
    rows = np.random.default_rng(shape[0]).integers(low, high, size=shape)
    expected = np.unique(rows, axis=0)
    got = unique_rows(rows)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


_START_UP = """
import sys
from repro.runner.workloads import make_task
for name in ("kge", "word_vectors", "matrix_factorization"):
    make_task(name, "bench")
print("numpy.ma" in sys.modules)
"""


def test_building_the_bench_tasks_does_not_import_numpy_ma():
    """``np.unique(..., axis=0)`` imports ``numpy.ma`` (15-45 ms in every fresh
    interpreter); dataset and task construction must not bring it back."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", _START_UP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
