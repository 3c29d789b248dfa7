"""Synthetic text corpus generator (stand-in for the One Billion Word Benchmark).

The generator produces sentences over a vocabulary with two properties:

1. **Zipf word frequencies**, matching the skew shown in Figure 3b: a small
   set of words accounts for a large share of all tokens.
2. **Topical structure**: each sentence is generated from one of several
   latent topics, and every (non-stop) word belongs to one topic. Words of
   the same topic co-occur, so skip-gram training pulls their vectors
   together. This structure supports a similarity-probe evaluation that
   stands in for the paper's analogical-reasoning accuracy (which requires a
   natural-language corpus we cannot ship).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.zipf import zipf_probabilities


@dataclass
class Corpus:
    """A synthetic corpus: sentences of word ids plus evaluation probes."""

    vocab_size: int
    sentences: List[np.ndarray]
    word_frequencies: np.ndarray  # empirical token counts per word
    word_topics: np.ndarray       # latent topic of each word (for evaluation)
    similarity_probes: np.ndarray  # (P, 3): anchor, same-topic, other-topic


def generate_corpus(
    vocab_size: int = 2000,
    num_sentences: int = 2000,
    sentence_length: int = 12,
    num_topics: int = 10,
    frequency_exponent: float = 1.1,
    topic_purity: float = 0.85,
    num_probes: int = 500,
    seed: int = 0,
) -> Corpus:
    """Generate a Zipf-skewed, topic-structured corpus.

    ``topic_purity`` is the probability that a token is drawn from the
    sentence's topic vocabulary (the rest is drawn from the global frequency
    distribution), controlling how much co-occurrence signal there is.
    """
    if vocab_size < num_topics * 2:
        raise ValueError("vocab_size must be at least twice num_topics")
    if not 0 <= topic_purity <= 1:
        raise ValueError("topic_purity must be in [0, 1]")
    rng = np.random.default_rng(seed)

    # Global Zipf frequencies over words; hot words spread over the id space.
    global_probs = zipf_probabilities(vocab_size, frequency_exponent, shuffle=True, rng=rng)
    word_topics = rng.integers(0, num_topics, size=vocab_size)

    # Per-topic word distributions: the topic's own words weighted by their
    # global probability.
    topic_words: List[np.ndarray] = []
    topic_word_probs: List[np.ndarray] = []
    for topic in range(num_topics):
        members = np.flatnonzero(word_topics == topic)
        if len(members) == 0:
            members = rng.integers(0, vocab_size, size=2)
        probs = global_probs[members]
        topic_words.append(members)
        topic_word_probs.append(probs / probs.sum())

    # Each sentence draws its topic and then one block of doubles: which
    # positions come from the topic, then its topic tokens' draws, then its
    # global tokens' — the stream of one ``random`` and two ``choice(p=...)``
    # calls per sentence, as ``choice(p=...)`` is
    # ``cdf.searchsorted(random(n), side="right")`` over the normalised CDF.
    length = sentence_length
    topics = np.empty(num_sentences, dtype=np.int64)
    uniforms = np.empty((num_sentences, 2 * length))
    for index in range(num_sentences):
        topics[index] = rng.integers(0, num_topics)
        uniforms[index] = rng.random(2 * length)
    from_topic = uniforms[:, :length] < topic_purity
    topic_rank = np.cumsum(from_topic, axis=1)
    global_rank = topic_rank[:, -1:] + np.arange(length) - topic_rank
    draws = np.take_along_axis(
        uniforms, length + np.where(from_topic, topic_rank - 1, global_rank),
        axis=1)
    tokens = np.empty((num_sentences, length), dtype=np.int64)
    tokens[~from_topic] = _cdf(global_probs).searchsorted(
        draws[~from_topic], side="right")
    for topic in range(num_topics):
        in_topic = from_topic & (topics == topic)[:, None]
        tokens[in_topic] = topic_words[topic][_cdf(
            topic_word_probs[topic]).searchsorted(draws[in_topic], side="right")]
    sentences = list(tokens)

    word_frequencies = np.bincount(
        tokens.ravel(), minlength=vocab_size
    ).astype(np.float64)

    similarity_probes = _build_similarity_probes(
        rng, word_topics, word_frequencies, num_probes
    )

    return Corpus(
        vocab_size=vocab_size,
        sentences=sentences,
        word_frequencies=word_frequencies,
        word_topics=word_topics,
        similarity_probes=similarity_probes,
    )


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised CDF ``Generator.choice`` searches for ``p=probs``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _build_similarity_probes(
    rng: np.random.Generator,
    word_topics: np.ndarray,
    word_frequencies: np.ndarray,
    num_probes: int,
) -> np.ndarray:
    """Build (anchor, same-topic word, other-topic word) probes.

    Only words that actually occur in the corpus are used, and probes prefer
    reasonably frequent words so that their vectors receive enough updates to
    be evaluated meaningfully.
    """
    occurring = np.flatnonzero(word_frequencies > 0)
    if len(occurring) < 3:
        return np.empty((0, 3), dtype=np.int64)
    # Focus on the more frequent half of occurring words.
    frequent = occurring[np.argsort(word_frequencies[occurring])[::-1]]
    frequent = frequent[: max(3, len(frequent) // 2)]

    probes = []
    topics_of_frequent = word_topics[frequent]
    for _ in range(num_probes * 4):
        if len(probes) >= num_probes:
            break
        anchor = frequent[rng.integers(0, len(frequent))]
        same_candidates = frequent[
            (topics_of_frequent == word_topics[anchor]) & (frequent != anchor)
        ]
        diff_candidates = frequent[topics_of_frequent != word_topics[anchor]]
        if len(same_candidates) == 0 or len(diff_candidates) == 0:
            continue
        same = same_candidates[rng.integers(0, len(same_candidates))]
        diff = diff_candidates[rng.integers(0, len(diff_candidates))]
        probes.append((int(anchor), int(same), int(diff)))
    return np.asarray(probes, dtype=np.int64).reshape(-1, 3)
