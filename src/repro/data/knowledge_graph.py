"""Synthetic knowledge graph generator (stand-in for Wikidata5M).

The generator produces subject–relation–object triples with two properties:

1. **Skewed entity frequencies.** Subjects and objects are drawn from a Zipf
   distribution over entities, so a small set of entities participates in a
   large share of the triples — matching the access skew of Figure 3a.
2. **Learnable structure.** Entities are assigned latent clusters and each
   relation maps subject clusters to object clusters. A ComplEx model can
   learn this structure, so filtered MRR improves with training, which makes
   quality-over-time curves meaningful.

A held-out test split supports filtered ranking evaluation as in LibKGE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.data.rows import unique_rows
from repro.data.zipf import zipf_probabilities


@dataclass
class KnowledgeGraph:
    """A synthetic knowledge graph with train/test splits."""

    num_entities: int
    num_relations: int
    train_triples: np.ndarray  # (N, 3) int64: subject, relation, object
    test_triples: np.ndarray   # (M, 3) int64
    entity_frequencies: np.ndarray  # per-entity occurrence counts in train
    relation_frequencies: np.ndarray  # per-relation occurrence counts in train
    entity_clusters: np.ndarray = field(repr=False, default=None)

    @property
    def num_train(self) -> int:
        return len(self.train_triples)

    @property
    def num_test(self) -> int:
        return len(self.test_triples)


def generate_knowledge_graph(
    num_entities: int = 2000,
    num_relations: int = 16,
    num_triples: int = 20000,
    num_clusters: int = 8,
    entity_exponent: float = 1.2,
    relation_exponent: float = 0.8,
    noise: float = 0.05,
    test_fraction: float = 0.05,
    seed: int = 0,
) -> KnowledgeGraph:
    """Generate a skewed, learnable synthetic knowledge graph.

    Parameters mirror the shape of Wikidata5M at a much smaller scale: many
    entities, few relations, entity participation heavily skewed.

    ``noise`` is the fraction of triples whose object is drawn at random
    instead of from the relation's target cluster; it keeps the task from
    being trivially separable.
    """
    if num_entities < num_clusters:
        raise ValueError("num_entities must be at least num_clusters")
    if not 0 <= noise <= 1:
        raise ValueError("noise must be in [0, 1]")
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)

    # Latent structure: entity clusters and per-relation cluster maps.
    entity_clusters = rng.integers(0, num_clusters, size=num_entities)
    relation_cluster_map = rng.integers(
        0, num_clusters, size=(num_relations, num_clusters)
    )
    # Entities of each cluster, for fast object sampling.
    cluster_members: Dict[int, np.ndarray] = {
        c: np.flatnonzero(entity_clusters == c) for c in range(num_clusters)
    }
    for c, members in cluster_members.items():
        if len(members) == 0:
            # Guarantee non-empty clusters (tiny graphs in tests).
            cluster_members[c] = rng.integers(0, num_entities, size=1)

    entity_probs = zipf_probabilities(num_entities, entity_exponent, shuffle=True, rng=rng)
    relation_probs = zipf_probabilities(num_relations, relation_exponent, shuffle=True, rng=rng)

    subjects = rng.choice(num_entities, size=num_triples, p=entity_probs)
    relations = rng.choice(num_relations, size=num_triples, p=relation_probs)

    # Noise triples keep their object from this draw; the others take one
    # from the relation's target cluster, preferring frequent entities to
    # keep object access skewed.
    objects = rng.choice(num_entities, size=num_triples, p=entity_probs).astype(np.int64)
    use_noise = rng.random(num_triples) < noise
    structured = np.flatnonzero(~use_noise)
    target_clusters = relation_cluster_map[
        relations[structured], entity_clusters[subjects[structured]]
    ]
    # ``rng.choice(members, p=member_probs)`` per structured triple, in
    # triple order, is one double each looked up in the members' CDF: draw
    # the doubles at once and look them up per cluster.
    uniforms = rng.random(len(structured))
    for c, members in cluster_members.items():
        in_cluster = target_clusters == c
        member_probs = entity_probs[members]
        member_probs = member_probs / member_probs.sum()
        cdf = member_probs.cumsum()
        cdf /= cdf[-1]
        objects[structured[in_cluster]] = members[
            cdf.searchsorted(uniforms[in_cluster], side="right")
        ]

    triples = np.stack(
        [subjects.astype(np.int64), relations.astype(np.int64), objects], axis=1
    )
    triples = unique_rows(triples)
    rng.shuffle(triples)

    num_test = max(1, int(round(test_fraction * len(triples))))
    test_triples = triples[:num_test]
    train_triples = triples[num_test:]

    entity_frequencies = np.bincount(
        np.concatenate([train_triples[:, 0], train_triples[:, 2]]),
        minlength=num_entities,
    ).astype(np.float64)
    relation_frequencies = np.bincount(
        train_triples[:, 1], minlength=num_relations
    ).astype(np.float64)

    return KnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        train_triples=train_triples,
        test_triples=test_triples,
        entity_frequencies=entity_frequencies,
        relation_frequencies=relation_frequencies,
        entity_clusters=entity_clusters,
    )
