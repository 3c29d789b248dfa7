"""Synthetic, skew-preserving dataset generators.

The paper evaluates on Wikidata5M, the One Billion Word Benchmark, and a
synthetic Zipf-1.1 matrix. The first two are not shippable here, so this
package generates synthetic stand-ins that preserve the property the
parameter server reacts to — heavily skewed (Zipf-like) access frequencies —
while also embedding enough latent structure that the models can actually
learn something (so that model-quality-over-time curves are meaningful).
"""

from repro.data.zipf import zipf_probabilities
from repro.data.knowledge_graph import KnowledgeGraph, generate_knowledge_graph
from repro.data.corpus import Corpus, generate_corpus
from repro.data.matrix import MatrixDataset, generate_matrix

__all__ = [
    "zipf_probabilities",
    "KnowledgeGraph",
    "generate_knowledge_graph",
    "Corpus",
    "generate_corpus",
    "MatrixDataset",
    "generate_matrix",
]
