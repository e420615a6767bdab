"""Synthetic embedding models and clustered corpus generation.

Real RAG embeddings (Cohere embed-v3, all-roberta-large-v1, ...) are
768-8192-dimensional and strongly clustered by topic -- the property IVF
exploits.  The generator below produces Gaussian-mixture embeddings whose
cluster structure yields realistic IVF recall/nprobe trade-offs, and a
deterministic text-to-vector model so that queries about a topic actually
retrieve that topic's documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ann.blocks import row_blocks
from repro.sim.rng import make_rng


def make_clustered_embeddings(
    n: int,
    dim: int,
    n_clusters: int,
    cluster_std: float = 0.5,
    seed: object = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian-mixture embeddings on the unit sphere.

    Returns (vectors (n, dim) float32, topic labels (n,) int64).  Cluster
    centers are unit vectors; members are center + isotropic noise, then
    re-normalized -- mimicking normalized text-embedding geometry.

    ``cluster_std`` is the *norm* of the member noise relative to the unit
    center (the per-coordinate std is ``cluster_std / sqrt(dim)``), so the
    cluster tightness is dimension-independent: centers sit ~sqrt(2) apart
    and members ~``cluster_std`` from their center at every dimension.

    The member noise is drawn row block by row block
    (:mod:`repro.ann.blocks`): ``Generator.standard_normal`` consumes its
    stream sequentially, so the vectors are those of one ``(n, dim)`` draw
    while the float64 temporary is block-sized.
    """
    if n <= 0 or dim <= 0 or n_clusters <= 0:
        raise ValueError("n, dim and n_clusters must be positive")
    rng = make_rng("corpus", seed, n, dim, n_clusters)
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # Zipf-ish cluster sizes: real corpora have head topics.
    weights = 1.0 / np.arange(1, n_clusters + 1) ** 0.6
    weights /= weights.sum()
    labels = rng.choice(n_clusters, size=n, p=weights).astype(np.int64)
    per_coord = cluster_std / float(np.sqrt(dim))
    vectors = np.empty((n, dim), dtype=np.float32)
    for lo, hi in row_blocks(n):
        noise = rng.standard_normal((hi - lo, dim)).astype(np.float32)
        block = centers[labels[lo:hi]] + per_coord * noise
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        vectors[lo:hi] = block
    return vectors, labels


def make_queries(
    vectors: np.ndarray,
    n_queries: int,
    noise_std: float = 0.2,
    seed: object = 0,
) -> np.ndarray:
    """Queries as noisy copies of database points (the dense-retrieval regime).

    ``noise_std`` is the noise norm relative to the unit-norm source vector
    (dimension-independent, like :func:`make_clustered_embeddings`).
    """
    rng = make_rng("queries", seed, n_queries)
    n, dim = vectors.shape
    picks = rng.integers(0, n, size=n_queries)
    per_coord = noise_std / float(np.sqrt(dim))
    queries = vectors[picks] + per_coord * rng.standard_normal(
        (n_queries, dim)
    ).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return queries.astype(np.float32)


@dataclass
class SyntheticEmbeddingModel:
    """Deterministic text encoder used by the end-to-end examples.

    Texts that mention the same topic hash onto nearby vectors, so a query
    "topic 7" lands near the chunks generated for topic 7.  The model also
    carries a nominal load size / encode latency for the pipeline stage
    breakdown (an all-roberta-large-v1-class encoder).
    """

    dim: int = 256
    n_topics: int = 64
    seed: object = 0
    model_bytes: int = 1_420_000_000  # ~1.4GB fp32 encoder weights
    encode_seconds_per_query: float = 1.1e-3  # batched GPU encode

    def __post_init__(self) -> None:
        rng = make_rng("embedding-model", self.seed, self.dim, self.n_topics)
        centers = rng.standard_normal((self.n_topics, self.dim)).astype(np.float32)
        self._centers = centers / np.linalg.norm(centers, axis=1, keepdims=True)

    def encode(self, text: str) -> np.ndarray:
        """Deterministic embedding: topic direction + token-hash noise."""
        topic = self._extract_topic(text)
        rng = make_rng("encode", text)
        noise = 0.15 * rng.standard_normal(self.dim).astype(np.float32)
        vector = self._centers[topic % self.n_topics] + noise
        return (vector / np.linalg.norm(vector)).astype(np.float32)

    def _extract_topic(self, text: str) -> int:
        for token in text.replace(".", " ").split():
            if token.isdigit():
                return int(token)
        return sum(text.encode("utf-8")) % self.n_topics
