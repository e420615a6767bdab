"""Inverted File (IVF) indexes.

IVF clusters the database with k-means; a query first finds the ``nprobe``
nearest cluster centroids (coarse search), then scans only those clusters'
members (fine search).  Cluster members are contiguous, which gives IVF the
streaming access pattern that makes it the ISP-friendly choice (Sec. 4.2),
in contrast to graph traversal.

Three variants are provided:

* :class:`IvfIndex` -- FP32 fine search (the "IVF" curve of Fig. 5).
* :class:`BqIvfIndex` -- binary-quantized fine search plus INT8 reranking
  (the "BQ IVF" curve, and the algorithm REIS executes in storage).
* :class:`PqIvfIndex` -- product-quantized fine search ("PQ IVF" curve),
  in :mod:`repro.ann.pq`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ann.distances import hamming_packed, l2_squared
from repro.ann.kmeans import group_by_label, kmeans
from repro.ann.quantization import BinaryQuantizer, Int8Quantizer


@dataclass
class IvfModel:
    """The trained clustering shared by every IVF variant and by REIS.

    ``lists[c]`` holds the database ids assigned to cluster ``c``; ids within
    a list are sorted so cluster members are contiguous ranges after the
    REIS deployment reorders vectors by cluster.
    """

    centroids: np.ndarray  # (nlist, d) float32
    lists: List[np.ndarray]  # per-cluster int64 id arrays

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def cluster_sizes(self) -> np.ndarray:
        return np.array([len(lst) for lst in self.lists], dtype=np.int64)


def build_ivf_model(
    vectors: np.ndarray, nlist: int, seed: object = 0, max_iterations: int = 20
) -> IvfModel:
    """Train k-means and build the inverted lists.

    The lists (int64, ascending, every id exactly once) are cut from one
    stable sort of the assignments, not from ``nlist`` masks over them.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    result = kmeans(vectors, nlist, max_iterations=max_iterations, seed=seed)
    order, bounds = group_by_label(result.assignments, nlist)
    lists = [order[bounds[c] : bounds[c + 1]] for c in range(nlist)]
    return IvfModel(result.centroids, lists)


def coarse_probe(model: IvfModel, query: np.ndarray, nprobe: int) -> np.ndarray:
    """Ids of the ``nprobe`` clusters whose centroids are nearest to ``query``."""
    nprobe = min(nprobe, model.nlist)
    distances = l2_squared(query, model.centroids)
    top = np.argpartition(distances, nprobe - 1)[:nprobe]
    return top[np.argsort(distances[top], kind="stable")]


class IvfIndex:
    """IVF with full-precision (FP32) fine search."""

    def __init__(self, dim: int, nlist: int, seed: object = 0) -> None:
        self.dim = dim
        self.nlist = nlist
        self.seed = seed
        self.model: Optional[IvfModel] = None
        self._vectors: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[0]

    def fit(self, vectors: np.ndarray) -> "IvfIndex":
        """Train the clustering and index ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        self.model = build_ivf_model(vectors, self.nlist, seed=self.seed)
        self._vectors = vectors
        return self

    def _require_fitted(self) -> IvfModel:
        if self.model is None or self._vectors is None:
            raise RuntimeError("index is not fitted; call fit() first")
        return self.model

    def search(
        self, query: np.ndarray, k: int, nprobe: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, ids) of the approximate top-k."""
        model = self._require_fitted()
        clusters = coarse_probe(model, query, nprobe)
        candidate_ids = np.concatenate([model.lists[c] for c in clusters]) if len(
            clusters
        ) else np.empty(0, dtype=np.int64)
        if candidate_ids.size == 0:
            return np.empty(0, dtype=np.float32), candidate_ids
        distances = l2_squared(query, self._vectors[candidate_ids])
        k = min(k, candidate_ids.size)
        top = np.argpartition(distances, k - 1)[:k]
        order = np.argsort(distances[top], kind="stable")
        top = top[order]
        return distances[top], candidate_ids[top]

    def scanned_candidates(self, query: np.ndarray, nprobe: int) -> int:
        """Number of fine-search candidates a query would touch."""
        model = self._require_fitted()
        clusters = coarse_probe(model, query, nprobe)
        return int(sum(len(model.lists[c]) for c in clusters))


class BqIvfIndex:
    """IVF over binary-quantized codes, with INT8 reranking.

    This is the exact algorithm REIS runs inside the SSD: coarse search on
    binary centroid codes (Hamming), fine search on binary embedding codes
    (Hamming), then rerank the 10k closest candidates with INT8 distances and
    return the distance-ordered top-k (Sec. 4.3.1-4.3.2).
    """

    def __init__(
        self, dim: int, nlist: int, seed: object = 0, rerank_factor: int = 40
    ) -> None:
        self.dim = dim
        self.nlist = nlist
        self.seed = seed
        self.rerank_factor = rerank_factor
        self.model: Optional[IvfModel] = None
        self.binary = BinaryQuantizer()
        self.int8 = Int8Quantizer()
        self._codes: Optional[np.ndarray] = None
        self._codes_i8: Optional[np.ndarray] = None
        self._centroid_codes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return 0 if self._codes is None else self._codes.shape[0]

    def fit(self, vectors: np.ndarray) -> "BqIvfIndex":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        self.model = build_ivf_model(vectors, self.nlist, seed=self.seed)
        self.binary.fit(vectors)
        self.int8.fit(vectors)
        self._codes = self.binary.encode(vectors)
        self._codes_i8 = self.int8.encode(vectors)
        self._centroid_codes = self.binary.encode(self.model.centroids)
        return self

    def _require_fitted(self) -> IvfModel:
        if self.model is None:
            raise RuntimeError("index is not fitted; call fit() first")
        return self.model

    def coarse_search(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """Binary coarse search: nearest centroids by Hamming distance."""
        model = self._require_fitted()
        nprobe = min(nprobe, model.nlist)
        query_code = self.binary.encode_one(np.asarray(query, dtype=np.float32))
        distances = hamming_packed(query_code, self._centroid_codes)
        # Hamming distances tie often; the stable (distance, cluster id)
        # order is the device's documented tie-break at the nprobe boundary.
        return np.argsort(distances, kind="stable")[:nprobe]

    def search(
        self, query: np.ndarray, k: int, nprobe: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Binary fine search + INT8 rerank; returns (distances, ids)."""
        model = self._require_fitted()
        query = np.asarray(query, dtype=np.float32)
        clusters = self.coarse_search(query, nprobe)
        candidate_ids = (
            np.concatenate([model.lists[c] for c in clusters])
            if len(clusters)
            else np.empty(0, dtype=np.int64)
        )
        if candidate_ids.size == 0:
            return np.empty(0, dtype=np.int64), candidate_ids
        query_code = self.binary.encode_one(query)
        hamming = hamming_packed(query_code, self._codes[candidate_ids])
        shortlist_size = min(self.rerank_factor * k, candidate_ids.size)
        shortlist = np.argsort(hamming, kind="stable")[:shortlist_size]
        shortlist_ids = candidate_ids[shortlist]
        query_i8 = self.int8.encode_one(query).astype(np.int32)
        refined = self._int8_distances(query_i8, shortlist_ids)
        k = min(k, shortlist_ids.size)
        top = np.argsort(refined, kind="stable")[:k]
        return refined[top], shortlist_ids[top]

    def _int8_distances(self, query_i8: np.ndarray, ids: np.ndarray) -> np.ndarray:
        codes = self._codes_i8[ids].astype(np.int32)
        diff = codes - query_i8[None, :]
        return np.einsum("ij,ij->i", diff, diff).astype(np.int64)

    def scanned_candidates(self, query: np.ndarray, nprobe: int) -> int:
        model = self._require_fitted()
        clusters = self.coarse_search(np.asarray(query, dtype=np.float32), nprobe)
        return int(sum(len(model.lists[c]) for c in clusters))
