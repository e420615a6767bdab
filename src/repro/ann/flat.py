"""Flat (exhaustive) index: the exact-search reference and BF baseline."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ann.distances import METRICS, hamming_packed


class FlatIndex:
    """Brute-force nearest neighbor search over FP32 vectors."""

    def __init__(self, dim: int, metric: str = "l2") -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
        self.dim = dim
        self.metric = metric
        self._vectors = np.empty((0, dim), dtype=np.float32)

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    def add(self, vectors: np.ndarray) -> None:
        """Append rows.  The index keeps the first add's float32 C-contiguous
        rows as a read-only view, not a copy: do not write to them later."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if len(self):
            vectors = np.concatenate((self._vectors, vectors))
        self._vectors = np.ascontiguousarray(vectors).view()
        self._vectors.flags.writeable = False

    def search(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (distances, indices) of the ``k`` nearest vectors."""
        if len(self) == 0:
            raise RuntimeError("search on an empty index")
        k = min(k, len(self))
        distances = METRICS[self.metric](query, self._vectors)
        top = np.argpartition(distances, k - 1)[:k]
        order = np.argsort(distances[top], kind="stable")
        top = top[order]
        return distances[top], top


class BinaryFlatIndex:
    """Brute-force Hamming search over packed binary codes."""

    def __init__(self, code_bytes: int) -> None:
        self.code_bytes = code_bytes
        self._codes = np.empty((0, code_bytes), dtype=np.uint8)

    def __len__(self) -> int:
        return self._codes.shape[0]

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def add(self, codes: np.ndarray) -> None:
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        if codes.shape[1] != self.code_bytes:
            raise ValueError(f"expected {self.code_bytes} code bytes, got {codes.shape[1]}")
        self._codes = np.vstack([self._codes, codes])

    def search(self, query_code: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise RuntimeError("search on an empty index")
        k = min(k, len(self))
        distances = hamming_packed(query_code, self._codes)
        top = np.argpartition(distances, k - 1)[:k]
        order = np.argsort(distances[top], kind="stable")
        top = top[order]
        return distances[top], top
