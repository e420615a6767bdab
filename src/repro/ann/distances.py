"""Distance kernels for dense and quantized embeddings."""

from __future__ import annotations

from typing import Optional

import numpy as np


def l2_squared(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between ``query`` (d,) and ``vectors`` (n, d),
    differenced a block of rows at a time (about 1 MiB of scratch, not an
    (n, d) copy) with the same per-row sums as one pass."""
    query = np.asarray(query, dtype=np.float32)
    vectors = np.asarray(vectors, dtype=np.float32)
    out = np.empty(len(vectors), dtype=np.float32)
    step = max(1, (1 << 18) // max(1, vectors.shape[1]))
    for lo in range(0, len(vectors), step):
        diff = vectors[lo:lo + step] - query[None, :]
        np.einsum("ij,ij->i", diff, diff, out=out[lo:lo + step])
    return out


def inner_product(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Inner product similarity (higher = more similar)."""
    return np.asarray(vectors, dtype=np.float32) @ np.asarray(query, dtype=np.float32)


def negative_inner_product(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Inner product as a distance (lower = more similar)."""
    return -inner_product(query, vectors)


def hamming_packed(query_bits: np.ndarray, vector_bits: np.ndarray) -> np.ndarray:
    """Hamming distance between packed binary codes.

    ``query_bits`` is (code_bytes,) uint8 and ``vector_bits`` (n, code_bytes)
    uint8, giving (n,) int64 -- or (q, code_bytes) for ``q`` queries at
    once, giving (q, n).  This is exactly the XOR + popcount computation
    REIS performs with the page-buffer latches and the fail-bit counter.
    """
    query_bits = np.asarray(query_bits, dtype=np.uint8)
    vector_bits = np.atleast_2d(np.asarray(vector_bits, dtype=np.uint8))
    xored = np.bitwise_xor(vector_bits, query_bits[..., None, :])
    return np.bitwise_count(xored).sum(axis=-1, dtype=np.int64)


def int8_l2_squared(query_i8: np.ndarray, vectors_i8: np.ndarray) -> np.ndarray:
    """Squared L2 between INT8-quantized codes (the reranking distance)."""
    q = np.asarray(query_i8, dtype=np.int32)
    v = np.asarray(vectors_i8, dtype=np.int32)
    diff = v - q[None, :]
    return np.einsum("ij,ij->i", diff, diff).astype(np.int64)


METRICS = {
    "l2": l2_squared,
    "ip": negative_inner_product,
}


def row_norms_squared(a: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row of ``a`` (n, d)."""
    return np.einsum("ij,ij->i", a, a)


def pairwise_l2_squared(
    a: np.ndarray,
    b: np.ndarray,
    a_sq: Optional[np.ndarray] = None,
    b_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All-pairs squared L2 between rows of ``a`` (n, d) and ``b`` (m, d).

    ``a_sq`` / ``b_sq`` are the operands' :func:`row_norms_squared` when the
    caller already holds them (k-means computes its training set's once and
    hands each row block its slice).  The result is the float32 expression
    ``max((a_sq + b_sq) - 2 * (a @ b.T), 0)`` evaluated in that order, in
    place on two (n, m) arrays.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a_sq is None:
        a_sq = row_norms_squared(a)
    if b_sq is None:
        b_sq = row_norms_squared(b)
    out = a_sq[:, None] + b_sq[None, :]
    cross = a @ b.T
    cross *= 2.0
    out -= cross
    np.maximum(out, 0.0, out=out)
    return out
