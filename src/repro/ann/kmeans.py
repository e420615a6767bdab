"""Lloyd's k-means with k-means++ initialization (IVF/PQ training).

The build streams the corpus in row blocks (:mod:`repro.ann.blocks`): the
row norms of the training set are computed once and shared by the seeding
steps, the Lloyd step and (when nothing was subsampled) the final
assignment; an assignment pass keeps one block-sized distance tile, never
the ``(n, k)`` matrix; the centroid update gathers each cluster's members
from one stable sort of the labels.  All of it is the arithmetic of the
whole-matrix form in the same order, so the result is the same bit for bit
(``tests/test_ann_indexes.py`` keeps that form as its reference).

Known defect, kept on purpose: ``previous_inertia`` starts at ``inf``, so the
first convergence test ``inf - x <= tol * inf`` is true and Lloyd stops
after exactly one iteration (``kmeans(x, k).iterations == 1``).  Repairing
it moves every centroid and every number pinned downstream; it is its own
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ann.blocks import row_blocks
from repro.ann.distances import pairwise_l2_squared, row_norms_squared
from repro.sim.rng import make_rng


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, d) float32
    assignments: np.ndarray  # (n,) int64
    inertia: float
    iterations: int


def _kmeanspp_init(
    data: np.ndarray, data_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (distance-proportional sampling).

    A step costs one matrix-vector product over ``data`` (whose row norms
    ``data_sq`` the caller computed once) and one ``rng.choice``.
    """
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float32)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    closest = pairwise_l2_squared(data, centroids[0:1], data_sq).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[i:] = data[rng.integers(0, n, size=k - i)]
            break
        probs = closest / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = data[chosen]
        dist_new = pairwise_l2_squared(data, centroids[i : i + 1], data_sq).ravel()
        np.minimum(closest, dist_new, out=closest)
    return centroids


def _assign(
    data: np.ndarray, data_sq: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every row: ``(labels int64, best float32)``.

    ``best`` is each row's distance to its label.  One distance tile per
    row block; each output row of ``a @ b.T`` depends on its own row of
    ``a`` only, so the tiles are rows of the whole matrix.
    """
    n = data.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float32)
    centroids_sq = row_norms_squared(centroids)
    for lo, hi in row_blocks(n):
        tile = pairwise_l2_squared(
            data[lo:hi], centroids, data_sq[lo:hi], centroids_sq
        )
        labels[lo:hi] = tile.argmin(axis=1)
        best[lo:hi] = tile[np.arange(hi - lo), labels[lo:hi]]
    return labels, best


def group_by_label(labels: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group row ids by label: ``(order, bounds)`` with the rows labelled
    ``c`` at ``order[bounds[c]:bounds[c + 1]]``, ascending (one stable sort
    instead of ``k`` boolean masks)."""
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    return order, bounds


def kmeans(
    data: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-4,
    seed: object = 0,
    sample_limit: int = 100_000,
) -> KMeansResult:
    """Cluster ``data`` (n, d) into ``k`` centroids.

    Training subsamples to ``sample_limit`` points (as ANN libraries do) but
    final assignments cover the full dataset.  Memory beyond ``data`` (and
    the subsample, if one is drawn) is O(n) labels and norms plus one
    ``ROW_BLOCK x k`` distance tile.
    """
    data = np.asarray(data, dtype=np.float32)
    n = data.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot build {k} clusters from {n} points")
    rng = make_rng("kmeans", seed, n, k)

    if n > sample_limit:
        train = data[rng.choice(n, size=sample_limit, replace=False)]
    else:
        train = data
    train_sq = row_norms_squared(train)

    centroids = _kmeanspp_init(train, train_sq, k, rng)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        labels, best = _assign(train, train_sq, centroids)
        inertia = float(best.sum())
        new_centroids = centroids.copy()
        order, bounds = group_by_label(labels, k)
        for cluster in range(k):
            members = order[bounds[cluster] : bounds[cluster + 1]]
            if members.size > 0:
                new_centroids[cluster] = train[members].mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                new_centroids[cluster] = train[int(best.argmax())]
        centroids = new_centroids
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            break
        previous_inertia = inertia

    data_sq = train_sq if train is data else row_norms_squared(data)
    assignments, best = _assign(data, data_sq, centroids)
    return KMeansResult(centroids, assignments, float(best.sum()), iterations)
