"""From-scratch approximate nearest neighbor search library."""

from repro.ann.distances import (
    hamming_packed,
    inner_product,
    int8_l2_squared,
    l2_squared,
    pairwise_l2_squared,
)
from repro.ann.flat import BinaryFlatIndex, FlatIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.ivf import BqIvfIndex, IvfIndex, IvfModel, build_ivf_model, coarse_probe
from repro.ann.kmeans import KMeansResult, kmeans
from repro.ann.lsh import LshIndex
from repro.ann.pq import PqIvfIndex, ProductQuantizer
from repro.ann.quantization import BinaryQuantizer, Int8Quantizer
from repro.ann.recall import exact_ground_truth, mean_recall_at_k, recall_at_k

__all__ = [
    "l2_squared",
    "inner_product",
    "hamming_packed",
    "int8_l2_squared",
    "pairwise_l2_squared",
    "FlatIndex",
    "BinaryFlatIndex",
    "IvfIndex",
    "BqIvfIndex",
    "IvfModel",
    "build_ivf_model",
    "coarse_probe",
    "HnswIndex",
    "LshIndex",
    "ProductQuantizer",
    "PqIvfIndex",
    "BinaryQuantizer",
    "Int8Quantizer",
    "kmeans",
    "KMeansResult",
    "recall_at_k",
    "mean_recall_at_k",
    "exact_ground_truth",
]
