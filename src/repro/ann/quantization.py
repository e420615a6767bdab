"""Binary and INT8 scalar quantization (Sec. 2.2).

Binary quantization (BQ) compresses each FP32 component to one bit (32x),
which turns distance computation into XOR + popcount -- the operation the
NAND peripheral logic can execute.  INT8 scalar quantization (8-bit per
component, 4x) is the reranking precision REIS stores in the TLC partition.

``fit`` and ``encode`` run at deployment over the whole corpus, so their
elementwise passes (and the order-free ``max``) walk it in row blocks
(:mod:`repro.ann.blocks`) and hold block-sized temporaries only.  The
float32 ``mean(axis=0)`` of the fits stays one call on purpose: blocking it
would reorder a float sum and move every code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.blocks import float32_rows, row_blocks


@dataclass
class BinaryQuantizer:
    """Sign-threshold binary quantizer with packed uint8 codes.

    Components above the (per-dimension) threshold map to 1.  Thresholding at
    the training mean rather than zero keeps recall high for non-centered
    embedding distributions (the Cohere-style BQ recipe the paper uses).
    """

    thresholds: np.ndarray | None = None

    def fit(self, vectors: np.ndarray) -> "BinaryQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        self.thresholds = vectors.mean(axis=0)
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """FP32 (n, d) -> packed codes (n, d/8) uint8.  ``d`` must be /8."""
        vectors = float32_rows(vectors)
        dim = vectors.shape[1]
        if dim % 8 != 0:
            raise ValueError("dimension must be a multiple of 8 for packing")
        thresholds = self.thresholds if self.thresholds is not None else 0.0
        codes = np.empty((vectors.shape[0], dim // 8), dtype=np.uint8)
        for lo, hi in row_blocks(vectors.shape[0]):
            codes[lo:hi] = np.packbits(vectors[lo:hi] > thresholds, axis=1)
        return codes

    def encode_one(self, vector: np.ndarray) -> np.ndarray:
        return self.encode(vector[None, :])[0]

    @staticmethod
    def code_bytes(dim: int) -> int:
        if dim % 8 != 0:
            raise ValueError("dimension must be a multiple of 8")
        return dim // 8


@dataclass
class Int8Quantizer:
    """Symmetric per-dataset INT8 scalar quantizer."""

    scale: float = 1.0
    offset: np.ndarray | None = None

    def fit(self, vectors: np.ndarray) -> "Int8Quantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        self.offset = vectors.mean(axis=0)
        spread = np.max(
            [
                np.abs(vectors[lo:hi] - self.offset).max()
                for lo, hi in row_blocks(vectors.shape[0])
            ]
        )
        self.scale = float(spread) / 127.0 if spread > 0 else 1.0
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """FP32 (n, d) -> INT8 codes (n, d): round((x - offset) / scale),
        clipped to +-127."""
        vectors = float32_rows(vectors)
        offset = self.offset if self.offset is not None else 0.0
        codes = np.empty(vectors.shape, dtype=np.int8)
        for lo, hi in row_blocks(vectors.shape[0]):
            scaled = vectors[lo:hi] - offset
            scaled /= self.scale
            np.rint(scaled, out=scaled)  # np.round's half-to-even, as a ufunc
            np.clip(scaled, -127, 127, out=scaled)
            codes[lo:hi] = scaled
        return codes

    def encode_one(self, vector: np.ndarray) -> np.ndarray:
        return self.encode(vector[None, :])[0]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        offset = self.offset if self.offset is not None else 0.0
        return codes.astype(np.float32) * self.scale + offset
