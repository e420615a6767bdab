"""Error-correction model for the SSD controller.

Commodity SSDs run ECC (BCH/LDPC) in the controller: every page read must
cross the channel to the controller before its data is trustworthy.  This is
exactly the data movement REIS avoids for the embedding partition (Sec. 4.1.2)
by using ESP SLC with zero raw BER.  We model ECC as a codeword-granularity
corrector with a fixed correction capability and a per-byte decode cost used
by the timing layer (and by the REIS-ASIC comparison point of Sec. 6.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class UncorrectableReadError(RuntimeError):
    """A TLC page came back with a codeword past the correction capability.

    Raised by the engine's read path and by a host read instead of serving
    (or caching) bytes that are not the programmed ones.
    """

    def __init__(self, region: str, page_offset: int) -> None:
        super().__init__(
            f"uncorrectable ECC codeword in region {region!r}, "
            f"page {page_offset}"
        )
        self.region = region
        self.page_offset = page_offset


def _diff_bytes(raw: np.ndarray, golden: np.ndarray) -> np.ndarray:
    """Indices of bytes where ``raw`` and ``golden`` differ, ascending.

    Compares word-at-a-time when the layout allows it (a page compare is
    8x fewer elements that way), falling back to the byte compare for odd
    sizes or non-contiguous inputs.
    """
    if (
        raw.ndim == 1
        and raw.size % 8 == 0
        and raw.size > 0
        and raw.flags.c_contiguous
        and golden.flags.c_contiguous
    ):
        words = np.flatnonzero(raw.view(np.uint64) != golden.view(np.uint64))
        if words.size == 0:
            return words
        spread = (words[:, None] * 8 + np.arange(8)).ravel()
        return spread[raw[spread] != golden[spread]]
    return np.flatnonzero(raw != golden)


@dataclass(frozen=True)
class EccConfig:
    """Parameters of the controller ECC engine."""

    codeword_bytes: int = 2048
    correctable_bits_per_codeword: int = 72  # typical LDPC-class strength
    # Hardware LDPC decoders run at channel line rate (every normal host
    # read passes through them), so decode throughput tracks the aggregate
    # flash bandwidth of a modern controller.
    decode_seconds_per_byte: float = 1.0 / 8.0e9


class EccEngine:
    """Corrects raw page data against its golden copy, within capability.

    The functional simulator knows the originally-programmed ("golden") data,
    so correction is modeled as: for each codeword, if the number of flipped
    bits is within the correction capability, restore the golden bytes;
    otherwise the codeword stays corrupt and is reported as an uncorrectable
    error.
    """

    def __init__(self, config: EccConfig | None = None) -> None:
        self.config = config or EccConfig()
        self.decoded_bytes = 0
        self.corrected_bits = 0
        self.uncorrectable_codewords = 0

    def correct_batch(
        self,
        raws: np.ndarray,
        goldens: "Sequence[np.ndarray]",
        candidate_bytes: "Sequence[np.ndarray | None] | None" = None,
    ) -> np.ndarray:
        """Correct a stack of pages in place, in one vectorized pass.

        ``raws`` is an ``(n_pages, page_bytes)`` ``uint8`` stack and
        ``goldens`` one golden page per row (views of the stored pages, or
        a stack).  ``candidate_bytes`` optionally carries one per-page hint
        array: a superset of the byte positions where the row differs from
        golden (the error injector reports where it flipped bits), which
        skips the full-page comparison; a ``None`` entry, or no hints at
        all, falls back to that comparison for the page.  Raw errors are
        sparse, so only the flipped bytes are popcounted, binned per
        codeword -- never a full-page bit expansion.  A codeword within
        the correction capability gets its golden bytes restored *inside*
        ``raws`` (only flipped bytes differ from golden, so restoring them
        restores the codeword) and its flips added to ``corrected_bits``;
        one past it stays corrupt and counts one
        ``uncorrectable_codewords``.  Every row adds its bytes to
        ``decoded_bytes``.  Returns ``raws``.
        """
        if raws.ndim != 2:
            raise ValueError("correct_batch expects (n_pages, page_bytes)")
        n_pages, page_bytes = raws.shape
        if len(goldens) != n_pages or any(
            golden.shape != (page_bytes,) for golden in goldens
        ):
            raise ValueError("raw/golden shape mismatch")
        self.decoded_bytes += int(raws.size)
        # Candidate (page, byte) pairs and the golden byte at each one.
        rows, cols, wanted = [], [], []
        for i, golden in enumerate(goldens):
            hint = None if candidate_bytes is None else candidate_bytes[i]
            if hint is None:
                hint = _diff_bytes(raws[i], golden)
            if hint.size:
                rows.append(i)
                cols.append(hint)
                wanted.append(golden[hint])
        if not rows:
            return raws
        sizes = [hint.size for hint in cols]
        # A byte the injector hit twice is one candidate: dedupe on the
        # flat (page, byte) position, golden bytes following along.
        flat, first = np.unique(
            np.repeat(np.asarray(rows) * page_bytes, sizes) + np.concatenate(cols),
            return_index=True,
        )
        row, col = np.divmod(flat, page_bytes)
        golden_bytes = np.concatenate(wanted)[first]
        diff = np.bitwise_xor(raws[row, col], golden_bytes)
        flipped = np.flatnonzero(diff)
        if flipped.size == 0:
            return raws
        row, col, golden_bytes = row[flipped], col[flipped], golden_bytes[flipped]
        cw = self.config.codeword_bytes
        # Codewords never straddle pages: a page narrower than a codeword
        # multiple ends on a short one.
        codeword = row * -(-page_bytes // cw) + col // cw
        errors_per_codeword = np.bincount(
            codeword, weights=np.bitwise_count(diff[flipped])
        )
        correctable = (
            errors_per_codeword <= self.config.correctable_bits_per_codeword
        )
        self.corrected_bits += int(errors_per_codeword[correctable].sum())
        if correctable.all():
            raws[row, col] = golden_bytes
        else:
            self.uncorrectable_codewords += int((~correctable).sum())
            keep = correctable[codeword]
            raws[row[keep], col[keep]] = golden_bytes[keep]
        return raws

    def decode_time(self, n_bytes: int) -> float:
        """Controller time to ECC-decode ``n_bytes``."""
        return n_bytes * self.config.decode_seconds_per_byte
