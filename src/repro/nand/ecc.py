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

import numpy as np

from repro.nand.errors import Flips
from repro.sim.unique import sorted_unique

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


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
    """Corrects sensed pages from the flips the read injected, within
    capability.

    The functional simulator knows every bit error it injected (the read's
    flip column, :data:`~repro.nand.errors.Flips`), so correction is
    modeled as: for each codeword, if the number of flipped bits is within
    the correction capability, undo its flips; otherwise the codeword stays
    corrupt and is reported as an uncorrectable error.
    """

    def __init__(self, config: EccConfig | None = None) -> None:
        self.config = config or EccConfig()
        self.decoded_bytes = 0
        self.corrected_bits = 0
        self.uncorrectable_codewords = 0

    def correct_batch(self, raws: np.ndarray, flips: Flips) -> np.ndarray:
        """Correct a stack of sensed pages in place, in one vectorized pass;
        return the rows that still hold an uncorrectable codeword
        (ascending; empty when every codeword was corrected).

        ``raws`` is the ``(n_pages, page_bytes)`` ``uint8`` stack a read
        sensed and ``flips`` its flip column: flat stack byte positions
        and one bit mask per injected flip.  The positions are deduped and
        each byte's error pattern rebuilt as the XOR of its masks (a bit
        hit twice cancels); the patterns' popcounts are binned per codeword
        with one ``bincount`` -- codewords never straddle pages, and a
        page narrower than a codeword multiple ends on a short one.  A
        codeword within the correction capability gets its patterns XORed
        back out *inside* ``raws`` and its flips added to
        ``corrected_bits``; one past it stays corrupt and counts one
        ``uncorrectable_codewords``.  Every row adds its bytes to
        ``decoded_bytes``.
        """
        if raws.ndim != 2:
            raise ValueError("correct_batch expects (n_pages, page_bytes)")
        self.decoded_bytes += int(raws.size)
        positions, masks = flips
        if positions.size == 0:
            return _NO_ROWS
        order = positions.argsort(kind="stable")
        positions, masks = positions[order], masks[order]
        head = np.empty(positions.size, dtype=bool)
        head[0] = True
        np.not_equal(positions[1:], positions[:-1], out=head[1:])
        starts = head.nonzero()[0]
        pattern = np.bitwise_xor.reduceat(masks, starts)
        row, col = np.divmod(positions[starts], raws.shape[1])
        cw = self.config.codeword_bytes
        codeword = row * -(-raws.shape[1] // cw) + col // cw
        errors_per_codeword = np.bincount(codeword, weights=np.bitwise_count(pattern))
        correctable = (
            errors_per_codeword <= self.config.correctable_bits_per_codeword
        )
        self.corrected_bits += int(np.add.reduce(errors_per_codeword[correctable]))
        if np.logical_and.reduce(correctable):
            raws[row, col] ^= pattern
            return _NO_ROWS
        self.uncorrectable_codewords += int(np.add.reduce(~correctable))
        keep = correctable[codeword]
        raws[row[keep], col[keep]] ^= pattern[keep]
        return sorted_unique(row[~keep])[0]

    def decode_time(self, n_bytes: int) -> float:
        """Controller time to ECC-decode ``n_bytes``."""
        return n_bytes * self.config.decode_seconds_per_byte
