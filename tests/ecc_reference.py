"""The golden-page ECC corrector, kept as the test reference.

Every read path corrects its page stack with one
:meth:`repro.nand.ecc.EccEngine.correct_batch` call, from the flips the
read injected.  This reference corrects one page at a time against its
golden copy instead -- it knows nothing of the flip column -- so the batch
kernel can be pinned to it with ``==``: outputs and the engine's three
counters.
"""

from __future__ import annotations

import numpy as np

from repro.nand.ecc import EccEngine


class PageByPageEcc(EccEngine):
    """An :class:`EccEngine` that also corrects one page at a time."""

    def correct(self, raw: np.ndarray, golden: np.ndarray) -> np.ndarray:
        """Return the corrected copy of ``raw``: every codeword within the
        capability replaced by its golden copy."""
        if raw.shape != golden.shape:
            raise ValueError("raw/golden shape mismatch")
        cw = self.config.codeword_bytes
        self.decoded_bytes += int(raw.size)
        flipped = np.flatnonzero(raw != golden)
        out = raw.copy()
        if flipped.size == 0:
            return out
        flips_per_byte = np.bitwise_count(
            np.bitwise_xor(raw[flipped], golden[flipped])
        )
        errors_per_codeword = np.bincount(flipped // cw, weights=flips_per_byte)
        for codeword in np.flatnonzero(errors_per_codeword):
            n_errors = int(errors_per_codeword[codeword])
            start = int(codeword) * cw
            if n_errors <= self.config.correctable_bits_per_codeword:
                out[start : start + cw] = golden[start : start + cw]
                self.corrected_bits += n_errors
            else:
                self.uncorrectable_codewords += 1
        return out


def flip_column(raws: np.ndarray, bits_per_row) -> tuple:
    """Flip ``bits_per_row[i]`` (bit indices within row ``i``, repeats
    allowed) in the stack ``raws``, in place, and return the flip column an
    injector would report: flat byte positions and bit masks."""
    page_bytes = raws.shape[1]
    bits = [np.asarray(b, dtype=np.int64) for b in bits_per_row]
    counts = [b.size for b in bits]
    bits = np.concatenate(bits) if bits else np.empty(0, dtype=np.int64)
    positions = np.repeat(np.arange(len(counts)) * page_bytes, counts) + (bits >> 3)
    masks = (np.uint8(1) << (bits & 7).astype(np.uint8)).astype(np.uint8)
    np.bitwise_xor.at(raws.reshape(-1), positions, masks)
    return positions.astype(np.int64), masks
