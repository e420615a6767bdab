"""The per-page ECC corrector, kept as the test reference.

Every read path corrects a stack of sensed pages with one
:meth:`repro.nand.ecc.EccEngine.correct_batch` call.  The page-by-page
corrector it replaced is kept here so the batch kernel can be pinned to it
with ``==`` -- outputs and the engine's three counters.
"""

from __future__ import annotations

import numpy as np

from repro.nand.ecc import EccEngine, _diff_bytes


class PageByPageEcc(EccEngine):
    """An :class:`EccEngine` that also corrects one page at a time."""

    def correct(
        self,
        raw: np.ndarray,
        golden: np.ndarray,
        candidate_bytes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the corrected copy of ``raw`` (``candidate_bytes`` as in
        :meth:`EccEngine.correct_batch`)."""
        if raw.shape != golden.shape:
            raise ValueError("raw/golden shape mismatch")
        cw = self.config.codeword_bytes
        self.decoded_bytes += int(raw.size)
        if candidate_bytes is None:
            flipped = _diff_bytes(raw, golden)
        else:
            candidates = np.unique(candidate_bytes)
            flipped = candidates[raw[candidates] != golden[candidates]]
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
