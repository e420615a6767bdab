"""Raw bit-error injection for NAND reads.

Reads from normal (non-ESP) flash are noisy; the SSD controller corrects
them with ECC.  REIS sidesteps ECC for in-plane computation by storing the
binary embeddings in an ESP-programmed SLC partition whose raw BER is zero.
This module makes that trade-off observable: reading a TLC page through the
functional simulator really does flip bits unless ECC runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.sim.rng import make_rng

NO_FLIPS = np.empty(0, dtype=np.int64)
NO_FLIPS.setflags(write=False)

_BIT_MASKS = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)
_BIT_MASKS.setflags(write=False)


class BitErrorModel:
    """Injects raw bit errors into page data according to the cell mode."""

    def __init__(self, seed: object = 0, enabled: bool = True) -> None:
        self._rng = make_rng("bit-errors", seed)
        self.enabled = enabled

    def corrupt_traced(
        self, data: np.ndarray, mode: CellMode, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``data`` with bit flips sampled at the mode's raw BER,
        plus the byte indices where flips were injected.

        ``data`` is a ``uint8`` array and is never modified in place.  The
        returned index array is a superset of the bytes that actually
        differ from ``data`` (two draws landing on the same bit cancel), so
        it can seed a sparse ECC pass without a full-page comparison.  An
        empty array guarantees the returned page equals ``data``.  The
        noisy page is written into ``out`` when one is given (the caller's
        destination row; same draws either way) and freshly allocated
        otherwise.
        """
        if out is None:
            corrupted = data.copy()
        else:
            corrupted = out
            np.copyto(corrupted, data)
        profile = reliability(mode)
        if not self.enabled or profile.raw_ber <= 0.0:
            return corrupted, NO_FLIPS
        n_bits = data.size * 8
        n_errors = self._rng.binomial(n_bits, profile.raw_ber)
        if n_errors == 0:
            return corrupted, NO_FLIPS
        positions = self._rng.integers(0, n_bits, size=n_errors)
        byte_idx = positions >> 3
        np.bitwise_xor.at(corrupted, byte_idx, _BIT_MASKS[positions & 7])
        return corrupted, byte_idx

    def expected_errors(self, n_bytes: int, mode: CellMode) -> float:
        """Expected number of raw bit errors in ``n_bytes`` of data."""
        return n_bytes * 8 * reliability(mode).raw_ber
