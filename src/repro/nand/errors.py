"""Raw bit-error injection for NAND reads.

Reads from normal (non-ESP) flash are noisy; the SSD controller corrects
them with ECC.  REIS sidesteps ECC for in-plane computation by storing the
binary embeddings in an ESP-programmed SLC partition whose raw BER is zero.
This module makes that trade-off observable: reading a TLC page through the
functional simulator really does flip bits unless ECC runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.sim.rng import make_rng

# The bit errors one read injected: flat byte positions into its page stack
# and one single-bit ``uint8`` mask per flip, in draw order.  A position may
# repeat (two flips in one byte; a bit hit twice cancels).
Flips = Tuple[np.ndarray, np.ndarray]

NO_FLIPS: Flips = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))
NO_FLIPS[0].setflags(write=False)
NO_FLIPS[1].setflags(write=False)

_BIT_MASKS = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)
_BIT_MASKS.setflags(write=False)


class BitErrorModel:
    """Injects raw bit errors into sensed pages according to their cell
    mode: one per :class:`~repro.nand.array.FlashArray`, whose reads own
    its one random stream."""

    def __init__(self, seed: object = 0) -> None:
        self._rng = make_rng("bit-errors", seed)

    def corrupt_traced(
        self, stack: np.ndarray, rows: np.ndarray, mode: CellMode
    ) -> Flips:
        """Flip bits of rows ``rows`` of the C-contiguous ``(n_pages,
        page_bytes)`` ``uint8`` ``stack``, in place, at ``mode``'s raw BER,
        and return the flips.

        One draw for the whole call: each row's flip count is
        ``Binomial(8 * page_bytes, BER)`` (one ``binomial`` of
        ``len(rows)``), the flipped bits are uniform over the row (one
        ``integers`` for all of them) and one ``np.bitwise_xor.at`` applies
        them to the flattened stack.
        """
        ber = reliability(mode).raw_ber
        if ber <= 0.0 or rows.size == 0:
            return NO_FLIPS
        page_bytes = stack.shape[1]
        n_bits = page_bytes * 8
        counts = self._rng.binomial(n_bits, ber, size=rows.size)
        bits = self._rng.integers(0, n_bits, size=int(np.add.reduce(counts)))
        positions = (rows * page_bytes).repeat(counts) + (bits >> 3)
        masks = _BIT_MASKS[bits & 7]
        np.bitwise_xor.at(stack.reshape(-1), positions, masks)
        return positions, masks
