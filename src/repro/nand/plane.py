"""Flash planes: the unit of read/program parallelism inside a die."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.nand.latches import FailBitCounter, LatchTable, PageBuffer
from repro.nand.page import FlashBlock
from repro.sim.stats import CounterSet


class Plane:
    """A plane: blocks of pages, one page buffer, peripheral logic.

    The page buffer and fail-bit counter are views of the plane's row of its
    array's :class:`LatchTable` (a one-row table of its own when built
    alone).  Senses are the array's (:meth:`FlashArray.read_pages`): they
    gather stored bytes and draw the raw bit errors of a non-ESP read over
    the whole read, so skipping ECC is only safe for ESP-SLC data.
    """

    def __init__(
        self,
        plane_id: int,
        blocks_per_plane: int,
        pages_per_block: int,
        page_bytes: int,
        oob_bytes: int,
        counters: Optional[CounterSet] = None,
        buffer: Optional[PageBuffer] = None,
    ) -> None:
        self.plane_id = plane_id
        self.page_bytes = page_bytes
        self.oob_bytes = oob_bytes
        self.blocks = [
            FlashBlock(pages_per_block, page_bytes, oob_bytes)
            for _ in range(blocks_per_plane)
        ]
        self.buffer = (
            buffer if buffer is not None
            else LatchTable(1, page_bytes, oob_bytes).buffer(0)
        )
        self.fail_bit_counter = FailBitCounter(self.buffer)
        self.counters = counters if counters is not None else CounterSet()

    # ------------------------------------------------------------------ I/O

    def golden_page(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free page contents (for ECC reference and tests)."""
        return self.blocks[block].pages[page].raw()

    def golden_view(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free page contents without copies (read-only reference)."""
        return self.blocks[block].pages[page].raw_view()

    def program_page(
        self, block: int, page: int, data: np.ndarray, oob: Optional[np.ndarray] = None
    ) -> None:
        self.blocks[block].program_page(page, data, oob)
        self.counters.add("page_programs")

    def erase_block(self, block: int) -> None:
        self.blocks[block].erase()
        self.counters.add("block_erases")

    def block_mode(self, block: int) -> CellMode:
        return self.blocks[block].mode

    def requires_ecc(self, block: int) -> bool:
        return reliability(self.blocks[block].mode).requires_ecc
