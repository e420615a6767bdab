"""Flash planes: the unit of read/program parallelism inside a die."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nand.cell import MODES, CellMode, reliability
from repro.nand.latches import FailBitCounter, LatchTable, PageBuffer
from repro.nand.page import PageTable
from repro.sim.stats import CounterSet


class Plane:
    """A plane: blocks of pages, one page buffer, peripheral logic.

    Its pages are row ``row`` of its array's :class:`PageTable`, and its
    page buffer and fail-bit counter views of its row of the array's
    :class:`LatchTable` (one-row tables of its own when built alone).
    Program and erase go through the plane, which counts them; senses are
    the array's (:meth:`FlashArray.read_pages`): they gather stored bytes
    and draw the raw bit errors of a non-ESP read over the whole read, so
    skipping ECC is only safe for ESP-SLC data.
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
        pages: Optional[PageTable] = None,
        row: int = 0,
    ) -> None:
        self.plane_id = plane_id
        if pages is None:
            pages, row = PageTable(
                1, blocks_per_plane, pages_per_block, page_bytes, oob_bytes
            ), 0
        self.pages = pages
        self.row = row
        self.buffer = (
            buffer if buffer is not None
            else LatchTable(1, page_bytes, oob_bytes).buffer(0)
        )
        self.fail_bit_counter = FailBitCounter(self.buffer)
        self.counters = counters if counters is not None else CounterSet()

    # ------------------------------------------------------------------ I/O

    def golden_page(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free copies of a page's contents (ECC reference, relocation)."""
        data, oob = self.pages.view(self.row, block, page)
        return data.copy(), oob.copy()

    def golden_view(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free page contents as read-only views (:meth:`PageTable.view`)."""
        return self.pages.view(self.row, block, page)

    def program_page(
        self, block: int, page: int, data: np.ndarray, oob: Optional[np.ndarray] = None
    ) -> None:
        """One row of :meth:`PageTable.program`."""
        rows = (data.reshape(1, -1), None if oob is None else oob.reshape(1, -1))
        self.pages.program((self.row,), (block,), (page,), *rows)
        self.counters.add("page_programs")

    def erase_block(self, block: int) -> None:
        self.pages.erase(self.row, block)
        self.counters.add("block_erases")

    def set_mode(self, block: int, mode: CellMode) -> None:
        self.pages.set_mode(self.row, block, mode)

    def block_mode(self, block: int) -> CellMode:
        return MODES[self.pages.mode[self.row, block]]

    def requires_ecc(self, block: int) -> bool:
        return reliability(self.block_mode(block)).requires_ecc
