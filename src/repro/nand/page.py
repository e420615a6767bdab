"""NAND pages as one table (functional storage).

The pages of every plane of an array are rows of one :class:`PageTable`.
Each page holds user data plus an out-of-band (OOB) area.  NAND constraints
are enforced: a page must be erased before it can be programmed, pages
within a block are programmed in order, erase happens at block granularity,
and a block's cell mode changes only while it is erased.
"""

from __future__ import annotations

import mmap
import math
from typing import Optional, Tuple

import numpy as np

from repro.nand.cell import CellMode

# Page-state codes (INVALID: superseded by an out-of-place update).
ERASED, PROGRAMMED, INVALID = 0, 1, 2


def _demand_zero(shape: Tuple[int, ...]) -> np.ndarray:
    """A zeroed ``uint8`` table on private anonymous pages: a page costs
    resident memory only once written (a read maps the kernel's zero page;
    a shared mapping would allocate it).  ``np.zeros`` is ``calloc``, which
    may carve the table out of freed heap memory and ``memset`` it."""
    pages = mmap.mmap(-1, max(1, math.prod(shape)), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=np.uint8, count=math.prod(shape)).reshape(shape)


def take_rows(picked, at, *pairs: Tuple[np.ndarray, np.ndarray]) -> None:
    """``out[at] = table[picked, :width]`` (``width``: ``out``'s) for every
    ``(table, out)`` of ``pairs``, ``picked`` in-range row indices: straight
    into ``out`` when ``at`` is a slice and the widths match, through one
    temporary otherwise."""
    straight = isinstance(at, slice)
    for table, out in pairs:
        if straight and out.shape[1] == table.shape[1]:
            table.take(picked, 0, out[at], "clip")
        else:
            out[at] = table[picked, : out.shape[1]]


class PageTable:
    """Every page of an array, one table per kind.

    ``data`` and ``oob`` are ``uint8`` tables indexed by (plane, block,
    page), ``state`` is each page's state code, and ``mode`` (a
    :attr:`CellMode.code`), ``pe_cycles`` and ``next_page`` (the next page to
    program) are per (plane, block).  An erased page reads all-ones because
    its state says so: erase resets the state column and leaves the bytes,
    and program writes a whole row (a short page zero-padded), so the byte
    tables are written by programs only.  They are allocated zeroed once,
    here, on demand-zero memory: a row costs resident memory only once it
    is first programmed.
    """

    def __init__(
        self, n_planes: int, blocks_per_plane: int, pages_per_block: int,
        page_bytes: int, oob_bytes: int,
    ) -> None:
        self.blocks_per_plane = blocks_per_plane
        self.pages_per_block = pages_per_block
        self.page_bytes = page_bytes
        self.oob_bytes = oob_bytes
        blocks = (n_planes, blocks_per_plane)
        pages = blocks + (pages_per_block,)
        self.data = _demand_zero(pages + (page_bytes,))
        self.oob = _demand_zero(pages + (oob_bytes,))
        self.state = np.zeros(pages, dtype=np.int8)
        self.mode = np.full(blocks, CellMode.TLC.code, dtype=np.int8)
        self.pe_cycles = np.zeros(blocks, dtype=np.int64)
        self.next_page = np.zeros(blocks, dtype=np.int64)
        # One row per page, (plane, block, page) raveled; the block columns
        # one row per block.
        self._data_rows = self.data.reshape(-1, page_bytes)
        self._oob_rows = self.oob.reshape(-1, oob_bytes)
        self._state_rows = self.state.reshape(-1)
        self._mode_rows = self.mode.reshape(-1)

    # ----------------------------------------------------------------- reads

    def gather(self, planes, blocks, pages, rows, out, oob) -> np.ndarray:
        """Copy the stored bytes of pages ``(planes[i], blocks[i],
        pages[i])`` -- what a raw-BER-0 sense returns -- into rows ``rows``
        (an index array or a slice) of the page stack ``out`` and the OOB
        stack ``oob``; erased pages read all-ones.  Returns each page's
        cell-mode code."""
        at = np.ravel_multi_index((planes, blocks, pages), self.state.shape)
        take_rows(at, rows, (self._data_rows, out), (self._oob_rows, oob))
        states = self._state_rows[at]
        if ERASED in states:
            blank = np.arange(len(out))[rows][states == ERASED]
            out[blank] = 0xFF
            oob[blank] = 0xFF
        return self._mode_rows[at // self.pages_per_block]

    def view(self, plane: int, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """One page's stored (data, OOB) as read-only views of its row; an
        erased page's are all-ones.  A view holds until its block is
        erased and reprogrammed: keep none across an erase."""
        if self.state[plane, block, page] == ERASED:
            data = np.full(self.page_bytes, 0xFF, dtype=np.uint8)
            oob = np.full(self.oob_bytes, 0xFF, dtype=np.uint8)
        else:
            data, oob = self.data[plane, block, page], self.oob[plane, block, page]
        data.setflags(write=False)
        oob.setflags(write=False)
        return data, oob

    # ---------------------------------------------------------------- writes

    def program(
        self, plane: int, block: int, page: int, data: np.ndarray,
        oob: Optional[np.ndarray] = None,
    ) -> None:
        """Program data (and optionally OOB) into the block's next page,
        zero-padding both rows: pages in a block are programmed in order,
        so the pages before it hold data and the ones from it on are
        erased."""
        expected = self.next_page[plane, block]
        if page < expected:
            raise RuntimeError("program on a non-erased page (erase first)")
        if page != expected:
            raise RuntimeError(
                f"out-of-order program: expected page {expected}, got {page}"
            )
        if data.dtype != np.uint8:
            raise TypeError("page data must be uint8")
        if data.size > self.page_bytes:
            raise ValueError(f"data ({data.size}B) exceeds page size ({self.page_bytes}B)")
        n_oob = 0 if oob is None else oob.size
        if n_oob > self.oob_bytes:
            raise ValueError("OOB data exceeds the OOB area")
        row, oob_row = self.data[plane, block, page], self.oob[plane, block, page]
        row[: data.size] = data
        row[data.size :] = 0
        if n_oob:
            oob_row[:n_oob] = oob
        oob_row[n_oob:] = 0
        self.state[plane, block, page] = PROGRAMMED
        self.next_page[plane, block] += 1

    def invalidate(self, plane: int, block: int, page: int) -> None:
        """Mark a programmed page's contents stale (FTL out-of-place update)."""
        if self.state[plane, block, page] == PROGRAMMED:
            self.state[plane, block, page] = INVALID

    def erase(self, plane: int, block: int) -> None:
        """Erase a block: its pages read all-ones, its P/E count advances."""
        self.state[plane, block] = ERASED
        self.pe_cycles[plane, block] += 1
        self.next_page[plane, block] = 0

    def set_mode(self, plane: int, block: int, mode: CellMode) -> None:
        """Switch a block's cell mode (hybrid SSD soft partitioning): only
        while the block is erased, as on real drives."""
        if self.next_page[plane, block] != 0:
            raise RuntimeError("cell mode can only change on an erased block")
        self.mode[plane, block] = mode.code
