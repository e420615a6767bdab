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
from typing import Tuple

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
        self._next_rows = self.next_page.reshape(-1)

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

    def program(self, planes, blocks, pages, data: np.ndarray, oob=None) -> None:
        """Program row ``i`` of ``data`` (and of ``oob``) into page
        ``(planes[i], blocks[i], pages[i])``, zero-padding both rows.  Every
        rule is checked before anything is written, so a refused call writes
        nothing: in-range pages, ``uint8`` rows no wider than a page or the
        OOB area, one row per page, and each block's pages in column order
        from its next page on (the pages before it hold data)."""
        at = np.ravel_multi_index((planes, blocks, pages), self.state.shape)
        keys, in_block = np.divmod(at, self.pages_per_block)
        # A page's expected place: its block's next page plus the call's
        # earlier pages in that block (its rank in a stable sort by block).
        order = keys.argsort(kind="stable")
        ordered = keys[order]
        head = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        step = np.arange(at.size)
        expected = np.empty_like(at)
        rank = step - np.maximum.accumulate(step * head)
        expected[order] = self._next_rows[ordered] + rank
        wrong = (expected != in_block).nonzero()[0]
        if wrong.size:
            want, got = expected[wrong[0]], in_block[wrong[0]]
            if got < want:
                raise RuntimeError("program on a non-erased page (erase first)")
            raise RuntimeError(f"out-of-order program: expected page {want}, got {got}")
        if data.dtype != np.uint8:
            raise TypeError("page data must be uint8")
        width = data.shape[1]
        if width > self.page_bytes:
            raise ValueError(f"data ({width}B) exceeds page size ({self.page_bytes}B)")
        n_oob = 0 if oob is None else oob.shape[1]
        if n_oob > self.oob_bytes:
            raise ValueError("OOB data exceeds the OOB area")
        if len(data) != at.size or (oob is not None and len(oob) != at.size):
            raise ValueError("program takes one data (and OOB) row per page")
        self._data_rows[at, :width] = data
        self._data_rows[at, width:] = 0
        if oob is not None:
            self._oob_rows[at, :n_oob] = oob
        self._oob_rows[at, n_oob:] = 0
        self._state_rows[at] = PROGRAMMED
        np.add.at(self._next_rows, keys, 1)

    def invalidate(self, plane: int, block: int, page: int) -> None:
        """Mark a programmed page's contents stale (FTL out-of-place update)."""
        if self.state[plane, block, page] == PROGRAMMED:
            self.state[plane, block, page] = INVALID

    def erase(self, planes, blocks) -> None:
        """Erase blocks ``(planes[i], blocks[i])``: their pages read
        all-ones, their P/E counts advance (once per time a block is
        named)."""
        self.state[planes, blocks] = ERASED
        np.add.at(self.pe_cycles, (planes, blocks), 1)
        self.next_page[planes, blocks] = 0

    def set_mode(self, planes, blocks, mode: CellMode) -> None:
        """Switch the cell mode of blocks ``(planes, blocks)`` (index
        columns, scalars or slices; hybrid SSD soft partitioning): only
        while every one of them is erased, as on real drives, so a refused
        call switches none."""
        if self.next_page[planes, blocks].any():
            raise RuntimeError("cell mode can only change on an erased block")
        self.mode[planes, blocks] = mode.code
