"""Page-level Flash Translation Layer (FTL).

Maps logical page addresses (LPA) to physical page addresses (PPA) with
out-of-place updates, as in DFTL-style firmware.  The mapping table is the
dominant consumer of the SSD's internal DRAM (~1GB per TB); REIS avoids it
for deployed databases via coarse-grained access (:mod:`repro.ssd.coarse`).
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.page import PROGRAMMED
from repro.ssd.allocation import PageAllocator
from repro.ssd.dram import InternalDram

L2P_ENTRY_BYTES = 4  # 32-bit PPA per logical page, the paper's 1GB/TB rule


class PageLevelFtl:
    """Logical-to-physical page mapping with out-of-place writes."""

    def __init__(
        self,
        array: FlashArray,
        allocator: PageAllocator,
        dram: Optional[InternalDram] = None,
    ) -> None:
        self._array = array
        self._allocator = allocator
        self._dram = dram
        self._l2p: Dict[int, PhysicalPageAddress] = {}
        self._p2l: Dict[int, int] = {}
        self.translations = 0
        if dram is not None:
            dram.allocate("ftl-l2p", self.map_table_bytes(array.geometry.total_pages))

    @staticmethod
    def map_table_bytes(n_pages: int) -> int:
        return n_pages * L2P_ENTRY_BYTES

    def translate(self, lpa: int) -> PhysicalPageAddress:
        """L2P lookup (counts an invocation; costs a DRAM access)."""
        self.translations += 1
        try:
            return self._l2p[lpa]
        except KeyError:
            raise KeyError(f"logical page {lpa} is unmapped") from None

    def write(self, lpa: int, data: np.ndarray, oob: Optional[np.ndarray] = None) -> PhysicalPageAddress:
        """Out-of-place write: allocate a fresh page, invalidate the old one."""
        old = self._l2p.get(lpa)
        ppa = self._allocator.allocate()
        g = self._array.geometry
        self._array.program_pages(
            (ppa.plane_linear(g),), (ppa.block,), (ppa.page,),
            data.reshape(1, -1), None if oob is None else oob.reshape(1, -1),
        )
        self._l2p[lpa] = ppa
        self._p2l[ppa.to_linear(g)] = lpa
        if old is not None:
            self._array.pages.invalidate(old.plane_linear(g), old.block, old.page)
            self._p2l.pop(old.to_linear(g), None)
        return ppa

    def lpa_of(self, ppa: PhysicalPageAddress) -> Optional[int]:
        """Reverse lookup of one physical page (wear leveling)."""
        return self._p2l.get(ppa.to_linear(self._array.geometry))

    def remap(self, lpa: int, ppa: PhysicalPageAddress) -> None:
        """Update the mapping after GC relocated a valid page."""
        old = self._l2p.get(lpa)
        if old is not None:
            self._p2l.pop(old.to_linear(self._array.geometry), None)
        self._l2p[lpa] = ppa
        self._p2l[ppa.to_linear(self._array.geometry)] = lpa

    def mapped(self, planes, blocks) -> Tuple[Tuple[np.ndarray, ...], List[int]]:
        """The programmed pages of blocks ``(planes[i], blocks[i])`` (index
        arrays) that a logical page maps to: their (plane, block, page)
        columns, block by block in page order, and their logical pages."""
        table = self._array.pages
        rows, pages = (table.state[planes, blocks] == PROGRAMMED).nonzero()
        linear = np.ravel_multi_index((planes[rows], blocks[rows], pages), table.state.shape)
        lpas = list(map(self._p2l.get, linear))  # int64 keys hash as ints
        if None in lpas:
            keep = np.not_equal(lpas, None)
            rows, pages, lpas = rows[keep], pages[keep], list(compress(lpas, keep))
        return (planes[rows], blocks[rows], pages), lpas

    def relocate(
        self, planes, blocks, allocate: Callable[[], PhysicalPageAddress]
    ) -> int:
        """Move the mapped pages of blocks ``(planes[i], blocks[i])`` (index
        arrays) to one page each from ``allocate``, then erase the blocks:
        one gather, one program, the remaps and one erase (garbage
        collection and defragmentation).  Pages no logical page maps to are
        dropped uncopied.  Returns the number of pages moved."""
        victims, lpas = self.mapped(planes, blocks)
        if lpas:
            g = self._array.geometry
            targets = [allocate() for _ in lpas]
            self._array.program_pages(
                [t.plane_linear(g) for t in targets], [t.block for t in targets],
                [t.page for t in targets], *self._array.stored(*victims),
            )
            for lpa, ppa in zip(lpas, targets):
                self.remap(lpa, ppa)
        self._array.erase_blocks(planes, blocks)
        return victims[2].size
