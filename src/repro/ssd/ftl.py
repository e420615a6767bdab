"""Page-level Flash Translation Layer (FTL).

Maps logical page addresses (LPA) to physical page addresses (PPA) with
out-of-place updates, as in DFTL-style firmware.  The mapping table is the
dominant consumer of the SSD's internal DRAM (~1GB per TB); REIS avoids it
for deployed databases via coarse-grained access (:mod:`repro.ssd.coarse`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.geometry import PhysicalPageAddress
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
        self._array.program(ppa, data, oob)
        self._l2p[lpa] = ppa
        self._p2l[ppa.to_linear(self._array.geometry)] = lpa
        if old is not None:
            g = self._array.geometry
            self._array.pages.invalidate(old.plane_linear(g), old.block, old.page)
            self._p2l.pop(old.to_linear(g), None)
        return ppa

    def lpa_of(self, ppa: PhysicalPageAddress) -> Optional[int]:
        """Reverse lookup used by garbage collection."""
        return self._p2l.get(ppa.to_linear(self._array.geometry))

    def remap(self, lpa: int, ppa: PhysicalPageAddress) -> None:
        """Update the mapping after GC relocated a valid page."""
        old = self._l2p.get(lpa)
        if old is not None:
            self._p2l.pop(old.to_linear(self._array.geometry), None)
        self._l2p[lpa] = ppa
        self._p2l[ppa.to_linear(self._array.geometry)] = lpa

