"""Garbage collection.

Normal-mode SSD maintenance: pick the block with the most invalid pages,
relocate its valid pages, erase it.  REIS databases are read-mostly and live
in reserved coarse regions that GC never touches; GC operates on the
general-purpose remainder of the drive (Sec. 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.geometry import page_address
from repro.nand.page import INVALID, PROGRAMMED
from repro.ssd.ftl import PageLevelFtl


@dataclass
class GcResult:
    """Outcome of one GC invocation."""

    erased_blocks: int = 0
    relocated_pages: int = 0
    # (plane_index, block_index) of each erased victim, in erase order --
    # lets maintenance callers (scheduler, tests) see where GC worked.
    victim_blocks: List[Tuple[int, int]] = field(default_factory=list)


class GarbageCollector:
    """Greedy cost-benefit GC over the non-reserved blocks."""

    def __init__(
        self,
        array: FlashArray,
        ftl: PageLevelFtl,
        reserved_planes_pages: Optional[Set[Tuple[int, int]]] = None,
    ) -> None:
        self._array = array
        self._ftl = ftl
        # (plane_index, block_index) pairs GC must not touch (REIS regions).
        self._reserved = reserved_planes_pages or set()

    def reserve_block(self, plane_index: int, block_index: int) -> None:
        self._reserved.add((plane_index, block_index))

    def _victims(self) -> List[Tuple[int, int, int]]:
        """(invalid_count, plane, block) candidates, most garbage first:
        full blocks holding an invalid page, read off the page table."""
        table = self._array.pages
        invalid = np.count_nonzero(table.state == INVALID, axis=2)
        candidate = (invalid > 0) & (table.next_page >= table.pages_per_block)
        for plane_index, block_index in self._reserved:
            candidate[plane_index, block_index] = False
        planes, blocks = candidate.nonzero()
        return sorted(
            zip(invalid[planes, blocks].tolist(), planes.tolist(), blocks.tolist()),
            reverse=True,
        )

    def collect(self, max_blocks: int = 1) -> GcResult:
        """Reclaim up to ``max_blocks`` victim blocks."""
        result = GcResult()
        for _, plane_index, block_index in self._victims()[:max_blocks]:
            plane = self._array.plane_by_index(plane_index)
            programmed = self._array.pages.state[plane_index, block_index] == PROGRAMMED
            for page_index in programmed.nonzero()[0].tolist():
                data, oob = plane.golden_page(block_index, page_index)
                lpa = self._ftl.lpa_of(page_address(
                    self._array.geometry, plane_index, block_index, page_index
                ))
                if lpa is None:
                    continue
                new_ppa = self._ftl._allocator.allocate()
                self._array.program(new_ppa, data, oob)
                self._ftl.remap(lpa, new_ppa)
                result.relocated_pages += 1
            plane.erase_block(block_index)
            result.erased_blocks += 1
            result.victim_blocks.append((plane_index, block_index))
        return result

