"""Garbage collection.

Normal-mode SSD maintenance: pick the block with the most invalid pages,
relocate its valid pages, erase it.  REIS databases are read-mostly and live
in reserved coarse regions that GC never touches; GC operates on the
general-purpose remainder of the drive (Sec. 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.page import INVALID
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
    """Greedy cost-benefit GC over the non-reserved blocks.

    ``reserved`` is the (plane, block) mask of blocks GC must not touch
    (REIS regions); the SSD shares its one mask with wear leveling.
    """

    def __init__(
        self, array: FlashArray, ftl: PageLevelFtl, reserved: Optional[np.ndarray] = None
    ) -> None:
        self._array = array
        self._ftl = ftl
        self.reserved = (
            reserved if reserved is not None
            else np.zeros(array.pages.mode.shape, dtype=bool)
        )

    def _victims(self) -> List[Tuple[int, int, int]]:
        """(invalid_count, plane, block) candidates, most garbage first:
        full, unreserved blocks holding an invalid page, read off the page
        table."""
        table = self._array.pages
        invalid = np.count_nonzero(table.state == INVALID, axis=2)
        candidate = (invalid > 0) & (table.next_page >= table.pages_per_block)
        planes, blocks = (candidate & ~self.reserved).nonzero()
        return sorted(
            zip(invalid[planes, blocks].tolist(), planes.tolist(), blocks.tolist()),
            reverse=True,
        )

    def collect(self, max_blocks: int = 1) -> GcResult:
        """Reclaim up to ``max_blocks`` victim blocks: their mapped pages
        move to freshly allocated ones (:meth:`PageLevelFtl.relocate`)."""
        victims = [(p, b) for _, p, b in self._victims()[:max_blocks]]
        if not victims:
            return GcResult()
        planes, blocks = np.array(victims).T
        moved = self._ftl.relocate(planes, blocks, self._ftl._allocator.allocate)
        return GcResult(erased_blocks=len(victims), relocated_pages=moved, victim_blocks=victims)
