"""Wear leveling.

Tracks program/erase cycles per block, flags imbalance, and executes
static wear-leveling swaps (relocating cold data into hot blocks so
future writes land on cold ones).  REIS's SLC-ESP embedding partition
does not shorten drive lifetime: SLC mode has inherently wider voltage
margins, and ESP holds zero BER out to 10K P/E cycles (Sec. 7.2,
"Impact on SSD Lifetime").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.cell import MODES, reliability
from repro.nand.geometry import page_address
from repro.nand.page import PROGRAMMED


class WearLeveler:
    """Monitors block wear and recommends static wear-leveling swaps."""

    def __init__(
        self,
        array: FlashArray,
        imbalance_threshold: int = 100,
        reserved: Optional[np.ndarray] = None,
    ) -> None:
        self._array = array
        self.imbalance_threshold = imbalance_threshold
        # The (plane, block) mask of blocks wear leveling must not move
        # (REIS coarse regions: their data is addressed by physical
        # location, Sec. 4.1.4); the SSD shares its one mask with GC.
        self.reserved = (
            reserved if reserved is not None
            else np.zeros(array.pages.mode.shape, dtype=bool)
        )

    def pe_cycle_map(self) -> List[Tuple[int, int, int]]:
        """(pe_cycles, plane_index, block_index) for every movable block, in
        (plane, block) order."""
        pe_cycles = self._array.pages.pe_cycles
        planes, blocks = (~self.reserved).nonzero()
        return list(zip(
            pe_cycles[planes, blocks].tolist(), planes.tolist(), blocks.tolist()
        ))

    def max_imbalance(self) -> int:
        cycles = [c for c, _, _ in self.pe_cycle_map()]
        return max(cycles) - min(cycles) if cycles else 0

    def needs_leveling(self) -> bool:
        return self.max_imbalance() > self.imbalance_threshold

    def swap_candidates(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """(hottest, coldest) blocks as (plane, block) pairs."""
        entries = self.pe_cycle_map()
        if not entries:
            raise RuntimeError("empty array")
        hottest = max(entries)
        coldest = min(entries)
        return (hottest[1], hottest[2]), (coldest[1], coldest[2])

    def remaining_lifetime_fraction(self, plane_index: int, block_index: int) -> float:
        """Remaining endurance of a block given its mode and P/E count."""
        mode = MODES[self._array.pages.mode[plane_index, block_index]]
        pe_cycles = int(self._array.pages.pe_cycles[plane_index, block_index])
        return max(0.0, 1.0 - pe_cycles / reliability(mode).pe_cycle_endurance)

    def level(self, ftl: Optional["PageLevelFtl"] = None) -> "WearLevelResult":
        """Execute one static wear-leveling swap if imbalance demands it.

        The coldest block's data moves into the hottest block (which then
        stops accumulating erases), and the cold block is erased so future
        writes wear it instead.  With an ``ftl`` the L2P mappings follow
        the moved pages.  No-op when the imbalance is under the threshold.
        """
        result = WearLevelResult()
        if not self.needs_leveling():
            return result
        (hot_plane, hot_block), (cold_plane, cold_block) = self.swap_candidates()
        table = self._array.pages
        if (table.state[hot_plane, hot_block] == PROGRAMMED).any():
            return result  # the hot block is busy; try again later
        table.set_mode(hot_plane, hot_block, MODES[table.mode[cold_plane, cold_block]])
        pages = (table.state[cold_plane, cold_block] == PROGRAMMED).nonzero()[0]
        n = len(pages)
        self._array.program_pages(
            np.full(n, hot_plane), np.full(n, hot_block), np.arange(n),
            *self._array.stored(np.full(n, cold_plane), np.full(n, cold_block), pages),
        )
        if ftl is not None:
            g = self._array.geometry
            for cursor, page_index in enumerate(pages.tolist()):
                lpa = ftl.lpa_of(page_address(g, cold_plane, cold_block, page_index))
                if lpa is not None:
                    ftl.remap(lpa, page_address(g, hot_plane, hot_block, cursor))
        result.pages_moved = n
        self._array.erase_blocks((cold_plane,), (cold_block,))
        result.swapped = True
        result.hot = (hot_plane, hot_block)
        result.cold = (cold_plane, cold_block)
        return result


@dataclass
class WearLevelResult:
    """Outcome of one leveling attempt."""

    swapped: bool = False
    pages_moved: int = 0
    hot: Tuple[int, int] = (-1, -1)
    cold: Tuple[int, int] = (-1, -1)

