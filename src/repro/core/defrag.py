"""Defragmentation for coarse-grained access (Sec. 4.1.4, Sec. 7.2).

Coarse-grained access requires every database region to occupy a
physically contiguous, block-aligned window of *every* plane.  On a drive
that has served normal host I/O, those windows hold scattered valid user
pages; ``DB_Deploy`` therefore performs defragmentation first -- an
upfront cost the paper argues is amortized over the database's lifetime.

:class:`Defragmenter` clears a window by relocating every valid mapped
page inside it to freshly allocated pages elsewhere (updating the
page-level FTL), then erasing the window's blocks.  The returned
:class:`~repro.ssd.coarse.CoarseRegion` is ready for a
:class:`~repro.core.layout.DatabaseDeployer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.nand.geometry import PhysicalPageAddress, page_address
from repro.nand.page import PROGRAMMED
from repro.ssd.coarse import CoarseRegion
from repro.ssd.device import SimulatedSSD


@dataclass
class DefragResult:
    """Outcome of clearing one window."""

    region: CoarseRegion
    relocated_pages: int
    erased_blocks: int
    seconds: float  # modeled relocation + erase time


class DefragmentationError(RuntimeError):
    """The requested window cannot be cleared (not enough free space)."""


class Defragmenter:
    """Clears contiguous, block-aligned windows for database deployment."""

    def __init__(self, ssd: SimulatedSSD) -> None:
        self.ssd = ssd

    # ------------------------------------------------------------ analysis

    def window_occupancy(self, start_page: int, end_page: int) -> int:
        """Valid mapped pages currently inside the in-plane window."""
        return len(self._victims(start_page, end_page))

    def _victims(
        self, start_page: int, end_page: int
    ) -> List[Tuple[int, int, int]]:
        """(plane_index, block, page) of valid mapped pages in the window,
        in (plane, block, page) order."""
        g = self.ssd.spec.geometry
        first_block = start_page // g.pages_per_block
        last_block = (max(end_page - 1, start_page)) // g.pages_per_block
        window = self.ssd.array.pages.state[:, first_block : last_block + 1]
        planes, blocks, pages = (window == PROGRAMMED).nonzero()
        return list(zip(planes.tolist(), (blocks + first_block).tolist(), pages.tolist()))

    # ------------------------------------------------------------ clearing

    def clear_window(self, start_page: int, end_page: int) -> DefragResult:
        """Relocate valid pages out of the window and erase its blocks.

        ``start_page``/``end_page`` are in-plane page indices and must be
        block-aligned (a block has a single cell mode, so regions cannot
        share blocks with foreign data).
        """
        g = self.ssd.spec.geometry
        ppb = g.pages_per_block
        if start_page % ppb or end_page % ppb:
            raise ValueError("window must be block-aligned")
        if not 0 <= start_page < end_page <= g.pages_per_plane:
            raise ValueError("window outside the plane")

        timing = self.ssd.spec.timing
        seconds = 0.0
        relocated = 0
        for plane_index, block_index, page_index in self._victims(start_page, end_page):
            ppa = page_address(g, plane_index, block_index, page_index)
            lpa = self.ssd.ftl.lpa_of(ppa)
            plane = self.ssd.array.plane_by_index(plane_index)
            data, oob = plane.golden_page(block_index, page_index)
            if lpa is None:
                # Unmapped-but-programmed data (no owner): drop it.
                continue
            try:
                new_ppa = self.ssd.ftl._allocator.allocate()
            except RuntimeError as exc:
                raise DefragmentationError(
                    "no free pages outside the window to relocate into"
                ) from exc
            if self._inside_window(new_ppa, start_page, end_page):
                # The allocator may hand back a page inside the window;
                # skip forward until it leaves (those pages stay erased).
                for _ in range(g.total_pages):
                    new_ppa = self.ssd.ftl._allocator.allocate()
                    if not self._inside_window(new_ppa, start_page, end_page):
                        break
                else:
                    raise DefragmentationError("window cannot be escaped")
            self.ssd.array.program(new_ppa, data, oob)
            self.ssd.ftl.remap(lpa, new_ppa)
            seconds += timing.read_time("tlc") + timing.program_time("tlc")
            relocated += 1

        erased = 0
        first_block = start_page // ppb
        used = self.ssd.array.pages.next_page[:, first_block : end_page // ppb] > 0
        for plane_index, block_index in np.argwhere(used).tolist():
            self.ssd.array.plane_by_index(plane_index).erase_block(
                first_block + block_index
            )
            seconds += timing.t_erase_s
            erased += 1
        return DefragResult(
            region=CoarseRegion(start_page, end_page),
            relocated_pages=relocated,
            erased_blocks=erased,
            seconds=seconds,
        )

    # ------------------------------------------------------------- helpers

    def _inside_window(
        self, ppa: PhysicalPageAddress, start_page: int, end_page: int
    ) -> bool:
        g = self.ssd.spec.geometry
        in_plane = ppa.block * g.pages_per_block + ppa.page
        return start_page <= in_plane < end_page
