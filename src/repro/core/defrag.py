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
from typing import Tuple

import numpy as np

from repro.nand.geometry import PhysicalPageAddress
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
        return self._victims(start_page, end_page)[0].size

    def _victims(
        self, start_page: int, end_page: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(plane_index, block, page) columns of the programmed pages in the
        window, in (plane, block, page) order."""
        g = self.ssd.spec.geometry
        first_block = start_page // g.pages_per_block
        last_block = (max(end_page - 1, start_page)) // g.pages_per_block
        window = self.ssd.array.pages.state[:, first_block : last_block + 1]
        planes, blocks, pages = (window == PROGRAMMED).nonzero()
        return planes, blocks + first_block, pages

    # ------------------------------------------------------------ clearing

    def clear_window(self, start_page: int, end_page: int) -> DefragResult:
        """Relocate valid pages out of the window and erase its blocks.

        ``start_page``/``end_page`` are in-plane page indices and must be
        block-aligned (a block has a single cell mode, so regions cannot
        share blocks with foreign data).  Programmed pages no logical page
        maps to have no owner and are dropped uncopied.
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
        array, ftl = self.ssd.array, self.ssd.ftl
        victims = self._victims(start_page, end_page)
        linear = np.ravel_multi_index(victims, array.pages.state.shape)
        for i, lpa in enumerate(map(ftl._p2l.get, linear.tolist())):
            if lpa is None:
                continue
            plane_index, block_index, page_index = (int(c[i]) for c in victims)
            data, oob = array.plane_by_index(plane_index).golden_page(
                block_index, page_index
            )
            try:
                new_ppa = ftl._allocator.allocate()
            except RuntimeError as exc:
                raise DefragmentationError(
                    "no free pages outside the window to relocate into"
                ) from exc
            if self._inside_window(new_ppa, start_page, end_page):
                # The allocator may hand back a page inside the window;
                # skip forward until it leaves (those pages stay erased).
                for _ in range(g.total_pages):
                    new_ppa = ftl._allocator.allocate()
                    if not self._inside_window(new_ppa, start_page, end_page):
                        break
                else:
                    raise DefragmentationError("window cannot be escaped")
            array.program(new_ppa, data, oob)
            ftl.remap(lpa, new_ppa)
            seconds += timing.read_time("tlc") + timing.program_time("tlc")
            relocated += 1

        first_block = start_page // ppb
        used = array.pages.next_page[:, first_block : end_page // ppb] > 0
        planes, blocks = used.nonzero()
        array.erase_blocks(planes, blocks + first_block)
        for _ in range(planes.size):
            seconds += timing.t_erase_s
        return DefragResult(
            region=CoarseRegion(start_page, end_page),
            relocated_pages=relocated,
            erased_blocks=planes.size,
            seconds=seconds,
        )

    # ------------------------------------------------------------- helpers

    def _inside_window(
        self, ppa: PhysicalPageAddress, start_page: int, end_page: int
    ) -> bool:
        g = self.ssd.spec.geometry
        in_plane = ppa.block * g.pages_per_block + ppa.page
        return start_page <= in_plane < end_page
