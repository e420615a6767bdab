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
        """Valid mapped pages currently inside the in-plane window: the
        pages :meth:`clear_window` relocates."""
        return len(self.ssd.ftl.mapped(*self._used_blocks(start_page, end_page))[1])

    def _used_blocks(self, start_page: int, end_page: int) -> Tuple[np.ndarray, np.ndarray]:
        """(plane_index, block) columns of the blocks overlapping the window
        that are not erased, in (plane, block) order."""
        ppb = self.ssd.spec.geometry.pages_per_block
        first_block = start_page // ppb
        used = self.ssd.array.pages.next_page[:, first_block : -(-end_page // ppb)] > 0
        planes, blocks = used.nonzero()
        return planes, blocks + first_block

    # ------------------------------------------------------------ clearing

    def clear_window(self, start_page: int, end_page: int) -> DefragResult:
        """Relocate valid pages out of the window and erase its blocks.

        ``start_page``/``end_page`` are in-plane page indices and must be
        block-aligned (a block has a single cell mode, so regions cannot
        share blocks with foreign data).  Programmed pages no logical page
        maps to have no owner and are dropped uncopied
        (:meth:`PageLevelFtl.relocate`).
        """
        g = self.ssd.spec.geometry
        ppb = g.pages_per_block
        if start_page % ppb or end_page % ppb:
            raise ValueError("window must be block-aligned")
        if not 0 <= start_page < end_page <= g.pages_per_plane:
            raise ValueError("window outside the plane")
        allocator = self.ssd.ftl._allocator

        def allocate() -> PhysicalPageAddress:
            # The allocator may hand back a page inside the window; skip
            # forward until it leaves (those pages stay erased).
            for _ in range(g.total_pages):
                try:
                    ppa = allocator.allocate()
                except RuntimeError as exc:
                    raise DefragmentationError(
                        "no free pages outside the window to relocate into"
                    ) from exc
                if not start_page <= ppa.block * ppb + ppa.page < end_page:
                    return ppa
            raise DefragmentationError("window cannot be escaped")

        planes, blocks = self._used_blocks(start_page, end_page)
        relocated = self.ssd.ftl.relocate(planes, blocks, allocate)
        timing = self.ssd.spec.timing
        seconds = 0.0
        for _ in range(relocated):
            seconds += timing.read_time("tlc") + timing.program_time("tlc")
        for _ in range(planes.size):
            seconds += timing.t_erase_s
        return DefragResult(
            region=CoarseRegion(start_page, end_page),
            relocated_pages=relocated,
            erased_blocks=planes.size,
            seconds=seconds,
        )
