"""Page allocation policies.

REIS distributes embeddings with *Parallelism-First Page Allocation*
(Sec. 4.1.1, citing SPA-SSD): consecutive writes rotate channel-first, then
die, then plane, so a streaming read of consecutive data engages every plane
of the storage system simultaneously.

These allocators serve the page-level FTL (normal-mode host writes).  A
deployed database's coarse regions take no allocator: every page of one,
at deploy, on a streamed append or in compaction, is programmed at
:meth:`repro.ssd.coarse.CoarseRegion.translate` of its region offset
(:func:`repro.core.layout.program_slots`).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.nand.geometry import FlashGeometry, PhysicalPageAddress, page_address


class PageAllocator:
    """Base allocator: hands out erased pages, honoring in-block ordering."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self._next_page: List[int] = [0] * geometry.total_planes
        self._cursor = 0

    def allocate(self) -> PhysicalPageAddress:
        """Return the next free page according to the policy."""
        g = self.geometry
        for _ in range(g.total_planes):
            plane_index = next(self._order)
            if self._next_page[plane_index] < g.pages_per_plane:
                page_in_plane = self._next_page[plane_index]
                self._next_page[plane_index] += 1
                return page_address(
                    g, plane_index, *divmod(page_in_plane, g.pages_per_block)
                )
        raise RuntimeError("flash array is full")

    def pages_used(self) -> int:
        return sum(self._next_page)


class ParallelismFirstAllocator(PageAllocator):
    """Round-robin across planes: channel -> die -> plane rotation."""

    def __init__(self, geometry: FlashGeometry) -> None:
        super().__init__(geometry)
        self._order = self._round_robin()

    def _round_robin(self) -> Iterator[int]:
        g = self.geometry
        # Visit planes so consecutive allocations hit different channels
        # first, then different dies, then different planes -- maximizing
        # the parallelism of a streaming access.
        order: List[int] = []
        for plane in range(g.planes_per_die):
            for die in range(g.dies_per_channel):
                for channel in range(g.channels):
                    die_index = channel * g.dies_per_channel + die
                    order.append(die_index * g.planes_per_die + plane)
        position = 0
        while True:
            yield order[position % len(order)]
            position += 1


class SequentialAllocator(PageAllocator):
    """Fills one plane completely before moving on (the anti-pattern)."""

    def __init__(self, geometry: FlashGeometry) -> None:
        super().__init__(geometry)
        self._order = self._sequential()

    def _sequential(self) -> Iterator[int]:
        g = self.geometry
        while True:
            for plane_index in range(g.total_planes):
                for _ in range(g.pages_per_plane):
                    yield plane_index
