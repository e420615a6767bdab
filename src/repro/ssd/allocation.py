"""Page allocation policies.

REIS distributes embeddings with *Parallelism-First Page Allocation*
(Sec. 4.1.1, citing SPA-SSD): consecutive writes rotate channel-first, then
die, then plane, so a streaming read of consecutive data engages every plane
of the storage system simultaneously.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.nand.geometry import FlashGeometry, PhysicalPageAddress


class PageAllocator:
    """Base allocator: hands out erased pages, honoring in-block ordering."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self._next_page: List[int] = [0] * geometry.total_planes
        self._cursor = 0

    def _ppa_for(self, plane_index: int, page_in_plane: int) -> PhysicalPageAddress:
        g = self.geometry
        block, page = divmod(page_in_plane, g.pages_per_block)
        die_index, plane = divmod(plane_index, g.planes_per_die)
        channel, rest = divmod(die_index, g.dies_per_channel)
        chip, die = divmod(rest, g.dies_per_chip)
        return PhysicalPageAddress(channel, chip, die, plane, block, page)

    def allocate(self) -> PhysicalPageAddress:
        """Return the next free page according to the policy."""
        g = self.geometry
        for _ in range(g.total_planes):
            plane_index = next(self._order)
            if self._next_page[plane_index] < g.pages_per_plane:
                page_in_plane = self._next_page[plane_index]
                self._next_page[plane_index] += 1
                return self._ppa_for(plane_index, page_in_plane)
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


class ContiguousRegionAllocator(PageAllocator):
    """Parallelism-first allocation starting at a fixed in-plane offset.

    REIS's coarse-grained access requires each database region to occupy a
    physically contiguous, non-overlapping window of every plane; this
    allocator carves such a window (used after defragmentation during
    ``DB_Deploy``).
    """

    def __init__(self, geometry: FlashGeometry, start_page_in_plane: int) -> None:
        super().__init__(geometry)
        if not 0 <= start_page_in_plane < geometry.pages_per_plane:
            raise ValueError("start page outside the plane")
        self._next_page = [start_page_in_plane] * geometry.total_planes
        self.start_page_in_plane = start_page_in_plane
        self._order = self._round_robin()

    def _round_robin(self) -> Iterator[int]:
        g = self.geometry
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

    def end_page_in_plane(self) -> int:
        """First in-plane page index past the allocated window."""
        return max(self._next_page)

    def advance(self, n_pages: int) -> None:
        """Skip ``n_pages`` allocations (already-programmed region pages).

        Streaming ingest re-enters a deployed region's window mid-stream:
        the deployer programmed the first pages at deploy time, so the
        appender fast-forwards the parallelism-first rotation to the first
        erased page before allocating cluster-tail pages.  The rotation is
        identical to :meth:`repro.ssd.coarse.CoarseRegion.translate`'s
        offset order, so allocation ``k`` lands exactly on region offset
        ``k``.
        """
        if n_pages < 0:
            raise ValueError("cannot advance backwards")
        for _ in range(n_pages):
            self.allocate()
