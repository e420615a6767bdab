"""Coarse-grained access (Sec. 4.1.4).

After a database is deployed into a physically contiguous region, REIS drops
the page-level FTL for it and keeps only a 21-byte record: the database
signature plus the first/last addresses of the embedding and document
regions.  The SSD controller then derives the next physical address by
incrementing the current one, instead of invoking the L2P table on every
page read.  Page-level FTL metadata is retained on flash for maintenance
(refresh/wear-leveling) and only loaded into DRAM during those rare events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.nand.geometry import FlashGeometry, PhysicalPageAddress

# integer signature (4B) + 4 region-boundary addresses (4B each) + flags (1B)
COARSE_ENTRY_BYTES = 21


@dataclass(frozen=True)
class CoarseRegion:
    """A contiguous window of every plane: [start_page, end_page) in-plane.

    Data inside the region is striped across planes in parallelism-first
    order, so consecutive logical offsets map to consecutive planes.
    """

    start_page_in_plane: int
    end_page_in_plane: int

    def __post_init__(self) -> None:
        if self.start_page_in_plane < 0 or self.end_page_in_plane < self.start_page_in_plane:
            raise ValueError("invalid coarse region bounds")

    @property
    def pages_per_plane(self) -> int:
        return self.end_page_in_plane - self.start_page_in_plane

    def total_pages(self, geometry: FlashGeometry) -> int:
        return self.pages_per_plane * geometry.total_planes

    def contains_offset(self, offset: int, geometry: FlashGeometry) -> bool:
        return 0 <= offset < self.total_pages(geometry)

    def translate(self, offset: int, geometry: FlashGeometry) -> PhysicalPageAddress:
        """Offset -> PPA by pure arithmetic (no L2P lookup).

        Offsets stripe plane-major: offset ``i`` lives on plane
        ``i % total_planes`` at in-plane page ``start + i // total_planes``,
        matching parallelism-first placement.
        """
        if not self.contains_offset(offset, geometry):
            raise IndexError(f"offset {offset} outside the coarse region")
        stripe, lane = divmod(offset, geometry.total_planes)
        page_in_plane = self.start_page_in_plane + stripe
        # lane enumerates channel -> die -> plane, the parallelism-first order.
        plane_of_die = lane // (geometry.channels * geometry.dies_per_channel)
        rest = lane % (geometry.channels * geometry.dies_per_channel)
        die_of_channel = rest // geometry.channels
        channel = rest % geometry.channels
        chip, die = divmod(die_of_channel, geometry.dies_per_chip)
        block, page = divmod(page_in_plane, geometry.pages_per_block)
        return PhysicalPageAddress(channel, chip, die, plane_of_die, block, page)

    def translate_columns(
        self, offsets: np.ndarray, geometry: FlashGeometry
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`translate` for an array of offsets, as columns:
        ``(global plane index, block, page, channel, linear page index)``."""
        if offsets.size and not (
            0 <= np.minimum.reduce(offsets)
            and np.maximum.reduce(offsets) < self.total_pages(geometry)
        ):
            raise IndexError("offset outside the coarse region")
        stripe, lane = np.divmod(offsets, geometry.total_planes)
        plane_of_die, rest = np.divmod(
            lane, geometry.channels * geometry.dies_per_channel
        )
        die_of_channel, channel = np.divmod(rest, geometry.channels)
        plane_index = (
            channel * geometry.dies_per_channel + die_of_channel
        ) * geometry.planes_per_die + plane_of_die
        page_in_plane = self.start_page_in_plane + stripe
        block, page = np.divmod(page_in_plane, geometry.pages_per_block)
        linear = plane_index * geometry.pages_per_plane + page_in_plane
        return plane_index, block, page, channel, linear

