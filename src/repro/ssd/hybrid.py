"""Hybrid SLC/TLC soft partitioning (Sec. 4.1.2).

REIS soft-partitions the drive into (i) an ESP-programmed SLC partition for
binary embeddings -- reliable enough for in-plane computation without ECC --
and (ii) a normal TLC partition for document chunks and INT8 embeddings.
Soft partitioning only changes how blocks are programmed; an SLC-mode block
stores one bit per cell, costing 3x the TLC capacity per byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.cell import MODES, CellMode


@dataclass
class PartitionStats:
    """Capacity accounting for the hybrid layout."""

    slc_blocks: int = 0
    tlc_blocks: int = 0
    slc_user_bytes: int = 0
    tlc_user_bytes: int = 0
    capacity_cost_bytes: int = 0  # TLC-equivalent bytes sacrificed for SLC


class HybridPartitioner:
    """Assigns cell modes to blocks before a region is programmed."""

    def __init__(self, array: FlashArray) -> None:
        self._array = array

    def set_block_mode(self, plane_index: int, block_index: int, mode: CellMode) -> None:
        """Program a block's mode (block must be erased and in range)."""
        np.ravel_multi_index((plane_index, block_index), self._array.pages.mode.shape)
        self._array.pages.set_mode(plane_index, block_index, mode)

    def mode_of(self, plane_index: int, block_index: int) -> CellMode:
        return MODES[self._array.pages.mode[plane_index, block_index]]

    def convert_region(
        self,
        start_page_in_plane: int,
        end_page_in_plane: int,
        mode: CellMode,
    ) -> int:
        """Set ``mode`` on every block overlapping the in-plane page window
        of every plane, in one mode write: a window holding a programmed
        block is refused whole.

        Returns the number of blocks converted across all planes.
        """
        g = self._array.geometry
        first_block = start_page_in_plane // g.pages_per_block
        last_block = (max(end_page_in_plane - 1, start_page_in_plane)) // g.pages_per_block
        blocks = range(first_block, last_block + 1)
        self._array.pages.set_mode(slice(None), blocks, mode)
        return g.total_planes * len(blocks)

    def stats(self) -> PartitionStats:
        g = self._array.geometry
        modes = self._array.pages.mode
        block_bytes = g.pages_per_block * g.page_bytes
        slc = int(np.isin(modes, (CellMode.SLC.code, CellMode.SLC_ESP.code)).sum())
        tlc = modes.size - slc
        return PartitionStats(
            slc_blocks=slc,
            tlc_blocks=tlc,
            slc_user_bytes=slc * block_bytes,
            tlc_user_bytes=tlc * block_bytes,
            # A TLC block would have held 3x the data.
            capacity_cost_bytes=2 * slc * block_bytes,
        )
