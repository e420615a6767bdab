"""Tests for wear leveling moving data through the FTL."""

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.nand.page import PROGRAMMED
from repro.ssd.allocation import SequentialAllocator
from repro.ssd.ftl import PageLevelFtl
from repro.ssd.wear import WearLeveler

GEOMETRY = FlashGeometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=4,
    pages_per_block=4,
    page_bytes=1024,
    oob_bytes=64,
    subpage_bytes=256,
)


class TestWearLevelingExecution:
    def _worn_array(self):
        array = FlashArray(GEOMETRY)
        ftl = PageLevelFtl(array, SequentialAllocator(GEOMETRY))
        # Cold data in block 0 of plane 0.
        for lpa in range(3):
            ftl.write(lpa, np.full(16, lpa + 1, dtype=np.uint8))
        # Wear out block 1 of plane 1 (empty, hot).
        for _ in range(200):
            array.pages.erase(1, 1)
        return array, ftl

    def test_level_swaps_cold_into_hot(self):
        array, ftl = self._worn_array()
        leveler = WearLeveler(array, imbalance_threshold=50)
        result = leveler.level(ftl)
        assert result.swapped
        assert result.pages_moved == 3
        assert result.hot == (1, 1)
        # Data is still reachable through the FTL at its new location.
        for lpa in range(3):
            new_ppa = ftl.translate(lpa)
            golden, _ = array.plane(new_ppa).golden_page(new_ppa.block, new_ppa.page)
            assert (golden[:16] == lpa + 1).all()
        # The cold block was erased (its wear can now advance).
        cold_plane, cold_block = result.cold
        assert not (array.pages.state[cold_plane, cold_block] == PROGRAMMED).any()

    def test_level_noop_when_balanced(self):
        array, ftl = self._worn_array()
        leveler = WearLeveler(array, imbalance_threshold=10_000)
        result = leveler.level(ftl)
        assert not result.swapped
        assert result.pages_moved == 0

    def test_level_without_ftl_moves_raw_data(self):
        array, _ = self._worn_array()
        leveler = WearLeveler(array, imbalance_threshold=50)
        result = leveler.level()
        assert result.swapped
        hot_plane, hot_block = result.hot
        moved = array.pages.state[hot_plane, hot_block] == PROGRAMMED
        assert moved.sum() == result.pages_moved
