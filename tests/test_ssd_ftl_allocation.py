"""Unit tests for the FTL, page allocation policies and coarse regions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nand.array import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.ssd.allocation import (
    PageAllocator,
    ParallelismFirstAllocator,
    SequentialAllocator,
)
from repro.ssd.coarse import COARSE_ENTRY_BYTES, CoarseRegion
from repro.ssd.dram import InternalDram
from repro.ssd.ftl import PageLevelFtl
from tests.conftest import stored_page

GEOMETRY = FlashGeometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=2,
    pages_per_block=4,
    page_bytes=2048,
    oob_bytes=64,
    subpage_bytes=512,
)


def make_ftl():
    array = FlashArray(GEOMETRY)
    allocator = ParallelismFirstAllocator(GEOMETRY)
    return array, PageLevelFtl(array, allocator)


class TestParallelismFirstAllocator:
    def test_first_allocations_hit_distinct_channels(self):
        allocator = ParallelismFirstAllocator(GEOMETRY)
        first = allocator.allocate()
        second = allocator.allocate()
        assert first.channel != second.channel

    def test_one_round_touches_every_plane(self):
        allocator = ParallelismFirstAllocator(GEOMETRY)
        planes = {
            allocator.allocate().plane_linear(GEOMETRY)
            for _ in range(GEOMETRY.total_planes)
        }
        assert planes == set(range(GEOMETRY.total_planes))

    def test_exhaustion_raises(self):
        allocator = ParallelismFirstAllocator(GEOMETRY)
        for _ in range(GEOMETRY.total_pages):
            allocator.allocate()
        with pytest.raises(RuntimeError):
            allocator.allocate()

    def test_pages_used(self):
        allocator = ParallelismFirstAllocator(GEOMETRY)
        for _ in range(5):
            allocator.allocate()
        assert allocator.pages_used() == 5


class TestSequentialAllocator:
    def test_fills_one_plane_first(self):
        allocator = SequentialAllocator(GEOMETRY)
        planes = {
            allocator.allocate().plane_linear(GEOMETRY)
            for _ in range(GEOMETRY.pages_per_plane)
        }
        assert planes == {0}


class TestPageLevelFtl:
    def test_write_then_read_roundtrip(self):
        array, ftl = make_ftl()
        data = np.full(GEOMETRY.page_bytes, 0x5C, dtype=np.uint8)
        ftl.write(7, data)
        ppa = ftl.translate(7)
        run = array.read_pages([ppa.plane_linear(GEOMETRY)], [ppa.block], [ppa.page])
        # Default blocks are TLC, so raw reads may be noisy: the sensed row
        # is the written page XOR the read's flips.
        np.bitwise_xor.at(run.data.reshape(-1), *run.flips)
        assert np.array_equal(run.data[0], data)
        golden, _ = stored_page(array, ppa)
        assert np.array_equal(golden, data)

    def test_out_of_place_update_invalidates_old_page(self):
        array, ftl = make_ftl()
        first = ftl.write(1, np.zeros(8, dtype=np.uint8))
        second = ftl.write(1, np.ones(8, dtype=np.uint8))
        assert first != second
        from repro.nand.page import INVALID

        old_state = array.pages.state[first.plane_linear(GEOMETRY), first.block, first.page]
        assert old_state == INVALID

    def test_translate_unmapped_raises(self):
        _, ftl = make_ftl()
        with pytest.raises(KeyError):
            ftl.translate(99)

    def test_reverse_lookup(self):
        _, ftl = make_ftl()
        ppa = ftl.write(3, np.zeros(8, dtype=np.uint8))
        assert ftl.lpa_of(ppa) == 3

    def test_translation_counter(self):
        _, ftl = make_ftl()
        ftl.write(0, np.zeros(8, dtype=np.uint8))
        ftl.translate(0)
        ftl.translate(0)
        assert ftl.translations == 2

    def test_map_table_footprint_matches_1gb_per_tb_rule(self):
        # 4B per page of 16KB -> 1/4096 of capacity ~= the 0.1% rule.
        n_pages = 1 << 20
        assert PageLevelFtl.map_table_bytes(n_pages) == n_pages * 4

    def test_dram_allocation_on_construction(self):
        array = FlashArray(GEOMETRY)
        dram = InternalDram(1 << 20)
        PageLevelFtl(array, ParallelismFirstAllocator(GEOMETRY), dram=dram)
        assert dram.region_size("ftl-l2p") == GEOMETRY.total_pages * 4


class TestCoarseRegion:
    def test_entry_is_21_bytes(self):
        # The paper: coarse access reduces per-database addressing to 21B.
        assert COARSE_ENTRY_BYTES == 21

    def test_translate_stripes_across_planes(self):
        region = CoarseRegion(0, 4)
        planes = {
            region.translate(i, GEOMETRY).plane_linear(GEOMETRY)
            for i in range(GEOMETRY.total_planes)
        }
        assert planes == set(range(GEOMETRY.total_planes))

    def test_translate_rejects_outside_region(self):
        region = CoarseRegion(0, 1)
        with pytest.raises(IndexError):
            region.translate(GEOMETRY.total_planes, GEOMETRY)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            CoarseRegion(4, 2)
        with pytest.raises(ValueError):
            CoarseRegion(-1, 2)

    @given(st.integers(0, 3), st.integers(1, 4), st.data())
    @settings(max_examples=30)
    def test_translation_is_bijective(self, start, span, data):
        region = CoarseRegion(start, min(start + span, GEOMETRY.pages_per_plane))
        total = region.total_pages(GEOMETRY)
        if total == 0:
            return
        offsets = data.draw(
            st.lists(st.integers(0, total - 1), min_size=2, max_size=10, unique=True)
        )
        addresses = {region.translate(o, GEOMETRY) for o in offsets}
        assert len(addresses) == len(offsets)
        for offset in offsets:
            ppa = region.translate(offset, GEOMETRY)
            ppa.validate(GEOMETRY)
            in_plane = ppa.block * GEOMETRY.pages_per_block + ppa.page
            assert region.start_page_in_plane <= in_plane < region.end_page_in_plane

    def test_translate_columns_matches_translate(self):
        region = CoarseRegion(1, 6)
        offsets = np.arange(region.total_pages(GEOMETRY))[::-1]
        plane, block, page, channel, linear = region.translate_columns(
            offsets, GEOMETRY
        )
        for i, offset in enumerate(offsets.tolist()):
            ppa = region.translate(offset, GEOMETRY)
            assert (plane[i], block[i], page[i], channel[i], linear[i]) == (
                ppa.plane_linear(GEOMETRY), ppa.block, ppa.page, ppa.channel,
                ppa.to_linear(GEOMETRY),
            )
        with pytest.raises(IndexError):
            region.translate_columns(offsets + 1, GEOMETRY)

    def test_consecutive_offsets_hit_consecutive_planes(self):
        region = CoarseRegion(0, 2)
        ppa0 = region.translate(0, GEOMETRY)
        ppa1 = region.translate(1, GEOMETRY)
        # Parallelism-first: the next offset goes to a different channel.
        assert ppa0.channel != ppa1.channel
