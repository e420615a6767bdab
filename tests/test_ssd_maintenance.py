"""Unit tests for GC, wear leveling, hybrid partitioning, DRAM, cores, power."""

import numpy as np
import pytest

from repro.nand.array import FlashArray
from repro.nand.cell import CellMode
from repro.nand.geometry import FlashGeometry
from repro.sim.stats import CounterSet
from repro.ssd.allocation import ParallelismFirstAllocator, SequentialAllocator
from repro.ssd.cores import CoreComplex, CoreSpec, EmbeddedCore, log2_counts
from repro.ssd.dram import InternalDram
from repro.ssd.ftl import PageLevelFtl
from repro.ssd.gc import GarbageCollector
from repro.ssd.hybrid import HybridPartitioner
from repro.ssd.power import SsdPowerModel, SsdPowerParams
from repro.ssd.wear import WearLeveler

GEOMETRY = FlashGeometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=3,
    pages_per_block=4,
    page_bytes=1024,
    oob_bytes=64,
    subpage_bytes=256,
)


class TestGarbageCollection:
    def _system(self):
        array = FlashArray(GEOMETRY)
        # Sequential allocation fills block 0 first, making victims easy.
        ftl = PageLevelFtl(array, SequentialAllocator(GEOMETRY))
        return array, ftl, GarbageCollector(array, ftl)

    def test_collect_reclaims_invalid_pages(self):
        array, ftl, gc = self._system()
        for lpa in range(4):  # fill block 0
            ftl.write(lpa, np.full(8, lpa, dtype=np.uint8))
        for lpa in range(3):  # rewrite: block 0 now holds 3 invalid pages
            ftl.write(lpa, np.full(8, 0xEE, dtype=np.uint8))
        result = gc.collect()
        assert result.erased_blocks == 1
        assert result.relocated_pages == 1  # lpa 3 was still valid
        # All data is still reachable after relocation.
        for lpa in range(4):
            ppa = ftl.translate(lpa)
            golden, _ = array.plane(ppa).golden_page(ppa.block, ppa.page)
            assert golden is not None

    def test_no_victims_no_work(self):
        _, _, gc = self._system()
        result = gc.collect()
        assert result.erased_blocks == 0

    def test_reserved_blocks_are_skipped(self):
        array, ftl, gc = self._system()
        for lpa in range(4):
            ftl.write(lpa, np.zeros(8, dtype=np.uint8))
        for lpa in range(4):
            ftl.write(lpa, np.zeros(8, dtype=np.uint8))
        gc.reserve_block(0, 0)
        result = gc.collect()
        assert (0, 0) not in result.victim_blocks


MULTIPLANE_GEOMETRY = FlashGeometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=3,
    pages_per_block=4,
    page_bytes=1024,
    oob_bytes=64,
    subpage_bytes=256,
)


class TestGarbageCollectionMultiBlock:
    """collect(max_blocks > 1) across planes, with reservations honored."""

    def _system(self):
        array = FlashArray(MULTIPLANE_GEOMETRY)
        # Parallelism-first striping puts consecutive writes on alternate
        # planes, so full-of-garbage blocks appear on both planes at once.
        ftl = PageLevelFtl(array, ParallelismFirstAllocator(MULTIPLANE_GEOMETRY))
        return array, ftl, GarbageCollector(array, ftl)

    def _fill_and_invalidate(self, ftl):
        for lpa in range(8):  # fills block 0 on both planes
            ftl.write(lpa, np.full(8, lpa, dtype=np.uint8))
        for lpa in range(8):  # rewrite: both block 0s are pure garbage
            ftl.write(lpa, np.full(8, 0xAB, dtype=np.uint8))

    def test_collect_spreads_victims_across_planes(self):
        array, ftl, gc = self._system()
        self._fill_and_invalidate(ftl)
        result = gc.collect(max_blocks=2)
        assert result.erased_blocks == 2
        assert len(result.victim_blocks) == 2
        assert {plane for plane, _ in result.victim_blocks} == {0, 1}
        for lpa in range(8):  # every live page still reachable afterwards
            ppa = ftl.translate(lpa)
            golden, _ = array.plane(ppa).golden_page(ppa.block, ppa.page)
            assert golden is not None

    def test_max_blocks_caps_the_erase_count(self):
        _, ftl, gc = self._system()
        self._fill_and_invalidate(ftl)
        first = gc.collect(max_blocks=1)
        assert first.erased_blocks == 1
        second = gc.collect(max_blocks=4)
        assert second.erased_blocks == 1  # only one victim was left
        assert first.victim_blocks[0] != second.victim_blocks[0]

    def test_reserved_blocks_never_become_victims(self):
        _, ftl, gc = self._system()
        self._fill_and_invalidate(ftl)
        gc.reserve_block(0, 0)
        gc.reserve_block(1, 0)
        result = gc.collect(max_blocks=4)
        assert result.erased_blocks == 0
        assert result.victim_blocks == []


class TestWearLeveler:
    def test_imbalance_detection(self):
        array = FlashArray(GEOMETRY)
        leveler = WearLeveler(array, imbalance_threshold=2)
        assert not leveler.needs_leveling()
        for _ in range(5):
            array.pages.erase(0, 0)
        assert leveler.max_imbalance() == 5
        assert leveler.needs_leveling()
        hottest, coldest = leveler.swap_candidates()
        assert hottest == (0, 0)
        assert coldest[1] != 0

    def test_lifetime_fraction_depends_on_mode(self):
        array = FlashArray(GEOMETRY)
        plane = array.plane_by_index(0)
        plane.set_mode(0, CellMode.SLC_ESP)
        for _ in range(1000):
            array.pages.erase(0, 0)
            array.pages.erase(0, 1)
        leveler = WearLeveler(array)
        slc_life = leveler.remaining_lifetime_fraction(0, 0)
        tlc_life = leveler.remaining_lifetime_fraction(0, 1)
        # SLC endures far more P/E cycles than TLC (Sec. 7.2).
        assert slc_life > tlc_life


class TestHybridPartitioner:
    def test_convert_region_switches_whole_blocks(self):
        array = FlashArray(GEOMETRY)
        partitioner = HybridPartitioner(array)
        converted = partitioner.convert_region(0, 4, CellMode.SLC_ESP)
        assert converted == GEOMETRY.total_planes * 1
        assert partitioner.mode_of(0, 0) is CellMode.SLC_ESP
        assert partitioner.mode_of(0, 1) is CellMode.TLC

    def test_capacity_cost_of_slc(self):
        array = FlashArray(GEOMETRY)
        partitioner = HybridPartitioner(array)
        partitioner.convert_region(0, 4, CellMode.SLC_ESP)
        stats = partitioner.stats()
        assert stats.slc_blocks == 1
        assert stats.tlc_blocks == 2
        block_bytes = GEOMETRY.pages_per_block * GEOMETRY.page_bytes
        assert stats.capacity_cost_bytes == 2 * block_bytes

    def test_refused_convert_region_changes_no_mode(self):
        """A window holding one programmed block is refused whole: no block
        of it, before or after the programmed one, takes the new mode."""
        geometry = FlashGeometry(
            channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=2,
            blocks_per_plane=4, pages_per_block=4, page_bytes=1024,
            oob_bytes=64, subpage_bytes=256,
        )
        array = FlashArray(geometry)
        array.plane_by_index(3).program_page(1, 0, np.zeros(8, dtype=np.uint8))
        modes = array.pages.mode.copy()
        with pytest.raises(RuntimeError, match="erased block"):
            HybridPartitioner(array).convert_region(0, 8, CellMode.SLC_ESP)
        assert np.array_equal(array.pages.mode, modes)

    def test_mode_change_on_programmed_block_fails(self):
        array = FlashArray(GEOMETRY)
        partitioner = HybridPartitioner(array)
        plane = array.plane_by_index(0)
        plane.program_page(0, 0, np.zeros(8, dtype=np.uint8))
        with pytest.raises(RuntimeError):
            partitioner.set_block_mode(0, 0, CellMode.SLC_ESP)


class TestInternalDram:
    def test_provisioning_rule(self):
        dram = InternalDram.for_flash_capacity(1_000_000_000_000)
        assert dram.capacity_bytes == 1_000_000_000

    def test_allocate_and_free(self):
        dram = InternalDram(1000)
        dram.allocate("a", 600)
        assert dram.free_bytes == 400
        dram.allocate("a", 300)  # resize, not accumulate
        assert dram.allocated_bytes == 300
        dram.free("a")
        assert dram.free_bytes == 1000

    def test_exhaustion(self):
        dram = InternalDram(100)
        dram.allocate("a", 80)
        with pytest.raises(MemoryError):
            dram.allocate("b", 30)

    def test_negative_rejected(self):
        dram = InternalDram(100)
        with pytest.raises(ValueError):
            dram.allocate("a", -1)

    def test_access_time_monotone(self):
        dram = InternalDram(100)
        assert dram.access_time(1000) < dram.access_time(100000)


class TestEmbeddedCores:
    def test_quickselect_linear_in_n(self):
        core = EmbeddedCore(0)
        t1 = core.quickselect(1000, 10)
        core2 = EmbeddedCore(1)
        t2 = core2.quickselect(2000, 10)
        assert t2 == pytest.approx(2 * t1)

    def test_quicksort_superlinear(self):
        core = EmbeddedCore(0)
        t1 = core.quicksort(1000)
        t2 = EmbeddedCore(1).quicksort(2000)
        assert t2 > 2 * t1

    def test_zero_elements_cost_nothing(self):
        core = EmbeddedCore(0)
        assert core.quickselect(0, 5) == 0.0
        assert core.quicksort(1) == 0.0
        assert core.int8_distances(0, 128) == 0.0
        assert core.move_bytes(0) == 0.0

    def test_busy_seconds_accumulate(self):
        core = EmbeddedCore(0)
        core.quickselect(1000, 10)
        core.quicksort(1000)
        assert core.busy_seconds > 0

    def test_columns_equal_scalar_calls_back_to_back(self):
        """A column of charges is the scalar calls made row by row: the
        same seconds and, to the bit, the same busy clock."""
        rng = np.random.default_rng(5)
        n = rng.integers(0, 400, 64)
        n[:4] = (0, 1, 2, 0)
        ks = rng.integers(1, 50, 64)
        column, scalar = EmbeddedCore(0), EmbeddedCore(1)
        column.busy_seconds = scalar.busy_seconds = 0.1
        selects = column.quickselects(n, ks)
        reranks = column.reranks(n, log2_counts(n), 96)
        assert selects.tolist() == [
            scalar.quickselect(a, k) for a, k in zip(n.tolist(), ks.tolist())
        ]
        assert reranks.tolist() == [
            [scalar.int8_distances(a, 96), scalar.quicksort(a)] for a in n.tolist()
        ]
        assert column.busy_seconds == scalar.busy_seconds

    def test_core_complex_reserves_one_reis_core(self):
        complex_ = CoreComplex(n_cores=4)
        assert len(complex_.ftl_cores) == 3
        assert complex_.reis_core is complex_.cores[-1]

    def test_core_complex_needs_two_cores(self):
        with pytest.raises(ValueError):
            CoreComplex(n_cores=1)


class TestPowerModel:
    def test_dynamic_energy_scales_with_activity(self):
        model = SsdPowerModel()
        light, heavy = CounterSet(), CounterSet()
        light.add("page_reads", 10)
        heavy.add("page_reads", 1000)
        assert model.dynamic_energy(heavy) > model.dynamic_energy(light)

    def test_total_energy_includes_idle_floor(self):
        model = SsdPowerModel(SsdPowerParams(controller_idle_power_w=2.0))
        idle_only = model.total_energy(CounterSet(), elapsed_s=10.0)
        assert idle_only >= 20.0

    def test_average_power_zero_interval(self):
        model = SsdPowerModel()
        assert model.average_power(CounterSet(), 0.0) == model.params.controller_idle_power_w

    def test_channel_bytes_counted(self):
        model = SsdPowerModel()
        counters = CounterSet()
        counters.add("channel_bytes", 1e9)
        assert model.dynamic_energy(counters) > 0
