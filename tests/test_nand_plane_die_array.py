"""Unit tests for planes, dies, chips, channels and the assembled array."""

import numpy as np
import pytest

from repro.nand.array import FlashArray
from repro.nand.cell import CellMode
from repro.nand.ecc import EccConfig, EccEngine
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming

GEOMETRY = FlashGeometry(page_bytes=2048, oob_bytes=128, subpage_bytes=512)


def make_plane(**kwargs):
    defaults = dict(
        plane_id=0,
        blocks_per_plane=4,
        pages_per_block=8,
        page_bytes=2048,
        oob_bytes=128,
    )
    defaults.update(kwargs)
    return Plane(**defaults)


class TestPlane:
    def test_program_read_roundtrip_on_esp(self):
        plane = make_plane()
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
        data = np.arange(2048, dtype=np.uint8) % 251
        oob = np.arange(128, dtype=np.uint8)
        plane.program_page(0, 0, data, oob)
        read, read_oob = plane.read_page(0, 0)
        assert np.array_equal(read, data)  # ESP: zero raw BER
        assert np.array_equal(read_oob, oob)

    def test_tlc_reads_may_be_noisy_but_golden_is_clean(self):
        plane = make_plane()
        data = np.zeros(2048, dtype=np.uint8)
        plane.program_page(0, 0, data)
        for _ in range(8):
            plane.read_page(0, 0)
        golden, _ = plane.golden_page(0, 0)
        assert np.array_equal(golden, data)

    def test_requires_ecc_follows_mode(self):
        plane = make_plane()
        assert plane.requires_ecc(0)  # default TLC
        plane.blocks[1].set_mode(CellMode.SLC_ESP)
        assert not plane.requires_ecc(1)

    def test_read_fills_sensing_latch_and_oob(self):
        plane = make_plane()
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
        data = np.full(2048, 0x5A, dtype=np.uint8)
        oob = np.full(128, 0x11, dtype=np.uint8)
        plane.program_page(0, 0, data, oob)
        plane.read_page(0, 0)
        assert np.array_equal(plane.buffer.sensing, data)
        assert np.array_equal(plane.buffer.oob, oob)

    def test_in_plane_hamming_distance(self):
        """The REIS compute primitive: IBC + read + XOR + fail-bit count."""
        plane = make_plane()
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
        code_bytes = 16
        embeddings = np.zeros(2048, dtype=np.uint8)
        embeddings[0:16] = 0xFF  # embedding 0: all ones
        embeddings[16:32] = 0x0F  # embedding 1: half ones
        plane.program_page(0, 0, embeddings)
        query = np.zeros(code_bytes, dtype=np.uint8)  # all-zero query
        plane.broadcast_to_cache(query)
        plane.read_page(0, 0)
        plane.xor_cache_sensing()
        distances = plane.segment_distances(code_bytes, 4)
        assert distances[0] == 128  # 16 bytes of difference
        assert distances[1] == 64
        assert distances[2] == 0

    def test_counters_track_operations(self):
        plane = make_plane()
        plane.program_page(0, 0, np.zeros(8, dtype=np.uint8))
        plane.read_page(0, 0)
        plane.erase_block(0)
        assert plane.counters["page_programs"] == 1
        assert plane.counters["page_reads"] == 1
        assert plane.counters["block_erases"] == 1


class TestDie:
    def _die(self):
        from repro.nand.die import Die

        return Die(
            die_id=0,
            planes_per_die=2,
            blocks_per_plane=2,
            pages_per_block=4,
            page_bytes=2048,
            oob_bytes=128,
        )

    def test_broadcast_reaches_every_plane(self):
        die = self._die()
        pattern = np.full(16, 0xAA, dtype=np.uint8)
        transfers = die.broadcast_query(pattern, multi_plane=True)
        assert transfers == 1
        for plane in die.planes:
            assert (plane.buffer.cache[:16] == 0xAA).all()

    def test_broadcast_without_mpibc_costs_one_transfer_per_plane(self):
        die = self._die()
        pattern = np.full(16, 0xAA, dtype=np.uint8)
        assert die.broadcast_query(pattern, multi_plane=False) == 2

    def test_multi_plane_read_rejects_plane_conflict(self):
        die = self._die()
        for plane in die.planes:
            plane.program_page(0, 0, np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            die.multi_plane_read([(0, 0, 0), (0, 0, 1)])

    def test_multi_plane_read_parallel_planes(self):
        die = self._die()
        for plane in die.planes:
            plane.program_page(0, 0, np.zeros(8, dtype=np.uint8))
        results = die.multi_plane_read([(0, 0, 0), (1, 0, 0)])
        assert len(results) == 2


class TestFlashArray:
    def test_ppa_addressing_consistent_with_plane_index(self):
        array = FlashArray(GEOMETRY)
        for plane_index in range(GEOMETRY.total_planes):
            plane = array.plane_by_index(plane_index)
            assert plane is not None
        with pytest.raises(ValueError):
            array.plane_by_index(GEOMETRY.total_planes)

    def test_program_read_via_address(self):
        array = FlashArray(GEOMETRY)
        address = PhysicalPageAddress(1, 0, 1, 1, 0, 0)
        plane = array.plane(address)
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
        data = np.full(GEOMETRY.page_bytes, 0x42, dtype=np.uint8)
        array.program(address, data)
        read, _ = array.read(address)
        assert np.array_equal(read, data)

    def test_counters_are_shared_across_planes(self):
        array = FlashArray(GEOMETRY)
        a = PhysicalPageAddress(0, 0, 0, 0, 0, 0)
        b = PhysicalPageAddress(1, 0, 0, 0, 0, 0)
        array.program(a, np.zeros(8, dtype=np.uint8))
        array.program(b, np.zeros(8, dtype=np.uint8))
        assert array.counters["page_programs"] == 2

    def test_read_pages_is_one_run_per_plane_in_the_order_given(self):
        """Pages anywhere in the array, interleaved across planes, == a
        single read per page in the same order on a same-seed array: noisy
        bytes, hints, latches, counters and every plane's error stream."""

        def make_array():
            array = FlashArray(GEOMETRY)
            rng = np.random.default_rng(7)
            for plane_index in (0, 3, 5):
                for page in range(3):  # TLC (the default mode): noisy reads
                    array.plane_by_index(plane_index).program_page(
                        0, page,
                        rng.integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8),
                    )
            return array

        planes = [3, 0, 3, 5, 0, 3, 5, 0]
        pages = [0, 1, 2, 0, 0, 0, 2, 1]
        blocks = [0] * len(planes)
        single, grouped = make_array(), make_array()
        stack = np.zeros((len(planes), GEOMETRY.page_bytes), dtype=np.uint8)
        run = grouped.read_pages(planes, blocks, pages, out=stack)
        for row, (plane_index, page) in enumerate(zip(planes, pages)):
            plane = single.plane_by_index(plane_index)
            data, oob = plane.read_page(0, page)
            assert np.array_equal(stack[row], data)
            assert np.shares_memory(run.data[row], stack[row])
            assert np.array_equal(run.oob[row], oob)
            assert np.array_equal(run.flipped[row], plane.last_flipped_bytes)
            assert np.array_equal(run.golden[row], plane.golden_view(0, page)[0])
        assert any(hint.size for hint in run.flipped)
        assert grouped.read_pages([], [], []) == ([], [], [], [])  # nothing to sense
        assert grouped.counters.as_dict() == single.counters.as_dict()
        for (_i, a), (_j, b) in zip(single.iter_planes(), grouped.iter_planes()):
            assert np.array_equal(a.buffer.sensing, b.buffer.sensing)
            assert np.array_equal(a.last_flipped_bytes, b.last_flipped_bytes)
            assert (
                a._errors._rng.bit_generator.state
                == b._errors._rng.bit_generator.state
            )

    def test_channel_transfer_time(self):
        array = FlashArray(GEOMETRY, NandTiming(channel_bandwidth_bps=1e9))
        assert array.channels[0].transfer(1e9) == pytest.approx(1.0)


class TestEccEngine:
    def test_corrects_within_capability(self):
        engine = EccEngine(EccConfig(codeword_bytes=64, correctable_bits_per_codeword=8))
        golden = np.zeros(128, dtype=np.uint8)
        raw = golden.copy()
        raw[0] ^= 0b00000111  # 3 flipped bits in codeword 0
        out = engine.correct(raw, golden)
        assert np.array_equal(out, golden)
        assert engine.corrected_bits == 3
        assert engine.uncorrectable_codewords == 0

    def test_uncorrectable_codeword_stays_corrupt(self):
        engine = EccEngine(EccConfig(codeword_bytes=64, correctable_bits_per_codeword=2))
        golden = np.zeros(64, dtype=np.uint8)
        raw = golden.copy()
        raw[:8] = 0xFF  # 64 flipped bits >> capability
        out = engine.correct(raw, golden)
        assert not np.array_equal(out, golden)
        assert engine.uncorrectable_codewords == 1

    def test_shape_mismatch_rejected(self):
        engine = EccEngine()
        with pytest.raises(ValueError):
            engine.correct(np.zeros(4, dtype=np.uint8), np.zeros(8, dtype=np.uint8))

    def test_decode_time_linear(self):
        engine = EccEngine()
        assert engine.decode_time(2000) == pytest.approx(2 * engine.decode_time(1000))
