"""Unit tests for planes, dies, chips, channels and the assembled array."""

import numpy as np
import pytest

from repro.nand.array import FlashArray
from repro.nand.cell import CellMode, reliability
from repro.nand.ecc import EccConfig, EccEngine
from repro.nand.errors import NO_FLIPS
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress
from repro.nand.latches import LatchTable, xor_popcount_segments
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming

from tests.conftest import sense_one
from tests.ecc_reference import flip_column

GEOMETRY = FlashGeometry(page_bytes=2048, oob_bytes=128, subpage_bytes=512)


def _tlc_array():
    """An array with pages 0-2 of block 0 programmed in TLC (the default
    mode: noisy reads) on planes 0, 3 and 5, and one ESP-SLC page on
    plane 1."""
    array = FlashArray(GEOMETRY)
    rng = np.random.default_rng(7)
    for plane_index in (0, 3, 5):
        for page in range(3):
            array.planes[plane_index].program_page(
                0, page, rng.integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8),
            )
    array.planes[1].set_mode(0, CellMode.SLC_ESP)
    array.planes[1].program_page(
        0, 0, rng.integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8)
    )
    return array


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


def esp_array():
    """An array whose plane 0 has block 0 in ESP-SLC (raw BER 0)."""
    array = FlashArray(GEOMETRY)
    array.planes[0].set_mode(0, CellMode.SLC_ESP)
    return array, array.planes[0]


class TestPlane:
    def test_program_read_roundtrip_on_esp(self):
        array, plane = esp_array()
        data = np.arange(2048, dtype=np.uint8) % 251
        oob = np.arange(128, dtype=np.uint8)
        plane.program_page(0, 0, data, oob)
        read, read_oob = sense_one(array, 0, 0, 0)
        assert np.array_equal(read, data)  # ESP: zero raw BER
        assert np.array_equal(read_oob, oob)

    def test_tlc_reads_are_noisy_but_golden_is_clean(self):
        array = FlashArray(GEOMETRY)
        data = np.zeros(GEOMETRY.page_bytes, dtype=np.uint8)
        array.planes[0].program_page(0, 0, data)
        run = array.read_pages([0] * 64, [0] * 64, [0] * 64)
        assert run.data.any()  # 64 TLC senses of a 2 KiB page: ~105 flips
        golden, _ = array.planes[0].golden_page(0, 0)
        assert np.array_equal(golden, data)

    def test_requires_ecc_follows_mode(self):
        plane = make_plane()
        assert plane.requires_ecc(0)  # default TLC
        plane.set_mode(1, CellMode.SLC_ESP)
        assert not plane.requires_ecc(1)

    def test_read_fills_sensing_latch_and_oob(self):
        array, plane = esp_array()
        data = np.full(2048, 0x5A, dtype=np.uint8)
        oob = np.full(128, 0x11, dtype=np.uint8)
        plane.program_page(0, 0, data, oob)
        sense_one(array, 0, 0, 0)
        assert np.array_equal(plane.buffer.sensing, data)
        assert np.array_equal(plane.buffer.oob, oob)
        # The plane's buffer is its row of the array's latch table.
        assert np.shares_memory(plane.buffer.sensing, array.latches.sensing)
        assert not array.latches.sensing[1:].any()

    def test_in_plane_hamming_distance(self):
        """The REIS compute primitive: read + XOR + fail-bit count."""
        array, plane = esp_array()
        code_bytes = 16
        embeddings = np.zeros(2048, dtype=np.uint8)
        embeddings[0:16] = 0xFF  # embedding 0: all ones
        embeddings[16:32] = 0x0F  # embedding 1: half ones
        plane.program_page(0, 0, embeddings)
        query = np.zeros(code_bytes, dtype=np.uint8)  # all-zero query
        sense_one(array, 0, 0, 0)
        distances = xor_popcount_segments(
            plane.buffer.sensing, query[None], code_bytes, 4
        )[0]
        assert distances[0] == 128  # 16 bytes of difference
        assert distances[1] == 64
        assert distances[2] == 0

    def test_counters_track_operations(self):
        array, plane = esp_array()
        plane.program_page(0, 0, np.zeros(8, dtype=np.uint8))
        sense_one(array, 0, 0, 0)
        plane.erase_block(0)
        assert plane.counters["page_programs"] == 1
        assert plane.counters["page_reads"] == 1
        assert plane.counters["block_erases"] == 1

    def test_read_counters_split_by_mode(self):
        array = FlashArray(GEOMETRY)
        plane = array.planes[0]
        plane.set_mode(1, CellMode.SLC_ESP)
        for block in (0, 1):
            plane.program_page(block, 0, np.zeros(8, dtype=np.uint8))
            plane.program_page(block, 1, np.zeros(8, dtype=np.uint8))
        array.read_pages([0] * 5, [0, 1, 0, 1, 1], [0, 0, 1, 1, 0])
        assert plane.counters["page_reads"] == 5
        assert plane.counters[f"page_reads_{CellMode.TLC.timing_key}"] == 2
        assert plane.counters[f"page_reads_{CellMode.SLC_ESP.timing_key}"] == 3

    def test_empty_read_run_leaves_latches_and_counters(self):
        array, plane = esp_array()
        data = np.full(2048, 0x5A, dtype=np.uint8)
        plane.program_page(0, 0, data)
        sense_one(array, 0, 0, 0)
        run = array.read_pages([], [], [])
        assert run.data.shape == (0, 2048) and run.oob.shape == (0, 128)
        assert np.array_equal(plane.buffer.sensing, data)
        assert plane.counters["page_reads"] == 1

    def test_error_free_run_returns_the_stored_bytes(self):
        """A raw-BER-0 read is the stored bytes with no flips drawn: copied
        into a fresh stack, or into the caller's row when given one."""
        array, plane = esp_array()
        data = np.arange(2048, dtype=np.uint8) % 13
        plane.program_page(0, 0, data)
        run = array.read_pages([0], [0], [0])
        golden, _ = plane.golden_view(0, 0)
        assert not np.shares_memory(run.data, golden)
        assert np.array_equal(run.data[0], golden)
        assert run.flips[0].size == 0
        row = np.zeros(2048, dtype=np.uint8)
        sensed, _ = sense_one(array, 0, 0, 0, out=row)
        assert np.shares_memory(sensed, row)
        assert np.array_equal(row, data)

    def test_latch_holds_the_last_page_of_a_run(self):
        array, plane = esp_array()
        for page in range(3):
            plane.program_page(
                0, page, np.full(2048, page + 1, dtype=np.uint8),
                np.full(128, page + 7, dtype=np.uint8),
            )
        array.read_pages([0, 0, 0], [0, 0, 0], [2, 0, 1])
        assert (plane.buffer.sensing == 2).all()
        assert (plane.buffer.oob == 8).all()

    def test_broadcast_image_tiles_whole_copies(self):
        table = LatchTable(2, 2048, 128)
        table.cache[:] = 0xEE  # stale bytes past the copies are cleared
        pattern = np.arange(24, dtype=np.uint8)
        table.broadcast(pattern)
        n = (2048 // 24) * 24
        for image in table.cache:
            assert np.array_equal(image[:n].reshape(-1, 24), np.tile(pattern, (2048 // 24, 1)))
            assert not image[n:].any()

    def test_broadcast_image_rejects_empty_and_oversize(self):
        table = LatchTable(2, 2048, 128)
        with pytest.raises(ValueError):
            table.broadcast(np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError):
            table.broadcast(np.zeros(2049, dtype=np.uint8))

    def test_distance_counters_are_the_arrays_invocation_column(self):
        """A plane's fail-bit count is its entry of the array's invocation
        column, which a scan phase advances for every plane at once."""
        array, plane = esp_array()
        array.latches.invocations[0] += 3
        assert plane.fail_bit_counter.invocations == 3
        assert array.planes[1].fail_bit_counter.invocations == 0


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

    def _commands(self):
        from repro.core.commands import DeviceCommandInterface

        return DeviceCommandInterface(FlashArray(GEOMETRY))

    def test_broadcast_reaches_every_plane(self):
        commands = self._commands()
        pattern = np.full(16, 0xAA, dtype=np.uint8)
        transfers = commands.broadcast(pattern[None], multi_plane=True)
        assert transfers == GEOMETRY.total_dies  # one per die
        for plane in commands.array.planes:
            assert (plane.buffer.cache[:16] == 0xAA).all()

    def test_broadcast_without_mpibc_costs_one_transfer_per_plane(self):
        commands = self._commands()
        pattern = np.full(16, 0xAA, dtype=np.uint8)
        assert commands.broadcast(pattern[None], multi_plane=False) == GEOMETRY.total_planes

    def test_broadcast_latches_only_the_last_row(self):
        """The cache latch is overwrite-only: back-to-back broadcasts leave
        the last query latched, and every row is still billed."""
        commands = self._commands()
        patterns = np.stack([np.full(16, value, dtype=np.uint8) for value in (1, 2, 3)])
        n_planes = GEOMETRY.total_planes
        assert commands.broadcast(patterns, multi_plane=False) == 3 * n_planes
        for plane in commands.array.planes:
            assert (plane.buffer.cache == 3).all()
        counters = commands.array.counters
        assert counters["ibc_broadcasts"] == 3 * n_planes
        assert counters["ibc_page_transfers"] == 3 * n_planes

    def test_empty_broadcast_is_free(self):
        commands = self._commands()
        assert commands.broadcast(np.zeros((0, 16), dtype=np.uint8), True) == 0
        assert commands.array.counters["ibc_broadcasts"] == 0
        assert not commands.array.latches.cache.any()

    def test_multi_plane_read_parallel_planes(self):
        """Each plane of a die senses its own page into its own latch; the
        die's counters see both."""
        array = FlashArray(GEOMETRY)
        die = array.die_of_plane(0)
        for index, plane in enumerate(die.planes):
            plane.set_mode(0, CellMode.SLC_ESP)
            plane.program_page(0, 0, np.full(2048, index + 1, dtype=np.uint8))
        run = array.read_pages([0, 1], [0, 0], [0, 0])
        for index, plane in enumerate(die.planes):
            assert (run.data[index] == index + 1).all()
            assert (plane.buffer.sensing == index + 1).all()
        assert die.counters["page_reads"] == 2

    def test_a_die_built_alone_has_latches_of_its_own(self):
        die = self._die()
        die.planes[1].buffer.cache[:] = 5
        assert not die.planes[0].buffer.cache.any()
        assert die.planes[1].buffer.table is die.planes[0].buffer.table


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
        plane.set_mode(0, CellMode.SLC_ESP)
        data = np.full(GEOMETRY.page_bytes, 0x42, dtype=np.uint8)
        array.program(address, data)
        run = array.read_pages([address.plane_linear(GEOMETRY)], [0], [0])
        assert np.array_equal(run.data[0], data)
        assert run.flips[0].size == 0  # ESP-SLC: nothing injected

    def test_counters_are_shared_across_planes(self):
        array = FlashArray(GEOMETRY)
        a = PhysicalPageAddress(0, 0, 0, 0, 0, 0)
        b = PhysicalPageAddress(1, 0, 0, 0, 0, 0)
        array.program(a, np.zeros(8, dtype=np.uint8))
        array.program(b, np.zeros(8, dtype=np.uint8))
        assert array.counters["page_programs"] == 2

    def test_read_pages_is_one_run_per_plane_in_the_order_given(self):
        """Pages anywhere in the array, interleaved across planes: each
        plane's latch ends on its last page in the order given, the
        counters equal reads of one page at a time, and every row is its
        stored page XOR the read's one flip column."""
        planes = [3, 0, 3, 5, 0, 3, 5, 0]
        pages = [0, 1, 2, 0, 0, 0, 2, 1]
        blocks = [0] * len(planes)
        single, grouped = _tlc_array(), _tlc_array()
        stack = np.zeros((len(planes), GEOMETRY.page_bytes), dtype=np.uint8)
        run = grouped.read_pages(planes, blocks, pages, out=stack)
        assert run.data is stack
        goldens = [grouped.planes[p].golden_view(0, page) for p, page in zip(planes, pages)]
        expected = np.stack([data for data, _oob in goldens])
        positions, masks = run.flips
        assert positions.size > 0
        np.bitwise_xor.at(expected.reshape(-1), positions, masks)
        assert np.array_equal(stack, expected)
        for oob, (_data, golden_oob) in zip(run.oob, goldens):
            assert np.array_equal(oob, golden_oob)
        for plane_index, page in zip(planes, pages):
            sense_one(single, plane_index, 0, page)
        for plane_index in sorted(set(planes)):
            mine = [page for p, page in zip(planes, pages) if p == plane_index]
            last = grouped.planes[plane_index].golden_view(0, mine[-1])[0]
            assert np.array_equal(grouped.planes[plane_index].buffer.sensing, last)
        assert np.array_equal(grouped.latches.sensing, single.latches.sensing)
        assert grouped.counters.as_dict() == single.counters.as_dict()
        empty = grouped.read_pages([], [], [])  # nothing to sense
        assert empty.data.shape == (0, GEOMETRY.page_bytes)
        assert empty.oob.shape == (0, GEOMETRY.oob_bytes)
        assert empty.flips[0].size == empty.flips[1].size == 0
        assert grouped.counters.as_dict() == single.counters.as_dict()

    def test_channel_transfer_time(self):
        array = FlashArray(GEOMETRY, NandTiming(channel_bandwidth_bps=1e9))
        assert array.channels[0].transfer(1e9) == pytest.approx(1.0)


class TestReadErrorInjection:
    """One error draw per `FlashArray.read_pages` call, from the array's
    one stream: a different realization of the same per-page model."""

    def test_same_call_sequence_same_flips(self):
        a, b = _tlc_array(), _tlc_array()
        calls = [
            ([3, 0, 1, 5], [0, 0, 0, 0], [1, 2, 0, 0]),
            ([0] * 5, [0] * 5, [0, 1, 2, 0, 1]),
            ([1], [0], [0]),
            ([5, 3, 0, 5, 3, 0], [0] * 6, [2, 2, 2, 1, 1, 1]),
        ]
        drawn = 0
        for planes, blocks, pages in calls:
            got, want = a.read_pages(planes, blocks, pages), b.read_pages(planes, blocks, pages)
            assert np.array_equal(got.data, want.data)
            for mine, theirs in zip(got.flips, want.flips):
                assert np.array_equal(mine, theirs)
            drawn += got.flips[0].size
        assert drawn > 0

    def test_flips_land_only_in_noisy_rows(self):
        array = _tlc_array()
        # ESP-SLC rows (plane 1) interleaved with TLC ones, many times over.
        planes = [1, 0, 1, 3, 5, 1] * 20
        pages = [0, 1, 0, 2, 0, 0] * 20
        run = array.read_pages(planes, [0] * len(planes), pages)
        page_bytes = GEOMETRY.page_bytes
        noisy_rows = {i for i, p in enumerate(planes) if p != 1}
        rows = run.flips[0] // page_bytes
        assert rows.size > 0 and set(rows.tolist()) <= noisy_rows
        for i, (p, page) in enumerate(zip(planes, pages)):
            stored = array.planes[p].golden_view(0, page)[0]
            if i not in noisy_rows:
                assert np.array_equal(run.data[i], stored)
        # Every mask is one bit.
        assert (np.bitwise_count(run.flips[1]) == 1).all()

    def test_a_read_mixing_noisy_modes_injects_and_corrects_each(self):
        """A read over TLC and QLC pages draws each mode's rows at its own
        BER into one flip column, and ECC restores every row from it."""
        array = _tlc_array()
        array.planes[5].set_mode(1, CellMode.QLC)
        qlc = np.random.default_rng(9).integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8)
        array.planes[5].program_page(1, 0, qlc)
        planes, blocks, pages = [5, 0, 1] * 30, [1, 0, 0] * 30, [0, 1, 0] * 30
        run = array.read_pages(planes, blocks, pages)
        per_row = np.bincount(run.flips[0] // GEOMETRY.page_bytes, minlength=len(planes))
        qlc_rows, tlc_rows = per_row[0::3], per_row[1::3]
        assert not per_row[2::3].any()  # ESP-SLC
        assert qlc_rows.sum() > 5 * tlc_rows.sum() > 0  # BER 1e-3 vs 1e-4
        ecc = EccEngine()
        assert ecc.correct_batch(run.data, run.flips).size == 0
        for row, (p, block, page) in enumerate(zip(planes, blocks, pages)):
            assert np.array_equal(run.data[row], array.planes[p].golden_view(block, page)[0])

    def test_mean_flips_per_page_is_bits_times_ber(self):
        array = _tlc_array()
        n = 4000
        run = array.read_pages([0] * n, [0] * n, [0] * n)
        per_page = np.bincount(run.flips[0] // GEOMETRY.page_bytes, minlength=n)
        bits = 8 * GEOMETRY.page_bytes
        ber = reliability(CellMode.TLC).raw_ber
        sigma = np.sqrt(bits * ber * (1 - ber) / n)
        assert abs(per_page.mean() - bits * ber) < 4 * sigma
        assert per_page.var() > 0  # a count per page, not a constant


class TestEccEngine:
    def test_corrects_within_capability(self):
        engine = EccEngine(EccConfig(codeword_bytes=64, correctable_bits_per_codeword=8))
        golden = np.zeros(128, dtype=np.uint8)
        raw = golden.copy()[None]
        flips = flip_column(raw, [[0, 1, 2]])  # 3 flipped bits in codeword 0
        assert engine.correct_batch(raw, flips).size == 0
        assert np.array_equal(raw[0], golden)
        assert engine.corrected_bits == 3
        assert engine.uncorrectable_codewords == 0

    def test_uncorrectable_codeword_stays_corrupt(self):
        engine = EccEngine(EccConfig(codeword_bytes=64, correctable_bits_per_codeword=2))
        golden = np.zeros(64, dtype=np.uint8)
        raw = golden.copy()[None]
        flips = flip_column(raw, [range(64)])  # 64 flipped bits >> capability
        assert engine.correct_batch(raw, flips).tolist() == [0]
        assert not np.array_equal(raw[0], golden)
        assert engine.uncorrectable_codewords == 1

    def test_shape_mismatch_rejected(self):
        engine = EccEngine()
        with pytest.raises(ValueError):
            engine.correct_batch(np.zeros(8, dtype=np.uint8), NO_FLIPS)

    def test_decode_time_linear(self):
        engine = EccEngine()
        assert engine.decode_time(2000) == pytest.approx(2 * engine.decode_time(1000))
