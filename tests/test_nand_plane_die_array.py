"""Unit tests for the assembled array: its planes and dies are rows of
its page and latch tables."""

import numpy as np
import pytest

from repro.nand.array import FlashArray
from repro.nand.cell import RELIABILITY, CellMode, reliability
from repro.nand.ecc import EccConfig, EccEngine
from repro.nand.errors import NO_FLIPS
from repro.nand.geometry import (
    FlashGeometry, PhysicalPageAddress, page_address, ppa_from_linear,
)
from repro.nand.latches import LatchTable, xor_popcount_segments
from repro.nand.timing import NandTiming

from tests.conftest import sense_one
from tests.ecc_reference import flip_column

GEOMETRY = FlashGeometry(page_bytes=2048, oob_bytes=128, subpage_bytes=512)


def program(array, plane, block, page, data, oob=None):
    """A one-page :meth:`FlashArray.program_pages`."""
    array.program_pages([plane], [block], [page], data[None], None if oob is None else oob[None])


def _tlc_array():
    """An array with pages 0-2 of block 0 programmed in TLC (the default
    mode: noisy reads) on planes 0, 3 and 5, and one ESP-SLC page on
    plane 1."""
    array = FlashArray(GEOMETRY)
    rng = np.random.default_rng(7)
    for plane_index in (0, 3, 5):
        for page in range(3):
            program(
                array, plane_index, 0, page,
                rng.integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8),
            )
    array.pages.set_mode(1, 0, CellMode.SLC_ESP)
    program(array, 1, 0, 0, rng.integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8))
    return array


def esp_array():
    """An array whose plane 0 has block 0 in ESP-SLC (raw BER 0)."""
    array = FlashArray(GEOMETRY)
    array.pages.set_mode(0, 0, CellMode.SLC_ESP)
    return array


class TestPlane:
    def test_program_read_roundtrip_on_esp(self):
        array = esp_array()
        data = np.arange(2048, dtype=np.uint8) % 251
        oob = np.arange(128, dtype=np.uint8)
        program(array, 0, 0, 0, data, oob)
        read, read_oob = sense_one(array, 0, 0, 0)
        assert np.array_equal(read, data)  # ESP: zero raw BER
        assert np.array_equal(read_oob, oob)

    def test_tlc_reads_are_noisy_but_golden_is_clean(self):
        array = FlashArray(GEOMETRY)
        data = np.zeros(GEOMETRY.page_bytes, dtype=np.uint8)
        program(array, 0, 0, 0, data)
        run = array.read_pages([0] * 64, [0] * 64, [0] * 64)
        assert run.data.any()  # 64 TLC senses of a 2 KiB page: ~105 flips
        golden, _ = array.pages.view(0, 0, 0)
        assert np.array_equal(golden, data)

    def test_requires_ecc_follows_mode(self):
        array = FlashArray(GEOMETRY)
        assert RELIABILITY[array.pages.mode[0, 0]].requires_ecc  # default TLC
        array.pages.set_mode(0, 1, CellMode.SLC_ESP)
        assert not RELIABILITY[array.pages.mode[0, 1]].requires_ecc

    def test_read_fills_sensing_latch_and_oob(self):
        array = esp_array()
        data = np.full(2048, 0x5A, dtype=np.uint8)
        oob = np.full(128, 0x11, dtype=np.uint8)
        program(array, 0, 0, 0, data, oob)
        sense_one(array, 0, 0, 0)
        assert np.array_equal(array.latches.sensing[0], data)
        assert np.array_equal(array.latches.oob[0], oob)
        assert not array.latches.sensing[1:].any()

    def test_in_plane_hamming_distance(self):
        """The REIS compute primitive: read + XOR + fail-bit count."""
        array = esp_array()
        code_bytes = 16
        embeddings = np.zeros(2048, dtype=np.uint8)
        embeddings[0:16] = 0xFF  # embedding 0: all ones
        embeddings[16:32] = 0x0F  # embedding 1: half ones
        program(array, 0, 0, 0, embeddings)
        query = np.zeros(code_bytes, dtype=np.uint8)  # all-zero query
        sense_one(array, 0, 0, 0)
        distances = xor_popcount_segments(
            array.latches.sensing[0], query[None], code_bytes, 4
        )[0]
        assert distances[0] == 128  # 16 bytes of difference
        assert distances[1] == 64
        assert distances[2] == 0

    def test_counters_track_operations(self):
        array = esp_array()
        program(array, 0, 0, 0, np.zeros(8, dtype=np.uint8))
        sense_one(array, 0, 0, 0)
        array.erase_blocks([0], [0])
        assert array.counters["page_programs"] == 1
        assert array.counters["page_reads"] == 1
        assert array.counters["block_erases"] == 1

    def test_read_counters_split_by_mode(self):
        array = FlashArray(GEOMETRY)
        array.pages.set_mode(0, 1, CellMode.SLC_ESP)
        array.program_pages([0] * 4, [0, 0, 1, 1], [0, 1, 0, 1], np.zeros((4, 8), np.uint8))
        array.read_pages([0] * 5, [0, 1, 0, 1, 1], [0, 0, 1, 1, 0])
        assert array.counters["page_reads"] == 5
        assert array.counters[f"page_reads_{CellMode.TLC.timing_key}"] == 2
        assert array.counters[f"page_reads_{CellMode.SLC_ESP.timing_key}"] == 3

    def test_empty_read_run_leaves_latches_and_counters(self):
        array = esp_array()
        data = np.full(2048, 0x5A, dtype=np.uint8)
        program(array, 0, 0, 0, data)
        sense_one(array, 0, 0, 0)
        run = array.read_pages([], [], [])
        assert run.data.shape == (0, 2048) and run.oob.shape == (0, 128)
        assert np.array_equal(array.latches.sensing[0], data)
        assert array.counters["page_reads"] == 1

    def test_error_free_run_returns_the_stored_bytes(self):
        """A raw-BER-0 read is the stored bytes with no flips drawn: copied
        into a fresh stack, or into the caller's row when given one."""
        array = esp_array()
        data = np.arange(2048, dtype=np.uint8) % 13
        program(array, 0, 0, 0, data)
        run = array.read_pages([0], [0], [0])
        golden, _ = array.pages.view(0, 0, 0)
        assert not np.shares_memory(run.data, golden)
        assert np.array_equal(run.data[0], golden)
        assert run.flips[0].size == 0
        row = np.zeros(2048, dtype=np.uint8)
        sensed, _ = sense_one(array, 0, 0, 0, out=row)
        assert np.shares_memory(sensed, row)
        assert np.array_equal(row, data)

    def test_latch_holds_the_last_page_of_a_run(self):
        array = esp_array()
        pages = np.arange(3, dtype=np.uint8)[:, None]
        array.program_pages(
            [0] * 3, [0] * 3, range(3), (pages + 1).repeat(2048, 1), (pages + 7).repeat(128, 1)
        )
        array.read_pages([0, 0, 0], [0, 0, 0], [2, 0, 1])
        assert (array.latches.sensing[0] == 2).all()
        assert (array.latches.oob[0] == 8).all()

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

    def test_distance_counters_are_the_arrays_invocation_column(
        self, small_vectors, small_queries
    ):
        """A plane's fail-bit count is its entry of the array's invocation
        column, which a scan phase advances for every plane at once: one
        count per latch XOR, on the planes the search sensed."""
        from repro.core.api import ReisDevice
        from repro.core.config import tiny_config

        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("INVOKE"))
        db_id = device.ivf_deploy("inv", vectors, nlist=8, seed=0)
        array = device.ssd.array
        assert not array.latches.invocations.any()
        device.ivf_search(db_id, small_queries[:2], k=5, nprobe=4)
        invocations = array.latches.invocations
        assert invocations.shape == (array.geometry.total_planes,)
        assert int(invocations.sum()) == array.counters["latch_xors"] > 0
        assert array.counters["bit_counts"] == array.counters["latch_xors"]


class TestDie:
    def _commands(self):
        from repro.core.commands import DeviceCommandInterface

        return DeviceCommandInterface(FlashArray(GEOMETRY))

    def test_broadcast_reaches_every_plane(self):
        commands = self._commands()
        pattern = np.full(16, 0xAA, dtype=np.uint8)
        transfers = commands.broadcast(pattern[None], multi_plane=True)
        assert transfers == GEOMETRY.total_dies  # one per die
        assert (commands.array.latches.cache[:, :16] == 0xAA).all()

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
        assert (commands.array.latches.cache == 3).all()
        counters = commands.array.counters
        assert counters["ibc_broadcasts"] == 3 * n_planes
        assert counters["ibc_page_transfers"] == 3 * n_planes

    def test_empty_broadcast_is_free(self):
        commands = self._commands()
        assert commands.broadcast(np.zeros((0, 16), dtype=np.uint8), True) == 0
        assert commands.array.counters["ibc_broadcasts"] == 0
        assert not commands.array.latches.cache.any()

    def test_multi_plane_read_parallel_planes(self):
        """Each plane of a die (rows 0 and 1) senses its own page into its
        own latch; the array's counters see both."""
        array = FlashArray(GEOMETRY)
        array.pages.set_mode([0, 1], 0, CellMode.SLC_ESP)
        array.program_pages([0, 1], [0, 0], [0, 0], np.array([[1], [2]], np.uint8).repeat(2048, 1))
        run = array.read_pages([0, 1], [0, 0], [0, 0])
        for index in range(2):
            assert (run.data[index] == index + 1).all()
            assert (array.latches.sensing[index] == index + 1).all()
        assert array.counters["page_reads"] == 2

    def test_a_die_built_alone_has_latches_of_its_own(self):
        """The planes of a die are rows of one latch table, yet a write to
        one plane's latch leaves its neighbour's untouched."""
        array = FlashArray(GEOMETRY)
        assert array.latches.cache.shape == (GEOMETRY.total_planes, GEOMETRY.page_bytes)
        array.latches.cache[1] = 5
        assert not array.latches.cache[0].any()
        array.pages.set_mode(0, 0, CellMode.SLC_ESP)
        program(array, 0, 0, 0, np.full(GEOMETRY.page_bytes, 9, dtype=np.uint8))
        sense_one(array, 0, 0, 0)
        assert (array.latches.sensing[0] == 9).all()
        assert not array.latches.sensing[1].any()
        assert (array.latches.cache[1] == 5).all()


class TestFlashArray:
    def test_ppa_addressing_consistent_with_plane_index(self):
        """Global plane index and (channel, chip, die, plane) address are
        one bijection, in parallelism-first order."""
        seen = set()
        for plane_index in range(GEOMETRY.total_planes):
            address = page_address(GEOMETRY, plane_index, 1, 2)
            address.validate(GEOMETRY)
            assert address.plane_linear(GEOMETRY) == plane_index
            assert ppa_from_linear(address.to_linear(GEOMETRY), GEOMETRY) == address
            seen.add((address.channel, address.chip, address.die, address.plane))
        assert len(seen) == GEOMETRY.total_planes
        with pytest.raises(ValueError):
            ppa_from_linear(GEOMETRY.total_pages, GEOMETRY)
        with pytest.raises(ValueError):
            page_address(GEOMETRY, GEOMETRY.total_planes, 0, 0).validate(GEOMETRY)

    def test_plane_index_out_of_range_is_refused(self):
        array = FlashArray(GEOMETRY)
        page = np.zeros((1, 8), dtype=np.uint8)
        array.program_pages([GEOMETRY.total_planes - 1], [0], [0], page)
        for plane_index in (GEOMETRY.total_planes, -1):
            with pytest.raises(ValueError):
                array.program_pages([plane_index], [0], [0], page)
            with pytest.raises(ValueError):
                array.read_pages([plane_index], [0], [0])

    def test_program_read_via_address(self):
        array = FlashArray(GEOMETRY)
        address = PhysicalPageAddress(1, 0, 1, 1, 0, 0)
        plane = address.plane_linear(GEOMETRY)
        array.pages.set_mode(plane, 0, CellMode.SLC_ESP)
        data = np.full(GEOMETRY.page_bytes, 0x42, dtype=np.uint8)
        program(array, plane, address.block, address.page, data)
        run = array.read_pages([plane], [0], [0])
        assert np.array_equal(run.data[0], data)
        assert run.flips[0].size == 0  # ESP-SLC: nothing injected

    def test_counters_are_shared_across_planes(self):
        array = FlashArray(GEOMETRY)
        planes = [PhysicalPageAddress(c, 0, 0, 0, 0, 0).plane_linear(GEOMETRY) for c in (0, 1)]
        array.program_pages(planes, [0, 0], [0, 0], np.zeros((2, 8), dtype=np.uint8))
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
        goldens = [grouped.pages.view(p, 0, page) for p, page in zip(planes, pages)]
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
            last = grouped.pages.view(plane_index, 0, mine[-1])[0]
            assert np.array_equal(grouped.latches.sensing[plane_index], last)
        assert np.array_equal(grouped.latches.sensing, single.latches.sensing)
        assert grouped.counters.as_dict() == single.counters.as_dict()
        empty = grouped.read_pages([], [], [])  # nothing to sense
        assert empty.data.shape == (0, GEOMETRY.page_bytes)
        assert empty.oob.shape == (0, GEOMETRY.oob_bytes)
        assert empty.flips[0].size == empty.flips[1].size == 0
        assert grouped.counters.as_dict() == single.counters.as_dict()

    def test_channel_transfer_time(self):
        array = FlashArray(GEOMETRY, NandTiming(channel_bandwidth_bps=1e9))
        assert array.timing.transfer_time(1e9) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            array.timing.transfer_time(-1)


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
            stored = array.pages.view(p, 0, page)[0]
            if i not in noisy_rows:
                assert np.array_equal(run.data[i], stored)
        # Every mask is one bit.
        assert (np.bitwise_count(run.flips[1]) == 1).all()

    def test_a_read_mixing_noisy_modes_injects_and_corrects_each(self):
        """A read over TLC and QLC pages draws each mode's rows at its own
        BER into one flip column, and ECC restores every row from it."""
        array = _tlc_array()
        array.pages.set_mode(5, 1, CellMode.QLC)
        qlc = np.random.default_rng(9).integers(0, 256, GEOMETRY.page_bytes).astype(np.uint8)
        program(array, 5, 1, 0, qlc)
        planes, blocks, pages = [5, 0, 1] * 30, [1, 0, 0] * 30, [0, 1, 0] * 30
        run = array.read_pages(planes, blocks, pages)
        per_row = np.bincount(run.flips[0] // GEOMETRY.page_bytes, minlength=len(planes))
        qlc_rows, tlc_rows = per_row[0::3], per_row[1::3]
        assert not per_row[2::3].any()  # ESP-SLC
        assert qlc_rows.sum() > 5 * tlc_rows.sum() > 0  # BER 1e-3 vs 1e-4
        ecc = EccEngine()
        assert ecc.correct_batch(run.data, run.flips).size == 0
        for row, (p, block, page) in enumerate(zip(planes, blocks, pages)):
            assert np.array_equal(run.data[row], array.pages.view(p, block, page)[0])

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
