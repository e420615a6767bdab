"""Unit tests for the page table, cell modes and bit-error injection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nand.cell import MODES, CellMode, reliability
from repro.nand.errors import BitErrorModel
from repro.nand.page import ERASED, INVALID, PROGRAMMED, PageTable

PAGE = 256
OOB = 32


def _data(value=0xAB, size=PAGE):
    return np.full(size, value, dtype=np.uint8)


def _table(pages_per_block=4, blocks_per_plane=2, n_planes=2):
    return PageTable(n_planes, blocks_per_plane, pages_per_block, PAGE, OOB)


def _program(table, plane, block, page, data, oob=None):
    """One page through the column writer."""
    table.program(
        [plane], [block], [page], data[None], None if oob is None else oob[None]
    )


def _read(table, plane, block, page):
    """One page's (data, OOB) through a one-row gather."""
    out = np.zeros((1, PAGE), dtype=np.uint8)
    oob = np.zeros((1, OOB), dtype=np.uint8)
    table.gather([plane], [block], [page], slice(None), out, oob)
    return out[0], oob[0]


def _counts(table, plane, block):
    """(valid, invalid) pages of a block, read off the state column."""
    state = table.state[plane, block]
    return int((state == PROGRAMMED).sum()), int((state == INVALID).sum())


class TestPageRows:
    def test_starts_erased_reads_ones(self):
        table = _table()
        assert (table.state == ERASED).all()
        for read in (_read(table, 1, 1, 3), table.view(1, 1, 3)):
            data, oob = read
            assert (data == 0xFF).all()
            assert (oob == 0xFF).all()
        # The ones come from the state column; the stored bytes stay zero.
        assert not table.data.any()

    def test_program_and_read(self):
        table = _table()
        _program(table, 0, 0, 0, _data(), np.arange(OOB, dtype=np.uint8))
        data, oob = _read(table, 0, 0, 0)
        assert (data == 0xAB).all()
        assert (oob == np.arange(OOB)).all()
        assert table.state[0, 0, 0] == PROGRAMMED

    def test_short_data_is_zero_padded(self):
        table = _table()
        _program(table, 0, 0, 0, _data(size=10))
        data, oob = _read(table, 0, 0, 0)
        assert (data[:10] == 0xAB).all()
        assert (data[10:] == 0).all()
        assert not oob.any()

    def test_reprogrammed_row_is_zero_padded_after_erase(self):
        """Rows are reused after an erase: a short program clears the tail
        a full one left there."""
        table = _table()
        _program(table, 1, 1, 0, _data(0x77), np.full(OOB, 0x66, dtype=np.uint8))
        table.erase(1, 1)
        assert (_read(table, 1, 1, 0)[0] == 0xFF).all()
        _program(table, 1, 1, 0, _data(size=10), np.full(3, 5, dtype=np.uint8))
        data, oob = _read(table, 1, 1, 0)
        assert (data[:10] == 0xAB).all() and not data[10:].any()
        assert (oob[:3] == 5).all() and not oob[3:].any()

    def test_program_requires_erased(self):
        table = _table()
        _program(table, 0, 0, 0, _data())
        with pytest.raises(RuntimeError, match="erase first"):
            _program(table, 0, 0, 0, _data())

    def test_program_rejects_oversized_data(self):
        table = _table()
        with pytest.raises(ValueError):
            _program(table, 0, 0, 0, _data(size=PAGE + 1))

    def test_program_rejects_oversized_oob(self):
        table = _table()
        with pytest.raises(ValueError):
            _program(table, 0, 0, 0, _data(), np.zeros(OOB + 1, dtype=np.uint8))

    def test_program_rejects_wrong_dtype(self):
        table = _table()
        with pytest.raises(TypeError):
            _program(table, 0, 0, 0, np.zeros(8, dtype=np.float32))
        assert table.state[0, 0, 0] == ERASED and table.next_page[0, 0] == 0

    def test_invalidate_then_erase(self):
        table = _table()
        _program(table, 0, 1, 0, _data())
        table.invalidate(0, 1, 0)
        assert table.state[0, 1, 0] == INVALID
        table.erase(0, 1)
        assert table.state[0, 1, 0] == ERASED

    def test_invalidate_erased_page_is_noop(self):
        table = _table()
        table.invalidate(0, 0, 0)
        assert table.state[0, 0, 0] == ERASED

    def test_views_are_read_only_and_reads_leave_the_table(self):
        table = _table()
        _program(table, 0, 0, 0, _data())
        data, oob = table.view(0, 0, 0)
        with pytest.raises(ValueError):
            data[0] = 1
        with pytest.raises(ValueError):
            oob[0] = 1
        out, _ = _read(table, 0, 0, 0)
        out[:] = 0
        assert (table.view(0, 0, 0)[0] == 0xAB).all()


class TestBlockColumns:
    def test_in_order_programming_enforced(self):
        table = _table()
        _program(table, 0, 0, 0, _data())
        with pytest.raises(RuntimeError, match="out-of-order"):
            _program(table, 0, 0, 2, _data())
        _program(table, 0, 0, 1, _data())
        assert table.next_page[0, 0] == 2

    def test_fullness(self):
        table = _table(pages_per_block=2)
        assert not table.next_page[0, 0] >= table.pages_per_block
        _program(table, 0, 0, 0, _data())
        _program(table, 0, 0, 1, _data())
        assert table.next_page[0, 0] >= table.pages_per_block

    def test_erase_resets_and_counts_pe(self):
        table = _table(pages_per_block=2)
        _program(table, 0, 0, 0, _data())
        table.erase(0, 0)
        assert table.pe_cycles[0, 0] == 1
        assert table.next_page[0, 0] == 0
        assert table.state[0, 0, 0] == ERASED
        assert table.pe_cycles.sum() == 1  # no other block aged

    def test_valid_invalid_counts(self):
        table = _table(pages_per_block=3)
        _program(table, 0, 0, 0, _data())
        _program(table, 0, 0, 1, _data())
        table.invalidate(0, 0, 0)
        assert _counts(table, 0, 0) == (1, 1)
        assert _counts(table, 1, 0) == (0, 0)

    def test_mode_change_requires_erased(self):
        table = _table(pages_per_block=2)
        assert MODES[table.mode[0, 0]] is CellMode.TLC
        table.set_mode(0, 0, CellMode.SLC_ESP)
        assert MODES[table.mode[0, 0]] is CellMode.SLC_ESP
        _program(table, 0, 0, 0, _data())
        with pytest.raises(RuntimeError):
            table.set_mode(0, 0, CellMode.TLC)
        table.erase(0, 0)
        table.set_mode(0, 0, CellMode.TLC)

    def test_gather_returns_mode_codes_and_fills_erased_rows(self):
        table = _table()
        table.set_mode(1, 0, CellMode.SLC_ESP)
        _program(table, 1, 0, 0, _data(0x11))
        _program(table, 0, 1, 0, _data(0x22))
        out = np.zeros((4, PAGE), dtype=np.uint8)
        oob = np.zeros((4, OOB), dtype=np.uint8)
        codes = table.gather([0, 1, 0], [1, 0, 0], [0, 0, 3], np.array([3, 0, 1]), out, oob)
        assert codes.tolist() == [CellMode.TLC.code, CellMode.SLC_ESP.code, CellMode.TLC.code]
        assert (out[3] == 0x22).all() and (out[0] == 0x11).all()
        assert (out[1] == 0xFF).all() and (oob[1] == 0xFF).all()  # erased
        assert not out[2].any()  # a row the gather did not name


class TestColumnWriter:
    """``PageTable.program`` writes columns of pages in one call, and checks
    every rule before it writes: a refused call leaves every column of the
    table byte-identical."""

    COLUMNS = ("data", "oob", "state", "mode", "pe_cycles", "next_page")

    def _snapshot(self, table):
        return [getattr(table, name).copy() for name in self.COLUMNS]

    def _refused(self, table, error, match, *args):
        before = self._snapshot(table)
        with pytest.raises(error, match=match):
            table.program(*args)
        for name, column in zip(self.COLUMNS, before):
            assert np.array_equal(getattr(table, name), column), name

    def _primed(self):
        """A table whose plane 0, block 0 holds one page."""
        table = _table()
        _program(table, 0, 0, 0, _data(0x11), np.full(OOB, 0x22, dtype=np.uint8))
        return table

    def test_columns_program_blocks_in_column_order(self):
        table = self._primed()
        rows = np.stack([_data(v) for v in (1, 2, 3, 4)])
        table.program([1, 0, 1, 0], [1, 0, 1, 1], [0, 1, 1, 0], rows, rows[:, :OOB])
        assert table.next_page.tolist() == [[2, 1], [0, 2]]
        for (plane, block, page), value in zip(
            [(1, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 0)], (1, 2, 3, 4)
        ):
            data, oob = _read(table, plane, block, page)
            assert (data == value).all() and (oob == value).all()

    def test_non_erased_page_is_refused_whole(self):
        table = self._primed()
        rows = np.stack([_data(1), _data(2)])
        self._refused(table, RuntimeError, "erase first", [1, 0], [0, 0], [0, 0], rows)

    def test_out_of_order_page_is_refused_whole(self):
        table = self._primed()
        rows = np.stack([_data(1), _data(2), _data(3)])
        self._refused(
            table, RuntimeError, "out-of-order program: expected page 2, got 3",
            [0, 1, 0], [0, 0, 0], [1, 0, 3], rows,
        )

    def test_same_page_twice_in_one_call_is_refused_whole(self):
        table = self._primed()
        rows = np.stack([_data(1), _data(2)])
        self._refused(table, RuntimeError, "erase first", [1, 1], [1, 1], [0, 0], rows)

    def test_over_wide_rows_are_refused_whole(self):
        table = self._primed()
        wide = np.zeros((2, PAGE + 1), dtype=np.uint8)
        self._refused(
            table, ValueError, r"data \(257B\) exceeds page size \(256B\)",
            [1, 1], [0, 0], [0, 1], wide,
        )
        rows = np.stack([_data(1), _data(2)])
        wide_oob = np.zeros((2, OOB + 1), dtype=np.uint8)
        self._refused(
            table, ValueError, "OOB data exceeds the OOB area",
            [1, 1], [0, 0], [0, 1], rows, wide_oob,
        )

    def test_non_uint8_rows_are_refused_whole(self):
        table = self._primed()
        self._refused(
            table, TypeError, "page data must be uint8",
            [1, 1], [0, 0], [0, 1], np.zeros((2, 8), dtype=np.float32),
        )


class TestCellModes:
    def test_bits_per_cell_ordering(self):
        assert CellMode.SLC.bits_per_cell == 1
        assert CellMode.MLC.bits_per_cell == 2
        assert CellMode.TLC.bits_per_cell == 3
        assert CellMode.QLC.bits_per_cell == 4

    def test_modes_are_indexed_by_code(self):
        assert [mode.code for mode in MODES] == list(range(len(CellMode)))
        assert all(MODES[mode.code] is mode for mode in CellMode)

    def test_esp_is_single_bit(self):
        assert CellMode.SLC_ESP.bits_per_cell == 1

    def test_timing_keys_resolve(self):
        from repro.nand.timing import NandTiming

        timing = NandTiming()
        for mode in CellMode:
            assert timing.read_time(mode.timing_key) > 0

    def test_esp_needs_no_ecc(self):
        assert not reliability(CellMode.SLC_ESP).requires_ecc
        assert reliability(CellMode.SLC_ESP).raw_ber == 0.0

    def test_denser_modes_have_higher_ber(self):
        bers = [
            reliability(m).raw_ber
            for m in (CellMode.SLC, CellMode.MLC, CellMode.TLC, CellMode.QLC)
        ]
        assert bers == sorted(bers)
        assert all(reliability(m).requires_ecc for m in (CellMode.TLC, CellMode.QLC))


class TestBitErrorModel:
    def test_esp_reads_are_error_free(self):
        model = BitErrorModel(seed=1)
        stack = _data(size=4096)[None].copy()
        positions, masks = model.corrupt_traced(stack, np.array([0]), CellMode.SLC_ESP)
        assert (stack == 0xAB).all() and positions.size == masks.size == 0

    def test_tlc_reads_flip_bits(self):
        model = BitErrorModel(seed=1)
        stack = np.zeros((1, 1 << 16), dtype=np.uint8)
        model.corrupt_traced(stack, np.array([0]), CellMode.TLC)
        flipped = int(np.bitwise_count(stack).sum())
        expected = stack.size * 8 * reliability(CellMode.TLC).raw_ber
        assert flipped > 0
        assert flipped < 10 * expected

    def test_only_the_given_rows_are_touched(self):
        model = BitErrorModel(seed=2)
        stack = np.zeros((3, 1 << 14), dtype=np.uint8)
        positions, _masks = model.corrupt_traced(stack, np.array([0, 2]), CellMode.QLC)
        assert not stack[1].any() and stack[0].any() and stack[2].any()
        assert set((positions // stack.shape[1]).tolist()) == {0, 2}

    @given(st.integers(1, 6), st.integers(0, 2**16))
    def test_flip_column_reproduces_the_noisy_stack(self, n_rows, seed):
        """The returned column is exactly what was applied: XORing it into
        the clean stack gives the noisy one, and the flips per row are the
        masks' popcount."""
        model = BitErrorModel(seed=seed)
        clean = np.random.default_rng(seed).integers(0, 256, (n_rows, 512)).astype(np.uint8)
        noisy = clean.copy()
        positions, masks = model.corrupt_traced(noisy, np.arange(n_rows), CellMode.QLC)
        np.bitwise_xor.at(clean.reshape(-1), positions, masks)
        assert np.array_equal(clean, noisy)
        assert (np.bitwise_count(masks) == 1).all()

