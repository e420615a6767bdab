"""Unit tests for flash pages, blocks, cell modes and bit-error injection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nand.cell import CellMode, reliability
from repro.nand.errors import BitErrorModel
from repro.nand.page import FlashBlock, FlashPage, PageState

PAGE = 256
OOB = 32


def _data(value=0xAB, size=PAGE):
    return np.full(size, value, dtype=np.uint8)


class TestFlashPage:
    def test_starts_erased_reads_ones(self):
        page = FlashPage(PAGE, OOB)
        assert page.state is PageState.ERASED
        data, oob = page.raw()
        assert (data == 0xFF).all()
        assert (oob == 0xFF).all()

    def test_program_and_read(self):
        page = FlashPage(PAGE, OOB)
        page.program(_data(), np.arange(OOB, dtype=np.uint8))
        data, oob = page.raw()
        assert (data == 0xAB).all()
        assert (oob == np.arange(OOB)).all()
        assert page.state is PageState.PROGRAMMED

    def test_short_data_is_zero_padded(self):
        page = FlashPage(PAGE, OOB)
        page.program(_data(size=10))
        data, _ = page.raw()
        assert (data[:10] == 0xAB).all()
        assert (data[10:] == 0).all()

    def test_program_requires_erased(self):
        page = FlashPage(PAGE, OOB)
        page.program(_data())
        with pytest.raises(RuntimeError):
            page.program(_data())

    def test_program_rejects_oversized_data(self):
        page = FlashPage(PAGE, OOB)
        with pytest.raises(ValueError):
            page.program(_data(size=PAGE + 1))

    def test_program_rejects_oversized_oob(self):
        page = FlashPage(PAGE, OOB)
        with pytest.raises(ValueError):
            page.program(_data(), np.zeros(OOB + 1, dtype=np.uint8))

    def test_program_rejects_wrong_dtype(self):
        page = FlashPage(PAGE, OOB)
        with pytest.raises(TypeError):
            page.program(np.zeros(8, dtype=np.float32))

    def test_invalidate_then_erase(self):
        page = FlashPage(PAGE, OOB)
        page.program(_data())
        page.invalidate()
        assert page.state is PageState.INVALID
        page.erase()
        assert page.state is PageState.ERASED

    def test_invalidate_erased_page_is_noop(self):
        page = FlashPage(PAGE, OOB)
        page.invalidate()
        assert page.state is PageState.ERASED


class TestFlashBlock:
    def test_in_order_programming_enforced(self):
        block = FlashBlock(4, PAGE, OOB)
        block.program_page(0, _data())
        with pytest.raises(RuntimeError):
            block.program_page(2, _data())
        block.program_page(1, _data())
        assert block.next_program_page == 2

    def test_fullness(self):
        block = FlashBlock(2, PAGE, OOB)
        assert not block.is_full
        block.program_page(0, _data())
        block.program_page(1, _data())
        assert block.is_full

    def test_erase_resets_and_counts_pe(self):
        block = FlashBlock(2, PAGE, OOB)
        block.program_page(0, _data())
        block.erase()
        assert block.pe_cycles == 1
        assert block.next_program_page == 0
        assert block.pages[0].state is PageState.ERASED

    def test_valid_invalid_counts(self):
        block = FlashBlock(3, PAGE, OOB)
        block.program_page(0, _data())
        block.program_page(1, _data())
        block.pages[0].invalidate()
        assert block.valid_page_count() == 1
        assert block.invalid_page_count() == 1

    def test_mode_change_requires_erased(self):
        block = FlashBlock(2, PAGE, OOB)
        block.set_mode(CellMode.SLC_ESP)
        assert block.mode is CellMode.SLC_ESP
        block.program_page(0, _data())
        with pytest.raises(RuntimeError):
            block.set_mode(CellMode.TLC)
        block.erase()
        block.set_mode(CellMode.TLC)


class TestCellModes:
    def test_bits_per_cell_ordering(self):
        assert CellMode.SLC.bits_per_cell == 1
        assert CellMode.MLC.bits_per_cell == 2
        assert CellMode.TLC.bits_per_cell == 3
        assert CellMode.QLC.bits_per_cell == 4

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

