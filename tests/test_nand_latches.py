"""Unit and property tests for the page-buffer latches and peripheral logic.

These circuits are the entire compute substrate REIS is allowed to use
(no-hardware-modification constraint), so their semantics are load-bearing:
XOR against the latched page + segmented fail-bit counting must equal
Hamming distance exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nand.latches import FailBitCounter, LatchTable, xor_popcount_segments

PAGE = 512
OOB = 64


@pytest.fixture()
def buffer():
    return LatchTable(1, PAGE, OOB).buffer(0)


bytes_arrays = st.binary(min_size=1, max_size=PAGE).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)


class TestPopcount:
    """The popcount arithmetic of the latch circuits: an all-zero pattern
    over one whole-width segment counts the ones of the page itself."""

    @given(bytes_arrays)
    def test_matches_numpy_unpackbits(self, data):
        zeros = np.zeros((1, data.size), dtype=np.uint8)
        counts = xor_popcount_segments(data, zeros, data.size, 1)
        assert counts.tolist() == [[int(np.unpackbits(data).sum())]]

    def test_empty(self):
        # A stack of no extractions is an empty matrix, not an error.
        page = np.full(PAGE, 0xFF, dtype=np.uint8)
        counts = xor_popcount_segments(page, np.zeros((0, 8), np.uint8), 8, 2)
        assert counts.shape == (0, 2)

    def test_all_ones(self):
        ones = np.full(10, 0xFF, dtype=np.uint8)
        counts = xor_popcount_segments(ones, np.zeros((1, 10), np.uint8), 10, 1)
        assert counts.tolist() == [[80]]


class TestPageBuffer:
    def test_load_cache_rejects_oversize(self, buffer):
        with pytest.raises(ValueError):
            buffer.table.broadcast(np.zeros(PAGE + 1, dtype=np.uint8))

    def test_buffers_are_rows_of_one_table(self):
        table = LatchTable(3, PAGE, OOB)
        data = np.arange(2 * PAGE, dtype=np.uint8).reshape(2, PAGE)
        oob = np.arange(2 * OOB, dtype=np.uint8).reshape(2, OOB)
        # Plane 2 senses row 1 then row 0, plane 0 row 1: each keeps its last.
        table.latch_senses(np.array([2, 0, 2]), data, oob, np.array([1, 1, 0]))
        assert np.array_equal(table.buffer(2).sensing, data[0])
        assert np.array_equal(table.buffer(2).oob, oob[0])
        assert np.array_equal(table.buffer(0).sensing, data[1])
        assert not table.buffer(1).sensing.any() and not table.oob[1].any()


class TestLatchSenses:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_each_plane_keeps_its_last_sense(self, planes, with_rows):
        # Senses in order: a plane named twice keeps the later page, a plane
        # never named keeps its zeros.
        n = len(planes)
        data = np.arange(n * 8, dtype=np.uint8).reshape(n, 8)
        oob = (np.arange(n * 4, dtype=np.uint8) + 100).reshape(n, 4)
        rows = np.arange(n)[::-1].copy() if with_rows else None
        table = LatchTable(4, 8, 4)
        table.latch_senses(np.array(planes), data, oob, rows)
        expected = {}
        for i, plane in enumerate(planes):
            expected[plane] = i if rows is None else int(rows[i])
        for plane in range(4):
            row = expected.get(plane)
            want = np.zeros(8, np.uint8) if row is None else data[row]
            want_oob = np.zeros(4, np.uint8) if row is None else oob[row]
            assert np.array_equal(table.sensing[plane], want)
            assert np.array_equal(table.oob[plane], want_oob)


class TestFailBitCounter:
    """Segmented fail-bit counts of the latched page XOR a pattern: the
    arithmetic the scan kernel runs, on one sensed page."""

    def _latched(self, payload):
        table = LatchTable(1, PAGE, OOB)
        table.latch_senses(np.array([0]), payload[None], np.zeros((1, OOB), np.uint8))
        return table.buffer(0).sensing

    def test_segment_counts_equal_hamming(self):
        # 4 segments of 8 bytes with known popcounts, XOR-ed with zeros.
        segments = np.zeros(PAGE, dtype=np.uint8)
        segments[0:8] = 0xFF  # 64 ones
        segments[8:16] = 0x01  # 8 ones
        counts = xor_popcount_segments(
            self._latched(segments), np.zeros((1, 8), np.uint8), 8, 4
        )
        assert counts.tolist() == [[64, 8, 0, 0]]

    def test_count_all(self):
        # One page-wide segment XOR-ed with zeros: every one in the latch.
        page = self._latched(np.full(PAGE, 0x0F, dtype=np.uint8))
        counts = xor_popcount_segments(page, np.zeros((1, PAGE), np.uint8), PAGE, 1)
        assert counts.tolist() == [[PAGE * 4]]

    def test_invocations_are_the_planes_table_entry(self):
        table = LatchTable(2, PAGE, OOB)
        table.invocations += [3, 5]
        assert FailBitCounter(table.buffer(1)).invocations == 5

    @given(st.integers(1, 16), st.integers(1, 16), st.data())
    @settings(max_examples=25)
    def test_segment_counts_match_manual_popcount(self, seg_bytes, n_segments, data):
        if seg_bytes * n_segments > PAGE:
            return
        payload = np.frombuffer(
            data.draw(st.binary(min_size=PAGE, max_size=PAGE)), dtype=np.uint8
        ).copy()
        zeros = np.zeros((1, seg_bytes), dtype=np.uint8)
        counts = xor_popcount_segments(
            self._latched(payload), zeros, seg_bytes, n_segments
        )
        view = payload[: seg_bytes * n_segments].reshape(n_segments, seg_bytes)
        expected = [int(np.unpackbits(row).sum()) for row in view]
        assert counts[0].tolist() == expected


class TestCountXorSegments:
    """The multi-query primitive: one latched page, many XOR patterns."""

    # Widths on both sides of the kernel's 64-bit-word path (multiples of
    # 8 bytes XOR + popcount as uint64, the rest bytewise).
    @given(
        st.sampled_from((1, 3, 8, 16)), st.integers(1, 8), st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=40)
    def test_rows_match_single_pattern_counts(
        self, seg_bytes, n_segments, n_patterns, data
    ):
        if seg_bytes * n_segments > PAGE:
            return
        payload = np.frombuffer(
            data.draw(st.binary(min_size=PAGE, max_size=PAGE)), dtype=np.uint8
        ).copy()
        patterns = np.frombuffer(
            data.draw(
                st.binary(
                    min_size=seg_bytes * n_patterns,
                    max_size=seg_bytes * n_patterns,
                )
            ),
            dtype=np.uint8,
        ).reshape(n_patterns, seg_bytes)
        matrix = xor_popcount_segments(payload, patterns, seg_bytes, n_segments)
        assert matrix.shape == (n_patterns, n_segments)
        # Row q is the popcount per segment of the page XOR pattern q
        # broadcast across it.
        width = seg_bytes * n_segments
        for q in range(n_patterns):
            tiled = np.tile(patterns[q], n_segments)
            diff = (payload[:width] ^ tiled).reshape(n_segments, seg_bytes)
            assert matrix[q].tolist() == np.bitwise_count(diff).sum(axis=1).tolist()

    @pytest.mark.parametrize("seg_bytes", [3, 8, 40])  # bytewise, uint64, uint16 sums
    @pytest.mark.parametrize("block_bytes", [1, 700, 1 << 20])
    def test_stacked_extractions_match_one_page_at_a_time(
        self, monkeypatch, seg_bytes, block_bytes
    ):
        """A stack of (page, pattern) extractions over a page table, in
        blocks of any size, == extracting from each page alone."""
        import repro.nand.latches as latches

        monkeypatch.setattr(latches, "XOR_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(seg_bytes)
        n_segments = PAGE // seg_bytes - 1
        table = rng.integers(0, 256, (4, PAGE), dtype=np.uint8)
        page_of = np.array([2, 0, 0, 3, 2, 1, 3])
        patterns = rng.integers(0, 256, (page_of.size, seg_bytes), dtype=np.uint8)
        stacked = xor_popcount_segments(
            table, patterns, seg_bytes, n_segments, page_of
        )
        assert stacked.shape == (page_of.size, n_segments)
        for i, page in enumerate(page_of.tolist()):
            alone = xor_popcount_segments(
                table[page], patterns[i : i + 1], seg_bytes, n_segments
            )
            assert stacked[i].tolist() == alone[0].tolist()
            bits = np.unpackbits(
                table[page, : seg_bytes * n_segments].reshape(n_segments, seg_bytes)
                ^ patterns[i],
                axis=1,
            ).sum(axis=1)
            assert stacked[i].tolist() == bits.tolist()
