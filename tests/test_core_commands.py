"""Unit tests for the die command interface (Table 2 of the paper).

A device's dies are driven as one (die, op) count table: each die's
command trace is a view of its row, and a phase logs the commands a
per-page walk would have issued, by count.
"""

import numpy as np

from repro.core.commands import OP_COLUMN, DeviceCommandInterface, FlashOp
from repro.nand.array import FlashArray
from repro.nand.cell import CellMode
from repro.nand.geometry import FlashGeometry
from repro.nand.latches import xor_popcount_segments

PAGE = 2048
GEOMETRY = FlashGeometry(
    channels=1, chips_per_channel=1, dies_per_chip=2, planes_per_die=2,
    blocks_per_plane=2, pages_per_block=4, page_bytes=PAGE, oob_bytes=128,
    subpage_bytes=512,
)


def make_interface():
    array = FlashArray(GEOMETRY)
    for plane in array.planes:
        plane.set_mode(0, CellMode.SLC_ESP)
    return DeviceCommandInterface(array)


def issued(op, per_die):
    """A (die, op) table logging ``per_die[d]`` of ``op`` on die ``d``."""
    counts = np.zeros((GEOMETRY.total_dies, len(FlashOp)), dtype=np.int64)
    counts[:, OP_COLUMN[op]] = per_die
    return counts


class TestDieCommandInterface:
    def test_ibc_many_logs_one_ibc_per_row(self):
        interface = make_interface()
        codes = np.stack([np.full(16, value, dtype=np.uint8) for value in (4, 9)])
        assert interface.broadcast(codes, multi_plane=True) == 2 * GEOMETRY.total_dies
        for die in interface.dies.values():
            assert die.trace[FlashOp.IBC] == 2
            for plane in die.die.planes:
                assert (plane.buffer.cache == 9).all()

    def test_sense_run_logs_one_read_page_per_page(self):
        interface = make_interface()
        array = interface.array
        plane = array.planes[1]
        for page in range(3):
            plane.program_page(0, page, np.full(PAGE, page + 1, dtype=np.uint8))
        pages = [0, 2, 1]
        stack = np.empty((3, PAGE), dtype=np.uint8)
        oob = np.empty((3, GEOMETRY.oob_bytes), dtype=np.uint8)
        array.gather([1] * 3, [0] * 3, pages, range(3), stack, oob)
        array.latches.latch_senses(np.array([1, 1, 1]), stack, oob)
        array.count_reads(CellMode.SLC_ESP.code, 3)
        interface.counts += issued(FlashOp.READ_PAGE, [3, 0])
        assert interface.dies[0].trace[FlashOp.READ_PAGE] == 3
        assert interface.dies[1].trace[FlashOp.READ_PAGE] == 0
        assert plane.counters["page_reads"] == 3
        assert (plane.buffer.sensing == 2).all()  # the run's last page
        assert not array.planes[0].buffer.sensing.any()

    def test_gen_dist_run_is_one_xor_and_gen_dist_per_extraction(self):
        interface = make_interface()
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 256, (2, PAGE), dtype=np.uint8)
        codes = rng.integers(0, 256, (3, 8), dtype=np.uint8)
        page_of = np.array([1, 0, 1])
        dist = xor_popcount_segments(pages, codes, 8, 4, page_of)
        for op in (FlashOp.XOR, FlashOp.GEN_DIST):
            interface.counts += issued(op, [3, 0])
        assert interface.dies[0].trace[FlashOp.XOR] == 3
        assert interface.dies[0].trace[FlashOp.GEN_DIST] == 3
        for row, page in enumerate(page_of.tolist()):
            diff = pages[page, :32].reshape(4, 8) ^ codes[row]
            assert dist[row].tolist() == np.bitwise_count(diff).sum(axis=1).tolist()

    def test_record_extraction_bills_sweeps_to_the_plane(self):
        interface = make_interface()
        interface.counts += issued(FlashOp.PASS_FAIL, [0, 4])
        interface.counts += issued(FlashOp.RD_TTL, [0, 7])
        trace = interface.dies[1].trace
        assert trace[FlashOp.PASS_FAIL] == 4
        assert trace[FlashOp.RD_TTL] == 7
        assert trace.counts == {FlashOp.PASS_FAIL: 4, FlashOp.RD_TTL: 7}
        # The traces are views of the device's one table.
        assert interface.counts[1, OP_COLUMN[FlashOp.RD_TTL]] == 7

    def test_zero_counts_issue_no_commands(self):
        interface = make_interface()
        interface.counts += issued(FlashOp.PASS_FAIL, [0, 0])
        interface.broadcast(np.zeros((0, 16), dtype=np.uint8), multi_plane=True)
        for die in interface.dies.values():
            assert die.trace.counts == {}
        counters = interface.array.counters
        assert counters["ibc_broadcasts"] == 0
        assert counters.as_dict() == {}
