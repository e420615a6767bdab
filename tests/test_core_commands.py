"""Unit tests for the die command interface (Table 2 of the paper).

Each command method drives one die's peripheral circuits and logs the
commands a per-page walk would have issued, by count.
"""

import numpy as np

from repro.core.commands import DieCommandInterface, FlashOp
from repro.nand.cell import CellMode
from repro.nand.die import Die

PAGE = 2048


def make_interface():
    die = Die(
        die_id=0,
        planes_per_die=2,
        blocks_per_plane=2,
        pages_per_block=4,
        page_bytes=PAGE,
        oob_bytes=128,
    )
    for plane in die.planes:
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
    return DieCommandInterface(die)


class TestDieCommandInterface:
    def test_ibc_many_logs_one_ibc_per_row(self):
        interface = make_interface()
        codes = np.stack([np.full(16, value, dtype=np.uint8) for value in (4, 9)])
        assert interface.ibc_many(codes, multi_plane=True) == 2
        assert interface.trace[FlashOp.IBC] == 2
        for plane in interface.die.planes:
            assert (plane.buffer.cache == 9).all()

    def test_sense_run_logs_one_read_page_per_page(self):
        interface = make_interface()
        plane = interface.die.planes[1]
        for page in range(3):
            plane.program_page(0, page, np.full(PAGE, page + 1, dtype=np.uint8))
        interface.sense_run(1, [0, 0, 0], [0, 2, 1])
        assert interface.trace[FlashOp.READ_PAGE] == 3
        assert plane.counters["page_reads"] == 3
        assert (plane.buffer.sensing == 2).all()  # the run's last page
        assert not interface.die.planes[0].buffer.sensing.any()

    def test_gen_dist_run_is_one_xor_and_gen_dist_per_extraction(self):
        interface = make_interface()
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 256, (2, PAGE), dtype=np.uint8)
        codes = rng.integers(0, 256, (3, 8), dtype=np.uint8)
        page_of = np.array([1, 0, 1])
        dist = interface.gen_dist_run(0, codes, 8, 4, pages, page_of)
        assert interface.trace[FlashOp.XOR] == interface.trace[FlashOp.GEN_DIST] == 3
        for row, page in enumerate(page_of.tolist()):
            diff = pages[page, :32].reshape(4, 8) ^ codes[row]
            assert dist[row].tolist() == np.bitwise_count(diff).sum(axis=1).tolist()

    def test_record_extraction_bills_sweeps_to_the_plane(self):
        interface = make_interface()
        interface.record_extraction(1, n_sweeps=4, n_moved=7)
        assert interface.trace[FlashOp.PASS_FAIL] == 4
        assert interface.trace[FlashOp.RD_TTL] == 7
        assert interface.die.counters["pass_fail_checks"] == 4

    def test_zero_counts_issue_no_commands(self):
        interface = make_interface()
        interface.record_extraction(0, n_sweeps=0, n_moved=0)
        interface.sense_run(0, [], [])
        interface.ibc_many(np.zeros((0, 16), dtype=np.uint8), multi_plane=True)
        assert interface.trace.counts == {}
        assert interface.die.counters["pass_fail_checks"] == 0
        assert interface.die.counters["page_reads"] == 0
