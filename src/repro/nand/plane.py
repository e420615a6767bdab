"""Flash planes: the unit of read/program parallelism inside a die."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.nand.latches import FailBitCounter, PageBuffer
from repro.nand.page import FlashBlock, PageState
from repro.sim.stats import CounterSet

# Per-mode counter keys precomputed once: the read hot path increments one
# of these for every sense and should not rebuild the string each time.
_READ_COUNTER_KEYS = {mode: f"page_reads_{mode.timing_key}" for mode in CellMode}


class PlaneRun(NamedTuple):
    """What one :meth:`Plane.read_pages` run gathered, one item per page."""

    data: List[np.ndarray]  # the stored bytes, or the ``out`` rows holding them
    oob: List[np.ndarray]
    modes: List[CellMode]  # each page's cell mode: its raw BER's key


class Plane:
    """A plane: blocks of pages, one page buffer, peripheral logic.

    A sense gathers stored bytes; the raw bit errors of a non-ESP read are
    drawn over the whole read by the array (:meth:`FlashArray.read_pages`),
    so skipping ECC is only safe for ESP-SLC data.
    """

    def __init__(
        self,
        plane_id: int,
        blocks_per_plane: int,
        pages_per_block: int,
        page_bytes: int,
        oob_bytes: int,
        counters: Optional[CounterSet] = None,
    ) -> None:
        self.plane_id = plane_id
        self.page_bytes = page_bytes
        self.oob_bytes = oob_bytes
        self.blocks = [
            FlashBlock(pages_per_block, page_bytes, oob_bytes)
            for _ in range(blocks_per_plane)
        ]
        self.buffer = PageBuffer(page_bytes, oob_bytes)
        self.fail_bit_counter = FailBitCounter(self.buffer)
        self.counters = counters if counters is not None else CounterSet()

    # ------------------------------------------------------------------ I/O

    def read_pages(
        self,
        blocks: Sequence[int],
        pages: Sequence[int],
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> PlaneRun:
        """Sense a run of pages, in order: a plane's senses of one phase.

        Per page the run only gathers: the page's stored bytes are copied
        into its ``out`` row (page-wide ``uint8`` rows, one per page; the
        rows are returned as the data) or, without ``out``, returned as the
        stored arrays themselves, read-only.  Everything a later sense
        overwrites happens once: the sensing and OOB latches are loaded
        with the run's last page and the read counters advance by the
        run's counts.  Raw bit errors are not this gather's: the array
        draws them over a whole read, in the caller's rows, and the
        controller's ECC takes them out (the latch keeps the stored bytes:
        nothing computes on a latched page of a mode that needs ECC).  The
        OOB area is modeled error-free (on real chips the OOB carries its
        own ECC parity).
        """
        n = len(blocks)
        datas, oobs, modes = [None] * n, [None] * n, [None] * n
        for i, (block, page) in enumerate(zip(blocks, pages)):
            flash_block = self.blocks[block]
            modes[i] = flash_block.mode
            data, oobs[i] = flash_block.pages[page].raw_view()
            if out is not None:
                row = out[i]
                row[...] = data
                data = row
            datas[i] = data
        if n:
            self.buffer.load_sensing(datas[-1], oobs[-1])
            self.counters.add("page_reads", n)
            counted = modes
            while counted:  # one count per distinct mode of the run
                mode = counted[0]
                self.counters.add(_READ_COUNTER_KEYS[mode], counted.count(mode))
                counted = [other for other in counted if other is not mode]
        return PlaneRun(datas, oobs, modes)

    def golden_page(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free page contents (for ECC reference and tests)."""
        return self.blocks[block].pages[page].raw()

    def golden_view(self, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        """Error-free page contents without copies (read-only reference)."""
        return self.blocks[block].pages[page].raw_view()

    def program_page(
        self, block: int, page: int, data: np.ndarray, oob: Optional[np.ndarray] = None
    ) -> None:
        self.blocks[block].program_page(page, data, oob)
        self.counters.add("page_programs")

    def erase_block(self, block: int) -> None:
        self.blocks[block].erase()
        self.counters.add("block_erases")

    def page_state(self, block: int, page: int) -> PageState:
        return self.blocks[block].pages[page].state

    def block_mode(self, block: int) -> CellMode:
        return self.blocks[block].mode

    def requires_ecc(self, block: int) -> bool:
        return reliability(self.blocks[block].mode).requires_ecc

    # ------------------------------------------------- peripheral-logic ops

    def broadcast_image(self, pattern: np.ndarray) -> np.ndarray:
        """The cache-latch contents an IBC of ``pattern`` leaves: as many
        whole copies as fit in a page (:class:`ValueError` unless one does)."""
        if pattern.size == 0 or pattern.size > self.page_bytes:
            raise ValueError("broadcast pattern must fit within a page")
        return np.tile(pattern.astype(np.uint8), self.page_bytes // pattern.size)

    def note_pass_fail_sweeps(self, n_sweeps: int) -> None:
        """Account ``n_sweeps`` pass/fail comparator sweeps over this plane.

        One sweep per page window, for the distance threshold and again for
        the Sec. 7.1 metadata tag.  The scan kernel evaluates the
        comparisons for a whole phase at once, so only the count arrives
        here.
        """
        self.counters.add("pass_fail_checks", n_sweeps)

    def multi_query_distances(
        self,
        query_codes: np.ndarray,
        segment_bytes: int,
        n_segments: int,
        pages: Optional[np.ndarray] = None,
        page_of: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-embedding Hamming distances of a stack of extractions.

        This is REIS's distance computation on the plane's existing latch
        circuits (Sec. 4.3.2), for ``Q`` query codes at once:

        1. input broadcasting leaves N copies of a query code in the cache
           latch (CL; :meth:`Die.broadcast_queries`);
        2. a page of database embeddings is sensed into the sensing latch
           (SL; :meth:`read_pages`);
        3. XOR(CL, SL) -> DL yields the bitwise difference;
        4. the fail-bit counter counts the ones of each embedding segment
           of DL: its Hamming distance to the query.

        A page stays latched in SL while CL is reloaded with each query
        code in turn, so one physical sense yields several rows of the
        ``(Q, n_segments)`` distance matrix; each row counts one XOR and
        one fail-bit pass.  By default every row is extracted from the page
        SL holds now; ``pages`` / ``page_of`` stack the extractions of all
        the pages this plane latched over a phase
        (:meth:`FailBitCounter.count_xor_segments`).  Step 5, the pass/fail
        filter against the distance threshold, runs over the whole phase in
        the scan kernel (:meth:`note_pass_fail_sweeps`).
        """
        query_codes = np.atleast_2d(np.asarray(query_codes, dtype=np.uint8))
        n_queries = len(query_codes)
        self.counters.add("latch_xors", n_queries)
        self.counters.add("bit_counts", n_queries)
        return self.fail_bit_counter.count_xor_segments(
            query_codes, segment_bytes, n_segments, pages, page_of
        )
