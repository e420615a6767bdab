"""Flash planes: the unit of read/program parallelism inside a die."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.nand.errors import NO_FLIPS, BitErrorModel
from repro.nand.latches import FailBitCounter, PageBuffer
from repro.nand.page import FlashBlock, PageState
from repro.sim.stats import CounterSet

# Per-mode counter keys precomputed once: the read hot path increments one
# of these for every sense and should not rebuild the string each time.
_READ_COUNTER_KEYS = {mode: f"page_reads_{mode.timing_key}" for mode in CellMode}
# Modes whose sensed bytes are the stored bytes (raw BER 0).  A tuple: its
# ``in`` compares by identity, where hashing an Enum member calls Python.
_ERROR_FREE_MODES = tuple(
    mode for mode in CellMode if reliability(mode).raw_ber <= 0.0
)


class SenseRun(NamedTuple):
    """What one :meth:`Plane.read_pages` run sensed, one item per page."""

    data: List[np.ndarray]  # sensed bytes (raw bit errors included)
    oob: List[np.ndarray]
    golden: List[np.ndarray]  # stored bytes: the simulated ECC's reference
    flipped: List[np.ndarray]  # byte indices the error model touched


class Plane:
    """A plane: blocks of pages, one page buffer, peripheral logic.

    Reads land in the sensing latch; raw bit errors are injected according to
    the block's cell mode so that skipping ECC is only safe for ESP-SLC data.
    """

    def __init__(
        self,
        plane_id: int,
        blocks_per_plane: int,
        pages_per_block: int,
        page_bytes: int,
        oob_bytes: int,
        error_model: Optional[BitErrorModel] = None,
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
        self._errors = error_model or BitErrorModel(seed=plane_id)
        self.counters = counters if counters is not None else CounterSet()
        # Byte indices the error model touched on the most recent sense --
        # a superset of the actually-flipped bytes, usable as an ECC hint.
        self.last_flipped_bytes = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ I/O

    def read_pages(
        self,
        blocks: Sequence[int],
        pages: Sequence[int],
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> SenseRun:
        """Sense a run of pages, in order: a plane's senses of one phase.

        Every page draws its raw bit errors exactly as a sense of its own
        would -- one ``binomial`` -> ``integers`` pair per noisy page, in
        run order, which is what pins this plane's error stream -- while
        everything a later sense overwrites happens once: the sensing
        latch, the OOB latch and ``last_flipped_bytes`` are loaded with the
        run's last page and the read counters advance by the run's counts.
        The sensed data carries raw bit errors for non-ESP modes; callers
        that need reliability must route it through the controller's ECC
        (``golden`` is that ECC model's reference).  The OOB area is
        modeled error-free for simplicity (on real chips the OOB carries
        its own ECC parity).

        ``out`` is a destination: page-wide ``uint8`` rows, one per page,
        the sensed data is written into (and returned as).  Without it a
        noisy page is a fresh array and a page in a raw-BER-0 mode is the
        stored array itself, read-only -- sensed bytes *are* the stored
        bytes there.
        """
        n = len(blocks)
        datas, oobs, goldens = [None] * n, [None] * n, [None] * n
        flipped, modes = [NO_FLIPS] * n, [None] * n
        for i, (block, page) in enumerate(zip(blocks, pages)):
            flash_block = self.blocks[block]
            mode = modes[i] = flash_block.mode
            data, oobs[i] = flash_block.pages[page].raw_view()
            goldens[i] = data
            if out is not None or mode not in _ERROR_FREE_MODES:
                data, flipped[i] = self._errors.corrupt_traced(
                    data, mode, out=None if out is None else out[i]
                )
            datas[i] = data
        if n:
            self.buffer.load_sensing(datas[-1], oobs[-1])
            self.last_flipped_bytes = flipped[-1]
            self.counters.add("page_reads", n)
            while modes:  # one count per distinct mode of the run
                mode = modes[0]
                self.counters.add(_READ_COUNTER_KEYS[mode], modes.count(mode))
                modes = [other for other in modes if other is not mode]
        return SenseRun(datas, oobs, goldens, flipped)

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
