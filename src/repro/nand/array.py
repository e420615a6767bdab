"""The assembled NAND flash array."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nand.cell import MODES, reliability
from repro.nand.errors import NO_FLIPS, BitErrorModel, Flips
from repro.nand.geometry import FlashGeometry
from repro.nand.latches import LatchTable
from repro.nand.page import PageTable
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet

# Per-mode tables, indexed by ``CellMode.code``: whether a mode's sensed
# bytes are the stored bytes (raw BER 0), and the read counter every sense
# in it advances.
_ERROR_FREE = tuple(reliability(mode).raw_ber <= 0.0 for mode in MODES)
READ_COUNTER_KEYS = tuple(f"page_reads_{mode.timing_key}" for mode in MODES)


class SenseRun(NamedTuple):
    """What one :meth:`FlashArray.read_pages` call sensed."""

    data: np.ndarray  # (n_pages, page_bytes) stack, raw bit errors included
    oob: np.ndarray  # (n_pages, oob_bytes) stack, error-free
    flips: Flips  # the injected errors, in :class:`EccEngine` form


class FlashArray:
    """Channels -> chips -> dies -> planes -> blocks -> pages, as tables.

    Every plane of the array is a row of its tables, numbered by global
    plane index (channel, then chip, die and plane;
    :func:`~repro.nand.geometry.page_address` maps a row back to its
    address), which is the order REIS's parallelism-first allocation
    stripes embeddings in.  Its one :class:`BitErrorModel` owns the
    device's raw-bit-error stream, its one :class:`PageTable` the bytes,
    states and block columns of every page, and its one :class:`LatchTable`
    the latches and fail-bit counts of every plane.  Senses
    (:meth:`read_pages`), programs (:meth:`program_pages`) and erases
    (:meth:`erase_blocks`) take (plane, block, page) columns.
    """

    def __init__(
        self, geometry: FlashGeometry, timing: Optional[NandTiming] = None
    ) -> None:
        self.geometry = geometry
        self.timing = timing or NandTiming()
        self.counters = CounterSet()
        self.errors = BitErrorModel()
        self.latches = LatchTable(
            geometry.total_planes, geometry.page_bytes, geometry.oob_bytes
        )
        self.pages = PageTable(
            geometry.total_planes, geometry.blocks_per_plane,
            geometry.pages_per_block, geometry.page_bytes, geometry.oob_bytes,
        )

    # ----------------------------------------------------------------- I/O

    def gather(self, planes, blocks, pages, rows, out, oob) -> np.ndarray:
        """Copy the stored bytes of pages anywhere in the array -- what a
        raw-BER-0 sense returns -- into rows ``rows`` of the page stack
        ``out`` and the OOB stack ``oob``, latching and counting nothing.
        Returns each page's cell-mode code (:meth:`PageTable.gather`)."""
        return self.pages.gather(planes, blocks, pages, rows, out, oob)

    def stored(self, planes, blocks, pages) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the stored (data, OOB) rows of pages anywhere in the
        array (:meth:`gather` into fresh stacks)."""
        n = len(pages)
        data = np.empty((n, self.geometry.page_bytes), dtype=np.uint8)
        oob = np.empty((n, self.geometry.oob_bytes), dtype=np.uint8)
        self.pages.gather(planes, blocks, pages, slice(None), data, oob)
        return data, oob

    def count_reads(self, code: int, n: int) -> None:
        """Advance the read counters by ``n`` senses in the cell mode of
        code ``code``."""
        self.counters.add_all({"page_reads": n, READ_COUNTER_KEYS[code]: n})

    def read_pages(
        self,
        planes: Sequence[int],
        blocks: Sequence[int],
        pages: Sequence[int],
        out: Optional[np.ndarray] = None,
    ) -> SenseRun:
        """Sense pages anywhere in the array into one page stack, and draw
        the read's raw bit errors once.

        ``planes`` are global plane indices; row ``i`` of the stack (``out``
        when given: a C-contiguous ``(len(planes), page_bytes)`` ``uint8``
        array; freshly allocated otherwise) receives page ``i``.  One
        gather copies the stored bytes (:meth:`gather`; the table is never
        written by a read); each plane's sensing and OOB latches then hold
        the last page it sensed (stored bytes: nothing computes on a
        latched page of a mode that needs ECC).  Then, per distinct cell
        mode in order of first appearance, the read counters advance and,
        for a noisy mode, the array's error model injects the flips of its
        rows in read order, one :meth:`BitErrorModel.corrupt_traced` (ESP-SLC
        rows stay the stored bytes): the same call sequence on a fresh
        array draws the same flips.  The OOB area is error-free (on real
        chips it carries its own ECC parity).
        """
        n = len(planes)
        if out is None:
            out = np.empty((n, self.geometry.page_bytes), dtype=np.uint8)
        elif out.shape != (n, self.geometry.page_bytes) or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous (n_pages, page_bytes) stack")
        oob = np.empty((n, self.geometry.oob_bytes), dtype=np.uint8)
        if not n:
            return SenseRun(out, oob, NO_FLIPS)
        planes = np.asarray(planes)
        codes = self.pages.gather(planes, blocks, pages, slice(None), out, oob)
        self.latches.latch_senses(planes, out, oob)
        tally = codes.tolist()
        flips = NO_FLIPS
        for code in dict.fromkeys(tally):
            self.count_reads(code, tally.count(code))
            if _ERROR_FREE[code]:
                continue
            drawn = self.errors.corrupt_traced(
                out, (codes == code).nonzero()[0], MODES[code]
            )
            if flips is not NO_FLIPS:
                drawn = tuple(map(np.concatenate, zip(flips, drawn)))
            flips = drawn
        return SenseRun(out, oob, flips)

    def program_pages(self, planes, blocks, pages, data, oob=None) -> None:
        """One :meth:`PageTable.program` (global plane indices), counted once."""
        self.pages.program(planes, blocks, pages, data, oob)
        self.counters.add_all({"page_programs": len(data)})

    def erase_blocks(self, planes, blocks) -> None:
        """One :meth:`PageTable.erase`, counted once."""
        self.pages.erase(planes, blocks)
        self.counters.add_all({"block_erases": len(planes)})
