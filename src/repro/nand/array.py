"""The assembled NAND flash array."""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.nand.channel import Channel
from repro.nand.errors import NO_FLIPS, BitErrorModel, Flips
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress, page_address
from repro.nand.latches import LatchTable
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet

# Modes whose sensed bytes are the stored bytes (raw BER 0).  A tuple: its
# ``in`` compares by identity, where hashing an Enum member calls Python.
_ERROR_FREE_MODES = tuple(
    mode for mode in CellMode if reliability(mode).raw_ber <= 0.0
)
# Per-mode read counter keys, built once: every sense count names one.
_READ_COUNTER_KEYS = {mode: f"page_reads_{mode.timing_key}" for mode in CellMode}


class SenseRun(NamedTuple):
    """What one :meth:`FlashArray.read_pages` call sensed."""

    data: np.ndarray  # (n_pages, page_bytes) stack, raw bit errors included
    oob: np.ndarray  # (n_pages, oob_bytes) stack, error-free
    flips: Flips  # the injected errors, in :class:`EccEngine` form


class FlashArray:
    """Channels -> chips -> dies -> planes -> blocks -> pages.

    The array programs pages by :class:`PhysicalPageAddress`, senses them
    by global plane index (:meth:`read_pages`) and iterates over planes in
    global-plane order, which is the order REIS's parallelism-first
    allocation stripes embeddings in.  Its one :class:`BitErrorModel` owns
    the device's raw-bit-error stream, and its one :class:`LatchTable` the
    latches and fail-bit counts of every plane (row = global plane index).
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
        self.channels: List[Channel] = [
            Channel(
                cid, geometry, self.timing, counters=self.counters,
                latches=self.latches,
            )
            for cid in range(geometry.channels)
        ]
        self.planes: List[Plane] = [
            self.plane(page_address(geometry, index, 0, 0))
            for index in range(geometry.total_planes)
        ]

    # ----------------------------------------------------------- accessors

    def plane(self, address: PhysicalPageAddress) -> Plane:
        address.validate(self.geometry)
        channel = self.channels[address.channel]
        chip = channel.chips[address.chip]
        die = chip.dies[address.die]
        return die.planes[address.plane]

    def plane_by_index(self, plane_index: int) -> Plane:
        """Plane by global index (0 .. total_planes-1)."""
        if not 0 <= plane_index < len(self.planes):
            raise ValueError(f"plane index {plane_index} out of range")
        return self.planes[plane_index]

    def die_of_plane(self, plane_index: int):
        a = page_address(self.geometry, plane_index, 0, 0)
        return self.channels[a.channel].chips[a.chip].dies[a.die]

    def iter_planes(self) -> Iterator[Tuple[int, Plane]]:
        yield from enumerate(self.planes)

    # ----------------------------------------------------------------- I/O

    def gather(self, planes, blocks, pages, rows, out, oob) -> List[CellMode]:
        """Copy the stored bytes of pages anywhere in the array -- what a
        raw-BER-0 sense returns -- into rows ``rows`` of the page stack
        ``out`` and the OOB stack ``oob``, latching and counting nothing.
        Returns each page's cell mode."""
        modes = []
        for plane, block, page, row in zip(planes, blocks, pages, rows):
            flash_block = self.planes[plane].blocks[block]
            modes += [flash_block.mode]
            out[row], oob[row] = flash_block.pages[page].raw_view()
        return modes

    def count_reads(self, mode: CellMode, n: int) -> None:
        """Advance the read counters by ``n`` senses in cell mode ``mode``."""
        self.counters.add("page_reads", n)
        self.counters.add(_READ_COUNTER_KEYS[mode], n)

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
        array; freshly allocated otherwise) receives page ``i``.  One pass
        gathers the stored bytes (:meth:`gather`); each plane's sensing and
        OOB latches then hold the last page it sensed (stored bytes: nothing
        computes on a latched page of a mode that needs ECC) and the read
        counters advance once per cell mode.  The array's error model then
        injects the flips of all noisy rows, one
        :meth:`BitErrorModel.corrupt_traced` per distinct noisy cell mode
        (ESP-SLC rows stay the stored bytes): the same call sequence on a
        fresh array draws the same flips.  The OOB area is error-free (on
        real chips it carries its own ECC parity).
        """
        n = len(planes)
        if out is None:
            out = np.empty((n, self.geometry.page_bytes), dtype=np.uint8)
        elif out.shape != (n, self.geometry.page_bytes) or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous (n_pages, page_bytes) stack")
        oob = np.empty((n, self.geometry.oob_bytes), dtype=np.uint8)
        modes = self.gather(planes, blocks, pages, range(n), out, oob)
        if n:
            self.latches.latch_senses(planes, out, oob)
        counted = modes
        while counted:  # one count per distinct mode of the read
            mode = counted[0]
            self.count_reads(mode, counted.count(mode))
            counted = [other for other in counted if other is not mode]
        flips = NO_FLIPS
        noisy = [i for i, mode in enumerate(modes) if mode not in _ERROR_FREE_MODES]
        while noisy:  # one injection per distinct noisy mode of the read
            mode = modes[noisy[0]]
            rows = [i for i in noisy if modes[i] is mode]
            noisy = [i for i in noisy if modes[i] is not mode]
            drawn = self.errors.corrupt_traced(out, np.array(rows), mode)
            if flips is not NO_FLIPS:
                drawn = tuple(map(np.concatenate, zip(flips, drawn)))
            flips = drawn
        return SenseRun(out, oob, flips)

    def program(
        self,
        address: PhysicalPageAddress,
        data: np.ndarray,
        oob: Optional[np.ndarray] = None,
    ) -> None:
        self.plane(address).program_page(address.block, address.page, data, oob)
