"""The assembled NAND flash array."""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nand.cell import CellMode, reliability
from repro.nand.channel import Channel
from repro.nand.errors import NO_FLIPS, BitErrorModel, Flips
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress, page_address
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet

# Modes whose sensed bytes are the stored bytes (raw BER 0).  A tuple: its
# ``in`` compares by identity, where hashing an Enum member calls Python.
_ERROR_FREE_MODES = tuple(
    mode for mode in CellMode if reliability(mode).raw_ber <= 0.0
)


class SenseRun(NamedTuple):
    """What one :meth:`FlashArray.read_pages` call sensed."""

    data: np.ndarray  # (n_pages, page_bytes) stack, raw bit errors included
    oob: List[np.ndarray]  # one per page, error-free
    flips: Flips  # the injected errors, in :class:`EccEngine` form


class FlashArray:
    """Channels -> chips -> dies -> planes -> blocks -> pages.

    The array programs pages by :class:`PhysicalPageAddress`, senses them
    by global plane index (:meth:`read_pages`) and iterates over planes in
    global-plane order, which is the order REIS's parallelism-first
    allocation stripes embeddings in.  Its one :class:`BitErrorModel` owns
    the device's raw-bit-error stream.
    """

    def __init__(
        self, geometry: FlashGeometry, timing: Optional[NandTiming] = None
    ) -> None:
        self.geometry = geometry
        self.timing = timing or NandTiming()
        self.counters = CounterSet()
        self.errors = BitErrorModel()
        self.channels: List[Channel] = [
            Channel(cid, geometry, self.timing, counters=self.counters)
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
        array; freshly allocated otherwise) receives page ``i``.  Each plane
        gathers its pages as **one** :meth:`Plane.read_pages` run, in the
        order given; then the array's error model injects the flips of all
        noisy rows together, one :meth:`BitErrorModel.corrupt_traced` per
        distinct noisy cell mode (ESP-SLC rows stay the stored bytes).  The
        one stream this pins is the device's: the same call sequence on a
        fresh array draws the same flips.
        """
        n = len(planes)
        if out is None:
            out = np.empty((n, self.geometry.page_bytes), dtype=np.uint8)
        elif out.shape != (n, self.geometry.page_bytes) or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous (n_pages, page_bytes) stack")
        # plane -> (stack rows, blocks, pages, row views) of its run.  Lists
        # grow by ``+=``: this loop runs per page and makes no call.
        runs: Dict[int, Tuple[list, list, list, list]] = {}
        for i, plane_index in enumerate(planes):
            if plane_index not in runs:
                runs[plane_index] = ([], [], [], [])
            at, run_blocks, run_pages, rows = runs[plane_index]
            at += [i]
            run_blocks += [blocks[i]]
            run_pages += [pages[i]]
            rows += [out[i]]
        oobs, modes = [None] * n, [None] * n
        for plane_index, (at, run_blocks, run_pages, rows) in runs.items():
            _data, run_oobs, run_modes = self.planes[plane_index].read_pages(
                run_blocks, run_pages, rows
            )
            for i, oob, mode in zip(at, run_oobs, run_modes):
                oobs[i] = oob
                modes[i] = mode
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
        return SenseRun(out, oobs, flips)

    def program(
        self,
        address: PhysicalPageAddress,
        data: np.ndarray,
        oob: Optional[np.ndarray] = None,
    ) -> None:
        self.plane(address).program_page(address.block, address.page, data, oob)
