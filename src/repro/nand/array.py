"""The assembled NAND flash array."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nand.channel import Channel
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress, page_address
from repro.nand.plane import Plane, SenseRun
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet


class FlashArray:
    """Channels -> chips -> dies -> planes -> blocks -> pages.

    The array exposes page I/O by :class:`PhysicalPageAddress` and iteration
    over planes in global-plane order, which is the order REIS's
    parallelism-first allocation stripes embeddings in.
    """

    def __init__(
        self, geometry: FlashGeometry, timing: Optional[NandTiming] = None
    ) -> None:
        self.geometry = geometry
        self.timing = timing or NandTiming()
        self.counters = CounterSet()
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

    def read(self, address: PhysicalPageAddress) -> Tuple[np.ndarray, np.ndarray]:
        """Raw page read (data may contain bit errors for non-ESP modes):
        a :meth:`Plane.read_pages` run of one."""
        run = self.plane(address).read_pages([address.block], [address.page])
        return run.data[0], run.oob[0]

    def read_pages(
        self,
        planes: Sequence[int],
        blocks: Sequence[int],
        pages: Sequence[int],
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> SenseRun:
        """Sense pages anywhere in the array: one :meth:`Plane.read_pages`
        run per plane, over that plane's pages in the order given (the
        order that pins its error stream).  ``planes`` are global plane
        indices; the result lists, like the ``out`` rows, follow the order
        given."""
        # plane -> (positions, blocks, pages, out rows) of its run.  Lists
        # grow by ``+=``: this loop runs per page and makes no call.
        runs: Dict[int, Tuple[list, list, list, list]] = {}
        for i, plane_index in enumerate(planes):
            if plane_index not in runs:
                runs[plane_index] = ([], [], [], [])
            at, run_blocks, run_pages, rows = runs[plane_index]
            at += [i]
            run_blocks += [blocks[i]]
            run_pages += [pages[i]]
            if out is not None:
                rows += [out[i]]
        n = len(planes)
        merged = SenseRun([None] * n, [None] * n, [None] * n, [None] * n)
        for plane_index, (at, run_blocks, run_pages, rows) in runs.items():
            run = self.planes[plane_index].read_pages(
                run_blocks, run_pages, None if out is None else rows
            )
            for merged_field, field in zip(merged, run):
                for i, item in zip(at, field):
                    merged_field[i] = item
        return merged

    def program(
        self,
        address: PhysicalPageAddress,
        data: np.ndarray,
        oob: Optional[np.ndarray] = None,
    ) -> None:
        self.plane(address).program_page(address.block, address.page, data, oob)
