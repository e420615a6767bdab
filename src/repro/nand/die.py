"""Flash dies: independent units that contain planes.

A die senses its planes in parallel and supports Multi-Plane Input
Broadcasting (MPIBC): raising the select signal of all planes so they latch
the broadcast query simultaneously.  Its planes' latches are rows of the
array's :class:`~repro.nand.latches.LatchTable`, so the controller drives a
phase's senses, extractions and broadcasts over every die of a device at
once (:mod:`repro.core.commands`) rather than die by die.  REIS's
pipelining overlaps a plane's next sense with the current page's latch work
and channel transfer (Sec. 4.3.4, Read-Page-Cache-Sequential); that overlap
is a property of the modeled clock (:mod:`repro.core.costing`), not of any
latch state here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nand.latches import LatchTable
from repro.nand.page import PageTable
from repro.nand.plane import Plane
from repro.sim.stats import CounterSet


class Die:
    """One flash die and its planes.

    Plane ``i`` latches in row ``die_id * planes_per_die + i`` of
    ``latches`` and stores its pages in that row of ``pages`` -- its global
    plane index -- or, built alone, in a latch table of the die's own
    (each plane then keeps a page table of its own).
    """

    def __init__(
        self,
        die_id: int,
        planes_per_die: int,
        blocks_per_plane: int,
        pages_per_block: int,
        page_bytes: int,
        oob_bytes: int,
        counters: Optional[CounterSet] = None,
        latches: Optional[LatchTable] = None,
        pages: Optional[PageTable] = None,
    ) -> None:
        self.die_id = die_id
        self.counters = counters if counters is not None else CounterSet()
        first_row = die_id * planes_per_die
        if latches is None:
            latches, first_row = LatchTable(planes_per_die, page_bytes, oob_bytes), 0
        self.planes: List[Plane] = [
            Plane(
                plane_id=die_id * planes_per_die + i,
                blocks_per_plane=blocks_per_plane,
                pages_per_block=pages_per_block,
                page_bytes=page_bytes,
                oob_bytes=oob_bytes,
                counters=self.counters,
                buffer=latches.buffer(first_row + i),
                pages=pages,
                row=first_row + i,
            )
            for i in range(planes_per_die)
        ]

    @property
    def planes_per_die(self) -> int:
        return len(self.planes)
