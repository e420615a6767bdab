"""Flash chips: packages of dies sharing a channel interface."""

from __future__ import annotations

from typing import List, Optional

from repro.nand.die import Die
from repro.nand.geometry import FlashGeometry
from repro.nand.latches import LatchTable
from repro.nand.page import PageTable
from repro.sim.stats import CounterSet


class FlashChip:
    """One flash package; its dies operate independently."""

    def __init__(
        self,
        chip_id: int,
        geometry: FlashGeometry,
        first_die_id: int,
        counters: Optional[CounterSet] = None,
        latches: Optional[LatchTable] = None,
        pages: Optional[PageTable] = None,
    ) -> None:
        self.chip_id = chip_id
        self.counters = counters if counters is not None else CounterSet()
        self.dies: List[Die] = [
            Die(
                die_id=first_die_id + i,
                planes_per_die=geometry.planes_per_die,
                blocks_per_plane=geometry.blocks_per_plane,
                pages_per_block=geometry.pages_per_block,
                page_bytes=geometry.page_bytes,
                oob_bytes=geometry.oob_bytes,
                counters=self.counters,
                latches=latches,
                pages=pages,
            )
            for i in range(geometry.dies_per_chip)
        ]
