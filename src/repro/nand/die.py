"""Flash dies: independent units that contain planes.

A die senses its planes in parallel (one :meth:`Plane.read_pages` run per
plane per phase) and supports Multi-Plane Input Broadcasting (MPIBC):
raising the select signal of all planes so they latch the broadcast query
simultaneously.  REIS's pipelining overlaps a plane's next sense with the
current page's latch work and channel transfer (Sec. 4.3.4,
Read-Page-Cache-Sequential); that overlap is a property of the modeled
clock (:mod:`repro.core.costing`), not of any latch state here.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nand.plane import Plane
from repro.sim.stats import CounterSet


class Die:
    """One flash die and its planes."""

    def __init__(
        self,
        die_id: int,
        planes_per_die: int,
        blocks_per_plane: int,
        pages_per_block: int,
        page_bytes: int,
        oob_bytes: int,
        counters: Optional[CounterSet] = None,
    ) -> None:
        self.die_id = die_id
        self.counters = counters if counters is not None else CounterSet()
        self.planes: List[Plane] = [
            Plane(
                plane_id=die_id * planes_per_die + i,
                blocks_per_plane=blocks_per_plane,
                pages_per_block=pages_per_block,
                page_bytes=page_bytes,
                oob_bytes=oob_bytes,
                counters=self.counters,
            )
            for i in range(planes_per_die)
        ]

    @property
    def planes_per_die(self) -> int:
        return len(self.planes)

    def broadcast_queries(self, patterns: np.ndarray, multi_plane: bool) -> int:
        """IBC of several queries back to back (one per row of ``patterns``).

        The cache latch is overwrite-only, so broadcasting queries
        back-to-back leaves only the last pattern latched; earlier patterns
        are never observable.  This method therefore validates and tiles
        only the final row, once for the die, and loads that image into
        every plane's cache latch, while accounting every broadcast and
        transfer: one ``ibc_broadcasts`` per (row, plane).  With MPIBC
        every plane latches the same transfer (one per row), without it
        each plane needs its own (``planes_per_die`` per row); the
        functional effect is identical and the cost difference drives the
        Fig. 9 ablation.  Returns the total page-sized transfers consumed.
        """
        n = len(patterns)
        if n == 0:
            return 0
        image = self.planes[0].broadcast_image(patterns[-1])
        for plane in self.planes:
            plane.buffer.load_cache(image)
        self.counters.add("ibc_broadcasts", n * self.planes_per_die)
        transfers = (1 if multi_plane else self.planes_per_die) * n
        self.counters.add("ibc_page_transfers", transfers)
        return transfers
