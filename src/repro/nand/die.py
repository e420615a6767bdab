"""Flash dies: independent units that contain planes.

Dies support multi-plane operations (all planes read in parallel), the
Read-Page-Cache-Sequential mode used by REIS's pipelining (Sec. 4.3.4), and
Multi-Plane Input Broadcasting (MPIBC): raising the select signal of all
planes so they latch the broadcast query simultaneously.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nand.errors import BitErrorModel
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
                error_model=BitErrorModel(seed=(die_id, i)),
                counters=self.counters,
            )
            for i in range(planes_per_die)
        ]

    @property
    def planes_per_die(self) -> int:
        return len(self.planes)

    def multi_plane_read(
        self, addresses: Sequence[Tuple[int, int, int]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Read one page per plane in parallel.

        ``addresses`` holds (plane, block, page) triples; the physical
        constraint that at most one read per plane is in flight is enforced.
        """
        seen = set()
        results = []
        for plane, block, page in addresses:
            if plane in seen:
                raise ValueError(f"two concurrent reads on plane {plane}")
            seen.add(plane)
            results.append(self.planes[plane].read_page(block, page))
        self.counters.add("multi_plane_reads")
        return results

    def broadcast_query(self, pattern: np.ndarray, multi_plane: bool) -> int:
        """IBC of the query into cache latches.

        Returns the number of page-sized transfers the die I/O consumed:
        with MPIBC every plane latches the same transfer (1), without it each
        plane needs its own transfer (``planes_per_die``).  The functional
        effect is identical; the cost difference drives the Fig. 9 ablation.
        """
        return self.broadcast_queries(pattern[None], multi_plane)

    def broadcast_queries(self, patterns: np.ndarray, multi_plane: bool) -> int:
        """IBC of several queries back to back (one per row of ``patterns``).

        The cache latch is overwrite-only, so broadcasting queries
        back-to-back leaves only the last pattern latched; earlier patterns
        are never observable.  This method therefore validates and tiles
        only the final row, once for the die, and loads that image into
        every plane's cache latch, while accounting every broadcast and
        transfer: latch state and counters are those of
        :meth:`~repro.nand.plane.Plane.broadcast_to_cache` once per (row,
        plane).  Returns the total page-sized transfers consumed.
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

    def cache_read_begin(self, plane: int) -> None:
        """Read-Page-Cache-Sequential: move DL->CL so the next sense can start.

        REIS keeps the query in CL instead, so its pipelining variant copies
        the *sensing* latch to the data latch readout path; we model the mode
        switch as a latch copy plus a counter tick.
        """
        self.planes[plane].buffer.copy("data", "cache")
        self.counters.add("cache_mode_reads")
