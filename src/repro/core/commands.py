"""NAND flash command-set extensions (Table 2, Sec. 4.4.2).

The SSD controller translates REIS API calls into these flash commands and
issues them to the dies.  Each die's control logic is a finite-state machine
that drives the peripheral circuits:

========  =============  ====================================================
Command   Operands       Effect
========  =============  ====================================================
IBC       Q_EMB          Copy the query into each page buffer (broadcast)
XOR       ADR_P          XOR the cache and sensing latches of a plane
GEN_DIST  EADR           Fail-bit-count distance for embeddings in the latch
RD_TTL    EADR           Move a TTL entry (DIST/EMB/links) to the SSD DRAM
========  =============  ====================================================

``READ_PAGE`` (the standard sense command) and ``PASS_FAIL`` (the standard
program-verify comparator, reused for distance filtering) complete the set
the engine needs.

The engine drives every die of a device at once, a phase at a time: the
latches live in the array's :class:`~repro.nand.latches.LatchTable` and the
issued commands in one (die, :class:`FlashOp`) count table, which advances
by counts -- it holds the command stream a per-page walk would have issued.

A die senses its planes in parallel and supports Multi-Plane Input
Broadcasting (MPIBC): raising the select signal of all its planes so they
latch one broadcast query at once (:meth:`DeviceCommandInterface.broadcast`
bills one transfer per die instead of one per plane).  REIS's pipelining
overlaps a plane's next sense with the current page's latch work and
channel transfer (Sec. 4.3.4, Read-Page-Cache-Sequential); that overlap is
a property of the modeled clock (:mod:`repro.core.costing`), not of any
latch state here.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

import numpy as np

from repro.nand.array import FlashArray


class FlashOp(Enum):
    READ_PAGE = "read_page"
    IBC = "ibc"
    XOR = "xor"
    GEN_DIST = "gen_dist"
    PASS_FAIL = "pass_fail"
    RD_TTL = "rd_ttl"


# Column of each op in a command count table.
OP_COLUMN: Dict[FlashOp, int] = {op: column for column, op in enumerate(FlashOp)}
_IBC = OP_COLUMN[FlashOp.IBC]


class CommandTrace:
    """One die's issued-command log (used by tests and the energy model):
    a view of its row of the device's command count table."""

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    @property
    def counts(self) -> Dict[FlashOp, int]:
        """The ops issued at least once, with their counts."""
        return {op: n for op, n in zip(FlashOp, self.row.tolist()) if n}

    def __getitem__(self, op: FlashOp) -> int:
        return int(self.row[OP_COLUMN[op]])


class DeviceCommandInterface:
    """The FSMs of every die of one device, as one command count table.

    ``counts`` has a row per global die and a column per :class:`FlashOp`
    (:data:`OP_COLUMN`); a phase adds its (die, op) counts onto it.
    ``dies`` maps each die index to its :class:`CommandTrace`, a view of
    its row.
    """

    def __init__(self, array: FlashArray) -> None:
        self.array = array
        self.planes_per_die = array.geometry.planes_per_die
        self.counts = np.zeros((array.geometry.total_dies, len(OP_COLUMN)), dtype=np.int64)
        self.dies: Dict[int, CommandTrace] = dict(
            enumerate(map(CommandTrace, self.counts))
        )

    def broadcast(self, query_codes: np.ndarray, multi_plane: bool) -> int:
        """IBC Q_EMB into every die, once per row of a back-to-back batch of
        queries.

        The cache latch is overwrite-only, so broadcasting queries back to
        back leaves only the last row latched; earlier rows are never
        observable.  The last row is therefore validated and tiled once for
        the device and loaded into every plane's cache latch, while every
        broadcast is accounted: one IBC per (row, die) and one
        ``ibc_broadcasts`` per (row, plane).  With MPIBC every plane of a
        die latches the same transfer (one per row), without it each plane
        needs its own (``planes_per_die`` per row); the functional effect
        is identical and the cost difference drives the Fig. 9 ablation.
        Returns the total page-sized transfers consumed.
        """
        n, n_dies = len(query_codes), len(self.counts)
        if n == 0:
            return 0
        self.array.latches.broadcast(query_codes[-1])
        self.counts[:, _IBC] += n
        transfers = (1 if multi_plane else self.planes_per_die) * n * n_dies
        self.array.counters.add_all({"ibc_broadcasts": n * n_dies * self.planes_per_die,
                                     "ibc_page_transfers": transfers})
        return transfers
