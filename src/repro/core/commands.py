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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

import numpy as np

from repro.nand.die import Die


class FlashOp(Enum):
    READ_PAGE = "read_page"
    IBC = "ibc"
    XOR = "xor"
    GEN_DIST = "gen_dist"
    PASS_FAIL = "pass_fail"
    RD_TTL = "rd_ttl"


@dataclass
class CommandTrace:
    """Issued-command log (used by tests and the energy model)."""

    counts: Dict[FlashOp, int]

    def record(self, op: FlashOp) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1

    def record_many(self, op: FlashOp, n: int) -> None:
        if n > 0:
            self.counts[op] = self.counts.get(op, 0) + n

    def __getitem__(self, op: FlashOp) -> int:
        return self.counts.get(op, 0)


class DieCommandInterface:
    """The FSM in one die's control logic, driving its peripheral circuits."""

    def __init__(self, die: Die) -> None:
        self.die = die
        self.trace = CommandTrace(counts={})

    # Each method implements one Table-2 command.

    def ibc_many(self, query_codes: np.ndarray, multi_plane: bool) -> int:
        """IBC Q_EMB, once per row of a back-to-back batch of queries:
        broadcast the query into every plane's cache latch.

        The command trace and counters carry one IBC per row; the latch
        end state is the last row's broadcast.
        """
        self.trace.record_many(FlashOp.IBC, len(query_codes))
        return self.die.broadcast_queries(query_codes, multi_plane)

    def read_page(self, plane: int, block: int, page: int) -> Tuple[np.ndarray, np.ndarray]:
        self.trace.record(FlashOp.READ_PAGE)
        return self.die.planes[plane].read_page(block, page)

    def gen_dist_multi(
        self,
        plane: int,
        query_codes: np.ndarray,
        code_bytes: int,
        n_segments: int,
    ) -> np.ndarray:
        """GEN_DIST for several queries against the one latched page.

        The page is sensed once; for each query the cache latch is reloaded
        and the XOR + fail-bit-count pair runs again ("one sense, N distance
        extractions"), so the command stream carries one XOR and one
        GEN_DIST per query exactly as if each query had visited the page
        itself.  Returns a ``(n_queries, n_segments)`` distance matrix.
        """
        n_queries = len(query_codes)
        self.trace.record_many(FlashOp.XOR, n_queries)
        self.trace.record_many(FlashOp.GEN_DIST, n_queries)
        return self.die.multi_query_distances(
            plane, query_codes, code_bytes, n_segments
        )

    def record_extraction(self, plane: int, n_sweeps: int, n_moved: int) -> None:
        """PASS_FAIL sweeps and RD_TTL moves of one plane, for a whole phase.

        The scan kernel evaluates the comparator masks (distance threshold,
        Sec. 7.1 metadata tag) and counts the surviving entries for a whole
        phase at once; the command stream still carries one PASS_FAIL per
        comparator sweep and one RD_TTL per entry that crossed the channel.
        Entries a comparator dropped never get an RD_TTL.
        """
        self.trace.record_many(FlashOp.PASS_FAIL, n_sweeps)
        self.trace.record_many(FlashOp.RD_TTL, n_moved)
        if n_sweeps:
            self.die.planes[plane].note_pass_fail_sweeps(n_sweeps)
