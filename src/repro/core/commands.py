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

The engine drives a die once per *plane* per scan phase -- a sense run, a
stack of extractions, the comparator sweeps and channel moves -- and the
trace advances by counts: it holds the command stream a per-page walk
would have issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

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

    def sense_run(self, plane: int, blocks: List[int], pages: List[int]) -> None:
        """READ_PAGE for each page of one plane's senses of a phase, in
        service order (:meth:`~repro.nand.plane.Plane.read_pages`)."""
        self.trace.record_many(FlashOp.READ_PAGE, len(pages))
        self.die.planes[plane].read_pages(blocks, pages)

    def gen_dist_run(
        self,
        plane: int,
        query_codes: np.ndarray,
        code_bytes: int,
        n_segments: int,
        pages: np.ndarray,
        page_of: np.ndarray,
    ) -> np.ndarray:
        """XOR + GEN_DIST for every extraction one plane owes in a phase.

        A page is sensed once; for each query that wants it the cache latch
        is reloaded and the XOR + fail-bit-count pair runs again ("one
        sense, N distance extractions"): one XOR and one GEN_DIST per
        (page, query) extraction.  Extraction ``i`` pairs ``query_codes[i]``
        with row ``page_of[i]`` of ``pages``, the bytes of the pages the
        plane latched.  Returns a ``(len(query_codes), n_segments)`` matrix.
        """
        n_extractions = len(query_codes)
        self.trace.record_many(FlashOp.XOR, n_extractions)
        self.trace.record_many(FlashOp.GEN_DIST, n_extractions)
        return self.die.planes[plane].multi_query_distances(
            query_codes, code_bytes, n_segments, pages, page_of
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
