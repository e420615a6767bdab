"""Page buffer latches and plane peripheral logic.

Each plane's page buffer contains a sensing latch (SL), data latch (DL) and
cache latch (CL) (Sec. 2.3).  The peripheral circuitry provides XOR between
latches (used on real chips for data randomization), an on-chip fail-bit
counter and a pass/fail checker (used to guide ISPP programming).  REIS
computes Hamming distances with exactly these circuits; the step list lives
with the scan kernel that drives them,
:meth:`repro.core.engine.InStorageAnnsEngine.scan_page_run`.  The latches of
every plane of an array are one :class:`LatchTable`.

No multiply-accumulate hardware exists anywhere in this module -- that is the
paper's "no hardware modification" constraint, enforced by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.unique import sorted_unique


# Bytes of XOR temporary one block of a stacked extraction may hold: the
# pass walks its rows in blocks of this size so the intermediate stays
# cache-resident however many extractions a phase stacks.
XOR_BLOCK_BYTES = 1 << 20


def xor_popcount_segments(
    pages: np.ndarray,
    patterns: np.ndarray,
    segment_bytes: int,
    n_segments: int,
    page_of: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hamming distance of each ``segment_bytes`` slice of a page to a
    pattern, for a stack of (page, pattern) extractions: a
    ``(len(patterns), n_segments)`` matrix in the smallest unsigned dtype
    that holds ``8 * segment_bytes``.

    ``pages`` is one page (every pattern is extracted from it) or a 2-D
    table of pages with ``page_of[i]`` naming the row pattern ``i`` is
    extracted from.  The XOR + popcount runs on 64-bit words when the
    segment width allows it (a popcount is indifferent to how the bits are
    grouped) and in row blocks of :data:`XOR_BLOCK_BYTES`.  This is the
    arithmetic of the latch circuits with no counter attached: the
    fail-bit counter applies it to the pages a plane latched, the
    controller to the DRAM mirror of some.
    """
    width = segment_bytes * n_segments
    pages = (pages if pages.ndim == 2 else pages.reshape(1, -1))[:, :width]
    patterns = np.ascontiguousarray(patterns, dtype=np.uint8)
    if segment_bytes % 8 == 0:
        pages, patterns = pages.view(np.uint64), patterns.view(np.uint64)
    pages = pages.reshape(pages.shape[0], n_segments, -1)
    patterns = patterns[:, None, :]
    n_patterns = patterns.shape[0]
    out = np.empty(
        (n_patterns, n_segments), dtype=np.min_scalar_type(8 * segment_bytes)
    )
    step = max(1, XOR_BLOCK_BYTES // width)
    for lo in range(0, n_patterns, step):
        block = slice(lo, lo + step)
        if page_of is None:
            diff = np.bitwise_xor(pages, patterns[block])
        else:
            diff = pages[page_of[block]]  # the gather is the temporary
            np.bitwise_xor(diff, patterns[block], out=diff)
        np.add.reduce(np.bitwise_count(diff), axis=2, dtype=out.dtype, out=out[block])
    return out


class LatchTable:
    """The peripheral state of every plane of an array, one table per kind.

    ``sensing`` and ``cache`` hold a page-wide row per plane, ``oob`` an
    OOB-wide one, and ``invocations`` each plane's fail-bit-counter count
    (one column).  A plane's :class:`PageBuffer` and
    :class:`FailBitCounter` are views of its row, so a phase kernel
    advances a whole device with a few array operations while per-plane
    readers keep their API.
    """

    def __init__(self, n_planes: int, page_bytes: int, oob_bytes: int) -> None:
        self.page_bytes = page_bytes
        self.oob_bytes = oob_bytes
        self.sensing = np.zeros((n_planes, page_bytes), dtype=np.uint8)
        self.cache = np.zeros((n_planes, page_bytes), dtype=np.uint8)
        self.oob = np.zeros((n_planes, oob_bytes), dtype=np.uint8)
        self.invocations = np.zeros(n_planes, dtype=np.int64)

    def buffer(self, row: int) -> "PageBuffer":
        """Plane ``row``'s page buffer: views of its latch rows."""
        return PageBuffer(self, row)

    def latch_senses(
        self,
        planes: np.ndarray,
        data: np.ndarray,
        oob: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Senses by ``planes[i]``, in order, of page-wide row ``rows[i]``
        (``i`` when omitted) of the ``data`` stack and OOB-wide row of
        ``oob``: each plane named keeps its last page in its sensing and OOB
        latches."""
        targets, last, _ = sorted_unique(planes[::-1])
        last = planes.size - 1 - last
        if rows is not None:
            last = rows[last]
        self.sensing[targets] = data[last]
        self.oob[targets] = oob[last]

    def broadcast(self, pattern: np.ndarray) -> None:
        """An IBC of ``pattern``: every plane's cache latch holds as many
        whole copies as fit in a page, zero-padded (:class:`ValueError`
        unless one does)."""
        if pattern.size == 0 or pattern.size > self.page_bytes:
            raise ValueError("broadcast pattern must fit within a page")
        image = np.empty((self.page_bytes // pattern.size, pattern.size), dtype=np.uint8)
        image[:] = pattern  # whole copies, row by row
        self.cache[:, : image.size] = image.reshape(-1)
        self.cache[:, image.size :] = 0


class PageBuffer:
    """The latches of one plane, one page wide: row ``row`` of a
    :class:`LatchTable`.

    DL, the XOR destination, is not held: its contents are the XOR
    temporary of :func:`xor_popcount_segments`, consumed by the fail-bit
    count in the same pass.
    """

    def __init__(self, table: LatchTable, row: int) -> None:
        self.table = table
        self.row = row
        self.page_bytes = table.page_bytes
        self.sensing = table.sensing[row]
        self.cache = table.cache[row]
        self.oob = table.oob[row]


class FailBitCounter:
    """On-chip digital bit counter (counts ones in a latch).

    Real counters report the number of "failing" cells after a program-verify
    step.  REIS segments the count at mini-page (embedding) granularity; the
    counter walks the data latch once and emits one count per segment (the
    arithmetic is :func:`xor_popcount_segments`, which the scan kernel runs
    over a whole phase's extractions at once).  Its invocation count is its
    plane's entry of the :class:`LatchTable` column.
    """

    def __init__(self, buffer: PageBuffer) -> None:
        self._buffer = buffer

    @property
    def invocations(self) -> int:
        return int(self._buffer.table.invocations[self._buffer.row])
