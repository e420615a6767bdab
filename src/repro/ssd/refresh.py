"""Data refresh (retention management).

Flash cells leak charge; data older than the retention budget must be
read, corrected and re-programmed ("refreshed") before raw errors exceed
ECC capability.  REIS's coarse-grained access drops the page-level FTL
for deployed databases but *retains* its metadata on flash precisely so
these rare maintenance operations still work (Sec. 4.1.4): refresh loads
the metadata, relocates the region, updates the R-DB entry, and flushes
the metadata again.  For ESP-SLC data the budget is long (ESP holds zero
BER out to one year of retention, Sec. 7.2), so refresh is ~annual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.nand.array import FlashArray
from repro.nand.cell import MODES, CellMode
from repro.nand.page import PROGRAMMED

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class RetentionPolicy:
    """Refresh deadlines per cell mode, in days since programming."""

    slc_esp_days: float = 365.0  # ESP: zero BER out to a year
    slc_days: float = 270.0
    tlc_days: float = 90.0
    qlc_days: float = 30.0

    def budget_days(self, mode: CellMode) -> float:
        return {
            CellMode.SLC_ESP: self.slc_esp_days,
            CellMode.SLC: self.slc_days,
            CellMode.MLC: self.tlc_days,
            CellMode.TLC: self.tlc_days,
            CellMode.QLC: self.qlc_days,
        }[mode]


@dataclass
class RefreshResult:
    """Outcome of one refresh pass."""

    blocks_scanned: int = 0
    blocks_refreshed: int = 0
    pages_rewritten: int = 0


class RefreshManager:
    """Tracks block ages and rewrites blocks past their retention budget.

    Ages advance via :meth:`advance_days` (the simulator has no wall
    clock); programming resets a block's age.
    """

    def __init__(self, array: FlashArray, policy: RetentionPolicy | None = None) -> None:
        self._array = array
        self.policy = policy or RetentionPolicy()
        # (plane_index, block_index) -> days since last program.
        self._age_days: Dict[Tuple[int, int], float] = {}

    def note_programmed(self, plane_index: int, block_index: int) -> None:
        self._age_days[(plane_index, block_index)] = 0.0

    def advance_days(self, days: float) -> None:
        if days < 0:
            raise ValueError("time does not run backwards")
        for key in self._age_days:
            self._age_days[key] += days

    def age_of(self, plane_index: int, block_index: int) -> float:
        return self._age_days.get((plane_index, block_index), 0.0)

    def due_blocks(self) -> List[Tuple[int, int]]:
        """(plane, block) pairs whose age exceeds their mode's budget."""
        table = self._array.pages
        holds_data = (table.state == PROGRAMMED).any(axis=2)
        due = []
        for (plane_index, block_index), age in sorted(self._age_days.items()):
            if not holds_data[plane_index, block_index]:
                continue
            mode = MODES[table.mode[plane_index, block_index]]
            if age > self.policy.budget_days(mode):
                due.append((plane_index, block_index))
        return due

    def refresh(self, max_blocks: int | None = None) -> RefreshResult:
        """Rewrite due blocks in place (read golden -> erase -> reprogram).

        In-place refresh models the maintenance path for REIS's reserved
        coarse regions, where data must stay at its physical address so
        the R-DB entries remain valid.
        """
        result = RefreshResult()
        due = self.due_blocks()
        if max_blocks is not None:
            due = due[:max_blocks]
        result.blocks_scanned = len(self._age_days)
        for plane_index, block_index in due:
            plane = self._array.plane_by_index(plane_index)
            programmed = self._array.pages.state[plane_index, block_index] == PROGRAMMED
            contents = [
                plane.golden_page(block_index, page_index)
                for page_index in programmed.nonzero()[0].tolist()
            ]
            plane.erase_block(block_index)  # the block keeps its cell mode
            for cursor, (data, oob) in enumerate(contents):
                # In-order reprogramming: valid pages compact to the front.
                plane.program_page(block_index, cursor, data, oob)
                result.pages_rewritten += 1
            self._age_days[(plane_index, block_index)] = 0.0
            result.blocks_refreshed += 1
        return result
