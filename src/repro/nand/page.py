"""Flash pages and blocks (functional storage).

Pages store user data plus an out-of-band (OOB) area.  NAND constraints are
enforced: a page must be erased before it can be programmed, pages within a
block are programmed in order, and erase happens at block granularity.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

import numpy as np

from repro.nand.cell import CellMode


class PageState(Enum):
    ERASED = "erased"
    PROGRAMMED = "programmed"
    INVALID = "invalid"  # superseded by an out-of-place update


_ERASED_VIEWS: dict = {}


def _erased_view(n_bytes: int) -> np.ndarray:
    """Shared read-only all-ones array modeling an erased read."""
    view = _ERASED_VIEWS.get(n_bytes)
    if view is None:
        view = np.full(n_bytes, 0xFF, dtype=np.uint8)
        view.setflags(write=False)
        _ERASED_VIEWS[n_bytes] = view
    return view


class FlashPage:
    """One flash page: ``page_bytes`` of data plus ``oob_bytes`` of OOB."""

    def __init__(self, page_bytes: int, oob_bytes: int) -> None:
        self.page_bytes = page_bytes
        self.oob_bytes = oob_bytes
        self.state = PageState.ERASED
        self._data: Optional[np.ndarray] = None
        self._oob: Optional[np.ndarray] = None

    def program(self, data: np.ndarray, oob: Optional[np.ndarray] = None) -> None:
        """Program data (and optionally OOB) into an erased page."""
        if self.state is not PageState.ERASED:
            raise RuntimeError("program on a non-erased page (erase first)")
        if data.dtype != np.uint8:
            raise TypeError("page data must be uint8")
        if data.size > self.page_bytes:
            raise ValueError(f"data ({data.size}B) exceeds page size ({self.page_bytes}B)")
        padded = np.zeros(self.page_bytes, dtype=np.uint8)
        padded[: data.size] = data
        padded.setflags(write=False)  # raw_view() hands this array out
        self._data = padded
        oob_arr = np.zeros(self.oob_bytes, dtype=np.uint8)
        if oob is not None:
            if oob.size > self.oob_bytes:
                raise ValueError("OOB data exceeds the OOB area")
            oob_arr[: oob.size] = oob.astype(np.uint8)
        oob_arr.setflags(write=False)
        self._oob = oob_arr
        self.state = PageState.PROGRAMMED

    def raw(self) -> Tuple[np.ndarray, np.ndarray]:
        """Golden (error-free) copies of the stored data and OOB."""
        if self.state is PageState.ERASED or self._data is None or self._oob is None:
            # Erased cells read as all-ones.
            return (
                np.full(self.page_bytes, 0xFF, dtype=np.uint8),
                np.full(self.oob_bytes, 0xFF, dtype=np.uint8),
            )
        return self._data.copy(), self._oob.copy()

    def raw_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Golden contents without defensive copies.

        The returned arrays are read-only; the read path copies before
        injecting errors or loading latches, so handing out the stored
        arrays directly keeps page senses allocation-free.
        """
        if self.state is PageState.ERASED or self._data is None or self._oob is None:
            return _erased_view(self.page_bytes), _erased_view(self.oob_bytes)
        return self._data, self._oob

    def invalidate(self) -> None:
        """Mark the page's contents stale (FTL out-of-place update)."""
        if self.state is PageState.PROGRAMMED:
            self.state = PageState.INVALID

    def erase(self) -> None:
        self._data = None
        self._oob = None
        self.state = PageState.ERASED


class FlashBlock:
    """A block of pages sharing a cell mode, erased as a unit."""

    def __init__(self, pages_per_block: int, page_bytes: int, oob_bytes: int) -> None:
        self.pages = [FlashPage(page_bytes, oob_bytes) for _ in range(pages_per_block)]
        self.mode = CellMode.TLC
        self.pe_cycles = 0
        self._next_program_page = 0

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def next_program_page(self) -> int:
        return self._next_program_page

    @property
    def is_full(self) -> bool:
        return self._next_program_page >= len(self.pages)

    def valid_page_count(self) -> int:
        return sum(1 for p in self.pages if p.state is PageState.PROGRAMMED)

    def invalid_page_count(self) -> int:
        return sum(1 for p in self.pages if p.state is PageState.INVALID)

    def set_mode(self, mode: CellMode) -> None:
        """Switch the block's cell mode (hybrid SSD soft partitioning).

        Only allowed while the block is erased, as on real drives.
        """
        if self._next_program_page != 0:
            raise RuntimeError("cell mode can only change on an erased block")
        self.mode = mode

    def program_page(
        self, page_index: int, data: np.ndarray, oob: Optional[np.ndarray] = None
    ) -> None:
        """Program ``page_index``; NAND requires in-order programming."""
        if page_index != self._next_program_page:
            raise RuntimeError(
                f"out-of-order program: expected page {self._next_program_page}, "
                f"got {page_index}"
            )
        self.pages[page_index].program(data, oob)
        self._next_program_page += 1

    def erase(self) -> None:
        for page in self.pages:
            page.erase()
        self.pe_cycles += 1
        self._next_program_page = 0
