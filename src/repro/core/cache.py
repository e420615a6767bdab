"""DRAM-budgeted hot-data cache tier: a cache hit skips the NAND sense.

* The mirror stores the **golden** ``(data, oob)`` bytes of a page (ESP
  senses are error-free, TLC senses are ECC-corrected to golden before
  use), so serving from it is bit-identical to re-sensing.
* Capacity is a named :class:`~repro.ssd.dram.InternalDram` region: the
  cache competes with R-DB/R-IVF/TTLs under the 0.1% provisioning rule.
* A table (one row per resident page, bookkeeping in columns) driven a
  phase at a time; eviction sorts key columns (:class:`LruPolicy`,
  :class:`CostAwarePolicy`).

Kinds: centroid array pages, embedding and INT8 ``"cluster"`` pages and
``"document"`` pages.  Invalidation rides the authority barriers: ingest
invalidates the pages it programs, compaction clears the cache, ``drop``
(and so ``migrate_cluster``) invalidates the database's regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.layout import CapacityError, RegionInfo
from repro.nand.page import take_rows
from repro.ssd.dram import InternalDram

__all__ = [
    "CacheStats",
    "CachedPage",
    "CostAwarePolicy",
    "EvictionPolicy",
    "LruPolicy",
    "PageCache",
    "DEFAULT_CACHE_KINDS",
]

# The three cacheable object classes.
DEFAULT_CACHE_KINDS = ("centroid", "cluster", "document")

# The row columns of the table: region id (-1: a free row), page offset,
# kind code, uses, tick, bytes (data + OOB).
_REGION, _PAGE, _KIND, _USES, _TICK, _NBYTES = range(6)


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PageCache`."""

    hits: int = 0
    misses: int = 0
    admitted: int = 0
    evicted: int = 0
    invalidated: int = 0
    hit_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CachedPage(NamedTuple):
    """A resident page's row, as :meth:`PageCache.peek` reads it."""

    kind: str
    uses: int
    nbytes: int
    row: int


class EvictionPolicy:
    """Orders resident pages for eviction: the smallest key goes first.

    :meth:`keys` maps page columns to sort key columns, most significant
    first, the last being the tick: unique among residents (every
    admission and every hit takes a fresh one), so the order is total.
    ``kind_weights`` holds the policy's ``kind_weights`` mapping (if it
    has one; 1.0 for a kind it does not name), read at every eviction.
    """

    name: str = "policy"

    def keys(self, uses, nbytes, kind_weights, ticks) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Evict the least recently used page."""

    name = "lru"

    def keys(self, uses, nbytes, kind_weights, ticks):
        return (ticks,)


class CostAwarePolicy(EvictionPolicy):
    """Evict the page with the least sense energy saved per DRAM byte.

    Each residency re-use saves one page sense, so a page's value is
    ``uses * sense_energy / nbytes``; TLC pages additionally save their
    per-page ECC decode, expressed as a kind weight.  Ties break LRU.
    """

    name = "cost_aware"

    # TLC-backed kinds carry the ECC decode on top of the sense.
    DEFAULT_KIND_WEIGHTS = {"centroid": 1.0, "cluster": 1.0, "document": 1.5}

    def __init__(
        self,
        sense_energy_j: float = 6.0e-6,
        kind_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        self.sense_energy_j = sense_energy_j
        self.kind_weights = dict(
            kind_weights if kind_weights is not None else self.DEFAULT_KIND_WEIGHTS
        )

    def keys(self, uses, nbytes, kind_weights, ticks):
        score = uses * kind_weights * self.sense_energy_j / np.maximum(nbytes, 1)
        return (score, ticks)


def _grown(array: np.ndarray, shape: Tuple[int, ...], fill: int = -1) -> np.ndarray:
    """``array`` in the corner of a larger array filled with ``fill``."""
    out = np.full(shape, fill, dtype=array.dtype)
    out[tuple(map(slice, array.shape))] = array
    return out


class PageCache:
    """A DRAM-budgeted mirror of hot NAND pages.

    The budget is reserved as a named :class:`InternalDram` region at
    construction (over budget: :class:`CapacityError`) and released by
    :meth:`close`.  Admissions copy into the mirror, so no caller aliases
    it; :meth:`gather` reads mirror rows back.
    """

    def __init__(
        self,
        dram: InternalDram,
        budget_bytes: int,
        policy: Optional[EvictionPolicy] = None,
        name: str = "page_cache",
        kinds: Iterable[str] = DEFAULT_CACHE_KINDS,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.name = name
        self.budget_bytes = int(budget_bytes)
        self.policy = policy if policy is not None else LruPolicy()
        self.kinds = frozenset(kinds)
        self._kind_names = sorted(self.kinds)  # kind codes index it
        self.stats = CacheStats()
        self._tick = 0
        self._reset()
        try:
            dram.allocate(name, self.budget_bytes)
        except MemoryError as exc:
            raise CapacityError(
                f"DRAM cache budget of {budget_bytes}B does not fit: {exc}"
            ) from exc
        self._dram = dram

    def _region_arrays(self, region: RegionInfo, pages) -> Tuple[int, np.ndarray, np.ndarray]:
        """``region``'s id (keyed by its CoarseRegion's bounds, a tuple of
        ints hashed in C) and its arrays by page offset, grown to cover
        ``pages``: each page's row (-1: absent) and ghost frequency
        (touches while absent: misses, uses of evicted rows; restored on
        admission)."""
        key = (region.region.start_page_in_plane, region.region.end_page_in_plane)
        region_id = self._region_ids.get(key)
        if region_id is None:
            region_id = self._region_ids[key] = len(self._slots)
            self._slots += [np.full(0, -1, dtype=np.int64)]
            self._ghosts += [np.zeros(0, dtype=np.int64)]
        slots, ghost = self._slots[region_id], self._ghosts[region_id]
        top = int(np.maximum.reduce(pages)) + 1 if pages.size else 0
        if top > slots.size:
            top = max(top, 2 * slots.size)
            slots = self._slots[region_id] = _grown(slots, (top,))
            ghost = self._ghosts[region_id] = _grown(ghost, (top,), 0)
        return region_id, slots, ghost

    def __len__(self) -> int:
        return int(np.count_nonzero(self._cols[_REGION] >= 0))

    def peek(self, region: RegionInfo, page_offset: int) -> Optional[CachedPage]:
        """Residency probe that records no statistics (inspection only)."""
        row = int(self._region_arrays(region, np.array([page_offset]))[1][page_offset])
        if row < 0:
            return None
        kind, uses, nbytes = self._cols[[_KIND, _USES, _NBYTES], row].tolist()
        return CachedPage(self._kind_names[kind], uses, nbytes, row)

    def gather(
        self, rows: np.ndarray, at: np.ndarray, data: np.ndarray,
        oob: Optional[np.ndarray] = None,
    ) -> None:
        """Copy the mirrored bytes of ``rows`` into rows ``at`` (an index
        array or a slice) of ``data`` (and the OOB bytes into ``oob``), each
        cut to the destination's width: one copy per table
        (:func:`~repro.nand.page.take_rows`)."""
        if oob is None:
            take_rows(rows, at, (self._data, data))
        else:
            take_rows(rows, at, (self._data, data), (self._oob, oob))

    def lookup_pages(self, region: RegionInfo, pages) -> Tuple[np.ndarray, np.ndarray]:
        """Look up distinct pages of one region: each one's mirror row and
        bytes (-1 and 0 on a miss).  Hits count a use and take consecutive
        ticks in the order given; a miss is banked in the ghost."""
        _, slots, ghost = self._region_arrays(region, pages)
        rows = slots[pages]
        hit_rows = rows[rows >= 0]
        nbytes = np.where(rows >= 0, self._cols[_NBYTES, rows], 0)
        self._cols[_TICK, hit_rows] = self._tick + 1 + np.arange(hit_rows.size)
        self._cols[_USES, hit_rows] += 1
        self._tick += hit_rows.size
        ghost[pages[rows < 0]] += 1
        self.stats.hits += hit_rows.size
        self.stats.misses += pages.size - hit_rows.size
        self.stats.hit_bytes += int(np.add.reduce(nbytes))
        return rows, nbytes

    def admit_pages(self, region: RegionInfo, pages, kind: str, data, oob) -> bool:
        """Mirror freshly-sensed distinct pages, one ``data`` / ``oob`` row
        each, exactly as admitting them one at a time in the order given:
        each replaces its own row, evicts the smallest keys (this call's
        pages included) until it fits, and takes the next tick.  ``False``
        (nothing done): the kind is not enabled or a page exceeds the budget."""
        pages = np.asarray(pages, dtype=np.int64)
        data, oob = np.asarray(data, dtype=np.uint8), np.asarray(oob, dtype=np.uint8)
        size = data.shape[-1] + oob.shape[-1]
        if kind not in self.kinds or size > self.budget_bytes:
            return False
        region_id, slots, ghost = self._region_arrays(region, pages)
        old = slots[pages]
        n = pages.size
        new = np.empty((6, n), dtype=np.int64)  # the pages' columns
        new.T[:] = region_id, 0, self._kind_names.index(kind), 0, 0, size
        new[_PAGE], new[_TICK] = pages, self._tick + 1 + np.arange(n)
        new[_USES] = np.where(old >= 0, self._cols[_USES, old], ghost[pages])
        evicted, evicted_new, freed = self._walk_budget(old, new, size)
        # Evicted rows bank their uses in their region's ghost; admitted
        # pages pop theirs, and bank again if this call evicted them.
        banked = self._cols[[_REGION, _PAGE, _USES]][:, evicted].T.tolist()
        for row_region, page, uses in banked:
            self._ghosts[row_region][page] += uses
            self._slots[row_region][page] = -1
        self._cols[_REGION, freed] = -1
        ghost[pages] = 0
        ghost[pages[evicted_new]] = new[_USES, evicted_new]
        slots[pages[evicted_new]] = -1
        kept = ~np.zeros(n, dtype=bool)
        kept[evicted_new] = False
        free = (self._cols[_REGION] < 0).nonzero()[0]
        (n_rows, data_width), oob_width = self._data.shape, self._oob.shape[1]
        if free.size < n or data.shape[-1] > data_width or oob.shape[-1] > oob_width:
            n_rows += max(n, n_rows)  # rows double, byte columns widen
            self._cols = _grown(self._cols, (6, n_rows))
            self._data = _grown(self._data, (n_rows, max(data.shape[-1], data_width)), 0)
            self._oob = _grown(self._oob, (n_rows, max(oob.shape[-1], oob_width)), 0)
            free = (self._cols[_REGION] < 0).nonzero()[0]
        rows = free[: n - len(evicted_new)]
        self._cols[:, rows] = new[:, kept]
        self._data[rows, : data.shape[-1]] = data[kept]
        self._oob[rows, : oob.shape[-1]] = oob[kept]
        slots[pages[kept]] = rows
        self._tick += n
        self.stats.admitted += n
        self.stats.evicted += len(evicted) + len(evicted_new)
        return True

    def _walk_budget(self, old, new, size: int) -> Tuple[List[int], ...]:
        """Admit the pages of columns ``new`` (``size`` bytes each; page
        ``j`` resident in row ``old[j]`` or -1) one at a time on the
        bookkeeping alone: sets ``used_bytes``; returns the rows evicted,
        the pages evicted after their own admission and every row freed.
        Keys are fixed for the call, so one sort of residents (by row) and
        pages (``n_rows + j``) orders every victim: an eviction takes the
        first candidate still resident, skipping pages not admitted yet."""
        cols, n_rows = self._cols, self._cols.shape[1]
        used, old_nbytes = self.used_bytes, cols[_NBYTES, old].tolist()
        evicted, evicted_new, freed, order, gone = [], [], [], [], {}  # gone: ids out
        for j, row in enumerate(old.tolist()):
            if row >= 0 and row not in gone:
                gone[row] = True
                freed += [row]
                used -= old_nbytes[j]
            while used + size > self.budget_bytes:
                if not order:
                    live = (cols[_REGION] >= 0).nonzero()[0]
                    cand = np.concatenate((cols[:, live], new), axis=1)
                    weights = getattr(self.policy, "kind_weights", {})
                    weight = np.array([weights.get(k, 1.0) for k in self._kind_names])
                    keys = self.policy.keys(
                        cand[_USES], cand[_NBYTES], weight[cand[_KIND]], cand[_TICK]
                    )
                    ids = np.concatenate((live, n_rows + np.arange(new.shape[1])))
                    order = ids[np.lexsort(keys[::-1])].tolist()
                    row_nbytes = cols[_NBYTES].tolist()
                at = 0
                while order[at] in gone or order[at] - n_rows >= j:
                    at += 1
                victim = order[at]
                del order[at]
                gone[victim] = True
                if victim < n_rows:
                    evicted += [victim]
                    freed += [victim]
                    used -= row_nbytes[victim]
                else:
                    evicted_new += [victim - n_rows]
                    used -= size
            used += size
        self.used_bytes = used
        return evicted, evicted_new, freed

    def invalidate_pages(self, region: RegionInfo, pages) -> int:
        """Drop distinct pages' rows and ghost history (streaming-ingest
        program barrier); returns how many were resident."""
        _, slots, ghost = self._region_arrays(region, pages)
        ghost[pages] = 0  # rewritten pages, stale history
        rows = slots[pages]
        rows = rows[rows >= 0]
        slots[pages] = -1
        self._cols[_REGION, rows] = -1
        self.used_bytes -= int(self._cols[_NBYTES, rows].sum())
        self.stats.invalidated += rows.size
        return rows.size

    def invalidate_region(self, region: RegionInfo) -> int:
        """Drop every row of one region (drop/migrate authority barrier)."""
        _, slots, _ = self._region_arrays(region, np.zeros(0, dtype=np.int64))
        return self.invalidate_pages(region, np.arange(slots.size))

    def clear(self) -> int:
        """Drop everything (compaction rewrites whole region windows)."""
        n = len(self)
        self.stats.invalidated += n
        self._reset()
        return n

    def _reset(self) -> None:
        self._region_ids: Dict[Tuple[int, int], int] = {}
        self._slots: List[np.ndarray] = []
        self._ghosts: List[np.ndarray] = []
        self._cols = np.full((6, 8), -1, dtype=np.int64)
        self._data = np.zeros((8, 0), dtype=np.uint8)
        self._oob = np.zeros((8, 0), dtype=np.uint8)
        self.used_bytes = 0  # data + OOB bytes of the resident rows

    def close(self) -> None:
        """Release the DRAM reservation; the cache is unusable afterwards."""
        self._reset()
        self._dram.free(self.name)
