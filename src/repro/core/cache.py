"""DRAM-budgeted hot-data cache tier.

Every query re-senses everything from NAND: centroids, cluster pages,
INT8 rerank pages and document pages all pay a full page sense (plus ECC
for TLC) even when every batch probes the same hot clusters.  This module
mirrors hot pages in the SSD's internal DRAM so a cache hit skips the
NAND sense entirely:

* The mirror stores the **golden** ``(data, oob)`` bytes of a page.
  ESP-SLC senses are error-free by construction and TLC senses are
  ECC-corrected back to golden before any byte is used, so serving a
  query from the mirror is bit-identical to re-sensing -- the scan kernel
  math (XOR + popcount + threshold + OOB decode) runs on the controller
  against the same bytes the latch would hold.
* Capacity comes out of :class:`~repro.ssd.dram.InternalDram` as a named
  region, so the cache competes with the R-DB/R-IVF/TTL structures under
  the 0.1% provisioning rule and an over-budget configuration raises
  :class:`~repro.core.layout.CapacityError` up front.
* Eviction is pluggable as a **sort key**: :class:`LruPolicy` (least
  recently used) and :class:`CostAwarePolicy` (sense-energy-saved per DRAM
  byte) ship; the cache keeps the keys in a heap, so an admission pops
  its victims instead of scanning every resident entry.

Three object classes are cached, tagged by ``kind``: hot centroid array
pages (``"centroid"``), hot cluster data pages -- embedding and INT8
regions -- (``"cluster"``) and recently-sensed document pages
(``"document"``).  Invalidation hooks live at the same barriers that
already carry authority changes: streaming ingest invalidates every page
it programs, compaction clears the cache, and dropping a database (the
``migrate_cluster`` path re-deploys through ``drop``) invalidates the
dropped regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.layout import CapacityError, RegionInfo
from repro.ssd.dram import InternalDram

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CostAwarePolicy",
    "EvictionPolicy",
    "LruPolicy",
    "PageCache",
    "DEFAULT_CACHE_KINDS",
]

# The three cacheable object classes.
DEFAULT_CACHE_KINDS = ("centroid", "cluster", "document")

# (region id, page offset).  Region identity is by value -- the id interns
# the value-hashable CoarseRegion -- but a region's hash is a Python-level
# call, so it is taken once per cache call, not once per dict operation.
CacheKey = Tuple[int, int]


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
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


@dataclass
class CacheEntry:
    """One mirrored page: golden data + OOB plus the policy's bookkeeping."""

    kind: str
    data: np.ndarray
    oob: np.ndarray
    uses: int = 0
    last_tick: int = 0
    nbytes: int = field(init=False)  # data + OOB bytes

    def __post_init__(self) -> None:
        self.nbytes = int(self.data.size + self.oob.size)


class EvictionPolicy:
    """Orders resident entries for eviction: the smallest :meth:`key` goes.

    A key is a tuple whose last component is the entry's ``last_tick``.
    Ticks are unique among residents (every admission and every hit takes
    a fresh one), so the order is total without comparing anything else,
    and a key goes stale exactly when its entry's tick moves -- which is
    what lets :class:`PageCache` keep the keys in a heap.
    """

    name: str = "policy"

    def key(self, entry: CacheEntry) -> tuple:
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Evict the least recently used entry."""

    name = "lru"

    def key(self, entry: CacheEntry) -> tuple:
        return (entry.last_tick,)


class CostAwarePolicy(EvictionPolicy):
    """Evict the entry with the least sense energy saved per DRAM byte.

    Each residency re-use saves one page sense, so an entry's value is
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

    def score(self, entry: CacheEntry) -> float:
        weight = self.kind_weights.get(entry.kind, 1.0)
        return entry.uses * weight * self.sense_energy_j / max(entry.nbytes, 1)

    def key(self, entry: CacheEntry) -> tuple:
        return (self.score(entry), entry.last_tick)


class PageCache:
    """A DRAM-budgeted mirror of hot NAND pages.

    The budget is reserved as a named :class:`InternalDram` region at
    construction -- an over-budget configuration fails immediately with
    :class:`CapacityError` -- and released by :meth:`close`.  Lookups
    return the resident :class:`CacheEntry` (whose ``data``/``oob`` are
    the golden page bytes) or ``None``; admissions copy their inputs so
    no caller ever aliases the mirror.
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
        self.stats = CacheStats()
        self._entries: Dict[CacheKey, CacheEntry] = {}
        self._region_ids: Dict[object, int] = {}
        # Eviction order: a heap of (policy key, cache key), invalidated
        # lazily.  Every resident's *current* key is in it (:meth:`_rank`);
        # an item is stale once its entry is gone or carries another tick.
        self._heap: List[Tuple[tuple, CacheKey]] = []
        # Ghost frequency: touch counts of absent pages (misses plus the
        # uses of evicted entries), restored when a page is admitted.
        # Without it a budget smaller than one batch's footprint can
        # never converge -- every hot page is flushed by the cold flood
        # before it earns a reuse, so the cost-aware score stays zero for
        # everything.  (Metadata only, a few ints per page ever touched;
        # the mirrored bytes are gone.)
        self._ghost_uses: Dict[CacheKey, int] = {}
        self._used_bytes = 0
        self._tick = 0
        try:
            dram.allocate(name, self.budget_bytes)
        except MemoryError as exc:
            raise CapacityError(
                f"DRAM cache budget of {budget_bytes}B does not fit: {exc}"
            ) from exc
        self._dram = dram

    # ------------------------------------------------------------- lookup

    def _key(self, region: RegionInfo, page_offset: int) -> CacheKey:
        coarse = region.region
        region_id = self._region_ids.get(coarse)
        if region_id is None:
            region_id = self._region_ids[coarse] = len(self._region_ids)
        return (region_id, int(page_offset))

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, region: RegionInfo, page_offset: int) -> Optional[CacheEntry]:
        """Residency probe that records no statistics (scheduling snapshot)."""
        return self._entries.get(self._key(region, page_offset))

    def lookup(self, region: RegionInfo, page_offset: int) -> Optional[CacheEntry]:
        """Return the resident entry for a page, recording hit/miss stats."""
        key = self._key(region, page_offset)
        entry = self._entries.get(key)
        if entry is None:
            # A miss is still a touch: bank it so a page that keeps being
            # wanted carries its popularity into the next admission.
            self._ghost_uses[key] = self._ghost_uses.get(key, 0) + 1
            self.stats.misses += 1
            return None
        self._tick += 1
        entry.uses += 1
        entry.last_tick = self._tick
        self._rank(key, entry)
        self.stats.hits += 1
        self.stats.hit_bytes += entry.nbytes
        return entry

    # ----------------------------------------------------------- eviction

    def _rank(self, key: CacheKey, entry: CacheEntry) -> None:
        """File ``entry``'s current eviction key (on admission and on every
        hit, which moves its tick); once stale items outnumber live ones
        the heap is rebuilt from the residents."""
        heap = self._heap
        heappush(heap, (self.policy.key(entry), key))
        if len(heap) > 2 * len(self._entries):
            rank = self.policy.key
            heap[:] = [(rank(e), k) for k, e in self._entries.items()]
            heapify(heap)

    # ---------------------------------------------------------- admission

    def admit(
        self,
        region: RegionInfo,
        page_offset: int,
        kind: str,
        data: np.ndarray,
        oob: np.ndarray,
    ) -> bool:
        """Mirror a freshly-sensed page (copied); evicts until it fits.

        Returns ``False`` without touching the cache when the kind is not
        enabled or the page alone exceeds the whole budget.
        """
        if kind not in self.kinds:
            return False
        nbytes = int(data.size + oob.size)
        if nbytes > self.budget_bytes:
            return False
        key = self._key(region, page_offset)
        old = self._entries.pop(key, None)
        if old is not None:
            self._used_bytes -= old.nbytes
        while self._used_bytes + nbytes > self.budget_bytes:
            rank, victim = heappop(self._heap)
            evicted = self._entries.get(victim)
            if evicted is None or evicted.last_tick != rank[-1]:
                continue  # stale: the entry left or was touched since
            del self._entries[victim]
            self._ghost_uses[victim] = (
                self._ghost_uses.get(victim, 0) + evicted.uses
            )
            self._used_bytes -= evicted.nbytes
            self.stats.evicted += 1
        self._tick += 1
        entry = self._entries[key] = CacheEntry(
            kind=kind,
            data=np.array(data, dtype=np.uint8, copy=True),
            oob=np.array(oob, dtype=np.uint8, copy=True),
            uses=(
                old.uses if old is not None
                else self._ghost_uses.pop(key, 0)
            ),
            last_tick=self._tick,
        )
        self._rank(key, entry)
        self._used_bytes += nbytes
        self.stats.admitted += 1
        return True

    # -------------------------------------------------------- invalidation

    def invalidate_page(self, region: RegionInfo, page_offset: int) -> bool:
        """Drop one page's entry (streaming-ingest program barrier)."""
        key = self._key(region, page_offset)
        self._ghost_uses.pop(key, None)  # rewritten page, stale history
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used_bytes -= entry.nbytes
        self.stats.invalidated += 1
        return True

    def invalidate_region(self, region: RegionInfo) -> int:
        """Drop every entry of one region (drop/migrate authority barrier)."""
        region_id = self._region_ids.get(region.region)
        for key in [k for k in self._ghost_uses if k[0] == region_id]:
            del self._ghost_uses[key]
        doomed = [key for key in self._entries if key[0] == region_id]
        for key in doomed:
            self._used_bytes -= self._entries.pop(key).nbytes
        self.stats.invalidated += len(doomed)
        return len(doomed)

    def clear(self) -> int:
        """Drop everything (compaction rewrites whole region windows)."""
        n = len(self._entries)
        self.stats.invalidated += n
        self._entries.clear()
        self._heap.clear()
        self._ghost_uses.clear()
        self._used_bytes = 0
        return n

    def close(self) -> None:
        """Release the DRAM reservation; the cache is unusable afterwards."""
        self._entries.clear()
        self._heap.clear()
        self._used_bytes = 0
        self._dram.free(self.name)
