"""Controller-DRAM data structures: R-DB, R-IVF and the Temporal Top Lists.

* **R-DB** (Fig. 4, A): one 21-byte record per deployed database -- the
  database signature plus the boundaries of its embedding and document
  regions.  This replaces the 1GB-per-TB page-level FTL for deployed data.
* **R-IVF** (Fig. 4, B): one 15-byte record per IVF cluster -- centroid
  address, first/last embedding index, and an 8-bit tag.
* **TTL** (Fig. 4, C): the Temporal Top Lists that accumulate candidate
  entries during the coarse (TTL-C) and fine (TTL-E) search steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ssd.coarse import COARSE_ENTRY_BYTES, CoarseRegion
from repro.ssd.dram import InternalDram

R_IVF_ENTRY_BYTES = 15


@dataclass(frozen=True)
class RDbEntry:
    """One deployed-database record (coarse-grained access, Sec. 4.1.4)."""

    db_id: int
    embedding_region: CoarseRegion
    document_region: CoarseRegion
    n_entries: int
    # Width of one packed document slot (power of two; the layout engine
    # sizes it to the database's largest chunk, see ``packed_doc_slot_bytes``).
    doc_slot_bytes: int = 4096

    @property
    def size_bytes(self) -> int:
        return COARSE_ENTRY_BYTES


@dataclass(frozen=True)
class RIvfEntry:
    """One IVF-cluster record (Sec. 4.2.1)."""

    centroid_addr: int  # mini-page address of the centroid
    first_embedding: int  # first embedding slot of the cluster
    last_embedding: int  # last embedding slot (inclusive)
    tag: int  # 8-bit cluster tag stored alongside the centroid

    def __post_init__(self) -> None:
        if not 0 <= self.tag <= 0xFF:
            raise ValueError("cluster tag must fit in 8 bits")
        if self.last_embedding < self.first_embedding - 1:
            raise ValueError("cluster range is inverted")

    @property
    def size(self) -> int:
        """Number of embeddings in the cluster."""
        return self.last_embedding - self.first_embedding + 1


class RDb:
    """The database registry kept in the SSD controller's DRAM."""

    def __init__(self, dram: Optional[InternalDram] = None) -> None:
        self._entries: Dict[int, RDbEntry] = {}
        self._dram = dram

    def register(self, entry: RDbEntry) -> None:
        if entry.db_id in self._entries:
            raise ValueError(f"database id {entry.db_id} already deployed")
        self._entries[entry.db_id] = entry
        self._sync_dram()

    def drop(self, db_id: int) -> None:
        self._entries.pop(db_id, None)
        self._sync_dram()
        if self._dram is not None:
            # The per-database DRAM structures (the R-IVF cluster array and
            # the tombstone bitmap of a mutable deployment) die with the
            # R-DB record -- otherwise register->drop cycles leak DRAM.
            self._dram.free(f"r-ivf-{db_id}")
            self._dram.free(f"tombstones-{db_id}")

    def lookup(self, db_id: int) -> RDbEntry:
        try:
            return self._entries[db_id]
        except KeyError:
            raise KeyError(f"database id {db_id} is not deployed") from None

    def __contains__(self, db_id: int) -> bool:
        return db_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> List[int]:
        return sorted(self._entries)

    @property
    def footprint_bytes(self) -> int:
        return len(self._entries) * COARSE_ENTRY_BYTES

    def _sync_dram(self) -> None:
        if self._dram is not None:
            self._dram.allocate("r-db", self.footprint_bytes)


class RIvf:
    """The per-database IVF cluster array."""

    def __init__(self, entries: List[RIvfEntry], dram: Optional[InternalDram] = None, db_id: int = 0) -> None:
        self.entries = list(entries)
        # Column view for vectorized tag cross-checks (entries are
        # replaced wholesale on compaction, never mutated in place).
        self.tags = np.array([e.tag for e in self.entries], dtype=np.int64)
        self._dram = dram
        self._db_id = db_id
        self._tag_to_cluster = {}
        for cluster_id, entry in enumerate(self.entries):
            self._tag_to_cluster.setdefault(entry.tag, []).append(cluster_id)
        if dram is not None:
            dram.allocate(f"r-ivf-{db_id}", self.footprint_bytes)

    def release(self) -> None:
        """Free the DRAM region backing this cluster array."""
        if self._dram is not None:
            self._dram.free(f"r-ivf-{self._db_id}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, cluster_id: int) -> RIvfEntry:
        return self.entries[cluster_id]

    @property
    def footprint_bytes(self) -> int:
        return len(self.entries) * R_IVF_ENTRY_BYTES

    def clusters_with_tag(self, tag: int) -> List[int]:
        """Tags are 8-bit, so large nlist values alias; disambiguation uses
        the centroid address carried in the TTL entry."""
        return list(self._tag_to_cluster.get(tag, []))


class TombstoneRegistry:
    """DRAM booking of one database's tombstone bitmap.

    Streaming deletes do not rewrite flash: the entry stays physically in
    its cluster tail and is recorded dead so the scan / rerank / filter
    phases skip it (:mod:`repro.core.ingest`).  The record itself is the
    ``live`` column of the database's
    :class:`~repro.core.ingest.MutableIndex`; this registry books its
    controller-DRAM cost -- one bit per addressable slot, in the named
    region ``tombstones-{db_id}`` -- and frees it when the database drops.
    """

    def __init__(self, db_id: int, dram: Optional[InternalDram] = None) -> None:
        self.db_id = db_id
        self._dram = dram
        self._capacity_slots = 0

    def track_capacity(self, n_slots: int) -> None:
        """Size the bitmap for ``n_slots`` addressable entry slots."""
        if n_slots > self._capacity_slots:
            self._capacity_slots = n_slots
            self._sync_dram()

    def release(self) -> None:
        """Free the DRAM region backing the bitmap (database dropped)."""
        self._capacity_slots = 0
        if self._dram is not None:
            self._dram.free(f"tombstones-{self.db_id}")

    @property
    def footprint_bytes(self) -> int:
        return (self._capacity_slots + 7) // 8

    def _sync_dram(self) -> None:
        if self._dram is not None:
            self._dram.allocate(f"tombstones-{self.db_id}", self.footprint_bytes)




class TtlBlock:
    """A columnar batch of materialized TTL rows.

    Coarse rows carry (DIST, EMB, EADR, TAG); fine rows carry (DIST, EMB,
    EADR, RADR, DADR) and the Sec. 7.1 metadata tag when the database has
    one; absent columns are -1.  ``embs`` keeps the binary codes so the
    rows can go to reranking without re-reading flash.  This is what a
    selection returns (a shortlist, the probed centroids), nearest first
    per query, and what the rerank and the shard barriers consume.
    """

    __slots__ = ("dists", "embs", "eadrs", "tags", "radrs", "dadrs", "metas")

    def __init__(
        self,
        dists: np.ndarray,
        embs: np.ndarray,
        eadrs: Optional[np.ndarray] = None,
        tags: Optional[np.ndarray] = None,
        radrs: Optional[np.ndarray] = None,
        dadrs: Optional[np.ndarray] = None,
        metas: Optional[np.ndarray] = None,
    ) -> None:
        n = dists.size
        minus_ones = None

        def col(values: Optional[np.ndarray]) -> np.ndarray:
            nonlocal minus_ones
            if values is not None:
                return np.asarray(values, dtype=np.int64)
            if minus_ones is None:
                minus_ones = np.full(n, -1, dtype=np.int64)
            return minus_ones

        self.dists = np.asarray(dists, dtype=np.int64)
        self.embs = np.atleast_2d(np.asarray(embs, dtype=np.uint8))
        self.eadrs = col(eadrs)
        self.tags = col(tags)
        self.radrs = col(radrs)
        self.dadrs = col(dadrs)
        self.metas = col(metas)

    def __len__(self) -> int:
        return int(self.dists.size)

    def take(self, rows) -> "TtlBlock":
        """The given rows (an index array, or a slice for a view), as a
        block of the same columns: no re-validation, no copies a slice
        does not need -- a stacked selection hands out per-query slices."""
        block = TtlBlock.__new__(TtlBlock)
        block.dists = self.dists[rows]
        block.embs = self.embs[rows]
        block.eadrs = self.eadrs[rows]
        block.tags = self.tags[rows]
        block.radrs = self.radrs[rows]
        block.dadrs = self.dadrs[rows]
        block.metas = self.metas[rows]
        return block

    @classmethod
    def empty(cls, code_bytes: int = 0) -> "TtlBlock":
        return cls(
            dists=np.empty(0, dtype=np.int64),
            embs=np.empty((0, code_bytes), dtype=np.uint8),
        )

    @classmethod
    def concatenate(cls, blocks: List["TtlBlock"]) -> "TtlBlock":
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            dists=np.concatenate([b.dists for b in blocks]),
            embs=np.concatenate([b.embs for b in blocks]),
            eadrs=np.concatenate([b.eadrs for b in blocks]),
            tags=np.concatenate([b.tags for b in blocks]),
            radrs=np.concatenate([b.radrs for b in blocks]),
            dadrs=np.concatenate([b.dadrs for b in blocks]),
            metas=np.concatenate([b.metas for b in blocks]),
        )


class TemporalTopList:
    """One scan phase's TTL-C or TTL-E for every query of a run, as a table.

    Sec. 4.3.1's TTL is a staging list in SSD DRAM that the embedded core
    trims back to the k nearest after every page.  Here a phase's lists are
    one table whose rows, in arrival order, are columns: ``query``,
    ``dist`` and a reference into the pages the scan latched (``source``,
    page rank, slot).  Only the rows :meth:`select` returns are decoded
    into their RD_TTL payload.

    The trimming is accounted, not performed: ``sizes[q]`` is the length
    query ``q``'s list has when trimmed at every compaction and
    ``peaks[q]`` its high-water mark.  Under the (distance, arrival) total
    order, the k nearest of a trimmed list are the k nearest of every row
    it was fed, so the rows a compaction would drop never need dropping.
    Every query's list lives in one named DRAM arena sized for the worst
    peak seen so far (the single embedded core serializes the
    quickselects, so the arena is reused, not duplicated per query); the
    arena only grows.
    """

    def __init__(
        self,
        name: str,
        entry_bytes: int,
        n_queries: int,
        k: int,
        dram: Optional[InternalDram] = None,
    ) -> None:
        self.name = name
        self.entry_bytes = entry_bytes
        self.k = k
        self._dram = dram
        self.sizes = np.zeros(n_queries, dtype=np.int64)
        self.peaks = np.zeros(n_queries, dtype=np.int64)
        self._sources: list = []
        # (query, dist, source, rank, slot), arrival order; None when empty.
        self._columns: Optional[Tuple[np.ndarray, ...]] = None

    def stream(
        self,
        source,
        query: np.ndarray,
        dist: np.ndarray,
        rank: np.ndarray,
        slot: np.ndarray,
        visits: np.ndarray,
        counts: np.ndarray,
    ) -> List[Tuple[int, int]]:
        """Absorb one scan kernel call's survivors.

        Row ``i`` of query ``query[i]`` at distance ``dist[i]`` is slot
        ``slot[i]`` of page ``rank[i]`` of ``source``, whose
        ``decode(dists, ranks, slots)`` builds its :class:`TtlBlock`.  The
        call's page visits belong to queries ``visits`` and left
        ``counts`` survivors each; rows and visits are query-major, each
        query's in its arrival order.  After every visit that leaves a
        list above ``2k`` entries, it compacts to ``k``.  Returns
        ``(query, entries processed)`` of every compaction, query-major in
        arrival order, for the caller to charge the embedded core.
        """
        if dist.size:
            columns = (
                query, dist, np.full(dist.size, len(self._sources)), rank, slot
            )
            self._sources.append(source)
            self._columns = columns if self._columns is None else tuple(
                np.concatenate(pair) for pair in zip(self._columns, columns)
            )
        k, limit = self.k, 2 * self.k
        sizes, peaks, compactions = self.sizes.tolist(), self.peaks.tolist(), []
        for q, count in zip(visits.tolist(), counts.tolist()):
            n = sizes[q] + count
            if n > peaks[q]:
                peaks[q] = n
            if n > limit:
                compactions.append((q, n))
                n = k
            sizes[q] = n
        self.sizes[:], self.peaks[:] = sizes, peaks
        if self._dram is not None and peaks:
            region, nbytes = f"ttl-{self.name}", max(peaks) * self.entry_bytes
            if nbytes > self._dram.region_size(region):
                self._dram.allocate(region, nbytes)
        return compactions

    def restart(self, queries: Sequence[int]) -> None:
        """Empty the lists of ``queries`` (the filter retry rescans them);
        their peaks stay, since the arena has already grown."""
        self.sizes[queries] = 0
        if self._columns is not None:
            keep = ~np.isin(self._columns[0], queries)
            self._columns = tuple(column[keep] for column in self._columns)

    def select(self) -> Tuple[TtlBlock, np.ndarray]:
        """Every query's k nearest rows in one pass: ``(block, bounds)``.

        ``block`` stacks the selections query-major, nearest first within
        each (rows ``bounds[q]:bounds[q + 1]`` are query ``q``'s): one
        stable sort keyed by query then distance, one decode per source.
        Distance ties break by arrival order, so a selection is a pure
        function of (distances, arrival order).  That determinism is what
        makes it reproducible across *any* partitioning of the scan:
        per-shard shortlists merged by the same (distance, scan-order) key
        reconstruct exactly the list one device would have selected (see
        :mod:`repro.core.shard`).
        """
        k, bounds = self.k, np.zeros(self.sizes.size + 1, dtype=np.int64)
        if self._columns is None:
            return TtlBlock.empty(), bounds
        query, dist, source, rank, slot = self._columns
        held = np.bincount(query, minlength=self.sizes.size)
        np.cumsum(np.minimum(held, k), out=bounds[1:])
        if not bounds[-1]:
            return TtlBlock.empty(), bounds
        nearest = np.lexsort((dist, query))  # stable: arrival breaks ties
        first_row = np.cumsum(held) - held
        rows = nearest[np.arange(nearest.size) - first_row[query[nearest]] < k]
        if len(self._sources) == 1:
            return self._sources[0].decode(dist[rows], rank[rows], slot[rows]), bounds
        parts, positions, source_of = [], [], source[rows]
        for index, latched in enumerate(self._sources):
            mine = np.flatnonzero(source_of == index)
            picked = rows[mine]
            parts.append(latched.decode(dist[picked], rank[picked], slot[picked]))
            positions.append(mine)
        back = np.argsort(np.concatenate(positions))
        return TtlBlock.concatenate(parts).take(back), bounds
