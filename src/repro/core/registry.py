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


@dataclass
class TtlEntry:
    """One Temporal-Top-List row.

    Coarse entries carry (DIST, EMB, EADR, TAG); fine entries carry
    (DIST, EMB, RADR, DADR).  ``emb`` keeps the binary code so the engine
    can hand it to reranking without re-reading flash.
    """

    dist: int
    emb: np.ndarray
    eadr: int = -1
    tag: int = -1
    radr: int = -1
    dadr: int = -1
    meta: int = -1  # Sec. 7.1 metadata tag (present when the DB carries one)


class TtlBlock:
    """A columnar batch of materialized TTL rows.

    Parallel columns (distance, packed code matrix, linkage words) instead
    of one :class:`TtlEntry` object per row: this is what a selection
    returns (a shortlist, the probed centroids) and what the rerank and
    the shard barriers consume.  Rows keep the order they were given in --
    arrival order in a TTL chunk, nearest first out of a selection.
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

    @classmethod
    def from_entries(cls, entries: List[TtlEntry]) -> "TtlBlock":
        return cls(
            dists=np.array([e.dist for e in entries], dtype=np.int64),
            embs=np.stack([e.emb for e in entries]) if entries else np.empty((0, 0), dtype=np.uint8),
            eadrs=np.array([e.eadr for e in entries], dtype=np.int64),
            tags=np.array([e.tag for e in entries], dtype=np.int64),
            radrs=np.array([e.radr for e in entries], dtype=np.int64),
            dadrs=np.array([e.dadr for e in entries], dtype=np.int64),
            metas=np.array([e.meta for e in entries], dtype=np.int64),
        )

    def entry(self, row: int) -> TtlEntry:
        """Materialize one row as a :class:`TtlEntry` (selection output)."""
        return TtlEntry(
            dist=int(self.dists[row]),
            emb=self.embs[row],
            eadr=int(self.eadrs[row]),
            tag=int(self.tags[row]),
            radr=int(self.radrs[row]),
            dadr=int(self.dadrs[row]),
            meta=int(self.metas[row]),
        )

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

    def decode(self, _dists, rows: np.ndarray, _slots) -> "TtlBlock":
        """A materialized block is its own row source (see :class:`TtlRefs`):
        row ``i`` is already decoded."""
        return self.take(rows)

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


class TtlRefs:
    """Deferred TTL rows: distances plus ``(page, slot)`` references.

    The scan kernel knows every surviving row's distance but a query only
    ever reads the linkage words and embedding codes of the rows it
    selects, so the TTL holds references and ``source.decode(dists, pages,
    slots)`` assembles the :class:`TtlBlock` of the selected rows from the
    phase's latched-page snapshots.  Rows are in arrival order.  Already
    materialized rows are references too -- into their own block
    (:meth:`of_block`) -- so a TTL holds one kind of chunk.
    """

    __slots__ = ("dists", "pages", "slots", "source")

    def __init__(
        self, dists: np.ndarray, pages: np.ndarray, slots: np.ndarray, source
    ) -> None:
        self.dists = dists
        self.pages = pages
        self.slots = slots
        self.source = source

    @classmethod
    def of_block(cls, block: TtlBlock) -> "TtlRefs":
        rows = np.arange(len(block))
        return cls(block.dists, rows, rows, block)

    def __len__(self) -> int:
        return int(self.dists.size)

    def __getitem__(self, rows: slice) -> "TtlRefs":
        return TtlRefs(
            self.dists[rows], self.pages[rows], self.slots[rows], self.source
        )


def _take_rows(chunks: Sequence[TtlRefs], rows: np.ndarray) -> TtlBlock:
    """Materialize ``rows`` of the chunks' concatenation, in the given order.

    Rows of one source decode together, whichever chunk (query) they came
    from: a phase's TTLs all reference the one page snapshot their scan
    latched, so a whole phase's selection is one decode.
    """
    dists = np.concatenate([chunk.dists for chunk in chunks])[rows]
    pages = np.concatenate([chunk.pages for chunk in chunks])[rows]
    slots = np.concatenate([chunk.slots for chunk in chunks])[rows]
    sources = {id(chunk.source): chunk.source for chunk in chunks}
    if len(sources) == 1:
        return chunks[0].source.decode(dists, pages, slots)
    source_of = np.repeat(
        [id(chunk.source) for chunk in chunks],
        [chunk.dists.size for chunk in chunks],
    )[rows]
    parts, positions = [], []
    for key, source in sources.items():
        mine = np.flatnonzero(source_of == key)
        parts.append(source.decode(dists[mine], pages[mine], slots[mine]))
        positions.append(mine)
    back = np.argsort(np.concatenate(positions))
    return TtlBlock.concatenate(parts).take(back)


def select_blocks(
    ttls: Sequence["TemporalTopList"], k: int
) -> Tuple[TtlBlock, np.ndarray]:
    """The k nearest rows of every TTL in one pass: ``(block, bounds)``.

    ``block`` stacks the selections TTL-major, nearest first within each
    (rows ``bounds[i]:bounds[i + 1]`` are TTL ``i``'s) -- one sort with
    the TTL index as the most significant key, one decode.  Distance ties
    break by arrival order, so a selection is a pure function of
    (distances, insertion order) -- a deterministic total order.  That
    determinism is what makes the selection reproducible across *any*
    partitioning of the scan: per-shard shortlists merged by the same
    (distance, scan-order) key reconstruct exactly the list a single
    device would have selected (see :mod:`repro.core.shard`), and it is
    why the accounted compactions never have to run.
    """
    for ttl in ttls:
        if ttl._mark is not None and k > ttl._mark[1]:
            ttl._apply_mark()
    rows_of = np.array([ttl._rows for ttl in ttls], dtype=np.int64)
    bounds = np.zeros(len(ttls) + 1, dtype=np.int64)
    np.cumsum(np.minimum(rows_of, max(k, 0)), out=bounds[1:])
    chunks = [chunk for ttl in ttls for chunk in ttl._chunks]
    if not bounds[-1]:
        return TtlBlock.empty(), bounds
    dists = (
        chunks[0].dists if len(chunks) == 1
        else np.concatenate([chunk.dists for chunk in chunks])
    )
    owner = np.repeat(np.arange(len(ttls)), rows_of)
    nearest = np.lexsort((dists, owner))  # stable: arrival breaks ties
    first_row = np.cumsum(rows_of) - rows_of
    keep = np.arange(owner.size) - first_row[owner] < k
    return _take_rows(chunks, nearest[keep]), bounds


class TemporalTopList:
    """An append + select-k staging list in controller DRAM.

    Rows arrive in chunks (:class:`TtlRefs`: references from the scan
    kernel, or a wrapped :class:`TtlBlock`) and selection is one stable
    sort under the (distance, arrival) total order (:func:`select_blocks`,
    for any number of TTLs at once).  The per-iteration quickselect of
    Sec. 4.3.1 is *accounted* -- :meth:`compact` / :meth:`stream` keep
    ``len`` and ``peak_entries`` exactly as a TTL that trims after every
    page would -- but not performed: keeping the k nearest of a prefix and later
    selecting k' <= k of prefix + suffix equals selecting k' of everything,
    so a pending compaction is one ``(rows, k)`` mark ("of the first
    ``rows`` rows only the k nearest are live") that later compactions with
    k' <= k simply move.  The mark is applied for real only when a wider
    selection than k needs the live set.
    """

    def __init__(
        self,
        name: str,
        entry_bytes: int,
        dram: Optional[InternalDram] = None,
    ) -> None:
        self.name = name
        self.entry_bytes = entry_bytes
        self._dram = dram
        self._chunks: List[TtlRefs] = []  # arrival order
        self._rows = 0  # rows held in the chunks
        self._n = 0  # rows a TTL trimmed at every compaction would hold
        self._mark: Optional[tuple] = None
        self.peak_entries = 0

    def __len__(self) -> int:
        return self._n

    @property
    def entries(self) -> List[TtlEntry]:
        """The live rows materialized as entries, in arrival order (tests /
        introspection; the hot path never calls this)."""
        if not self._rows:
            return []
        block = _take_rows(self._chunks, self._live_rows())
        return [block.entry(i) for i in range(len(block))]

    def append(self, entry: TtlEntry) -> None:
        self.extend(TtlBlock.from_entries([entry]))

    def _raise_peak(self, peak: int) -> None:
        """Record a new high-water mark and grow the shared TTL arena.

        Every query's TTL-C/TTL-E lives in one named DRAM arena sized for
        the worst query seen so far (the single embedded core serializes
        the queries' quickselects, so the arena is reused rather than
        duplicated per in-flight query).  The region only grows: a later
        query with a smaller peak must not shrink the recorded footprint.
        """
        if peak <= self.peak_entries:
            return
        self.peak_entries = peak
        if self._dram is not None:
            region = f"ttl-{self.name}"
            if peak * self.entry_bytes > self._dram.region_size(region):
                self._dram.allocate(region, peak * self.entry_bytes)

    def extend(self, entries) -> None:
        """Bulk append of a :class:`TtlBlock`, :class:`TtlRefs` or any
        iterable of :class:`TtlEntry`: one chunk, one high-water update."""
        if not isinstance(entries, (TtlBlock, TtlRefs)):
            entries = TtlBlock.from_entries(list(entries))
        self.stream(entries, [len(entries)], None)

    def stream(self, rows, counts: Sequence[int], k: Optional[int]) -> List[int]:
        """Absorb ``rows`` as consecutive page visits of ``counts[i]`` rows.

        After each visit that leaves more than ``2 * k`` entries the TTL
        compacts to ``k`` (``k=None``: never) -- as integer arithmetic on
        the length, see the class docstring.  Returns the number of
        entries each compaction processed, in order, so the caller can
        charge the embedded core.
        """
        if self._mark is not None and k is not None and k > self._mark[1]:
            self._apply_mark()
        arrived = self._rows
        if rows.dists.size:
            if isinstance(rows, TtlBlock):
                rows = TtlRefs.of_block(rows)
            self._chunks.append(rows)
            self._rows += rows.dists.size
        n, peak, processed = self._n, self.peak_entries, []
        for count in counts:
            arrived += count
            n += count
            if n > peak:
                peak = n
            if k is not None and n > 2 * k:
                processed.append(n)
                n = k
                self._mark = (arrived, k)
        self._n = n
        self._raise_peak(peak)
        return processed

    def compact(self, k: int) -> int:
        """Keep only the k nearest entries (the per-iteration quickselect
        of Sec. 4.3.1 that bounds the TTL's DRAM footprint).

        Returns the number of entries the quickselect processed, so the
        caller can charge the embedded core.
        """
        processed = self._n
        if processed > k:
            if self._mark is not None and k > self._mark[1]:
                self._apply_mark()
            self._mark = (self._rows, k)
            self._n = k
        return processed

    def _live_rows(self) -> np.ndarray:
        """Row indices a TTL trimmed at every compaction would hold."""
        if self._mark is None:
            return np.arange(self._rows)
        arrived, k = self._mark
        dists = np.concatenate([chunk.dists for chunk in self._chunks])
        head = np.argsort(dists[:arrived], kind="stable")[:k]
        return np.concatenate([np.sort(head), np.arange(arrived, self._rows)])

    def _apply_mark(self) -> None:
        block = _take_rows(self._chunks, self._live_rows())
        self._chunks = [TtlRefs.of_block(block)]
        self._rows, self._mark = len(block), None

    def select_block(self, k: int) -> Optional[TtlBlock]:
        """The k nearest rows as a columnar block, nearest first
        (:func:`select_blocks` of this one TTL)."""
        if k <= 0 or not self._rows:
            return None
        return select_blocks([self], k)[0]

    def select_smallest(self, k: int) -> List[TtlEntry]:
        """Quickselect: the k nearest entries, nearest first (see
        :meth:`select_block` for the ordering contract)."""
        block = self.select_block(k)
        if block is None:
            return []
        return [block.entry(i) for i in range(len(block))]

    def clear(self) -> None:
        self._chunks = []
        self._rows = self._n = 0
        self._mark = None

    @property
    def footprint_bytes(self) -> int:
        return self.peak_entries * self.entry_bytes
