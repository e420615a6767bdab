"""Streaming mutability: inserts / deletes / updates under live traffic.

REIS deployments so far were immutable -- ``IVF_Deploy`` froze the corpus
into cluster-major regions and every later PR served reads off that frozen
layout.  Real retrieval corpora churn, so this module adds the mutation
path (Sec. 7.2's normal/RAG mode split already gives the maintenance
window; this gives the foreground path):

* **Inserts** append entries to the erased *growth tail* of the deployed
  regions (``growth_entries`` headroom reserved by
  :meth:`~repro.core.layout.DatabaseDeployer.deploy`, counted from each
  region's page-aligned tail: the rest of the last deployed page is
  sealed, so a small ``growth_entries`` can leave no usable slot).  The
  entry is assigned to its nearest centroid -- re-encoded with the
  deployment's own codecs and compared against the centroid codes read
  back from the centroid region, the same XOR+popcount the coarse scan
  performs -- and programmed with the same payload/OOB wire format the
  deployer uses, so the scan pipeline needs no new read path.
* **Deletes** clear the entry's bit in the :class:`MutableIndex` ``live``
  column (booked in controller DRAM by the
  :class:`~repro.core.registry.TombstoneRegistry`); the flash pages are
  untouched and the scan simply skips the entry (dead slots drop out of
  the :meth:`MutableIndex.slot_ranges` the fine search scans).
* **Updates** compose the two: tombstone the old entry, append the new
  vector under a *fresh* id.  Ids are never reused -- reusing one would
  place it out of ascending-id order inside its cluster and break the
  bit-identity contract below.

A mutation group is validated whole (op fields, vector width and
finiteness, tags) and its tail capacity checked before any state changes,
so a group either lands entirely or raises having changed nothing.

**Bit-identity contract.**  After any interleaving of mutations and
queries, a query against the mutated database returns results bit-identical
to the same query against a *fresh deployment of the live snapshot* (same
codecs, same clusters, live entries only).  This holds because the engine's
candidate stream is fully determined by the per-cluster entry sequence
(ascending slot == ascending id within each cluster) and every downstream
selection is a stable (distance, arrival-order) quickselect
(:meth:`~repro.core.registry.TemporalTopList.select`).  Appends
preserve ascending id order per cluster; tombstones only remove entries;
so the mutated scan enumerates exactly the sequence the snapshot deploy
would.  :meth:`IngestManager.compact` rewrites the regions into canonical
packed form (the maintenance pass schedulers overlap with serving) and is
a no-op for that entry sequence.

Sharded deployments route mutations through
:class:`ShardedIngestCoordinator`: the target shards are read off the
placement table (every live owner of the cluster), the group commits on
every shard it touches or on none, and the coordinator then replaces the
:class:`~repro.core.shard.ShardAssignment` with its edited copy so the
router's distance-merge stays bit-identical to the single-device engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann.distances import hamming_packed
from repro.core.batch import BatchExecution, BatchStats
from repro.core.defrag import Defragmenter
from repro.core.layout import (
    CapacityError,
    DeployedDatabase,
    RegionInfo,
    oob_records,
    program_slots,
)
from repro.core.plan import SearchStats, validate_metadata_tags
from repro.core.queue import QueuePolicy, SubmissionQueue
from repro.core.registry import R_IVF_ENTRY_BYTES, RIvf, TombstoneRegistry
from repro.core.shard import ShardUnavailableError, scan_order
from repro.rag.documents import DocumentChunk
from repro.sim.latency import LatencyReport, SimClock
from repro.sim.unique import sorted_unique
from repro.ssd.device import SimulatedSSD

MUTATION_OPS = ("insert", "delete", "update")
_NO_RESULTS = np.empty(0, dtype=np.int64)
_NO_RESULTS.setflags(write=False)
_MISSING_TAG = "this database carries metadata tags; inserts must supply one"


# ------------------------------------------------------------- requests


@dataclass(frozen=True)
class MutationRequest:
    """One corpus mutation, expressed host-side.

    ``cluster`` pins the (local) cluster assignment; the sharded
    coordinator uses it to route a globally-resolved insert into a shard
    without the shard re-deriving it.  Host callers normally leave it
    ``None``.
    """

    op: str
    vector: Optional[np.ndarray] = None
    entry_id: Optional[int] = None  # delete/update target
    text: Optional[str] = None
    metadata_tag: Optional[int] = None
    cluster: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ValueError(f"unknown mutation op {self.op!r}")
        if self.op in ("insert", "update") and self.vector is None:
            raise ValueError(f"{self.op} requires a vector")
        if self.op in ("delete", "update") and self.entry_id is None:
            raise ValueError(f"{self.op} requires an entry_id")


@dataclass
class MutationAck:
    """The durable answer to one mutation.

    Duck-types :class:`~repro.core.plan.ReisQueryResult` (empty result
    columns) so acks flow through the submission queue's serving records
    and reports unchanged.
    """

    op: str
    entry_id: int  # id inserted or deleted; for updates, the new id
    applied: bool
    replaced_id: Optional[int] = None  # updates: the retired id
    note: str = ""
    ids: ClassVar[np.ndarray] = _NO_RESULTS  # read-only: every ack shares it
    distances: ClassVar[np.ndarray] = _NO_RESULTS
    documents: List[DocumentChunk] = field(default_factory=list)
    latency: LatencyReport = field(default_factory=LatencyReport)
    stats: SearchStats = SearchStats()  # immutable: every ack shares it


@dataclass
class CommitResult:
    """One applied mutation group (all mutations of one served batch)."""

    n_inserts: int = 0
    n_deletes: int = 0
    n_updates: int = 0
    ids: List[int] = field(default_factory=list)  # ids assigned to inserts
    pages_programmed: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    acks: List[MutationAck] = field(default_factory=list)

    def count(self, op: str) -> None:
        if op == "insert":
            self.n_inserts += 1
        elif op == "delete":
            self.n_deletes += 1
        else:
            self.n_updates += 1


@dataclass
class CompactionResult:
    """Outcome of one maintenance compaction pass."""

    live_entries: int = 0
    erased_blocks: int = 0
    reclaimed_pages: int = 0
    pages_programmed: int = 0
    seconds: float = 0.0

    @classmethod
    def concurrent(
        cls, shard_results: Iterable["CompactionResult"]
    ) -> "CompactionResult":
        """Fold per-shard passes that ran side by side: the counts add up,
        the wall clock is the slowest shard's."""
        total = cls()
        for result in shard_results:
            total.live_entries += result.live_entries
            total.erased_blocks += result.erased_blocks
            total.reclaimed_pages += result.reclaimed_pages
            total.pages_programmed += result.pages_programmed
            total.seconds = max(total.seconds, result.seconds)
        return total


def _validate_group(
    requests: Sequence[MutationRequest], dim: int, tagged: bool, n_clusters: int
) -> None:
    """Check a whole mutation group before any of it lands: every insert /
    update vector has the database's width and is finite, pins (if at all)
    a cluster in ``[0, n_clusters)``, and carries an in-range tag -- which
    a tagged database requires."""
    for request in requests:
        if request.op == "delete":
            continue
        if request.cluster is not None and not 0 <= request.cluster < n_clusters:
            raise ValueError(
                f"{request.op} cluster {request.cluster} is outside "
                f"[0, {n_clusters})"
            )
        vector = np.asarray(request.vector, dtype=np.float32)
        if vector.shape != (dim,):
            raise ValueError(f"{request.op} vector must have dim {dim}")
        if not np.logical_and.reduce(np.isfinite(vector)):
            raise ValueError(f"{request.op} vector must be finite")
        if request.metadata_tag is not None:
            validate_metadata_tags(request.metadata_tag, "metadata_tag")
        elif tagged:
            raise ValueError(_MISSING_TAG)


def _resolve_group(
    requests: Sequence[MutationRequest],
    live: np.ndarray,
    first_id: int,
    result: CommitResult,
) -> List[Tuple[MutationRequest, Optional[int], Optional[int], MutationAck]]:
    """Resolve a group's liveness in request order on its working ``live``
    column (current ids, then room for the group's appends), so a later
    request sees every earlier one.  Acks and counts go into ``result``;
    returns ``(request, retired id, fresh id, ack)`` per applied request.
    Ids are never reused: the ``k``-th append takes ``first_id + k``.
    """
    resolved = []
    for request in requests:
        result.count(request.op)
        retired = fresh = None
        if request.op != "insert":
            target = int(request.entry_id)
            if not (0 <= target < live.size and live[target]):
                result.acks.append(MutationAck(
                    op=request.op, entry_id=target, applied=False,
                    note="target entry is not live",
                ))
                continue
            live[target] = False
            retired = target
        if request.op != "delete":
            fresh = first_id + len(result.ids)
            live[fresh] = True
            result.ids.append(fresh)
        ack = MutationAck(
            op=request.op, entry_id=retired if fresh is None else fresh,
            applied=True, replaced_id=retired if request.op == "update" else None,
        )
        result.acks.append(ack)
        resolved.append((request, retired, fresh, ack))
    return resolved


def _split_by_cluster(
    order: np.ndarray, clusters: np.ndarray, n_clusters: int
) -> List[np.ndarray]:
    """Cut a scan-ordered id array into its per-cluster pieces."""
    counts = np.bincount(clusters, minlength=n_clusters)
    return np.split(order, np.cumsum(counts)[:-1])


# -------------------------------------------------------- mutable index


class MutableIndex:
    """Live cluster membership layered over a deployed database.

    One id-indexed table: ids are dense, monotone and never reused, so row
    ``i`` of the ``cluster`` / ``eadr`` / ``radr`` / ``dadr`` / ``meta``
    columns says where entry ``i`` lives, and ``live[i]`` is the only
    record of whether it still does.  ``dadr_to_id`` is the reverse index
    over the document region that
    :meth:`~repro.core.layout.DeployedDatabase.original_of_dadr` gathers
    from (appended entries' document slots diverge from their embedding
    slots: one tail cursor per region).

    The deployer's R-IVF describes contiguous ``[first, last]`` slot ranges;
    once entries are appended to the growth tail and tombstoned in place, a
    cluster's live slots are no longer one range.  Within a cluster
    ascending embedding slot is ascending id (appends take the tail in
    arrival order, compaction packs in that order) -- the canonical
    single-device scan order -- so the index sorts the live rows by
    ``(cluster, eadr)`` once per commit and hands the engine the maximal
    consecutive-slot runs of that order, reusing the page-major scan
    machinery unchanged (:meth:`~repro.core.engine.InStorageAnnsEngine.
    _slot_ranges` dispatches here when the database carries an index).
    """

    def __init__(self, db: DeployedDatabase) -> None:
        if db.r_ivf is None:
            raise ValueError("a mutable index requires an IVF deployment")
        self.n_clusters = len(db.r_ivf)
        slot_ids = db.slot_to_original
        n_ids = int(slot_ids.max()) + 1 if slot_ids.size else 0
        self.cluster = np.full(n_ids, -1, dtype=np.int64)
        for cluster, record in enumerate(db.r_ivf.entries):
            span = slot_ids[record.first_embedding : record.last_embedding + 1]
            self.cluster[span] = cluster
        # At deploy every address of an entry is its slot.
        self.eadr = np.full(n_ids, -1, dtype=np.int64)
        self.eadr[slot_ids] = np.arange(slot_ids.size)
        self.radr = self.eadr.copy()
        self.dadr = self.eadr.copy()
        self.meta = np.full(n_ids, -1, dtype=np.int64)
        if db.has_metadata:
            self.meta[slot_ids] = db.metadata_tags[slot_ids]
        self.live = np.zeros(n_ids, dtype=bool)
        self.live[slot_ids] = True
        self.dadr_to_id = np.full(db.document_region.n_slots, -1, dtype=np.int64)
        self.dadr_to_id[: slot_ids.size] = slot_ids
        self._scanned: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------ queries

    def is_live(self, entry_id: int) -> bool:
        return 0 <= entry_id < self.live.size and bool(self.live[entry_id])

    def live_count(self) -> int:
        return int(np.count_nonzero(self.live))

    def live_ids(self) -> np.ndarray:
        """All live ids in canonical scan order (cluster-major, ascending)."""
        return self._scan()[0]

    def members_by_cluster(self) -> List[np.ndarray]:
        """Live ids per cluster, in scan order (the sharded coordinator
        answers the same with global ids)."""
        order = self.live_ids()
        return _split_by_cluster(order, self.cluster[order], self.n_clusters)

    def slot_ranges(
        self, clusters: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal runs of consecutive live embedding slots, scan order, as
        columns ``(owner, first, last)``: run ``i`` covers slots
        ``first[i]..last[i]`` of cluster ``clusters[owner[i]]`` (of every
        cluster, owner 0, when ``clusters`` is None)."""
        _order, firsts, lasts, bounds = self._scan()
        if clusters is None:
            return np.zeros(firsts.size, dtype=np.int64), firsts, lasts
        counts = bounds[clusters + 1] - bounds[clusters]
        owner = np.arange(clusters.size).repeat(counts)
        at = np.arange(owner.size) + (bounds[clusters] - counts.cumsum() + counts)[owner]
        return owner, firsts[at], lasts[at]

    def _scan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(live ids in scan order, their slot runs' first and last slots,
        per-cluster run bounds)``, sorted once per commit."""
        if self._scanned is None:
            ids = self.live.nonzero()[0]
            order = ids[np.lexsort((self.eadr[ids], self.cluster[ids]))]
            slots, clusters = self.eadr[order], self.cluster[order]
            # A run of consecutive slots of one cluster: its head and its tail.
            head = np.empty(order.size + 1, dtype=bool)
            head[:1] = head[-1:] = True
            head[1:-1] = (slots[1:] - slots[:-1] != 1) | (clusters[1:] != clusters[:-1])
            starts, ends = head[:-1].nonzero()[0], head[1:].nonzero()[0]
            bounds = clusters[starts].searchsorted(np.arange(self.n_clusters + 1))
            self._scanned = (order, slots[starts], slots[ends], bounds)
        return self._scanned

    # ---------------------------------------------------------- mutation

    def commit(
        self,
        live: np.ndarray,
        cluster: np.ndarray,
        eadr: np.ndarray,
        radr: np.ndarray,
        dadr: np.ndarray,
        meta: np.ndarray,
    ) -> None:
        """Install one commit group: the whole new ``live`` column and the
        rows of the group's fresh ids, which follow the table's last id."""
        first = self.cluster.size
        if live.size != first + cluster.size:
            raise ValueError("the live column must cover every id exactly once")
        self.cluster = np.concatenate([self.cluster, cluster])
        self.eadr = np.concatenate([self.eadr, eadr])
        self.radr = np.concatenate([self.radr, radr])
        self.dadr = np.concatenate([self.dadr, dadr])
        self.meta = np.concatenate([self.meta, meta])
        self.live = live
        self.dadr_to_id[dadr] = np.arange(first, self.cluster.size)
        self._scanned = None

    def repack(self) -> np.ndarray:
        """Compaction: the live rows take slots ``0..n-1`` in scan order
        (every address equals the slot again); returns that order."""
        order = self.live_ids()
        packed = np.arange(order.size, dtype=np.int64)
        for column in (self.eadr, self.radr, self.dadr):
            column[order] = packed
        self.dadr_to_id[:] = -1
        self.dadr_to_id[: order.size] = order
        self._scanned = None
        return order


# ------------------------------------------------------------- manager


class IngestManager:
    """The device-side mutation path for one deployed IVF database.

    Owns the per-region tail cursors (page-aligned: a NAND page programs
    once, so each commit seals whole tail pages), the tombstone bitmap's
    DRAM booking and the :class:`MutableIndex` it installs on the
    database.  Tail pages go through the deployer's own writer
    (:func:`~repro.core.layout.program_slots` at region page
    ``cursor // slots_per_page``, with
    :func:`~repro.core.layout.oob_records`), so an appended page is
    addressed and formatted exactly as a deployed one.
    """

    def __init__(self, ssd: SimulatedSSD, db: DeployedDatabase) -> None:
        if not db.is_ivf:
            raise ValueError("streaming ingest requires an IVF deployment")
        if db.mutable_index is not None:
            raise ValueError(
                f"database {db.db_id} already has an ingest manager attached"
            )
        self.ssd = ssd
        self.db = db
        self.geometry = ssd.spec.geometry
        self.timing = ssd.spec.timing
        self.tombstones = TombstoneRegistry(db.db_id, dram=ssd.dram)
        self.tombstones.track_capacity(db.embedding_region.n_slots)
        self.index = MutableIndex(db)
        db.mutable_index = self.index
        # Centroid codes sensed back from the centroid region.
        self.centroid_codes = self._read_slots(
            db.centroid_region, np.arange(db.centroid_region.n_slots)
        )[0]
        self.commits: List[CommitResult] = []
        self._regions: Dict[str, RegionInfo] = {
            "embeddings": db.embedding_region,
            "int8": db.int8_region,
            "documents": db.document_region,
        }
        self._cursor: Dict[str, int] = {}
        self._reset_tails(db.n_entries)

    def _reset_tails(self, n_live_slots: int) -> None:
        """Point every region's cursor at its first erased tail page."""
        for key, region in self._regions.items():
            pages = math.ceil(n_live_slots / region.slots_per_page)
            self._cursor[key] = pages * region.slots_per_page

    def _read_slots(
        self, region: RegionInfo, slots: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """The payload rows of ``slots`` and the number of pages read: every
        page holding one is read once, in offset order.  Reads are golden
        (ESP-SLC is error-free and ECC corrects TLC; the functional sim
        stores golden bytes)."""
        g = self.geometry
        page_offsets, slot_in_page = np.divmod(slots, region.slots_per_page)
        touched, _first, row_of = sorted_unique(page_offsets)
        planes, blocks, in_block = region.region.translate_columns(touched, g)[:3]
        pages = np.empty((touched.size, g.page_bytes), dtype=np.uint8)
        oob = np.empty((touched.size, g.oob_bytes), dtype=np.uint8)
        self.ssd.array.gather(planes, blocks, in_block, slice(None), pages, oob)
        items = pages[:, : region.slots_per_page * region.item_bytes].reshape(
            touched.size, region.slots_per_page, region.item_bytes
        )
        return items[row_of, slot_in_page], touched.size

    def _free(self, key: str) -> int:
        # The page-aligned tail cursor can start past a small growth region.
        return max(0, self._regions[key].n_slots - self._cursor[key])

    @property
    def free_slots(self) -> int:
        """Insert capacity left before the tightest region runs out."""
        return min(self._free(key) for key in self._regions)

    def check_capacity(self, n_slots_needed: int) -> None:
        """Raise :class:`~repro.core.layout.CapacityError` unless every
        region's tail holds ``n_slots_needed`` more slots.

        Pure-delete groups need no tail slots, so they must go through even
        when the tail has outrun a small growth region -- deletes are how
        capacity comes back.
        """
        for key, region in self._regions.items():
            if n_slots_needed and self._free(key) < n_slots_needed:
                raise CapacityError(
                    f"region {region.name!r} has {self._free(key)} free slots, "
                    f"need {n_slots_needed}; run a compaction pass or "
                    f"redeploy with more growth_entries"
                )

    # ------------------------------------------------------------- commit

    def apply(self, requests: Sequence[MutationRequest]) -> CommitResult:
        """Apply a mutation group atomically and return its commit.

        Mutations land in request order.  The group is validated and its
        capacity checked up front, so it either fits entirely or raises
        ``ValueError`` / :class:`~repro.core.layout.CapacityError` before
        any state changes.
        """
        _validate_group(
            requests, self.db.dim, self.db.has_metadata, self.index.n_clusters
        )
        n_writes = sum(1 for r in requests if r.op != "delete")
        self.check_capacity(n_writes)
        result = CommitResult()
        first_id = self.index.live.size
        live = np.concatenate([self.index.live, np.zeros(n_writes, dtype=bool)])
        appends = [
            request
            for request, _retired, fresh, _ack in _resolve_group(
                requests, live, first_id, result
            )
            if fresh is not None
        ]
        columns, staged, chunks = self._stage_appends(appends, first_id)
        result.seconds, result.pages_programmed = self._program_staged(staged)
        # Registry bookkeeping rides the controller DRAM.
        result.seconds += self.ssd.dram.access_time(
            max(1, len(requests)) * R_IVF_ENTRY_BYTES
        )
        self.index.commit(live[: first_id + len(appends)], **columns)
        if appends:
            self._extend_slot_table(columns["radr"], first_id)
        if self.db.corpus is not None:
            for chunk in chunks:
                self.db.corpus.add(chunk)
        self.db.n_entries = self.index.live_count()
        self.commits.append(result)
        return result

    def _stage_appends(
        self, appends: Sequence[MutationRequest], first_id: int
    ) -> Tuple[Dict[str, np.ndarray], Dict, List[DocumentChunk]]:
        """One group encode of the appended entries: their index columns,
        their staged ``(payloads, records)`` per region and their chunks.

        Both quantizers encode row-wise, so encoding the group as one
        matrix is bit-identical to encoding each insert alone.
        """
        step = np.arange(len(appends), dtype=np.int64)
        columns = {
            "cluster": np.array(
                [-1 if r.cluster is None else r.cluster for r in appends],
                dtype=np.int64,
            ),
            "eadr": self._cursor["embeddings"] + step,
            "radr": self._cursor["int8"] + step,
            "dadr": self._cursor["documents"] + step,
            "meta": np.array(
                [-1 if r.metadata_tag is None else r.metadata_tag for r in appends],
                dtype=np.int64,
            ),
        }
        if not appends:
            return columns, {}, []
        mat = np.stack([np.asarray(r.vector, dtype=np.float32) for r in appends])
        codes = self.db.binary_quantizer.encode(mat)
        codes_i8 = self.db.int8_quantizer.encode(mat)
        unpinned = columns["cluster"] < 0
        if unpinned.any():
            # Nearest centroid by packed Hamming distance (ties: lowest id).
            columns["cluster"][unpinned] = np.argmin(
                hamming_packed(codes[unpinned], self.centroid_codes), axis=1
            )
        records = oob_records(
            columns["dadr"], columns["radr"],
            columns["meta"] if self.db.has_metadata else None,
        )
        chunks = [
            DocumentChunk(
                chunk_id=entry_id,
                text=r.text if r.text is not None else f"chunk-{entry_id}",
            )
            for entry_id, r in enumerate(appends, first_id)
        ]
        item_bytes = self.db.document_region.item_bytes
        staged = {
            "embeddings": (codes, records),
            "int8": (codes_i8.view(np.uint8), None),
            "documents": (np.stack([c.encode_bytes(item_bytes) for c in chunks]), None),
        }
        return columns, staged, chunks

    def _program_staged(
        self, staged: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]]
    ) -> Tuple[float, Dict[str, int]]:
        """Seal the staged slots into whole tail pages, region by region.

        ``staged[key]`` is ``(payloads, records)``: one payload row per slot
        (at most ``item_bytes`` wide) and, for regions that carry OOB
        records, one record row per slot.
        """
        seconds = 0.0
        pages_programmed: Dict[str, int] = {}
        for key, region in self._regions.items():
            if key not in staged:
                pages_programmed[key] = 0
                continue
            first_page = self._cursor[key] // region.slots_per_page
            n_pages = program_slots(self.ssd, region, *staged[key], first_page)
            # Authority barrier: the tail pages just programmed supersede
            # any DRAM-mirrored copy of those page offsets.
            cache = self.ssd.page_cache
            if cache is not None:
                cache.invalidate_pages(region, first_page + np.arange(n_pages))
            program_s = self.timing.program_time(region.mode.timing_key)
            for _ in range(n_pages):
                seconds += program_s
            self._cursor[key] = (first_page + n_pages) * region.slots_per_page
            pages_programmed[key] = n_pages
        return seconds, pages_programmed

    def _extend_slot_table(self, radrs: np.ndarray, first_id: int) -> None:
        """Grow ``slot_to_original`` over the appended INT8 slots.

        The table is RADR-indexed (at deploy RADR == slot), which is how
        the rerank and the shard router map shortlist entries back to ids;
        padding slots stay ``-1``.
        """
        table = self.db.slot_to_original
        new_size = self._cursor["int8"]
        if new_size > table.size:
            table = np.concatenate(
                [table, np.full(new_size - table.size, -1, dtype=np.int64)]
            )
        table[radrs] = np.arange(first_id, first_id + radrs.size)
        self.db.slot_to_original = table

    # -------------------------------------------------------- maintenance

    def compact(self) -> CompactionResult:
        """Rewrite the regions into canonical packed form.

        Reads every live entry's payload back (golden ESP/ECC-corrected
        data -- the functional sim stores golden bytes), erases the region
        windows through the defragmenter, restores their cell modes and
        reprograms the live set cluster-major from slot zero: exactly the
        layout a fresh deployment of the live snapshot produces, which is
        why compaction cannot perturb query results.  The dadr divergence
        resets; reclaimed tail pages return to the erased headroom.
        """
        db = self.db
        index = self.index
        # Compaction rewrites whole region windows, so every mirrored page
        # of this device is suspect: clear the DRAM cache at the barrier.
        device_cache = self.ssd.page_cache
        if device_cache is not None:
            device_cache.clear()
        order = index.live_ids()
        result = CompactionResult(live_entries=int(order.size))
        pages_before = sum(
            self._cursor[key] // region.slots_per_page
            for key, region in self._regions.items()
        )

        # Read back one region at a time: every golden page holding a live
        # slot once, then one gather of the live payload rows.
        payloads: Dict[str, np.ndarray] = {}
        slots_of = {
            "embeddings": index.eadr[order],
            "int8": index.radr[order],
            "documents": index.dadr[order],
        }
        for key, region in self._regions.items():
            payloads[key], n_read = self._read_slots(region, slots_of[key])
            read_s = self.timing.read_time(region.mode.timing_key)
            for _ in range(n_read):
                result.seconds += read_s

        for key, region in self._regions.items():
            window = region.region
            cleared = Defragmenter(self.ssd).clear_window(
                window.start_page_in_plane, window.end_page_in_plane
            )
            result.seconds += cleared.seconds
            result.erased_blocks += cleared.erased_blocks
            self.ssd.hybrid.convert_region(
                window.start_page_in_plane, window.end_page_in_plane, region.mode
            )

        # Reprogram packed from slot 0 in canonical order; after packing
        # both OOB links equal the slot.
        slots = np.arange(order.size)
        records = oob_records(
            slots, slots, index.meta[order] if db.has_metadata else None
        )
        staged = {
            "embeddings": (payloads["embeddings"], records),
            "int8": (payloads["int8"], None),
            "documents": (payloads["documents"], None),
        }
        self._reset_tails(0)
        program_seconds, pages = self._program_staged(staged)
        result.seconds += program_seconds
        result.pages_programmed = sum(pages.values())

        # Rebuild the registry structures to the fresh-deploy state: the
        # R-IVF bounds are the running cluster sizes.
        db.r_ivf = RIvf.packed(
            np.bincount(index.cluster[order], minlength=index.n_clusters),
            self.ssd.dram, db.db_id,
        )
        index.repack()
        db.slot_to_original = order
        original_to_slot = np.full(index.live.size, -1, dtype=np.int64)
        original_to_slot[order] = np.arange(order.size, dtype=np.int64)
        db.original_to_slot = original_to_slot
        db.n_entries = int(order.size)
        result.seconds += self.ssd.dram.access_time(
            max(1, index.n_clusters) * R_IVF_ENTRY_BYTES
        )
        pages_after = sum(
            self._cursor[key] // region.slots_per_page
            for key, region in self._regions.items()
        )
        result.reclaimed_pages = pages_before - pages_after
        return result


# --------------------------------------------------------------- queue


class IngestQueue(SubmissionQueue):
    """A submission queue that serves mutations alongside queries.

    Mutations are submitted like queries (an insert's vector doubles as
    its forming-estimate query; deletes carry a zero vector) and batch
    with reads under the same forming policy, deadlines and tenant
    fairness.  When a batch closes, its mutations commit *first* (in
    submission order) and the batch's reads then execute against the
    mutated database -- every read observes every mutation of its own
    batch, and the commit time lands on the same simulated clock the
    reads' service time does.
    """

    # The submission table gains a column: each row's mutation request (0
    # for a read), so one truth mask splits a batch.
    _COLUMNS = SubmissionQueue._COLUMNS + ("_requests",)

    def __init__(
        self,
        executor,
        db,
        manager: Union[IngestManager, "ShardedIngestCoordinator"],
        *,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        policy: Optional[QueuePolicy] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        super().__init__(
            executor, db, k=k, nprobe=nprobe, fetch_documents=fetch_documents,
            metadata_filter=metadata_filter, policy=policy, clock=clock,
        )
        self.manager = manager
        self.mutation_acks: Dict[int, MutationAck] = {}
        self._requests = np.zeros(0, dtype=object)

    # ---------------------------------------------------------- submission

    def submit_insert(
        self,
        vector: np.ndarray,
        text: Optional[str] = None,
        metadata_tag: Optional[int] = None,
        tenant: str = "default",
        deadline_s: float = math.inf,
        at_s: Optional[float] = None,
    ) -> int:
        return self._submit_mutation(
            tenant, deadline_s, at_s, op="insert", vector=vector, text=text,
            metadata_tag=metadata_tag,
        )

    def submit_delete(
        self,
        entry_id: int,
        tenant: str = "default",
        deadline_s: float = math.inf,
        at_s: Optional[float] = None,
    ) -> int:
        return self._submit_mutation(
            tenant, deadline_s, at_s, op="delete", entry_id=int(entry_id)
        )

    def submit_update(
        self,
        entry_id: int,
        vector: np.ndarray,
        text: Optional[str] = None,
        metadata_tag: Optional[int] = None,
        tenant: str = "default",
        deadline_s: float = math.inf,
        at_s: Optional[float] = None,
    ) -> int:
        return self._submit_mutation(
            tenant, deadline_s, at_s, op="update", entry_id=int(entry_id),
            vector=vector, text=text, metadata_tag=metadata_tag,
        )

    def _submit_mutation(
        self, tenant: str, deadline_s: float, at_s: Optional[float], **fields
    ) -> int:
        """Enqueue one mutation; its vector doubles as the forming-estimate
        query (a delete carries zeros).  Tags are checked before anything is
        enqueued: a bad one, or a missing one on a tagged database, would
        otherwise only be refused at commit."""
        if fields["op"] == "delete":
            query = np.zeros(self.db.dim, dtype=np.float32)
        else:
            query = fields["vector"] = np.asarray(fields["vector"], dtype=np.float32)
            if fields["metadata_tag"] is not None:
                fields["metadata_tag"] = int(
                    validate_metadata_tags(fields["metadata_tag"], "metadata_tag")
                )
            elif self.db.has_metadata:
                raise ValueError(_MISSING_TAG)
        request = MutationRequest(**fields)
        sub_id = self.submit(query, tenant=tenant, deadline_s=deadline_s, at_s=at_s)
        self._requests[sub_id] = request
        return sub_id

    # ------------------------------------------------------------- serving

    def _execute(self, rows: np.ndarray, queries: np.ndarray) -> BatchExecution:
        """Commit the batch's mutations, then run its reads against the
        mutated database; acks and results come back in row order."""
        requests = self._requests[rows]
        writes = requests.astype(bool)
        results: List[object] = [None] * rows.size
        commit: Optional[CommitResult] = None
        if np.logical_or.reduce(writes):
            # A refused group (CapacityError) changes nothing: re-queued rows
            # keep their requests.  A committed one is acked, never re-queued.
            commit = self.manager.apply(requests[writes].tolist())
            for i, ack in zip(writes.nonzero()[0].tolist(), commit.acks):
                ack.latency.add_phase("ingest", commit.seconds)
                ack.latency.total_s = commit.seconds
                self.mutation_acks[int(rows[i])] = ack
                results[i] = ack
        reads = ~writes
        if np.logical_or.reduce(reads):
            execution = super()._execute(rows[reads], queries[reads])
        else:
            execution = BatchExecution(
                results=[], report=LatencyReport(), stats=BatchStats()
            )
        if commit is not None and commit.seconds > 0:
            execution.report.add_phase("ingest", commit.seconds)
            execution.report.add_component("ingest_commit", commit.seconds)
            execution.report.total_s += commit.seconds
        for i, result in zip(reads.nonzero()[0].tolist(), execution.results):
            results[i] = result
        execution.results = results
        return execution

    def _requeue(self, rows: np.ndarray) -> None:
        # Mutations that committed before the batch failed keep their acks
        # and must not be applied twice: only the rest goes back.
        ids = rows.tolist()
        acked = np.fromiter(map(self.mutation_acks.__contains__, ids), bool, len(ids))
        self.former.release(rows[acked])
        super()._requeue(rows[~acked])


# -------------------------------------------------------------- sharding


class ShardedIngestCoordinator:
    """Routes mutations to owning shards and keeps the merge keys global.

    One per sharded database.  Its state is the database's placement table
    (:class:`~repro.core.shard.ShardAssignment`): ``live`` and ``next_id``
    are read off its ``global_slot``.  Inserts resolve their *global*
    cluster against the full centroid set (same codecs as every shard) and
    go to every owner of it, deletes to every servable copy of the id (an
    owner of its cluster holding it).  Each shard's :class:`IngestManager`
    commits with the cluster pinned (shard-local id) so the shard does not
    re-derive assignment from its partial centroid view; a copy's
    shard-local id is its position in the ascending ``shard_vectors[s]`` (a
    ``searchsorted``).

    No write lands on a dead shard: a dead owner is passed over and the
    commit demotes it from the cluster; a write with no live copy refuses
    the whole group with :class:`~repro.core.shard.ShardUnavailableError`
    before any shard commits.  After every commit the table is replaced by
    its :meth:`~repro.core.shard.ShardAssignment.append` (and
    :meth:`~repro.core.shard.ShardAssignment.demote`), which is all the
    router needs to keep distance-merged results bit-identical to one big
    device.
    """

    def __init__(self, device, db_id: int) -> None:
        self.device = device
        self.db_id = db_id
        self.sdb = device.database(db_id)
        self.managers: Dict[int, IngestManager] = {}
        for shard in self.sdb.active_shards:
            self.attach(shard)
        # Codec anchor through the router, not shard 0 -- shard 0 may be
        # drained (owns nothing under a skewed split) or dead.
        anchor_shard = device.router.resolve_anchor(self.sdb)
        self._binary = self.sdb.shard_dbs[anchor_shard].binary_quantizer
        self.centroid_codes = self._binary.encode(self.sdb.ivf_model.centroids)
        self.commits: List[CommitResult] = []

    @property
    def next_id(self) -> int:
        return int(self.sdb.assignment.global_slot.size)

    def attach(self, shard: int) -> None:
        """Give ``shard``'s current piece its ingest manager -- at creation,
        and after a migration re-materialized the piece."""
        if shard in self.managers:
            self.managers[shard].tombstones.release()
        self.managers[shard] = IngestManager(
            self.device.shards[shard].ssd, self.sdb.shard_dbs[shard]
        )

    def members_by_cluster(self) -> List[np.ndarray]:
        """Live global ids per cluster, in scan order."""
        assignment = self.sdb.assignment
        cluster_of = assignment.cluster_of_vector
        order = scan_order(assignment.live, cluster_of)
        return _split_by_cluster(order, cluster_of[order], self.sdb.n_clusters)

    # ------------------------------------------------------------- routing

    def _copies(self, global_id: int) -> List[Tuple[int, int]]:
        """(shard, local id) of every servable copy of a deployed id: each
        owner of its cluster that holds it.  A shard that lost the cluster
        (a migration's source, a demoted dead shard) keeps a stale copy
        nobody serves, so mutations skip it too."""
        assignment = self.sdb.assignment
        copies = []
        for shard in assignment.owners_of(assignment.cluster_of_vector[global_id]):
            mine = assignment.shard_vectors[shard]
            local = int(np.searchsorted(mine, global_id))
            if local < mine.size and mine[local] == global_id:
                copies.append((shard, local))
        return copies

    def _live_only(
        self, cluster: int, copies: List[Tuple[int, int]], demoted: set
    ) -> List[Tuple[int, int]]:
        """The ``copies`` on live shards.  Passing a dead one over marks
        ``cluster`` for demotion; with none live the group is refused."""
        failed = self.device.router.failed_shards
        live = [copy for copy in copies if copy[0] not in failed]
        if not live:
            raise ShardUnavailableError(cluster)
        if len(live) < len(copies):
            demoted.add(cluster)
        return live

    def apply(self, requests: Sequence[MutationRequest]) -> CommitResult:
        """Route one mutation group and commit it on every shard it touches,
        or on none.

        The group is validated, routed (live copies only) and every target
        shard's capacity checked against its share before any shard
        commits; the table is replaced only after all of them have.
        """
        _validate_group(
            requests, self.sdb.dim, self.sdb.has_metadata,
            len(self.centroid_codes),
        )
        assignment = self.sdb.assignment
        result = CommitResult()
        n_writes = sum(1 for r in requests if r.op != "delete")
        live = np.concatenate([assignment.live, np.zeros(n_writes, dtype=bool)])
        resolved = _resolve_group(requests, live, self.next_id, result)
        appends = [r for r, _retired, fresh_id, _ack in resolved if fresh_id is not None]
        if appends:
            codes = self._binary.encode(
                np.stack([np.asarray(r.vector, dtype=np.float32) for r in appends])
            )
            clusters = iter(
                np.argmin(hamming_packed(codes, self.centroid_codes), axis=1).tolist()
            )
        local_ids = {s: assignment.local_cluster_ids(s) for s in self.managers}
        per_shard: Dict[int, List[MutationRequest]] = {}
        added: Dict[int, List[int]] = {}  # shard -> this group's new global ids
        copies_of: Dict[int, List[Tuple[int, int]]] = {}  # of this group's ids
        demoted: set = set()  # clusters a dead owner was passed over in
        # Per new entry: its chunk (global id + text), global cluster and
        # request.
        fresh: List[Tuple[DocumentChunk, int, MutationRequest]] = []
        plans: List[Tuple[MutationAck, List[Tuple[int, int]]]] = []

        def enqueue(shard: int, request: MutationRequest) -> Tuple[int, int]:
            per_shard.setdefault(shard, []).append(request)
            return shard, len(per_shard[shard]) - 1

        for request, retired, global_id, ack in resolved:
            hits = []
            if retired is not None:
                # Every live copy gets tombstoned (replicas hold it too).
                copies = copies_of.get(retired) or self._live_only(
                    int(assignment.cluster_of_vector[retired]),
                    self._copies(retired), demoted,
                )
                for shard, local in copies:
                    hits.append(enqueue(
                        shard, MutationRequest(op="delete", entry_id=local)
                    ))
            if global_id is not None:
                cluster = next(clusters)
                text = request.text if request.text is not None else f"chunk-{global_id}"
                # A copy on every owner (shard, local cluster id): replicas
                # hold full cluster membership, which is what makes
                # mid-batch failover bit-identical.
                targets = self._live_only(cluster, [
                    (shard, local_ids[shard][cluster])
                    for shard in assignment.owners_of(cluster)
                ], demoted)
                copies_of[global_id] = []
                for shard, local_cluster in targets:
                    hits.append(enqueue(shard, MutationRequest(
                        op="insert", vector=request.vector, text=text,
                        metadata_tag=request.metadata_tag, cluster=local_cluster,
                    )))
                    shard_ids = added.setdefault(shard, [])
                    local = assignment.shard_vectors[shard].size + len(shard_ids)
                    copies_of[global_id].append((shard, local))
                    shard_ids.append(global_id)
                fresh.append((DocumentChunk(chunk_id=global_id, text=text), cluster, request))
            plans.append((ack, hits))

        for shard, shard_requests in per_shard.items():
            self.managers[shard].check_capacity(
                sum(1 for r in shard_requests if r.op == "insert")
            )
        shard_commits = {
            shard: self.managers[shard].apply(shard_requests)
            for shard, shard_requests in per_shard.items()
        }
        for commit in shard_commits.values():
            for key, pages in commit.pages_programmed.items():
                result.pages_programmed[key] = (
                    result.pages_programmed.get(key, 0) + pages
                )
        # Shards commit in parallel: the group costs its slowest shard.
        result.seconds = max(
            (commit.seconds for commit in shard_commits.values()), default=0.0
        )
        for ack, hits in plans:
            # AND over every replica's ack: a partially applied mutation
            # would silently desync replicas, so it reports failure.
            for shard, index in hits:
                ack.applied = ack.applied and shard_commits[shard].acks[index].applied
        self._commit_table(live[: self.next_id + len(fresh)], fresh, added, demoted)
        self.commits.append(result)
        return result

    def _commit_table(
        self,
        live: np.ndarray,
        fresh: List[Tuple[DocumentChunk, int, MutationRequest]],
        added: Dict[int, List[int]],
        demoted: set,
    ) -> None:
        """Replace the table with its edit for one committed group, and
        extend the host mirrors by the group's new entries."""
        sdb = self.sdb
        table = sdb.assignment.append(
            np.array([f[1] for f in fresh], dtype=np.int64), added, live
        )
        if demoted:
            table = table.demote(
                sorted(demoted), sorted(self.device.router.failed_shards)
            )
        sdb.assignment = table
        sdb.n_entries = int(np.count_nonzero(live))
        if not fresh:
            return
        sdb.vectors = np.vstack(
            [sdb.vectors]
            + [np.asarray(f[2].vector, dtype=np.float32)[None, :] for f in fresh]
        )
        if sdb.corpus is not None:
            for chunk, _cluster, _request in fresh:
                sdb.corpus.add(chunk)
        if sdb.metadata_tags is not None:
            sdb.metadata_tags = np.concatenate([
                sdb.metadata_tags,
                np.array([f[2].metadata_tag for f in fresh], dtype=np.uint32),
            ])

    # -------------------------------------------------------- maintenance

    def compact(self) -> CompactionResult:
        """Compact every shard; shards run their passes in parallel.

        Shard-local layouts re-pack but global ids, ownership and the
        canonical ``global_slot`` are untouched -- local positions in
        ``shard_vectors`` are stable by construction.
        """
        return CompactionResult.concurrent(
            manager.compact() for manager in self.managers.values()
        )
