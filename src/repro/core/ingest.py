"""Streaming mutability: inserts / deletes / updates under live traffic.

REIS deployments so far were immutable -- ``IVF_Deploy`` froze the corpus
into cluster-major regions and every later PR served reads off that frozen
layout.  Real retrieval corpora churn, so this module adds the mutation
path (Sec. 7.2's normal/RAG mode split already gives the maintenance
window; this gives the foreground path):

* **Inserts** append entries to the erased *growth tail* of the deployed
  regions (``growth_entries`` headroom reserved by
  :meth:`~repro.core.layout.DatabaseDeployer.deploy`).  The entry is
  assigned to its nearest centroid -- re-encoded with the deployment's own
  codecs and compared against the centroid codes read back from the
  centroid region, the same XOR+popcount the coarse scan performs -- and
  programmed with the same payload/OOB wire format the deployer uses, so
  the scan pipeline needs no new read path.
* **Deletes** tombstone the entry in the controller-DRAM
  :class:`~repro.core.registry.TombstoneRegistry`; the flash pages are
  untouched and the scan simply skips the entry (dead slots drop out of
  the :meth:`MutableIndex.slot_ranges` the fine search scans).
* **Updates** compose the two: tombstone the old entry, append the new
  vector under a *fresh* id.  Ids are never reused -- reusing one would
  place it out of ascending-id order inside its cluster and break the
  bit-identity contract below.

**Bit-identity contract.**  After any interleaving of mutations and
queries, a query against the mutated database returns results bit-identical
to the same query against a *fresh deployment of the live snapshot* (same
codecs, same clusters, live entries only).  This holds because the engine's
candidate stream is fully determined by the per-cluster entry sequence
(ascending slot == ascending id within each cluster) and every downstream
selection is a stable (distance, arrival-order) quickselect
(:meth:`~repro.core.registry.TemporalTopList.select_smallest`).  Appends
preserve ascending id order per cluster; tombstones only remove entries;
so the mutated scan enumerates exactly the sequence the snapshot deploy
would.  :meth:`IngestManager.compact` rewrites the regions into canonical
packed form (the maintenance pass schedulers overlap with serving) and is
a no-op for that entry sequence.

Sharded deployments route mutations through
:class:`ShardedIngestCoordinator`: the owning shard is derived from the
placement policy (cluster owner, or ``id % n_shards`` for round-robin) and
the global merge keys (``global_slot``, ``cluster_of_vector``,
``shard_vectors``) are re-derived after every commit so the router's
distance-merge stays bit-identical to the single-device engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ann.distances import hamming_packed
from repro.core.batch import BatchExecution, BatchStats
from repro.core.defrag import Defragmenter
from repro.core.layout import CapacityError, DeployedDatabase, RegionInfo
from repro.core.plan import SearchStats, validate_metadata_tags
from repro.core.queue import QueuePolicy, Submission, SubmissionQueue
from repro.core.registry import R_IVF_ENTRY_BYTES, RIvf, RIvfEntry, TombstoneRegistry
from repro.rag.documents import DocumentChunk
from repro.sim.latency import LatencyReport, SimClock
from repro.ssd.allocation import ContiguousRegionAllocator
from repro.ssd.device import SimulatedSSD

MUTATION_OPS = ("insert", "delete", "update")


# ------------------------------------------------------------- requests


@dataclass(frozen=True)
class MutationRequest:
    """One corpus mutation, expressed host-side.

    ``cluster`` and ``assign_id`` pin the (local) cluster assignment and
    the assigned id; the sharded coordinator uses them to route a
    globally-resolved mutation into a shard without re-deriving either.
    Host callers normally leave both ``None``.
    """

    op: str
    vector: Optional[np.ndarray] = None
    entry_id: Optional[int] = None  # delete/update target
    text: Optional[str] = None
    metadata_tag: Optional[int] = None
    cluster: Optional[int] = None
    assign_id: Optional[int] = None

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
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    distances: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    documents: List[DocumentChunk] = field(default_factory=list)
    latency: LatencyReport = field(default_factory=LatencyReport)
    stats: SearchStats = field(default_factory=SearchStats)


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


# -------------------------------------------------------- mutable index


@dataclass
class EntryInfo:
    """Where one live entry physically lives (all three regions)."""

    cluster: int
    eadr: int  # embedding slot
    radr: int  # INT8 slot
    dadr: int  # document slot
    meta: int = -1


class MutableIndex:
    """Live cluster membership layered over a deployed database.

    The deployer's R-IVF describes contiguous ``[first, last]`` slot ranges;
    once entries are appended to the growth tail and tombstoned in place,
    membership becomes a per-cluster *list* of embedding slots.  The index
    keeps those lists in ascending slot order -- which, by construction
    (monotone id assignment, appends in arrival order), is ascending id
    order, the canonical single-device scan order -- and hands the engine
    maximal consecutive-slot runs so the page-major scan machinery is
    reused unchanged (:meth:`~repro.core.engine.InStorageAnnsEngine.
    _slot_ranges` dispatches here when the database carries an index).
    """

    def __init__(self, db: DeployedDatabase, tombstones: TombstoneRegistry) -> None:
        if db.r_ivf is None:
            raise ValueError("a mutable index requires an IVF deployment")
        self.db = db
        self.tombstones = tombstones
        self.members: List[List[Tuple[int, int]]] = [
            [] for _ in range(len(db.r_ivf))
        ]  # per cluster: (embedding slot, entry id), ascending slot
        self.entries: Dict[int, EntryInfo] = {}
        # Document slot -> entry id over the whole document region (-1:
        # none).  At deploy DADR == slot; appended entries' document slots
        # diverge from their embedding slots (one tail cursor per region).
        self.dadr_to_id = np.full(db.document_region.n_slots, -1, dtype=np.int64)
        self.dadr_to_id[: db.slot_to_original.size] = db.slot_to_original
        for cluster, record in enumerate(db.r_ivf.entries):
            for slot in range(record.first_embedding, record.last_embedding + 1):
                entry_id = int(db.slot_to_original[slot])
                meta = (
                    int(db.metadata_tags[entry_id]) if db.has_metadata else -1
                )
                self.members[cluster].append((slot, entry_id))
                self.entries[entry_id] = EntryInfo(cluster, slot, slot, slot, meta)

    # ------------------------------------------------------------ queries

    def is_live(self, entry_id: int) -> bool:
        return entry_id in self.entries and not self.tombstones.is_dead(entry_id)

    def live_count(self) -> int:
        return sum(len(m) for m in self.members)

    def live_ids(self) -> List[int]:
        """All live ids in canonical scan order (cluster-major, ascending)."""
        return [entry_id for m in self.members for _, entry_id in m]

    def slot_ranges(self, clusters: Optional[Sequence[int]]) -> List[Tuple[int, int]]:
        """Maximal runs of consecutive live embedding slots, scan order."""
        cluster_ids = range(len(self.members)) if clusters is None else clusters
        ranges: List[Tuple[int, int]] = []
        for cluster in cluster_ids:
            run_start: Optional[int] = None
            run_end = -1
            for slot, _entry_id in self.members[cluster]:
                if run_start is None:
                    run_start, run_end = slot, slot
                elif slot == run_end + 1:
                    run_end = slot
                else:
                    ranges.append((run_start, run_end))
                    run_start, run_end = slot, slot
            if run_start is not None:
                ranges.append((run_start, run_end))
        return ranges

    # ---------------------------------------------------------- mutation

    def insert(
        self, entry_id: int, cluster: int, eadr: int, radr: int, dadr: int, meta: int
    ) -> None:
        if entry_id in self.entries:
            raise ValueError(f"entry id {entry_id} already exists")
        members = self.members[cluster]
        if members and members[-1][0] >= eadr:
            raise ValueError("appends must keep ascending slot order")
        members.append((eadr, entry_id))
        self.entries[entry_id] = EntryInfo(cluster, eadr, radr, dadr, meta)
        self.dadr_to_id[dadr] = entry_id

    def remove(self, entry_id: int) -> None:
        info = self.entries[entry_id]
        self.members[info.cluster].remove((info.eadr, entry_id))


# ------------------------------------------------------------- manager


class IngestManager:
    """The device-side mutation path for one deployed IVF database.

    Owns the per-region tail cursors (page-aligned: a NAND page programs
    once, so each commit seals whole tail pages), the parallelism-first
    tail allocators (fast-forwarded past the deployed pages; the rotation
    is identical to the coarse region's offset order, so allocation *k*
    lands on region offset *k*), the tombstone registry and the
    :class:`MutableIndex` it installs on the database.
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
        self.index = MutableIndex(db, self.tombstones)
        db.mutable_index = self.index
        self.next_id = (
            int(db.slot_to_original.max()) + 1 if db.slot_to_original.size else 0
        )
        self.centroid_codes = self._read_centroid_codes()
        self.commits: List[CommitResult] = []
        self._regions: Dict[str, RegionInfo] = {
            "embeddings": db.embedding_region,
            "int8": db.int8_region,
            "documents": db.document_region,
        }
        self._cursor: Dict[str, int] = {}
        self._allocators: Dict[str, ContiguousRegionAllocator] = {}
        self._reset_tails(db.n_entries)

    def _reset_tails(self, n_live_slots: int) -> None:
        """Point every region's cursor at its first erased tail page."""
        for key, region in self._regions.items():
            pages = math.ceil(n_live_slots / region.slots_per_page)
            self._cursor[key] = pages * region.slots_per_page
            allocator = ContiguousRegionAllocator(
                self.geometry, region.region.start_page_in_plane
            )
            allocator.advance(pages)
            self._allocators[key] = allocator

    def _read_centroid_codes(self) -> np.ndarray:
        """Centroid codes sensed back from the centroid region (ESP-SLC is
        error-free, so the golden page *is* the sensed page)."""
        region = self.db.centroid_region
        codes = np.empty((region.n_slots, self.db.code_bytes), dtype=np.uint8)
        for page_offset in range(region.n_pages):
            ppa = region.region.translate(page_offset, self.geometry)
            plane = self.ssd.array.plane(ppa)
            data, _oob = plane.golden_page(ppa.block, ppa.page)
            start = page_offset * region.slots_per_page
            stop = min(start + region.slots_per_page, region.n_slots)
            for i, slot in enumerate(range(start, stop)):
                offset = i * region.item_bytes
                codes[slot] = data[offset : offset + self.db.code_bytes]
        return codes

    def assign_cluster(self, code: np.ndarray) -> int:
        """Nearest centroid by packed Hamming distance (ties: lowest id)."""
        return int(np.argmin(hamming_packed(code, self.centroid_codes)))

    @property
    def free_slots(self) -> int:
        """Insert capacity left before the tightest region runs out."""
        return min(
            region.n_slots - self._cursor[key]
            for key, region in self._regions.items()
        )

    # ------------------------------------------------------------- commit

    def apply(self, requests: Sequence[MutationRequest]) -> CommitResult:
        """Apply a mutation group atomically and return its commit.

        Mutations land in request order.  Capacity is checked up front so
        a group either fits entirely or raises :class:`~repro.core.layout.
        CapacityError` before any state changes.
        """
        n_slots_needed = sum(1 for r in requests if r.op in ("insert", "update"))
        for key, region in self._regions.items():
            # Pure-delete groups need no tail slots, so they must go
            # through even when the (page-aligned) tail has outrun a small
            # growth region -- deletes are how capacity comes back.
            if n_slots_needed and self._cursor[key] + n_slots_needed > region.n_slots:
                raise CapacityError(
                    f"region {region.name!r} has "
                    f"{region.n_slots - self._cursor[key]} free slots, "
                    f"need {n_slots_needed}; run a compaction pass or "
                    f"redeploy with more growth_entries"
                )
        result = CommitResult()
        staged: Dict[str, List[Tuple[np.ndarray, Optional[np.ndarray]]]] = {
            key: [] for key in self._regions
        }
        new_radr_ids: List[Tuple[int, int]] = []
        precoded = self._batch_encode(requests)
        for index, request in enumerate(requests):
            if request.op == "insert":
                ack = self._stage_insert(
                    request, staged, new_radr_ids, precoded.get(index)
                )
                result.n_inserts += 1
                if ack.applied:
                    result.ids.append(ack.entry_id)
            elif request.op == "delete":
                ack = self._apply_delete(int(request.entry_id))
                result.n_deletes += 1
            else:  # update = delete old + insert fresh id
                old_id = int(request.entry_id)
                if not self.index.is_live(old_id):
                    ack = MutationAck(
                        op="update", entry_id=old_id, applied=False,
                        note="target entry is not live",
                    )
                else:
                    self._apply_delete(old_id)
                    ack = self._stage_insert(
                        request, staged, new_radr_ids, precoded.get(index)
                    )
                    ack.op = "update"
                    ack.replaced_id = old_id
                    result.ids.append(ack.entry_id)
                result.n_updates += 1
            result.acks.append(ack)
        result.seconds, result.pages_programmed = self._program_staged({
            key: (
                np.stack([payload for payload, _record in items]),
                None if items[0][1] is None
                else np.stack([record for _payload, record in items]),
            )
            for key, items in staged.items() if items
        })
        # Registry bookkeeping rides the controller DRAM.
        result.seconds += self.ssd.dram.access_time(
            max(1, len(requests)) * R_IVF_ENTRY_BYTES
        )
        self._extend_slot_table(new_radr_ids)
        self.db.n_entries = self.index.live_count()
        self.commits.append(result)
        return result

    def _apply_delete(self, entry_id: int) -> MutationAck:
        if not self.index.is_live(entry_id):
            return MutationAck(
                op="delete", entry_id=entry_id, applied=False,
                note="target entry is not live",
            )
        self.tombstones.mark(entry_id)
        self.index.remove(entry_id)
        return MutationAck(op="delete", entry_id=entry_id, applied=True)

    def _batch_encode(
        self, requests: Sequence[MutationRequest]
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Group-batched quantizer encode of a commit group's insert vectors.

        Both quantizers encode row-wise (``encode_one(v) == encode(v[None])
        [0]``), so encoding the whole group as one matrix is bit-identical
        to the per-insert calls it replaces.  Malformed vectors are left
        out; :meth:`_stage_insert` raises its usual error at that request's
        turn in the commit order.
        """
        rows: List[np.ndarray] = []
        indices: List[int] = []
        for index, request in enumerate(requests):
            if request.op not in ("insert", "update") or request.vector is None:
                continue
            vector = np.asarray(request.vector, dtype=np.float32)
            if vector.shape != (self.db.dim,):
                continue
            rows.append(vector)
            indices.append(index)
        if not rows:
            return {}
        mat = np.stack(rows)
        codes = self.db.binary_quantizer.encode(mat)
        codes_i8 = self.db.int8_quantizer.encode(mat)
        return {
            index: (codes[j], codes_i8[j]) for j, index in enumerate(indices)
        }

    def _stage_insert(
        self,
        request: MutationRequest,
        staged: Dict[str, List[Tuple[np.ndarray, Optional[np.ndarray]]]],
        new_radr_ids: List[Tuple[int, int]],
        precoded: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> MutationAck:
        vector = np.asarray(request.vector, dtype=np.float32)
        if vector.shape != (self.db.dim,):
            raise ValueError(f"insert vector must have dim {self.db.dim}")
        if self.db.has_metadata and request.metadata_tag is None:
            raise ValueError(
                "this database carries metadata tags; inserts must supply one"
            )
        entry_id = (
            self.next_id if request.assign_id is None else int(request.assign_id)
        )
        self.next_id = max(self.next_id, entry_id + 1)
        if precoded is None:
            code = self.db.binary_quantizer.encode_one(vector)
            code_i8 = self.db.int8_quantizer.encode_one(vector)
        else:
            code, code_i8 = precoded
        cluster = (
            self.assign_cluster(code)
            if request.cluster is None
            else int(request.cluster)
        )
        eadr = self._cursor["embeddings"] + len(staged["embeddings"])
        radr = self._cursor["int8"] + len(staged["int8"])
        dadr = self._cursor["documents"] + len(staged["documents"])
        meta = -1 if request.metadata_tag is None else int(request.metadata_tag)
        # Same OOB wire format the deployer writes: DADR + RADR words,
        # plus the metadata tag word when the database carries tags.
        words = [dadr, radr]
        if self.db.has_metadata:
            words.append(meta)
        oob = np.frombuffer(
            np.array(words, dtype="<u4").tobytes(), dtype=np.uint8
        ).copy()
        staged["embeddings"].append((code, oob))
        staged["int8"].append((code_i8.view(np.uint8), None))
        text = request.text if request.text is not None else f"chunk-{entry_id}"
        chunk = DocumentChunk(chunk_id=entry_id, text=text)
        staged["documents"].append(
            (chunk.encode_bytes(self.db.document_region.item_bytes), None)
        )
        self.index.insert(entry_id, cluster, eadr, radr, dadr, meta)
        new_radr_ids.append((radr, entry_id))
        if self.db.corpus is not None:
            self.db.corpus.add(chunk)
        return MutationAck(op="insert", entry_id=entry_id, applied=True)

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
        g = self.geometry
        for key, region in self._regions.items():
            if key not in staged:
                pages_programmed[key] = 0
                continue
            payloads, records = staged[key]
            spp = region.slots_per_page
            cursor = self._cursor[key]
            n_pages = math.ceil(len(payloads) / spp)
            # Authority barrier: the tail pages programmed below supersede
            # any DRAM-mirrored copy of those page offsets.
            cache = getattr(self.ssd, "page_cache", None)
            if cache is not None:
                cache.invalidate_pages(region, cursor // spp + np.arange(n_pages))
            for j in range(n_pages):
                rows = payloads[j * spp : (j + 1) * spp]
                data = np.zeros(g.page_bytes, dtype=np.uint8)
                data[: spp * region.item_bytes].reshape(spp, region.item_bytes)[
                    : len(rows), : rows.shape[1]
                ] = rows
                oob: Optional[np.ndarray] = None
                if records is not None:
                    packed = records[j * spp : (j + 1) * spp].ravel()
                    oob = np.zeros(g.oob_bytes, dtype=np.uint8)
                    oob[: packed.size] = packed
                ppa = self._allocators[key].allocate()
                expected = region.region.translate(cursor // spp + j, g)
                if ppa.to_linear(g) != expected.to_linear(g):
                    raise RuntimeError(
                        f"tail allocator diverged from region striping in {key}"
                    )
                self.ssd.array.program(ppa, data, oob)
                seconds += self.timing.program_time(region.mode.timing_key)
            self._cursor[key] = (cursor // spp + n_pages) * spp
            pages_programmed[key] = n_pages
        return seconds, pages_programmed

    def _extend_slot_table(self, new_radr_ids: List[Tuple[int, int]]) -> None:
        """Grow ``slot_to_original`` over the appended INT8 slots.

        The table is RADR-indexed (at deploy RADR == slot), which is how
        the rerank and the shard router map shortlist entries back to ids;
        padding slots stay ``-1``.
        """
        if not new_radr_ids:
            return
        new_size = self._cursor["int8"]
        table = self.db.slot_to_original
        if new_size > table.size:
            extended = np.full(new_size, -1, dtype=np.int64)
            extended[: table.size] = table
            table = extended
        for radr, entry_id in new_radr_ids:
            table[radr] = entry_id
        self.db.slot_to_original = table

    # -------------------------------------------------------- maintenance

    def compact(self) -> CompactionResult:
        """Rewrite the regions into canonical packed form.

        Reads every live entry's payload back (golden ESP/ECC-corrected
        data -- the functional sim stores golden bytes), erases the region
        windows through the defragmenter, restores their cell modes and
        reprograms the live set cluster-major from slot zero: exactly the
        layout a fresh deployment of the live snapshot produces, which is
        why compaction cannot perturb query results.  Tombstones and the
        dadr divergence reset; reclaimed tail pages return to the erased
        headroom.
        """
        db = self.db
        g = self.geometry
        # Compaction rewrites whole region windows, so every mirrored page
        # of this device is suspect: clear the DRAM cache at the barrier.
        device_cache = getattr(self.ssd, "page_cache", None)
        if device_cache is not None:
            device_cache.clear()
        order: List[Tuple[int, EntryInfo]] = [
            (entry_id, self.index.entries[entry_id])
            for entry_id in self.index.live_ids()
        ]
        result = CompactionResult(live_entries=len(order))
        pages_before = sum(
            self._cursor[key] // region.slots_per_page
            for key, region in self._regions.items()
        )

        # Read back one region at a time: every golden page holding a live
        # slot once, then one gather of the live payload rows.
        payloads: Dict[str, np.ndarray] = {}
        # One pass over the live entries yields all three slot columns.
        eadrs, radrs, dadrs = np.array(
            [(info.eadr, info.radr, info.dadr) for _entry_id, info in order],
            dtype=np.int64,
        ).reshape(-1, 3).T
        slots_of = {"embeddings": eadrs, "int8": radrs, "documents": dadrs}
        for key, region in self._regions.items():
            width = db.code_bytes if key == "embeddings" else region.item_bytes
            page_offsets, slot_in_page = np.divmod(
                slots_of[key], region.slots_per_page
            )
            touched, row_of = np.unique(page_offsets, return_inverse=True)
            pages = np.empty((touched.size, g.page_bytes), dtype=np.uint8)
            for row, page_offset in enumerate(touched.tolist()):
                ppa = region.region.translate(page_offset, g)
                pages[row], _ = self.ssd.array.plane(ppa).golden_view(
                    ppa.block, ppa.page
                )
                result.seconds += self.timing.read_time(region.mode.timing_key)
            items = pages[:, : region.slots_per_page * region.item_bytes].reshape(
                touched.size, region.slots_per_page, region.item_bytes
            )
            payloads[key] = items[row_of, slot_in_page, :width]

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

        # Reprogram packed from slot 0 in canonical order and rebuild the
        # registry structures to the fresh-deploy state.
        metas = [info.meta for _entry_id, info in order]
        # Same OOB wire format the deployer writes (DADR + RADR words, plus
        # the metadata tag word); after packing both equal the slot.
        slot_words = np.arange(len(order), dtype="<u4")
        words = [slot_words, slot_words]
        if db.has_metadata:
            words.append(np.array(metas, dtype="<u4"))
        records = np.stack(words, axis=1).view(np.uint8)
        staged = {
            "embeddings": (payloads["embeddings"], records),
            "int8": (payloads["int8"], None),
            "documents": (payloads["documents"], None),
        }
        self._reset_tails(0)
        program_seconds, pages = self._program_staged(staged)
        result.seconds += program_seconds
        result.pages_programmed = sum(pages.values())

        entries: List[RIvfEntry] = []
        cursor = 0
        for cluster in range(len(self.index.members)):
            first = cursor
            cursor += len(self.index.members[cluster])
            entries.append(
                RIvfEntry(
                    centroid_addr=cluster,
                    first_embedding=first,
                    last_embedding=cursor - 1,
                    tag=cluster & 0xFF,
                )
            )
        db.r_ivf = RIvf(entries, dram=self.ssd.dram, db_id=db.db_id)
        live_ids = np.array([entry_id for entry_id, _ in order], dtype=np.int64)
        db.slot_to_original = live_ids
        original_to_slot = np.full(self.next_id, -1, dtype=np.int64)
        original_to_slot[live_ids] = np.arange(live_ids.size, dtype=np.int64)
        db.original_to_slot = original_to_slot
        db.n_entries = live_ids.size

        slot = 0
        self.index.dadr_to_id[:] = -1
        self.index.dadr_to_id[: live_ids.size] = live_ids
        self.index.entries = {}
        for cluster in range(len(self.index.members)):
            rebuilt = []
            for _old_slot, entry_id in self.index.members[cluster]:
                rebuilt.append((slot, entry_id))
                self.index.entries[entry_id] = EntryInfo(
                    cluster, slot, slot, slot, metas[slot]
                )
                slot += 1
            self.index.members[cluster] = rebuilt
        self.tombstones.clear()
        result.seconds += self.ssd.dram.access_time(
            max(1, len(entries)) * R_IVF_ENTRY_BYTES
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
        self._mutations: Dict[int, MutationRequest] = {}
        self.mutation_acks: Dict[int, MutationAck] = {}

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
        vector = np.asarray(vector, dtype=np.float32)
        if metadata_tag is not None:  # checked before anything is enqueued
            metadata_tag = int(validate_metadata_tags(metadata_tag, "metadata_tag"))
        sub_id = self.submit(vector, tenant=tenant, deadline_s=deadline_s, at_s=at_s)
        self._mutations[sub_id] = MutationRequest(
            op="insert", vector=vector, text=text, metadata_tag=metadata_tag
        )
        return sub_id

    def submit_delete(
        self,
        entry_id: int,
        tenant: str = "default",
        deadline_s: float = math.inf,
        at_s: Optional[float] = None,
    ) -> int:
        placeholder = np.zeros(self.db.dim, dtype=np.float32)
        sub_id = self.submit(
            placeholder, tenant=tenant, deadline_s=deadline_s, at_s=at_s
        )
        self._mutations[sub_id] = MutationRequest(op="delete", entry_id=int(entry_id))
        return sub_id

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
        vector = np.asarray(vector, dtype=np.float32)
        if metadata_tag is not None:  # checked before anything is enqueued
            metadata_tag = int(validate_metadata_tags(metadata_tag, "metadata_tag"))
        sub_id = self.submit(vector, tenant=tenant, deadline_s=deadline_s, at_s=at_s)
        self._mutations[sub_id] = MutationRequest(
            op="update",
            entry_id=int(entry_id),
            vector=vector,
            text=text,
            metadata_tag=metadata_tag,
        )
        return sub_id

    # ------------------------------------------------------------- serving

    def _execute(self, members: Sequence[Submission]) -> BatchExecution:
        """Commit the batch's mutations, then run its reads against the
        mutated database; acks and results come back in member order."""
        writes = [
            (i, s) for i, s in enumerate(members) if s.sub_id in self._mutations
        ]
        reads = [
            (i, s) for i, s in enumerate(members) if s.sub_id not in self._mutations
        ]
        results: List[object] = [None] * len(members)
        commit: Optional[CommitResult] = None
        if writes:
            # A refused group (CapacityError) changes nothing: its requests
            # stay registered, so the re-queued members are still mutations.
            commit = self.manager.apply(
                [self._mutations[s.sub_id] for _i, s in writes]
            )
            for (i, submission), ack in zip(writes, commit.acks):
                del self._mutations[submission.sub_id]
                ack.latency.add_phase("ingest", commit.seconds)
                ack.latency.total_s = commit.seconds
                self.mutation_acks[submission.sub_id] = ack
                results[i] = ack
        if reads:
            execution = super()._execute([s for _i, s in reads])
        else:
            execution = BatchExecution(
                results=[], report=LatencyReport(), stats=BatchStats()
            )
        if commit is not None and commit.seconds > 0:
            execution.report.add_phase("ingest", commit.seconds)
            execution.report.add_component("ingest_commit", commit.seconds)
            execution.report.total_s += commit.seconds
        for (i, _submission), result in zip(reads, execution.results):
            results[i] = result
        execution.results = results
        return execution

    def _requeue(self, members: Sequence[Submission]) -> None:
        # Mutations that committed before the batch failed keep their acks
        # and must not be applied twice: only the rest goes back.
        super()._requeue(
            [s for s in members if s.sub_id not in self.mutation_acks]
        )


# -------------------------------------------------------------- sharding


class ShardedIngestCoordinator:
    """Routes mutations to owning shards and keeps the merge keys global.

    One per sharded database.  Inserts resolve their *global* cluster
    against the full centroid set (same codecs as every shard), pick the
    owning shard from the placement policy, and commit into that shard's
    :class:`IngestManager` with the cluster pinned (shard-local id) so the
    shard does not re-derive assignment from its partial centroid view.
    After every commit the :class:`~repro.core.shard.ShardAssignment` is
    re-derived -- extended ownership arrays, per-shard id lists (stable
    local positions; dead ids stay), and the canonical single-device
    ``global_slot`` over the live membership -- which is all the router
    needs to keep distance-merged results bit-identical to one big device.
    """

    def __init__(self, device, db_id: int) -> None:
        from repro.core.shard import ShardAssignment

        self._assignment_cls = ShardAssignment
        self.device = device
        self.db_id = db_id
        self.sdb = device.database(db_id)
        if not self.sdb.is_ivf:
            raise ValueError("streaming ingest requires an IVF deployment")
        self.managers: Dict[int, IngestManager] = {}
        for shard in self.sdb.active_shards:
            self.managers[shard] = IngestManager(
                device.shards[shard].ssd, self.sdb.shard_dbs[shard]
            )
        # Codec anchor through the router, not shard 0 -- shard 0 may be
        # drained (owns nothing under a skewed split) or dead.
        anchor_shard = device.router.resolve_anchor(self.sdb)
        self._binary = self.sdb.shard_dbs[anchor_shard].binary_quantizer
        self.centroid_codes = self._binary.encode(self.sdb.ivf_model.centroids)
        assignment = self.sdb.assignment
        self.next_id = int(assignment.shard_of_vector.size)
        self._dead: set = set()
        self._shard_of: List[int] = [int(s) for s in assignment.shard_of_vector]
        self._cluster_of: List[int] = [
            int(c) for c in assignment.cluster_of_vector
        ]
        self._shard_vectors: List[List[int]] = [
            [int(v) for v in vec] for vec in assignment.shard_vectors
        ]
        # Per-shard global id -> local position.  Under replication one
        # global id lives on several shards; copies a migration tombstoned
        # on their source shard are skipped (unreachable for serving, so
        # mutations must not route to them either).
        self._local_on: List[Dict[int, int]] = [
            {} for _ in range(assignment.n_shards)
        ]
        for shard, vec in enumerate(self._shard_vectors):
            tombstoned = (
                self.sdb.source_tombstones[shard]
                if shard < len(self.sdb.source_tombstones)
                else set()
            )
            for local, global_id in enumerate(vec):
                if global_id in tombstoned:
                    continue
                self._local_on[shard][global_id] = local
        self._members: List[List[int]] = [
            [] for _ in range(self.sdb.n_clusters)
        ]
        for global_id, cluster in enumerate(self._cluster_of):
            self._members[cluster].append(global_id)
        # (shard, global cluster) -> shard-local cluster id, for every
        # shard *deploying* the cluster (the layout authority).
        self._cluster_local: Dict[Tuple[int, int], int] = {}
        if assignment.policy == "cluster":
            for shard in self.sdb.active_shards:
                owned = assignment.shard_clusters[shard]
                for local, cluster in enumerate(owned):
                    self._cluster_local[(shard, int(cluster))] = local
        self.commits: List[CommitResult] = []

    # ------------------------------------------------------------- routing

    def _route_insert(
        self, global_id: int, cluster: int
    ) -> List[Tuple[int, int]]:
        """(owning shard, shard-local cluster id) per replica of a new entry.

        Under cluster-affinity placement the entry lands on *every* owner
        of its cluster (replicas hold full cluster membership, which is
        what makes mid-batch failover bit-identical); striping keeps the
        single round-robin target.
        """
        assignment = self.sdb.assignment
        if assignment.policy == "cluster":
            owners = assignment.owners_of(cluster)
            if not owners:
                # Pre-replication assignment without owner arrays: the
                # deploying shard is the sole owner.
                owners = [
                    shard
                    for shard in self.sdb.active_shards
                    if (shard, cluster) in self._cluster_local
                ]
            targets = [
                (shard, self._cluster_local[(shard, cluster)])
                for shard in owners
                if (shard, cluster) in self._cluster_local
                and shard in self.managers
            ]
            if not targets:
                raise RuntimeError(
                    f"cluster {cluster} is owned by a shard with no deployment"
                )
            return targets
        # Round-robin placement replicates every centroid on every shard,
        # so the local cluster id is the global one.
        shard = global_id % assignment.n_shards
        if shard not in self.managers:
            raise RuntimeError(f"shard {shard} has no deployment to ingest into")
        return [(shard, cluster)]

    def apply(self, requests: Sequence[MutationRequest]) -> CommitResult:
        """Route one mutation group and commit it shard-by-shard."""
        result = CommitResult()
        per_shard: Dict[int, List[MutationRequest]] = {}
        # Per request: ("shard", shard, index-in-shard-list, global ack
        # template) or ("reject", ack).
        plans: List[Tuple] = []

        def enqueue(shard: int, request: MutationRequest) -> int:
            per_shard.setdefault(shard, []).append(request)
            return len(per_shard[shard]) - 1

        route_codes = self._batch_route_codes(requests)
        for index, request in enumerate(requests):
            if request.op == "insert":
                ack, entry = self._plan_insert(
                    request, enqueue, route_codes.get(index)
                )
                result.n_inserts += 1
            elif request.op == "delete":
                ack, entry = self._plan_delete(int(request.entry_id), enqueue)
                result.n_deletes += 1
            else:
                old_id = int(request.entry_id)
                if old_id in self._dead or not (0 <= old_id < len(self._shard_of)):
                    ack, entry = (
                        MutationAck(
                            op="update", entry_id=old_id, applied=False,
                            note="target entry is not live",
                        ),
                        None,
                    )
                else:
                    self._plan_delete(old_id, enqueue)
                    ack, entry = self._plan_insert(
                        request, enqueue, route_codes.get(index)
                    )
                    ack.op = "update"
                    ack.replaced_id = old_id
                result.n_updates += 1
            if ack.applied and ack.op in ("insert", "update"):
                result.ids.append(ack.entry_id)
            plans.append((ack, entry))

        shard_commits: Dict[int, CommitResult] = {}
        for shard, shard_requests in per_shard.items():
            commit = self.managers[shard].apply(shard_requests)
            shard_commits[shard] = commit
            for key, pages in commit.pages_programmed.items():
                result.pages_programmed[key] = (
                    result.pages_programmed.get(key, 0) + pages
                )
        # Shards commit in parallel: the group costs its slowest shard.
        result.seconds = max(
            (commit.seconds for commit in shard_commits.values()), default=0.0
        )
        for ack, entry in plans:
            result.acks.append(ack)
            if entry:
                # AND over every replica's ack: a partially applied insert
                # would silently desync replicas, so it reports failure.
                for shard, index in entry:
                    shard_ack = shard_commits[shard].acks[index]
                    ack.applied = ack.applied and shard_ack.applied
        self._rebuild_assignment()
        self.commits.append(result)
        return result

    def _batch_route_codes(
        self, requests: Sequence[MutationRequest]
    ) -> Dict[int, np.ndarray]:
        """Group-batched binary encode of the vectors needing shard routing.

        Row-wise identical to the per-request ``encode_one``; vectors of
        the wrong width are left out so :meth:`_plan_insert` fails at that
        request's turn, as the per-request path did.
        """
        dim = self.centroid_codes.shape[1] * 8
        rows: List[np.ndarray] = []
        indices: List[int] = []
        for index, request in enumerate(requests):
            if request.op not in ("insert", "update") or request.vector is None:
                continue
            vector = np.asarray(request.vector, dtype=np.float32)
            if vector.shape != (dim,):
                continue
            rows.append(vector)
            indices.append(index)
        if not rows:
            return {}
        codes = self._binary.encode(np.stack(rows))
        return {index: codes[j] for j, index in enumerate(indices)}

    def _plan_insert(
        self,
        request: MutationRequest,
        enqueue,
        code: Optional[np.ndarray] = None,
    ):
        vector = np.asarray(request.vector, dtype=np.float32)
        if code is None:
            code = self._binary.encode_one(vector)
        cluster = int(np.argmin(hamming_packed(code, self.centroid_codes)))
        global_id = self.next_id
        self.next_id += 1
        targets = self._route_insert(global_id, cluster)
        text = request.text if request.text is not None else f"chunk-{global_id}"
        entries: List[Tuple[int, int]] = []
        for shard, local_cluster in targets:
            index = enqueue(
                shard,
                MutationRequest(
                    op="insert",
                    vector=vector,
                    text=text,
                    metadata_tag=request.metadata_tag,
                    cluster=local_cluster,
                ),
            )
            entries.append((shard, index))
            self._local_on[shard][global_id] = len(
                self._shard_vectors[shard]
            )
            self._shard_vectors[shard].append(global_id)
        self._shard_of.append(targets[0][0])
        self._cluster_of.append(cluster)
        self._members[cluster].append(global_id)
        if self.sdb.vectors is not None:
            self.sdb.vectors = np.vstack(
                [self.sdb.vectors, vector[None, :]]
            )
        if self.sdb.corpus is not None:
            self.sdb.corpus.add(DocumentChunk(chunk_id=global_id, text=text))
        if self.sdb.metadata_tags is not None:
            self.sdb.metadata_tags = np.append(
                self.sdb.metadata_tags, np.uint32(request.metadata_tag)
            )
        ack = MutationAck(op="insert", entry_id=global_id, applied=True)
        return ack, entries

    def _plan_delete(self, entry_id: int, enqueue):
        live = (
            0 <= entry_id < len(self._shard_of) and entry_id not in self._dead
        )
        if not live:
            return (
                MutationAck(
                    op="delete", entry_id=entry_id, applied=False,
                    note="target entry is not live",
                ),
                None,
            )
        # Every live copy gets tombstoned (replicas hold the entry too).
        entries: List[Tuple[int, int]] = []
        for shard, local_on in enumerate(self._local_on):
            local_id = local_on.get(entry_id)
            if local_id is None or shard not in self.managers:
                continue
            index = enqueue(
                shard, MutationRequest(op="delete", entry_id=local_id)
            )
            entries.append((shard, index))
        self._dead.add(entry_id)
        self._members[self._cluster_of[entry_id]].remove(entry_id)
        return (
            MutationAck(op="delete", entry_id=entry_id, applied=True),
            entries,
        )

    def _rebuild_assignment(self) -> None:
        old = self.sdb.assignment
        global_slot = np.full(self.next_id, -1, dtype=np.int64)
        slot = 0
        for cluster_members in self._members:
            for global_id in cluster_members:
                global_slot[global_id] = slot
                slot += 1
        self.sdb.assignment = self._assignment_cls(
            policy=old.policy,
            n_shards=old.n_shards,
            shard_of_vector=np.array(self._shard_of, dtype=np.int64),
            shard_vectors=[
                np.array(vec, dtype=np.int64) for vec in self._shard_vectors
            ],
            shard_clusters=old.shard_clusters,
            global_slot=global_slot,
            cluster_of_vector=np.array(self._cluster_of, dtype=np.int64),
            replication_factor=old.replication_factor,
            cluster_owners=old.cluster_owners,
        )
        self.sdb.n_entries = slot

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
