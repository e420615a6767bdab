"""The In-Storage ANNS Engine (Sec. 4.3, Fig. 6).

This is the functional heart of REIS.  A query executes entirely inside the
simulated SSD using only hardware that commodity drives already have:

1. **IBC** -- the query code is broadcast into every plane's cache latch
   (with MPIBC, all planes of a die latch the same transfer).
2. **Page read** -- a page of database embeddings is sensed into the
   sensing latch (ESP-SLC, so the raw read is error-free without ECC).
3. **XOR** -- CL xor SL -> DL gives the bitwise difference between the
   query and every embedding in the page.
4. **GEN_DIST** -- the fail-bit counter emits one popcount per embedding
   segment: the Hamming distances.
5. **Distance filtering** -- the pass/fail checker drops embeddings whose
   distance exceeds the calibrated threshold before they cross the channel.
6. **RD_TTL** -- surviving entries (DIST, EMB, and the OOB linkage fields)
   move over the flash channel into the Temporal Top List in SSD DRAM.
7. **Quickselect** on the embedded core keeps the shortlist.
8. **Reranking** re-reads the shortlist's INT8 twins (TLC, ECC-corrected on
   the controller), recomputes distances in INT8 and quicksorts the top-k.
9. **Document identification** follows each winner's DADR to its chunk.

Every step updates both the *functional* state (bytes in latches, entries
in TTLs) and the *cost* state (pages per plane, channel bytes, core
seconds), so one execution produces both the retrieved documents and the
latency/energy report.  The same :mod:`repro.core.costing` composition is
used by the paper-scale analytic model, letting tests cross-validate the
two layers.

The phase methods here are the hardware-level primitives; the schedule
that strings them together lives in :mod:`repro.core.plan` (one query)
and :mod:`repro.core.batch` (a concurrent batch).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    BatchExecution,
    BatchExecutor,
    ScanTasks,
    tasks_from_ranges,
)
from repro.core.cache import CacheEntry, PageCache
from repro.core.commands import DieCommandInterface
from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import PhaseCost, ibc_time
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    PlanExecutor,
    ReisQueryResult,
    SearchStats,
    build_query_plan,
    schedule_order,
    schedule_senses,
    schedule_senses_cached,
)
from repro.core.registry import TemporalTopList, TtlBlock, TtlRefs
from repro.nand.ecc import UncorrectableReadError
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.latches import xor_popcount_segments
from repro.rag.documents import DocumentChunk
from repro.ssd.device import SimulatedSSD

__all__ = [
    "InStorageAnnsEngine",
    "ReisQueryResult",
    "SearchStats",
]


class _LatchedPages:
    """Code + OOB bytes of the pages one scan phase latched, by page rank.

    The phase kernel snapshots each page once, while it sits in the sensing
    latch (or from the DRAM mirror), so that TTL rows can stay ``(page,
    slot)`` references: :meth:`decode` assembles the RD_TTL payload -- the
    embedding code and the OOB linkage words -- only for the rows a
    selection asks for.
    """

    def __init__(
        self,
        page_offsets: np.ndarray,
        slots_per_page: int,
        code_bytes: int,
        record_bytes: int,
        coarse: bool,
    ) -> None:
        self.page_offsets = page_offsets
        self.slots_per_page = slots_per_page
        self.coarse = coarse
        n_pages = page_offsets.size
        self.codes = np.empty(
            (n_pages, slots_per_page, code_bytes), dtype=np.uint8
        )
        self.records = np.empty(
            (n_pages, slots_per_page, record_bytes), dtype=np.uint8
        )

    def snapshot(self, rank: int, data: np.ndarray, oob: np.ndarray) -> None:
        codes, records = self.codes[rank], self.records[rank]
        codes[:] = data[: codes.size].reshape(codes.shape)
        records[:] = oob[: records.size].reshape(records.shape)

    def words(self, ranks: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The little-endian 32-bit OOB linkage words of the given rows."""
        return self.records[ranks, slots].view("<u4")

    def decode(
        self, dists: np.ndarray, ranks: np.ndarray, slots: np.ndarray
    ) -> TtlBlock:
        embs = self.codes[ranks, slots]
        eadrs = self.page_offsets[ranks] * self.slots_per_page + slots
        if self.coarse:
            return TtlBlock(
                dists, embs, eadrs=eadrs, tags=self.records[ranks, slots, 0]
            )
        words = self.words(ranks, slots)
        return TtlBlock(
            dists, embs, eadrs=eadrs, dadrs=words[:, 0], radrs=words[:, 1],
            metas=words[:, 2] if words.shape[1] >= 3 else None,
        )


class InStorageAnnsEngine:
    """Executes ``Search`` / ``IVF_Search`` inside the simulated SSD."""

    def __init__(
        self,
        ssd: SimulatedSSD,
        config: ReisConfig,
        flags: Optional[OptFlags] = None,
    ) -> None:
        self.ssd = ssd
        self.config = config
        self.flags = flags if flags is not None else OptFlags()
        self.geometry = ssd.spec.geometry
        self.timing = ssd.spec.timing
        self.params = config.engine
        # One command FSM per die, indexed by global die index.
        self._die_interfaces: Dict[int, DieCommandInterface] = {}
        for plane_index in range(self.geometry.total_planes):
            die_index = plane_index // self.geometry.planes_per_die
            if die_index not in self._die_interfaces:
                self._die_interfaces[die_index] = DieCommandInterface(
                    ssd.array.die_of_plane(plane_index)
                )
        # Page-translation memo: translate() is a pure function of the
        # (frozen, value-hashable) CoarseRegion, the page offset, and this
        # engine's fixed geometry, so the arithmetic runs once per page.
        self._locate_cache: Dict[Tuple, Tuple[PhysicalPageAddress, int, int, int]] = {}

    # ------------------------------------------------------------ utilities

    def die_interface_of_plane(self, plane_index: int) -> DieCommandInterface:
        return self._die_interfaces[plane_index // self.geometry.planes_per_die]

    def _locate(
        self, region: RegionInfo, page_offset: int
    ) -> Tuple[PhysicalPageAddress, int, int, int]:
        """(physical address, global plane index, channel, linear page id)."""
        key = (region.region, page_offset)
        cached = self._locate_cache.get(key)
        if cached is None:
            ppa = region.region.translate(page_offset, self.geometry)
            plane_index = ppa.plane_linear(self.geometry)
            cached = (ppa, plane_index, ppa.channel, ppa.to_linear(self.geometry))
            self._locate_cache[key] = cached
        return cached

    # ------------------------------------------------------ DRAM page cache

    @property
    def page_cache(self) -> Optional[PageCache]:
        """The device's DRAM page cache (attached to the SSD; default off)."""
        return getattr(self.ssd, "page_cache", None)

    def _bill_dram_hit(
        self, cost: PhaseCost, stats: SearchStats, nbytes: int,
        key: object = None,
    ) -> None:
        """Account one cache-served page visit.

        A hit skips the sense, the latch work and the channel crossing; the
        controller streams the mirrored bytes out of the internal DRAM, so
        the visit bills :meth:`InternalDram.access_time` and advances the
        ``dram_cache_*`` counters -- the energy invariant becomes: billed
        work = unique NAND senses + DRAM hit bytes.  Batch kernels pass the
        page identity as ``key`` so compose_batch_phase can share the
        stream across the queries that drain it (each query still bills
        the full visit solo, mirroring per-query sense billing).
        """
        seconds = self.ssd.dram.access_time(nbytes)
        if key is not None:
            cost.add_dram_stream(key, seconds)
        else:
            cost.dram_seconds += seconds
        cost.dram_bytes += nbytes
        self.ssd.counters.add("dram_cache_hits", 1)
        self.ssd.counters.add("dram_cache_bytes", nbytes)
        stats.cache_hits += 1

    def _admit_page(
        self, region: RegionInfo, page_offset: int, kind: str
    ) -> None:
        """Mirror a page's golden bytes after a fresh sense (copied)."""
        cache = self.page_cache
        if cache is None:
            return
        ppa = self._locate(region, page_offset)[0]
        plane = self.ssd.array.plane(ppa)
        data, oob = plane.golden_view(ppa.block, ppa.page)
        cache.admit(region, page_offset, kind, data, oob)

    # ----------------------------------------------------------------- IBC

    def _input_broadcast(self, query_code: np.ndarray, stats: SearchStats) -> float:
        """Step 1: broadcast the query into every die's cache latches."""
        for interface in self._die_interfaces.values():
            stats.ibc_transfers += interface.ibc(
                query_code, multi_plane=self.flags.multi_plane_ibc
            )
        return ibc_time(self.geometry, self.timing, query_code.size, self.flags)

    def _input_broadcast_batch(
        self, query_codes: np.ndarray, stats_list: Sequence[SearchStats]
    ) -> float:
        """Batched step 1: broadcast every query's code back to back.

        Cache latches are overwrite-only, so only the last row survives --
        exactly the end state of running :meth:`_input_broadcast` per query
        -- while commands, counters and per-query transfer stats reflect
        the full broadcast sequence.  Returns the per-query IBC time (all
        codes in a batch share one width).
        """
        n = len(query_codes)
        if n == 0:
            return 0.0
        total = 0
        for interface in self._die_interfaces.values():
            total += interface.ibc_many(
                query_codes, multi_plane=self.flags.multi_plane_ibc
            )
        per_query = total // n
        for stats in stats_list:
            stats.ibc_transfers += per_query
        return ibc_time(
            self.geometry, self.timing, query_codes.shape[1], self.flags
        )

    # ------------------------------------------------------------ scan core

    def scan_page_run(
        self,
        db: DeployedDatabase,
        tasks: ScanTasks,
        coarse: bool,
        code_rows: np.ndarray,
        ttls: Sequence[TemporalTopList],
        costs: Sequence[PhaseCost],
        stats_list: Sequence[SearchStats],
        select_k: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Steps 2-7 for one scan phase: the columnar phase kernel.

        ``tasks`` holds every (query, page, slot window) demand of the
        phase, query-major in each query's scan order; ``code_rows`` is the
        stacked query-code matrix and ``ttls`` / ``costs`` / ``stats_list``
        / ``select_k`` are indexed by ``tasks.queries``.  The solo path
        calls this with one query, the batch executor with all of them.

        **Per scheduled page** the NAND work happens, through the die
        command interface: the demands are ordered into page runs
        (:func:`~repro.core.plan.schedule_order`), a run senses its page
        unless the plane still has it latched, and one ``GEN_DIST`` sweep
        extracts the distances of every interested query ("one sense, N
        distance extractions").  A page the DRAM cache mirrors is neither
        sensed nor latched: the same XOR + popcount runs on the mirror
        bytes and the visit bills DRAM.  Either way the page's code + OOB
        bytes are snapshotted while they are at hand.

        **Per phase**, once: the slot-window + threshold mask over the
        ``(tasks, slots)`` distance matrix, the in-die metadata-tag
        comparison, ``np.nonzero`` for the surviving rows (which come out
        in each query's arrival order, because tasks are query-major),
        commands / counters / :class:`PhaseCost` / :class:`SearchStats` by
        ``bincount``, and each query's TTL fed its survivors as
        :class:`~repro.core.registry.TtlRefs` with the per-iteration
        quickselect accounted arithmetically
        (:meth:`TemporalTopList.stream`).  Every query is billed exactly
        the visits, transfers and quickselects it would pay solo.

        Returns ``(sensed, planes)`` per request in service order, for the
        cost model's schedule feedback.
        """
        n_tasks = len(tasks)
        if n_tasks == 0:
            return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
        region = db.centroid_region if coarse else db.embedding_region
        assert region is not None
        code_bytes = db.code_bytes
        params = self.params
        record_bytes = params.tag_bytes if coarse else db.oob_record_bytes
        entry_bytes = (
            params.coarse_entry_bytes(code_bytes)
            if coarse
            else params.fine_entry_bytes(code_bytes)
        )
        spp = region.slots_per_page
        q_of = tasks.queries
        threshold = tasks.threshold

        # ---- the schedule: service order, fresh senses, mirror-served pages
        order = schedule_order(tasks.pages, self.flags.schedule_optimization)
        if order is None:
            order = np.arange(n_tasks)
        pages_o = tasks.pages[order]

        def locate_plane(page_offset: int) -> int:
            return self._locate(region, page_offset)[1]

        cache = self.page_cache
        entry_of: Dict[int, CacheEntry] = {}
        if cache is not None:
            # One residency snapshot per unique page: pages admitted while
            # this phase drains don't retroactively serve it (the schedule
            # partition is fixed, like the sense/latch plan itself).
            def is_cached(page_offset: int) -> bool:
                entry = cache.lookup(region, page_offset)
                if entry is None:
                    return False
                entry_of[page_offset] = entry
                return True

            sensed, planes, _cached = schedule_senses_cached(
                pages_o, locate_plane, is_cached
            )
        else:
            sensed, planes = schedule_senses(pages_o, locate_plane)

        # ---- per page run: sense, GEN_DIST for the run's queries, snapshot
        uniq, rank_of = np.unique(tasks.pages, return_inverse=True)
        pages_u = uniq.tolist()
        located = [self._locate(region, page) for page in pages_u]
        latched = _LatchedPages(uniq, spp, code_bytes, record_bytes, coarse)
        snapshotted = np.zeros(uniq.size, dtype=bool)
        dist = np.empty((n_tasks, spp), dtype=np.min_scalar_type(8 * code_bytes))
        starts = np.flatnonzero(np.r_[True, pages_o[1:] != pages_o[:-1]])
        ends = np.r_[starts[1:], n_tasks]
        for s, e in zip(starts.tolist(), ends.tolist()):
            rows = order[s:e]
            rank = rank_of[rows[0]]
            page_offset = pages_u[rank]
            n_segments = region.slots_in_page(page_offset)
            entry = entry_of.get(page_offset)
            if entry is not None:
                data, oob = entry.data, entry.oob
                dist[rows, :n_segments] = xor_popcount_segments(
                    data, code_rows[q_of[rows]], code_bytes, n_segments
                )
            else:
                ppa, plane_index = located[rank][:2]
                interface = self.die_interface_of_plane(plane_index)
                if sensed[s]:
                    interface.read_page(ppa.plane, ppa.block, ppa.page)
                dist[rows, :n_segments] = interface.gen_dist_multi(
                    ppa.plane, code_rows[q_of[rows]], code_bytes, n_segments
                )
                buffer = interface.die.planes[ppa.plane].buffer
                data, oob = buffer.sensing, buffer.oob
            if not snapshotted[rank]:
                snapshotted[rank] = True
                latched.snapshot(rank, data, oob)
        if cache is not None:
            kind = "centroid" if coarse else "cluster"
            for page_offset in pages_u:
                if page_offset not in entry_of:
                    self._admit_page(region, page_offset, kind)

        # ---- per phase: window + threshold mask, metadata tag, survivors
        plane_t = np.array([loc[1] for loc in located])[rank_of]
        channel_t = np.array([loc[2] for loc in located])[rank_of]
        from_nand = np.array([page not in entry_of for page in pages_u])[rank_of]
        in_page = np.clip(region.n_slots - tasks.pages * spp, 0, spp)
        lo = np.maximum(tasks.lo, 0)
        hi = np.minimum(tasks.hi, in_page - 1)
        n_valid = np.maximum(hi - lo + 1, 0)
        slot = np.arange(spp)
        mask = (slot >= lo[:, None]) & (slot <= hi[:, None])
        # Comparator sweeps (PASS_FAIL): one per sensed window the distance
        # threshold inspects, plus one per window whose threshold survivors
        # face the in-die metadata-tag comparison (Sec. 7.1) -- mismatches
        # are dropped before any RD_TTL moves.
        sweeps = np.zeros(n_tasks, dtype=np.int64)
        if threshold is not None:
            mask &= dist < threshold
            sweeps += from_nand & (n_valid > 0)
        t_idx, s_idx = np.nonzero(mask)
        has_filter = np.array([f is not None for f in tasks.filters])
        if has_filter.any():
            wanted = np.array(
                [0 if f is None else f for f in tasks.filters], dtype=np.int64
            )
            tagged = has_filter[q_of]
            sweeps += (
                from_nand & tagged & (np.bincount(t_idx, minlength=n_tasks) > 0)
            )
            check = tagged[t_idx]
            metas = latched.words(rank_of[t_idx[check]], s_idx[check])[:, 2]
            keep = np.ones(t_idx.size, dtype=bool)
            keep[check] = metas == wanted[q_of[t_idx[check]]]
            t_idx, s_idx = t_idx[keep], s_idx[keep]
        n_kept = np.bincount(t_idx, minlength=n_tasks)
        # Only NAND-served rows are RD_TTL moves over a flash channel.
        moved = np.where(from_nand, n_kept, 0)

        # ---- commands and counters, per plane
        n_planes = self.geometry.total_planes
        sweeps_of = np.bincount(plane_t, weights=sweeps, minlength=n_planes)
        moved_of = np.bincount(plane_t, weights=moved, minlength=n_planes)
        for plane_index in np.flatnonzero(sweeps_of + moved_of).tolist():
            self.die_interface_of_plane(plane_index).record_extraction(
                plane_index % self.geometry.planes_per_die,
                int(sweeps_of[plane_index]),
                int(moved_of[plane_index]),
            )
        if moved.any():
            self.ssd.counters.add("channel_bytes", int(moved.sum()) * entry_bytes)

        # ---- per query: page visits, stats, channel bytes, TTL.  Tasks
        # and survivors are query-major, so a query owns one slice of each.
        page_id_u = [loc[3] for loc in located]
        hit_bytes_u = [
            entry_of[page].nbytes if page in entry_of else 0 for page in pages_u
        ]
        for qi, rank, plane_index, sensed_visit in zip(
            q_of.tolist(), rank_of.tolist(), plane_t.tolist(), from_nand.tolist()
        ):
            if sensed_visit:
                costs[qi].add_page(plane_index, page_id=page_id_u[rank])
            else:
                self._bill_dram_hit(
                    costs[qi], stats_list[qi], hit_bytes_u[rank],
                    key=page_id_u[rank],
                )
        n_queries = len(ttls)
        n_channels = self.geometry.channels
        bytes_of = np.bincount(
            q_of * n_channels + channel_t, weights=moved * entry_bytes,
            minlength=n_queries * n_channels,
        ).reshape(n_queries, n_channels)
        for qi, channel in zip(*(axis.tolist() for axis in np.nonzero(bytes_of))):
            costs[qi].add_channel_bytes(channel, float(bytes_of[qi, channel]))
        scanned, kept, visits = (
            np.bincount(q_of, weights=w, minlength=n_queries)
            .astype(np.int64).tolist()
            for w in (n_valid, n_kept, from_nand)
        )
        survivors = TtlRefs(dist[t_idx, s_idx], rank_of[t_idx], s_idx, latched)
        task_bounds = np.searchsorted(q_of, np.arange(n_queries + 1)).tolist()
        row_bounds = np.searchsorted(t_idx, task_bounds).tolist()
        kept_counts = n_kept.tolist()
        core = self.ssd.cores.reis_core
        for qi, (stats, cost, k) in enumerate(zip(stats_list, costs, select_k)):
            first, last = task_bounds[qi], task_bounds[qi + 1]
            if first == last:
                continue
            stats.pages_read += visits[qi]
            stats.entries_scanned += scanned[qi]
            stats.entries_filtered += scanned[qi] - kept[qi]
            stats.entries_transferred += kept[qi]
            # Per-iteration quickselect (Sec. 4.3.1): after each page the
            # embedded core trims the TTL back to the running top list,
            # bounding its DRAM footprint.  With pipelining this overlaps
            # the next page read (handled by compose_phase).
            for processed in ttls[qi].stream(
                survivors[row_bounds[qi]:row_bounds[qi + 1]],
                kept_counts[first:last],
                k,
            ):
                cost.core_seconds += core.quickselect(processed, k)
        return sensed, planes

    def _scan_range(
        self,
        db: DeployedDatabase,
        query_code: np.ndarray,
        first_slot: int,
        last_slot: int,
        ttl: TemporalTopList,
        cost: PhaseCost,
        stats: SearchStats,
        coarse: bool,
        threshold: Optional[int],
        select_k: int,
        metadata_filter: Optional[int] = None,
    ) -> None:
        """Steps 2-7 over the slots ``[first_slot, last_slot]`` of a region:
        a one-query phase of :meth:`scan_page_run`."""
        region = db.centroid_region if coarse else db.embedding_region
        tasks = tasks_from_ranges(
            region,
            np.zeros(1, dtype=np.int64),
            np.array([first_slot], dtype=np.int64),
            np.array([last_slot], dtype=np.int64),
            threshold,
            [metadata_filter],
        )
        self.scan_page_run(
            db, tasks, coarse, query_code[None, :],
            [ttl], [cost], [stats], [select_k],
        )

    # --------------------------------------------------------- search steps

    def _coarse_search(
        self,
        db: DeployedDatabase,
        query_code: np.ndarray,
        nprobe: int,
        stats: SearchStats,
    ) -> Tuple[List[int], PhaseCost]:
        """Coarse-grained search over the centroid region (Sec. 4.3.1)."""
        assert db.centroid_region is not None and db.r_ivf is not None
        cost = PhaseCost(name="coarse", with_compute=True)
        ttl_c = TemporalTopList(
            "c",
            self.params.coarse_entry_bytes(db.code_bytes),
            dram=self.ssd.dram,
        )
        self._scan_range(
            db,
            query_code,
            0,
            db.centroid_region.n_slots - 1,
            ttl_c,
            cost,
            stats,
            coarse=True,
            threshold=None,
            select_k=nprobe,
        )
        clusters = self.select_clusters(db, ttl_c, nprobe, cost, stats)
        return clusters, cost

    def select_cluster_block(
        self,
        ttl_c: TemporalTopList,
        nprobe: int,
        cost: PhaseCost,
    ) -> TtlBlock:
        """Quickselect the nprobe nearest centroid rows (nearest first).

        The rows still carry their Hamming distances, which is what the
        shard router merges across devices before any cluster id is
        resolved; the single-device path resolves ids immediately via
        :meth:`resolve_cluster_block`.
        """
        cost.core_seconds += self.ssd.cores.reis_core.quickselect(
            len(ttl_c), nprobe
        )
        block = ttl_c.select_block(nprobe)
        return block if block is not None else TtlBlock.empty()

    def resolve_cluster_block(
        self,
        db: DeployedDatabase,
        block: TtlBlock,
        stats: SearchStats,
    ) -> np.ndarray:
        """Map selected centroid rows to cluster ids (tag cross-check).

        EADR is the centroid's mini-page address == the cluster id; the
        8-bit tag (which aliases for nlist > 256) is cross-checked.
        """
        assert db.r_ivf is not None
        cluster_ids = block.eadrs
        mismatch = db.r_ivf.tags[cluster_ids] != block.tags
        if np.any(mismatch):
            bad = int(cluster_ids[np.argmax(mismatch)])
            raise RuntimeError(f"cluster tag mismatch for centroid {bad}")
        stats.clusters_probed = len(block)
        return cluster_ids

    def select_clusters(
        self,
        db: DeployedDatabase,
        ttl_c: TemporalTopList,
        nprobe: int,
        cost: PhaseCost,
        stats: SearchStats,
    ) -> List[int]:
        """Quickselect the nprobe nearest centroids and resolve cluster ids."""
        block = self.select_cluster_block(ttl_c, nprobe, cost)
        return [int(c) for c in self.resolve_cluster_block(db, block, stats)]

    def _fine_search(
        self,
        db: DeployedDatabase,
        query_code: np.ndarray,
        clusters: Optional[Sequence[int]],
        shortlist_size: int,
        stats: SearchStats,
        metadata_filter: Optional[int] = None,
    ) -> Tuple[TtlBlock, PhaseCost]:
        """Fine-grained search over embedding slots (whole region for BF)."""
        cost = PhaseCost(
            name="fine",
            with_compute=True,
            with_filter=self.flags.distance_filtering,
        )
        ttl_e = TemporalTopList(
            "e",
            self.params.fine_entry_bytes(db.code_bytes),
            dram=self.ssd.dram,
        )
        threshold = db.filter_threshold if self.flags.distance_filtering else None
        ranges = self._slot_ranges(db, clusters)
        for first, last in ranges:
            stats.candidates += last - first + 1
            self._scan_range(
                db,
                query_code,
                first,
                last,
                ttl_e,
                cost,
                stats,
                coarse=False,
                threshold=threshold,
                select_k=shortlist_size,
                metadata_filter=metadata_filter,
            )
        if self.fine_needs_retry(ttl_e, threshold, shortlist_size, stats):
            # The calibrated threshold filtered too aggressively for this
            # query to return k results; rescan without filtering so
            # correctness never depends on the filter (the paper calibrates
            # thresholds so this is rare -- the retry counter lets tests
            # assert exactly that).
            stats.filter_retries += 1
            ttl_e.clear()
            for first, last in ranges:
                self._scan_range(
                    db,
                    query_code,
                    first,
                    last,
                    ttl_e,
                    cost,
                    stats,
                    coarse=False,
                    threshold=None,
                    select_k=shortlist_size,
                    metadata_filter=metadata_filter,
                )
        return self.finish_fine_search(ttl_e, shortlist_size, cost), cost

    def fine_retry_needed(
        self,
        n_entries: int,
        threshold: Optional[int],
        shortlist_size: int,
        n_candidates: int,
    ) -> bool:
        """The raw retry predicate: did filtering starve below k survivors?

        Exposed on counts (rather than a TTL) so the shard router can apply
        the *same* rule to cluster-wide totals: the retry is a global
        decision, exactly as it would be on one device scanning the whole
        corpus -- per-shard local decisions would let one shard inject
        unfiltered candidates a single device never saw.
        """
        k = max(1, shortlist_size // self.params.shortlist_factor)
        return threshold is not None and n_entries < min(k, n_candidates)

    def fine_needs_retry(
        self,
        ttl_e: TemporalTopList,
        threshold: Optional[int],
        shortlist_size: int,
        stats: SearchStats,
    ) -> bool:
        """Did distance filtering starve this query below k candidates?"""
        return self.fine_retry_needed(
            len(ttl_e), threshold, shortlist_size, stats.candidates
        )

    def finish_fine_search(
        self,
        ttl_e: TemporalTopList,
        shortlist_size: int,
        cost: PhaseCost,
    ) -> TtlBlock:
        """Final quickselect of the fine phase: the rescoring shortlist.

        Returned columnar (nearest first): the rerank and the shard
        barriers consume the shortlist as arrays, never as entry objects.
        """
        core = self.ssd.cores.reis_core
        cost.core_seconds += core.quickselect(len(ttl_e), shortlist_size)
        block = ttl_e.select_block(shortlist_size)
        return block if block is not None else TtlBlock.empty()

    def _slot_ranges(
        self, db: DeployedDatabase, clusters: Optional[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """Contiguous slot ranges the fine search must scan.

        A mutable database answers from its live cluster membership
        (:mod:`repro.core.ingest`): streamed appends extend a cluster past
        its deployed range and tombstoned entries drop out of the ranges,
        so the scan/rerank/filter phases skip dead slots without any
        re-layout.  Both the solo path and the batch executor's schedule
        builder resolve their ranges here, so the two stay in lockstep.
        """
        index = getattr(db, "mutable_index", None)
        if index is not None:
            return index.slot_ranges(clusters)
        if clusters is None:
            return [(0, db.n_entries - 1)] if db.n_entries else []
        assert db.r_ivf is not None
        ranges = []
        for cluster in clusters:
            entry = db.r_ivf[cluster]
            if entry.size > 0:
                ranges.append((entry.first_embedding, entry.last_embedding))
        return ranges

    def _rerank(
        self,
        db: DeployedDatabase,
        query: np.ndarray,
        shortlist,
        k: int,
        stats: SearchStats,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, PhaseCost]:
        """Steps 7-8: INT8 rerank + quicksort on the embedded core.

        INT8 twins live in the TLC partition, so each fetched page routes
        through the controller's ECC engine before the distance kernel runs.
        Returns (top distances, top DADRs, top slots, phase cost).
        """
        cost = PhaseCost(name="rerank", read_mode="tlc", with_compute=False)
        if isinstance(shortlist, TtlBlock):
            n_short = len(shortlist)
            radrs = shortlist.radrs
            all_dadrs = shortlist.dadrs
        else:
            n_short = len(shortlist)
            radrs = np.array([entry.radr for entry in shortlist], dtype=np.int64)
            all_dadrs = np.array([entry.dadr for entry in shortlist], dtype=np.int64)
        if n_short == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, cost
        dim = db.dim
        region = db.int8_region
        query_i8 = db.int8_quantizer.encode_one(query).astype(np.int32)
        core = self.ssd.cores.reis_core

        # Slot -> (page, byte offset) resolved for the whole shortlist at
        # once; pages are then fetched in first-touch order (the order the
        # scalar walk would sense them, which pins the RNG stream).
        if radrs.min() < 0 or radrs.max() >= region.n_slots:
            raise IndexError(f"shortlist RADR outside region {region.name!r}")
        page_offsets = radrs // region.slots_per_page
        starts = (radrs % region.slots_per_page) * dim
        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        codes = np.empty((n_short, dim), dtype=np.int8)
        cw = self.ssd.ecc.config.codeword_bytes
        cache = self.page_cache
        cached_u = np.zeros(unique_pages.size, dtype=bool)
        channel_of_page: Dict[int, int] = {}
        for rank in touch_order:
            page_offset = int(unique_pages[rank])
            entry = (
                cache.lookup(region, page_offset) if cache is not None else None
            )
            if entry is not None:
                # A hit serves the golden bytes straight from the mirror:
                # no sense, no ECC -- the visit bills DRAM instead.
                cached_u[rank] = True
                page = entry.data
                self._bill_dram_hit(cost, stats, entry.nbytes)
            else:
                first_start = int(starts[first_rows[rank]])
                # The sense; channel/ECC charges are per codeword below.
                page = self._read_corrected(
                    region, page_offset, cost, stats, first_start, dim,
                    charge_transfer=False,
                )
                self._admit_page(region, page_offset, "cluster")
            channel_of_page[page_offset] = self._locate(region, page_offset)[2]
            rows = np.flatnonzero(page_offsets == page_offset)
            gathered = page[starts[rows, None] + np.arange(dim)]
            codes[rows] = gathered.view(np.int8)
        page_channels = np.array(
            [channel_of_page[int(p)] for p in unique_pages], dtype=np.int64
        )
        # Charge each distinct ECC codeword the shortlist touches once:
        # expand every row's [first_cw, last_cw] range, then dedupe the
        # (page, codeword) pairs in one unique() pass.  Codewords on
        # cache-served pages never cross the channel or the ECC engine.
        first_cw = starts // cw
        last_cw = (starts + dim - 1) // cw
        counts = (last_cw - first_cw + 1).astype(np.int64)
        within = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        cw_rows = np.repeat(np.arange(n_short), counts)
        cw_index = np.repeat(first_cw, counts) + within
        cw_per_page = int(last_cw.max()) + 1
        keys = page_offsets[cw_rows] * cw_per_page + cw_index
        unique_keys = np.unique(keys)
        key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
        sensed_keys = ~cached_u[key_ranks]
        unique_keys = unique_keys[sensed_keys]
        key_channels = page_channels[key_ranks[sensed_keys]]
        for channel in np.unique(key_channels):
            moved = int((key_channels == channel).sum()) * cw
            cost.add_channel_bytes(int(channel), moved)
        cost.ecc_bytes += unique_keys.size * cw
        self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

        diff = codes.astype(np.int32) - query_i8[None, :]
        refined = np.einsum("ij,ij->i", diff, diff).astype(np.int64)
        cost.core_seconds += core.int8_distances(n_short, dim)
        k = min(k, n_short)
        top = np.argsort(refined, kind="stable")[:k]
        cost.core_seconds += core.quicksort(n_short)
        return refined[top], all_dadrs[top], radrs[top], cost

    def _read_corrected(
        self,
        region: RegionInfo,
        page_offset: int,
        cost: PhaseCost,
        stats: SearchStats,
        byte_start: int = 0,
        byte_len: Optional[int] = None,
        charge_transfer: bool = True,
    ) -> np.ndarray:
        """Read a TLC page and ECC-correct it on the controller.

        Only the ECC codewords covering ``[byte_start, byte_start+byte_len)``
        cross the channel and get decoded; the rest of the sensed page stays
        in the plane buffer.  The full corrected page is returned for
        functional convenience (the simulator knows the golden data).
        Callers that account codewords themselves (the rerank path, which
        deduplicates across shortlist entries) pass ``charge_transfer=False``.
        """
        ppa, plane_index, channel, page_id = self._locate(region, page_offset)
        plane = self.ssd.array.plane(ppa)
        raw, _ = plane.read_page(ppa.block, ppa.page)
        cost.add_page(plane_index, page_id=page_id)
        stats.pages_read += 1
        if charge_transfer:
            if byte_len is None:
                byte_len = raw.size - byte_start
            if byte_len > 0:
                # A zero-length read moves nothing: no codeword crosses
                # the channel and nothing is ECC-decoded.
                cw = self.ssd.ecc.config.codeword_bytes
                first_cw = byte_start // cw
                last_cw = (byte_start + byte_len - 1) // cw
                moved = (last_cw - first_cw + 1) * cw
                cost.add_channel_bytes(channel, moved)
                cost.ecc_bytes += moved
                self.ssd.counters.add("channel_bytes", moved)
        return self._correct_page(region, page_offset, plane, ppa, raw)

    def _correct_page(
        self,
        region: RegionInfo,
        page_offset: int,
        plane,
        ppa: PhysicalPageAddress,
        raw: np.ndarray,
    ) -> np.ndarray:
        """ECC-correct one freshly sensed TLC page on the controller.

        A codeword past the correction capability raises
        :class:`UncorrectableReadError`: the page is never returned (nor,
        by the callers, admitted to the cache) with wrong bytes in it.
        """
        ecc = self.ssd.ecc
        uncorrectable = ecc.uncorrectable_codewords
        golden, _ = plane.golden_view(ppa.block, ppa.page)
        page = ecc.correct(raw, golden, candidate_bytes=plane.last_flipped_bytes)
        if ecc.uncorrectable_codewords != uncorrectable:
            raise UncorrectableReadError(region.name, page_offset)
        return page

    def _fetch_documents(
        self,
        db: DeployedDatabase,
        dadrs: np.ndarray,
        stats: SearchStats,
    ) -> Tuple[List[DocumentChunk], PhaseCost, float]:
        """Step 9: document identification + transfer to the host.

        Charges are per-query-unique, exactly as the rerank phase treats
        its shortlist: one sense per distinct page (the latch serves every
        chunk of a page from a single sense) and one channel/ECC codeword
        per distinct (page, codeword) pair.  With packed document slots
        several results routinely share a page; the query pays for the
        page once.  Cross-query charges are never deduplicated (the
        energy-counter invariant).  Pages are sensed in first-touch order,
        pinning each plane's error-injection RNG stream.
        """
        cost = PhaseCost(name="documents", read_mode="tlc", with_compute=False)
        region = db.document_region
        documents: List[DocumentChunk] = []
        n = len(dadrs)
        if n == 0:
            return documents, cost, 0.0
        dadr_arr = np.asarray(dadrs, dtype=np.int64)
        out_of_range = (dadr_arr < 0) | (dadr_arr >= region.n_slots)
        if out_of_range.any():
            bad = int(dadr_arr[np.argmax(out_of_range)])
            raise IndexError(f"slot {bad} outside region {region.name!r}")
        item_bytes = region.item_bytes
        page_offsets = dadr_arr // region.slots_per_page
        starts = (dadr_arr % region.slots_per_page) * item_bytes
        cw = self.ssd.ecc.config.codeword_bytes
        first_cw = starts // cw
        last_cw = (starts + max(item_bytes, 1) - 1) // cw

        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        cache = self.page_cache
        cached_u = np.zeros(unique_pages.size, dtype=bool)
        pages: Dict[int, np.ndarray] = {}
        plane_of_page = np.empty(unique_pages.size, dtype=np.int64)
        channel_of_page = np.empty(unique_pages.size, dtype=np.int64)
        page_id_of_page = np.empty(unique_pages.size, dtype=np.int64)
        for rank in touch_order:
            page_offset = int(unique_pages[rank])
            ppa, plane_index, channel, page_id = self._locate(region, page_offset)
            entry = (
                cache.lookup(region, page_offset) if cache is not None else None
            )
            if entry is not None:
                cached_u[rank] = True
                pages[page_offset] = entry.data
                self._bill_dram_hit(cost, stats, entry.nbytes)
            else:
                plane = self.ssd.array.plane(ppa)
                raw, _ = plane.read_page(ppa.block, ppa.page)
                pages[page_offset] = self._correct_page(
                    region, page_offset, plane, ppa, raw
                )
                self._admit_page(region, page_offset, "document")
            plane_of_page[rank] = plane_index
            channel_of_page[rank] = channel
            page_id_of_page[rank] = page_id

        # One sense charge per distinct uncached page, in first-touch order;
        # cache hits already billed their DRAM access above.
        for rank in touch_order:
            if cached_u[rank]:
                continue
            cost.add_page(
                int(plane_of_page[rank]), page_id=int(page_id_of_page[rank])
            )
        stats.pages_read += int((~cached_u).sum())
        # One channel/ECC codeword per distinct (page, codeword) pair the
        # results touch, deduplicated in a single unique() pass.  Codewords
        # on cache-served pages never cross the channel or the ECC engine.
        counts = (last_cw - first_cw + 1).astype(np.int64)
        within = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        cw_rows = np.repeat(np.arange(n), counts)
        cw_index = np.repeat(first_cw, counts) + within
        cw_per_page = int(last_cw.max()) + 1
        keys = page_offsets[cw_rows] * cw_per_page + cw_index
        unique_keys = np.unique(keys)
        key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
        sensed_keys = ~cached_u[key_ranks]
        unique_keys = unique_keys[sensed_keys]
        key_channels = channel_of_page[key_ranks[sensed_keys]]
        for channel in np.unique(key_channels):
            moved = int((key_channels == channel).sum()) * cw
            cost.add_channel_bytes(int(channel), moved)
        cost.ecc_bytes += unique_keys.size * cw
        self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

        for i in range(n):
            original_id = db.original_of_dadr(int(dadr_arr[i]))
            if db.corpus is not None:
                documents.append(db.corpus[original_id])
            else:
                page = pages[int(page_offsets[i])]
                start = int(starts[i])
                payload = page[start : start + item_bytes]
                documents.append(
                    DocumentChunk(
                        chunk_id=original_id,
                        text=DocumentChunk.decode_bytes(payload),
                    )
                )
        host_bytes = float(n * item_bytes)
        host_transfer_s = host_bytes / self.ssd.spec.host_link_bandwidth_bps
        return documents, cost, host_transfer_s

    # ------------------------------------------------- batched TLC kernels

    def _materialize_tlc_batch(
        self,
        region: RegionInfo,
        unique_pages: np.ndarray,
        touch_order: np.ndarray,
        kind: str,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray]:
        """Materialize a set of TLC pages once each, ECC-corrected in bulk.

        Each batch-unique page is looked up in the DRAM mirror once (the
        scheduling snapshot); hits fill their ``corrected`` row from the
        golden mirror bytes while the remaining pages are physically sensed
        in ``touch_order`` (global first-touch order, which pins each
        plane's error-injection RNG stream), routed through
        :meth:`EccEngine.correct_batch` as one call, and admitted into the
        cache.  A page with a codeword past the correction capability
        raises :class:`UncorrectableReadError` before anything is admitted
        or returned.  Returns ``(corrected, planes, channels, page_ids,
        cached, nbytes)`` aligned with ``unique_pages``: ``cached`` marks
        mirror-served rows and ``nbytes`` carries each hit's entry size
        for DRAM billing (0 for sensed rows).  Billing is the *caller's*
        job: this helper only performs the shared functional work.
        """
        n_pages = unique_pages.size
        cache = self.page_cache
        entries: List[Optional[CacheEntry]] = [None] * n_pages
        if cache is not None:
            entries = [
                cache.lookup(region, int(page)) for page in unique_pages
            ]
        cached = np.array([entry is not None for entry in entries], dtype=bool)
        entry_nbytes = np.array(
            [0 if entry is None else entry.nbytes for entry in entries],
            dtype=np.int64,
        )
        # Row of each to-sense page in the raw/golden stacks.
        stack_row = np.cumsum(~cached) - 1
        n_sensed = n_pages - int(cached.sum())
        page_bytes = self.geometry.page_bytes
        raws = np.empty((n_sensed, page_bytes), dtype=np.uint8)
        goldens = np.empty((n_sensed, page_bytes), dtype=np.uint8)
        hints: List[Optional[np.ndarray]] = [None] * n_sensed
        planes = np.empty(n_pages, dtype=np.int64)
        channels = np.empty(n_pages, dtype=np.int64)
        page_ids = np.empty(n_pages, dtype=np.int64)
        for rank in touch_order:
            page_offset = int(unique_pages[rank])
            ppa, plane_index, channel, page_id = self._locate(region, page_offset)
            planes[rank] = plane_index
            channels[rank] = channel
            page_ids[rank] = page_id
            if cached[rank]:
                continue
            plane = self.ssd.array.plane(ppa)
            row = stack_row[rank]
            raws[row], _ = plane.read_page(ppa.block, ppa.page)
            goldens[row], _ = plane.golden_view(ppa.block, ppa.page)
            hints[row] = plane.last_flipped_bytes
        ecc = self.ssd.ecc
        uncorrectable = ecc.uncorrectable_codewords
        corrected = ecc.correct_batch(raws, goldens, hints)
        if ecc.uncorrectable_codewords != uncorrectable:
            bad = int(np.argmax((corrected != goldens).any(axis=1)))
            raise UncorrectableReadError(
                region.name, int(unique_pages[np.flatnonzero(~cached)[bad]])
            )
        if n_sensed < n_pages:
            sensed_rows = corrected
            corrected = np.empty((n_pages, page_bytes), dtype=np.uint8)
            corrected[~cached] = sensed_rows
            for rank in np.flatnonzero(cached):
                corrected[rank] = entries[rank].data
        # Freshly-sensed pages are now golden (ECC-corrected): mirror them.
        for rank in touch_order:
            if not cached[rank]:
                self._admit_page(region, int(unique_pages[rank]), kind)
        return corrected, planes, channels, page_ids, cached, entry_nbytes

    def _bill_shared_tlc_senses(self, n_query_unique: int, n_physical: int,
                                page_bytes: int) -> None:
        """Charge the senses the batch kernels served from shared data.

        The energy-counter invariant bills unique senses *per query*: a page
        two queries touch costs two senses and two full-page ECC decodes,
        exactly as the scalar walk performs them.  The batch kernels sense
        each batch-unique page once functionally, so the per-query remainder
        is charged here -- shared host work, unshared energy.
        """
        extra = n_query_unique - n_physical
        if extra > 0:
            self.ssd.counters.add("page_reads", extra)
            self.ssd.counters.add("page_reads_tlc", extra)
            self.ssd.ecc.decoded_bytes += extra * page_bytes

    def _rerank_batch(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        shortlists: Sequence[object],
        ks: Sequence[int],
        stats_list: Sequence[SearchStats],
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, PhaseCost]]:
        """Step 8 for a whole batch: page-major INT8 rerank.

        Every query's shortlist RADRs are resolved to (page, codeword) in
        one columnar pass, each batch-unique page is sensed and
        ECC-corrected once (:meth:`_materialize_tlc_batch`), the INT8 codes
        gather into one ``(n_total_short, dim)`` matrix refined by a single
        einsum, and each query takes its top-k from its own segment.
        Billing stays per query and bit-identical to :meth:`_rerank`: each
        query is charged its own unique pages, deduped channel codewords,
        ECC bytes and core time, and the energy counters advance per query
        (:meth:`_bill_shared_tlc_senses`).  Returns one
        ``(distances, dadrs, slots, cost)`` tuple per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        n_queries = len(shortlists)
        region = db.int8_region
        dim = db.dim
        core = self.ssd.cores.reis_core
        cw = self.ssd.ecc.config.codeword_bytes

        per_query: List[Tuple[np.ndarray, np.ndarray]] = []
        for shortlist in shortlists:
            if isinstance(shortlist, TtlBlock):
                radrs = shortlist.radrs
                dadrs = shortlist.dadrs
            else:
                radrs = np.array(
                    [entry.radr for entry in shortlist], dtype=np.int64
                )
                dadrs = np.array(
                    [entry.dadr for entry in shortlist], dtype=np.int64
                )
            if radrs.size and (
                radrs.min() < 0 or radrs.max() >= region.n_slots
            ):
                raise IndexError(
                    f"shortlist RADR outside region {region.name!r}"
                )
            per_query.append((radrs, dadrs))
        counts = np.array([r.size for r, _ in per_query], dtype=np.int64)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        empty = np.empty(0, dtype=np.int64)
        outs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, PhaseCost]] = [
            (
                empty, empty, empty,
                PhaseCost(name="rerank", read_mode="tlc", with_compute=False),
            )
            for _ in range(n_queries)
        ]
        if int(counts.sum()) == 0:
            return outs

        radrs_all = np.concatenate([r for r, _ in per_query])
        page_offsets = radrs_all // region.slots_per_page
        starts = (radrs_all % region.slots_per_page) * dim
        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        corrected, plane_of, channel_of, page_id_of, cached_u, hit_nbytes = (
            self._materialize_tlc_batch(
                region, unique_pages, touch_order, "cluster"
            )
        )
        page_rank = np.searchsorted(unique_pages, page_offsets)
        # Row gather: each page is a (slots_per_page, dim) table of INT8
        # codes, so a shortlist entry is one row of the stacked view.
        spp = region.slots_per_page
        codes_all = corrected[:, : spp * dim].reshape(-1, spp, dim)[
            page_rank, radrs_all % spp
        ].view(np.int8)
        q_i8 = db.int8_quantizer.encode(queries).astype(np.int32)
        seg_of_row = np.repeat(np.arange(n_queries), counts)
        diff = codes_all.astype(np.int32) - q_i8[seg_of_row]
        refined_all = np.einsum("ij,ij->i", diff, diff).astype(np.int64)

        n_query_unique = 0
        for qi in range(n_queries):
            lo, hi = int(bounds[qi]), int(bounds[qi + 1])
            n_short = hi - lo
            if n_short == 0:
                continue
            cost = PhaseCost(name="rerank", read_mode="tlc", with_compute=False)
            seg_pages = page_offsets[lo:hi]
            seg_starts = starts[lo:hi]
            seg_rank = page_rank[lo:hi]
            u_first = np.unique(seg_pages, return_index=True)[1]
            u_order = np.argsort(u_first, kind="stable")
            for rank in u_order:
                row = int(seg_rank[u_first[rank]])
                if cached_u[row]:
                    self._bill_dram_hit(
                        cost, stats_list[qi], int(hit_nbytes[row]),
                        key=int(page_id_of[row]),
                    )
                else:
                    n_query_unique += 1
                    cost.add_page(
                        int(plane_of[row]), page_id=int(page_id_of[row])
                    )
                    stats_list[qi].pages_read += 1
            # Same (page, codeword) dedupe the scalar walk performs; mirror
            # hits never cross the channel or the ECC engine.
            first_cw = seg_starts // cw
            last_cw = (seg_starts + dim - 1) // cw
            cw_counts = (last_cw - first_cw + 1).astype(np.int64)
            within = np.arange(cw_counts.sum()) - np.repeat(
                np.cumsum(cw_counts) - cw_counts, cw_counts
            )
            cw_rows = np.repeat(np.arange(n_short), cw_counts)
            cw_index = np.repeat(first_cw, cw_counts) + within
            cw_per_page = int(last_cw.max()) + 1
            keys = seg_pages[cw_rows] * cw_per_page + cw_index
            unique_keys = np.unique(keys)
            key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
            sensed_keys = ~cached_u[key_ranks]
            unique_keys = unique_keys[sensed_keys]
            key_channels = channel_of[key_ranks[sensed_keys]]
            for channel in np.unique(key_channels):
                moved = int((key_channels == channel).sum()) * cw
                cost.add_channel_bytes(int(channel), moved)
            cost.ecc_bytes += unique_keys.size * cw
            self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

            refined = refined_all[lo:hi]
            cost.core_seconds += core.int8_distances(n_short, dim)
            k = min(int(ks[qi]), n_short)
            top = np.argsort(refined, kind="stable")[:k]
            cost.core_seconds += core.quicksort(n_short)
            radrs, all_dadrs = per_query[qi]
            outs[qi] = (refined[top], all_dadrs[top], radrs[top], cost)
        self._bill_shared_tlc_senses(
            n_query_unique, int((~cached_u).sum()), corrected.shape[1]
        )
        return outs

    def _fetch_documents_batch(
        self,
        db: DeployedDatabase,
        dadrs_list: Sequence[np.ndarray],
        stats_list: Sequence[SearchStats],
    ) -> List[Tuple[List[DocumentChunk], PhaseCost, float]]:
        """Step 9 for a whole batch: page-major document identification.

        Every query's result DADRs are resolved in one columnar pass and
        each batch-unique page materializes once (sense + one
        :meth:`EccEngine.correct_batch` call); the per-query charges are
        exactly :meth:`_fetch_documents`'s -- query-unique page senses and
        query-unique channel/ECC codewords -- with the per-query unique
        senses billed to the energy counters
        (:meth:`_bill_shared_tlc_senses`).  Returns one
        ``(documents, cost, host_transfer_seconds)`` tuple per query.
        """
        region = db.document_region
        item_bytes = region.item_bytes
        cw = self.ssd.ecc.config.codeword_bytes
        arrs = [np.asarray(d, dtype=np.int64) for d in dadrs_list]
        for arr in arrs:
            out_of_range = (arr < 0) | (arr >= region.n_slots)
            if out_of_range.any():
                bad = int(arr[np.argmax(out_of_range)])
                raise IndexError(f"slot {bad} outside region {region.name!r}")
        outs: List[Tuple[List[DocumentChunk], PhaseCost, float]] = [
            (
                [],
                PhaseCost(name="documents", read_mode="tlc", with_compute=False),
                0.0,
            )
            for _ in arrs
        ]
        counts = np.array([a.size for a in arrs], dtype=np.int64)
        if int(counts.sum()) == 0:
            return outs
        bounds = np.concatenate([[0], np.cumsum(counts)])
        dadr_all = np.concatenate(arrs)
        page_offsets = dadr_all // region.slots_per_page
        starts = (dadr_all % region.slots_per_page) * item_bytes
        first_cw = starts // cw
        last_cw = (starts + max(item_bytes, 1) - 1) // cw
        cw_per_page = int(last_cw.max()) + 1

        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        corrected, plane_of, channel_of, page_id_of, cached_u, hit_nbytes = (
            self._materialize_tlc_batch(
                region, unique_pages, touch_order, "document"
            )
        )
        page_rank = np.searchsorted(unique_pages, page_offsets)

        n_query_unique = 0
        for qi, arr in enumerate(arrs):
            n = int(counts[qi])
            if n == 0:
                continue
            lo, hi = int(bounds[qi]), int(bounds[qi + 1])
            cost = PhaseCost(
                name="documents", read_mode="tlc", with_compute=False
            )
            seg_rank = page_rank[lo:hi]
            # One sense per query-distinct uncached page, in this query's
            # first-touch order -- identical to the scalar walk's charges;
            # mirror hits bill their DRAM access instead.
            seg_unique, seg_first = np.unique(seg_rank, return_index=True)
            for rank in seg_unique[np.argsort(seg_first, kind="stable")]:
                if cached_u[rank]:
                    self._bill_dram_hit(
                        cost, stats_list[qi], int(hit_nbytes[rank]),
                        key=int(page_id_of[rank]),
                    )
                else:
                    n_query_unique += 1
                    cost.add_page(
                        int(plane_of[rank]), page_id=int(page_id_of[rank])
                    )
                    stats_list[qi].pages_read += 1
            # One channel/ECC codeword per query-distinct (page, codeword)
            # on uncached pages only.
            seg_first_cw = first_cw[lo:hi]
            seg_counts = (last_cw[lo:hi] - seg_first_cw + 1).astype(np.int64)
            within = np.arange(seg_counts.sum()) - np.repeat(
                np.cumsum(seg_counts) - seg_counts, seg_counts
            )
            cw_rows = np.repeat(np.arange(n), seg_counts)
            cw_index = np.repeat(seg_first_cw, seg_counts) + within
            keys = page_offsets[lo:hi][cw_rows] * cw_per_page + cw_index
            unique_keys = np.unique(keys)
            key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
            sensed_keys = ~cached_u[key_ranks]
            unique_keys = unique_keys[sensed_keys]
            key_channels = channel_of[key_ranks[sensed_keys]]
            for channel in np.unique(key_channels):
                moved = int((key_channels == channel).sum()) * cw
                cost.add_channel_bytes(int(channel), moved)
            cost.ecc_bytes += unique_keys.size * cw
            self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

            documents: List[DocumentChunk] = []
            for i in range(lo, hi):
                original_id = db.original_of_dadr(int(dadr_all[i]))
                if db.corpus is not None:
                    documents.append(db.corpus[original_id])
                else:
                    page = corrected[int(page_rank[i])]
                    start = int(starts[i])
                    payload = page[start : start + item_bytes]
                    documents.append(
                        DocumentChunk(
                            chunk_id=original_id,
                            text=DocumentChunk.decode_bytes(payload),
                        )
                    )
            host_bytes = float(n * item_bytes)
            host_s = host_bytes / self.ssd.spec.host_link_bandwidth_bps
            outs[qi] = (documents, cost, host_s)
        self._bill_shared_tlc_senses(
            n_query_unique, int((~cached_u).sum()), corrected.shape[1]
        )
        return outs

    # -------------------------------------------------------------- search

    def search(
        self,
        db: DeployedDatabase,
        query: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> ReisQueryResult:
        """Run one query through the full in-storage pipeline.

        Builds a :class:`~repro.core.plan.QueryPlan` and executes it with
        the sequential :class:`~repro.core.plan.PlanExecutor`.  For IVF
        databases ``nprobe`` selects how many clusters the fine search
        visits (default: enough for ~sqrt(nlist)).  For flat databases the
        fine search scans the whole embedding region (brute force, the
        "BF" rows of Figs. 7/8/10).  With ``metadata_filter`` only
        embeddings deployed with that tag can be returned (Sec. 7.1).
        """
        plan = build_query_plan(
            self, db, query, k, nprobe, fetch_documents, metadata_filter
        )
        return PlanExecutor(self).run(plan)

    def search_batch(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile=None,
    ) -> BatchExecution:
        """Serve a batch of queries concurrently against this device.

        Functional execution is per query (bit-identical to calling
        :meth:`search` in a loop); the latency model charges the batch
        jointly, amortizing page senses across queries and overlapping
        independent queries across dies and channels (see
        :class:`~repro.core.batch.BatchExecutor`).  ``host_profile``
        opts into host wall-clock accounting
        (:class:`~repro.host.profile.HostProfile`).
        """
        return BatchExecutor(self).execute(
            db, queries, k,
            nprobe=nprobe,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
            host_profile=host_profile,
        )
