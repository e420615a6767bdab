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

The list is what the hardware does per (query, page); the simulator runs
it at the coarsest grain that leaves results, traces, counters, latch
contents and error streams as that walk would: steps 2-4 per *plane* (one
sense run, one stacked XOR + popcount -- ESP-SLC's raw BER of 0 makes a
sensed page its stored bytes), steps 5-9 per *phase*, and only the TLC
error draws per page, because they pin each plane's RNG stream.

The phase methods here are the hardware-level primitives; what a batch
runs is a :class:`~repro.core.plan.QueryPlan` and the executor that
strings the phases together lives in :mod:`repro.core.batch` (a solo
query is a batch of one).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import ScanTasks
from repro.core.cache import PageCache
from repro.core.commands import DieCommandInterface
from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import PhaseLedger, ibc_time
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    ReisQueryResult,
    SearchStats,
    schedule_order,
    schedule_senses,
)
from repro.core.registry import TemporalTopList, TtlBlock
from repro.nand.cell import reliability
from repro.nand.ecc import UncorrectableReadError
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

    The phase kernel snapshots each unique page once, from its stored bytes
    (what a raw-BER-0 sense returns) or the DRAM mirror, so that the stacked
    distance pass reads one table and TTL rows stay ``(page, slot)`` references:
    :meth:`decode` -- the TTL table's row source -- assembles the RD_TTL
    payload (the embedding code and the OOB linkage words) only for the
    rows a selection asks for.
    """

    def __init__(
        self,
        page_offsets: np.ndarray,
        views: Sequence[Tuple[np.ndarray, np.ndarray]],
        slots_per_page: int,
        code_bytes: int,
        record_bytes: int,
        coarse: bool,
    ) -> None:
        self.page_offsets = page_offsets
        self.slots_per_page = slots_per_page
        self.coarse = coarse
        shape = (page_offsets.size, slots_per_page)
        n_code, n_record = slots_per_page * code_bytes, slots_per_page * record_bytes
        self.codes = np.concatenate(
            [data[:n_code] for data, _oob in views]
        ).reshape(*shape, code_bytes)
        self.records = np.concatenate(
            [oob[:n_record] for _data, oob in views]
        ).reshape(*shape, record_bytes)

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


class _TlcPages(NamedTuple):
    """The pages one TLC phase materialized: the corrected page stack plus
    the per-page billing columns, all indexed by stack row."""

    stack: np.ndarray  # (n_pages, page_bytes) golden bytes
    plane_of: np.ndarray
    channel_of: np.ndarray
    page_id_of: np.ndarray
    hit_nbytes: np.ndarray  # mirror size of a row served from DRAM, else 0


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
        planes_per_die = self.geometry.planes_per_die
        self._die_interfaces: Dict[int, DieCommandInterface] = {
            first // planes_per_die: DieCommandInterface(ssd.array.die_of_plane(first))
            for first in range(0, self.geometry.total_planes, planes_per_die)
        }

    # ------------------------------------------------------ DRAM page cache

    @property
    def page_cache(self) -> Optional[PageCache]:
        """The device's DRAM page cache (attached to the SSD; default off)."""
        return getattr(self.ssd, "page_cache", None)

    @staticmethod
    def _mirror_lookup(cache: Optional[PageCache], region: RegionInfo, pages):
        """``cache.lookup_pages``; all misses (rows -1, 0 bytes) with it off."""
        if cache is not None:
            return cache.lookup_pages(region, pages)
        nbytes = np.zeros(pages.size, dtype=np.int64)
        return nbytes - 1, nbytes

    def _bill_visits(
        self,
        ledger: PhaseLedger,
        stats_list: Sequence[SearchStats],
        queries: np.ndarray, planes: np.ndarray, page_ids: np.ndarray,
        hit_nbytes: np.ndarray,
    ) -> None:
        """Append a kernel's page visits to the phase ledger, as columns
        (query-major, each query's in its own visit order).

        ``hit_nbytes[i]`` is the mirror entry's size when the DRAM cache
        served visit ``i``, else 0.  A hit skips
        the sense, the latch work and the channel crossing: the controller
        streams the mirrored bytes out of the internal DRAM, so the visit
        bills :meth:`InternalDram.access_time` and the ``dram_cache_*``
        counters advance by the hit counts (billed work = unique NAND
        senses + DRAM hit bytes); its page identity lets a batch share the
        stream across the queries that drain it.
        """
        hit = hit_nbytes > 0
        if hit.any():
            nbytes = hit_nbytes[hit]
            ledger.add_dram_visits(
                queries[hit], page_ids[hit],
                self.ssd.dram.access_time(nbytes), nbytes,
            )
            self.ssd.counters.add("dram_cache_hits", int(nbytes.size))
            self.ssd.counters.add("dram_cache_bytes", int(nbytes.sum()))
            hits_of = np.bincount(queries[hit], minlength=len(stats_list))
            for stats, hits in zip(stats_list, hits_of.tolist()):
                stats.cache_hits += hits
            queries, planes, page_ids = queries[~hit], planes[~hit], page_ids[~hit]
        ledger.add_nand_visits(queries, planes, page_ids)

    # ----------------------------------------------------------------- IBC

    def _broadcast_batch(
        self, query_codes: np.ndarray, stats_list: Sequence[SearchStats]
    ) -> float:
        """Step 1: broadcast every query's code into every die's cache
        latches, back to back.

        Cache latches are overwrite-only, so only the last row survives,
        while commands, counters and per-query transfer stats reflect the
        full broadcast sequence.  Returns the per-query IBC time (all
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
        ttl: TemporalTopList,
        ledger: PhaseLedger,
        stats_list: Sequence[SearchStats],
    ) -> np.ndarray:
        """Steps 2-7 for one scan phase: the columnar phase kernel.

        ``tasks`` holds every (query, page, slot window) demand of the
        phase, query-major in each query's scan order; ``code_rows`` is the
        stacked query-code matrix and ``stats_list``, the rows of
        ``ledger`` and the queries of the phase's ``ttl`` table are indexed
        by ``tasks.queries``.  The region must be in a raw-BER-0 cell mode
        (:class:`ValueError` otherwise): in-plane distances are only
        defined on ECC-free data (Sec. 4.1.2).

        **Per unique page**: one cache residency lookup, one admission if
        freshly sensed, one code + OOB snapshot (:class:`_LatchedPages`).
        **Per plane**, through the die command interface: the demands in
        service order (:func:`~repro.core.plan.schedule_order`), *one sense
        run* over the requests whose page is not latched
        (:func:`~repro.core.plan.schedule_senses`) and *one stacked*
        ``XOR`` + ``GEN_DIST`` pass over every (page, query) extraction
        the plane owes; a page the DRAM cache mirrors is neither sensed nor
        latched (same arithmetic on the mirror's bytes, the visit bills
        DRAM).  **Per phase**, once: the slot-window + threshold mask, the
        in-die metadata-tag comparison, the surviving rows in each query's
        arrival order, commands / counters / :class:`SearchStats` by
        ``bincount``, the survivors streamed into the TTL table with the
        per-iteration quickselect accounted arithmetically.  See
        ``docs/architecture.md``, "Batched execution is page-major".

        **The bill** goes into ``ledger`` as columns: the task table *is*
        the visit table (:meth:`_bill_visits`), the ``(query, channel)``
        RD_TTL bytes add onto its byte matrix, the quickselects onto its
        per-query core seconds, the executed schedule's per-plane senses
        are its schedule feedback -- per query exactly the visits,
        transfers and quickselects it would pay solo.  Returns those
        senses (indexed by global plane).
        """
        n_tasks = len(tasks)
        n_planes = self.geometry.total_planes
        if n_tasks == 0:
            return np.zeros(n_planes, dtype=np.int64)
        region = db.centroid_region if coarse else db.embedding_region
        assert region is not None
        if reliability(region.mode).requires_ecc:
            raise ValueError(
                f"region {region.name!r} is in cell mode {region.mode.value!r}: "
                "in-plane distances are only defined on ECC-free data"
            )
        code_bytes = db.code_bytes
        record_bytes = self.params.tag_bytes if coarse else db.oob_record_bytes
        entry_bytes = ttl.entry_bytes
        spp = region.slots_per_page
        q_of = tasks.queries
        threshold = tasks.threshold

        # ---- the schedule: service order, fresh senses, mirror-served pages
        uniq, first_index, rank_of = np.unique(
            tasks.pages, return_index=True, return_inverse=True
        )
        plane_u, block_u, page_u, channel_u, page_id_u = (
            region.region.translate_columns(uniq, self.geometry)
        )
        # One residency snapshot of the unique pages: pages admitted while
        # this phase drains don't retroactively serve it (the schedule
        # partition is fixed, like the sense/latch plan itself).
        cache = self.page_cache
        rows_u, nbytes_u = self._mirror_lookup(cache, region, uniq)
        cached_u = nbytes_u > 0
        order = schedule_order(
            tasks.pages, self.flags.schedule_optimization, (first_index, rank_of)
        )
        rank_o = rank_of[order]
        plane_o = plane_u[rank_o]
        cached_o = cached_u[rank_o]
        sensed = schedule_senses(tasks.pages[order], plane_o, cached_o)

        # ---- per unique page: the bytes the phase computes on -- the
        # mirror's, or the stored ones (raw BER 0: what any sense returns)
        planes = self.ssd.array.planes
        hits = None if cache is None else zip(*cache.gather(rows_u[cached_u]))
        views = [
            next(hits) if cached else planes[plane_index].golden_view(block, page)
            for cached, plane_index, block, page in zip(
                cached_u.tolist(), plane_u.tolist(), block_u.tolist(), page_u.tolist()
            )
        ]
        latched = _LatchedPages(uniq, views, spp, code_bytes, record_bytes, coarse)
        if cache is not None:
            # Mirror the golden bytes of every freshly-sensed page (copied).
            fresh = np.flatnonzero(~cached_u).tolist()
            cache.admit_pages(
                region, uniq[fresh], "centroid" if coarse else "cluster",
                [views[i][0] for i in fresh], [views[i][1] for i in fresh],
            )

        # ---- per plane: one sense run over its fresh senses (service order)
        # and one stacked XOR + popcount over every (page, query) extraction
        # it owes; owner ``n_planes`` is the controller, over mirror bytes.
        owner = np.where(cached_o, n_planes, plane_o)
        table = latched.codes.reshape(uniq.size, -1)
        planes_per_die = self.geometry.planes_per_die
        dist = np.empty((n_tasks, spp), dtype=np.min_scalar_type(8 * code_bytes))
        for index in np.bincount(owner).nonzero()[0].tolist():
            served = (owner == index).nonzero()[0]
            rows = order[served]
            codes, ranks = code_rows[q_of[rows]], rank_of[rows]
            if index == n_planes:
                dist[rows] = xor_popcount_segments(table, codes, code_bytes, spp, ranks)
                continue
            interface = self._die_interfaces[index // planes_per_die]
            fresh = ranks[sensed[served]]
            interface.sense_run(
                index % planes_per_die, block_u[fresh].tolist(), page_u[fresh].tolist()
            )
            dist[rows] = interface.gen_dist_run(
                index % planes_per_die, codes, code_bytes, spp, table, ranks
            )

        # ---- per phase: window + threshold mask, metadata tag, survivors
        plane_t = plane_u[rank_of]
        channel_t = channel_u[rank_of]
        from_nand = ~cached_u[rank_of]
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
        sweeps_of = np.bincount(plane_t, weights=sweeps, minlength=n_planes)
        moved_of = np.bincount(plane_t, weights=moved, minlength=n_planes)
        for plane_index in np.flatnonzero(sweeps_of + moved_of).tolist():
            self._die_interfaces[plane_index // planes_per_die].record_extraction(
                plane_index % planes_per_die,
                int(sweeps_of[plane_index]),
                int(moved_of[plane_index]),
            )
        if moved.any():
            self.ssd.counters.add("channel_bytes", int(moved.sum()) * entry_bytes)

        # ---- the bill: the task table is the visit table
        self._bill_visits(
            ledger, stats_list, q_of, plane_t, page_id_u[rank_of], nbytes_u[rank_of]
        )
        n_queries = len(stats_list)
        n_channels = self.geometry.channels
        ledger.channel_bytes += np.bincount(
            q_of * n_channels + channel_t, weights=moved * entry_bytes,
            minlength=n_queries * n_channels,
        ).reshape(n_queries, n_channels)

        # ---- per query: stats; the TTL table takes every survivor at once.
        scanned, kept, visits = (
            np.bincount(q_of, weights=w, minlength=n_queries)
            .astype(np.int64).tolist()
            for w in (n_valid, n_kept, from_nand)
        )
        for stats, n_visits, n_scanned, n_transferred in zip(
            stats_list, visits, scanned, kept
        ):
            stats.pages_read += n_visits
            stats.entries_scanned += n_scanned
            stats.entries_filtered += n_scanned - n_transferred
            stats.entries_transferred += n_transferred
        # Per-iteration quickselect (Sec. 4.3.1): after each page the
        # embedded core trims the TTL back to the running top list,
        # bounding its DRAM footprint.  With pipelining this overlaps the
        # next page read (handled by overlap_stages).
        core = self.ssd.cores.reis_core
        for qi, processed in ttl.stream(
            latched, q_of[t_idx], dist[t_idx, s_idx], rank_of[t_idx], s_idx,
            q_of, n_kept,
        ):
            ledger.core_seconds[qi] += core.quickselect(processed, ttl.k)
        senses_of = np.bincount(plane_o[sensed], minlength=n_planes)
        ledger.add_schedule(senses_of)
        return senses_of

    # --------------------------------------------------------- search steps

    def select_nearest(
        self, ttl: TemporalTopList, ledger: PhaseLedger
    ) -> Tuple[TtlBlock, np.ndarray]:
        """Quickselect the k nearest rows of every query's TTL: the final
        selection of a scan phase (the fine phase's rescoring shortlists).

        One selection for the phase (:meth:`TemporalTopList.select`): the
        rows come back stacked, nearest first per query, with the
        per-query bounds -- the rerank and the shard barriers consume them
        as arrays -- while the embedded core is charged per query.
        """
        core = self.ssd.cores.reis_core
        for qi, size in enumerate(ttl.sizes.tolist()):
            ledger.core_seconds[qi] += core.quickselect(size, ttl.k)
        return ttl.select()

    def select_clusters(
        self, db: DeployedDatabase, ttl: TemporalTopList, ledger: PhaseLedger
    ) -> Tuple[TtlBlock, np.ndarray]:
        """Quickselect every query's nprobe nearest centroid rows.

        EADR is the centroid's mini-page address == the cluster id; the
        8-bit tag (which aliases for nlist > 256) is cross-checked.  The
        rows still carry their Hamming distances, which is what the shard
        router merges across devices.
        """
        assert db.r_ivf is not None
        block, bounds = self.select_nearest(ttl, ledger)
        mismatch = db.r_ivf.tags[block.eadrs] != block.tags
        if np.any(mismatch):
            bad = int(block.eadrs[np.argmax(mismatch)])
            raise RuntimeError(f"cluster tag mismatch for centroid {bad}")
        return block, bounds

    def fine_retries(
        self,
        survivors: Sequence[int],
        candidates: Sequence[int],
        threshold: Optional[int],
        shortlist_size: int,
    ) -> List[int]:
        """The queries distance filtering starved below k survivors.

        Takes counts (rather than TTLs) so the shard router can apply the
        *same* rule to cluster-wide totals: the retry is a global decision,
        exactly as it would be on one device scanning the whole corpus --
        per-shard local decisions would let one shard inject unfiltered
        candidates a single device never saw.
        """
        if threshold is None:
            return []
        k = max(1, shortlist_size // self.params.shortlist_factor)
        starved = np.asarray(survivors) < np.minimum(k, candidates)
        return np.flatnonzero(starved).tolist()

    def _slot_ranges(
        self, db: DeployedDatabase, clusters: Optional[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """Contiguous slot ranges the fine search must scan.

        A mutable database answers from its live cluster membership
        (:mod:`repro.core.ingest`): streamed appends extend a cluster past
        its deployed range and tombstoned entries drop out of the ranges,
        so the scan/rerank/filter phases skip dead slots without any
        re-layout.
        """
        index = getattr(db, "mutable_index", None)
        if index is not None:
            return index.slot_ranges(clusters)
        if clusters is None:
            return [(0, db.n_entries - 1)] if db.n_entries else []
        assert db.r_ivf is not None
        firsts, lasts = db.r_ivf.firsts[clusters], db.r_ivf.lasts[clusters]
        return [
            (first, last)
            for first, last in zip(firsts.tolist(), lasts.tolist()) if last >= first
        ]

    # ------------------------------------------------------ TLC phase kernels

    def _materialize_tlc_batch(
        self, region: RegionInfo, page_offsets: np.ndarray, kind: str
    ) -> Tuple["_TlcPages", np.ndarray]:
        """Materialize the TLC pages a phase's rows touch, once each.

        ``page_offsets`` is the page of every row of the phase (query-major).
        Each distinct page is looked up in the DRAM mirror once (the
        scheduling snapshot, in ascending page order); misses are sensed
        *straight into their rows of the page stack* in global first-touch
        order (one run per plane: the order pins each plane's
        error-injection RNG stream), ECC-corrected there by one
        :meth:`EccEngine.correct_batch` call and admitted into the cache,
        and hits copy the mirror's golden bytes into the rows after them.
        A page with a codeword past the correction capability raises
        :class:`UncorrectableReadError` before anything is admitted or
        returned.  Returns the stack with its per-row billing columns, and
        the stack row of every input row.  Billing is the *caller's* job
        (:meth:`_bill_tlc_phase`).
        """
        uniq, first_rows, inverse = np.unique(
            page_offsets, return_index=True, return_inverse=True
        )
        n_pages = uniq.size
        cache = self.page_cache
        rows_u, nbytes_u = self._mirror_lookup(cache, region, uniq)
        cached = nbytes_u > 0
        # Stack order: sensed pages by first touch, then mirror-served ones.
        order = np.lexsort((first_rows, cached))
        n_sensed = n_pages - int(cached.sum())
        offsets = uniq[order]
        plane_of, block_of, page_of, channel_of, page_id_of = (
            region.region.translate_columns(offsets, self.geometry)
        )
        stack = np.empty((n_pages, self.geometry.page_bytes), dtype=np.uint8)
        sensed = self.ssd.array.read_pages(
            plane_of[:n_sensed].tolist(), block_of[:n_sensed].tolist(),
            page_of[:n_sensed].tolist(), out=stack[:n_sensed],
        )
        ecc = self.ssd.ecc
        uncorrectable = ecc.uncorrectable_codewords
        ecc.correct_batch(stack[:n_sensed], sensed.golden, sensed.flipped)
        if ecc.uncorrectable_codewords != uncorrectable:
            bad = next(
                row for row, golden in enumerate(sensed.golden)
                if not np.array_equal(stack[row], golden)
            )
            raise UncorrectableReadError(region.name, int(offsets[bad]))
        if n_sensed < n_pages:  # mirror-served rows: one gather
            hits, _oob = cache.gather(rows_u[order[n_sensed:]])
            stack[n_sensed:] = hits[:, : stack.shape[1]]
        if cache is not None:
            # Freshly-sensed pages are now golden (ECC-corrected): mirror them.
            cache.admit_pages(region, offsets[:n_sensed], kind, stack[:n_sensed], sensed.oob)
        row_of = np.empty(n_pages, dtype=np.int64)
        row_of[order] = np.arange(n_pages)
        pages = _TlcPages(stack, plane_of, channel_of, page_id_of, nbytes_u[order])
        return pages, row_of[inverse]

    def _bill_tlc_phase(
        self,
        name: str,
        seg_of_row: np.ndarray,
        page_row: np.ndarray,
        first_cw: np.ndarray,
        last_cw: np.ndarray,
        pages: _TlcPages,
        stats_list: Sequence[SearchStats],
    ) -> PhaseLedger:
        """Every query's TLC charges for one phase, as one ledger.

        Row ``i`` of the phase belongs to query ``seg_of_row[i]``
        (query-major) and reads ECC codewords ``first_cw[i]..last_cw[i]``
        (none when ``last_cw < first_cw``: a zero-length read) of the page
        in row ``page_row[i]`` of ``pages``.  A query pays what it would pay
        alone: one visit per distinct page, in its own first-touch order
        (a sense, or a DRAM stream for a cached page: :meth:`_bill_visits`)
        and one channel + ECC codeword per distinct (page, codeword) on
        uncached pages -- codewords of mirror-served pages never cross the
        channel or the ECC engine.  The ledger's schedule is the senses the
        phase executed, one per uncached row of ``pages``.  The device
        counters advance per query too: the phase sensed each page once, so
        the cross-query remainder of ``page_reads`` / ``decoded_bytes`` is
        charged here -- shared host work, unshared energy.
        """
        n_queries = len(stats_list)
        ledger = PhaseLedger(name, n_queries, self.geometry, "tlc", with_compute=False)
        _stack, plane_of, channel_of, page_id_of, hit_nbytes = pages
        cached = hit_nbytes > 0
        n_pages = plane_of.size
        visit_of_row = seg_of_row * n_pages + page_row
        # (query, page) visits, query-major in each query's first-touch order.
        visits, first = np.unique(visit_of_row, return_index=True)
        visits = visits[np.argsort(first, kind="stable")]
        visit_q, visit_row = np.divmod(visits, n_pages)
        self._bill_visits(
            ledger, stats_list, visit_q, plane_of[visit_row],
            page_id_of[visit_row], hit_nbytes[visit_row],
        )
        ledger.add_schedule(
            np.bincount(plane_of[~cached], minlength=self.geometry.total_planes)
        )
        sensed_visits = np.bincount(
            visit_q[~cached[visit_row]], minlength=n_queries
        )
        # (query, page, codeword) dedupe over each row's codeword range.
        cw = self.ssd.ecc.config.codeword_bytes
        page_bytes = self.geometry.page_bytes
        cw_per_page = -(-page_bytes // cw)
        counts = last_cw - first_cw + 1
        within = np.arange(counts.max(initial=0))
        keys = (visit_of_row * cw_per_page + first_cw)[:, None] + within
        keys = np.unique(keys[within < counts[:, None]])
        key_q, key_row = np.divmod(keys // cw_per_page, n_pages)
        moved = ~cached[key_row]
        n_channels = self.geometry.channels
        codewords_of = np.bincount(
            key_q[moved] * n_channels + channel_of[key_row[moved]],
            minlength=n_queries * n_channels,
        ).reshape(n_queries, n_channels)
        ledger.channel_bytes += codewords_of * cw
        ledger.ecc_bytes += codewords_of.sum(axis=1) * cw
        for stats, n_sensed in zip(stats_list, sensed_visits.tolist()):
            stats.pages_read += n_sensed
        self.ssd.counters.add("channel_bytes", int(moved.sum()) * cw)
        extra = int(sensed_visits.sum()) - int(n_pages - cached.sum())
        if extra > 0:
            self.ssd.counters.add("page_reads", extra)
            self.ssd.counters.add("page_reads_tlc", extra)
            self.ssd.ecc.decoded_bytes += extra * page_bytes
        return ledger

    def _rerank_batch(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        shortlists: Sequence[TtlBlock],
        ks: Sequence[int],
        stats_list: Sequence[SearchStats],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], PhaseLedger]:
        """Steps 7-8 for a phase of queries: page-major INT8 rerank.

        INT8 twins live in the TLC partition, so each page routes through
        the controller's ECC engine before the distance kernel runs.  Every
        query's shortlist RADRs resolve to (page, codeword) in one columnar
        pass, each phase-unique page is materialized once
        (:meth:`_materialize_tlc_batch`), the INT8 codes gather into one
        ``(n_total_short, dim)`` matrix refined by a single einsum, and each
        query quicksorts its own segment on the embedded core.  Billing is
        per query (:meth:`_bill_tlc_phase`).  Returns one ``(distances,
        dadrs, slots)`` tuple per query and the phase's ledger.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        region = db.int8_region
        dim = db.dim
        spp = region.slots_per_page
        counts = np.array([len(block) for block in shortlists], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if int(counts.sum()) == 0:
            return [(empty, empty, empty)] * len(shortlists), PhaseLedger(
                "rerank", len(shortlists), self.geometry, "tlc", with_compute=False
            )
        live = [block for block in shortlists if len(block)]
        radrs = np.concatenate([block.radrs for block in live])
        dadrs = np.concatenate([block.dadrs for block in live])
        if radrs.min() < 0 or radrs.max() >= region.n_slots:
            raise IndexError(f"shortlist RADR outside region {region.name!r}")
        page_offsets, slot_in_page = np.divmod(radrs, spp)
        pages, page_row = self._materialize_tlc_batch(
            region, page_offsets, "cluster"
        )
        seg_of_row = np.repeat(np.arange(len(shortlists)), counts)
        cw = self.ssd.ecc.config.codeword_bytes
        starts = slot_in_page * dim
        ledger = self._bill_tlc_phase(
            "rerank", seg_of_row, page_row,
            starts // cw, (starts + dim - 1) // cw, pages, stats_list,
        )
        # Row gather: each page is a (slots_per_page, dim) table of INT8
        # codes, so a shortlist entry is one row of the stacked view.
        codes = pages.stack[:, : spp * dim].reshape(-1, spp, dim)[
            page_row, slot_in_page
        ].view(np.int8)
        # int32 holds dim * 255**2 for any dim below 33,000.
        diff = np.subtract(
            codes, db.int8_quantizer.encode(queries)[seg_of_row], dtype=np.int32
        )
        refined = np.einsum("ij,ij->i", diff, diff).astype(np.int64)

        core = self.ssd.cores.reis_core
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        outs = []
        for qi, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo == hi:
                outs.append((empty, empty, empty))
                continue
            ledger.core_seconds[qi] += core.int8_distances(hi - lo, dim)
            top = lo + np.argsort(refined[lo:hi], kind="stable")[: int(ks[qi])]
            ledger.core_seconds[qi] += core.quicksort(hi - lo)
            outs.append((refined[top], dadrs[top], radrs[top]))
        return outs, ledger

    def _fetch_documents_batch(
        self,
        db: DeployedDatabase,
        dadrs_list: Sequence[np.ndarray],
        stats_list: Sequence[SearchStats],
    ) -> Tuple[List[Tuple[List[DocumentChunk], float]], PhaseLedger]:
        """Step 9 for a phase of queries: document identification + transfer.

        Every query's result DADRs resolve in one columnar pass and each
        phase-unique page materializes once
        (:meth:`_materialize_tlc_batch`).  Charges are per-query-unique,
        exactly as the rerank phase treats its shortlist
        (:meth:`_bill_tlc_phase`): with packed document slots several
        results routinely share a page and the query pays for it once;
        cross-query charges are never deduplicated (the energy-counter
        invariant).  The winners' payload rows decode, and their ids
        gather, in one pass each (:meth:`DocumentChunk.decode_rows`).
        Returns one ``(documents, host_transfer_seconds)`` pair per query
        and the phase's ledger.
        """
        region = db.document_region
        item_bytes = region.item_bytes
        counts = np.array([len(d) for d in dadrs_list], dtype=np.int64)
        if int(counts.sum()) == 0:
            return [([], 0.0)] * len(dadrs_list), PhaseLedger(
                "documents", len(dadrs_list), self.geometry, "tlc", with_compute=False
            )
        dadrs = np.concatenate(
            [np.asarray(d, dtype=np.int64) for d in dadrs_list]
        )
        out_of_range = (dadrs < 0) | (dadrs >= region.n_slots)
        if out_of_range.any():
            bad = int(dadrs[np.argmax(out_of_range)])
            raise IndexError(f"slot {bad} outside region {region.name!r}")
        page_offsets, slot_in_page = np.divmod(dadrs, region.slots_per_page)
        pages, page_row = self._materialize_tlc_batch(
            region, page_offsets, "document"
        )
        cw = self.ssd.ecc.config.codeword_bytes
        starts = slot_in_page * item_bytes
        ledger = self._bill_tlc_phase(
            "documents", np.repeat(np.arange(len(dadrs_list)), counts), page_row,
            starts // cw, (starts + max(item_bytes, 1) - 1) // cw,
            pages, stats_list,
        )
        chunk_ids = db.original_of_dadr(dadrs).tolist()
        if db.corpus is not None:
            documents = [db.corpus[chunk_id] for chunk_id in chunk_ids]
        else:
            payloads = pages.stack[
                page_row[:, None], starts[:, None] + np.arange(item_bytes)
            ]
            documents = [
                DocumentChunk(chunk_id=chunk_id, text=text)
                for chunk_id, text in zip(
                    chunk_ids, DocumentChunk.decode_rows(payloads)
                )
            ]
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        host_bandwidth = self.ssd.spec.host_link_bandwidth_bps
        return [
            (documents[lo:hi], float((hi - lo) * item_bytes) / host_bandwidth)
            for lo, hi in zip(bounds, bounds[1:])
        ], ledger
