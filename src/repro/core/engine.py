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
it at the coarsest grain that leaves results, traces, counters and latch
contents as that walk would: every step per *phase*, over every plane of
every device at once -- one stacked XOR + popcount for steps 2-4
(ESP-SLC's raw BER of 0 makes a sensed page its stored bytes), the
latches, command counts and counters as columns of the array's tables,
and the TLC pages' raw bit errors in one draw per array read, from the
device's one error stream.

The phase kernels here serve every shard of a batch at once (one
drive is the one-shard case); the drivers that string them into a
:class:`~repro.core.plan.QueryPlan` live in :mod:`repro.core.batch`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchRun, ScanTasks
from repro.core.cache import PageCache
from repro.core.commands import OP_COLUMN, DeviceCommandInterface
from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import PhaseLedger, ibc_time
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    STAT_ROW,
    ReisQueryResult,
    SearchStats,
    schedule_order,
    schedule_senses,
)
from repro.core.registry import TemporalTopList, TtlBlock
from repro.nand.array import READ_COUNTER_KEYS
from repro.nand.cell import RELIABILITY
from repro.nand.ecc import UncorrectableReadError
from repro.nand.latches import xor_popcount_segments
from repro.ssd.cores import log2_counts
from repro.ssd.device import SimulatedSSD
from repro.sim.unique import sorted_unique

__all__ = [
    "InStorageAnnsEngine",
    "ReisQueryResult",
    "SearchStats",
]

# The count-table rows a scan phase adds, in the order it stacks them.
_SCAN_ROWS = np.array([
    STAT_ROW.pages_read, STAT_ROW.entries_scanned,
    STAT_ROW.entries_transferred, STAT_ROW.entries_filtered,
])


class _LatchedPages:
    """The pages one scan phase computes on, by page rank: full page and
    OOB stacks plus code / OOB-record views of them.

    The phase kernel snapshots each unique page once, from its stored bytes
    (what a raw-BER-0 sense returns) or the DRAM mirror, so that the stacked
    distance pass reads one table, each plane's latch can take the last
    page it sensed from it, and TTL rows stay ``(page, slot)`` references:
    :meth:`decode` -- the TTL table's row source -- assembles the RD_TTL
    payload (the embedding code and the OOB linkage words) only for the
    rows a selection asks for.
    """

    def __init__(
        self,
        page_offsets: np.ndarray,
        data: np.ndarray,
        oob: np.ndarray,
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
        self.codes = data[:, :n_code].reshape(*shape, code_bytes)
        self.records = oob[:, :n_record].reshape(*shape, record_bytes)

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


def _stack_rows(lo: int, hi: int, picked: np.ndarray):
    """Rows ``lo + picked`` of a page stack: the slice ``lo:hi`` when
    ``picked`` is every one of them, so a gather copies straight in."""
    return slice(lo, hi) if picked.size == hi - lo else lo + picked


def _cut_sums(column: np.ndarray, cuts: Sequence[int]) -> List[int]:
    """``column[cuts[s]:cuts[s + 1]].sum()`` for every ``s``, as ints."""
    prefix = np.concatenate(([0], column.cumsum()))
    return (prefix[cuts[1:]] - prefix[cuts[:-1]]).tolist()


class _TlcPages(NamedTuple):
    """The pages one TLC phase materialized: the corrected page stack plus
    the per-page billing columns, all indexed by stack row.  Shard ``s``'s
    pages are the rows ``cuts[s]:cuts[s + 1]``; planes are its own."""

    stack: np.ndarray  # (n_pages, page_bytes) golden bytes
    plane_of: np.ndarray
    channel_of: np.ndarray
    page_id_of: np.ndarray
    hit_nbytes: np.ndarray  # mirror size of a row served from DRAM, else 0
    cuts: List[int]


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
        # Every die's command FSM as one (die, op) table; the per-die views
        # are indexed by global die index.
        self.commands = DeviceCommandInterface(ssd.array)
        self._die_interfaces = self.commands.dies

    # ------------------------------------------------------ DRAM page cache

    @property
    def page_cache(self) -> Optional[PageCache]:
        """The device's DRAM page cache (attached to the SSD; default off)."""
        return self.ssd.page_cache

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
        cache_hits: np.ndarray,
        queries: np.ndarray, planes: np.ndarray, page_ids: np.ndarray,
        hit_nbytes: np.ndarray,
    ) -> Tuple[int, int]:
        """Append a kernel's page visits to the phase ledger, as columns
        (query-major, each query's in its own visit order), and each
        ledger row's DRAM-served visits to ``cache_hits`` (one count per
        row, added in place).

        ``hit_nbytes[i]`` is the mirror entry's size when the DRAM cache
        served visit ``i``, else 0.  A hit skips
        the sense, the latch work and the channel crossing: the controller
        streams the mirrored bytes out of the internal DRAM, so the visit
        bills :meth:`InternalDram.access_time`; its page identity lets a
        batch share the stream across the queries that drain it.  Returns
        the ``(dram_cache_hits, dram_cache_bytes)`` the device's counters
        advance by (billed work = unique NAND senses + DRAM hit bytes), for
        the caller's one add of the phase.
        """
        hit = hit_nbytes > 0
        if not np.logical_or.reduce(hit):
            ledger.add_nand_visits(queries, planes, page_ids)
            return 0, 0
        nbytes = hit_nbytes[hit]
        ledger.add_dram_visits(
            queries[hit], page_ids[hit], self.ssd.dram.access_time(nbytes), nbytes,
        )
        cache_hits += np.bincount(queries[hit], minlength=cache_hits.size)
        miss = ~hit
        ledger.add_nand_visits(queries[miss], planes[miss], page_ids[miss])
        return nbytes.size, int(np.add.reduce(nbytes))

    # ----------------------------------------------------------------- IBC

    def _broadcast_batch(self, query_codes: np.ndarray) -> Tuple[float, int]:
        """Step 1: broadcast every query's code into every die's cache
        latches, back to back: one device-wide IBC
        (:meth:`DeviceCommandInterface.broadcast`).

        Cache latches are overwrite-only, so only the last row survives,
        while commands, counters and per-query transfer stats reflect the
        full broadcast sequence.  Returns the per-query IBC time (all
        codes in a batch share one width) and IBC transfers.
        """
        n = len(query_codes)
        if n == 0:
            return 0.0, 0
        per_query = self.commands.broadcast(
            query_codes, multi_plane=self.flags.multi_plane_ibc
        ) // n
        return ibc_time(
            self.geometry, self.timing, query_codes.shape[1], self.flags
        ), per_query

    # ------------------------------------------------------------ scan core

    def scan_page_run(
        self,
        runs: Sequence["BatchRun"],
        ledgers: Sequence[PhaseLedger],
        tasks: ScanTasks,
        coarse: bool,
        ttl: TemporalTopList,
    ) -> np.ndarray:
        """Steps 2-7 for one scan phase of every shard: the columnar kernel.

        ``tasks`` holds every (shard, query, page, slot window) demand of
        the phase, shard-major, then query-major in each query's scan
        order; ``tasks.shards`` indexes ``runs`` and ``ledgers`` (one per
        drive) and the rows of ``ttl`` are the (shard, query) pairs.  The
        shards share one config and code space (read off ``self``); what a
        drive owns is read off its run's engine.  A region not in a
        raw-BER-0 cell mode is a :class:`ValueError`: in-plane distances
        are only defined on ECC-free data (Sec. 4.1.2).

        **Per phase**, once over the table: the unique (shard, page) pass,
        the service order and sense marks keyed by (shard, plane)
        (:func:`~repro.core.plan.schedule_order` /
        :func:`~repro.core.plan.schedule_senses`), one stacked ``XOR`` +
        ``GEN_DIST`` pass over every (page, query) extraction, NAND- and
        mirror-served alike, the window + threshold mask, the in-die
        metadata-tag comparison, the survivors in arrival order, the
        (shard, die) command counts and (shard, plane) fail-bit counts by
        ``bincount``, stats and one TTL stream.  **Per shard** -- once per
        device, never per plane: its address translation, one cache lookup,
        one page + OOB snapshot per unique page (:class:`_LatchedPages`),
        one admission of the freshly sensed ones, one step that advances its
        command table, invocation column, latches (each plane keeps the last
        page it sensed; mirror-served pages are neither sensed nor latched)
        and counters, and its core and ledger.  See
        ``docs/architecture.md``, "Batched execution is page-major".

        **The bill**, per shard as columns: the task table *is* the visit
        table (:meth:`_bill_visits`), plus the ``(query, channel)`` RD_TTL
        bytes, the quickselects and the executed schedule's per-plane
        senses -- per query exactly what it would pay solo.  Returns those
        senses, ``(shard, plane)``.
        """
        n_tasks, n_runs = len(tasks), len(runs)
        n_planes = self.geometry.total_planes
        if n_tasks == 0:
            return np.zeros((n_runs, n_planes), dtype=np.int64)
        kind = "centroid_region" if coarse else "embedding_region"
        regions = [getattr(run.db, kind) for run in runs]
        for region in regions:
            if RELIABILITY[region.mode.code].requires_ecc:
                raise ValueError(
                    f"region {region.name!r} is in cell mode {region.mode.value!r}: "
                    "in-plane distances are only defined on ECC-free data"
                )
        db = runs[0].db
        code_bytes = db.code_bytes
        record_bytes = self.params.tag_bytes if coarse else db.oob_record_bytes
        entry_bytes = ttl.entry_bytes
        spp = regions[0].slots_per_page
        n_queries = ttl.n_queries
        shard_t, q_of = tasks.shards, tasks.queries
        row_t = shard_t * n_queries + q_of  # the demand's TTL / stats row
        threshold = tasks.threshold

        # ---- per shard: its unique pages' addresses, one residency snapshot
        # (pages admitted while this phase drains don't retroactively serve
        # it: the schedule partition is fixed, like the sense/latch plan),
        # the bytes the phase computes on -- the mirror's, or the stored
        # ones (raw BER 0: what any sense returns) -- and one admission.
        stride = int(np.maximum.reduce(tasks.pages)) + 1
        uniq, first_index, rank_of = sorted_unique(shard_t * stride + tasks.pages)
        shard_u, pages_u = np.divmod(uniq, stride)
        cuts = shard_u.searchsorted(np.arange(n_runs + 1)).tolist()
        columns = np.empty((6, uniq.size), dtype=np.int64)
        page_bytes, oob_bytes = self.geometry.page_bytes, self.geometry.oob_bytes
        data_u = np.empty((uniq.size, page_bytes), dtype=np.uint8)
        oob_u = np.empty((uniq.size, oob_bytes), dtype=np.uint8)
        for run, region, lo, hi in zip(runs, regions, cuts, cuts[1:]):
            if lo == hi:
                continue
            pages = pages_u[lo:hi]
            columns[:5, lo:hi] = region.region.translate_columns(pages, self.geometry)
            cache = run.engine.ssd.page_cache
            rows, columns[5, lo:hi] = self._mirror_lookup(cache, region, pages)
            cached = columns[5, lo:hi] > 0
            fresh = (~cached).nonzero()[0]
            at = _stack_rows(lo, hi, fresh)
            if fresh.size:
                run.engine.ssd.array.gather(*columns[:3, at], at, data_u, oob_u)
            if cache is None:
                continue
            hits = cached.nonzero()[0]
            if hits.size:
                cache.gather(rows[hits], _stack_rows(lo, hi, hits), data_u, oob_u)
            if fresh.size:  # mirror every freshly-sensed page's golden bytes
                cache.admit_pages(
                    region, pages[fresh], "centroid" if coarse else "cluster",
                    data_u[at], oob_u[at],
                )
        plane_u, _block_u, _page_u, channel_u, page_id_u, nbytes_u = columns
        cached_u = nbytes_u > 0
        latched = _LatchedPages(
            pages_u, data_u, oob_u, spp, code_bytes, record_bytes, coarse
        )

        # ---- the schedule: service order, fresh senses, keyed by (shard, plane)
        lane_u = shard_u * n_planes + plane_u
        order = schedule_order(
            rank_of, self.flags.schedule_optimization, (first_index, rank_of)
        )
        rank_o = rank_of[order]
        lane_o = lane_u[rank_o]
        sensed = schedule_senses(rank_o, lane_o, cached_u[rank_o])

        # ---- one stacked XOR + popcount over every (page, query)
        # extraction of the phase: the planes' latch circuits over the pages
        # they sensed and the controller over mirror bytes compute the same
        # arithmetic (a latched ESP-SLC page is its stored bytes).
        dist = xor_popcount_segments(
            data_u, runs[0].codes[q_of], code_bytes, spp, rank_of
        )

        # ---- per phase: window + threshold mask, metadata tag, survivors
        lane_t = lane_u[rank_of]
        from_nand = ~cached_u[rank_of]
        n_slots = np.array([region.n_slots for region in regions])[shard_t]
        in_page = np.minimum(np.maximum(n_slots - tasks.pages * spp, 0), spp)
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
        t_idx, s_idx = mask.nonzero()
        if tasks.filters.count(None) < len(tasks.filters):
            has_filter = np.array([f is not None for f in tasks.filters])
            wanted = np.array(
                [0 if f is None else f for f in tasks.filters], dtype=np.int64
            )
            tagged = has_filter[q_of]
            sweeps += (
                from_nand & tagged & (np.bincount(t_idx, minlength=n_tasks) > 0)
            )
            check = tagged[t_idx]
            metas = latched.words(rank_of[t_idx[check]], s_idx[check])[:, 2]
            keep = ~check
            keep[check] = metas == wanted[q_of[t_idx[check]]]
            t_idx, s_idx = t_idx[keep], s_idx[keep]
        n_kept = np.bincount(t_idx, minlength=n_tasks)
        # Only NAND-served rows are RD_TTL moves over a flash channel.
        moved = np.where(from_nand, n_kept, 0)

        # ---- every device's commands, latches and counters, as columns: a
        # (shard, die) count per op (in FlashOp order), a (shard, plane)
        # fail-bit invocation per NAND-served extraction, and each plane's
        # last sensed page.
        controller, planes_per_die = n_runs * n_planes, self.geometry.planes_per_die
        senses, rank_s = lane_o[sensed], rank_o[sensed]
        die_s, die_t = senses // planes_per_die, lane_t // planes_per_die
        n_keys = controller // planes_per_die
        ops = np.zeros((n_keys, len(OP_COLUMN)), dtype=np.int64)  # IBC stays 0
        ops[:, 0] = np.bincount(die_s, minlength=n_keys)  # READ_PAGE
        for column, weights in enumerate((from_nand, from_nand, sweeps, moved), 2):
            ops[:, column] = np.bincount(die_t, weights, n_keys)  # XOR .. RD_TTL
        ops = ops.reshape(n_runs, -1, len(OP_COLUMN))
        invocations = np.bincount(lane_t, weights=from_nand, minlength=controller)
        invocations = invocations.astype(np.int64).reshape(n_runs, n_planes)

        # ---- the bill, per shard: the task table is the visit table
        n_rows, n_channels = n_runs * n_queries, self.geometry.channels
        channel_bytes = np.bincount(
            row_t * n_channels + channel_u[rank_of], weights=moved * entry_bytes,
            minlength=n_rows * n_channels,
        ).reshape(n_runs, n_queries, n_channels)
        senses_of = np.bincount(senses, minlength=controller).reshape(
            n_runs, n_planes
        )
        moved_by_shard = np.bincount(shard_t, weights=moved, minlength=n_runs).tolist()
        plane_t, page_id_t, hit_t = plane_u[rank_of], page_id_u[rank_of], nbytes_u[rank_of]
        cuts = shard_t.searchsorted(np.arange(n_runs + 1)).tolist()
        for shard, (run, ledger, first, end) in enumerate(zip(runs, ledgers, cuts, cuts[1:])):
            if first == end:
                continue
            mine = slice(first, end)
            engine, array = run.engine, run.engine.ssd.array
            engine.commands.counts += ops[shard]
            array.latches.invocations += invocations[shard]
            # The shard's totals per op, in FlashOp order.
            n_senses, _ibc, n_xors, n_counts, n_sweeps, _moves = np.add.reduce(ops[shard]).tolist()
            if n_senses:
                own = senses // n_planes == shard
                array.latches.latch_senses(
                    senses[own] - shard * n_planes, data_u, oob_u, rank_s[own]
                )
            hits, hit_bytes = engine._bill_visits(
                ledger, run.counts[STAT_ROW.cache_hits],
                q_of[mine], plane_t[mine], page_id_t[mine], hit_t[mine],
            )
            array.counters.add_all({
                "page_reads": n_senses, READ_COUNTER_KEYS[regions[shard].mode.code]: n_senses,
                "latch_xors": n_xors, "bit_counts": n_counts, "pass_fail_checks": n_sweeps,
                "dram_cache_hits": hits, "dram_cache_bytes": hit_bytes,
                "channel_bytes": int(moved_by_shard[shard]) * entry_bytes})
            ledger.channel_bytes += channel_bytes[shard]
            ledger.add_schedule(senses_of[shard])
            run.stats.scan_requests += end - first
            run.stats.scan_senses += n_senses

        # ---- per (shard, query): the scan's count rows, one block per
        # run; the TTL table takes every survivor at once.
        visits, scanned, kept = [
            np.bincount(row_t, weights, n_rows).astype(np.int64).reshape(n_runs, n_queries)
            for weights in (from_nand, n_valid, n_kept)
        ]
        for run, *block in zip(runs, visits, scanned, kept, scanned - kept):
            run.counts[_SCAN_ROWS] += block
        # Per-iteration quickselect (Sec. 4.3.1): after each page the
        # embedded core trims the TTL back to the running top list,
        # bounding its DRAM footprint.  With pipelining this overlaps the
        # next page read (handled by overlap_stages).
        compactions = ttl.stream(
            latched, row_t[t_idx], dist[t_idx, s_idx], rank_of[t_idx], s_idx,
            row_t, n_kept,
        )
        if compactions:
            rows, processed = np.array(compactions, dtype=np.int64).T
            self._charge_quickselects(runs, ledgers, ttl, rows, processed)
        return senses_of

    # --------------------------------------------------------- search steps

    def select_nearest(
        self,
        runs: Sequence["BatchRun"],
        ledgers: Sequence[PhaseLedger],
        ttl: TemporalTopList,
    ) -> Tuple[TtlBlock, np.ndarray]:
        """Quickselect the k nearest rows of every (shard, query) list of a
        TTL table -- a scan phase's final selection -- in one
        :meth:`TemporalTopList.select`: rows stacked nearest first per
        list, with the row bounds.  Each shard's embedded core is charged
        one quickselect per row, as one column onto its ledger."""
        self._charge_quickselects(runs, ledgers, ttl, np.arange(ttl.sizes.size), ttl.sizes)
        return ttl.select()

    @staticmethod
    def _charge_quickselects(runs, ledgers, ttl, rows, n_elements) -> None:
        """Charge ``ttl`` row ``rows[i]`` (ascending) a quickselect of its k
        from ``n_elements[i]`` entries: one core column per shard, in row
        order, onto its ledger."""
        n_queries, ks = ttl.n_queries, ttl.limits[rows]
        cuts = (rows // n_queries).searchsorted(np.arange(len(runs) + 1)).tolist()
        for shard, (run, ledger, lo, hi) in enumerate(zip(runs, ledgers, cuts, cuts[1:])):
            if lo < hi:
                seconds = run.engine.ssd.cores.reis_core.quickselects(n_elements[lo:hi], ks[lo:hi])
                np.add.at(ledger.core_seconds, rows[lo:hi] - shard * n_queries, seconds)

    def select_clusters(
        self,
        runs: Sequence["BatchRun"],
        ledgers: Sequence[PhaseLedger],
        ttl: TemporalTopList,
    ) -> Tuple[TtlBlock, np.ndarray]:
        """Quickselect every (shard, query) row's nprobe nearest centroids.
        EADR is the centroid's mini-page address == the shard-local cluster
        id; the 8-bit tag (aliasing for nlist > 256) is cross-checked
        against each shard's R-IVF.  The rows keep their Hamming distances,
        which the shard router merges across devices."""
        block, bounds = self.select_nearest(runs, ledgers, ttl)
        cuts = bounds[:: ttl.n_queries].tolist()
        for run, lo, hi in zip(runs, cuts, cuts[1:]):
            mismatch = run.db.r_ivf.tags[block.eadrs[lo:hi]] != block.tags[lo:hi]
            if np.logical_or.reduce(mismatch):
                bad = int(block.eadrs[lo + mismatch.argmax()])
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
        return starved.nonzero()[0].tolist()

    def _slot_ranges(
        self, db: DeployedDatabase, clusters: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The contiguous slot ranges the fine search scans, as columns
        ``(owner, first, last)``: range ``i`` is slots ``first[i]..last[i]``
        of cluster ``clusters[owner[i]]`` (of the whole database, owner 0,
        when ``clusters`` is None); empty clusters give none.  A mutable
        database answers from its live membership (:mod:`repro.core.ingest`):
        appends extend a cluster's ranges and tombstones split them.
        """
        index = getattr(db, "mutable_index", None)
        if index is not None:
            return index.slot_ranges(clusters)
        if clusters is None:
            whole = np.array([[0], [0], [db.n_entries - 1]], dtype=np.int64)
            return tuple(whole[:, : int(db.n_entries > 0)])
        assert db.r_ivf is not None
        firsts, lasts = db.r_ivf.firsts[clusters], db.r_ivf.lasts[clusters]
        owner = (lasts >= firsts).nonzero()[0]
        return owner, firsts[owner], lasts[owner]

    # ------------------------------------------------------ TLC phase kernels

    def _materialize_tlc_batch(
        self,
        runs: Sequence["BatchRun"],
        regions: Sequence[RegionInfo],
        shard_of_row: np.ndarray,
        page_offsets: np.ndarray,
        kind: str,
    ) -> Tuple["_TlcPages", np.ndarray]:
        """Materialize the TLC pages a phase's rows touch, once each.

        Row ``i`` (shard-major) reads page ``page_offsets[i]`` of
        ``regions[shard_of_row[i]]``.  Per shard, each distinct page is
        looked up in its DRAM mirror once (ascending page order); misses
        are sensed *straight into their stack rows* in first-touch order
        (one :meth:`FlashArray.read_pages`: a run per plane, one error
        draw), ECC-corrected there from the read's flip column and
        admitted, and hits copy the mirror's golden bytes after them.  A
        codeword past the correction capability raises
        :class:`UncorrectableReadError` before its shard admits anything.
        Returns the stack with its billing columns and every row's stack
        row; billing is :meth:`_bill_tlc_phase`'s.
        """
        stride = int(np.maximum.reduce(page_offsets)) + 1
        uniq, first_rows, inverse = sorted_unique(shard_of_row * stride + page_offsets)
        shard_u, offset_u = np.divmod(uniq, stride)
        n_pages = uniq.size
        cuts = shard_u.searchsorted(np.arange(len(runs) + 1)).tolist()
        stack = np.empty((n_pages, self.geometry.page_bytes), dtype=np.uint8)
        columns = np.empty((4, n_pages), dtype=np.int64)
        row_of = np.empty(n_pages, dtype=np.int64)
        for run, region, lo, hi in zip(runs, regions, cuts, cuts[1:]):
            if lo == hi:
                continue
            ssd, cache = run.engine.ssd, run.engine.ssd.page_cache
            rows_u, nbytes_u = self._mirror_lookup(cache, region, offset_u[lo:hi])
            cached = nbytes_u > 0
            # Stack order: sensed pages by first touch, then mirror-served ones.
            order = (first_rows[lo:hi] + cached * page_offsets.size).argsort(kind="stable")
            n_sensed = int(np.add.reduce(~cached))
            offsets = offset_u[lo:hi][order]
            plane_of, block_of, page_of, channel_of, page_id_of = (
                region.region.translate_columns(offsets, self.geometry)
            )
            out = stack[lo:hi]
            if n_sensed:
                sensed = ssd.array.read_pages(
                    plane_of[:n_sensed], block_of[:n_sensed], page_of[:n_sensed],
                    out=out[:n_sensed],
                )
                bad = ssd.ecc.correct_batch(sensed.data, sensed.flips)
                if bad.size:
                    raise UncorrectableReadError(region.name, int(offsets[bad[0]]))
            if n_sensed < hi - lo:  # mirror-served rows: one gather
                cache.gather(rows_u[order[n_sensed:]], slice(n_sensed, hi - lo), out)
            if n_sensed and cache is not None:
                # Freshly-sensed pages are now golden (ECC-corrected): mirror them.
                cache.admit_pages(region, offsets[:n_sensed], kind, sensed.data, sensed.oob)
            row_of[lo + order] = np.arange(lo, hi)
            columns[:, lo:hi] = plane_of, channel_of, page_id_of, nbytes_u[order]
        return _TlcPages(stack, *columns, cuts), row_of[inverse]

    def _bill_tlc_phase(
        self,
        name: str,
        runs: Sequence["BatchRun"],
        cell_cuts: Sequence[int],
        cell_query: np.ndarray,
        cell_of_row: np.ndarray,
        page_row: np.ndarray,
        first_cw: np.ndarray,
        last_cw: np.ndarray,
        pages: _TlcPages,
    ) -> List[PhaseLedger]:
        """Every (shard, query) cell's TLC charges for one phase: one ledger
        per shard, whose rows are its cells ``cell_cuts[s]:cell_cuts[s+1]``;
        cell ``c`` is column ``cell_query[c]`` of its shard's count table.

        Row ``i`` (cell-major) of cell ``cell_of_row[i]`` reads ECC
        codewords ``first_cw[i]..last_cw[i]`` (none when ``last_cw <
        first_cw``) of stack row ``page_row[i]``.  A query pays what it
        would pay alone: one visit per distinct page in its first-touch
        order (a sense, or a DRAM stream: :meth:`_bill_visits`) and one
        channel + ECC codeword per distinct (page, codeword) of an uncached
        page.  The dedupes run once for the phase; a shard's schedule is
        its uncached stack rows, and a shard that read nothing bills
        nothing.  The counters advance per query: the cross-query remainder
        of ``page_reads`` / ``decoded_bytes`` is charged here -- shared host
        work, unshared energy.
        """
        ledgers = [
            PhaseLedger(name, hi - lo, self.geometry, "tlc", with_compute=False)
            for lo, hi in zip(cell_cuts, cell_cuts[1:])
        ]
        plane_of, channel_of, hit_nbytes = pages.plane_of, pages.channel_of, pages.hit_nbytes
        cached = hit_nbytes > 0
        n_pages, n_cells = plane_of.size, cell_query.size
        visit_of_row = cell_of_row * n_pages + page_row
        # (cell, page) visits, cell-major in each query's first-touch order.
        visits, first, _ = sorted_unique(visit_of_row)
        visits = visits[first.argsort(kind="stable")]
        visit_cell, visit_row = np.divmod(visits, n_pages)
        sensed_visits = np.bincount(visit_cell[~cached[visit_row]], minlength=n_cells)
        # (cell, page, codeword) dedupe over each row's codeword range.
        cw = self.ssd.ecc.config.codeword_bytes
        page_bytes = self.geometry.page_bytes
        cw_per_page = -(-page_bytes // cw)
        counts = last_cw - first_cw + 1
        within = np.arange(np.maximum.reduce(counts, initial=0))
        keys = (visit_of_row * cw_per_page + first_cw)[:, None] + within
        keys = sorted_unique(keys[within < counts[:, None]])[0]
        key_cell, key_row = np.divmod(keys // cw_per_page, n_pages)
        moved = ~cached[key_row]
        n_channels = self.geometry.channels
        codewords_of = np.bincount(
            key_cell[moved] * n_channels + channel_of[key_row[moved]],
            minlength=n_cells * n_channels,
        ).reshape(n_cells, n_channels)
        codewords_of_cell = np.add.reduce(codewords_of, axis=1)
        visit_cuts = visit_cell.searchsorted(cell_cuts).tolist()
        # Per shard: its cells' codewords and sensed visits, its uncached rows.
        shard_codewords = _cut_sums(codewords_of_cell, cell_cuts)
        shard_sensed = _cut_sums(sensed_visits, cell_cuts)
        shard_uncached = _cut_sums(~cached, pages.cuts)
        hits_of = np.zeros(n_cells, dtype=np.int64)
        for shard, (run, ledger) in enumerate(zip(runs, ledgers)):
            lo, hi = visit_cuts[shard], visit_cuts[shard + 1]
            if lo == hi:
                continue
            first_cell, last_cell = cell_cuts[shard], cell_cuts[shard + 1]
            cells = slice(first_cell, last_cell)
            mine = slice(pages.cuts[shard], pages.cuts[shard + 1])
            rows = visit_row[lo:hi]
            hits, hit_bytes = run.engine._bill_visits(
                ledger, hits_of[cells], visit_cell[lo:hi] - first_cell,
                plane_of[rows], pages.page_id_of[rows], hit_nbytes[rows],
            )
            ledger.add_schedule(np.bincount(
                plane_of[mine][~cached[mine]], minlength=self.geometry.total_planes
            ))
            ledger.channel_bytes += codewords_of[cells] * cw
            ledger.ecc_bytes += codewords_of_cell[cells] * cw
            ssd = run.engine.ssd
            extra = max(shard_sensed[shard] - shard_uncached[shard], 0)
            ssd.array.counters.add_all({
                "dram_cache_hits": hits, "dram_cache_bytes": hit_bytes,
                "channel_bytes": shard_codewords[shard] * cw,
                "page_reads": extra, "page_reads_tlc": extra,
            })
            ssd.ecc.decoded_bytes += extra * page_bytes
            columns = cell_query[cells]
            run.counts[STAT_ROW.pages_read, columns] += sensed_visits[cells]
            run.counts[STAT_ROW.cache_hits, columns] += hits_of[cells]
        return ledgers

    def _rerank_batch(
        self,
        runs: Sequence["BatchRun"],
        queries: np.ndarray,
        cells: np.ndarray,
        radrs: np.ndarray,
        dadrs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Steps 7-8 for every shard's shortlists: page-major INT8 rerank.

        Row ``i`` is entry ``radrs[i]`` / ``dadrs[i]`` of cell ``cells[i]``
        = ``shard * n_queries + query`` (ascending; a cell's rows in
        shortlist order).  INT8 twins live in the TLC partition, so each
        (shard, page) is materialized once through its shard's ECC engine
        (:meth:`_materialize_tlc_batch`), the queries INT8-encode once, one
        einsum refines every row and each cell quicksorts on its shard's
        core; each shard bills one ``rerank`` ledger
        (:meth:`_bill_tlc_phase`).  Returns ``(order, refined)``: the rows
        sorted by (cell, INT8 distance, row), and every row's distance.
        """
        n_queries = len(queries)
        n_cells = len(runs) * n_queries
        cell_cuts = list(range(0, n_cells + 1, n_queries))
        if not cells.size:
            for run in runs:
                run.ledgers["rerank"] = PhaseLedger(
                    "rerank", n_queries, self.geometry, "tlc", with_compute=False
                )
            return cells, cells
        regions = [run.db.int8_region for run in runs]
        dim, spp = runs[0].db.dim, regions[0].slots_per_page
        shard_of_row = cells // n_queries
        n_slots = np.array([region.n_slots for region in regions])[shard_of_row]
        outside = (radrs < 0) | (radrs >= n_slots)
        if np.logical_or.reduce(outside):
            region = regions[shard_of_row[outside.argmax()]]
            raise IndexError(f"shortlist RADR outside region {region.name!r}")
        page_offsets, slot_in_page = np.divmod(radrs, spp)
        pages, page_row = self._materialize_tlc_batch(
            runs, regions, shard_of_row, page_offsets, "cluster"
        )
        cw = self.ssd.ecc.config.codeword_bytes
        starts = slot_in_page * dim
        ledgers = self._bill_tlc_phase(
            "rerank", runs, cell_cuts, np.arange(n_cells) % n_queries, cells,
            page_row, starts // cw, (starts + dim - 1) // cw, pages,
        )
        # Row gather: each page is a (slots_per_page, dim) table of INT8
        # codes, so a shortlist entry is one row of the stacked view.
        codes = pages.stack[:, : spp * dim].reshape(-1, spp, dim)[
            page_row, slot_in_page
        ].view(np.int8)
        # int32 holds dim * 255**2 for any dim below 33,000.
        diff = np.subtract(
            codes, runs[0].db.int8_quantizer.encode(queries)[cells % n_queries],
            dtype=np.int32,
        )
        refined = np.einsum("ij,ij->i", diff, diff).astype(np.int64)
        # Each cell recomputes its rows' INT8 distances, then quicksorts them,
        # on its shard's core: one column of charges per shard.
        counts = np.bincount(cells, minlength=n_cells).reshape(len(runs), n_queries)
        log2 = log2_counts(counts)
        for run, ledger, mine, mine_log2 in zip(runs, ledgers, counts, log2):
            asked = mine.nonzero()[0]
            if asked.size:
                seconds = run.engine.ssd.cores.reis_core.reranks(
                    mine[asked], mine_log2[asked], dim
                )
                np.add.at(ledger.core_seconds, asked.repeat(2), seconds.ravel())
            run.ledgers["rerank"] = ledger
        # One stable sort by (cell, distance): a cell's ties keep row order.
        top = int(np.maximum.reduce(refined)) + 1
        return (cells * top + refined).argsort(kind="stable"), refined

    def _fetch_documents_batch(
        self, runs: Sequence["BatchRun"], cells: np.ndarray, dadrs: np.ndarray
    ) -> Tuple["_TlcPages", np.ndarray]:
        """Step 9 for every shard's winners: document identification and
        transfer.

        Row ``i`` is the winner at document slot ``dadrs[i]`` of cell
        ``cells[i]`` (ascending; every shard of ``runs`` holds some).  Each
        (shard, page) materializes once and charges are per cell, as the
        rerank's (:meth:`_bill_tlc_phase`): packed slots share pages a
        query pays once, cross-query charges are never deduplicated (the
        energy-counter invariant).  Each shard's ``documents`` ledger names
        the queries that asked it; their host-transfer seconds add onto its
        run.  Returns the pages and every row's stack row (the payloads a
        device decodes its chunks from).
        """
        n_queries = len(runs[0].queries)
        regions = [run.db.document_region for run in runs]
        shard_of_row = cells // n_queries
        n_slots, spp, item_bytes = np.array(
            [(r.n_slots, r.slots_per_page, r.item_bytes) for r in regions]
        ).T[:, shard_of_row]
        outside = (dadrs < 0) | (dadrs >= n_slots)
        if np.logical_or.reduce(outside):
            bad = outside.argmax()
            raise IndexError(
                f"slot {int(dadrs[bad])} outside region "
                f"{regions[shard_of_row[bad]].name!r}"
            )
        page_offsets, slot_in_page = np.divmod(dadrs, spp)
        pages, page_row = self._materialize_tlc_batch(
            runs, regions, shard_of_row, page_offsets, "document"
        )
        asking, _first, cell_of_row = sorted_unique(cells)
        cell_cuts = asking.searchsorted(np.arange(len(runs) + 1) * n_queries).tolist()
        asked = asking.tolist()
        cw = self.ssd.ecc.config.codeword_bytes
        starts = slot_in_page * item_bytes
        ledgers = self._bill_tlc_phase(
            "documents", runs, cell_cuts, asking % n_queries, cell_of_row,
            page_row, starts // cw,
            (starts + np.maximum(item_bytes, 1) - 1) // cw, pages,
        )
        for shard, (run, ledger) in enumerate(zip(runs, ledgers)):
            ledger.queries = asking[cell_cuts[shard]:cell_cuts[shard + 1]] - shard * n_queries
            run.ledgers["documents"] = ledger
        for cell, count in zip(asked, np.bincount(cell_of_row).tolist()):
            run, region = runs[cell // n_queries], regions[cell // n_queries]
            run.host_seconds[cell % n_queries] += float(
                count * region.item_bytes
            ) / run.engine.ssd.spec.host_link_bandwidth_bps
        return pages, page_row
