"""Batched multi-query serving: many concurrent queries, one or many drives.

A batch is the only unit of execution: a solo ``search`` is a batch of
one.  Batches execute **page-major** so the functional simulator, the
command traces, the energy counters and the cost model all tell the same
story: the paper's "one sense, N distance extractions".  Each drive's
share of a batch is a :class:`BatchRun`; the phase drivers here run each
phase kernel once over a list of runs -- one for :class:`BatchExecutor`,
every live shard's for the :class:`~repro.core.shard.ShardRouter` -- so
a device batch is the one-shard case of a cluster's:

* **Scan phases (coarse, fine)** are one columnar task table
  (:class:`ScanTasks`) keyed (shard, plane, page): every (shard, query,
  slot-window) demand of the phase.  The engine's kernel
  (:meth:`~repro.core.engine.InStorageAnnsEngine.scan_page_run`)
  schedules it (:func:`~repro.core.plan.schedule_order` /
  :func:`~repro.core.plan.schedule_senses`), senses each scheduled page
  once and extracts every interested query's distances from the latch.
  With ``OptFlags.schedule_optimization`` the schedule groups every
  request for a page into one run; without it, requests stay in query
  order and only accidental adjacency shares a sense.
* **Arrival-order TTLs** make a query's result independent of its batch:
  a scan phase streams every (shard, query)'s survivors, in the query's
  own scan order, into one TTL table
  (:class:`~repro.core.registry.TemporalTopList`) and bills each query
  the visits, transfers and quickselects of that order, so reordering
  page service changes *when* a page is sensed, never *what* any query
  computes from it or pays for it.
* **Rerank and document phases** are page-major too: every (shard,
  query) cell's shortlist (or winners) goes through one functional pass
  -- each unique TLC page sensed and ECC-corrected once, one einsum --
  while charges stay per query.

What a drive owns stays per shard inside the kernels: its planes and die
commands, its page cache, its DRAM arenas, its embedded core and its
:class:`~repro.core.costing.PhaseLedger` per phase, which
:func:`~repro.core.costing.compose_batch` reduces to the modeled clock.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.blocks import float32_rows
from repro.core.costing import BatchPhaseBreakdown, PhaseLedger, compose_batch
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    STAT_ROW,
    QueryPlan,
    ReisQueryResult,
    build_query_plan,
    count_table,
    search_stats,
)
from repro.core.registry import TemporalTopList, TtlBlock
from repro.rag.documents import DocumentChunk
from repro.sim.latency import LatencyReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import InStorageAnnsEngine
    from repro.host.profile import HostProfile

# Shared no-op context for profiling-disabled runs: entering it reads no
# clock and allocates nothing, keeping the default path overhead-free.
_NO_PROFILE = nullcontext()


def _phase_timer(profile: Optional["HostProfile"], name: str):
    """``profile.phase(name)`` when profiling is on, a shared no-op else."""
    return _NO_PROFILE if profile is None else profile.phase(name)


@dataclass
class BatchStats:
    """Device-level accounting for one served batch.

    ``phases`` maps phase names to their composed breakdowns: the on-device
    pipeline phases (``coarse``, ``fine``, ``rerank``, ``documents``) and --
    for batches served by a :class:`~repro.core.shard.ShardRouter` -- the
    host-side ``merge`` phase (distance-merging per-shard shortlists), which
    carries transfer/core components but no senses.
    """

    n_queries: int = 0
    phases: Dict[str, BatchPhaseBreakdown] = field(default_factory=dict)
    # Page-service requests the scan schedules carried and the senses they
    # actually performed.  ``scan_senses`` is, by construction, the number
    # of READ_PAGE commands the batch put on the die command buses for the
    # coarse+fine phases, and equals the cost model's unique-sense count
    # for those phases (the phase ledger bills the schedule verbatim).
    scan_requests: int = 0
    scan_senses: int = 0
    # Page visits the DRAM page cache served (all phases, summed over
    # queries); disjoint from the sense counts above.
    cache_hits: int = 0
    # Host-side wait: the batch-forming window (first member's submission
    # to service start) when the batch was formed by a
    # :class:`~repro.core.queue.SubmissionQueue`; zero for batches handed
    # to the executor directly.  Reported as the ``queue`` phase so
    # ``phase_seconds()`` decomposes the full submission-to-completion
    # wall clock, not just the on-device time.
    queue_seconds: float = 0.0
    # The opt-in host wall-clock profile this batch was served under
    # (None when profiling is off, which is the default).  Carries real
    # process time per host phase -- diagnostics for the Python hot path,
    # deliberately separate from the modeled phase breakdowns above.
    host_profile: Optional["HostProfile"] = None

    @property
    def total_senses(self) -> int:
        """Page visits summed over every query (the sequential sense count)."""
        return sum(b.total_senses for b in self.phases.values())

    @property
    def unique_senses(self) -> int:
        """Page senses the device performs after cross-query amortization."""
        return sum(b.unique_senses for b in self.phases.values())

    @property
    def senses_amortized(self) -> int:
        return self.total_senses - self.unique_senses

    def merge(self, other: "BatchStats") -> None:
        """Accumulate another batch's accounting (queue-served sequences)."""
        self.n_queries += other.n_queries
        self.scan_requests += other.scan_requests
        self.scan_senses += other.scan_senses
        self.cache_hits += other.cache_hits
        self.queue_seconds += other.queue_seconds
        for name, breakdown in other.phases.items():
            mine = self.phases.get(name)
            if mine is None:
                self.phases[name] = replace(
                    breakdown, components=dict(breakdown.components)
                )
                continue
            mine.seconds += breakdown.seconds
            mine.unique_senses += breakdown.unique_senses
            mine.total_senses += breakdown.total_senses
            for component, seconds in breakdown.components.items():
                mine.components[component] = (
                    mine.components.get(component, 0.0) + seconds
                )


@dataclass
class BatchExecution:
    """A served batch: per-query results plus the batch-level wall clock."""

    results: List[ReisQueryResult]
    report: LatencyReport
    stats: BatchStats
    # Queries whose deadline had already passed when the batch completed
    # (set by the submission queue; deadline-missed queries are still
    # served and returned, never dropped).
    deadline_misses: int = 0
    # Per-shard device-busy seconds when the batch was served by a
    # :class:`~repro.core.shard.ShardRouter` (None for single-device
    # batches); lets the sharded scheduler bill each shard's utilization.
    shard_seconds: Optional[List[float]] = None

    @property
    def batch_seconds(self) -> float:
        """Wall-clock time to drain the whole batch (overlapped model)."""
        return self.report.total_s

    @property
    def queue_seconds(self) -> float:
        """Host-side batch-forming wait included in ``batch_seconds``."""
        return self.stats.queue_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass
class ScanTasks:
    """A phase's scan demands over every shard, in columnar form.

    Row ``t`` is one (shard, query, page, slot-window) demand: ``shards[t]``
    indexes the phase's runs, ``queries[t]`` the batch's queries (and
    ``filters``, one per query); ``threshold`` is phase-uniform.  Rows are
    shard-major, then query-major in each query's scan order: ascending row
    index is each (shard, query) list's arrival order, which the kernel's
    TTL feeding relies on.
    """

    shards: np.ndarray  # (T,) int64 -- run of each demand
    queries: np.ndarray  # (T,) int64 -- query of each demand
    pages: np.ndarray  # (T,) int64 -- region page offset
    lo: np.ndarray  # (T,) int64 -- window bounds, unclamped
    hi: np.ndarray  # (T,) int64
    threshold: Optional[int]
    filters: Sequence[Optional[int]]  # per query, len == n_queries

    def __len__(self) -> int:
        return int(self.pages.size)


@dataclass(eq=False)
class BatchRun:
    """One device's share of a batch in flight: the state every phase
    driver reads and writes.  ``counts`` is its count table
    (:func:`~repro.core.plan.count_table`): each query's
    :class:`~repro.core.plan.SearchStats` on this device, one column per
    query, which the kernels add their per-query columns to."""

    engine: "InStorageAnnsEngine"
    db: DeployedDatabase
    plan: QueryPlan
    queries: np.ndarray  # (n_queries, dim) float32
    counts: np.ndarray  # (n_fields, n_queries) int64
    stats: BatchStats
    host_seconds: np.ndarray  # per query: the documents' host transfer
    ibc_seconds: float = 0.0  # per query
    codes: Optional[np.ndarray] = None  # the batch's binary query codes
    # The probe table this run scans -- (query, shard-local cluster)
    # columns, query-major in rank order -- or None: every entry.
    probes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # Phase -> the ledger it billed, for the phases that completed, in
    # execution order: what ``compose_batch`` reads.
    ledgers: Dict[str, PhaseLedger] = field(default_factory=dict)

    def bill(self) -> tuple:
        """This run as a device of ``compose_batch``."""
        engine = self.engine
        return (
            engine.timing, engine.flags.pipelining, engine.ssd.ecc.decode_time(1),
            [self.ibc_seconds] * len(self.queries),
            self.host_seconds.tolist(), self.ledgers,
        )


@dataclass(eq=False)
class FineTable:
    """One fine phase over a set of runs, carried between scan, retry and
    finish so the retry decision can be taken outside (the shard router
    takes it on cluster-wide counts).

    ``ttl`` is the phase's TTL-E table (rows: (shard, query) pairs);
    ``ledgers[s]`` is run ``s``'s, billed when the phase finishes; ``spans``
    are the scanned ``(shard, query, first, last)`` slot ranges and
    ``candidates`` their sizes per row.  A run that died mid-phase is not
    ``live``: its lists are empty and it bills nothing more.  Finishing
    leaves the shortlists, nearest first per row, cut by ``bounds``.
    """

    runs: List[BatchRun]
    threshold: Optional[int]
    ledgers: List[PhaseLedger]
    ttl: TemporalTopList
    spans: Tuple[np.ndarray, ...]
    candidates: np.ndarray
    live: np.ndarray
    shortlist: Optional[TtlBlock] = None
    bounds: Optional[np.ndarray] = None

    def drop(self, run: BatchRun) -> None:
        """``run`` died mid-phase: empty its lists, bill it nothing more."""
        shard = self.runs.index(run)
        self.live[shard] = False
        n_queries = self.ttl.n_queries
        self.ttl.restart(np.arange(shard * n_queries, (shard + 1) * n_queries))


def tasks_from_ranges(
    region: RegionInfo,
    shard_of_range: np.ndarray,
    query_of_range: np.ndarray,
    firsts: np.ndarray,
    lasts: np.ndarray,
    threshold: Optional[int],
    filters: Sequence[Optional[int]],
) -> ScanTasks:
    """Vectorized page/window expansion of many (shard, query, slot-range)
    demands, the single source of the slot-to-page arithmetic.

    Range ``r`` covering slots ``[firsts[r], lasts[r]]`` expands to its
    pages ``firsts[r]//spp .. lasts[r]//spp`` with unclamped window bounds
    relative to each page (the kernel clamps; empty ranges are skipped).
    Rows follow the ranges' order -- shard-major, then query-major in scan
    order -- pages ascending within a range.  Every shard's region shares
    ``region``'s slots per page.
    """
    spp = region.slots_per_page
    keep = lasts >= firsts
    f = firsts[keep]
    last = lasts[keep]
    first_page = f // spp
    n_pages = last // spp - first_page + 1
    reps = np.arange(f.size).repeat(n_pages)
    # Position of each row within its range: row index minus the range's
    # starting row (exclusive prefix sum of the page counts).
    within = np.arange(reps.size) - (n_pages.cumsum() - n_pages).repeat(n_pages)
    pages = first_page[reps] + within
    page_first = pages * spp
    return ScanTasks(
        shards=shard_of_range[keep][reps],
        queries=query_of_range[keep][reps],
        pages=pages,
        lo=f[reps] - page_first,
        hi=last[reps] - page_first,
        threshold=threshold,
        filters=filters,
    )


# ------------------------------------------------------------ phase drivers
#
# Each driver runs its phase kernel once for every run it is given (one per
# drive: a device batch is the one-run case) and leaves what a drive owns --
# its ledgers, counters, cache and core -- on that drive.


def broadcast_queries(runs: Sequence[BatchRun]) -> None:
    """Step 1 for every run: encode the batch once (every shard shares one
    code space), broadcast it back to back into each drive's dies.

    The binary quantizers encode row-wise and cache latches are
    overwrite-only, so only the last broadcast's latch state is ever
    observable; commands, counters and per-query transfer stats account
    the full sequence.
    """
    first = runs[0]
    if not len(first.queries):
        return
    codes = first.db.binary_quantizer.encode(first.queries)
    for run in runs:
        run.codes = codes
        run.ibc_seconds, transfers = run.engine._broadcast_batch(codes)
        run.counts[STAT_ROW.ibc_transfers] += transfers


def coarse_scan(runs: Sequence[BatchRun]) -> Tuple[TtlBlock, np.ndarray]:
    """Page-major centroid sweep of every run: each (shard, query) row's
    ``nprobe`` nearest centroid rows (the run's plan trims ``nprobe`` to
    the centroids it holds), stacked nearest first per row, and the row
    bounds.

    Bills every run's coarse ledger; which clusters a query then *scans*
    is left to the caller: all of its own on one device, the merged probe
    table's on a cluster.
    """
    first = runs[0]
    engine, n_queries = first.engine, len(first.queries)
    for run in runs:
        run.ledgers["coarse"] = PhaseLedger("coarse", n_queries, engine.geometry)
    ttl = TemporalTopList(
        "c", engine.params.coarse_entry_bytes(first.db.code_bytes), n_queries,
        np.array([run.plan.nprobe for run in runs]).repeat(n_queries),
        [run.engine.ssd.dram for run in runs],
    )
    rows = np.arange(len(runs) * n_queries)
    shards = rows // n_queries
    lasts = np.array([run.db.centroid_region.n_slots - 1 for run in runs])
    tasks = tasks_from_ranges(
        first.db.centroid_region, shards, rows - shards * n_queries,
        np.zeros(rows.size, dtype=np.int64), lasts[shards],
        threshold=None, filters=[None] * n_queries,
    )
    ledgers = [run.ledgers["coarse"] for run in runs]
    engine.scan_page_run(runs, ledgers, tasks, True, ttl)
    return engine.select_clusters(runs, ledgers, ttl)


def fine_scan(runs: Sequence[BatchRun]) -> FineTable:
    """The filtered page-major fine sweep of every run (no retry, no
    selection): each run scans the slot ranges of its probe table.

    Split out so the retry decision can be taken *outside*: by the device
    executor on its own counts, or cluster-wide by the shard router (the
    retry predicate must see the whole corpus's survivor count, exactly
    as one device scanning everything would).
    """
    first = runs[0]
    engine, db, plan = first.engine, first.db, first.plan
    n_queries = len(first.queries)
    filtering = engine.flags.distance_filtering
    spans, probed = [], []
    for shard, run in enumerate(runs):
        if run.probes is None:
            owner, firsts, lasts = engine._slot_ranges(run.db, None)
            queries = np.arange(n_queries).repeat(owner.size)
            every = np.zeros((n_queries, 1), dtype=np.int64)  # one row per query
            firsts, lasts = (every + firsts).ravel(), (every + lasts).ravel()
            probed.append(np.zeros(n_queries, dtype=np.int64))
        else:
            probe_queries, clusters = run.probes
            owner, firsts, lasts = engine._slot_ranges(run.db, clusters)
            queries = probe_queries[owner]
            probed.append(np.bincount(probe_queries, minlength=n_queries))
        spans.append((np.zeros(queries.size, dtype=np.int64) + shard, queries, firsts, lasts))
    shard, queries, firsts, lasts = map(np.concatenate, zip(*spans))
    candidates = np.bincount(
        shard * n_queries + queries, weights=lasts - firsts + 1,
        minlength=len(runs) * n_queries,
    ).astype(np.int64).reshape(len(runs), n_queries)
    for run, mine, n_probed in zip(runs, candidates, probed):
        run.counts[STAT_ROW.candidates] += mine
        run.counts[STAT_ROW.clusters_probed] = n_probed
    table = FineTable(
        runs=list(runs),
        threshold=db.filter_threshold if filtering else None,
        ledgers=[
            PhaseLedger("fine", n_queries, engine.geometry, with_filter=filtering)
            for _run in runs
        ],
        ttl=TemporalTopList(
            "e", engine.params.fine_entry_bytes(db.code_bytes), n_queries,
            plan.shortlist_size, [run.engine.ssd.dram for run in runs],
        ),
        spans=(shard, queries, firsts, lasts),
        candidates=candidates,
        live=~np.zeros(len(runs), dtype=bool),
    )
    _serve_fine_spans(table, slice(None), table.threshold)
    return table


def _serve_fine_spans(table: FineTable, chosen: np.ndarray, threshold) -> None:
    """One shared fine schedule over the ``chosen`` spans of ``table``."""
    first = table.runs[0]
    shard, queries, firsts, lasts = (column[chosen] for column in table.spans)
    tasks = tasks_from_ranges(
        first.db.embedding_region, shard, queries, firsts, lasts, threshold,
        [first.plan.metadata_filter] * table.ttl.n_queries,
    )
    first.engine.scan_page_run(table.runs, table.ledgers, tasks, False, table.ttl)


def fine_finish(table: FineTable, retries: Sequence[int]) -> None:
    """Rescan ``retries`` unfiltered on every live run, as one shared
    schedule, then quickselect every (shard, query) TTL-E list into the
    table's shortlist.

    The calibrated threshold filtered too aggressively for the retried
    queries to return k results; rescanning without it means correctness
    never depends on the filter (the paper calibrates thresholds so this
    is rare -- the retry counter lets tests assert exactly that).
    """
    live = table.live.nonzero()[0]
    if retries:
        n_queries = table.ttl.n_queries
        for shard in live.tolist():
            table.runs[shard].counts[STAT_ROW.filter_retries, retries] += 1
        table.ttl.restart((live[:, None] * n_queries + retries).ravel())
        shard, queries = table.spans[:2]
        retried = np.zeros(n_queries, dtype=bool)
        retried[retries] = True
        _serve_fine_spans(table, table.live[shard] & retried[queries], None)
    # Only a finished fine phase is billed (a shard may die between scan and here).
    for shard in live.tolist():
        table.runs[shard].ledgers["fine"] = table.ledgers[shard]
    engine = table.runs[0].engine
    table.shortlist, table.bounds = engine.select_nearest(
        table.runs, table.ledgers, table.ttl
    )


class BatchExecutor:
    """Serves a batch of queries concurrently against one device: the
    one-run case of the phase drivers."""

    def __init__(self, engine: "InStorageAnnsEngine") -> None:
        self.engine = engine

    def plan(
        self,
        db: DeployedDatabase,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> QueryPlan:
        """The one plan a batch with these parameters executes on ``db``."""
        return build_query_plan(
            self.engine, db, k, nprobe, fetch_documents, metadata_filter
        )

    def forming_views(self, db: DeployedDatabase, clusters: np.ndarray):
        """``db`` as a :class:`~repro.core.queue.BatchFormer` sees it: one
        device, expected to scan every guessed cluster (an int array)."""
        return [(0, self.engine, db, clusters)]

    def prepare(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> BatchRun:
        """Build the batch's one plan and this device's run of it."""
        plan = self.plan(db, k, nprobe, fetch_documents, metadata_filter)
        queries = float32_rows(queries)
        n_queries = len(queries)
        return BatchRun(
            self.engine, db, plan, queries, count_table(n_queries),
            BatchStats(n_queries=n_queries), np.zeros(n_queries),
        )

    def execute(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile: Optional["HostProfile"] = None,
    ) -> BatchExecution:
        """Serve a batch: one plan, every phase page-major, cost jointly.

        ``host_profile`` opts into host wall-clock accounting per phase
        (:class:`~repro.host.profile.HostProfile`); the default ``None``
        serves without ever reading the wall clock.
        """
        with _phase_timer(host_profile, "prepare"):
            run = self.prepare(
                db, queries, k, nprobe, fetch_documents, metadata_filter
            )
        run.stats.host_profile = host_profile
        runs, plan, n_queries = [run], run.plan, len(run.queries)
        with _phase_timer(host_profile, "ibc"):
            broadcast_queries(runs)
        # Every query's winners, query-major in rank order, cut by ``bounds``.
        bounds = np.zeros(n_queries + 1, dtype=np.int64)
        slots = distances = np.empty(0, dtype=np.int64)
        documents: List[DocumentChunk] = []
        if n_queries:
            if plan.nprobe is not None:
                with _phase_timer(host_profile, "coarse"):
                    block, probe_bounds = coarse_scan(runs)
                    run.probes = (
                        np.arange(n_queries).repeat(probe_bounds[1:] - probe_bounds[:-1]),
                        block.eadrs,
                    )
            with _phase_timer(host_profile, "fine"):
                table = fine_scan(runs)
                fine_finish(table, self.engine.fine_retries(
                    table.ttl.sizes, table.candidates[0], table.threshold,
                    plan.shortlist_size,
                ))
            with _phase_timer(host_profile, "rerank"):
                shortlist, cut = table.shortlist, table.bounds
                cells = np.arange(n_queries).repeat(cut[1:] - cut[:-1])
                order, refined = self.engine._rerank_batch(
                    runs, run.queries, cells, shortlist.radrs, shortlist.dadrs
                )
                top = order[np.arange(order.size) - cut[cells[order]] < plan.k]
                np.minimum(cut[1:] - cut[:-1], plan.k).cumsum(out=bounds[1:])
                slots, distances = shortlist.radrs[top], refined[top]
            if plan.fetch_documents:
                with _phase_timer(host_profile, "documents"):
                    documents = self._fetch_documents(run, cells[top], shortlist.dadrs[top])

        with _phase_timer(host_profile, "finalize"):
            stats = run.stats
            latencies, report, stats.phases, _seconds = compose_batch([run.bill()])
            stats.cache_hits = int(np.add.reduce(run.counts[STAT_ROW.cache_hits]))
            cuts = bounds.tolist()
            ids = np.asarray(db.slot_to_original[slots], dtype=np.int64)
            results = [
                ReisQueryResult(
                    ids=ids[lo:hi], distances=distances[lo:hi],
                    documents=documents[lo:hi], latency=latency, stats=query,
                )
                for lo, hi, latency, query in zip(
                    cuts, cuts[1:], latencies, search_stats(run.counts)
                )
            ]
        return BatchExecution(results=results, report=report, stats=stats)

    def _fetch_documents(
        self, run: BatchRun, cells: np.ndarray, dadrs: np.ndarray
    ) -> List[DocumentChunk]:
        """The winners' chunks, stacked like ``dadrs``: the corpus's, or
        decoded from the fetched slots in one pass.  Queries without
        winners are not billed (the ledger names the queries that ran)."""
        if not dadrs.size:
            return []
        pages, page_row = self.engine._fetch_documents_batch([run], cells, dadrs)
        db = run.db
        chunk_ids = db.original_of_dadr(dadrs).tolist()
        if db.corpus is not None:
            return [db.corpus[chunk_id] for chunk_id in chunk_ids]
        region = db.document_region
        starts = dadrs % region.slots_per_page * region.item_bytes
        payloads = pages.stack[
            page_row[:, None], starts[:, None] + np.arange(region.item_bytes)
        ]
        return DocumentChunk.decoded(chunk_ids, DocumentChunk.decode_rows(payloads))
