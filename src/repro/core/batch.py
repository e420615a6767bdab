"""Batched multi-query serving: one device, many concurrent queries.

A batch is the only unit of execution: a solo ``search`` is a batch of
one.  Batches execute **page-major** so the functional simulator, the
command traces, the energy counters and the cost model all tell the same
story: the paper's "one sense, N distance extractions".

:class:`BatchExecutor` runs the one :class:`~repro.core.plan.QueryPlan`
of a batch phase by phase:

* **Scan phases (coarse, fine)** are driven by a columnar task table
  (:class:`ScanTasks`): the union of pages the batch touches, each mapped
  to every (query, slot-window) scan that wants it, as parallel arrays.
  The engine's phase kernel
  (:meth:`~repro.core.engine.InStorageAnnsEngine.scan_page_run`)
  schedules them (:func:`~repro.core.plan.schedule_order` /
  :func:`~repro.core.plan.schedule_senses`), senses each scheduled page
  once and extracts every interested query's distances from the latched
  data.  With ``OptFlags.schedule_optimization`` the schedule groups
  every request for a page into one run (maximum collisions); without
  it, requests stay in query order and only accidental adjacency shares
  a sense.
* **Arrival-order TTLs** make a query's result independent of its batch:
  the kernel hands every query its surviving rows in the query's own
  scan order and bills it the visits, channel transfers and per-page
  quickselects of that order, so reordering page service across queries
  changes *when* a page is sensed, never *what* any query computes from
  it or pays for it.
* **Rerank and document phases** are page-major too: every query's
  shortlist (or winner DADRs) goes through one shared functional pass --
  each batch-unique TLC page sensed and ECC-corrected once, one distance
  einsum -- while charges stay per query
  (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch` /
  :meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`).

Cost composition is joint: every executed phase bills one
:class:`~repro.core.costing.PhaseLedger` (for the scan phases with the
executed schedule's per-plane senses, so the model bills exactly the
senses the trace shows), which :func:`~repro.core.costing.compose_batch`
reduces to per-plane / per-channel occupancies.  The per-query results
keep their solo latency reports (tail-latency analysis, the analytic
cross-validation tests); the batch wall clock lives in
:class:`BatchExecution`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costing import BatchPhaseBreakdown, PhaseLedger, compose_batch
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    PlanContext,
    QueryPlan,
    ReisQueryResult,
    build_query_plan,
)
from repro.core.registry import TemporalTopList, TtlBlock
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
    """A batch phase's scan demands in columnar (array-structured) form.

    Row ``t`` is one (query, page, slot-window) demand; ``queries[t]``
    indexes the batch's contexts.  ``threshold`` is phase-uniform and
    ``filters`` is per *query* (indexed through ``queries``), matching how
    the phase drivers parameterize their sweeps.  Rows are query-major
    (``queries`` ascending) and, within a query, in its sequential scan
    order: ascending row index is each query's arrival order, which is
    what the phase kernel's TTL feeding relies on.
    """

    queries: np.ndarray  # (T,) int64 -- context index of each demand
    pages: np.ndarray  # (T,) int64 -- region page offset
    lo: np.ndarray  # (T,) int64 -- window bounds, unclamped
    hi: np.ndarray  # (T,) int64
    threshold: Optional[int]
    filters: Sequence[Optional[int]]  # per query, len == n_queries

    def __len__(self) -> int:
        return int(self.pages.size)


@dataclass
class _FineScanState:
    """What the fine phase carries between scan, retry and finish, so the
    retry decision can be taken outside the executor (the shard router
    interleaves a cluster-wide merge between these steps)."""

    threshold: Optional[int]
    ledger: PhaseLedger
    ttls: List[TemporalTopList]
    ranges_per_query: List[List[Tuple[int, int]]]


@dataclass(eq=False)
class BatchRun:
    """One device's share of a batch in flight: the state every phase
    driver of :class:`BatchExecutor` reads and writes."""

    db: DeployedDatabase
    plan: QueryPlan
    ctxs: List[PlanContext]
    stats: BatchStats
    # Phase -> the ledger it billed, for the phases that completed, in
    # execution order: what ``compose_batch`` reads.
    ledgers: Dict[str, PhaseLedger] = field(default_factory=dict)
    fine: Optional[_FineScanState] = None
    # The finished fine shortlists, stacked query-major (nearest first per
    # query), and the per-query bounds of the rows.
    shortlist: Optional[TtlBlock] = None
    shortlist_bounds: Optional[np.ndarray] = None

    def bill(self, engine: "InStorageAnnsEngine") -> tuple:
        """This run served by ``engine``, as a device of ``compose_batch``."""
        return (
            engine.timing, engine.flags.pipelining, engine.ssd.ecc.decode_time(1),
            [ctx.ibc_seconds for ctx in self.ctxs],
            [ctx.host_seconds for ctx in self.ctxs], self.ledgers,
        )


def hand_out_clusters(
    ctxs: Sequence[PlanContext], clusters: np.ndarray, bounds: np.ndarray
) -> None:
    """Give every query its segment of a stacked, query-major cluster
    column (local ids, rank order) to scan."""
    clusters, bounds = clusters.tolist(), bounds.tolist()
    for ctx, lo, hi in zip(ctxs, bounds, bounds[1:]):
        ctx.clusters = clusters[lo:hi]
        ctx.stats.clusters_probed = hi - lo


def tasks_from_ranges(
    region: RegionInfo,
    query_of_range: np.ndarray,
    firsts: np.ndarray,
    lasts: np.ndarray,
    threshold: Optional[int],
    filters: Sequence[Optional[int]],
) -> ScanTasks:
    """Vectorized page/window expansion of many (query, slot-range) demands.

    The single source of the slot-to-page arithmetic: range ``r`` covering
    slots ``[firsts[r], lasts[r]]`` expands to its pages ``firsts[r]//spp
    .. lasts[r]//spp`` with unclamped window bounds relative to each page
    (the kernel clamps to the page's valid slots; empty ranges are
    skipped).  Row order is the ranges' order, pages ascending within a
    range -- callers supply ranges query-major in scan order.
    """
    spp = region.slots_per_page
    keep = lasts >= firsts
    q = query_of_range[keep]
    f = firsts[keep]
    last = lasts[keep]
    first_page = f // spp
    n_pages = last // spp - first_page + 1
    reps = np.repeat(np.arange(f.size), n_pages)
    # Position of each row within its range: row index minus the range's
    # starting row (exclusive prefix sum of the page counts).
    within = np.arange(reps.size) - np.repeat(np.cumsum(n_pages) - n_pages, n_pages)
    pages = first_page[reps] + within
    page_first = pages * spp
    return ScanTasks(
        queries=q[reps],
        pages=pages,
        lo=f[reps] - page_first,
        hi=last[reps] - page_first,
        threshold=threshold,
        filters=filters,
    )


class BatchExecutor:
    """Serves a batch of queries concurrently against one device."""

    def __init__(self, engine: "InStorageAnnsEngine") -> None:
        self.engine = engine

    # --------------------------------------------------------- phase drivers

    def _serve_scan_phase(
        self,
        run: BatchRun,
        tasks: ScanTasks,
        ttls: Sequence[TemporalTopList],
        ledger: PhaseLedger,
        select_k: int,
    ) -> None:
        """Drain one scan phase through the engine's phase kernel (it bills
        ``ledger``) and count the executed schedule's requests and senses."""
        senses_of = self.engine.scan_page_run(
            run.db, tasks, ledger.name == "coarse",
            np.stack([ctx.query_code for ctx in run.ctxs]),
            ttls, ledger, [ctx.stats for ctx in run.ctxs],
            [select_k] * len(run.ctxs),
        )
        run.stats.scan_requests += len(tasks)
        run.stats.scan_senses += int(senses_of.sum())

    def _coarse_scan(self, run: BatchRun) -> Tuple[TtlBlock, np.ndarray]:
        """Page-major centroid sweep: every query's ``nprobe`` nearest
        centroid rows, stacked (nearest first per query), and their
        per-query bounds.

        Bills the run's coarse ledger; which clusters a query then *scans*
        is left to the caller: all of its own on one device, the merged
        probe table's on a shard.
        """
        engine, db = self.engine, run.db
        region = db.centroid_region
        assert region is not None
        n_queries = len(run.ctxs)
        entry_bytes = engine.params.coarse_entry_bytes(db.code_bytes)
        ledger = run.ledgers["coarse"] = PhaseLedger("coarse", n_queries, engine.geometry)
        ttls = [
            TemporalTopList("c", entry_bytes, dram=engine.ssd.dram)
            for _ in run.ctxs
        ]
        tasks = tasks_from_ranges(
            region,
            np.arange(n_queries, dtype=np.int64),
            np.zeros(n_queries, dtype=np.int64),
            np.full(n_queries, region.n_slots - 1, dtype=np.int64),
            threshold=None,
            filters=[None] * n_queries,
        )
        self._serve_scan_phase(run, tasks, ttls, ledger, run.plan.nprobe)
        return engine.select_clusters(db, ttls, run.plan.nprobe, ledger)

    def _serve_fine_ranges(
        self, run: BatchRun, queries: Sequence[int], threshold: Optional[int]
    ) -> None:
        """One shared fine schedule over the slot ranges of ``queries``."""
        state = run.fine
        spans = [
            (qi, first, last)
            for qi in queries
            for first, last in state.ranges_per_query[qi]
        ]
        tasks = tasks_from_ranges(
            run.db.embedding_region,
            *np.array(spans, dtype=np.int64).reshape(-1, 3).T,
            threshold=threshold,
            filters=[run.plan.metadata_filter] * len(run.ctxs),
        )
        self._serve_scan_phase(
            run, tasks, state.ttls, state.ledger, run.plan.shortlist_size
        )

    def _fine_scan(self, run: BatchRun) -> None:
        """The filtered page-major fine sweep (no retry, no selection).

        Split out so the retry decision can be taken *outside*: locally by
        :meth:`_run_fine_phase`, or cluster-wide by the shard router (the
        retry predicate must see the whole corpus's survivor count, exactly
        as one device scanning everything would).
        """
        engine, db = self.engine, run.db
        entry_bytes = engine.params.fine_entry_bytes(db.code_bytes)
        filtering = engine.flags.distance_filtering
        run.fine = _FineScanState(
            threshold=db.filter_threshold if filtering else None,
            ledger=PhaseLedger(
                "fine", len(run.ctxs), engine.geometry, with_filter=filtering
            ),
            ttls=[
                TemporalTopList("e", entry_bytes, dram=engine.ssd.dram)
                for _ in run.ctxs
            ],
            ranges_per_query=[
                engine._slot_ranges(db, ctx.clusters) for ctx in run.ctxs
            ],
        )
        for ctx, ranges in zip(run.ctxs, run.fine.ranges_per_query):
            for first, last in ranges:
                ctx.stats.candidates += last - first + 1
        self._serve_fine_ranges(run, range(len(run.ctxs)), run.fine.threshold)

    def _fine_finish(self, run: BatchRun, retries: Sequence[int]) -> None:
        """Rescan ``retries`` unfiltered, as one shared schedule, then
        quickselect every query's TTL-E into ``run.shortlist``.

        The calibrated threshold filtered too aggressively for the retried
        queries to return k results; rescanning without it means
        correctness never depends on the filter (the paper calibrates
        thresholds so this is rare -- the retry counter lets tests assert
        exactly that).
        """
        state = run.fine
        if retries:
            for qi in retries:
                run.ctxs[qi].stats.filter_retries += 1
                state.ttls[qi].clear()
            self._serve_fine_ranges(run, retries, None)
        # Only a finished fine phase is billed (a shard may die between scan and here).
        run.ledgers["fine"] = state.ledger
        run.shortlist, run.shortlist_bounds = self.engine.select_nearest(
            state.ttls, run.plan.shortlist_size, state.ledger
        )

    def _run_fine_phase(self, run: BatchRun) -> None:
        """Page-major fine search, including the per-query filter retry."""
        self._fine_scan(run)
        retries = self.engine.fine_retries(
            [len(ttl) for ttl in run.fine.ttls],
            [ctx.stats.candidates for ctx in run.ctxs],
            run.fine.threshold, run.plan.shortlist_size,
        )
        self._fine_finish(run, retries)

    def _run_rerank_phase(self, run: BatchRun) -> None:
        """Page-major rerank: every query's shortlist in one pass.

        Per-query billing and top-k math; the page materialization, the
        ECC decode and the distance einsum are shared
        (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch`).
        """
        ctxs, bounds = run.ctxs, run.shortlist_bounds.tolist()
        outs, run.ledgers["rerank"] = self.engine._rerank_batch(
            run.db,
            np.stack([ctx.query for ctx in ctxs]),
            [run.shortlist.take(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])],
            [run.plan.k] * len(ctxs),
            [ctx.stats for ctx in ctxs],
        )
        for ctx, (distances, dadrs, slots) in zip(ctxs, outs):
            ctx.distances, ctx.dadrs, ctx.slots = distances, dadrs, slots

    def _run_document_phase(self, run: BatchRun) -> None:
        """Page-major document fetch: every query's winner DADRs in one pass.

        Queries with no winners are skipped (the ``documents`` ledger names
        only the queries that ran); the rest share one functional page pass
        while keeping per-query charges
        (:meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`).
        """
        asking = [q for q, ctx in enumerate(run.ctxs) if ctx.dadrs.size]
        if not asking:
            return
        active = [run.ctxs[q] for q in asking]
        outs, ledger = self.engine._fetch_documents_batch(
            run.db,
            [ctx.dadrs for ctx in active],
            [ctx.stats for ctx in active],
        )
        ledger.queries = np.array(asking)
        run.ledgers["documents"] = ledger
        for ctx, (documents, host_s) in zip(active, outs):
            ctx.documents = documents
            ctx.host_seconds = host_s

    # -------------------------------------------------------------- execute

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

    def forming_views(self, db: DeployedDatabase, clusters: Sequence[int]):
        """``db`` as a :class:`~repro.core.queue.BatchFormer` sees it: one
        device, expected to scan every guessed cluster."""
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
        """Build the batch's one plan and a context per query."""
        plan = self.plan(db, k, nprobe, fetch_documents, metadata_filter)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        ctxs = [PlanContext(db=db, query=query) for query in queries]
        return BatchRun(db, plan, ctxs, BatchStats(n_queries=len(ctxs)))

    def run_ibc(self, ctxs: Sequence[PlanContext]) -> None:
        """Step 1, batched: encode every query at once, broadcast back to back.

        The binary quantizers encode row-wise and cache latches are
        overwrite-only, so only the last broadcast's latch state is ever
        observable; commands, counters and per-query transfer stats
        account the full sequence.
        """
        if not ctxs:
            return
        db = ctxs[0].db
        codes = db.binary_quantizer.encode(
            np.stack([ctx.query for ctx in ctxs])
        )
        ibc_seconds = self.engine._broadcast_batch(
            codes, [ctx.stats for ctx in ctxs]
        )
        for ctx, code in zip(ctxs, codes):
            ctx.query_code = code
            ctx.ibc_seconds = ibc_seconds

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
        with _phase_timer(host_profile, "ibc"):
            self.run_ibc(run.ctxs)
        if run.ctxs:
            if run.plan.nprobe is not None:
                with _phase_timer(host_profile, "coarse"):
                    block, bounds = self._coarse_scan(run)
                    hand_out_clusters(run.ctxs, block.eadrs, bounds)
            with _phase_timer(host_profile, "fine"):
                self._run_fine_phase(run)
            with _phase_timer(host_profile, "rerank"):
                self._run_rerank_phase(run)
            if run.plan.fetch_documents:
                with _phase_timer(host_profile, "documents"):
                    self._run_document_phase(run)

        with _phase_timer(host_profile, "finalize"):
            stats = run.stats
            latencies, report, stats.phases, _seconds = compose_batch(
                [run.bill(self.engine)]
            )
            stats.cache_hits = sum([ctx.stats.cache_hits for ctx in run.ctxs])
            results = [
                ReisQueryResult(
                    ids=np.asarray(db.slot_to_original[ctx.slots], dtype=np.int64),
                    distances=ctx.distances, documents=ctx.documents,
                    latency=latency, stats=ctx.stats,
                )
                for ctx, latency in zip(run.ctxs, latencies)
            ]
        return BatchExecution(results=results, report=report, stats=stats)
