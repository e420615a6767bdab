"""Query plans: the *what* of an in-storage search, separated from the *how*.

The REIS search pipeline has five phases (Sec. 4.3): IBC broadcast,
coarse search, fine search, reranking, and document identification.  The
seed implementation hard-wired that sequence inside ``search()``; this
module turns each phase into a composable :class:`PlanStage` object so that

* ``search()`` becomes "build plan, execute plan" (:func:`build_query_plan`
  followed by :class:`PlanExecutor`),
* alternative schedules are *data*, not code -- the batch executor
  (:mod:`repro.core.batch`) runs the same stages against a whole batch and
  swaps only the cost composition, and
* every stage records exactly which pages it sensed (via
  :class:`~repro.core.costing.PhaseCost`), which is what lets the batch
  costing amortize senses across queries.

Stages mutate a per-query :class:`PlanContext`; the functional work itself
stays in :class:`~repro.core.engine.InStorageAnnsEngine`, whose phase
methods are the hardware-level primitives the stages compose.  Executing a
plan sequentially is bit- and latency-identical to the seed's monolithic
``search()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.costing import PhaseCost, compose_phase, merge_phase_totals
from repro.core.layout import DeployedDatabase
from repro.rag.documents import DocumentChunk
from repro.sim.latency import LatencyReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import InStorageAnnsEngine


@dataclass
class SearchStats:
    """Operational statistics for one query (drives tests and ablations)."""

    pages_read: int = 0
    entries_scanned: int = 0
    entries_transferred: int = 0
    entries_filtered: int = 0
    clusters_probed: int = 0
    candidates: int = 0
    filter_retries: int = 0
    ibc_transfers: int = 0
    # Page visits served from the DRAM cache mirror instead of a NAND
    # sense (disjoint from ``pages_read``, which counts sensed visits).
    cache_hits: int = 0

    @property
    def filter_pass_fraction(self) -> float:
        if self.entries_scanned == 0:
            return 1.0
        return self.entries_transferred / self.entries_scanned


@dataclass
class ReisQueryResult:
    """The outcome of one in-storage search."""

    ids: np.ndarray  # original dataset ids, distance-ordered
    distances: np.ndarray  # INT8-refined distances
    documents: List[DocumentChunk]
    latency: LatencyReport
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def k(self) -> int:
        return int(self.ids.size)


@dataclass
class PlanContext:
    """Mutable per-query state threaded through the stages of one plan."""

    db: DeployedDatabase
    query: np.ndarray
    stats: SearchStats = field(default_factory=SearchStats)
    query_code: Optional[np.ndarray] = None
    clusters: Optional[List[int]] = None
    # The fine phase's rescoring shortlist: a columnar
    # :class:`~repro.core.registry.TtlBlock` once the fine search ran.
    shortlist: object = field(default_factory=list)
    distances: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    dadrs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    documents: List[DocumentChunk] = field(default_factory=list)
    ibc_seconds: float = 0.0
    host_seconds: float = 0.0
    # Phase name -> raw resource usage, in execution order.  The sequential
    # executor composes each cost solo; the batch executor composes the
    # same costs jointly across queries.
    phase_costs: Dict[str, PhaseCost] = field(default_factory=dict)


class PlanStage:
    """One phase of a query plan.  Subclasses implement :meth:`run`."""

    name: str = "stage"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        raise NotImplementedError


@dataclass
class BroadcastStage(PlanStage):
    """Step 1: binary-encode the query and IBC it into every die."""

    name: str = "ibc"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        ctx.query_code = ctx.db.binary_quantizer.encode_one(ctx.query)
        ctx.ibc_seconds = engine._input_broadcast(ctx.query_code, ctx.stats)


@dataclass
class CoarseStage(PlanStage):
    """Steps 2-7 over the centroid region: pick the nprobe nearest clusters."""

    nprobe: int = 1
    name: str = "coarse"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        ctx.clusters, cost = engine._coarse_search(
            ctx.db, ctx.query_code, self.nprobe, ctx.stats
        )
        ctx.phase_costs[self.name] = cost


@dataclass
class FineStage(PlanStage):
    """Steps 2-7 over the embedding region: build the rescoring shortlist."""

    shortlist_size: int = 1
    metadata_filter: Optional[int] = None
    name: str = "fine"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        ctx.shortlist, cost = engine._fine_search(
            ctx.db, ctx.query_code, ctx.clusters, self.shortlist_size,
            ctx.stats, self.metadata_filter,
        )
        ctx.phase_costs[self.name] = cost


@dataclass
class RerankStage(PlanStage):
    """Step 8: INT8 rerank of the shortlist + quicksort of the top-k."""

    k: int = 10
    name: str = "rerank"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        self.run_batch(engine, ctx.db, [self], [ctx])

    @staticmethod
    def run_batch(
        engine: "InStorageAnnsEngine",
        db: DeployedDatabase,
        stages: "List[RerankStage]",
        ctxs: "List[PlanContext]",
    ) -> None:
        """Page-major phase kernel: every query's shortlist in one pass.

        Per-query billing and top-k math; the page materialization, the
        ECC decode and the distance einsum are shared
        (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch`).
        :meth:`run` is a phase of one.
        """
        outs = engine._rerank_batch(
            db,
            np.stack([ctx.query for ctx in ctxs]),
            [ctx.shortlist for ctx in ctxs],
            [stage.k for stage in stages],
            [ctx.stats for ctx in ctxs],
        )
        for ctx, (distances, dadrs, slots, cost) in zip(ctxs, outs):
            ctx.distances, ctx.dadrs, ctx.slots = distances, dadrs, slots
            ctx.phase_costs["rerank"] = cost


@dataclass
class DocumentStage(PlanStage):
    """Step 9: follow each winner's DADR to its chunk, transfer to host."""

    name: str = "documents"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        self.run_batch(engine, ctx.db, [ctx])

    @staticmethod
    def run_batch(
        engine: "InStorageAnnsEngine",
        db: DeployedDatabase,
        ctxs: "List[PlanContext]",
    ) -> None:
        """Page-major phase kernel: every query's winner DADRs in one pass.

        Queries with no winners are skipped (no ``documents`` phase cost is
        recorded for them); the rest share one functional page pass while
        keeping per-query charges
        (:meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`).
        :meth:`run` is a phase of one.
        """
        active = [i for i, ctx in enumerate(ctxs) if ctx.dadrs.size]
        if not active:
            return
        outs = engine._fetch_documents_batch(
            db,
            [ctxs[i].dadrs for i in active],
            [ctxs[i].stats for i in active],
        )
        for i, (documents, cost, host_s) in zip(active, outs):
            ctxs[i].documents = documents
            ctxs[i].host_seconds = host_s
            ctxs[i].phase_costs["documents"] = cost


@dataclass
class MergeStage(PlanStage):
    """Host-side distance merge of per-shard candidate lists.

    This stage is the multi-device seam: a sharded logical plan is the
    per-shard scan stages plus one merge, executed by the
    :class:`~repro.core.shard.ShardRouter` *on the host* between the
    shards' fine searches and their reranks.  It is plan *data* only --
    single-device executors must never service it, which the
    :class:`~repro.core.batch.BatchExecutor` stage validation enforces.
    """

    fan_in: int = 1
    name: str = "merge"

    def run(self, engine: "InStorageAnnsEngine", ctx: PlanContext) -> None:
        raise RuntimeError(
            "MergeStage executes on the host (ShardRouter), not on a device"
        )


@dataclass(frozen=True)
class PageRequest:
    """One task's demand for one page of a region.

    ``task`` indexes whatever task list the schedule was built from (a
    query's scan of one slot range, a rerank fetch, a document fetch);
    the task carries the rest of the demand (slot window, threshold,
    filter), so the schedule holds exactly the data ordering needs.
    """

    task: int
    page_offset: int


@dataclass
class PageSchedule:
    """An ordered page-service schedule for one batch phase.

    ``requests`` is the order in which the device services page demands;
    ``sensed[i]`` says whether request ``i`` triggers a fresh sense or rides
    on the page already latched in its plane's buffer.  The schedule is
    *data*: the batch executor derives it from the plan list, the functional
    kernel executes it, and the cost model bills exactly its sense counts
    (:func:`~repro.core.costing.compose_batch_phase` with
    ``scheduled_senses``) -- one source of truth for trace, energy and
    latency.
    """

    requests: List[PageRequest]
    sensed: List[bool]
    planes: List[int]
    # ``cached[i]`` marks request ``i`` as served from the DRAM cache
    # mirror: it never senses and never occupies its plane's latch (a
    # cached request between two same-plane requests does not evict the
    # latched page).  Empty when the schedule was built without a cache.
    cached: List[bool] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_senses(self) -> int:
        return sum(self.sensed)

    @property
    def n_cached(self) -> int:
        return sum(self.cached)

    def senses_per_plane(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for plane, fresh in zip(self.planes, self.sensed):
            if fresh:
                out[plane] = out.get(plane, 0) + 1
        return out

    def service_groups(
        self,
    ) -> Iterator[Tuple[int, int, bool, List[PageRequest]]]:
        """Yield ``(page_offset, plane, sense, requests)`` service runs.

        A run is a maximal stretch of consecutive requests for the same
        page: the device latches the page once (``sense`` is False when the
        plane's buffer still holds it from an earlier run) and drains every
        request in the run against the latched data.
        """
        i = 0
        n = len(self.requests)
        while i < n:
            page = self.requests[i].page_offset
            j = i
            while j < n and self.requests[j].page_offset == page:
                j += 1
            yield page, self.planes[i], self.sensed[i], self.requests[i:j]
            i = j


def build_page_schedule(
    requests: Iterable[PageRequest],
    plane_of_page: Callable[[int], int],
    optimize: bool = True,
    is_cached: Optional[Callable[[int], bool]] = None,
) -> PageSchedule:
    """Order a phase's page demands and mark which ones really sense.

    With ``optimize`` the scan order is reorganized so every request for a
    page is serviced while that page is latched (requests stably grouped by
    page, pages in first-demand order): each unique page is sensed exactly
    once -- the maximum-collision schedule of ROADMAP item 5.  Without it,
    requests are serviced in the caller's (query-major) order and a sense is
    shared only when the page is still in its plane's buffer, i.e. when no
    other page was sensed on that plane in between.  Either way the sense
    decision is a pure function of service order and per-plane latch state,
    so the cost model can bill the schedule verbatim.

    ``is_cached`` partitions the demands into cached vs to-sense pages: a
    request whose page the DRAM cache mirrors is marked ``cached``, never
    senses, and is excluded from the latch simulation entirely -- the
    controller serves it from DRAM, so it cannot evict a latched page
    between two same-plane to-sense requests.  The predicate is evaluated
    once per unique page (a snapshot: pages admitted while the schedule
    executes do not retroactively change it).
    """
    reqs = list(requests)
    if not reqs:
        return PageSchedule(requests=[], sensed=[], planes=[])
    pages = np.fromiter(
        (request.page_offset for request in reqs), dtype=np.int64, count=len(reqs)
    )
    order = schedule_order(pages, optimize)
    if order is not None:
        reqs = [reqs[i] for i in order]
        pages = pages[order]
    if is_cached is None:
        sensed, planes = schedule_senses(pages, plane_of_page)
        return PageSchedule(
            requests=reqs, sensed=sensed.tolist(), planes=planes.tolist()
        )
    sensed, planes, cached = schedule_senses_cached(
        pages, plane_of_page, is_cached
    )
    return PageSchedule(
        requests=reqs,
        sensed=sensed.tolist(),
        planes=planes.tolist(),
        cached=cached.tolist(),
    )


def schedule_order(pages: np.ndarray, optimize: bool) -> Optional[np.ndarray]:
    """Service order for a page-demand array (``None`` = caller's order).

    The optimized order groups requests stably by page, pages in
    first-demand order -- identical to sorting by a first-seen dict rank,
    computed here with one ``unique`` + two stable argsorts.
    """
    if not optimize or pages.size == 0:
        return None
    uniq, first_index, inverse = np.unique(
        pages, return_index=True, return_inverse=True
    )
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_index, kind="stable")] = np.arange(uniq.size)
    return np.argsort(rank[inverse], kind="stable")


def schedule_senses(
    pages: np.ndarray, plane_of_page: Callable[[int], int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-plane latch simulation over a service order.

    A request senses fresh unless the previous request on the *same plane*
    latched the *same page* -- exactly the scalar walk that kept a
    ``latched[plane]`` dict, evaluated as one stable sort by plane plus a
    neighbour comparison.  ``plane_of_page`` runs once per unique page.
    """
    n = pages.size
    uniq, inverse = np.unique(pages, return_inverse=True)
    plane_of_uniq = np.fromiter(
        (plane_of_page(int(page)) for page in uniq), dtype=np.int64, count=uniq.size
    )
    planes = plane_of_uniq[inverse]
    by_plane = np.argsort(planes, kind="stable")
    pg = pages[by_plane]
    pl = planes[by_plane]
    fresh_sorted = np.ones(n, dtype=bool)
    if n > 1:
        fresh_sorted[1:] = ~((pl[1:] == pl[:-1]) & (pg[1:] == pg[:-1]))
    sensed = np.empty(n, dtype=bool)
    sensed[by_plane] = fresh_sorted
    return sensed, planes


def schedule_senses_cached(
    pages: np.ndarray,
    plane_of_page: Callable[[int], int],
    is_cached: Callable[[int], bool],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`schedule_senses` with a cached-page partition.

    Cached requests never sense and never occupy a latch, so the latch
    simulation runs over the to-sense subsequence only; their planes are
    still resolved (billing metadata).  Both predicates are evaluated once
    per unique page.
    """
    n = pages.size
    uniq, inverse = np.unique(pages, return_inverse=True)
    plane_of_uniq = np.fromiter(
        (plane_of_page(int(page)) for page in uniq), dtype=np.int64, count=uniq.size
    )
    cached_of_uniq = np.fromiter(
        (bool(is_cached(int(page))) for page in uniq), dtype=bool, count=uniq.size
    )
    planes = plane_of_uniq[inverse]
    cached = cached_of_uniq[inverse]
    sensed = np.zeros(n, dtype=bool)
    to_sense = ~cached
    if to_sense.any():
        sub_pages = pages[to_sense]
        sub_planes = planes[to_sense]
        by_plane = np.argsort(sub_planes, kind="stable")
        pg = sub_pages[by_plane]
        pl = sub_planes[by_plane]
        fresh_sorted = np.ones(sub_pages.size, dtype=bool)
        if sub_pages.size > 1:
            fresh_sorted[1:] = ~((pl[1:] == pl[:-1]) & (pg[1:] == pg[:-1]))
        sub_sensed = np.empty(sub_pages.size, dtype=bool)
        sub_sensed[by_plane] = fresh_sorted
        sensed[to_sense] = sub_sensed
    return sensed, planes, cached


@dataclass
class QueryPlan:
    """An executable schedule for one query: an ordered list of stages."""

    db: DeployedDatabase
    query: np.ndarray
    k: int
    stages: List[PlanStage]
    nprobe: Optional[int] = None

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]


def validate_queries(
    db, queries: np.ndarray, k: int, nprobe: Optional[int] = None
) -> np.ndarray:
    """API-boundary check of a query batch; returns it as ``(n, dim)`` float32.

    ``db`` is the deployed (or sharded) database the batch targets.  A bad
    argument fails here with a :class:`ValueError` naming it -- ``k < 1``,
    ``nprobe < 1``, a dimension other than the database's, NaN/inf
    components -- instead of deep inside a kernel or, for NaN (which
    binary-quantizes to a valid code) and ``nprobe == 0`` (which probes
    nothing), not at all.  ``nprobe`` above the cluster count is not an
    error: it clamps to every cluster (:func:`build_query_plan`).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if nprobe is not None and nprobe < 1:
        raise ValueError(f"nprobe must be at least 1, got {nprobe}")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if queries.ndim != 2 or queries.shape[1] != db.dim:
        raise ValueError(
            f"queries must have shape (n, {db.dim}), got {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries contain NaN or inf components")
    return queries


def build_query_plan(
    engine: "InStorageAnnsEngine",
    db: DeployedDatabase,
    query: np.ndarray,
    k: int = 10,
    nprobe: Optional[int] = None,
    fetch_documents: bool = True,
    metadata_filter: Optional[int] = None,
) -> QueryPlan:
    """Validate a query and assemble its stage list.

    For IVF databases ``nprobe`` selects how many clusters the fine search
    visits (default: enough for ~sqrt(nlist)) and a :class:`CoarseStage`
    is planned; flat databases skip it and the fine search scans the whole
    embedding region.  ``fetch_documents=False`` drops the
    :class:`DocumentStage`.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if metadata_filter is not None and not db.has_metadata:
        raise ValueError("database was deployed without metadata tags")
    query = np.asarray(query, dtype=np.float32)
    if query.ndim != 1 or query.size != db.dim:
        raise ValueError(f"query must be a flat vector of dim {db.dim}")

    stages: List[PlanStage] = [BroadcastStage()]
    if db.is_ivf:
        if nprobe is None:
            nprobe = max(1, int(round(db.n_clusters**0.5)))
        nprobe = min(nprobe, db.n_clusters)
        stages.append(CoarseStage(nprobe=nprobe))
    shortlist_size = engine.params.shortlist_factor * k
    stages.append(
        FineStage(shortlist_size=shortlist_size, metadata_filter=metadata_filter)
    )
    stages.append(RerankStage(k=k))
    if fetch_documents:
        stages.append(DocumentStage())
    return QueryPlan(db=db, query=query, k=k, stages=stages, nprobe=nprobe)


class PlanExecutor:
    """Runs one plan's stages in order and composes the solo latency.

    This is the sequential schedule: every phase is charged as if the
    device were otherwise idle, exactly as the seed's monolithic
    ``search()`` did.  The batch executor reuses the same functional
    execution (via :meth:`execute`) but replaces the cost composition.
    """

    def __init__(self, engine: "InStorageAnnsEngine") -> None:
        self.engine = engine

    def execute(self, plan: QueryPlan) -> Tuple[ReisQueryResult, PlanContext]:
        """Run the stages functionally and return (result, final context)."""
        engine = self.engine
        ctx = PlanContext(db=plan.db, query=plan.query)
        for stage in plan.stages:
            stage.run(engine, ctx)
        return finalize_query_result(engine, plan, ctx), ctx

    def run(self, plan: QueryPlan) -> ReisQueryResult:
        return self.execute(plan)[0]


def compose_solo_report(
    engine: "InStorageAnnsEngine", ctx: PlanContext
) -> LatencyReport:
    """Compose one query's phase costs as solo (otherwise-idle) latency.

    Used by :func:`finalize_query_result` and, per shard, by the
    :class:`~repro.core.shard.ShardRouter` (a sharded query's solo report
    is the phase-wise slowest shard plus its merge share).
    """
    ecc_rate = engine.ssd.ecc.decode_time(1)
    phases: Dict[str, Tuple[float, Dict[str, float]]] = {
        name: compose_phase(cost, engine.timing, engine.flags, ecc_rate)
        for name, cost in ctx.phase_costs.items()
    }
    report = merge_phase_totals(phases, ctx.ibc_seconds)
    if ctx.host_seconds:
        report.add_component("host_transfer", ctx.host_seconds)
        report.add_phase("host", ctx.host_seconds)
        report.total_s += ctx.host_seconds
    return report


def finalize_query_result(
    engine: "InStorageAnnsEngine", plan: QueryPlan, ctx: PlanContext
) -> ReisQueryResult:
    """Compose a query's solo latency report and package its result.

    Shared by the sequential :class:`PlanExecutor` and the page-major batch
    executor: however a plan was *serviced*, its per-query phase costs are
    composed solo here, so every query keeps the latency report it would
    have had on an otherwise-idle device.
    """
    report = compose_solo_report(engine, ctx)

    db = plan.db
    ids = db.slot_to_original[ctx.slots] if ctx.slots.size else ctx.slots
    return ReisQueryResult(
        ids=np.asarray(ids, dtype=np.int64),
        distances=ctx.distances,
        documents=ctx.documents,
        latency=report,
        stats=ctx.stats,
    )
