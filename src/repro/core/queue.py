"""Async host submission queue: deadline/occupancy batch forming.

The :class:`~repro.core.batch.BatchExecutor` amortizes page senses across
a batch; serving multi-user traffic, the host forms those batches itself
from an asynchronous stream of per-tenant submissions.  This module
models that admission-control layer on a **simulated clock**
(:class:`~repro.sim.latency.SimClock`; never wall time, so queueing
behavior is deterministic and tier-1 stays flake-free):

* :class:`Submission` -- one query with a tenant id, an arrival instant
  and an absolute deadline on the sim clock.
* :class:`BatchFormer` -- the batch-forming state machine.  The pending
  set becomes a batch when the first of these triggers fires:

  ``full``       the pending set reaches ``max_batch``;
  ``occupancy``  the estimated scan footprint covers enough of the
                 device (plane coverage and sense-collision targets,
                 estimated by the executor's sense rule over the layout's
                 real page->plane map, folded in one arrival at a time);
  ``timeout``    the oldest pending submission has waited
                 ``batching_timeout_s``;
  ``deadline``   some pending submission's deadline is within
                 ``deadline_slack_s`` -- waiting longer would turn a
                 servable query into a miss;
  ``flush``      the stream is known drained (explicit
                 :meth:`SubmissionQueue.drain`) and nothing else can
                 arrive.

* :class:`SubmissionQueue` -- per-tenant FIFOs drained by **weighted
  round-robin**: each forming pass visits tenants cyclically and takes at
  most ``weight(tenant)`` submissions per visit, so a tenant flooding the
  queue cannot push another tenant's share of a batch below its weight --
  the fairness invariant the starvation tests pin down.  The rotation
  offset advances every batch so no tenant is permanently first.  It is
  built from an ``(executor, db)`` pair -- one drive's
  :class:`~repro.core.batch.BatchExecutor` or a cluster's
  :class:`~repro.core.shard.ShardRouter` -- and derives its plan and its
  former from that pair; nothing else is wired in.

Submissions are **never dropped**.  Deadline-missed queries are served,
returned, and counted (:attr:`~repro.core.batch.BatchExecution.
deadline_misses`, :class:`QueueServeReport`), because retrieval results
are still useful late; and when a batch's execution raises (a shard with
no live replica, an uncorrectable read, a refused ingest commit) its
unserved members go back to the head of their tenant FIFOs before the
error propagates, so a later :meth:`SubmissionQueue.drain` serves them.
The union of results produced through the queue is bit-identical per
query to the direct :meth:`~repro.core.engine.InStorageAnnsEngine.search`
path -- the queue only *partitions* submissions into batches, and a
query's result does not depend on its batch.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, is_
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.batch import BatchExecution, BatchStats
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import resolve_nprobe, validate_query_rows, validate_search_params
from repro.sim.latency import LatencyReport, SimClock
from repro.sim.unique import sorted_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.api import BatchSearchResult
    from repro.core.batch import BatchExecutor
    from repro.core.engine import InStorageAnnsEngine
    from repro.core.shard import ShardedDatabase, ShardRouter

_EPS = 1e-12

#: Fraction of the database's planes the pending set must cover before the
#: occupancy trigger may close a batch: all of them.
PLANE_COVERAGE_TARGET = 1.0
#: Forming-pass batch slots of a tenant absent from ``tenant_weights``.
DEFAULT_TENANT_WEIGHT = 1
#: A submission's place in arrival order.
_ARRIVAL = attrgetter("submit_s", "sub_id")


class QueueAdmissionError(RuntimeError):
    """A submission was rejected by the per-tenant admission bound."""


class Submission(NamedTuple):
    """One tenant query waiting (or having waited) for service (the queue
    records are immutable tuples: no per-field ``__setattr__`` call)."""

    sub_id: int
    tenant: str
    query: np.ndarray
    submit_s: float
    deadline_s: float = math.inf


class ServedQuery(NamedTuple):
    """A submission after service: result plus its queueing history."""

    submission: Submission
    result: "object"  # ReisQueryResult (kept loose to avoid import cycle)
    batch_index: int
    start_s: float
    finish_s: float

    @property
    def queue_seconds(self) -> float:
        """Time from submission to service start (host-side wait)."""
        return self.start_s - self.submission.submit_s

    @property
    def deadline_missed(self) -> bool:
        return self.finish_s > self.submission.deadline_s + _EPS

    @property
    def deadline_miss_seconds(self) -> float:
        """How late past the deadline the query completed (0 if on time)."""
        return max(0.0, self.finish_s - self.submission.deadline_s)


@dataclass(frozen=True)
class QueuePolicy:
    """Batch-forming and fairness knobs of one submission queue.

    The occupancy trigger closes once the estimated footprint of the
    pending set covers every plane the database spans
    (:data:`PLANE_COVERAGE_TARGET`) *and* at least ``collision_target`` of
    its page requests would ride a shared sense.  With the default
    ``collision_target`` it fires as soon as every plane has work -- the
    point at which adding more queries only deepens queues without widening
    device parallelism -- and the timeout bounds the wait when traffic is
    too thin to ever get there.  ``tenant_weights`` maps a tenant to its
    per-pass batch slots; an unlisted tenant gets
    :data:`DEFAULT_TENANT_WEIGHT`.
    """

    max_batch: int = 64
    min_batch: int = 1
    batching_timeout_s: float = 500e-6
    deadline_slack_s: float = 0.0
    collision_target: float = 0.0
    close_on_flush: bool = True
    tenant_weights: Mapping[str, int] = field(default_factory=dict)
    max_pending_per_tenant: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if not 1 <= self.min_batch <= self.max_batch:
            raise ValueError("min_batch must be in [1, max_batch]")
        if self.batching_timeout_s < 0:
            raise ValueError("batching_timeout_s must be non-negative")

    def weight(self, tenant: str) -> int:
        """Per-forming-pass batch slots guaranteed to ``tenant``."""
        return max(1, int(self.tenant_weights.get(tenant, DEFAULT_TENANT_WEIGHT)))


@dataclass(frozen=True)
class FormingEstimate:
    """Occupancy estimate of a candidate batch's scan footprint."""

    n_requests: int
    n_senses: int
    planes_covered: int
    n_planes: int

    @property
    def plane_coverage(self) -> float:
        """Fraction of the database's planes with at least one sense."""
        if self.n_planes == 0:
            return 1.0
        return self.planes_covered / self.n_planes

    @property
    def collision_ratio(self) -> float:
        """Fraction of page requests served by a shared (amortized) sense."""
        if self.n_requests == 0:
            return 0.0
        return 1.0 - self.n_senses / self.n_requests


# ``views(clusters)``: every device that would serve a batch right now, as
# ``(shard, engine, deployed piece, local ids of the given global clusters
# the device is expected to scan)``.
FormingViews = Callable[
    [Sequence[int]],
    List[Tuple[int, "InStorageAnnsEngine", DeployedDatabase, Sequence[int]]],
]


class BatchFormer:
    """Estimates batch occupancy and decides when the pending set closes.

    The former runs on the host, *before* any query executes, so it can
    only use layout data.  What is exact pre-execution: every query scans
    the whole centroid region (IVF) or the whole embedding region (flat)
    of every device serving it.  What is not knowable: which clusters an
    IVF query's coarse phase will pick.  The former substitutes a
    deterministic uniform-popularity surrogate -- submission ``i`` is
    assumed to probe ``nprobe`` clusters striding the cluster list from
    offset ``i`` -- and runs the union of those footprints through the
    executor's sense rule (:func:`~repro.core.plan.schedule_order` /
    :func:`~repro.core.plan.schedule_senses`) with the layout's real
    page->plane map.  The resulting collision and plane-coverage
    statistics are an *expectation model* of the schedules the executors
    will really build; they steer admission, never results.

    The estimate is a running state (:meth:`_fold`): request and sense
    counts, each shard's covered planes and each (shard, region)'s latch
    state -- the pages already seen under ``schedule_optimization`` (a
    page senses once), else each plane's latched page.  :meth:`estimate`
    folds in only the candidates beyond the list the state covers; any
    other list (a batch formed, a requeue, a new head of a pending set
    over ``max_batch``) restarts it from empty, by the same code.

    The layout comes in as ``views`` (:data:`FormingViews`), asked afresh
    per footprint so it reflects the deployment as it stands.  A single
    device (:meth:`~repro.core.batch.BatchExecutor.forming_views`) is the
    one-view case; a sharded deployment
    (:meth:`~repro.core.shard.ShardRouter.forming_views`) yields one view
    per live shard, each expected to scan the guessed clusters the router
    would have it *serve*, and planes count as ``(shard, plane)`` pairs --
    one shard's planes alone saturate long before (balanced splits) or
    after (skewed splits) the cluster's do.  A footprint is kept from a
    submission's first estimate until it forms into a batch
    (:meth:`release`); a requeued member keeps its own.
    """

    def __init__(
        self,
        views: FormingViews,
        n_clusters: int,
        nprobe: Optional[int],
        policy: QueuePolicy,
    ) -> None:
        self.views = views
        self.n_clusters = n_clusters
        self.nprobe = resolve_nprobe(n_clusters, nprobe)
        if self.nprobe is not None:
            # Submission ``i`` guesses clusters ``i + j * stride`` (mod nlist).
            stride = max(1, n_clusters // self.nprobe)
            self._probe_strides = np.arange(self.nprobe) * stride
        self.policy = policy
        self._footprints: Dict[int, List[Tuple]] = {}
        # (shard, region name) -> (the region, its page offsets, their planes).
        self._columns: Dict[Tuple[int, str], Tuple] = {}
        self._n_planes: Optional[int] = None  # on first estimate()
        self._restart()

    def _restart(self) -> None:
        """Empty the running estimate."""
        self._folded: List[Submission] = []
        self._latches: Dict[Tuple[int, str], Tuple] = {}  # see _fold
        self._covered: Dict[int, np.ndarray] = {}
        self._n_requests = self._n_senses = 0
        self._estimate: Optional[FormingEstimate] = None

    def _region_columns(
        self, shard: int, engine: "InStorageAnnsEngine", region: RegionInfo
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every page offset of ``shard``'s ``region`` (read-only) and its
        global plane: forming's one address translation per region."""
        key = (shard, region.name)
        cached = self._columns.get(key)
        if cached is None or cached[0] is not region:
            pages = np.arange(region.n_pages)
            pages.flags.writeable = False
            planes = region.region.translate_columns(pages, engine.geometry)[0]
            cached = self._columns[key] = (region, pages, planes)
        return cached[1:]

    def _count_planes(self) -> int:
        if self._n_planes is None:
            self._n_planes = len(
                {
                    (shard, plane)
                    for shard, engine, db, _clusters in self.views(())
                    for region in (db.centroid_region, db.embedding_region)
                    if region is not None
                    for plane in sorted_unique(
                        self._region_columns(shard, engine, region)[1]
                    )[0].tolist()
                }
            )
        return self._n_planes

    # ------------------------------------------------------------ footprint

    def _guessed_clusters(self, sub_id: int) -> List[int]:
        """Uniform-popularity surrogate for a submission's probed clusters."""
        if self.nprobe is None:
            return []
        return ((sub_id + self._probe_strides) % self.n_clusters).tolist()

    def footprint(
        self, submission: Submission
    ) -> List[Tuple[int, "InStorageAnnsEngine", RegionInfo, np.ndarray]]:
        """``(shard, engine, region, page offsets)`` scans the submission
        is expected to cause, distinct pages in demand order."""
        cached = self._footprints.get(submission.sub_id)
        if cached is not None:
            return cached
        scans: List[Tuple] = []
        guessed = self._guessed_clusters(submission.sub_id)
        for shard, engine, db, clusters in self.views(guessed):
            embedding, centroid = db.embedding_region, db.centroid_region
            if centroid is not None:  # IVF
                scans.append(
                    (shard, engine, centroid,
                     self._region_columns(shard, engine, centroid)[0])
                )
                # The guessed clusters' pages (R-IVF columns) in demand
                # order; a page two of them share is one demand.
                spp = embedding.slots_per_page
                pages = np.fromiter(dict.fromkeys([
                    page
                    for first, last in zip(
                        db.r_ivf.firsts[clusters].tolist(),
                        db.r_ivf.lasts[clusters].tolist(),
                    ) if last >= first
                    for page in range(first // spp, last // spp + 1)
                ]), dtype=np.int64)
            else:
                pages = self._region_columns(shard, engine, embedding)[0]
            scans.append((shard, engine, embedding, pages))
        self._footprints[submission.sub_id] = scans
        return scans

    def release(self, members: Sequence[Submission]) -> None:
        """Forget the footprints of submissions that left the queue."""
        for submission in members:
            self._footprints.pop(submission.sub_id, None)

    def _fold(
        self,
        shard: int,
        engine: "InStorageAnnsEngine",
        region: RegionInfo,
        pages: np.ndarray,
    ) -> None:
        """Add one candidate's distinct page demands on ``shard``'s
        ``region`` to the running estimate.

        Under ``schedule_optimization`` a page's requests are served
        together, so only pages not seen before sense.  In query order a
        request senses unless the last request on its plane latched the
        same page: the demands are walked against each plane's latched
        page, in order (one stable sort by plane).  A plane is covered
        once any of its pages is asked for: its first request senses.
        """
        if not pages.size:
            return
        state = self._latches.get((shard, region.name))
        if state is None:
            optimize = engine.flags.schedule_optimization
            plane_of = self._region_columns(shard, engine, region)[1]
            n_planes = engine.geometry.total_planes
            covered = self._covered.setdefault(shard, np.zeros(n_planes, dtype=bool))
            latch = (  # the pages seen, or each plane's latched page
                np.zeros(plane_of.size, dtype=bool) if optimize
                else np.zeros(n_planes, dtype=np.int64) - 1
            )
            state = self._latches[shard, region.name] = (optimize, plane_of, latch, covered)
        optimize, plane_of, latch, covered = state
        if optimize:
            fresh = pages[~latch[pages]]
            latch[fresh] = True
            n_sensed = fresh.size
        else:
            order = plane_of[pages].argsort(kind="stable")
            by_plane = pages[order]
            planes = plane_of[by_plane]
            head = np.concatenate(([True], planes[1:] != planes[:-1]))
            previous = np.concatenate(([-1], by_plane[:-1]))
            previous[head] = latch[planes[head]]
            tail = np.concatenate((head[1:], [True]))
            latch[planes[tail]] = by_plane[tail]
            n_sensed = int(np.add.reduce(by_plane != previous))
        covered[plane_of[pages]] = True
        self._n_requests += pages.size
        self._n_senses += n_sensed

    def estimate(self, candidates: Sequence[Submission]) -> FormingEstimate:
        """Occupancy statistics of the candidate batch's expected schedules.

        One schedule per scanned (shard, region) -- coarse and fine execute
        as separate page-major schedules on every device -- under the same
        ``schedule_optimization`` flag the executor will use, so the
        estimate and the execution share one collision model.
        """
        folded = self._folded
        if len(candidates) < len(folded) or not all(map(is_, folded, candidates)):
            self._restart()
            folded = self._folded
        if self._estimate is None or len(candidates) > len(folded):
            arrived = candidates[len(folded):]
            for submission in arrived:
                for scan in self.footprint(submission):
                    self._fold(*scan)
            folded.extend(arrived)
            self._estimate = FormingEstimate(
                n_requests=self._n_requests,
                n_senses=self._n_senses,
                planes_covered=sum(
                    [int(np.add.reduce(mask)) for mask in self._covered.values()]
                ),
                n_planes=self._count_planes(),
            )
        return self._estimate

    # ------------------------------------------------------------- triggers

    def should_close(
        self,
        pending: Sequence[Submission],
        now_s: float,
        flushing: bool,
    ) -> Optional[str]:
        """The first fired trigger's name, or None to keep forming.
        ``pending`` is in arrival order, oldest first."""
        if not pending:
            return None
        policy = self.policy
        if len(pending) >= policy.max_batch:
            return "full"
        if len(pending) >= policy.min_batch:
            estimate = self.estimate(pending[: policy.max_batch])
            if (
                estimate.plane_coverage >= PLANE_COVERAGE_TARGET - _EPS
                and estimate.collision_ratio >= policy.collision_target - _EPS
            ):
                return "occupancy"
        if now_s >= pending[0].submit_s + policy.batching_timeout_s - _EPS:
            return "timeout"
        nearest = min([s.deadline_s for s in pending])
        if math.isfinite(nearest) and now_s >= nearest - policy.deadline_slack_s - _EPS:
            return "deadline"
        if flushing and policy.close_on_flush:
            return "flush"
        return None

    def next_trigger_s(self, pending: Sequence[Submission]) -> float:
        """Earliest future instant a time-based trigger can fire
        (``pending`` in arrival order)."""
        if not pending:
            return math.inf
        instant = pending[0].submit_s + self.policy.batching_timeout_s
        nearest = min([s.deadline_s for s in pending])
        if math.isfinite(nearest):
            instant = min(instant, nearest - self.policy.deadline_slack_s)
        return instant


@dataclass
class QueuedBatch:
    """One batch the queue formed and served."""

    index: int
    submissions: List[Submission]
    execution: BatchExecution
    close_reason: str
    start_s: float
    finish_s: float
    service_seconds: float

    @property
    def forming_seconds(self) -> float:
        """First member's submission to service start (the forming window)."""
        return self.start_s - min(s.submit_s for s in self.submissions)

    def __len__(self) -> int:
        return len(self.submissions)


@dataclass
class QueueServeReport:
    """Everything a drained queue knows about how serving went."""

    served: List[ServedQuery]
    batches: List[QueuedBatch]
    started_s: float
    finished_s: float

    @property
    def n_queries(self) -> int:
        return len(self.served)

    @property
    def makespan_s(self) -> float:
        """First submission to last completion, on the sim clock."""
        return self.finished_s - self.started_s

    @property
    def qps(self) -> float:
        return self.n_queries / self.makespan_s if self.makespan_s > 0 else float("inf")

    @property
    def service_seconds(self) -> float:
        """Device-busy time summed over batches (excludes queue wait)."""
        return sum(batch.service_seconds for batch in self.batches)

    @property
    def total_queue_wait_s(self) -> float:
        """Per-query waits summed over every served submission."""
        return sum(query.queue_seconds for query in self.served)

    def waits(self, tenant: Optional[str] = None) -> np.ndarray:
        """Per-query queue waits, optionally restricted to one tenant."""
        return np.array(
            [
                query.queue_seconds
                for query in self.served
                if tenant is None or query.submission.tenant == tenant
            ],
            dtype=np.float64,
        )

    def p99_wait_s(self, tenant: Optional[str] = None) -> float:
        waits = self.waits(tenant)
        if waits.size == 0:
            return 0.0
        return float(np.percentile(waits, 99))

    @property
    def deadline_misses(self) -> List[ServedQuery]:
        return [query for query in self.served if query.deadline_missed]

    @property
    def deadline_miss_fraction(self) -> float:
        if not self.served:
            return 0.0
        return len(self.deadline_misses) / len(self.served)

    def close_reasons(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for batch in self.batches:
            reasons[batch.close_reason] = reasons.get(batch.close_reason, 0) + 1
        return reasons

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.n_queries / len(self.batches)

    def as_batch_result(self) -> "BatchSearchResult":
        """Merge the served batches into one host-facing result.

        Results come back in submission-id order (the order the caller
        submitted), whatever batches the former cut.  The merged wall
        clock is the **makespan** (first submission to last completion on
        the sim clock), decomposed as the summed device phases plus one
        ``queue`` phase covering the time the device was *not* serving
        (forming windows and arrival gaps).  Per-batch forming windows
        overlap earlier batches' service, so summing the per-batch totals
        would overstate elapsed time -- the makespan is the ground truth,
        and ``phase_seconds()`` sums to it exactly.
        """
        from repro.core.api import BatchSearchResult

        report = LatencyReport()
        stats = BatchStats()
        misses = 0
        for batch in self.batches:
            # Device phases only: each batch's own ``queue`` phase is its
            # forming window, which runs concurrently with other batches'
            # service and must not be summed across batches.
            report.total_s += batch.service_seconds
            for name, seconds in batch.execution.report.phases.items():
                if name != "queue":
                    report.add_phase(name, seconds)
            for name, seconds in batch.execution.report.components.items():
                if name != "queue_wait":
                    report.add_component(name, seconds)
            stats.merge(batch.execution.stats)
            misses += batch.execution.deadline_misses
        queue_wait = max(0.0, self.makespan_s - self.service_seconds)
        stats.queue_seconds = queue_wait
        if queue_wait > 0:
            report.add_phase("queue", queue_wait)
            report.add_component("queue_wait", queue_wait)
            report.total_s += queue_wait
        ordered = sorted(self.served, key=lambda query: query.submission.sub_id)
        return BatchSearchResult(
            results=[query.result for query in ordered],
            batch_report=report,
            batch_stats=stats,
            deadline_misses=misses,
        )


class SubmissionQueue:
    """Per-tenant async submission queue in front of the batch executor.

    Submissions carry an arrival instant on the queue's
    :class:`~repro.sim.latency.SimClock` (default: now) and an optional
    absolute deadline.  :meth:`drain` runs the event loop: admit due
    arrivals, ask the :class:`BatchFormer` whether the pending set closes,
    otherwise advance the clock to the next actionable instant (arrival,
    timeout or deadline), and on close drain a weighted-round-robin batch
    through the :class:`~repro.core.batch.BatchExecutor`, advancing the
    clock by the batch's modeled wall clock.  One queue serves one
    deployed database with fixed search parameters (k, nprobe, filters):
    that is what makes every pending submission batchable with every
    other, and why bad parameters fail when the queue is built
    (:attr:`plan`), not at the first submission or mid-drain.  The queue
    takes ``(executor, db)`` as a pair and asks the executor for
    everything device-shaped -- ``plan(db, ...)``, ``forming_views(db,
    clusters)``, ``execute(db, queries, ...)`` -- so the same forming and
    fairness machinery feeds one drive (a
    :class:`~repro.core.batch.BatchExecutor` and its
    :class:`~repro.core.layout.DeployedDatabase`) or a whole cluster (the
    :class:`~repro.core.shard.ShardRouter` and its
    :class:`~repro.core.shard.ShardedDatabase`).
    """

    def __init__(
        self,
        executor: Union["BatchExecutor", "ShardRouter"],
        db: Union[DeployedDatabase, "ShardedDatabase"],
        *,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        policy: Optional[QueuePolicy] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        validate_search_params(k, nprobe)
        self.executor = executor
        self.db = db
        self.k = k
        self.nprobe = nprobe
        self.fetch_documents = fetch_documents
        self.metadata_filter = metadata_filter
        # What every batch of this queue executes, resolved against ``db``.
        self.plan = executor.plan(db, k, nprobe, fetch_documents, metadata_filter)
        self.policy = policy if policy is not None else QueuePolicy()
        self.clock = clock if clock is not None else SimClock()
        self.former = BatchFormer(
            partial(executor.forming_views, db), db.n_clusters, nprobe, self.policy
        )
        self._arrivals: List[Tuple[float, int, Submission]] = []
        # Held arrivals per tenant (the admission bound counts them).
        self._future: Dict[str, int] = defaultdict(int)
        # Admitted submissions: per-tenant FIFOs, each tenant's weight
        # (resolved once), and all of them in arrival order.
        self._tenants: Dict[str, Deque[Submission]] = {}
        self._weights: Dict[str, int] = {}
        self._pending: List[Submission] = []
        self._rr_offset = 0
        self._next_sub_id = 0
        self.served: Dict[int, ServedQuery] = {}
        self.batches: List[QueuedBatch] = []
        self._first_submit_s: Optional[float] = None

    # ----------------------------------------------------------- submission

    def submit(
        self,
        query: np.ndarray,
        tenant: str = "default",
        deadline_s: float = math.inf,
        at_s: Optional[float] = None,
    ) -> int:
        """Enqueue one query; returns its submission id.

        ``at_s`` is the arrival instant on the sim clock (default: now).
        Future arrivals are held and admitted when the clock reaches them,
        which is how arrival processes (e.g. Poisson sweeps) are replayed
        deterministically.
        """
        at = self.clock.now_s if at_s is None else float(at_s)
        if at < self.clock.now_s - _EPS:
            raise ValueError(
                f"arrival at {at!r}s is in the past (now {self.clock.now_s!r}s)"
            )
        bound = self.policy.max_pending_per_tenant
        if bound is not None and (
            len(self._tenants.get(tenant, ())) + self._future[tenant] >= bound
        ):
            raise QueueAdmissionError(
                f"tenant {tenant!r} already has {bound} pending submissions"
            )
        query = np.asarray(query, dtype=np.float32)
        if query.ndim != 1:
            raise ValueError("submit takes one flat query vector")
        # ``k`` / ``nprobe`` were checked when the queue was built.
        query = validate_query_rows(self.db, query)
        submission = Submission(
            sub_id=self._next_sub_id,
            tenant=tenant,
            query=query,
            submit_s=at,
            deadline_s=float(deadline_s),
        )
        self._next_sub_id += 1
        heapq.heappush(self._arrivals, (at, submission.sub_id, submission))
        self._future[tenant] += 1
        if self._first_submit_s is None or at < self._first_submit_s:
            self._first_submit_s = at
        return submission.sub_id

    def submit_many(
        self,
        queries: np.ndarray,
        tenant: str = "default",
        deadlines_s: Optional[Sequence[float]] = None,
        at_s: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Enqueue a batch of queries for one tenant."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        n = queries.shape[0]
        if deadlines_s is not None and len(deadlines_s) != n:
            raise ValueError("deadlines_s must match the number of queries")
        if at_s is not None and len(at_s) != n:
            raise ValueError("at_s must match the number of queries")
        return [
            self.submit(
                queries[i],
                tenant=tenant,
                deadline_s=math.inf if deadlines_s is None else deadlines_s[i],
                at_s=None if at_s is None else at_s[i],
            )
            for i in range(n)
        ]

    @property
    def pending_count(self) -> int:
        """Admitted-but-unserved submissions (excludes future arrivals)."""
        return len(self._pending)

    # ------------------------------------------------------------ admission

    def _admit_due(self) -> None:
        pending = self._pending
        while self._arrivals and self._arrivals[0][0] <= self.clock.now_s + _EPS:
            _, _, submission = heapq.heappop(self._arrivals)
            tenant = submission.tenant
            self._future[tenant] -= 1
            backlog = self._tenants.get(tenant)
            if backlog is None:
                backlog = self._tenants[tenant] = deque()
                self._weights[tenant] = self.policy.weight(tenant)
            backlog.append(submission)
            if pending and _ARRIVAL(submission) < _ARRIVAL(pending[-1]):
                # Admitted within _EPS of the clock, behind a later arrival.
                bisect.insort(pending, submission, key=_ARRIVAL)
            else:
                pending.append(submission)

    def _form_batch(self) -> List[Submission]:
        """Drain up to ``max_batch`` submissions, weighted round-robin.

        Tenants are visited cyclically (rotation advanced each batch) and
        each visit takes at most ``weight(tenant)`` submissions, so while
        any two tenants both have work their batch shares follow their
        weights regardless of queue depths -- the no-starvation bound.
        """
        order = [t for t, q in self._tenants.items() if q]
        picked: List[Submission] = []
        if not order:
            return picked
        start = self._rr_offset % len(order)
        self._rr_offset += 1
        visits = [
            (self._tenants[tenant], self._weights[tenant])
            for tenant in order[start:] + order[:start]
        ]
        room = self.policy.max_batch
        while room and visits:
            waiting = []  # the visited tenants with work left, in order
            for backlog, weight in visits:
                take = min(weight, len(backlog), room)
                picked += [backlog.popleft() for _ in range(take)]
                room -= take
                if backlog:
                    waiting.append((backlog, weight))
                if not room:
                    break
            visits = waiting
        if len(picked) == len(self._pending):
            self._pending = []
        else:
            taken = {s.sub_id for s in picked}
            self._pending = [s for s in self._pending if s.sub_id not in taken]
        return picked

    # ------------------------------------------------------------- serving

    def _execute(self, members: Sequence[Submission]) -> BatchExecution:
        """Run one formed batch: one result per member, in member order."""
        return self.executor.execute(
            self.db,
            np.array([s.query for s in members]),
            k=self.k,
            nprobe=self.nprobe,
            fetch_documents=self.fetch_documents,
            metadata_filter=self.metadata_filter,
        )

    def _serve_batch(self, members: List[Submission], reason: str) -> QueuedBatch:
        start_s = self.clock.now_s
        execution = self._execute(members)
        service_seconds = execution.batch_seconds
        self.clock.advance(service_seconds)
        finish_s = self.clock.now_s

        forming = start_s - min([s.submit_s for s in members])
        execution.stats.queue_seconds = forming
        if forming > 0:
            execution.report.add_phase("queue", forming)
            execution.report.add_component("queue_wait", forming)
            execution.report.total_s += forming

        batch = QueuedBatch(
            index=len(self.batches),
            submissions=members,
            execution=execution,
            close_reason=reason,
            start_s=start_s,
            finish_s=finish_s,
            service_seconds=service_seconds,
        )
        misses = 0
        for submission, result in zip(members, execution.results):
            query = ServedQuery(
                submission=submission,
                result=result,
                batch_index=batch.index,
                start_s=start_s,
                finish_s=finish_s,
            )
            if finish_s > submission.deadline_s + _EPS:  # ServedQuery.deadline_missed
                misses += 1
            self.served[submission.sub_id] = query
        execution.deadline_misses = misses
        self.batches.append(batch)
        return batch

    def _requeue(self, members: Sequence[Submission]) -> None:
        """Put a failed batch's members back at the head of their tenant
        FIFOs and into the pending list, in their original order."""
        for submission in reversed(members):
            self._tenants[submission.tenant].appendleft(submission)
        self._pending = sorted([*self._pending, *members], key=_ARRIVAL)

    def step(self) -> Optional[QueuedBatch]:
        """Advance the event loop until one batch is served (or nothing is
        left to do); returns the served batch, or None when idle.

        When the batch's execution raises, the error propagates with the
        queue as it was before the batch formed: nothing is dropped.
        """
        while self._arrivals or self._pending:
            self._admit_due()
            pending = self._pending
            flushing = not self._arrivals
            reason = self.former.should_close(pending, self.clock.now_s, flushing)
            if reason is not None:
                rr_offset = self._rr_offset
                members = self._form_batch()
                try:
                    batch = self._serve_batch(members, reason)
                except Exception:
                    self._rr_offset = rr_offset
                    self._requeue(members)
                    raise
                self.former.release(members)
                return batch
            instants = []
            if self._arrivals:
                instants.append(self._arrivals[0][0])
            if pending:
                instants.append(self.former.next_trigger_s(pending))
            next_s = min(instants)
            if not math.isfinite(next_s):
                # Pending work, no trigger can ever fire (close_on_flush
                # off, infinite timeout/deadlines): refuse to spin.
                raise RuntimeError(
                    "submission queue is stuck: no batch-forming trigger "
                    "can fire for the pending set"
                )
            self.clock.advance_to(next_s)
        return None

    def drain(self) -> QueueServeReport:
        """Serve until every submission (present and future) completes."""
        while self.step() is not None:
            pass
        return self.report()

    def serve(
        self,
        queries: np.ndarray,
        tenant: str = "default",
        deadlines_s: Optional[Sequence[float]] = None,
        at_s: Optional[Sequence[float]] = None,
    ) -> QueueServeReport:
        """Submit a batch of queries and drain the queue (convenience)."""
        self.submit_many(queries, tenant=tenant, deadlines_s=deadlines_s, at_s=at_s)
        return self.drain()

    # ------------------------------------------------------------ reporting

    def report(self) -> QueueServeReport:
        served = sorted(self.served.values(), key=lambda q: q.submission.sub_id)
        started = self._first_submit_s if self._first_submit_s is not None else 0.0
        finished = max(
            (batch.finish_s for batch in self.batches), default=started
        )
        return QueueServeReport(
            served=served,
            batches=list(self.batches),
            started_s=started,
            finished_s=finished,
        )
