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
                 real page->plane map);
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

A submission is a **row** of the queue's table and what the queue keeps
about waiting ones are columns of row ids: a step costs a few numpy calls
however many arrivals it covers, and records are built per served batch.

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

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
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
from repro.core.plan import resolve_nprobe, validate_search_params
from repro.sim.latency import LatencyReport, SimClock

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
#: An empty column of submission ids.
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


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


class FormingEstimate(NamedTuple):
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


# ``views(clusters)``: every device that would serve a batch now, as
# ``(shard, engine, deployed piece, local ids)``: the int array of global
# ``clusters`` in local ids, -1 where the device is not expected to scan.
FormingViews = Callable[
    [np.ndarray],
    List[Tuple[int, "InStorageAnnsEngine", DeployedDatabase, np.ndarray]],
]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = np.add.accumulate(counts)
    return (starts - ends + counts).repeat(counts) + np.arange(ends[-1] if ends.size else 0)


def _senses(optimize: bool, plane_of: np.ndarray, pages: np.ndarray) -> int:
    """Senses of one (shard, region) schedule of ``pages`` (demand order,
    latches empty): each distinct page once under ``schedule_optimization``,
    else each request whose plane's last request latched another page (the
    planes' requests walked in order: one stable sort by plane)."""
    if optimize:
        seen = np.zeros(plane_of.size, dtype=bool)
        seen[pages] = True
        return int(np.add.reduce(seen))
    by_plane = pages[plane_of[pages].argsort(kind="stable")]
    planes = plane_of[by_plane]
    changed = (planes[1:] != planes[:-1]) | (by_plane[1:] != by_plane[:-1])
    return 1 + int(np.add.reduce(changed))


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

    Footprints are rows ``(submission, scan, page)`` of the **demand
    table**, by submission, each one's pages in demand order.  An estimate
    computes the candidates' missing footprints in one pass over the layout
    as it stands, then folds all their rows in one pass per scanned (shard,
    region), counting what folding them one at a time would.  A footprint
    stays until its submission forms (:meth:`release`): a requeued member
    keeps its own; an ingest commit or a dead shard does not move it.

    The layout comes in as ``views`` (:data:`FormingViews`).  A single
    device (:meth:`~repro.core.batch.BatchExecutor.forming_views`) is the
    one-view case; a sharded deployment
    (:meth:`~repro.core.shard.ShardRouter.forming_views`) yields one view
    per live shard, each expected to scan the guessed clusters the router
    would have it *serve*, and planes count as ``(shard, plane)`` pairs --
    one shard's planes alone saturate long before (balanced splits) or
    after (skewed splits) the cluster's do.
    """

    def __init__(
        self, views: FormingViews, n_clusters: int, nprobe: Optional[int],
        policy: QueuePolicy,
    ) -> None:
        self.views = views
        self.n_clusters = n_clusters
        self.nprobe = resolve_nprobe(n_clusters, nprobe)
        # Submission ``i`` guesses clusters ``i + j * stride`` (mod nlist).
        n_guesses = self.nprobe or 0
        stride = max(1, n_clusters // max(1, n_guesses))
        self._probe_strides = np.arange(n_guesses) * stride
        self.policy = policy
        # Scanned regions ``(shard, engine, region, each page's plane)``,
        # one per region object, the latest per (shard, region name).
        # Scan 0 is every submission's mark row: its footprint is computed.
        self._scans: List[Optional[Tuple]] = [None]
        self._scan_of: Dict[Tuple[int, str], int] = {}
        self._demands = np.empty((3, 0), dtype=np.intp)  # (submission, scan, page) rows
        self._n_planes: Optional[int] = None  # on first estimate()

    def _scan(self, shard: int, engine: "InStorageAnnsEngine", region: RegionInfo) -> int:
        """``shard``'s ``region`` in the scan table (one translation each)."""
        index = self._scan_of.get((shard, region.name), 0)
        if not index or self._scans[index][2] is not region:
            pages = np.arange(region.n_pages)
            planes = region.region.translate_columns(pages, engine.geometry)[0]
            index = self._scan_of[shard, region.name] = len(self._scans)
            self._scans.append((shard, engine, region, planes))
        return index

    def _count_planes(self) -> int:
        if self._n_planes is None:
            self._n_planes = len({
                (shard, plane)
                for shard, engine, db, _clusters in self.views(_NO_ROWS)
                for region in (db.centroid_region, db.embedding_region) if region is not None
                for plane in self._scans[self._scan(shard, engine, region)][3].tolist()
            })
        return self._n_planes

    def _add_demands(self, subs: np.ndarray) -> None:
        """Enter the footprints of ``subs``: on every device that would serve
        them now, the whole centroid (IVF) or embedding (flat) region and the
        guessed clusters' pages, R-IVF ``first // spp .. last // spp``, in
        demand order (a page two of them share is one demand)."""
        n, n_guesses = subs.size, self._probe_strides.size
        marks = subs * 0
        parts = [self._demands, np.array((subs, marks, marks))]
        guessed = ((subs[:, None] + self._probe_strides) % self.n_clusters).ravel()
        for shard, engine, db, clusters in self.views(guessed):
            embedding, centroid = db.embedding_region, db.centroid_region
            whole = self._scan(shard, engine, embedding if centroid is None else centroid)
            n_pages = self._scans[whole][3].size
            every = np.arange(n * n_pages)
            owner = every // n_pages
            parts += [np.array((subs[owner], marks[owner] + whole, every % n_pages))]
            if centroid is None:
                continue
            scan = self._scan(shard, engine, embedding)
            spp = embedding.slots_per_page
            served = clusters >= 0
            firsts = db.r_ivf.firsts[clusters * served]
            lasts = db.r_ivf.lasts[clusters * served]
            lo = firsts // spp
            counts = (lasts // spp + 1 - lo) * (served & (lasts >= firsts))
            pages = _ranges(lo, counts)
            owner = np.arange(counts.size).repeat(counts) // n_guesses
            # The first demand of each (submission, page), in demand order.
            key = owner * self._scans[scan][3].size + pages
            order = key.argsort(kind="stable")
            first = np.empty(key.size, dtype=bool)
            first[order[:1]] = True
            first[order[1:]] = key[order[1:]] != key[order[:-1]]
            owner = owner[first]
            parts += [np.array((subs[owner], marks[owner] + scan, pages[first]))]
        demands = np.concatenate(parts, axis=1)
        self._demands = demands[:, demands[0].argsort(kind="stable")]

    def release(self, subs: np.ndarray) -> None:
        """Drop the demand rows of submissions that left the queue."""
        if subs.size:
            gone, table = subs[subs.argsort()], self._demands[0]
            self._demands = self._demands[
                :, gone[np.minimum(gone.searchsorted(table), gone.size - 1)] != table
            ]

    def estimate(self, candidates: np.ndarray) -> FormingEstimate:
        """Occupancy statistics of the candidate batch's expected schedules.

        ``candidates`` is a column of submission ids in arrival order.  One
        schedule per scanned (shard, region) -- coarse and fine execute as
        separate page-major schedules on every device -- under the same
        ``schedule_optimization`` flag the executor will use, so the
        estimate and the execution share one collision model.
        """
        table = self._demands[0]
        lo, hi = table.searchsorted(candidates), table.searchsorted(candidates, "right")
        if not np.logical_and.reduce(hi > lo):
            self._add_demands(candidates[hi == lo])
            table = self._demands[0]
            lo, hi = table.searchsorted(candidates), table.searchsorted(candidates, "right")
        _sub, scans, pages = self._demands[:, _ranges(lo, hi - lo)]
        scans, pages = scans[scans > 0], pages[scans > 0]
        order = scans.argsort(kind="stable")
        scans, pages = scans[order], pages[order]
        cuts = ((scans[1:] != scans[:-1]).nonzero()[0] + 1).tolist()
        n_senses, covered = 0, set()  # and the (shard, plane) pairs asked
        for start, end in zip([0, *cuts], [*cuts, scans.size]) if scans.size else ():
            shard, engine, _region, plane_of = self._scans[scans[start]]
            run = pages[start:end]
            n_senses += _senses(engine.flags.schedule_optimization, plane_of, run)
            covered.update(zip(repeat(shard), plane_of[run].tolist()))
        return tuple.__new__(FormingEstimate, (
            pages.size, n_senses, len(covered),
            self._n_planes if self._n_planes is not None else self._count_planes(),
        ))

    # ------------------------------------------------------------- triggers

    def should_close(
        self, pending: np.ndarray, oldest_s: float, nearest_deadline_s: float,
        now_s: float, flushing: bool,
    ) -> Optional[str]:
        """The first fired trigger's name, or None to keep forming, for the
        ``pending`` ids (arrival order) arrived first at ``oldest_s``."""
        if not pending.size:
            return None
        policy = self.policy
        if pending.size >= policy.max_batch:
            return "full"
        if pending.size >= policy.min_batch:
            estimate = self.estimate(pending[: policy.max_batch])
            if (
                estimate.plane_coverage >= PLANE_COVERAGE_TARGET - _EPS
                and estimate.collision_ratio >= policy.collision_target - _EPS
            ):
                return "occupancy"
        if now_s >= oldest_s + policy.batching_timeout_s - _EPS:
            return "timeout"
        if (
            -math.inf < nearest_deadline_s < math.inf
            and now_s >= nearest_deadline_s - policy.deadline_slack_s - _EPS
        ):
            return "deadline"
        if flushing and policy.close_on_flush:
            return "flush"
        return None

    def next_trigger_s(self, oldest_s: float, nearest_deadline_s: float) -> float:
        """Earliest future instant a time-based trigger can fire for a
        pending set first arrived at ``oldest_s``."""
        instant = oldest_s + self.policy.batching_timeout_s
        if -math.inf < nearest_deadline_s < math.inf:
            instant = min(instant, nearest_deadline_s - self.policy.deadline_slack_s)
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

    served: List[ServedQuery]  # in submission-id order
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
        return BatchSearchResult(
            results=[query.result for query in self.served],
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

    # The submission table's columns (row ``i``: submission ``i``).
    _COLUMNS = ("_at", "_deadline", "_tenant", "_queries")

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
        self._at, self._deadline = np.empty(0), np.empty(0)
        self._tenant = _NO_ROWS
        self._queries = np.empty(0, dtype=object)  # the validated arrays, uncopied
        self._next_sub_id = 0
        # Tenants by code: name, weight, first-admission rank (-1: none yet).
        self._codes: Dict[str, int] = {}
        self._tenant_names: List[str] = []
        self._weights = self._tenant_rank = _NO_ROWS
        self._n_ranked = 0
        # Rows in admission order (``_seq``: a row's place): ``_head`` as the
        # clock reached them, the rest by (arrival, sub id).  A tenant's FIFO
        # is its pending rows in it: a requeued member is back at its head.
        self._order = self._seq = _NO_ROWS
        self._order_at = np.empty(0)
        self._n_ordered = self._head = 0
        # Admitted, unformed rows by (arrival, sub id); their nearest deadline.
        self._pending = _NO_ROWS
        self._nearest = math.inf
        self._rr_offset = 0
        self.served: Dict[int, ServedQuery] = {}
        self.batches: List[QueuedBatch] = []

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
        if bound is not None and tenant in self._codes:
            unserved = np.concatenate((  # pending or not yet admitted
                self._pending, self._order[self._head:],
                np.arange(self._n_ordered, self._next_sub_id),
            ))
            if np.add.reduce(self._tenant[unserved] == self._codes[tenant]) >= bound:
                raise QueueAdmissionError(
                    f"tenant {tenant!r} already has {bound} pending submissions"
                )
        query = np.asarray(query, dtype=np.float32)
        if query.ndim != 1:
            raise ValueError("submit takes one flat query vector")
        # validate_query_rows' checks inline, once per query (k, nprobe: once).
        if query.size != self.db.dim:
            raise ValueError(
                f"queries must have shape (n, {self.db.dim}), got (1, {query.size})"
            )
        if not np.logical_and.reduce(np.isfinite(query)):
            raise ValueError("queries contain NaN or inf components")
        deadline_s = float(deadline_s)
        sub_id = self._next_sub_id
        if sub_id == self._at.size:
            self._grow(max(64, 2 * sub_id))
        self._at[sub_id], self._deadline[sub_id] = at, deadline_s
        self._queries[sub_id] = query
        if tenant not in self._codes:
            self._codes[tenant] = len(self._tenant_names)
            self._tenant_names.append(tenant)
            self._weights = np.concatenate((self._weights, [self.policy.weight(tenant)]))
            self._tenant_rank = np.concatenate((self._tenant_rank, [-1]))
        self._tenant[sub_id] = self._codes[tenant]
        self._next_sub_id = sub_id + 1
        return sub_id

    def _grow(self, size: int) -> None:
        """Room for ``size`` rows in every column, the new rows zero."""
        for name in self._COLUMNS:
            column = getattr(self, name)
            grown = np.zeros((size, *column.shape[1:]), dtype=column.dtype)
            grown[: len(column)] = column
            setattr(self, name, grown)

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
        return self._pending.size

    # ------------------------------------------------------------ admission

    def _arrival_sorted(self, rows: np.ndarray) -> np.ndarray:
        return rows[np.lexsort((rows, self._at[rows]))]

    def _admit_due(self) -> None:
        """Admit every row the clock has reached; rows submitted since the
        last admission join the waiting ones in (arrival, sub id) order."""
        head, n = self._head, self._next_sub_id
        if self._n_ordered < n:
            waiting = np.concatenate((self._order[head:], np.arange(self._n_ordered, n)))
            self._order = np.concatenate((self._order[:head], self._arrival_sorted(waiting)))
            self._order_at = self._at[self._order]
            self._seq = np.empty(n, dtype=np.intp)
            self._seq[self._order] = np.arange(n)
            self._n_ordered = n
        cut = head + self._order_at[head:].searchsorted(self.clock.now_s + _EPS, "right")
        if cut == head:
            return
        admitted = self._order[head:cut]
        self._head = cut
        codes = self._tenant[admitted]
        unranked = codes[self._tenant_rank[codes] < 0]
        for code in dict.fromkeys(unranked.tolist()) if unranked.size else ():
            self._tenant_rank[code] = self._n_ranked
            self._n_ranked += 1
        self._nearest = float(
            np.minimum.reduce(self._deadline[admitted], initial=self._nearest)
        )
        pending, first = self._pending, admitted[0]
        # A row admitted within _EPS of the clock can precede the last one.
        last = pending[-1] if pending.size else first
        pending = np.concatenate((pending, admitted))
        behind = (self._at[first], first) < (self._at[last], last)
        self._pending = self._arrival_sorted(pending) if behind else pending

    def _set_pending(self, pending: np.ndarray) -> None:
        self._pending = pending
        self._nearest = float(np.minimum.reduce(self._deadline[pending], initial=math.inf))

    def _form_batch(self) -> np.ndarray:
        """Take up to ``max_batch`` pending rows, weighted round-robin.

        Tenants are visited cyclically (rotation advanced each batch) and
        each visit takes at most ``weight(tenant)`` submissions, so while
        any two tenants both have work their batch shares follow their
        weights regardless of queue depths -- the no-starvation bound.  The
        batch is the first ``max_batch`` rows by (pass, visit, FIFO place).
        """
        pending = self._pending
        fifo = self._seq[pending].argsort()
        codes = self._tenant[pending[fifo]]
        by_tenant = codes.argsort(kind="stable")
        grouped = codes[by_tenant]
        position = np.empty(codes.size, dtype=np.intp)
        position[by_tenant] = np.arange(codes.size) - grouped.searchsorted(grouped)
        # Tenants with work by first admission, rotated: each one's visit.
        ranks = self._tenant_rank[codes]
        working = np.zeros(self._n_ranked, dtype=np.intp)
        working[ranks] = 1
        working = np.add.accumulate(working)
        visit = (working[ranks] - 1 - self._rr_offset) % working[-1]
        self._rr_offset += 1
        key = position // self._weights[codes] * working[-1] + visit
        picked = fifo[key.argsort(kind="stable")[: self.policy.max_batch]]
        taken = np.zeros(pending.size, dtype=bool)
        taken[picked] = True
        self._set_pending(pending[~taken])
        return pending[picked]

    # ------------------------------------------------------------- serving

    def _execute(self, rows: np.ndarray, queries: np.ndarray) -> BatchExecution:
        """Run one formed batch: one result per row, in row order."""
        return self.executor.execute(
            self.db,
            queries,
            k=self.k,
            nprobe=self.nprobe,
            fetch_documents=self.fetch_documents,
            metadata_filter=self.metadata_filter,
        )

    def _serve_batch(self, rows: np.ndarray, reason: str) -> QueuedBatch:
        start_s = self.clock.now_s
        held = self._queries[rows]
        queries = np.fromiter(held, dtype=(np.float32, self.db.dim), count=rows.size)
        execution = self._execute(rows, queries)
        service_seconds = execution.batch_seconds
        self.clock.advance(service_seconds)
        finish_s = self.clock.now_s

        arrivals, deadlines = self._at[rows], self._deadline[rows]
        forming = start_s - float(np.minimum.reduce(arrivals))
        execution.stats.queue_seconds = forming
        if forming > 0:
            execution.report.add_phase("queue", forming)
            execution.report.add_component("queue_wait", forming)
            execution.report.total_s += forming

        ids = rows.tolist()
        tenants = map(self._tenant_names.__getitem__, self._tenant[rows].tolist())
        members = list(map(tuple.__new__, repeat(Submission), zip(
            ids, tenants, held, arrivals.tolist(), deadlines.tolist()
        )))
        batch = QueuedBatch(
            index=len(self.batches),
            submissions=members,
            execution=execution,
            close_reason=reason,
            start_s=start_s,
            finish_s=finish_s,
            service_seconds=service_seconds,
        )
        self.served.update(zip(ids, map(tuple.__new__, repeat(ServedQuery), zip(
            members, execution.results, repeat(batch.index), repeat(start_s),
            repeat(finish_s),
        ))))
        # ServedQuery.deadline_missed, over the batch.
        execution.deadline_misses = int(np.add.reduce(finish_s > deadlines + _EPS))
        self.batches.append(batch)
        return batch

    def _requeue(self, rows: np.ndarray) -> None:
        """Put a failed batch's rows back: pending in arrival order, and --
        admitted before the rest of their tenants' backlogs -- at the head
        of their tenant FIFOs, in their original order."""
        self._set_pending(self._arrival_sorted(np.concatenate((self._pending, rows))))

    def step(self) -> Optional[QueuedBatch]:
        """Advance the event loop until one batch is served (or nothing is
        left to do); returns the served batch, or None when idle.

        When the batch's execution raises, the error propagates with the
        queue as it was before the batch formed: nothing is dropped.
        """
        clock, former = self.clock, self.former
        while True:
            head = self._head
            if self._n_ordered < self._next_sub_id or (
                head < self._n_ordered and self._order_at[head] <= clock.now_s + _EPS
            ):
                self._admit_due()
            pending = self._pending
            waiting = self._head < self._next_sub_id
            if not (waiting or pending.size):
                return None
            oldest = float(self._at[pending[0]]) if pending.size else math.inf
            reason = former.should_close(
                pending, oldest, self._nearest, clock.now_s, not waiting
            )
            if reason is not None:
                rr_offset = self._rr_offset
                rows = self._form_batch()
                try:
                    batch = self._serve_batch(rows, reason)
                except Exception:
                    self._rr_offset = rr_offset
                    self._requeue(rows)
                    raise
                former.release(rows)
                return batch
            next_s = former.next_trigger_s(oldest, self._nearest)  # inf if none pending
            if waiting and self._order_at[self._head] < next_s:
                next_s = float(self._order_at[self._head])
            if not next_s < math.inf:
                # Pending work, no trigger can ever fire (close_on_flush
                # off, infinite timeout/deadlines): refuse to spin.
                raise RuntimeError(
                    "submission queue is stuck: no batch-forming trigger "
                    "can fire for the pending set"
                )
            clock.advance_to(next_s)

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
        n = self._next_sub_id
        started = float(np.minimum.reduce(self._at[:n])) if n else 0.0
        return QueueServeReport(
            served=list(map(self.served.__getitem__, sorted(self.served))),
            batches=list(self.batches),
            started_s=started,
            # The clock only advances: the last batch finished last.
            finished_s=self.batches[-1].finish_s if self.batches else started,
        )
