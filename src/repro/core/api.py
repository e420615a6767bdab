"""The REIS device API (Table 1, Sec. 4.4.1).

:class:`ReisDevice` is the top of the stack: one simulated SSD running the
REIS firmware; :class:`ShardedReisDevice` is N of them behind the same
calls.  The host-facing surface mirrors the paper's API:

=================  =========================================================
``db_deploy``      Write an N-entry database to storage (flat layout).
``ivf_deploy``     Write an IVF database (cluster info in ``CI``/nlist).
``search``         Top-k brute-force search for a batch of queries.
``ivf_search``     Top-k IVF search; the ``R`` argument (target recall) is
                   resolved to an nprobe operating point.
=================  =========================================================

The deploy half differs per device (one drive's deployer vs placing an IVF
corpus's clusters on owner shards -- a cluster has only ``ivf_deploy``, and
its ``search`` probes every cluster) and lives on each class; the serving
half -- ``search``, ``ivf_search``, the submission and ingest queues -- is
written once (:class:`_HostSurface`) over the device's *executor*: a
:class:`~repro.core.batch.BatchExecutor` for one drive, the
:class:`~repro.core.shard.ShardRouter` for a cluster, both answering
``plan`` / ``forming_views`` / ``execute`` with the database first.  On a
single drive each command is also wired to a vendor-specific NVMe opcode
(80h-FFh), so examples can exercise the exact host<->device command path
the paper extends the NVM command set with.

:class:`ReisRetriever` adapts a deployed database to the
:class:`repro.rag.pipeline.Retriever` protocol: retrieved ids come from the
functional engine; search time can optionally be reported at paper dataset
scale through the analytic model, which is how the end-to-end comparisons
(Table 4) are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Union

import numpy as np

from repro.ann.ivf import IvfModel, build_ivf_model
from repro.core.analytic import AnalyticWorkload, ReisAnalyticModel
from repro.core.batch import BatchExecution, BatchExecutor, BatchStats
from repro.core.cache import DEFAULT_CACHE_KINDS, EvictionPolicy, PageCache
from repro.core.config import OptFlags, ReisConfig, REIS_SSD1
from repro.core.engine import InStorageAnnsEngine, ReisQueryResult
from repro.core.ingest import IngestManager, IngestQueue, ShardedIngestCoordinator
from repro.core.layout import (
    DatabaseDeployer,
    DeployedDatabase,
    DeploymentCodecs,
    fit_deployment_codecs,
)
from repro.core.plan import validate_metadata_tags, validate_queries, validate_vectors
from repro.core.queue import QueuePolicy, SubmissionQueue
from repro.core.shard import (
    MergeCostModel,
    ShardAssignment,
    ShardedDatabase,
    ShardRouter,
    ShardUnavailableError,
    check_cluster_shape,
    plan_placement,
    shard_ivf_model,
)
from repro.rag.documents import Corpus, DocumentChunk
from repro.rag.pipeline import RetrievalResult
from repro.sim.latency import LatencyReport, SimClock
from repro.ssd.nvme import NvmeCommand, NvmeCompletion, NvmeOpcode


def nprobe_for_recall(n_clusters: int, recall_target: float) -> int:
    """Heuristic nprobe for a recall target.

    Under the clustered-data assumption, coverage of the query's true
    neighborhood grows roughly with the fraction of probed clusters; a
    sqrt(nlist) baseline hits mid-range recall and the target scales it.
    One calibration shared by the single-device and sharded surfaces, so
    their operating points can never drift apart.
    """
    if not 0.0 < recall_target <= 1.0:
        raise ValueError("recall_target must be in (0, 1]")
    base = max(1.0, n_clusters**0.5)
    # 0.90 -> ~1x base, 0.98 -> ~3.5x base: matched to the functional
    # recall sweeps on the clustered synthetic datasets.
    scale = 1.0 + 30.0 * max(0.0, recall_target - 0.90) ** 1.3
    return min(n_clusters, max(1, int(round(base * scale))))


@dataclass
class BatchSearchResult:
    """Results of a ``Search``/``IVF_Search`` batch.

    Two time scales coexist:

    * ``total_seconds`` -- the sum of the per-query solo latencies, i.e.
      the time a device serving one query at a time would need.  This is
      what the analytic model cross-validates against.
    * ``wall_seconds`` -- the batch wall clock under the executor's
      occupancy model (shared senses, die/channel overlap, shard
      barriers).  ``qps`` is defined on this one.

    Every result comes from an executed batch (:meth:`from_execution`, or
    a queue's :meth:`~repro.core.queue.QueueServeReport.as_batch_result`),
    so the batch-level report and stats are always present.
    """

    results: List[ReisQueryResult]
    batch_report: LatencyReport
    batch_stats: BatchStats
    # Queries completed past their submission deadline (queue-served
    # batches only; they are still served and returned, never dropped).
    deadline_misses: int = 0

    @classmethod
    def from_execution(cls, execution: BatchExecution) -> "BatchSearchResult":
        return cls(
            results=execution.results,
            batch_report=execution.report,
            batch_stats=execution.stats,
            deadline_misses=execution.deadline_misses,
        )

    @property
    def ids(self) -> List[np.ndarray]:
        return [r.ids for r in self.results]

    @property
    def total_seconds(self) -> float:
        """Sum of solo latencies (the sequential serving time)."""
        return sum(r.latency.total_s for r in self.results)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time to drain the batch on the device."""
        return self.batch_report.total_s

    @property
    def queue_seconds(self) -> float:
        """Host-side batch-forming wait included in ``wall_seconds``
        (non-zero only for queue-served batches)."""
        return self.batch_stats.queue_seconds

    @property
    def qps(self) -> float:
        total = self.wall_seconds
        return len(self.results) / total if total > 0 else float("inf")

    @property
    def sequential_qps(self) -> float:
        """Throughput of the one-query-at-a-time schedule (for comparison)."""
        total = self.total_seconds
        return len(self.results) / total if total > 0 else float("inf")

    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock seconds per pipeline phase for the whole batch.

        Keys are the phase names (``ibc``, ``coarse``, ``fine``,
        ``rerank``, ``documents``, ``host``; ``queue`` for queue-served
        batches with a non-zero forming window; and ``merge`` -- the
        host-side distance merge -- for batches served by a
        :class:`ShardedReisDevice`); values sum to ``wall_seconds``, so
        the submission-to-completion wall clock decomposes fully.

        Batches served under an opt-in host profile
        (:class:`~repro.host.profile.HostProfile`) additionally carry
        ``host_<phase>`` keys: the *host process's* wall clock per phase.
        Those are diagnostics for the Python hot path, not modeled device
        time, and are excluded from the sums-to-``wall_seconds`` contract;
        profiling-disabled runs (the default) add no keys at all.
        """
        totals = dict(self.batch_report.phases)
        if self.batch_stats.host_profile:
            totals.update(self.batch_stats.host_profile.report())
        return totals

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> ReisQueryResult:
        return self.results[index]


class _HostSurface:
    """The serving half of the host API, written once for both devices.

    A device is its deployed databases plus the executor serving them (see
    the module docstring); everything here is the same code over either
    executor.  A subclass supplies ``executor``, deployment, and
    ``_mutation_target`` (who commits a database's streamed mutations).
    """

    executor: Union[BatchExecutor, ShardRouter]

    def __init__(self) -> None:
        self._databases: Dict[int, Union[DeployedDatabase, ShardedDatabase]] = {}
        self._next_db_id = 0

    # ----------------------------------------------------------- inventory

    @property
    def databases(self) -> Dict[int, Union[DeployedDatabase, ShardedDatabase]]:
        return dict(self._databases)

    def database(self, db_id: int) -> Union[DeployedDatabase, ShardedDatabase]:
        try:
            return self._databases[db_id]
        except KeyError:
            raise KeyError(f"database id {db_id} is not deployed") from None

    def _allocate_db_id(self, db_id: Optional[int]) -> int:
        if db_id is None:
            db_id = self._next_db_id
        if db_id in self._databases:
            raise ValueError(f"database id {db_id} already deployed")
        self._next_db_id = max(self._next_db_id, db_id + 1)
        return db_id

    # -------------------------------------------------------------- search

    def search(
        self,
        db_id: int,
        queries: np.ndarray,
        k: int = 10,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> BatchSearchResult:
        """``Search(Q, Qid, Did, k)``: brute-force top-k for a query batch
        (on a cluster: every cluster probed across all shards,
        distance-merged)."""
        db = self.database(db_id)
        queries = validate_queries(db, queries, k)
        execution = self.executor.execute(
            db, queries, k,
            nprobe=None if not db.is_ivf else db.n_clusters,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
        )
        return BatchSearchResult.from_execution(execution)

    def ivf_search(
        self,
        db_id: int,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        recall_target: Optional[float] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile=None,
    ) -> BatchSearchResult:
        """``IVF_Search(Q, Qid, Did, k, R)``: IVF top-k for a query batch
        (on a cluster: across all shards, distance-merged).

        The paper's ``R`` (target accuracy) argument maps to
        ``recall_target``: the device resolves it to the cheapest nprobe
        whose expected cluster coverage reaches the target (a device-side
        heuristic; :mod:`repro.experiments.operating_points` measures exact
        recall-calibrated operating points for the evaluation figures).

        ``host_profile`` opts into host wall-clock accounting per phase
        (:class:`~repro.host.profile.HostProfile`); its ``host_<phase>``
        diagnostics then ride along in
        :meth:`BatchSearchResult.phase_seconds`.
        """
        db = self.database(db_id)
        if not db.is_ivf:
            raise ValueError(f"database {db_id} was deployed without IVF")
        queries = validate_queries(db, queries, k, nprobe)
        if nprobe is None and recall_target is not None:
            nprobe = self.resolve_nprobe(db_id, recall_target)
        execution = self.executor.execute(
            db, queries, k, nprobe=nprobe,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
            host_profile=host_profile,
        )
        return BatchSearchResult.from_execution(execution)

    def submission_queue(
        self,
        db_id: int,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        policy: Optional[QueuePolicy] = None,
        clock: Optional[SimClock] = None,
    ) -> SubmissionQueue:
        """An async host submission queue serving one deployed database.

        The queue accepts per-tenant submissions with deadlines on a
        simulated clock and forms batches by the deadline/occupancy policy
        (:class:`~repro.core.queue.QueuePolicy`); see
        :class:`~repro.core.queue.SubmissionQueue`.  On a cluster the
        occupancy estimate spans every live shard's layout and each formed
        batch executes across the shards, so fairness and deadlines work
        cluster-wide.  ``search`` / ``ivf_search`` remain the synchronous
        whole-batch API.
        """
        db = self.database(db_id)
        if nprobe is not None and not db.is_ivf:
            raise ValueError(f"database {db_id} was deployed without IVF")
        return SubmissionQueue(
            self.executor, db, k=k, nprobe=nprobe,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
            policy=policy, clock=clock,
        )

    def ingest_queue(
        self,
        db_id: int,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        policy: Optional[QueuePolicy] = None,
        clock: Optional[SimClock] = None,
    ) -> IngestQueue:
        """A submission queue that also accepts inserts/deletes/updates.

        Mutations batch with queries under the same forming policy and
        commit on the same simulated clock (on a cluster: each routed to
        its owning shards); see :class:`~repro.core.ingest.IngestQueue`.
        """
        db = self.database(db_id)
        if not db.is_ivf:
            raise ValueError("streaming ingest requires an IVF deployment")
        return IngestQueue(
            self.executor, db, self._mutation_target(db_id),
            k=k, nprobe=nprobe,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
            policy=policy, clock=clock,
        )

    def resolve_nprobe(self, db_id: int, recall_target: float) -> int:
        """Heuristic nprobe for a recall target (see :func:`nprobe_for_recall`),
        on the database's whole cluster count."""
        return nprobe_for_recall(self.database(db_id).n_clusters, recall_target)


class ReisDevice(_HostSurface):
    """A simulated SSD running REIS: deploy databases, search in storage."""

    def __init__(
        self,
        config: ReisConfig = REIS_SSD1,
        flags: Optional[OptFlags] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.flags = flags if flags is not None else OptFlags()
        self.ssd = config.make_ssd()
        self.deployer = DatabaseDeployer(self.ssd, config.engine)
        self.engine = InStorageAnnsEngine(self.ssd, config, self.flags)
        self.executor = BatchExecutor(self.engine)
        self._ingest_managers: Dict[int, IngestManager] = {}
        self._register_nvme_handlers()

    # --------------------------------------------------------- deployment

    def db_deploy(
        self,
        name: str,
        vectors: np.ndarray,
        corpus: Optional[Corpus] = None,
        db_id: Optional[int] = None,
        metadata_tags: Optional[np.ndarray] = None,
        seed: object = 0,
        codecs: Optional[DeploymentCodecs] = None,
        growth_entries: int = 0,
    ) -> int:
        """``DB_Deploy(DB, Did, N)``: deploy a flat (brute-force) database.

        ``codecs`` injects pre-fit quantizers + DF threshold (the
        multi-device deployment hook; see
        :class:`~repro.core.layout.DeploymentCodecs`).  ``growth_entries``
        reserves erased slot headroom for streaming ingest.
        """
        return self._deploy(
            db_id, name, validate_vectors(vectors), corpus=corpus,
            metadata_tags=metadata_tags, seed=seed, codecs=codecs,
            growth_entries=growth_entries,
        )

    def ivf_deploy(
        self,
        name: str,
        vectors: np.ndarray,
        nlist: Optional[int] = None,
        ivf_model: Optional[IvfModel] = None,
        corpus: Optional[Corpus] = None,
        db_id: Optional[int] = None,
        metadata_tags: Optional[np.ndarray] = None,
        seed: object = 0,
        codecs: Optional[DeploymentCodecs] = None,
        growth_entries: int = 0,
    ) -> int:
        """``IVF_Deploy(DB, Did, N, CI)``: deploy an IVF database.

        ``CI`` (cluster information) is either a pre-trained
        :class:`~repro.ann.ivf.IvfModel` or an ``nlist`` for which the
        device trains k-means during indexing (the offline stage).
        ``codecs`` injects pre-fit quantizers + DF threshold (the
        multi-device deployment hook).  ``growth_entries`` reserves erased
        slot headroom so :meth:`ingest_queue` can stream inserts in later.
        """
        vectors = validate_vectors(vectors)
        if ivf_model is None:
            if nlist is None:
                raise ValueError("provide either nlist or a trained ivf_model")
            ivf_model = build_ivf_model(vectors, nlist, seed=seed)
        return self._deploy(
            db_id, name, vectors, corpus=corpus, ivf_model=ivf_model,
            metadata_tags=metadata_tags, seed=seed, codecs=codecs,
            growth_entries=growth_entries,
        )

    def _deploy(
        self, db_id: Optional[int], name: str, vectors: np.ndarray, **sidecars
    ) -> int:
        """:meth:`DatabaseDeployer.deploy` of a corpus the caller has checked
        (a shard's piece may be empty, which :func:`validate_vectors`
        refuses), registered under its id."""
        db_id = self._allocate_db_id(db_id)
        self._databases[db_id] = self.deployer.deploy(
            db_id, name, vectors, **sidecars
        )
        self.ssd.enter_rag_mode()
        return db_id

    def drop(self, db_id: int, reclaim: bool = False) -> None:
        """Remove a database from the R-DB.  By default flash space is not
        reclaimed (the paper treats deployment regions as long-lived
        reservations); ``reclaim=True`` rolls the bump allocator back and
        erases the freed blocks when the dropped database is the device's
        most recent allocation -- the cluster-migration re-deploy path."""
        db = self.database(db_id)
        del self._databases[db_id]
        self._ingest_managers.pop(db_id, None)
        self.deployer.r_db.drop(db_id)
        self._invalidate_cached_regions(db)
        if reclaim:
            self._reclaim_regions(db)

    # ------------------------------------------------------ DRAM page cache

    @property
    def page_cache(self) -> Optional["PageCache"]:
        """The device's DRAM page cache (``None`` when disabled)."""
        return self.ssd.page_cache

    def enable_page_cache(
        self,
        budget_bytes: int,
        policy: Optional["EvictionPolicy"] = None,
        kinds=DEFAULT_CACHE_KINDS,
    ) -> "PageCache":
        """Reserve ``budget_bytes`` of internal DRAM as a hot-page mirror.

        The budget is a named :class:`~repro.ssd.dram.InternalDram` region
        (0.1% provisioning rule; over-budget raises
        :class:`~repro.core.layout.CapacityError`); ``policy`` defaults to
        LRU.  Re-enabling replaces the previous cache; a failed one changes nothing.
        """
        cache = PageCache(self.ssd.dram, budget_bytes, policy=policy, kinds=kinds)
        self.ssd.page_cache = cache
        return cache

    def disable_page_cache(self) -> None:
        """Release the cache's DRAM reservation and serve from NAND again."""
        cache = self.page_cache
        if cache is not None:
            cache.close()
            self.ssd.page_cache = None

    def _invalidate_cached_regions(self, db: DeployedDatabase) -> None:
        """Authority-change barrier: a dropped database's pages may be
        reused by the next deployment (the ``migrate_cluster`` re-deploy
        path), so every mirrored page of its regions must go."""
        cache = self.page_cache
        if cache is None:
            return
        for region in db.regions:
            cache.invalidate_region(region)

    def _reclaim_regions(self, db: DeployedDatabase) -> None:
        start = min(r.region.start_page_in_plane for r in db.regions)
        end = max(r.region.end_page_in_plane for r in db.regions)
        if end != self.deployer._next_page_in_plane:
            return  # not the top of the heap; leave it reserved
        if any(
            r.region.end_page_in_plane > start
            for other in self._databases.values()
            for r in other.regions
        ):
            return
        self.deployer._rollback(start)

    # -------------------------------------------------------------- ingest

    def ingest_manager(self, db_id: int) -> IngestManager:
        """The (cached) streaming-ingest manager for one IVF database.

        Created on first use; it installs the mutable index on the
        deployed database, so every serving surface (direct search, batch
        executor, submission queue, scheduler) observes mutations.
        """
        if db_id not in self._ingest_managers:
            self._ingest_managers[db_id] = IngestManager(
                self.ssd, self.database(db_id)
            )
        return self._ingest_managers[db_id]

    _mutation_target = ingest_manager

    # ----------------------------------------------------- NVMe plumbing

    def _register_nvme_handlers(self) -> None:
        nvme = self.ssd.nvme
        nvme.register(NvmeOpcode.REIS_DB_DEPLOY, self._handle_db_deploy)
        nvme.register(NvmeOpcode.REIS_IVF_DEPLOY, self._handle_ivf_deploy)
        nvme.register(NvmeOpcode.REIS_SEARCH, self._handle_search)
        nvme.register(NvmeOpcode.REIS_IVF_SEARCH, self._handle_ivf_search)
        nvme.register(NvmeOpcode.REIS_DB_DROP, self._handle_drop)
        nvme.register(NvmeOpcode.REIS_DB_LIST, self._handle_list)

    def submit(self, command: NvmeCommand) -> NvmeCompletion:
        """Submit a raw NVMe command (the host-driver path)."""
        return self.ssd.nvme.submit(command)

    def _handle_db_deploy(self, command: NvmeCommand) -> int:
        p = command.params
        return self.db_deploy(
            p["name"], p["vectors"], corpus=p.get("corpus"),
            db_id=p.get("db_id"), metadata_tags=p.get("metadata_tags"),
        )

    def _handle_ivf_deploy(self, command: NvmeCommand) -> int:
        p = command.params
        return self.ivf_deploy(
            p["name"], p["vectors"], nlist=p.get("nlist"),
            ivf_model=p.get("ivf_model"), corpus=p.get("corpus"),
            db_id=p.get("db_id"), metadata_tags=p.get("metadata_tags"),
        )

    def _handle_search(self, command: NvmeCommand) -> BatchSearchResult:
        p = command.params
        return self.search(
            p["db_id"], p["queries"], k=p.get("k", 10),
            metadata_filter=p.get("metadata_filter"),
        )

    def _handle_ivf_search(self, command: NvmeCommand) -> BatchSearchResult:
        p = command.params
        return self.ivf_search(
            p["db_id"], p["queries"], k=p.get("k", 10),
            nprobe=p.get("nprobe"), recall_target=p.get("recall_target"),
            metadata_filter=p.get("metadata_filter"),
        )

    def _handle_drop(self, command: NvmeCommand) -> None:
        self.drop(command.params["db_id"])

    def _handle_list(self, command: NvmeCommand) -> List[int]:
        return sorted(self._databases)

    # ----------------------------------------------------------- reporting

    def energy_report(self, elapsed_s: float) -> Dict[str, float]:
        """Total energy / average power over an interval of activity."""
        busy = sum(core.busy_seconds for core in self.ssd.cores.cores)
        energy = self.ssd.power.total_energy(self.ssd.counters, elapsed_s, busy)
        return {
            "energy_j": energy,
            "average_power_w": self.ssd.average_power(elapsed_s),
            "core_busy_s": busy,
        }


@dataclass(frozen=True)
class MigrationResult:
    """Outcome and modeled cost of one live cluster migration."""

    db_id: int
    cluster: int
    src: int
    dst: int
    vectors_moved: int
    pages_copied: int
    seconds: float


class ShardedReisDevice(_HostSurface):
    """N REIS drives serving one logical database behind one device API.

    The serving surface *is* :class:`ReisDevice`'s (``search`` / ``ivf_search``
    / ``submission_queue`` / ``ingest_queue``, inherited from the same
    base), so everything built on the single-device API -- the RAG pipeline
    via :class:`ReisRetriever`, the scheduler, the examples -- runs
    unchanged on a cluster; a bad cluster shape (more replicas than shards)
    fails here, at construction.  ``placement`` names the one policy,
    ``"cluster"``: every database is an IVF deployment whose whole clusters
    go to ``replication_factor`` owner shards each
    (:func:`~repro.core.shard.plan_placement`).  Deployment fits one codec
    set on the full corpus
    (:func:`~repro.core.layout.fit_deployment_codecs`), places the
    clusters, and deploys each piece to its shard; serving fans queries out
    through the :class:`~repro.core.shard.ShardRouter` and distance-merges
    per-shard shortlists into a global top-k that is bit-identical to a
    single device deploying everything.
    """

    def __init__(
        self,
        n_shards: int,
        config: ReisConfig = REIS_SSD1,
        flags: Optional[OptFlags] = None,
        placement: str = "cluster",
        merge_model: Optional[MergeCostModel] = None,
        replication_factor: int = 1,
    ) -> None:
        super().__init__()
        if placement != "cluster":
            raise ValueError(
                f"unknown placement {placement!r}; the one policy is 'cluster'"
            )
        check_cluster_shape(n_shards, replication_factor)
        self.replication_factor = replication_factor
        self.config = config
        self.flags = flags if flags is not None else OptFlags()
        self.shards = [
            ReisDevice(
                replace(config, name=f"{config.name}/shard{i}"),
                flags=self.flags,
            )
            for i in range(n_shards)
        ]
        self.router = ShardRouter(
            [shard.engine for shard in self.shards], merge_model=merge_model
        )
        self.executor = self.router
        self._ingest_coordinators: Dict[int, ShardedIngestCoordinator] = {}

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------ DRAM page cache

    def enable_page_cache(
        self,
        budget_bytes: int,
        policy_factory=None,
        kinds=DEFAULT_CACHE_KINDS,
    ) -> List["PageCache"]:
        """Give every shard its own ``budget_bytes`` DRAM mirror.

        Caches are strictly per shard (each drive's internal DRAM is
        private); ``policy_factory`` is called once per shard so policies
        never share mutable state.  Every shard switches, or none does.
        """
        olds, caches = [shard.page_cache for shard in self.shards], []
        try:
            for shard in self.shards:
                policy = policy_factory() if policy_factory is not None else None
                caches.append(shard.enable_page_cache(budget_bytes, policy, kinds))
        except Exception:
            # Re-attach every previous cache with its reservation.
            for shard, old in zip(self.shards, olds):
                shard.ssd.page_cache = old
                shard.ssd.dram.free("page_cache")
                if old is not None:
                    shard.ssd.dram.allocate(old.name, old.budget_bytes)
            raise
        return caches

    def disable_page_cache(self) -> None:
        for shard in self.shards:
            shard.disable_page_cache()

    # --------------------------------------------------------- deployment

    def ivf_deploy(
        self,
        name: str,
        vectors: np.ndarray,
        nlist: Optional[int] = None,
        ivf_model: Optional[IvfModel] = None,
        corpus: Optional[Corpus] = None,
        db_id: Optional[int] = None,
        metadata_tags: Optional[np.ndarray] = None,
        seed: object = 0,
        growth_entries: int = 0,
    ) -> int:
        """Deploy an IVF database across the shards.

        The clustering is trained (or taken) *globally*; each shard
        deploys the centroids and full membership of the clusters it owns,
        so the union of shards is exactly the single-device deployment,
        re-partitioned.  ``growth_entries`` reserves that much erased
        ingest headroom on *every* shard (any shard can end up owning a
        skewed share of the streamed inserts).
        """
        vectors = validate_vectors(vectors)
        if ivf_model is None:
            if nlist is None:
                raise ValueError("provide either nlist or a trained ivf_model")
            ivf_model = build_ivf_model(vectors, nlist, seed=seed)
        n = vectors.shape[0]
        if corpus is not None and len(corpus) != n:
            raise ValueError("corpus size must match the number of embeddings")
        if metadata_tags is not None:
            metadata_tags = validate_metadata_tags(metadata_tags)
            if metadata_tags.shape != (n,):
                raise ValueError("need exactly one metadata tag per embedding")
        db_id = self._allocate_db_id(db_id)
        # One code space for the whole corpus: quantizers and the DF
        # threshold are fit globally and injected into every shard.
        codecs = fit_deployment_codecs(vectors, self.config.engine, seed)
        assignment = plan_placement(
            n, self.n_shards, ivf_model, self.replication_factor
        )
        sdb = ShardedDatabase(
            db_id=db_id,
            name=name,
            n_entries=n,
            dim=int(vectors.shape[1]),
            assignment=assignment,
            shard_dbs=[None] * self.n_shards,
            shard_db_ids=[None] * self.n_shards,
            ivf_model=ivf_model,
            corpus=corpus,
            metadata_tags=metadata_tags,
            vectors=vectors,
            codecs=codecs,
            growth_entries=growth_entries,
        )
        for shard in range(self.n_shards):
            self._deploy_shard(sdb, assignment, shard)
        self._databases[db_id] = sdb
        return db_id

    def _deploy_shard(
        self, sdb: ShardedDatabase, assignment: ShardAssignment, shard: int
    ) -> None:
        """(Re)materialize ``shard``'s piece of ``sdb`` under ``assignment``
        from the host mirror: the one builder for deploys and migrations.

        A piece the shard already held is dropped first, reclaiming its
        flash (the old and new layouts together can exceed the planes); a
        shard owning no cluster holds no piece.
        """
        device = self.shards[shard]
        if sdb.shard_db_ids[shard] is not None:
            device.drop(sdb.shard_db_ids[shard], reclaim=True)
            sdb.shard_dbs[shard] = sdb.shard_db_ids[shard] = None
        if assignment.shard_clusters[shard].size == 0:
            return
        mine = assignment.shard_vectors[shard]
        local_corpus = None
        if sdb.corpus is not None:
            # Shard-local chunk ids (the shard's slot->original mapping
            # is local); the router restores global identity on fetch.
            local_corpus = Corpus([
                DocumentChunk(chunk_id=local, text=chunk.text, source=chunk.source)
                for local, chunk in enumerate(sdb.corpus[int(g)] for g in mine)
            ])
        local_id = device._deploy(
            None, f"{sdb.name}@{shard}", sdb.vectors[mine], corpus=local_corpus,
            ivf_model=shard_ivf_model(sdb.ivf_model, assignment, shard),
            metadata_tags=(
                sdb.metadata_tags[mine] if sdb.metadata_tags is not None else None
            ),
            codecs=sdb.codecs, growth_entries=sdb.growth_entries,
        )
        sdb.shard_dbs[shard] = device.database(local_id)
        sdb.shard_db_ids[shard] = local_id

    def drop(self, db_id: int) -> None:
        """Remove the logical database from every shard."""
        sdb = self.database(db_id)
        for shard, local_id in enumerate(sdb.shard_db_ids):
            if local_id is not None:
                self.shards[shard].drop(local_id)
        del self._databases[db_id]
        self._ingest_coordinators.pop(db_id, None)

    # -------------------------------------------------------------- ingest

    def ingest_coordinator(self, db_id: int) -> ShardedIngestCoordinator:
        """The (cached) mutation router for one sharded IVF database.

        Creates one :class:`~repro.core.ingest.IngestManager` per active
        shard on first use, installing the mutable indexes everywhere.
        """
        if db_id not in self._ingest_coordinators:
            self._ingest_coordinators[db_id] = ShardedIngestCoordinator(
                self, db_id
            )
        return self._ingest_coordinators[db_id]

    _mutation_target = ingest_coordinator

    # --------------------------------------------------------------- faults

    def kill_shard(self, shard: int) -> None:
        """Take a shard down now; it serves nothing until revived."""
        self.router.fail_shard(shard)

    def revive_shard(self, shard: int) -> None:
        """Bring a killed shard back into service."""
        self.router.revive_shard(shard)

    def schedule_shard_failure(self, shard: int, barrier: str) -> None:
        """Arm a one-shot mid-batch shard death at the given barrier
        (``coarse``/``fine``/``rerank``/``document``) for the next batch;
        the shard stays dead afterwards until revived."""
        self.router.schedule_failure(shard, barrier)

    # ---------------------------------------------------------- rebalancing

    def migrate_cluster(
        self,
        db_id: int,
        cluster: int,
        dst: int,
        src: Optional[int] = None,
    ) -> "MigrationResult":
        """Move one cluster's ownership from ``src`` (default: its first
        live owner) to ``dst``, live.

        Every argument and state check runs before anything changes.  The
        table edit is :meth:`~repro.core.shard.ShardAssignment.move`; the
        destination then re-materializes its piece from the host mirror
        (:meth:`_deploy_shard` -- the stored codecs are deterministic, so
        re-encoding writes bit-for-bit the pages a physical copy would),
        and the cost model bills the copy: the cluster's pages read on the
        source, programmed on the destination.  The source keeps its
        layout -- its local cluster ids must keep matching its centroid
        region -- but no longer owns the cluster, so its copies are neither
        served nor written; batches before and after the flip are
        bit-identical.
        """
        sdb = self.database(db_id)
        assignment = sdb.assignment
        if not 0 <= cluster < sdb.n_clusters:
            raise ValueError(f"cluster {cluster} is out of range")
        self.router._check_shard(dst)
        owners = assignment.owners_of(cluster)
        if src is None:
            live = [s for s in owners if s not in self.router.failed_shards]
            if not live:
                raise ShardUnavailableError(cluster)
            src = live[0]
        if src not in owners:
            raise ValueError(f"shard {src} does not own cluster {cluster}")
        if dst in owners:
            raise ValueError(f"shard {dst} already owns cluster {cluster}")
        if dst in self.router.failed_shards:
            raise ValueError(f"cannot migrate onto dead shard {dst}")

        moved = assignment.move(cluster, src, dst)
        self._deploy_shard(sdb, moved, dst)
        sdb.assignment = moved
        if db_id in self._ingest_coordinators:
            self._ingest_coordinators[db_id].attach(dst)

        # Embedding/centroid pages on SLC, INT8 and documents on TLC, plus
        # one centroid page rewrite.
        n_members = int(np.count_nonzero(
            (moved.cluster_of_vector == cluster) & moved.live
        ))
        db = sdb.shard_dbs[dst]
        pages = {"slc": 1, "tlc": 0}
        for region, mode in (
            (db.embedding_region, "slc"),
            (db.int8_region, "tlc"),
            (db.document_region, "tlc"),
        ):
            if region is not None:
                pages[mode] += -(-n_members // max(1, region.slots_per_page))
        timing = self.shards[dst].ssd.spec.timing
        seconds = sum(
            count * (timing.read_time(mode) + timing.program_time(mode))
            for mode, count in pages.items()
        )
        return MigrationResult(
            db_id=db_id, cluster=cluster, src=src, dst=dst,
            vectors_moved=n_members, pages_copied=sum(pages.values()),
            seconds=seconds,
        )

    # ----------------------------------------------------------- reporting

    def energy_report(self, elapsed_s: float) -> Dict[str, object]:
        """Cluster energy: every shard runs for the elapsed interval."""
        per_shard = [shard.energy_report(elapsed_s) for shard in self.shards]
        return {
            "energy_j": sum(r["energy_j"] for r in per_shard),
            "average_power_w": sum(r["average_power_w"] for r in per_shard),
            "core_busy_s": sum(r["core_busy_s"] for r in per_shard),
            "per_shard": per_shard,
        }


class ReisRetriever:
    """Adapts a deployed REIS database to the RAG-pipeline protocol.

    * ``dataset_load_seconds`` is zero -- the database lives in storage and
      queries execute there (the entire point of the paper);
    * retrieved ids come from the functional engine;
    * ``search_seconds`` comes from the functional latency reports, or --
      when ``paper_workload`` is provided -- from the analytic model at
      paper dataset scale, which is how Table 4's REIS column is produced.

    ``device`` is either a single :class:`ReisDevice` or a
    :class:`ShardedReisDevice` -- both expose the same search/queue
    surface, so the RAG pipeline runs unchanged on a cluster.
    """

    def __init__(
        self,
        device: Union[ReisDevice, "ShardedReisDevice"],
        db_id: int,
        nprobe: Optional[int] = None,
        paper_workload: Optional[AnalyticWorkload] = None,
        paper_config: Optional[ReisConfig] = None,
        queue_policy: Optional[QueuePolicy] = None,
    ) -> None:
        self.device = device
        self.db_id = db_id
        self.nprobe = nprobe
        self.queue_policy = queue_policy
        self.paper_workload = paper_workload
        # Paper-scale timing runs on the evaluated SSD configuration, which
        # may differ from the (typically down-scaled) functional device.
        self._analytic = (
            ReisAnalyticModel(paper_config or device.config, device.flags)
            if paper_workload is not None
            else None
        )

    def dataset_load_seconds(self) -> float:
        """REIS never loads the dataset to the host (Table 4: 'N/A')."""
        return 0.0

    def search_batch(self, queries: np.ndarray, k: int) -> RetrievalResult:
        db = self.device.database(self.db_id)
        extra: Dict[str, float] = {}
        if self.queue_policy is not None:
            # Route through the async submission queue: the host forms the
            # batches (deadline/occupancy policy) instead of the caller.
            queue = self.device.submission_queue(
                self.db_id, k=k,
                nprobe=self.nprobe if db.is_ivf else None,
                policy=self.queue_policy,
            )
            report = queue.serve(np.atleast_2d(queries))
            batch = report.as_batch_result()
            extra = {
                "queue_wait_seconds": report.total_queue_wait_s,
                "deadline_misses": float(len(report.deadline_misses)),
                "batches_formed": float(len(report.batches)),
            }
        elif db.is_ivf:
            batch = self.device.ivf_search(
                self.db_id, queries, k, nprobe=self.nprobe,
                fetch_documents=True,
            )
        else:
            batch = self.device.search(self.db_id, queries, k)
        if self._analytic is not None and self.paper_workload is not None:
            n_queries = len(batch)
            per_query = self._analytic.query_cost(self.paper_workload).seconds
            seconds = per_query * n_queries
        else:
            seconds = batch.total_seconds
        return RetrievalResult(ids=batch.ids, search_seconds=seconds, extra=extra)
