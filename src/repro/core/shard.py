"""Multi-device sharding: shard router, per-shard plans, distance merges.

One REIS drive tops out at its own channels and dies; serving production
traffic needs horizontal scale-out.  This module shards one logical
database across N :class:`~repro.core.engine.InStorageAnnsEngine` devices
and serves one logical batch as N per-shard
:class:`~repro.core.plan.QueryPlan` executions plus host-side **distance
merges** -- the shard-and-merge design of SPANN/DiskANN-class distributed
ANN systems, specialized to the in-storage engine:

* :func:`plan_placement` partitions the corpus.  ``round_robin`` stripes
  vectors across shards (every shard replicates every centroid);
  ``cluster`` places whole IVF clusters with greedy size balancing
  (centroid scans divide across shards; flat databases fall back to
  contiguous chunks).
* Every shard is deployed with the **same**
  :class:`~repro.core.layout.DeploymentCodecs` -- quantizers and the
  distance-filter threshold fit once on the full corpus -- so all shards
  measure distances in one code space and per-shard candidates are
  mergeable by raw distance.
* :class:`ShardRouter` fans a batch out: each shard runs the page-major
  batch executor over its own pages (per-shard ``nprobe`` trimmed by the
  plan to the centroids the shard actually owns), and the router merges at
  three barriers: centroid candidates -> global probe set, fine shortlists
  -> global rescoring shortlist, INT8 rerank scores -> global top-k.
  A barrier is one columnar pass over the shards' stacked rows keyed by
  query -- one sort, one segment cut -- never a loop over (shard, query).
  The filter-retry decision is likewise taken on cluster-wide survivor
  counts, exactly as one device scanning everything would take it.
  Towards the host the router has the executor shape of
  :class:`~repro.core.batch.BatchExecutor` -- ``plan`` / ``forming_views``
  / ``execute`` with the :class:`ShardedDatabase` first -- which is what
  lets the device surface and the submission queue be written once.

**Bit identity.**  The merges reconstruct, candidate for candidate, the
state a single device deploying the whole corpus would have built: the TTL
selection is a deterministic total order (distance, then scan order --
:meth:`~repro.core.registry.TemporalTopList.select`), each
shard's local top list provably contains its members of the global top
list, and the router merges with the single-device scan-order key
(coarse: global cluster id; fine: probe rank, then the slot the vector
would occupy in the canonical single-device layout,
:func:`~repro.core.layout.deployment_order`).  The property tests in
``tests/test_core_shard.py`` pin sharded top-k == single-device top-k
(ids and distances) for arbitrary splits, placements, k and metadata
filters.

**Cost model.**  Shards execute concurrently, each under its own
die/channel occupancy composition
(:func:`~repro.core.costing.compose_batch`); the merges are barriers,
so every phase's wall clock is the slowest shard's, and the ``merge``
phase adds the host-side work (per-shard shortlist transfer over each
shard's host link in parallel, then one serial merge kernel) -- wall clock
is the slowest shard plus merge, and
:meth:`~repro.core.api.BatchSearchResult.phase_seconds` still decomposes
it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.distances import hamming_packed
from repro.ann.ivf import IvfModel
from repro.core.batch import (
    BatchExecution,
    BatchExecutor,
    BatchRun,
    BatchStats,
    _phase_timer,
    hand_out_clusters,
)
from repro.core.costing import BatchPhaseBreakdown, compose_batch
from repro.core.layout import DeployedDatabase, deployment_order
from repro.core.plan import (
    QueryPlan,
    ReisQueryResult,
    build_query_plan,
    resolve_nprobe,
    sum_search_stats,
)
from repro.rag.documents import Corpus, DocumentChunk
from repro.sim.latency import LatencyReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import InStorageAnnsEngine
    from repro.host.profile import HostProfile

PLACEMENT_POLICIES = ("round_robin", "cluster")

#: Barriers a shard can be scheduled to die at, in pipeline order.  A kill
#: at barrier X means the shard's output for phase X is lost before the
#: router consumes it; everything the shard shipped at earlier barriers
#: stays usable.
KILL_BARRIERS = ("coarse", "fine", "rerank", "document")


class ShardUnavailableError(RuntimeError):
    """A batch cannot be served: a probed cluster has no live replica.

    Raised instead of partial results -- the router never silently drops a
    shard's slice.  ``cluster`` names the first probed cluster with zero
    live owners when one is identifiable (cluster-affinity placement);
    ``None`` for unreplicated layouts (flat / round-robin striping), where
    any shard loss loses a slice of *every* query.
    """

    def __init__(self, cluster: Optional[int] = None, message: Optional[str] = None):
        if message is None:
            if cluster is not None:
                message = f"cluster {cluster} has no live replica"
            else:
                message = "no live shard can serve the batch"
        super().__init__(message)
        self.cluster = cluster


def merge_order(*keys: np.ndarray) -> np.ndarray:
    """Sort order for stacked shard columns, most-significant key first.

    Every merge barrier sorts the concatenated per-shard candidates by a
    tuple key -- (query, distance, tiebreak, ...) -- whose final component
    is unique across the stack (or whose full ties are value-identical
    replica copies), so the order is total and reproduces the
    single-device tuple sort exactly.  One ``np.lexsort`` computes it;
    lexsort treats its *last* key as primary, hence the reversal.
    """
    return np.lexsort(keys[::-1])


# --------------------------------------------------------------- placement


@dataclass(frozen=True)
class ShardAssignment:
    """How one corpus is split across N shards.

    ``shard_vectors[s]`` holds shard ``s``'s global vector ids in ascending
    order -- the order the shard's deployer receives them, so a shard-local
    original index maps back through it.  ``global_slot[v]`` is the slot
    vector ``v`` would occupy on a *single* device deploying the whole
    corpus (the canonical layout), which is the scan-order tie-break key
    the router merges shortlists with.
    """

    policy: str
    n_shards: int
    shard_of_vector: np.ndarray  # (n,) primary owning shard per global id
    shard_vectors: List[np.ndarray]  # per shard: global ids, ascending
    shard_clusters: List[np.ndarray]  # per shard: deployed global cluster ids
    global_slot: np.ndarray  # (n,) canonical single-device slot
    cluster_of_vector: Optional[np.ndarray]  # (n,) global cluster (IVF)
    # Replica groups (cluster-affinity IVF placement only): each cluster is
    # owned by ``replication_factor`` shards, primary first.  A shard may
    # keep a cluster in ``shard_clusters`` (deployed centroid layout) after
    # losing serve-ownership -- migration tombstones the source but leaves
    # its layout intact -- so ``cluster_owners`` is the authority on who may
    # serve a cluster; ``shard_clusters`` is the authority on local ids.
    replication_factor: int = 1
    cluster_owners: Optional[List[np.ndarray]] = None

    @property
    def is_ivf(self) -> bool:
        return self.cluster_of_vector is not None

    def shard_sizes(self) -> np.ndarray:
        return np.array([v.size for v in self.shard_vectors], dtype=np.int64)

    def owners_of(self, cluster: int) -> List[int]:
        """Shards allowed to serve ``cluster`` (primary first)."""
        if self.cluster_owners is not None:
            return [int(s) for s in self.cluster_owners[int(cluster)]]
        if self.policy == "round_robin":
            return list(range(self.n_shards))
        return []

    def local_cluster_ids(self, shard: int) -> Dict[int, int]:
        """``{global cluster: shard-local id}`` of the clusters ``shard``
        deploys (its position in the shard's centroid layout)."""
        return {int(c): i for i, c in enumerate(self.shard_clusters[shard])}

    def global_ids(
        self, shard: int, db: DeployedDatabase, radrs: np.ndarray
    ) -> np.ndarray:
        """Global vector ids of the entries at ``radrs`` of ``shard``'s piece."""
        mine = np.asarray(self.shard_vectors[shard], dtype=np.int64)
        return mine[db.slot_to_original[radrs]]


def check_cluster_shape(n_shards: int, policy: str, replication_factor: int) -> None:
    """Reject a shard count / placement / replication combination no
    corpus could be placed under (what is knowable before a model exists)."""
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(
            f"unknown placement policy {policy!r}; pick from {PLACEMENT_POLICIES}"
        )
    if replication_factor < 1:
        raise ValueError("replication_factor must be at least 1")
    if replication_factor > n_shards:
        raise ValueError(
            f"replication_factor {replication_factor} exceeds {n_shards} shards"
        )


def plan_placement(
    n: int,
    n_shards: int,
    policy: str,
    ivf_model: Optional[IvfModel] = None,
    replication_factor: int = 1,
) -> ShardAssignment:
    """Partition ``n`` vectors across ``n_shards`` under a placement policy.

    ``round_robin`` assigns vector ``i`` to shard ``i % n_shards``; with an
    IVF model every cluster then has members on every shard, so each shard
    owns (a replica of) every centroid.  ``cluster`` assigns whole clusters
    greedily -- largest first, each to the currently lightest shard -- so
    a probed cluster lives on exactly one shard and centroid scans divide;
    without a model it degrades to contiguous chunks.  Both policies are
    deterministic functions of their inputs.

    ``replication_factor`` R > 1 (cluster-affinity IVF only) gives each
    cluster R owner shards -- the greedy pass picks the R lightest distinct
    shards per cluster, primary first, charging the cluster's size to every
    owner -- so the router can pick one replica per probed cluster per
    batch and fail over to a survivor when an owner dies.  Replication is a
    SPANN-style posting-list replica scheme: whole clusters, full copies.
    """
    check_cluster_shape(n_shards, policy, replication_factor)
    if replication_factor > 1 and (policy != "cluster" or ivf_model is None):
        raise ValueError(
            "replication requires the 'cluster' placement of an IVF model "
            "(whole clusters are the replication unit)"
        )
    cluster_of: Optional[np.ndarray] = None
    if ivf_model is not None:
        cluster_of = np.empty(n, dtype=np.int64)
        for cluster, members in enumerate(ivf_model.lists):
            cluster_of[members] = cluster

    cluster_owners: Optional[List[np.ndarray]] = None
    if policy == "round_robin":
        shard_of = np.arange(n, dtype=np.int64) % n_shards
        if ivf_model is not None:
            all_clusters = np.arange(ivf_model.nlist, dtype=np.int64)
            shard_clusters = [all_clusters.copy() for _ in range(n_shards)]
        else:
            shard_clusters = [np.empty(0, dtype=np.int64) for _ in range(n_shards)]
        shard_vectors = [
            np.nonzero(shard_of == s)[0].astype(np.int64)
            for s in range(n_shards)
        ]
    elif ivf_model is not None:  # cluster affinity
        sizes = ivf_model.cluster_sizes()
        # Largest clusters first (ties by id), each to the R lightest
        # shards (ties by shard id): deterministic greedy balance.  With
        # R == 1 this is exactly the unreplicated assignment.
        order = sorted(range(ivf_model.nlist), key=lambda c: (-sizes[c], c))
        load = [0] * n_shards
        owners: List[List[int]] = [[] for _ in range(ivf_model.nlist)]
        owned: List[List[int]] = [[] for _ in range(n_shards)]
        for cluster in order:
            picks = sorted(range(n_shards), key=lambda s: (load[s], s))
            picks = picks[:replication_factor]
            owners[cluster] = picks
            for shard in picks:
                owned[shard].append(cluster)
                load[shard] += int(sizes[cluster])
        owner = np.array([o[0] for o in owners], dtype=np.int64)
        shard_of = owner[cluster_of] if n else np.empty(0, dtype=np.int64)
        shard_clusters = [
            np.array(sorted(c), dtype=np.int64) for c in owned
        ]
        cluster_owners = [np.array(o, dtype=np.int64) for o in owners]
        # A shard holds the *full* membership of every cluster it owns
        # (replicas are whole-cluster copies), in ascending global order.
        shard_vectors = []
        for shard in range(n_shards):
            mine = np.concatenate(
                [ivf_model.lists[int(c)] for c in shard_clusters[shard]]
                or [np.empty(0, dtype=np.int64)]
            )
            shard_vectors.append(np.sort(mine).astype(np.int64))
    else:  # cluster affinity without clusters: contiguous chunks
        shard_of = np.empty(n, dtype=np.int64)
        for shard, chunk in enumerate(np.array_split(np.arange(n), n_shards)):
            shard_of[chunk] = shard
        shard_clusters = [np.empty(0, dtype=np.int64) for _ in range(n_shards)]
        shard_vectors = [
            np.nonzero(shard_of == s)[0].astype(np.int64)
            for s in range(n_shards)
        ]

    order = deployment_order(n, ivf_model)
    global_slot = np.empty(n, dtype=np.int64)
    global_slot[order] = np.arange(n, dtype=np.int64)
    return ShardAssignment(
        policy=policy,
        n_shards=n_shards,
        shard_of_vector=shard_of,
        shard_vectors=shard_vectors,
        shard_clusters=shard_clusters,
        global_slot=global_slot,
        cluster_of_vector=cluster_of,
        replication_factor=replication_factor,
        cluster_owners=cluster_owners,
    )


def shard_ivf_model(
    ivf_model: IvfModel, assignment: ShardAssignment, shard: int
) -> IvfModel:
    """Shard ``shard``'s local IVF model: its owned centroids, with lists
    holding shard-local vector indices (positions within
    ``assignment.shard_vectors[shard]``).

    Local cluster ids are positions within the shard's (ascending) owned
    cluster array, so local scan order stays consistent with global
    cluster ids -- the coarse-merge tie-break key.
    """
    owned = assignment.shard_clusters[shard]
    mine = assignment.shard_vectors[shard]
    lists: List[np.ndarray] = []
    for cluster in owned:
        members = ivf_model.lists[int(cluster)]
        # Membership in the shard's id list, not primary ownership: under
        # replication a shard holds the full membership of every owned
        # cluster, under round-robin striping only its stripe of it.
        local_members = members[np.isin(members, mine, assume_unique=True)]
        lists.append(
            np.searchsorted(mine, local_members).astype(np.int64)
        )
    return IvfModel(
        centroids=ivf_model.centroids[owned].copy(),
        lists=lists,
    )


# --------------------------------------------------------- logical database


@dataclass
class ShardedDatabase:
    """One logical database deployed across N shard devices."""

    db_id: int
    name: str
    n_entries: int
    dim: int
    assignment: ShardAssignment
    shard_dbs: List[Optional[DeployedDatabase]]  # None for empty shards
    shard_db_ids: List[Optional[int]]
    ivf_model: Optional[IvfModel]
    corpus: Optional[Corpus] = field(default=None, repr=False)
    metadata_tags: Optional[np.ndarray] = field(default=None, repr=False)
    # Host-side mirrors for live rebalancing: migrating a cluster redeploys
    # the destination shard from the float vectors (the deployed codecs are
    # deterministic, so re-encoding is bit-identical to copying pages) with
    # the same globally-fit codecs and growth headroom the original
    # deployment used.  ``source_tombstones[s]`` records global ids
    # tombstoned on shard ``s`` while still live elsewhere (migrated-away
    # copies), so a later ingest coordinator does not route to them.
    vectors: Optional[np.ndarray] = field(default=None, repr=False)
    codecs: Optional[object] = field(default=None, repr=False)
    growth_entries: int = 0
    source_tombstones: List[set] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.source_tombstones:
            self.source_tombstones = [set() for _ in range(len(self.shard_dbs))]

    @property
    def is_ivf(self) -> bool:
        return self.ivf_model is not None

    @property
    def n_clusters(self) -> int:
        return self.ivf_model.nlist if self.ivf_model is not None else 0

    @property
    def has_metadata(self) -> bool:
        return self.metadata_tags is not None

    @property
    def active_shards(self) -> List[int]:
        """Shards that actually hold a deployed piece of this database."""
        return [s for s, db in enumerate(self.shard_dbs) if db is not None]

    def document_chunk(self, global_id: int) -> DocumentChunk:
        """The globally-identified chunk for a vector id.

        Shards store chunk payloads under shard-local ids; the router
        restores the global identity here (from the logical corpus, or the
        deployer's synthetic ``chunk-<id>`` text when none was supplied),
        so sharded results carry exactly the chunks a single device would.
        """
        if self.corpus is not None:
            return self.corpus[global_id]
        return DocumentChunk(chunk_id=global_id, text=f"chunk-{global_id}")


# ------------------------------------------------------------- merge model


@dataclass(frozen=True)
class MergeCostModel:
    """Host-side cost of distance-merging per-shard candidate lists.

    Each shard ships fixed-size (distance, id) records over its own host
    link -- links run in parallel, so transfer time is the busiest shard's
    -- and one host merge kernel then consumes every record serially at a
    CPU-selection-class element rate.
    """

    record_bytes: int = 8
    merge_elements_per_s: float = 2.0e9

    def transfer_seconds(self, records: int, link_bps: float) -> float:
        return records * self.record_bytes / link_bps

    def merge_seconds(self, records: int) -> float:
        return records / self.merge_elements_per_s


# ------------------------------------------------------------------ router


def _no_rows() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False, kw_only=True)
class _ShardRun(BatchRun):
    """One shard's in-flight state while the router serves a batch: the
    executor's :class:`~repro.core.batch.BatchRun` (this shard's plan has
    ``nprobe`` trimmed to the centroids it owns) plus the router's own.

    A shard can host more than one run per batch: its primary run plus a
    *failover* run re-executing a dead shard's slice (failover runs always
    follow the primaries in ``_BatchState.runs``).  ``dead`` marks a run
    whose output was lost mid-batch (the shard died at a barrier); the run
    stays in the list -- merged-shortlist provenance indexes into it -- but
    contributes no further results.
    """

    shard: int
    executor: BatchExecutor
    failover: bool = False
    dead: bool = False


@dataclass
class _BatchState:
    """Everything in flight while the router serves one batch."""

    sdb: ShardedDatabase
    queries: np.ndarray
    k: int
    nprobe: Optional[int]
    fetch_documents: bool
    metadata_filter: Optional[int]
    # Records each shard shipped to the host merges (every barrier adds).
    shipped: np.ndarray
    runs: List[_ShardRun] = field(default_factory=list)
    # The probe table, stacked query-major in rank order: row i says query
    # ``probe_queries[i]`` probes global cluster ``probe_clusters[i]``
    # (empty on a flat database).
    probe_queries: np.ndarray = field(default_factory=_no_rows)
    probe_clusters: np.ndarray = field(default_factory=_no_rows)
    # Cluster -> serving shard for this batch, -1 where not (yet) elected
    # (cluster-affinity placement only; None means every shard serves its
    # own slice of every cluster).
    serving: Optional[np.ndarray] = None
    cluster_sizes: Optional[np.ndarray] = None
    retry_indices: List[int] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return int(self.queries.shape[0])

    def live_runs(self) -> List[_ShardRun]:
        """Runs still producing output; a batch with none cannot finish."""
        runs = [run for run in self.runs if not run.dead]
        if not runs:
            raise ShardUnavailableError(
                None, "every shard serving the batch is down"
            )
        return runs

    def query_of_rows(self, bounds: np.ndarray) -> np.ndarray:
        """The query column of a stacked, query-major block."""
        return np.repeat(np.arange(self.n_queries), np.diff(bounds))

    def query_bounds(self, query_column: np.ndarray) -> np.ndarray:
        """Segment bounds of a sorted query column (one cut per query)."""
        return np.searchsorted(query_column, np.arange(self.n_queries + 1))

    def head_of_each_query(self, query_column: np.ndarray, limit: int) -> np.ndarray:
        """Mask of the first ``limit`` rows of every query's segment."""
        first = self.query_bounds(query_column)[:-1]
        return np.arange(query_column.size) - first[query_column] < limit


@dataclass
class _MergedShortlist:
    """The batch's merged global shortlists, stacked with provenance.

    Parallel arrays over the merged candidates, query-major and in global
    rank order within a query: ``queries`` the query index, ``gids`` the
    global vector ids, ``run_index`` which :class:`_ShardRun` produced each
    candidate, and ``rows`` the candidate's row inside that run's stacked
    shortlist block -- enough to slice each shard's members back out
    without materializing per-candidate objects.
    """

    queries: np.ndarray
    gids: np.ndarray
    run_index: np.ndarray
    rows: np.ndarray


@dataclass
class _RankedWinners:
    """The batch's global top-k lists, stacked like :class:`_MergedShortlist`.

    Parallel arrays, query-major in rank order: query index, global id,
    refined INT8 distance, and where the winner's document lives -- the
    serving ``shards`` entry and its shard-local ``dadrs`` address
    (rewritten in place when a document fails over to a replica; ids and
    distances never move).  ``bounds`` cuts the per-query segments.
    """

    queries: np.ndarray
    gids: np.ndarray
    dists: np.ndarray
    shards: np.ndarray
    dadrs: np.ndarray
    bounds: np.ndarray


class ShardRouter:
    """Fans one logical batch out to per-shard plans and merges by distance.

    The router holds the shard engines; which logical database to serve
    comes in per call (a :class:`ShardedDatabase`).  Its host-facing shape
    is :class:`~repro.core.batch.BatchExecutor`'s -- :meth:`plan`,
    :meth:`forming_views`, :meth:`execute`, each taking the database first
    -- so devices and queues are written once over either executor.

    A batch in flight is a table, not a grid of (shard, query) cells: the
    kernels run once per shard per phase (each device keeps its own
    counters, cache and senses), and every barrier between them -- probe
    merge, shortlist merge, rerank merge, report composition -- is one
    pass over the shards' stacked columns.  Replica election, re-homing
    and failover billing stay per shard: the modeled clock needs them.
    """

    def __init__(
        self,
        engines: Sequence["InStorageAnnsEngine"],
        merge_model: Optional[MergeCostModel] = None,
    ) -> None:
        if not engines:
            raise ValueError("a shard router needs at least one engine")
        self.engines = list(engines)
        self.executors = [BatchExecutor(engine) for engine in self.engines]
        self.merge_model = merge_model or MergeCostModel()
        # Fault state: shards in ``failed_shards`` are dead until revived.
        # ``_fail_plan`` is a one-shot scheduled mid-batch death -- (shard,
        # barrier) -- consumed by the next execute(); the shard stays dead
        # for subsequent batches.
        self.failed_shards: set = set()
        self._fail_plan: Optional[Tuple[int, str]] = None
        # Cumulative per-shard busy seconds (replica selection load key).
        # ``load_source`` lets a scheduler substitute its own utilization
        # view (ShardedScheduler wires per-shard rag_seconds in).
        self.shard_busy_s: List[float] = [0.0] * len(self.engines)
        self.load_source = None

    @property
    def n_shards(self) -> int:
        return len(self.engines)

    # --------------------------------------------------------------- faults

    def fail_shard(self, shard: int) -> None:
        """Kill a shard now: it serves nothing until :meth:`revive_shard`."""
        self._check_shard(shard)
        self.failed_shards.add(shard)

    def revive_shard(self, shard: int) -> None:
        """Bring a killed shard back (the simulator's state is intact)."""
        self._check_shard(shard)
        self.failed_shards.discard(shard)

    def schedule_failure(self, shard: int, barrier: str) -> None:
        """Arm a one-shot mid-batch death: ``shard`` dies at ``barrier``
        during the next :meth:`execute` (its output for that phase is
        lost), then stays dead for subsequent batches until revived."""
        self._check_shard(shard)
        if barrier not in KILL_BARRIERS:
            raise ValueError(
                f"unknown kill barrier {barrier!r}; pick from {KILL_BARRIERS}"
            )
        self._fail_plan = (shard, barrier)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} is out of range")

    def _kill_at(self, state: "_BatchState", barrier: str) -> Optional[int]:
        """Fire the death scheduled for ``barrier``, if any: the shard joins
        ``failed_shards`` and its live runs are marked dead.  Returns the
        shard when that cost the batch a run."""
        if self._fail_plan is None or self._fail_plan[1] != barrier:
            return None
        shard, self._fail_plan = self._fail_plan[0], None
        self.failed_shards.add(shard)
        casualties = [r for r in state.runs if r.shard == shard and not r.dead]
        for run in casualties:
            run.dead = True
        return shard if casualties else None

    def _shard_load(self, shard: int) -> float:
        if self.load_source is not None:
            return float(self.load_source()[shard])
        return self.shard_busy_s[shard]

    def resolve_anchor(self, sdb: ShardedDatabase) -> int:
        """The first *live* shard holding a deployed piece -- the anchor
        host paths (queue forming, codec lookups) resolve through instead
        of hard-coding shard 0, which may be drained or dead."""
        for shard in sdb.active_shards:
            if shard not in self.failed_shards:
                return shard
        raise ShardUnavailableError(
            None, f"database {sdb.db_id} has no live deployed shard"
        )

    def _can_fail_over(self, sdb: ShardedDatabase) -> bool:
        """Whole-cluster replicas exist only under cluster-affinity IVF
        placement; striped and flat layouts lose a slice of every query
        with any shard, so they cannot reroute."""
        return (
            sdb.is_ivf
            and sdb.assignment.policy == "cluster"
            and sdb.assignment.cluster_owners is not None
        )

    def _live_owners(self, sdb: ShardedDatabase, cluster: int) -> List[int]:
        return [
            s
            for s in sdb.assignment.owners_of(cluster)
            if s not in self.failed_shards and sdb.shard_dbs[s] is not None
        ]

    def _down_clusters(self, sdb: ShardedDatabase) -> List[int]:
        """Clusters with zero live owners (their pages are unreachable)."""
        if not self._can_fail_over(sdb):
            return []
        return [
            cluster
            for cluster in range(sdb.n_clusters)
            if not self._live_owners(sdb, cluster)
        ]

    # ------------------------------------------------------------ plumbing

    def forming_views(
        self, sdb: ShardedDatabase, clusters: Sequence[int]
    ) -> List[Tuple[int, "InStorageAnnsEngine", DeployedDatabase, List[int]]]:
        """The deployment as a :class:`~repro.core.queue.BatchFormer` sees it.

        One ``(shard, engine, local db, local cluster ids)`` view per live
        shard holding a piece.  Of the given global ``clusters`` a shard is
        expected to scan the ones the router would have it *serve*: the
        first live owner under cluster-affinity placement, every shard's
        local slice under striping.
        """
        assignment = sdb.assignment
        serving: Optional[Dict[int, int]] = None
        if sdb.is_ivf and assignment.policy == "cluster":
            serving = {}
            for cluster in clusters:
                owners = self._live_owners(sdb, cluster)
                if owners:
                    serving[cluster] = owners[0]
        views = []
        for shard in sdb.active_shards:
            if shard in self.failed_shards:
                continue
            position = assignment.local_cluster_ids(shard)
            local = [
                position[cluster]
                for cluster in clusters
                if cluster in position
                and (serving is None or serving.get(cluster) == shard)
            ]
            views.append(
                (shard, self.engines[shard], sdb.shard_dbs[shard], local)
            )
        return views

    def plan(
        self,
        sdb: ShardedDatabase,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> QueryPlan:
        """The sharded schedule as plan data: per-shard stages + the merge.

        Every shard runs the same stage list, so the plan is built against
        the first live shard; ``nprobe`` is the *global* probe count every
        query ends up scanning (a shard's own plan trims it to the
        centroids it holds) and ``merge_fan_in`` puts a ``merge`` stage
        between the fine search and the rerank -- where the router really
        merges shortlists.
        """
        anchor = self.resolve_anchor(sdb)
        plan = build_query_plan(
            self.engines[anchor], sdb.shard_dbs[anchor], k, nprobe,
            fetch_documents, metadata_filter,
        )
        return replace(
            plan,
            nprobe=resolve_nprobe(sdb.n_clusters, nprobe),
            merge_fan_in=len(sdb.active_shards),
        )

    # ------------------------------------------------------------- execute

    def execute(
        self,
        sdb: ShardedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile: Optional["HostProfile"] = None,
    ) -> BatchExecution:
        """Serve a batch across all shards and merge to the global top-k.

        Shards already in ``failed_shards`` serve nothing; a scheduled
        mid-batch death (:meth:`schedule_failure`) fires at its barrier and
        the router re-executes the dead shard's serving slice on surviving
        replicas.  Either way the batch completes bit-identical to a
        healthy single device or raises :class:`ShardUnavailableError` --
        never partial results.

        ``host_profile`` opts into host wall-clock accounting of the
        router's own steps under the single-device executor's phase names
        (``fine`` includes the shortlist merge, ``finalize`` is the result
        composition); the default ``None`` never reads the wall clock.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        n_queries = queries.shape[0]
        if not sdb.active_shards:
            raise ValueError("database has no deployed shards")
        if n_queries == 0:
            return BatchExecution(
                results=[], report=LatencyReport(), stats=BatchStats()
            )
        self.resolve_anchor(sdb)  # raises when no deployed shard is live
        live = [s for s in sdb.active_shards if s not in self.failed_shards]
        if len(live) < len(sdb.active_shards) and not self._can_fail_over(sdb):
            # A striped/flat layout lost a slice of every query already.
            raise ShardUnavailableError(
                None,
                "a shard holding an unreplicated slice is down "
                f"({sorted(set(sdb.active_shards) - set(live))})",
            )
        with _phase_timer(host_profile, "prepare"):
            state = _BatchState(
                sdb=sdb, queries=queries, k=k,
                # Global: each shard's plan trims it to the centroids it holds.
                nprobe=resolve_nprobe(sdb.n_clusters, nprobe),
                fetch_documents=fetch_documents,
                metadata_filter=metadata_filter,
                shipped=np.zeros(self.n_shards, dtype=np.int64),
            )
            if sdb.is_ivf and sdb.assignment.cluster_of_vector is not None:
                state.cluster_sizes = np.bincount(
                    np.asarray(sdb.assignment.cluster_of_vector, dtype=np.int64),
                    minlength=sdb.n_clusters,
                )
            for shard in live:
                state.runs.append(self._make_run(state, shard))
        with _phase_timer(host_profile, "ibc"):
            for run in state.runs:
                run.executor.run_ibc(run.ctxs)

        if sdb.is_ivf:
            with _phase_timer(host_profile, "coarse"):
                self._coarse_barrier(state)
        else:
            dead = self._kill_at(state, "coarse")
            if dead is not None:
                self._spawn_replacements(state, dead, through="scan")
        with _phase_timer(host_profile, "fine"):
            self._fine_barrier(state)
            shortlist = self._shortlist_barrier(state)
        with _phase_timer(host_profile, "rerank"):
            ranked = self._rerank_barrier(state, shortlist)
        with _phase_timer(host_profile, "documents"):
            documents = self._document_barrier(state, ranked)
        with _phase_timer(host_profile, "finalize"):
            execution = self._compose(state, ranked, documents)
        execution.stats.host_profile = host_profile
        return execution

    # ------------------------------------------------------------- barriers

    def _make_run(
        self, state: _BatchState, shard: int, failover: bool = False
    ) -> _ShardRun:
        executor = self.executors[shard]
        db = state.sdb.shard_dbs[shard]
        run = executor.prepare(
            db, state.queries, state.k,
            state.nprobe if db.is_ivf else None,
            state.fetch_documents, state.metadata_filter,
        )
        return _ShardRun(
            run.db, run.plan, run.ctxs, run.stats,
            shard=shard, executor=executor, failover=failover,
        )

    def _elect(
        self, state: _BatchState, cluster: int, assigned: Dict[int, int]
    ) -> int:
        """Pick ``cluster``'s serving replica into ``state.serving``: the
        least-loaded live owner (cumulative busy seconds, then vectors
        already ``assigned`` in this election round, then shard id).
        Disjoint serving sets keep the downstream merge keys a total
        order, so replica choice never changes results."""
        owners = self._live_owners(state.sdb, cluster)
        if not owners:
            raise ShardUnavailableError(cluster)
        pick = min(
            owners, key=lambda s: (self._shard_load(s), assigned.get(s, 0), s)
        )
        assigned[pick] = assigned.get(pick, 0) + int(state.cluster_sizes[cluster])
        state.serving[cluster] = pick
        return pick

    def _hand_out_probes(
        self, state: _BatchState, run: _ShardRun, mine: np.ndarray
    ) -> None:
        """Give ``run`` the rows of the probe table selected by the mask
        ``mine``: every query's clusters, as the shard's local ids in
        global rank order."""
        owned = state.sdb.assignment.shard_clusters[run.shard]
        position = np.full(state.sdb.n_clusters, -1, dtype=np.int64)
        position[owned] = np.arange(len(owned))
        mine = mine & (position[state.probe_clusters] >= 0)
        hand_out_clusters(
            run.ctxs, position[state.probe_clusters[mine]],
            state.query_bounds(state.probe_queries[mine]),
        )

    def _spawn_replacements(
        self,
        state: _BatchState,
        dead: int,
        through: str,
        members: Optional[np.ndarray] = None,
    ) -> List[_ShardRun]:
        """Re-execute the dead shard's serving slice on surviving replicas.

        The slice is every cluster the dead shard was serving, or -- given
        ``members`` (global vector ids) -- only the clusters holding them.
        Reassigns each lost cluster to its least-loaded live owner, spawns
        fresh failover runs on the chosen shards (IBC + filtered fine scan
        over exactly the lost clusters of each query's probe set), and --
        for ``through="finish"`` -- replays the batch's recorded filter
        retry and finishes the local shortlist, so the replacement holds
        bit-for-bit the candidates the dead shard would have shipped
        (replicas are whole-cluster copies; determinism does the rest).
        Raises :class:`ShardUnavailableError` naming the first cluster with
        zero live owners, or with ``cluster=None`` for layouts that cannot
        reroute at all.
        """
        sdb = state.sdb
        if state.serving is None:
            probed = state.probe_clusters
            raise ShardUnavailableError(
                int(probed[0]) if probed.size else None,
                f"shard {dead} died mid-batch and the "
                f"{sdb.assignment.policy!r} placement has no cluster replicas",
            )
        lost = np.flatnonzero(state.serving == dead)
        if members is not None:
            holding = np.asarray(sdb.assignment.cluster_of_vector)[members]
            lost = lost[np.isin(lost, holding)]
        # Elected in ascending cluster order: the load key sees the same
        # sequence of assignments every time.
        assigned: Dict[int, int] = {}
        by_shard: Dict[int, List[int]] = {}
        for cluster in lost.tolist():
            by_shard.setdefault(self._elect(state, cluster, assigned), []).append(
                cluster
            )
        new_runs: List[_ShardRun] = []
        for shard in sorted(by_shard):
            run = self._make_run(state, shard, failover=True)
            run.executor.run_ibc(run.ctxs)
            self._hand_out_probes(
                state, run, np.isin(state.probe_clusters, by_shard[shard])
            )
            run.executor._fine_scan(run)
            if through == "finish":
                run.executor._fine_finish(run, state.retry_indices)
            state.runs.append(run)
            new_runs.append(run)
        return new_runs

    def _coarse_barrier(self, state: _BatchState) -> None:
        """Per-shard coarse scans -> merged global probe table, rank order.

        Each shard quickselects its local top ``min(nprobe, local nlist)``
        centroids for all of its queries at once (the plan already trimmed
        its nprobe); the router stacks every shard's rows and merges with
        one sort by (query, distance, global cluster id) -- the
        single-device selection key behind the query index -- dedupes
        replicas (replicated centroids tie exactly, so a first-seen dedupe
        over the sorted order keeps one of each), cuts every query's
        segment to ``nprobe``, picks one *serving* replica per probed
        cluster (least-loaded live owner, elected in first-probed order),
        and hands each serving shard its local ids of its clusters.

        Fault paths: a shard dying at this barrier loses its whole coarse
        block, and clusters whose every owner is down have their centroids
        on no live shard at all.  The router reconstructs the latter
        host-side -- the deployed coarse distance is the Hamming distance
        between the query's and the centroid's binary codes, which the host
        computes identically from the shared quantizer -- merges them into
        the candidate set, and raises :class:`ShardUnavailableError` iff a
        down cluster wins a probe slot, i.e. exactly when results would
        diverge from a healthy device.
        """
        sdb = state.sdb
        n_queries = state.n_queries
        selected = {}
        for run in state.live_runs():
            selected[run.shard] = run.executor._coarse_scan(run)

        dead = self._kill_at(state, "coarse")
        if dead is not None and not self._can_fail_over(sdb):
            raise ShardUnavailableError(
                None,
                f"shard {dead} died at the coarse barrier and the "
                f"{sdb.assignment.policy!r} placement has no replicas",
            )
        runs = state.live_runs()
        queries, dists, clusters = [], [], []
        for run in runs:
            block, bounds = selected[run.shard]
            state.shipped[run.shard] += len(block)
            queries.append(state.query_of_rows(bounds))
            dists.append(block.dists)
            clusters.append(
                np.asarray(sdb.assignment.shard_clusters[run.shard], dtype=np.int64)[
                    block.eadrs
                ]
            )

        # Clusters with zero live owners: reconstruct their coarse
        # candidates host-side so the probe decision stays exact.
        down = np.asarray(self._down_clusters(sdb), dtype=np.int64)
        if down.size:
            quantizer = sdb.shard_dbs[runs[0].shard].binary_quantizer
            codes = quantizer.encode(np.asarray(sdb.ivf_model.centroids)[down])
            query_codes = np.stack([ctx.query_code for ctx in runs[0].ctxs])
            queries.append(np.repeat(np.arange(n_queries), down.size))
            dists.append(hamming_packed(query_codes, codes).ravel())
            clusters.append(np.tile(down, n_queries))

        queries = np.concatenate(queries)
        clusters = np.concatenate(clusters)
        order = merge_order(queries, np.concatenate(dists), clusters)
        queries, clusters = queries[order], clusters[order]
        _, first = np.unique(queries * sdb.n_clusters + clusters, return_index=True)
        first.sort()
        queries, clusters = queries[first], clusters[first]
        probed = state.head_of_each_query(queries, state.nprobe)
        state.probe_queries, state.probe_clusters = queries[probed], clusters[probed]
        lost = np.isin(state.probe_clusters, down)
        if lost.any():
            raise ShardUnavailableError(int(state.probe_clusters[np.argmax(lost)]))

        serves = np.ones(state.probe_clusters.size, dtype=bool)
        if self._can_fail_over(sdb):
            # One serving replica per probed cluster, batch-wide.
            state.serving = np.full(sdb.n_clusters, -1, dtype=np.int64)
            assigned: Dict[int, int] = {}
            distinct, first = np.unique(state.probe_clusters, return_index=True)
            for cluster in distinct[np.argsort(first)].tolist():
                self._elect(state, cluster, assigned)
        for run in runs:
            if state.serving is not None:
                serves = state.serving[state.probe_clusters] == run.shard
            self._hand_out_probes(state, run, serves)

    def _fine_barrier(self, state: _BatchState) -> None:
        """Filtered fine scans everywhere, then the cluster-wide retry.

        The retry predicate runs on summed survivor and candidate counts:
        the decision one device scanning the whole corpus would take.  A
        retry rescans *every* shard unfiltered, as the single device
        rescans its whole candidate set.

        A shard dying at this barrier loses its fine output before the
        retry decision; its serving clusters reroute to surviving replicas
        (whole-cluster copies rescan the same slice bit-identically), so
        the summed counts -- and therefore the retry decision -- match the
        healthy device exactly.
        """
        for run in state.live_runs():
            run.executor._fine_scan(run)
        dead = self._kill_at(state, "fine")
        if dead is not None:
            self._spawn_replacements(state, dead, through="scan")
        runs = state.live_runs()
        state.retry_indices = runs[0].executor.engine.fine_retries(
            np.sum([run.fine.ttl.sizes for run in runs], axis=0),
            np.sum(
                [[ctx.stats.candidates for ctx in run.ctxs] for run in runs], axis=0
            ),
            runs[0].fine.threshold, runs[0].plan.shortlist_size,
        )
        for run in runs:
            run.executor._fine_finish(run, state.retry_indices)

    def _stack_shortlists(
        self, state: _BatchState, runs: Sequence[Tuple[int, _ShardRun]]
    ) -> Tuple[_MergedShortlist, np.ndarray]:
        """The finished shortlists of ``runs`` -- (index in ``state.runs``,
        run) pairs -- as one table with provenance, and its distance column."""
        assignment = state.sdb.assignment
        columns = [[_no_rows()] for _ in range(5)]
        for index, run in runs:
            block = run.shortlist
            for column, rows in zip(columns, (
                state.query_of_rows(run.shortlist_bounds),
                assignment.global_ids(run.shard, run.db, block.radrs),
                np.full(len(block), index), np.arange(len(block)), block.dists,
            )):
                column.append(rows)
        *table, dists = map(np.concatenate, columns)
        return _MergedShortlist(*table), dists

    def _shortlist_barrier(self, state: _BatchState) -> _MergedShortlist:
        """Merge per-shard shortlists into the global rescoring shortlists.

        The merge key is (query, Hamming distance, single-device scan
        order): probe rank then canonical slot for IVF, canonical slot
        alone for flat.  Each shard's local top-S contains its members of
        the global top-S, so the head of every query's segment *is* the
        single-device shortlist.  The merge is one sort over the stacked
        shard columns and one segment cut; serving sets are disjoint per
        cluster (one replica serves each cluster per batch), so slots stay
        unique within a query, the key is a total order and the sort
        reproduces the tuple sort exactly.  ``run_index`` is the run's
        absolute index in ``state.runs`` -- dead runs stay in the list
        precisely so this provenance survives later failovers.
        """
        sdb = state.sdb
        assignment = sdb.assignment
        live = [(i, run) for i, run in enumerate(state.runs) if not run.dead]
        for _index, run in live:
            state.shipped[run.shard] += len(run.shortlist)
        table, dists = self._stack_shortlists(state, live)
        keys = [np.asarray(assignment.global_slot, dtype=np.int64)[table.gids]]
        if sdb.is_ivf:
            rank_of = np.full((state.n_queries, sdb.n_clusters), -1, dtype=np.int64)
            rank_of[state.probe_queries, state.probe_clusters] = np.arange(
                state.probe_queries.size
            )
            clusters = np.asarray(assignment.cluster_of_vector, dtype=np.int64)
            keys.insert(0, rank_of[table.queries, clusters[table.gids]])
        order = merge_order(table.queries, dists, *keys)
        # Every shard plans the same unclamped shortlist_factor * k.
        order = order[
            state.head_of_each_query(
                table.queries[order], state.live_runs()[0].plan.shortlist_size
            )
        ]
        return _MergedShortlist(
            table.queries[order], table.gids[order],
            table.run_index[order], table.rows[order],
        )

    def _rehome(
        self,
        state: _BatchState,
        dead: int,
        queries: np.ndarray,
        gids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Find candidates stranded on a dead shard a new home on a replica.

        ``(queries[i], gids[i])`` is a candidate whose shard-local state
        (shortlist row, document address) died with ``dead``.  Their
        clusters are re-executed on surviving replicas (fine scan + the
        batch's recorded retry + finish), so a replacement's local
        shortlist holds the exact candidates the dead shard shipped -- a
        global-top-S member of cluster c is in the local top-S of *any*
        run scanning a probe subset containing c.  Returns each stranded
        candidate's new home as parallel ``(run_index, rows)`` arrays: the
        replacement's absolute index in ``state.runs`` and the candidate's
        row in its stacked shortlist block (the first match in run order:
        one stable sort + ``searchsorted`` over the replacements' rows).
        """
        new_runs = (
            self._spawn_replacements(state, dead, "finish", gids)
            if gids.size
            else []
        )
        homes, _dists = self._stack_shortlists(
            state, list(enumerate(new_runs, len(state.runs) - len(new_runs)))
        )
        span = int(max(homes.gids.max(initial=0), gids.max(initial=0))) + 1
        home_keys = homes.queries * span + homes.gids
        by_key = np.argsort(home_keys, kind="stable")
        wanted = queries * span + gids
        at = np.searchsorted(home_keys[by_key], wanted)
        found = at < by_key.size
        found[found] = home_keys[by_key[at[found]]] == wanted[found]
        if not found.all():
            gid = int(gids[np.argmin(found)])
            cluster = int(state.sdb.assignment.cluster_of_vector[gid])
            raise ShardUnavailableError(
                cluster,
                f"failover lost vector {gid} of cluster {cluster} "
                "(no replacement rescanned it)",
            )
        return homes.run_index[by_key[at]], homes.rows[by_key[at]]

    def _rerank_barrier(
        self,
        state: _BatchState,
        shortlist: _MergedShortlist,
    ) -> _RankedWinners:
        """Per-shard INT8 reranks of the global shortlists, merged to top-k.

        Each shard rescores only its members -- routed through the same
        page-major batch kernel the single-device executor uses
        (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch`), one
        call per shard covering every query; the router merges with one
        ``np.lexsort`` by (query, INT8 distance, global shortlist position)
        -- the stable order the single device's rerank argsort produces,
        positions being unique -- and cuts every query's segment to k.

        A shard dying at this barrier loses its rerank output; the
        shortlist entries whose provenance points at its runs are re-homed
        (:meth:`_rehome`), their ``run_index``/``rows`` rewritten to the
        replacement runs, and the replacements rerank alongside the
        survivors.  INT8 codes are replica-identical and global rank
        positions never move, so the merge is bit-identical.
        """
        n_queries = state.n_queries
        dead = self._kill_at(state, "rerank")
        if dead is not None:
            dead_idxs = [
                i for i, run in enumerate(state.runs)
                if run.dead and run.shard == dead
            ]
            stranded = np.flatnonzero(np.isin(shortlist.run_index, dead_idxs))
            shortlist.run_index[stranded], shortlist.rows[stranded] = self._rehome(
                state, dead, shortlist.queries[stranded], shortlist.gids[stranded]
            )
        state.live_runs()  # raises when the kill left nobody to rerank
        dists, positions, shards, dadrs = [], [], [], []
        for run_idx, run in enumerate(state.runs):
            if run.dead:
                continue
            # The run's members of every query's shortlist, query-major.
            sel = np.flatnonzero(shortlist.run_index == run_idx)
            mine = run.shortlist.take(shortlist.rows[sel])
            state.shipped[run.shard] += sel.size
            counts = np.bincount(shortlist.queries[sel], minlength=n_queries)
            bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
            outs, run.ledgers["rerank"] = run.executor.engine._rerank_batch(
                run.db, state.queries,
                [mine.take(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])],
                counts.tolist(), [ctx.stats for ctx in run.ctxs],
            )
            # The rerank returns rows in refined order; map each row back
            # to its member ((query, RADR) is unique within a run) to
            # recover its merged-shortlist position.
            span = run.db.int8_region.n_slots
            member_keys = shortlist.queries[sel] * span + mine.radrs
            by_key = np.argsort(member_keys)
            refined = np.concatenate([out[0] for out in outs])
            refined_keys = np.repeat(
                np.arange(n_queries), [out[0].size for out in outs]
            ) * span + np.concatenate([out[2] for out in outs])
            dists.append(refined)
            positions.append(
                sel[by_key[np.searchsorted(member_keys[by_key], refined_keys)]]
            )
            shards.append(np.full(refined.size, run.shard, dtype=np.int64))
            dadrs.append(np.concatenate([out[1] for out in outs]))
        dists, positions = np.concatenate(dists), np.concatenate(positions)
        queries = shortlist.queries[positions]
        order = merge_order(queries, dists, positions)
        order = order[state.head_of_each_query(queries[order], state.k)]
        queries = queries[order]
        return _RankedWinners(
            queries=queries,
            gids=shortlist.gids[positions[order]],
            dists=dists[order],
            shards=np.concatenate(shards)[order],
            dadrs=np.concatenate(dadrs)[order],
            bounds=state.query_bounds(queries),
        )

    def _document_barrier(
        self,
        state: _BatchState,
        ranked: _RankedWinners,
    ) -> List[DocumentChunk]:
        """Fetch each winner's chunk from its owning shard, rank order kept.

        Each shard serves every query's winners in one page-major batch call
        (:meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`),
        so a document page shared by several queries is materialized once per
        shard while every query is still billed its own senses.  Returns the
        chunks stacked like ``ranked`` (empty when documents are not fetched).

        A shard dying at this barrier loses its document reads.  A winner's
        document address on a replica is recoverable without re-running the
        rerank: the rerank's DADRs originate from the fine shortlist block,
        so the replacement run :meth:`_rehome` finds for the winner carries
        the replica-local DADR in its shortlist row.  The winners'
        ``shards``/``dadrs`` are rewritten in place and the fetch goes to the
        replicas; document bytes are replica-identical, so the returned
        chunks match the healthy run.
        """
        sdb = state.sdb
        dead = self._kill_at(state, "document")
        if dead is not None and state.fetch_documents:
            stranded = np.flatnonzero(ranked.shards == dead)
            home_runs, home_rows = self._rehome(
                state, dead, ranked.queries[stranded], ranked.gids[stranded]
            )
            for run_idx in np.unique(home_runs).tolist():
                run = state.runs[run_idx]
                moved = home_runs == run_idx
                ranked.shards[stranded[moved]] = run.shard
                ranked.dadrs[stranded[moved]] = run.shortlist.dadrs[home_rows[moved]]
        runs = state.live_runs()
        if not state.fetch_documents:
            return []
        # A shard can host two runs (primary + failover): the fetch goes
        # through the shard's first live run.
        serving_run: Dict[int, _ShardRun] = {}
        for run in runs:
            serving_run.setdefault(run.shard, run)
        orphaned = ~np.isin(ranked.shards, list(serving_run))
        if orphaned.any():
            first = orphaned & (ranked.queries == ranked.queries[np.argmax(orphaned)])
            raise ShardUnavailableError(
                None,
                "winner document stranded on dead shard "
                f"{int(ranked.shards[first].min())}",
            )
        for shard, run in serving_run.items():
            mine = np.flatnonzero(ranked.shards == shard)
            if not mine.size:
                continue
            # One group per query with winners here, in query order.
            asking, starts = np.unique(ranked.queries[mine], return_index=True)
            starts = starts.tolist() + [mine.size]
            dadrs = ranked.dadrs[mine]
            ctxs = [run.ctxs[qi] for qi in asking.tolist()]
            outs, ledger = run.executor.engine._fetch_documents_batch(
                run.db,
                [dadrs[lo:hi] for lo, hi in zip(starts, starts[1:])],
                [ctx.stats for ctx in ctxs],
            )
            ledger.queries = asking
            run.ledgers["documents"] = ledger
            for ctx, (_docs, host_s) in zip(ctxs, outs):
                ctx.host_seconds += host_s
        return [sdb.document_chunk(gid) for gid in ranked.gids.tolist()]

    # -------------------------------------------------------- composition

    def _merge_breakdown(self, shipped: np.ndarray) -> BatchPhaseBreakdown:
        """The merge phase's cost: parallel per-shard ship + serial merge
        (``shipped[s]`` = records shard ``s`` sent to the barriers)."""
        transfer = max(
            self.merge_model.transfer_seconds(
                records, engine.ssd.spec.host_link_bandwidth_bps
            )
            for records, engine in zip(shipped.tolist(), self.engines)
        )
        core = self.merge_model.merge_seconds(int(shipped.sum()))
        return BatchPhaseBreakdown(
            "merge", transfer + core,
            {"merge_transfer": transfer, "merge_core": core}, 0, 0,
        )

    def _compose(
        self,
        state: _BatchState,
        ranked: _RankedWinners,
        documents: List[DocumentChunk],
    ) -> BatchExecution:
        """Assemble per-query results and the batch-level wall clock.

        Timing under failover stays honest: primary runs (dead ones
        included -- their *completed* phases happened) barrier-compose as
        usual, while every failover run's whole re-execution is billed to
        a dedicated ``failover`` phase (replacements run concurrently, so
        the phase costs the slowest one) --
        :func:`~repro.core.costing.compose_batch`.  Stats counters sum
        over all runs, completed or not: work the cluster really did.
        """
        runs = state.runs
        n_queries = state.n_queries
        devices = [run.bill(run.executor.engine) for run in runs]
        first_failover = sum(not run.failover for run in runs)
        latencies, report, phases, device_seconds = compose_batch(
            devices[:first_failover], devices[first_failover:],
            self._merge_breakdown(state.shipped),
        )
        retried = np.zeros(n_queries, dtype=np.int64)
        retried[state.retry_indices] = 1
        query_stats = sum_search_stats(
            [[ctx.stats for ctx in run.ctxs] for run in runs],
            filter_retries=retried,
            clusters_probed=np.bincount(state.probe_queries, minlength=n_queries),
        )
        bounds = ranked.bounds.tolist()
        cuts = list(zip(bounds, bounds[1:]))
        results = [
            ReisQueryResult(
                ids=ranked.gids[lo:hi], distances=ranked.dists[lo:hi],
                documents=documents[lo:hi], latency=latency, stats=stats,
            )
            for (lo, hi), latency, stats in zip(cuts, latencies, query_stats)
        ]
        shard_seconds = [0.0] * self.n_shards
        for run, seconds in zip(runs, device_seconds):
            shard_seconds[run.shard] += seconds
        for shard, seconds in enumerate(shard_seconds):
            self.shard_busy_s[shard] += seconds
        return BatchExecution(
            results=results,
            report=report,
            stats=BatchStats(
                n_queries=state.n_queries,
                phases=phases,
                scan_requests=sum(run.stats.scan_requests for run in runs),
                scan_senses=sum(run.stats.scan_senses for run in runs),
                cache_hits=sum(stats.cache_hits for stats in query_stats),
            ),
            shard_seconds=shard_seconds,
        )
