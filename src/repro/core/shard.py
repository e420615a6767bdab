"""Multi-device sharding: shards are plane sets of one batch table.

One REIS drive tops out at its own channels and dies; serving production
traffic needs horizontal scale-out.  This module shards one logical
database across N :class:`~repro.core.engine.InStorageAnnsEngine` devices
and serves one logical batch as one set of phase kernels over every
shard's pages plus host-side **distance merges** -- the shard-and-merge
design of SPANN/DiskANN-class distributed ANN systems, specialized to the
in-storage engine:

* :func:`plan_placement` partitions an IVF corpus: whole clusters go to
  R owner shards each with greedy size balancing, so centroid scans
  divide across shards and a cluster's owners are SPANN-style full
  replicas.  Its :class:`ShardAssignment` -- one (cluster, owner) table --
  keys serving, failover, ingest routing and migration.
* Every shard is deployed with the **same**
  :class:`~repro.core.layout.DeploymentCodecs` -- quantizers and the
  distance-filter threshold fit once on the full corpus -- so all shards
  measure distances in one code space, a batch encodes once and
  per-shard candidates are mergeable by raw distance.
* :class:`ShardRouter` gives each live shard a run of the batch (its plan
  trims ``nprobe`` to the centroids the shard owns) and runs each phase
  kernel once per barrier over all of them: the task table is keyed
  (shard, plane, page) and each phase's TTL rows are (shard, query) pairs
  (:mod:`repro.core.batch`).  What a drive owns -- its planes, cache,
  DRAM arena, core and ledgers -- stays per shard inside the kernels.
  The router merges at three barriers: centroid candidates -> global
  probe set, fine shortlists -> global rescoring shortlist, INT8 rerank
  scores -> global top-k, each one columnar pass over the stacked rows
  keyed by query -- one sort, one segment cut.  The filter-retry decision
  is taken on cluster-wide survivor counts, exactly as one device
  scanning everything would take it.  Towards the host the router has
  the executor shape of :class:`~repro.core.batch.BatchExecutor` --
  ``plan`` / ``forming_views`` / ``execute`` with the
  :class:`ShardedDatabase` first.

**Bit identity.**  The merges reconstruct, candidate for candidate, the
state a single device deploying the whole corpus would have built: the TTL
selection is a deterministic total order (distance, then scan order --
:meth:`~repro.core.registry.TemporalTopList.select`), each shard's local
top list provably contains its members of the global top list, and the
router merges with the single-device scan-order key (coarse: global
cluster id; fine: probe rank, then the slot the vector would occupy in the
canonical single-device layout, :func:`~repro.core.layout.deployment_order`).
The property tests in ``tests/test_core_shard.py`` pin sharded top-k ==
single-device top-k for arbitrary splits, replication factors, k and
metadata filters.

**Cost model.**  Shards execute concurrently, each under its own
die/channel occupancy composition
(:func:`~repro.core.costing.compose_batch`); the merges are barriers, so
every phase's wall clock is the slowest shard's, and the ``merge`` phase
adds the host-side work (per-shard shortlist transfer over each shard's
host link in parallel, then one serial merge kernel).
:meth:`~repro.core.api.BatchSearchResult.phase_seconds` still decomposes
the wall clock exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.blocks import float32_rows
from repro.ann.distances import hamming_packed
from repro.ann.ivf import IvfModel
from repro.core.batch import (
    BatchExecution,
    BatchExecutor,
    BatchRun,
    BatchStats,
    FineTable,
    _phase_timer,
    broadcast_queries,
    coarse_scan,
    fine_finish,
    fine_scan,
)
from repro.core.costing import BatchPhaseBreakdown, compose_batch
from repro.core.layout import DeployedDatabase, deployment_order
from repro.core.plan import (
    STAT_ROW,
    QueryPlan,
    ReisQueryResult,
    build_query_plan,
    resolve_nprobe,
    search_stats,
)
from repro.rag.documents import Corpus, DocumentChunk
from repro.sim.latency import LatencyReport
from repro.sim.unique import sorted_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import InStorageAnnsEngine
    from repro.host.profile import HostProfile

#: Barriers a shard can be scheduled to die at, in pipeline order.  A kill
#: at barrier X means the shard's output for phase X is lost before the
#: router consumes it; everything the shard shipped at earlier barriers
#: stays usable.
KILL_BARRIERS = ("coarse", "fine", "rerank", "document")


class ShardUnavailableError(RuntimeError):
    """A batch cannot be served: a probed cluster has no live replica.

    Raised instead of partial results -- the router never silently drops a
    shard's slice.  ``cluster`` names the first probed cluster with zero
    live owners; ``None`` when no live shard is left to serve at all.
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
    """The placement table: how one corpus is split across N shards, and
    which shard may serve and take writes for what.

    ``shard_vectors[s]`` holds the global ids of shard ``s``'s deployed
    piece in ascending order -- the order its deployer received them, so a
    shard-local original index maps back through it.  ``shard_clusters[s]``
    is the piece's centroid *layout* (ascending global cluster ids; a
    position is a local cluster id).  ``global_slot[v]`` is the slot vector
    ``v`` would occupy on a *single* device deploying the live corpus (the
    canonical layout; -1 for a deleted id), which is the scan-order
    tie-break key the router merges shortlists with.

    ``cluster_owners[c]`` lists the R shards that own cluster ``c`` --
    primary first, -1 in the slots a demotion freed -- and is the one
    authority on serving: a copy of id ``g`` on shard ``s`` is servable iff
    ``s`` owns ``g``'s cluster.  A shard may hold a cluster it no longer
    owns (a migration's source keeps its layout; a demoted shard missed
    writes): those copies are neither served nor written.

    The table is frozen.  Every edit -- :meth:`move`, :meth:`append`,
    :meth:`demote` -- returns a new one.
    """

    n_shards: int
    shard_vectors: List[np.ndarray]  # per shard: global ids, ascending
    shard_clusters: List[np.ndarray]  # per shard: deployed global cluster ids
    global_slot: np.ndarray  # (n,) canonical single-device slot, -1 = deleted
    cluster_of_vector: np.ndarray  # (n,) global cluster
    cluster_owners: np.ndarray  # (nlist, R) shards, -1 = none

    @property
    def replication_factor(self) -> int:
        return int(self.cluster_owners.shape[1])

    @property
    def live(self) -> np.ndarray:
        """(n,) mask of the ids not deleted."""
        return self.global_slot >= 0

    def shard_sizes(self) -> np.ndarray:
        return np.array([v.size for v in self.shard_vectors], dtype=np.int64)

    def owners_of(self, cluster: int) -> List[int]:
        """Shards allowed to serve ``cluster`` (primary first)."""
        row = self.cluster_owners[int(cluster)]
        return row[row >= 0].tolist()

    def live_owners(self, failed: Sequence[int]) -> np.ndarray:
        """The owner table with every ``failed`` shard's slot -1."""
        alive = ~np.zeros(self.n_shards + 1, dtype=bool)
        alive[list(failed)] = False
        alive[-1] = False  # what a -1 slot indexes
        return np.where(alive[self.cluster_owners], self.cluster_owners, -1)

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

    # ------------------------------------------------------------- edits

    def move(self, cluster: int, src: int, dst: int) -> "ShardAssignment":
        """``cluster``'s ownership passes from ``src`` to ``dst``, which takes
        ``src``'s slot (a primary stays primary).  ``dst``'s layout becomes
        the sorted union of its clusters and ``cluster``, and its piece every
        live member of that layout: what :func:`shard_ivf_model` builds."""
        owners = self.cluster_owners.copy()
        owners[cluster][owners[cluster] == src] = dst
        layout = np.union1d(self.shard_clusters[dst], [cluster]).astype(np.int64)
        piece = np.flatnonzero(np.isin(self.cluster_of_vector, layout) & self.live)
        return replace(
            self, cluster_owners=owners,
            shard_clusters=_set(self.shard_clusters, dst, layout),
            shard_vectors=_set(self.shard_vectors, dst, piece),
        )

    def append(
        self, clusters: np.ndarray, added: Dict[int, List[int]], live: np.ndarray
    ) -> "ShardAssignment":
        """One committed ingest group: the new ids' ``clusters``, each
        shard's ``added`` ids after its list (local positions are stable;
        deleted ids stay), and ``global_slot`` re-derived over ``live``."""
        cluster_of = np.concatenate([self.cluster_of_vector, clusters])
        order = scan_order(live, cluster_of)
        global_slot = np.full(live.size, -1, dtype=np.int64)
        global_slot[order] = np.arange(order.size, dtype=np.int64)
        return replace(
            self, cluster_of_vector=cluster_of, global_slot=global_slot,
            shard_vectors=[
                np.concatenate([mine, np.array(added[s], dtype=np.int64)])
                if s in added else mine
                for s, mine in enumerate(self.shard_vectors)
            ],
        )

    def demote(self, clusters: Sequence[int], shards: Sequence[int]) -> "ShardAssignment":
        """Strike ``shards`` from the owners of ``clusters`` (dead owners a
        commit passed over): the rest keep their order, the freed slots go
        -1 at the end of the row."""
        owners = self.cluster_owners.copy()
        rows = owners[clusters]
        rows[np.isin(rows, shards)] = -1
        owners[clusters] = np.take_along_axis(
            rows, np.argsort(rows < 0, axis=1, kind="stable"), axis=1
        )
        return replace(self, cluster_owners=owners)


def _set(items: List[np.ndarray], at: int, value: np.ndarray) -> List[np.ndarray]:
    return [value if i == at else item for i, item in enumerate(items)]


def scan_order(live: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """Live global ids in canonical single-device scan order: by cluster,
    ascending id within each."""
    ids = np.flatnonzero(live)
    return ids[np.lexsort((ids, cluster_of[ids]))]


def check_cluster_shape(n_shards: int, replication_factor: int) -> None:
    """Reject a shard count / replication combination no corpus could be
    placed under (what is knowable before a model exists)."""
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if replication_factor < 1:
        raise ValueError("replication_factor must be at least 1")
    if replication_factor > n_shards:
        raise ValueError(
            f"replication_factor {replication_factor} exceeds {n_shards} shards"
        )


def plan_placement(
    n: int,
    n_shards: int,
    ivf_model: IvfModel,
    replication_factor: int = 1,
) -> ShardAssignment:
    """Place the ``n`` vectors of ``ivf_model``'s clusters on ``n_shards``.

    Whole clusters go greedily -- largest first (ties by id), each to the
    R = ``replication_factor`` currently lightest distinct shards (ties by
    shard id), primary first, charging the cluster's size to every owner
    -- so a probed cluster's centroid and members live on its owners only
    and centroid scans divide.  Each owner holds a full copy (SPANN-style
    posting-list replicas), so the router can pick one replica per probed
    cluster per batch and fail over to a survivor when an owner dies.  The
    plan is a deterministic function of its inputs.
    """
    check_cluster_shape(n_shards, replication_factor)
    if ivf_model is None:
        raise ValueError("placement needs an IVF model: clusters are its unit")
    cluster_of = np.empty(n, dtype=np.int64)
    for cluster, members in enumerate(ivf_model.lists):
        cluster_of[members] = cluster
    sizes = ivf_model.cluster_sizes()
    order = sorted(range(ivf_model.nlist), key=lambda c: (-sizes[c], c))
    load = [0] * n_shards
    owners: List[List[int]] = [[] for _ in range(ivf_model.nlist)]
    for cluster in order:
        picks = sorted(range(n_shards), key=lambda s: (load[s], s))
        owners[cluster] = picks[:replication_factor]
        for shard in owners[cluster]:
            load[shard] += int(sizes[cluster])
    cluster_owners = np.array(owners, dtype=np.int64).reshape(
        ivf_model.nlist, replication_factor
    )
    shard_clusters = [
        np.flatnonzero((cluster_owners == s).any(axis=1)) for s in range(n_shards)
    ]
    order = deployment_order(n, ivf_model)
    global_slot = np.empty(n, dtype=np.int64)
    global_slot[order] = np.arange(n, dtype=np.int64)
    return ShardAssignment(
        n_shards=n_shards,
        # A shard holds the full membership of every cluster it owns, in
        # ascending global order.
        shard_vectors=[
            np.flatnonzero(np.isin(cluster_of, owned)) for owned in shard_clusters
        ],
        shard_clusters=shard_clusters,
        global_slot=global_slot,
        cluster_of_vector=cluster_of,
        cluster_owners=cluster_owners,
    )


def shard_ivf_model(
    ivf_model: IvfModel, assignment: ShardAssignment, shard: int
) -> IvfModel:
    """Shard ``shard``'s local IVF model: its layout's centroids, with lists
    holding shard-local vector indices (positions within
    ``assignment.shard_vectors[shard]``).

    Membership comes from ``cluster_of_vector``, so it covers ingested ids;
    a shard holds the full membership of every cluster in its layout.
    Local cluster ids are positions within the shard's (ascending) layout,
    so local scan order stays consistent with global cluster ids -- the
    coarse-merge tie-break key.
    """
    owned = assignment.shard_clusters[shard]
    clusters = assignment.cluster_of_vector[assignment.shard_vectors[shard]]
    return IvfModel(
        centroids=ivf_model.centroids[owned].copy(),
        lists=[np.flatnonzero(clusters == c) for c in owned.tolist()],
    )


# --------------------------------------------------------- logical database


@dataclass
class ShardedDatabase:
    """One logical database deployed across N shard devices.

    ``assignment`` is its placement table; ``shard_dbs[s]`` is the piece
    shard ``s`` deployed under it (``None`` for a shard holding nothing).
    """

    db_id: int
    name: str
    n_entries: int
    dim: int
    assignment: ShardAssignment
    shard_dbs: List[Optional[DeployedDatabase]]  # None for empty shards
    shard_db_ids: List[Optional[int]]
    ivf_model: IvfModel
    corpus: Optional[Corpus] = field(default=None, repr=False)
    metadata_tags: Optional[np.ndarray] = field(default=None, repr=False)
    # Host mirrors every piece is (re)materialized from -- at deploy and
    # when a migration redeploys a destination (the deployed codecs are
    # deterministic, so re-encoding is bit-identical to copying pages) --
    # with the same globally-fit codecs and growth headroom.  Ingest
    # commits extend them.
    vectors: Optional[np.ndarray] = field(default=None, repr=False)
    codecs: Optional[object] = field(default=None, repr=False)
    growth_entries: int = 0

    is_ivf = True  # every sharded database is an IVF deployment

    @property
    def n_clusters(self) -> int:
        return self.ivf_model.nlist

    @property
    def has_metadata(self) -> bool:
        return self.metadata_tags is not None

    @property
    def active_shards(self) -> List[int]:
        """Shards that actually hold a deployed piece of this database."""
        return [s for s, db in enumerate(self.shard_dbs) if db is not None]

    def document_chunks(self, global_ids: np.ndarray) -> List[DocumentChunk]:
        """The globally-identified chunks of vector ids, in one pass.

        Shards store chunk payloads under shard-local ids; the router
        restores the global identity here (from the logical corpus, or the
        deployer's synthetic ``chunk-<id>`` text when none was supplied),
        so sharded results carry exactly the chunks a single device would.
        """
        ids = global_ids.tolist()
        if self.corpus is not None:
            return [self.corpus[global_id] for global_id in ids]
        return DocumentChunk.decoded(ids, list(map("chunk-{}".format, ids)))


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
    """One shard's :class:`~repro.core.batch.BatchRun` of a batch (its
    plan trims ``nprobe`` to the centroids it owns).  A shard may also host
    a *failover* run re-executing a dead shard's slice (failover runs
    follow the primaries in ``_BatchState.runs``); a ``dead`` run lost its
    output at a barrier and stays listed only for provenance."""

    shard: int
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
    cluster_sizes: np.ndarray  # members per global cluster (election key)
    # Cluster -> serving shard for this batch, -1 where not (yet) elected.
    serving: np.ndarray
    runs: List[_ShardRun] = field(default_factory=list)
    # The fine phase's tables: the primaries', then a failover's.
    tables: List[FineTable] = field(default_factory=list)
    # The probe table, stacked query-major in rank order: row i says query
    # ``probe_queries[i]`` probes global cluster ``probe_clusters[i]``.
    probe_queries: np.ndarray = field(default_factory=_no_rows)
    probe_clusters: np.ndarray = field(default_factory=_no_rows)
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

    def shard_of_runs(self) -> np.ndarray:
        """The shard of every run, by run index."""
        return np.array([run.shard for run in self.runs])

    def query_bounds(self, query_column: np.ndarray) -> np.ndarray:
        """Segment bounds of a sorted query column (one cut per query)."""
        return query_column.searchsorted(np.arange(self.n_queries + 1))

    def head_of_each_query(self, query_column: np.ndarray, limit: int) -> np.ndarray:
        """Mask of the first ``limit`` rows of every query's segment."""
        first = self.query_bounds(query_column)[:-1]
        return np.arange(query_column.size) - first[query_column] < limit


@dataclass
class _MergedShortlist:
    """The batch's merged global shortlists, query-major in global rank
    order: query, global id, the index of the :class:`_ShardRun` holding
    the candidate and its shard-local RADR / DADR there."""

    queries: np.ndarray
    gids: np.ndarray
    run_index: np.ndarray
    radrs: np.ndarray
    dadrs: np.ndarray

    def take(self, rows: np.ndarray) -> "_MergedShortlist":
        return _MergedShortlist(*(column[rows] for column in vars(self).values()))


@dataclass
class _RankedWinners:
    """The batch's global top-k lists, query-major in rank order: query,
    global id, INT8 distance and where the document lives (``shards`` /
    shard-local ``dadrs``, rewritten when a document fails over).
    ``bounds`` cuts the per-query segments."""

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

    A batch in flight is a table, not a grid of (shard, query) cells: each
    phase kernel runs once per barrier over every live shard's (shard,
    plane, page) tasks, and every barrier between them is one pass over
    the stacked columns.  Each drive keeps its own planes, cache, DRAM,
    core and ledgers; replica election, re-homing and failover billing
    stay per shard: the modeled clock needs them.
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
        """Bring a killed shard back.  It serves again exactly the clusters
        it still owns: every commit that wrote a cluster while the shard
        was dead demoted it from that cluster's owners (its copies there
        are stale), and only a migration back onto it
        (:meth:`~repro.core.api.ShardedReisDevice.migrate_cluster`)
        re-materializes them."""
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

    def _shard_loads(self) -> Sequence[float]:
        if self.load_source is not None:
            return self.load_source()
        return self.shard_busy_s

    def _live_shards(self, sdb: ShardedDatabase) -> List[int]:
        """The live shards holding a deployed piece of ``sdb``."""
        return [s for s in sdb.active_shards if s not in self.failed_shards]

    def resolve_anchor(self, sdb: ShardedDatabase) -> int:
        """The first *live* shard holding a deployed piece -- the anchor
        host paths (queue forming, codec lookups) resolve through instead
        of hard-coding shard 0, which may be drained or dead."""
        live = self._live_shards(sdb)
        if not live:
            raise ShardUnavailableError(
                None, f"database {sdb.db_id} has no live deployed shard"
            )
        return live[0]

    def _down_clusters(self, sdb: ShardedDatabase) -> np.ndarray:
        """Clusters with zero live owners (their pages are unreachable)."""
        live = sdb.assignment.live_owners(self.failed_shards)
        return np.logical_and.reduce(live < 0, axis=1).nonzero()[0]

    # ------------------------------------------------------------ plumbing

    def forming_views(
        self, sdb: ShardedDatabase, clusters: np.ndarray
    ) -> List[Tuple[int, "InStorageAnnsEngine", DeployedDatabase, np.ndarray]]:
        """The deployment as a :class:`~repro.core.queue.BatchFormer` sees it.

        One ``(shard, engine, local db, local cluster ids)`` view per live
        shard holding a piece; the local ids have the shape of the global
        ``clusters`` array.  Of those a shard is expected to scan the ones
        the router would have it *serve* -- those it is the first live
        owner of -- and its entry is -1 for the rest.
        """
        assignment = sdb.assignment
        live = assignment.live_owners(self.failed_shards)
        serving = live[np.arange(len(live)), np.argmax(live >= 0, axis=1)]
        clusters = np.asarray(clusters, dtype=np.intp)
        views = []
        for shard in self._live_shards(sdb):
            position = np.full(sdb.n_clusters, -1, dtype=np.intp)
            mine = assignment.shard_clusters[shard]
            position[mine] = np.arange(len(mine))
            local = np.where(serving[clusters] == shard, position[clusters], -1)
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

        Built against the first live shard (every shard runs the same
        stages); ``nprobe`` is the *global* probe count (a shard's own plan
        trims it to the centroids it holds) and ``merge_fan_in`` -- the
        live shards holding a piece, each shipping shortlists -- puts a
        ``merge`` stage between the fine search and the rerank.
        """
        anchor = self.resolve_anchor(sdb)
        plan = build_query_plan(
            self.engines[anchor], sdb.shard_dbs[anchor], k, nprobe,
            fetch_documents, metadata_filter,
        )
        return replace(
            plan,
            nprobe=resolve_nprobe(sdb.n_clusters, nprobe),
            merge_fan_in=len(self._live_shards(sdb)),
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

        Shards in ``failed_shards`` serve nothing; a scheduled mid-batch
        death (:meth:`schedule_failure`) fires at its barrier and the dead
        shard's serving slice re-executes on surviving replicas.  The batch
        completes bit-identical to a healthy single device or raises
        :class:`ShardUnavailableError` -- never partial results.
        ``host_profile`` times the router's steps under the device
        executor's phase names (``fine`` includes the shortlist merge).
        """
        queries = float32_rows(queries)
        n_queries = queries.shape[0]
        if not sdb.active_shards:
            raise ValueError("database has no deployed shards")
        if n_queries == 0:
            return BatchExecution(
                results=[], report=LatencyReport(), stats=BatchStats()
            )
        with _phase_timer(host_profile, "prepare"):
            state = _BatchState(
                sdb=sdb, queries=queries, k=k,
                # Global: each shard's plan trims it to the centroids it holds.
                nprobe=resolve_nprobe(sdb.n_clusters, nprobe),
                fetch_documents=fetch_documents,
                metadata_filter=metadata_filter,
                shipped=np.zeros(self.n_shards, dtype=np.int64),
                cluster_sizes=np.bincount(
                    sdb.assignment.cluster_of_vector, minlength=sdb.n_clusters
                ),
                serving=np.full(sdb.n_clusters, -1, dtype=np.int64),
            )
            self.resolve_anchor(sdb)  # raises when no deployed shard is live
            state.runs = [self._make_run(state, s) for s in self._live_shards(sdb)]
        with _phase_timer(host_profile, "ibc"):
            broadcast_queries(state.runs)
        with _phase_timer(host_profile, "coarse"):
            self._coarse_barrier(state)
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
        run = self.executors[shard].prepare(
            state.sdb.shard_dbs[shard], state.queries, state.k, state.nprobe,
            state.fetch_documents, state.metadata_filter,
        )
        return _ShardRun(**vars(run), shard=shard, failover=failover)

    def _elect(self, state: _BatchState, clusters: np.ndarray) -> np.ndarray:
        """Pick each of ``clusters``' serving replica, in the order given,
        into ``state.serving``, and return the picks: the least-loaded live
        owner (cumulative busy seconds, then vectors already assigned in
        this round, then shard id).  The load decides most clusters in one
        vectorized pick; only clusters whose live owners tie on the least
        load are walked, in order, against the vectors every earlier pick
        assigned.  Disjoint serving sets keep the downstream merge keys a
        total order, so replica choice never changes results."""
        owners = state.sdb.assignment.live_owners(self.failed_shards)[clusters]
        # A -1 slot indexes the trailing +inf: a dead owner never wins.
        owner_load = np.array([*self._shard_loads(), math.inf])[owners]
        least_load = np.minimum.reduce(owner_load, axis=1, keepdims=True)
        down = least_load[:, 0] == math.inf
        if down.any():  # elect up to the first cluster with no live owner
            first = int(down.argmax())
            self._elect(state, clusters[:first])
            raise ShardUnavailableError(int(clusters[first]))
        least = owner_load == least_load
        picks = owners[np.arange(len(owners)), least.argmax(axis=1)]
        tied = (np.add.reduce(least, axis=1) > 1).nonzero()[0].tolist()
        if tied:
            sizes = state.cluster_sizes[clusters]
            assigned = np.zeros(self.n_shards, dtype=np.int64)
            done = 0
            for i in tied:
                np.add.at(assigned, picks[done:i], sizes[done:i])
                candidates = owners[i][least[i]]
                picks[i] = min(zip(assigned[candidates].tolist(), candidates.tolist()))[1]
                done = i
        state.serving[clusters] = picks
        return picks

    def _hand_out_probes(
        self, state: _BatchState, run: _ShardRun, mine: np.ndarray
    ) -> None:
        """Give ``run`` the rows of the probe table selected by the mask
        ``mine``: every query's clusters, as the shard's local ids in
        global rank order."""
        owned = state.sdb.assignment.shard_clusters[run.shard]
        position = np.zeros(state.sdb.n_clusters, dtype=np.int64) - 1
        position[owned] = np.arange(len(owned))
        local = position[state.probe_clusters]
        mine = mine & (local >= 0)
        run.probes = (state.probe_queries[mine], local[mine])

    def _spawn_replacements(
        self,
        state: _BatchState,
        dead: int,
        through: str,
        members: Optional[np.ndarray] = None,
    ) -> Optional[FineTable]:
        """Re-execute the dead shard's serving slice on surviving replicas.

        The slice is every cluster the dead shard was serving, or only the
        clusters holding ``members`` (global ids).  Each lost cluster goes
        to its least-loaded live owner; the chosen shards get failover runs
        (IBC + one filtered fine table over exactly the lost clusters of
        each query's probe set) and, ``through="finish"``, the recorded
        retry and shortlist selection -- bit-for-bit what the dead shard
        would have shipped.  Returns the table (None when nothing was
        lost); :class:`ShardUnavailableError` names a cluster with no live
        owner.
        """
        lost = np.flatnonzero(state.serving == dead)
        if members is not None:
            holding = state.sdb.assignment.cluster_of_vector[members]
            lost = lost[np.isin(lost, holding)]
        # Elected in ascending cluster order: the load key sees the same
        # sequence of assignments every time.
        picks = self._elect(state, lost)
        if not picks.size:
            return None
        runs = [
            self._make_run(state, shard, failover=True)
            for shard in np.unique(picks).tolist()
        ]
        broadcast_queries(runs)
        for run in runs:
            self._hand_out_probes(
                state, run, np.isin(state.probe_clusters, lost[picks == run.shard])
            )
        state.runs += runs
        table = fine_scan(runs)
        if through == "finish":
            fine_finish(table, state.retry_indices)
        return table

    def _coarse_barrier(self, state: _BatchState) -> None:
        """One coarse kernel over every shard -> the merged global probe
        table, rank order.

        Each (shard, query) row holds its top ``min(nprobe, local nlist)``
        centroids; the router maps them to global cluster ids, merges with
        one sort by (query, distance, global cluster id) -- the
        single-device selection key -- dedupes replicas (replicated
        centroids tie exactly: a first-seen dedupe keeps one), cuts every
        query to ``nprobe``, elects one *serving* replica per probed
        cluster (least-loaded live owner, in first-probed order) and hands
        each serving shard its local ids of its clusters.

        A shard dying here loses its whole coarse block.  Clusters whose
        every owner is down are reconstructed host-side (the coarse
        distance is the Hamming distance of the shared quantizer's codes)
        and merged in; :class:`ShardUnavailableError` is raised iff one
        wins a probe slot, exactly when results would diverge from a
        healthy device.
        """
        sdb, n_queries = state.sdb, state.n_queries
        runs = state.live_runs()
        block, bounds = coarse_scan(runs)
        self._kill_at(state, "coarse")
        shard_of_row, queries = np.divmod(
            np.arange(len(runs) * n_queries).repeat(bounds[1:] - bounds[:-1]), n_queries
        )
        layouts = [sdb.assignment.shard_clusters[run.shard] for run in runs]
        starts = np.array([0] + [len(layout) for layout in layouts]).cumsum()
        clusters = np.concatenate(layouts).astype(np.int64)[
            starts[shard_of_row] + block.eadrs
        ]
        kept = np.array([not run.dead for run in runs])[shard_of_row]
        state.shipped += np.bincount(
            np.array([run.shard for run in runs])[shard_of_row[kept]],
            minlength=self.n_shards,
        )
        queries, dists, clusters = [queries[kept]], [block.dists[kept]], [clusters[kept]]

        # Clusters with zero live owners: reconstruct their coarse
        # candidates host-side so the probe decision stays exact.
        down = self._down_clusters(sdb)
        if down.size:
            live = state.live_runs()[0]
            codes = live.db.binary_quantizer.encode(np.asarray(sdb.ivf_model.centroids)[down])
            queries.append(np.repeat(np.arange(n_queries), down.size))
            dists.append(hamming_packed(live.codes, codes).ravel())
            clusters.append(np.tile(down, n_queries))

        queries = np.concatenate(queries)
        clusters = np.concatenate(clusters)
        order = merge_order(queries, np.concatenate(dists), clusters)
        queries, clusters = queries[order], clusters[order]
        first = sorted_unique(queries * sdb.n_clusters + clusters)[1]
        first.sort()
        queries, clusters = queries[first], clusters[first]
        probed = state.head_of_each_query(queries, state.nprobe)
        state.probe_queries, state.probe_clusters = queries[probed], clusters[probed]
        lost = np.isin(state.probe_clusters, down) if down.size else [False]
        if np.logical_or.reduce(lost):
            raise ShardUnavailableError(int(state.probe_clusters[lost.argmax()]))

        # One serving replica per probed cluster, batch-wide.
        distinct, first, _ = sorted_unique(state.probe_clusters)
        self._elect(state, distinct[first.argsort()])
        serving = state.serving[state.probe_clusters]
        for run in state.live_runs():
            self._hand_out_probes(state, run, serving == run.shard)

    def _fine_barrier(self, state: _BatchState) -> None:
        """One filtered fine kernel over every shard, then the cluster-wide
        retry: summed survivor and candidate counts decide, as one device
        scanning the whole corpus would, and a retry rescans every shard.

        A shard dying here loses its fine output before the decision; its
        serving clusters reroute to surviving replicas (whole-cluster
        copies rescan the same slice bit-identically), so the counts -- and
        the decision -- match the healthy device exactly.
        """
        table = fine_scan(state.live_runs())
        state.tables = [table]
        dead = self._kill_at(state, "fine")
        if dead is not None:
            for run in table.runs:
                if run.dead:
                    table.drop(run)
            replacement = self._spawn_replacements(state, dead, through="scan")
            if replacement is not None:
                state.tables.append(replacement)
        runs = state.live_runs()
        survivors = sum(
            t.ttl.sizes.reshape(len(t.runs), -1)[t.live].sum(axis=0) for t in state.tables
        )
        candidates = sum(t.candidates[t.live].sum(axis=0) for t in state.tables)
        state.retry_indices = runs[0].engine.fine_retries(
            survivors, candidates, table.threshold, runs[0].plan.shortlist_size
        )
        for t in state.tables:
            fine_finish(t, state.retry_indices)

    def _stack_shortlists(
        self, state: _BatchState, table: Optional[FineTable]
    ) -> Tuple[_MergedShortlist, np.ndarray]:
        """The finished shortlists of ``table`` as one table with
        provenance (absolute run indices in ``state.runs``), and its
        distance column."""
        if table is None:
            return _MergedShortlist(*[_no_rows()] * 5), _no_rows()
        n_queries = state.n_queries
        block, bounds = table.shortlist, table.bounds
        shard_of_row, queries = np.divmod(
            np.arange(bounds.size - 1).repeat(bounds[1:] - bounds[:-1]), n_queries
        )
        cuts = bounds[::n_queries].tolist()
        gids = np.concatenate([_no_rows()] + [
            state.sdb.assignment.global_ids(run.shard, run.db, block.radrs[lo:hi])
            for run, lo, hi in zip(table.runs, cuts, cuts[1:])
        ])
        index = np.array([state.runs.index(run) for run in table.runs])
        return _MergedShortlist(
            queries, gids, index[shard_of_row], block.radrs, block.dadrs
        ), block.dists

    def _shortlist_barrier(self, state: _BatchState) -> _MergedShortlist:
        """Merge every shard's shortlists into the global rescoring
        shortlists: one sort by (query, Hamming distance, probe rank,
        canonical slot) and one cut.  Each shard's local top-S contains its
        members of the global top-S, and serving sets are disjoint per
        cluster, so the key is a total order and the head of every query
        *is* the single-device shortlist.  ``run_index`` indexes
        ``state.runs``, where dead runs stay so provenance survives."""
        sdb = state.sdb
        assignment = sdb.assignment
        stacks = [self._stack_shortlists(state, table) for table in state.tables]
        table = _MergedShortlist(*(
            np.concatenate(column)
            for column in zip(*[vars(merged).values() for merged, _ in stacks])
        ))
        dists = np.concatenate([dists for _, dists in stacks])
        state.shipped += np.bincount(
            state.shard_of_runs()[table.run_index], minlength=self.n_shards
        )
        rank_of = np.full((state.n_queries, sdb.n_clusters), -1, dtype=np.int64)
        rank_of[state.probe_queries, state.probe_clusters] = np.arange(
            state.probe_queries.size
        )
        order = merge_order(
            table.queries, dists,
            rank_of[table.queries, assignment.cluster_of_vector[table.gids]],
            assignment.global_slot[table.gids],
        )
        # Every shard plans the same unclamped shortlist_factor * k.
        return table.take(order[
            state.head_of_each_query(
                table.queries[order], state.live_runs()[0].plan.shortlist_size
            )
        ])

    def _rehome(
        self,
        state: _BatchState,
        dead: int,
        queries: np.ndarray,
        gids: np.ndarray,
    ) -> _MergedShortlist:
        """Find candidates stranded on a dead shard a new home on a replica.

        ``(queries[i], gids[i])`` lost its shard-local state with ``dead``.
        Their clusters re-execute on surviving replicas (fine scan + the
        recorded retry + finish): a global-top-S member of cluster c is in
        the local top-S of *any* run scanning a probe subset containing c.
        Returns each candidate's row of the replacements' stacked
        shortlists (first match in run order), with its run index and
        replica-local addresses.
        """
        homes, _dists = self._stack_shortlists(
            state,
            self._spawn_replacements(state, dead, "finish", gids) if gids.size else None,
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
        return homes.take(by_key[at])

    def _rerank_barrier(
        self,
        state: _BatchState,
        shortlist: _MergedShortlist,
    ) -> _RankedWinners:
        """One INT8 rerank kernel over every shard's members of the global
        shortlists (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch`,
        cells (shard, query)), merged by (query, INT8 distance, global
        shortlist position) -- the single device's stable order -- and cut
        to k.

        A shard dying here loses its rerank output: the entries it held
        are re-homed (:meth:`_rehome`) and rerank on the replacements.
        INT8 codes are replica-identical and positions never move, so the
        merge is bit-identical.
        """
        dead = self._kill_at(state, "rerank")
        if dead is not None:
            dead_idxs = [
                i for i, run in enumerate(state.runs)
                if run.dead and run.shard == dead
            ]
            stranded = np.flatnonzero(np.isin(shortlist.run_index, dead_idxs))
            home = self._rehome(
                state, dead, shortlist.queries[stranded], shortlist.gids[stranded]
            )
            for name in ("run_index", "radrs", "dadrs"):
                getattr(shortlist, name)[stranded] = getattr(home, name)
        runs = state.live_runs()  # raises when the kill left nobody to rerank
        live = [i for i, run in enumerate(state.runs) if not run.dead]
        position = np.full(len(state.runs), -1, dtype=np.int64)
        position[live] = np.arange(len(live))
        shards = state.shard_of_runs()
        state.shipped += np.bincount(shards[shortlist.run_index], minlength=self.n_shards)
        cells = position[shortlist.run_index] * state.n_queries + shortlist.queries
        by_cell = cells.argsort(kind="stable")
        order, refined = runs[0].engine._rerank_batch(
            runs, state.queries, cells[by_cell],
            shortlist.radrs[by_cell], shortlist.dadrs[by_cell],
        )
        positions, dists = by_cell[order], refined[order]
        queries = shortlist.queries[positions]
        merged = merge_order(queries, dists, positions)
        merged = merged[state.head_of_each_query(queries[merged], state.k)]
        winners = positions[merged]
        return _RankedWinners(
            queries=queries[merged],
            gids=shortlist.gids[winners],
            dists=dists[merged],
            shards=shards[shortlist.run_index[winners]],
            dadrs=shortlist.dadrs[winners],
            bounds=state.query_bounds(queries[merged]),
        )

    def _document_barrier(
        self,
        state: _BatchState,
        ranked: _RankedWinners,
    ) -> List[DocumentChunk]:
        """Fetch the winners' documents from their owning shards, one
        kernel (:meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`):
        a page several queries share is materialized once per shard while
        every query is billed its own senses.  The chunks come from the
        logical database by global id (:meth:`ShardedDatabase.document_chunks`),
        stacked like ``ranked`` (empty when documents are not fetched).

        A shard dying here loses its document reads: :meth:`_rehome` finds
        each winner's replica-local DADR in a replacement's shortlist row,
        ``shards`` / ``dadrs`` are rewritten in place and the fetch goes to
        the replicas (document bytes are replica-identical).
        """
        dead = self._kill_at(state, "document")
        if dead is not None and state.fetch_documents:
            stranded = np.flatnonzero(ranked.shards == dead)
            home = self._rehome(
                state, dead, ranked.queries[stranded], ranked.gids[stranded]
            )
            ranked.shards[stranded] = state.shard_of_runs()[home.run_index]
            ranked.dadrs[stranded] = home.dadrs
        runs = state.live_runs()
        if not state.fetch_documents:
            return []
        # A shard can host two runs (primary + failover): the fetch goes
        # through the shard's first live run holding winners.
        serving: Dict[int, _ShardRun] = {}
        for run in runs:
            serving.setdefault(run.shard, run)
        holding = set(ranked.shards.tolist())
        fetching = [run for shard, run in serving.items() if shard in holding]
        position = np.full(self.n_shards, -1, dtype=np.int64)
        position[[run.shard for run in fetching]] = np.arange(len(fetching))
        cells = position[ranked.shards] * state.n_queries + ranked.queries
        by_cell = cells.argsort(kind="stable")
        if fetching:
            fetching[0].engine._fetch_documents_batch(
                fetching, cells[by_cell], ranked.dadrs[by_cell]
            )
        return state.sdb.document_chunks(ranked.gids)

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
        devices = [run.bill() for run in runs]
        first_failover = sum(not run.failover for run in runs)
        latencies, report, phases, device_seconds = compose_batch(
            devices[:first_failover], devices[first_failover:],
            self._merge_breakdown(state.shipped),
        )
        # The retry and the probed clusters are decided once per cluster.
        counts = np.add.reduce([run.counts for run in runs])
        counts[STAT_ROW.filter_retries] = 0
        counts[STAT_ROW.filter_retries, state.retry_indices] = 1
        counts[STAT_ROW.clusters_probed] = np.bincount(
            state.probe_queries, minlength=n_queries
        )
        bounds = ranked.bounds.tolist()
        cuts = list(zip(bounds, bounds[1:]))
        results = [
            ReisQueryResult(
                ids=ranked.gids[lo:hi], distances=ranked.dists[lo:hi],
                documents=documents[lo:hi], latency=latency, stats=stats,
            )
            for (lo, hi), latency, stats in zip(cuts, latencies, search_stats(counts))
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
                cache_hits=int(np.add.reduce(counts[STAT_ROW.cache_hits])),
            ),
            shard_seconds=shard_seconds,
        )
