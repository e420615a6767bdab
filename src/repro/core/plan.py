"""Query plans: the *what* of an in-storage search, separated from the *how*.

The REIS search pipeline has five phases (Sec. 4.3): IBC broadcast,
coarse search, fine search, reranking, and document identification.
Every serving entry point -- a solo ``search``, a device batch, a queue,
the shard router -- serves one ``(k, nprobe, metadata_filter,
fetch_documents)`` per batch, so a batch executes **one**
:class:`QueryPlan`: a frozen record of those parameters, resolved
against the database (:func:`build_query_plan`), from which the stage
list is derived (:meth:`QueryPlan.stage_names`).  The batch executor
(:mod:`repro.core.batch`) runs the phases the record names; each
device's share of a batch lives in a
:class:`~repro.core.batch.BatchRun`, and each phase bills one
:class:`~repro.core.costing.PhaseLedger` whose visit table is what lets
the batch costing amortize senses across queries while every query keeps
the solo latency report of an otherwise-idle device
(:func:`~repro.core.costing.compose_batch`).

The page-service schedule of a scan phase is array data too:
:func:`schedule_order` orders a phase's page demands and
:func:`schedule_senses` marks which of them really sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ann.blocks import row_blocks
from repro.rag.documents import DocumentChunk
from repro.sim.latency import LatencyReport
from repro.sim.unique import sorted_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (both import us)
    from repro.core.engine import InStorageAnnsEngine
    from repro.core.layout import DeployedDatabase


class SearchStats(NamedTuple):
    """Operational statistics for one query (drives tests and ablations).

    While a batch runs, every query's record is one column of its run's
    count table (:func:`count_table`, row ``STAT_ROW.<field>``); the
    records are built from the finished table (:func:`search_stats`).
    """

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


#: The row of each :class:`SearchStats` field in a count table.
STAT_ROW = SearchStats(*range(len(SearchStats._fields)))


def count_table(n_queries: int) -> np.ndarray:
    """An empty count table: one ``int64`` row per :class:`SearchStats`
    field, in field order, and one column per query.  Every field is a
    count of work done, so tables of the devices that served a batch add."""
    return np.zeros((len(STAT_ROW), n_queries), dtype=np.int64)


def search_stats(table: np.ndarray) -> List[SearchStats]:
    """Every column of a count table as its query's record, built in C."""
    return list(map(tuple.__new__, repeat(SearchStats), table.T.tolist()))


@dataclass
class ReisQueryResult:
    """The outcome of one in-storage search."""

    ids: np.ndarray  # original dataset ids, distance-ordered
    distances: np.ndarray  # INT8-refined distances
    documents: List[DocumentChunk]
    latency: LatencyReport
    stats: SearchStats = SearchStats()

    @property
    def k(self) -> int:
        return int(self.ids.size)


def schedule_order(
    pages: np.ndarray,
    optimize: bool,
    first_demand: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Service order for a page-demand array (the caller's, unoptimized).

    The optimized order groups requests stably by page, pages in
    first-demand order -- identical to sorting by a first-seen dict rank,
    computed here with one :func:`~repro.sim.unique.sorted_unique` + two
    stable argsorts (``first_demand`` = its ``(first_index, inverse)``, from
    a caller that already has it).
    """
    if not optimize or pages.size == 0:
        return np.arange(pages.size)
    if first_demand is None:
        first_demand = sorted_unique(pages)[1:]
    first_index, inverse = first_demand
    rank = np.empty(first_index.size, dtype=np.int64)
    rank[first_index.argsort(kind="stable")] = np.arange(first_index.size)
    return rank[inverse].argsort(kind="stable")


def schedule_senses(
    pages: np.ndarray, planes: np.ndarray, cached: Optional[np.ndarray] = None
) -> np.ndarray:
    """Which requests of a service order trigger a fresh sense.

    ``pages[i]`` / ``planes[i]`` are request ``i``'s page and the plane
    holding it, in service order.  A request senses unless the previous
    request on the *same plane* latched the *same page* -- the per-plane
    latch walk (``latched[plane]``) evaluated as one stable sort by plane
    plus a neighbour comparison, so the cost model can bill the schedule
    verbatim.  ``cached[i]`` marks a request the DRAM cache mirror serves:
    it never senses and never occupies a latch (a cached request between
    two same-plane requests for one page does not evict the latched page),
    so the walk runs over the to-sense subsequence only.
    """
    sensed = np.zeros(pages.size, dtype=bool)
    live = np.arange(pages.size) if cached is None else (~cached).nonzero()[0]
    by_plane = live[planes[live].argsort(kind="stable")]
    pg = pages[by_plane]
    pl = planes[by_plane]
    fresh = np.empty(by_plane.size, dtype=bool)
    fresh[:1] = True
    fresh[1:] = (pl[1:] != pl[:-1]) | (pg[1:] != pg[:-1])
    sensed[by_plane] = fresh
    return sensed


@dataclass(frozen=True)
class QueryPlan:
    """What one batch executes: the resolved search parameters.

    ``nprobe`` is ``None`` for a flat database (no coarse phase) and
    clamped to the cluster count otherwise; ``shortlist_size`` is the
    rescoring shortlist the fine phase keeps per query.  ``merge_fan_in``
    is set only on a sharded *logical* plan
    (:meth:`~repro.core.shard.ShardRouter.plan`, whose ``nprobe`` is the
    cluster-wide probe count): the number of shards whose shortlists the
    host merges between fine search and rerank -- plan data for
    introspection, never executed on a device.
    """

    k: int
    nprobe: Optional[int]
    shortlist_size: int
    metadata_filter: Optional[int] = None
    fetch_documents: bool = True
    merge_fan_in: Optional[int] = None

    def stage_names(self) -> List[str]:
        """The pipeline phases this plan runs, in execution order."""
        names = ["ibc"]
        if self.nprobe is not None:
            names.append("coarse")
        names.append("fine")
        if self.merge_fan_in is not None:
            names.append("merge")
        names.append("rerank")
        if self.fetch_documents:
            names.append("documents")
        return names


def validate_search_params(k: int, nprobe: Optional[int] = None) -> None:
    """API-boundary check of a batch's ``k`` / ``nprobe``.

    Both must be integers of at least 1; a :class:`ValueError` names the
    argument.  ``nprobe`` above the cluster count is not an error: it
    clamps to every cluster (:func:`resolve_nprobe`).
    """
    checked = [("k", k)] if nprobe is None else [("k", k), ("nprobe", nprobe)]
    for name, value in checked:
        if not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def validate_queries(
    db, queries: np.ndarray, k: int, nprobe: Optional[int] = None
) -> np.ndarray:
    """API-boundary check of a query batch; returns it as ``(n, dim)`` float32.

    ``db`` is the deployed (or sharded) database the batch targets.  A bad
    argument fails here with a :class:`ValueError` naming it -- ``k`` or
    ``nprobe`` non-integral or below 1 (:func:`validate_search_params`), a
    dimension other than the database's, NaN/inf components -- instead of
    deep inside a kernel or, for NaN (which binary-quantizes to a valid
    code) and ``nprobe == 0`` (which probes nothing), not at all.
    """
    validate_search_params(k, nprobe)
    queries = validate_query_rows(db, queries)
    return queries if queries.ndim == 2 else queries.reshape(1, -1)


def validate_query_rows(db, queries: np.ndarray) -> np.ndarray:
    """:func:`validate_queries` less ``k`` / ``nprobe`` (a queue checks them
    once), returned as float32 in the shape it came: a flat vector checks as
    one row and stays flat.  Queries are never corpus-sized, so finiteness
    is one ``isfinite`` pass."""
    queries = np.asarray(queries, dtype=np.float32)
    rows = queries.shape if queries.ndim >= 2 else (1, queries.size)
    if len(rows) != 2 or rows[1] != db.dim:
        raise ValueError(f"queries must have shape (n, {db.dim}), got {rows}")
    if not np.logical_and.reduce(np.isfinite(queries), axis=None):
        raise ValueError("queries contain NaN or inf components")
    return queries


def validate_vectors(vectors: np.ndarray) -> np.ndarray:
    """API-boundary check of a corpus to deploy; returns it as float32.

    Anything but a non-empty ``(n, dim)`` matrix of finite components fails
    here, before k-means or codec fitting starts (a NaN used to reach flash
    as garbage INT8 codes, or die inside numpy's ``choice``).
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if not (vectors.ndim == 2 and vectors.shape[0] >= 1):
        raise ValueError(
            f"vectors must have shape (n, dim) with n >= 1, got {vectors.shape}"
        )
    # Finiteness in row blocks: a corpus costs no ``n x dim`` boolean temporary.
    if not all([np.isfinite(vectors[lo:hi]).all() for lo, hi in row_blocks(len(vectors))]):
        raise ValueError("vectors contain NaN or inf components")
    return vectors


def validate_metadata_tags(tags, name: str = "metadata_tags") -> np.ndarray:
    """API-boundary check of metadata tags; returns them as ``uint32``.

    A tag is one unsigned 32-bit OOB word (Sec. 7.1) that filters compare
    against, so a deploy's tags, an insert's tag and a ``metadata_filter``
    (``name`` says which) must be integers in ``[0, 2**32)``: a named
    :class:`ValueError` where a ``uint32`` cast would wrap ``2**32 + 7``
    to 7 and ``-1`` to ``2**32 - 1``, or cut 1.5 to 1.
    """
    array = np.asarray(tags)
    if array.dtype.kind not in "iu" and not (
        array.dtype.kind == "O"
        and all(isinstance(tag, Integral) for tag in array.ravel().tolist())
    ):
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    outside = (array < 0) | (array >= 2**32)
    if np.logical_or.reduce(outside, axis=None):
        raise ValueError(f"{name} must be in [0, 2**32), got {array[outside].flat[0]}")
    return array.astype(np.uint32, copy=False)


def resolve_nprobe(n_clusters: int, nprobe: Optional[int]) -> Optional[int]:
    """Clusters the fine search visits: ``None`` on a flat database,
    ~sqrt(nlist) by default, never more than there are clusters."""
    if n_clusters == 0:
        return None
    if nprobe is None:
        nprobe = max(1, int(round(n_clusters**0.5)))
    return min(nprobe, n_clusters)


def build_query_plan(
    engine: "InStorageAnnsEngine",
    db: "DeployedDatabase",
    k: int = 10,
    nprobe: Optional[int] = None,
    fetch_documents: bool = True,
    metadata_filter: Optional[int] = None,
) -> QueryPlan:
    """Resolve a batch's search parameters against ``db`` into its plan.

    For IVF databases ``nprobe`` selects how many clusters the fine search
    visits (:func:`resolve_nprobe`) and a coarse phase is planned; flat
    databases skip it and the fine search scans the whole embedding
    region.  ``fetch_documents=False`` drops the document phase and
    ``metadata_filter`` must be a tag the OOB word can hold
    (:func:`validate_metadata_tags`).  The queries themselves are checked
    once, at the API (:func:`validate_queries`).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if metadata_filter is not None:
        if not db.has_metadata:
            raise ValueError("database was deployed without metadata tags")
        metadata_filter = int(
            validate_metadata_tags(metadata_filter, "metadata_filter")
        )
    return QueryPlan(
        k=k,
        nprobe=resolve_nprobe(db.n_clusters, nprobe) if db.is_ivf else None,
        shortlist_size=engine.params.shortlist_factor * k,
        metadata_filter=metadata_filter,
        fetch_documents=fetch_documents,
    )
