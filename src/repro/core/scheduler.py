"""Device-mode scheduling: RAG retrieval vs normal SSD duties (Sec. 7.2).

REIS operates the drive exclusively in one of two modes:

* **RAG mode** -- coarse-grained FTL metadata is live, queries execute in
  storage; host I/O is rejected.
* **Normal mode** -- the page-level FTL is live; host reads/writes and
  maintenance (GC, wear leveling, refresh) proceed as usual.

Switching modes costs an FTL-metadata swap (loading/flushing the L2P
table through the internal DRAM).  Maintenance tasks take priority over
RAG operations when the cores are needed; since RAG workloads are
read-mostly, maintenance is rare and the scheduler batches it at mode
boundaries.  :class:`DeviceScheduler` implements this policy over a
:class:`~repro.core.api.ReisDevice` and accounts where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import BatchSearchResult, ReisDevice, ShardedReisDevice
from repro.core.ingest import CompactionResult
from repro.core.queue import QueuePolicy, QueueServeReport
from repro.ssd.gc import GcResult
from repro.ssd.refresh import RefreshManager, RefreshResult


def _serve_through_queue(
    device,
    accounting: "ScheduleAccounting",
    db_id: int,
    queries: np.ndarray,
    k: int,
    nprobe: Optional[int],
    *,
    tenants: Optional[Sequence[str]],
    deadlines_s: Optional[Sequence[float]],
    arrivals_s: Optional[Sequence[float]],
    policy: Optional[QueuePolicy],
) -> Tuple[QueueServeReport, BatchSearchResult]:
    """Drive a batch through ``device.submission_queue``, drain it and
    bill the host-side queue outcome to ``accounting``.

    Shared by :class:`DeviceScheduler` (one drive) and
    :class:`ShardedScheduler` (a cluster): both devices expose the same
    ``submission_queue`` surface, so the queue-fronted serving path is one
    piece of code.  Device-busy time is the caller's to bill (a cluster
    splits it into serving and merge).
    """
    db = device.database(db_id)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if policy is None:
        # Synchronous call sites hand over a complete batch: admit it
        # whole (flush-close) instead of waiting out a forming window.
        policy = QueuePolicy(max_batch=max(1, queries.shape[0]))
    queue = device.submission_queue(
        db_id, k=k,
        nprobe=nprobe if db.is_ivf else None,
        policy=policy,
    )
    if tenants is None:
        queue.submit_many(queries, deadlines_s=deadlines_s, at_s=arrivals_s)
    else:
        n = queries.shape[0]
        if len(tenants) != n:
            raise ValueError("tenants must match the number of queries")
        if deadlines_s is not None and len(deadlines_s) != n:
            raise ValueError("deadlines_s must match the number of queries")
        if arrivals_s is not None and len(arrivals_s) != n:
            raise ValueError("arrivals_s must match the number of queries")
        for i in range(queries.shape[0]):
            queue.submit(
                queries[i],
                tenant=tenants[i],
                deadline_s=(
                    float("inf") if deadlines_s is None else deadlines_s[i]
                ),
                at_s=None if arrivals_s is None else arrivals_s[i],
            )
    report = queue.drain()
    batch = report.as_batch_result()
    accounting.queries_served += len(batch)
    accounting.queue_wait_seconds += report.total_queue_wait_s
    accounting.deadline_misses += len(report.deadline_misses)
    accounting.batches_formed += len(report.batches)
    accounting.cache_hits += batch.batch_stats.cache_hits
    return report, batch


@dataclass
class ScheduleAccounting:
    """Where the device (or cluster) spent its time, by activity.

    ``merge_seconds`` is the host-side distance-merge work of sharded
    serving (the ``merge`` phase of
    :meth:`~repro.core.api.BatchSearchResult.phase_seconds`): always zero
    for a single-device scheduler, tracked at the cluster level by
    :class:`ShardedScheduler`.  It is busy time the serving path depends
    on, so it counts toward ``total_seconds`` and ``utilization()``.
    """

    rag_seconds: float = 0.0
    host_io_seconds: float = 0.0
    maintenance_seconds: float = 0.0
    mode_switch_seconds: float = 0.0
    merge_seconds: float = 0.0
    mode_switches: int = 0
    queries_served: int = 0
    host_pages_written: int = 0
    gc_results: List[GcResult] = field(default_factory=list)
    refresh_results: List[RefreshResult] = field(default_factory=list)
    # Host-side submission-queue accounting (the device is busy elsewhere
    # while queries wait, so queue wait is *not* part of total_seconds).
    queue_wait_seconds: float = 0.0
    deadline_misses: int = 0
    batches_formed: int = 0
    # Page visits the DRAM page cache served instead of a NAND sense
    # (0 unless the device has an enabled page cache).
    cache_hits: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.rag_seconds
            + self.host_io_seconds
            + self.maintenance_seconds
            + self.mode_switch_seconds
            + self.merge_seconds
        )

    def utilization(self) -> Dict[str, float]:
        """Fraction of ``total_seconds`` per activity.

        Keys: ``rag`` (in-storage retrieval), ``host_io``, ``maintenance``,
        ``mode_switch``, and ``merge`` (host-side shard merging; 0.0 unless
        the accounting belongs to a sharded serving stack).
        """
        total = self.total_seconds
        if total <= 0:
            return {}
        return {
            "rag": self.rag_seconds / total,
            "host_io": self.host_io_seconds / total,
            "maintenance": self.maintenance_seconds / total,
            "mode_switch": self.mode_switch_seconds / total,
            "merge": self.merge_seconds / total,
        }


class DeviceScheduler:
    """Runs RAG queries and normal-mode work on one device, exclusively."""

    def __init__(self, device: ReisDevice, refresh: Optional[RefreshManager] = None) -> None:
        self.device = device
        self.refresh = refresh or RefreshManager(device.ssd.array)
        self.accounting = ScheduleAccounting()

    # ----------------------------------------------------------- switching

    def _enter_rag(self) -> None:
        if not self.device.ssd.rag_mode:
            cost = self.device.ssd.enter_rag_mode()
            self.accounting.mode_switch_seconds += cost
            self.accounting.mode_switches += 1

    def _enter_normal(self) -> None:
        if self.device.ssd.rag_mode:
            cost = self.device.ssd.exit_rag_mode()
            self.accounting.mode_switch_seconds += cost
            self.accounting.mode_switches += 1

    # ------------------------------------------------------------ RAG side

    def serve_queries(
        self,
        db_id: int,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        *,
        tenants: Optional[Sequence[str]] = None,
        deadlines_s: Optional[Sequence[float]] = None,
        arrivals_s: Optional[Sequence[float]] = None,
        policy: Optional[QueuePolicy] = None,
    ) -> BatchSearchResult:
        """Serve a retrieval batch, switching into RAG mode if needed.

        The default front-end is a :class:`~repro.core.queue.
        SubmissionQueue`: submissions (optionally per-tenant, with
        deadlines and arrival instants on the queue's simulated clock) are
        formed into batches by the deadline/occupancy policy and executed
        through the device's :class:`~repro.core.batch.BatchExecutor` --
        direct ``BatchExecutor.execute`` remains the low-level API for
        callers that already hold a formed batch.  Results come back in
        submission order, bit-identical to the direct path.  The time
        accounted to RAG is the device-busy wall clock of the executed
        batches; host-side queue wait, deadline misses and the number of
        formed batches land in their own accounting fields.
        """
        self._enter_rag()
        report, batch = _serve_through_queue(
            self.device, self.accounting, db_id, queries, k, nprobe,
            tenants=tenants, deadlines_s=deadlines_s, arrivals_s=arrivals_s,
            policy=policy,
        )
        self.accounting.rag_seconds += report.service_seconds
        return batch

    # --------------------------------------------------------- normal side

    def host_write(self, lpa: int, data: np.ndarray) -> None:
        """A normal-mode host write (forces a mode switch out of RAG)."""
        self._enter_normal()
        self.device.ssd.host_write(lpa, data)
        timing = self.device.ssd.spec.timing
        self.accounting.host_io_seconds += timing.program_time("tlc")
        self.accounting.host_pages_written += 1

    def run_maintenance(
        self,
        max_gc_blocks: int = 1,
        max_refresh_blocks: int = 4,
        wear_level: bool = True,
    ) -> None:
        """Run GC + refresh + wear leveling, prioritized over RAG (Sec. 7.2).

        Maintenance requires the page-level FTL, so it executes in normal
        mode; the scheduler batches it at one mode boundary.
        """
        self._enter_normal()
        timing = self.device.ssd.spec.timing
        gc_result = self.device.ssd.gc.collect(max_blocks=max_gc_blocks)
        self.accounting.gc_results.append(gc_result)
        gc_seconds = gc_result.relocated_pages * (
            timing.read_time("tlc") + timing.program_time("tlc")
        ) + gc_result.erased_blocks * timing.t_erase_s
        refresh_result = self.refresh.refresh(max_blocks=max_refresh_blocks)
        self.accounting.refresh_results.append(refresh_result)
        refresh_seconds = refresh_result.pages_rewritten * (
            timing.read_time("slc") + timing.program_time("slc")
        ) + refresh_result.blocks_refreshed * timing.t_erase_s
        level_seconds = 0.0
        if wear_level:
            level_result = self.device.ssd.wear.level(self.device.ssd.ftl)
            level_seconds = level_result.pages_moved * (
                timing.read_time("tlc") + timing.program_time("tlc")
            ) + (timing.t_erase_s if level_result.swapped else 0.0)
        self.accounting.maintenance_seconds += (
            gc_seconds + refresh_seconds + level_seconds
        )

    def run_ingest_maintenance(self, manager) -> "CompactionResult":
        """Compact a streamed-into database (:meth:`repro.core.ingest.
        IngestManager.compact`) as a normal-mode maintenance pass.

        Like GC/refresh, compaction rewrites flash through the maintenance
        machinery, so it runs at a mode boundary and its wall clock bills
        to ``maintenance_seconds`` -- serving resumes against the packed
        layout on the next :meth:`serve_queries`.
        """
        self._enter_normal()
        result = manager.compact()
        self.accounting.maintenance_seconds += result.seconds
        return result

    # ---------------------------------------------------------- reporting

    def report(self) -> Dict[str, object]:
        acc = self.accounting
        return {
            "queries_served": acc.queries_served,
            "mode_switches": acc.mode_switches,
            "utilization": acc.utilization(),
            "gc_blocks_reclaimed": sum(r.erased_blocks for r in acc.gc_results),
            "refreshed_blocks": sum(r.blocks_refreshed for r in acc.refresh_results),
            "batches_formed": acc.batches_formed,
            "queue_wait_seconds": acc.queue_wait_seconds,
            "deadline_misses": acc.deadline_misses,
            "cache_hits": acc.cache_hits,
        }


class ShardedScheduler:
    """Cluster-aware scheduling over a :class:`~repro.core.api.ShardedReisDevice`.

    One :class:`DeviceScheduler` child per shard keeps the single-device
    duties (mode switching, maintenance, host I/O) per drive, and the
    cluster level adds what only exists above the shards: queue-fronted
    serving through the shard router, per-shard busy-time billing (shards
    overlap, so each shard's ``rag_seconds`` is *its own* busy time, not
    the cluster wall clock), and the host-side ``merge`` phase in the
    aggregate accounting.  A dead drive (one in the router's
    ``failed_shards``) is left alone -- no mode switch, maintenance or
    compaction -- until it is revived.
    """

    def __init__(self, device: ShardedReisDevice) -> None:
        self.device = device
        self.children = [DeviceScheduler(shard) for shard in device.shards]
        # Cluster-level accounting: rag_seconds is the cluster's serving
        # wall clock (slowest shard per phase), merge_seconds the host
        # merge work on top of it.
        self.accounting = ScheduleAccounting()
        # The router's replica selection balances on per-shard utilization:
        # point its load source at the children's serving busy-time.
        device.router.load_source = lambda: [
            child.accounting.rag_seconds for child in self.children
        ]

    @property
    def shard_accounting(self) -> List[ScheduleAccounting]:
        """Per-shard accounting (one entry per drive, in shard order)."""
        return [child.accounting for child in self.children]

    def _live(self, shards) -> List[int]:
        failed = self.device.router.failed_shards
        return [shard for shard in shards if shard not in failed]

    # ------------------------------------------------------------ RAG side

    def serve_queries(
        self,
        db_id: int,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        *,
        tenants: Optional[Sequence[str]] = None,
        deadlines_s: Optional[Sequence[float]] = None,
        arrivals_s: Optional[Sequence[float]] = None,
        policy: Optional[QueuePolicy] = None,
    ) -> BatchSearchResult:
        """Serve a retrieval batch cluster-wide, queue-fronted.

        The same submission-queue front end as
        :meth:`DeviceScheduler.serve_queries`, draining into the shard
        router: per-tenant fairness and deadlines apply to the cluster.
        Each shard's accounting is billed its own device-busy seconds per
        batch; the aggregate is billed the cluster serving wall clock,
        split into device time (``rag``) and host merge time (``merge``).
        """
        for shard in self._live(self.device.database(db_id).active_shards):
            self.children[shard]._enter_rag()
        report, batch = _serve_through_queue(
            self.device, self.accounting, db_id, queries, k, nprobe,
            tenants=tenants, deadlines_s=deadlines_s, arrivals_s=arrivals_s,
            policy=policy,
        )
        merge_seconds = 0.0
        for queued in report.batches:
            execution = queued.execution
            merge_breakdown = execution.stats.phases.get("merge")
            if merge_breakdown is not None:
                merge_seconds += merge_breakdown.seconds
            if execution.shard_seconds is not None:
                for shard, seconds in enumerate(execution.shard_seconds):
                    self.children[shard].accounting.rag_seconds += seconds
                    if seconds > 0:
                        self.children[shard].accounting.queries_served += len(
                            queued.submissions
                        )
        self.accounting.rag_seconds += report.service_seconds - merge_seconds
        self.accounting.merge_seconds += merge_seconds
        return batch

    # --------------------------------------------------------- normal side

    def run_maintenance(
        self,
        max_gc_blocks: int = 1,
        max_refresh_blocks: int = 4,
        wear_level: bool = True,
    ) -> None:
        """Run GC/refresh/wear-leveling on every live shard (Sec. 7.2 per
        drive).

        Drives maintain themselves independently and concurrently, so the
        cluster-level accounting bills the slowest shard's increment.
        """
        before = [child.accounting.maintenance_seconds for child in self.children]
        for shard in self._live(range(len(self.children))):
            self.children[shard].run_maintenance(
                max_gc_blocks=max_gc_blocks,
                max_refresh_blocks=max_refresh_blocks,
                wear_level=wear_level,
            )
        self.accounting.maintenance_seconds += max(
            (
                child.accounting.maintenance_seconds - prior
                for child, prior in zip(self.children, before)
            ),
            default=0.0,
        )

    def run_ingest_maintenance(self, coordinator) -> "CompactionResult":
        """Compact every live shard of a streamed-into sharded database.

        Each shard's compaction is local maintenance (billed to that
        shard's child scheduler); shards compact concurrently, so the
        cluster is billed the slowest shard's pass.
        """
        total = CompactionResult.concurrent(
            self.children[shard].run_ingest_maintenance(coordinator.managers[shard])
            for shard in self._live(coordinator.managers)
        )
        self.accounting.maintenance_seconds += total.seconds
        return total

    def run_rebalance(
        self,
        db_id: int,
        cluster: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> Optional["MigrationResult"]:
        """Migrate one cluster off the busiest shard, as maintenance.

        Picks from the placement table: the busiest live owner (serving
        busy-time), its largest cluster, and the lightest live shard that
        does not own it; the copy runs through
        :meth:`~repro.core.api.ShardedReisDevice.migrate_cluster` while
        queries keep serving (the flip is atomic between batches).  Billed
        as maintenance: the copy work on both endpoints' children and the
        cluster level.  Explicit ``cluster``/``dst`` override the pick (the
        source is then the cluster's busiest live owner).  Returns ``None``
        when no move exists.
        """
        device = self.device
        assignment = device.database(db_id).assignment
        failed = device.router.failed_shards
        owners = assignment.live_owners(failed)
        load = [child.accounting.rag_seconds for child in self.children]
        if cluster is None:
            candidates = np.unique(owners[owners >= 0]).tolist()
            if not candidates:
                return None
            src = max(candidates, key=lambda s: (load[s], s))
            sizes = np.bincount(
                assignment.cluster_of_vector[assignment.live],
                minlength=len(owners),
            )
            mine = np.flatnonzero((owners == src).any(axis=1)).tolist()
            cluster = max(mine, key=lambda c: (int(sizes[c]), -c))
        else:
            candidates = [s for s in owners[cluster].tolist() if s >= 0]
            if not candidates:
                return None
            src = max(candidates, key=lambda s: (load[s], s))
        if dst is None:
            options = [
                s for s in range(device.n_shards)
                if s not in failed and s not in assignment.owners_of(cluster)
            ]
            if not options:
                return None
            dst = min(options, key=lambda s: (load[s], s))
        result = device.migrate_cluster(db_id, cluster, dst, src=src)
        # The copy busies both endpoints for its duration; the cluster
        # bills it once (the endpoints work concurrently).
        self.children[result.src].accounting.maintenance_seconds += (
            result.seconds
        )
        self.children[result.dst].accounting.maintenance_seconds += (
            result.seconds
        )
        self.accounting.maintenance_seconds += result.seconds
        return result

    # ---------------------------------------------------------- reporting

    def aggregate_utilization(self) -> Dict[str, float]:
        """Cluster utilization: the aggregate accounting's split (device
        serving vs host merge vs maintenance vs mode switches)."""
        return self.accounting.utilization()

    def report(self) -> Dict[str, object]:
        acc = self.accounting
        return {
            "n_shards": self.device.n_shards,
            "queries_served": acc.queries_served,
            "utilization": acc.utilization(),
            "merge_seconds": acc.merge_seconds,
            "batches_formed": acc.batches_formed,
            "queue_wait_seconds": acc.queue_wait_seconds,
            "deadline_misses": acc.deadline_misses,
            "cache_hits": acc.cache_hits,
            "per_shard": [
                {
                    "rag_seconds": child.accounting.rag_seconds,
                    "utilization": child.accounting.utilization(),
                    "mode_switches": child.accounting.mode_switches,
                    "queries_served": child.accounting.queries_served,
                }
                for child in self.children
            ],
        }
