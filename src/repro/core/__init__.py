"""The REIS system: database layout, in-storage ANNS engine, and device API.

This package is the paper's primary contribution.  Everything else in
:mod:`repro` is substrate (NAND flash, SSD firmware, ANN algorithms, the
RAG pipeline, host baselines); this package combines them into the
retrieval system of Sec. 4:

* :mod:`repro.core.config` -- the evaluated SSD configurations (Table 3)
  and the optimization flags ablated in Fig. 9.
* :mod:`repro.core.layout` -- the vector-database layout (Sec. 4.1) and
  its IVF tailoring (Sec. 4.2.1): regions, OOB linkage, deployment.
* :mod:`repro.core.registry` -- R-DB, R-IVF and the Temporal Top Lists.
* :mod:`repro.core.commands` -- the NAND command-set extensions (Table 2).
* :mod:`repro.core.engine` -- the in-storage ANNS engine (Sec. 4.3).
* :mod:`repro.core.plan` -- the query plan (one batch's resolved search
  parameters, the five-phase schedule as data) and the array page
  schedule.
* :mod:`repro.core.batch` -- the batch executor, the only execution path
  (a solo query is a batch of one), with die/channel-occupancy costing.
* :mod:`repro.core.queue` -- the async host submission queue:
  deadline/occupancy batch forming with per-tenant fairness on a
  simulated clock.
* :mod:`repro.core.shard` -- multi-device sharding: placement policies,
  the shard router, and host-side distance merging of per-shard
  shortlists (bit-identical to a single device over the whole corpus).
* :mod:`repro.core.costing` -- the shared latency-composition layer.
* :mod:`repro.core.analytic` -- the paper-scale analytic twin.
* :mod:`repro.core.api` -- the device API (Table 1) and NVMe wiring.
* :mod:`repro.core.metadata` -- the Sec. 7.1 metadata-filtering extension.
"""

from repro.core.analytic import (
    AnalyticWorkload,
    ReisAnalyticModel,
    brute_force_workload,
    ivf_workload,
)
from repro.core.api import (
    BatchSearchResult,
    MigrationResult,
    ReisDevice,
    ReisRetriever,
    ShardedReisDevice,
)
from repro.core.batch import BatchExecution, BatchExecutor, BatchStats
from repro.core.config import (
    ALL_OPT,
    NO_OPT,
    REIS_SSD1,
    REIS_SSD2,
    EngineParams,
    OptFlags,
    ReisConfig,
    tiny_config,
)
from repro.core.defrag import DefragmentationError, Defragmenter, DefragResult
from repro.core.engine import InStorageAnnsEngine, ReisQueryResult, SearchStats
from repro.core.plan import QueryPlan, build_query_plan, validate_queries
from repro.core.queue import (
    BatchFormer,
    FormingEstimate,
    QueueAdmissionError,
    QueuePolicy,
    QueueServeReport,
    QueuedBatch,
    ServedQuery,
    Submission,
    SubmissionQueue,
)
from repro.core.scheduler import (
    DeviceScheduler,
    ScheduleAccounting,
    ShardedScheduler,
)
from repro.core.shard import (
    KILL_BARRIERS,
    MergeCostModel,
    ShardAssignment,
    ShardedDatabase,
    ShardRouter,
    ShardUnavailableError,
    plan_placement,
    shard_ivf_model,
)
from repro.nand.ecc import UncorrectableReadError
from repro.sim.latency import SimClock
from repro.core.layout import (
    CapacityError,
    DatabaseDeployer,
    DeployedDatabase,
    DeploymentCodecs,
    RegionInfo,
    deployment_order,
    fit_deployment_codecs,
)
from repro.core.metadata import TaggedSearcher, TimePartitionedStore, TimeWindow
from repro.core.registry import RDb, RDbEntry, RIvf, RIvfEntry, TemporalTopList

__all__ = [
    "ALL_OPT",
    "NO_OPT",
    "REIS_SSD1",
    "REIS_SSD2",
    "AnalyticWorkload",
    "BatchExecution",
    "BatchExecutor",
    "BatchFormer",
    "BatchSearchResult",
    "BatchStats",
    "FormingEstimate",
    "QueueAdmissionError",
    "QueuePolicy",
    "QueueServeReport",
    "QueuedBatch",
    "ServedQuery",
    "SimClock",
    "Submission",
    "SubmissionQueue",
    "CapacityError",
    "QueryPlan",
    "build_query_plan",
    "validate_queries",
    "DatabaseDeployer",
    "DefragResult",
    "DefragmentationError",
    "Defragmenter",
    "DeployedDatabase",
    "DeploymentCodecs",
    "DeviceScheduler",
    "EngineParams",
    "KILL_BARRIERS",
    "MergeCostModel",
    "MigrationResult",
    "ScheduleAccounting",
    "ShardAssignment",
    "ShardRouter",
    "ShardUnavailableError",
    "ShardedDatabase",
    "ShardedReisDevice",
    "ShardedScheduler",
    "deployment_order",
    "fit_deployment_codecs",
    "plan_placement",
    "shard_ivf_model",
    "InStorageAnnsEngine",
    "OptFlags",
    "RDb",
    "RDbEntry",
    "RIvf",
    "RIvfEntry",
    "RegionInfo",
    "ReisAnalyticModel",
    "ReisConfig",
    "ReisDevice",
    "ReisQueryResult",
    "ReisRetriever",
    "SearchStats",
    "TaggedSearcher",
    "TemporalTopList",
    "TimePartitionedStore",
    "TimeWindow",
    "UncorrectableReadError",
    "brute_force_workload",
    "ivf_workload",
    "tiny_config",
]
