"""The four benchmark workloads.

Each workload has three steps, all driven through the public device API:

``setup(seed)``
    Generate the dataset and the traffic, deploy, and bring the device to
    the state a pass starts from (warm-up slice; cache warm on
    ``shard_zipf_cache``).  The whole call is timed as ``setup_s``.
``run(state, scale, log)``
    One pass: a fixed list of operations (``scale`` < 1 keeps a prefix of
    it, for the count pass and ``--smoke``).  Only the serving calls sit
    inside ``log.timed()``; results are collected there and digested after.
``recall(state, scale)``
    recall@10 of the fixed query sample (``scale`` < 1: a prefix of it),
    searched after the pass and outside the timed region, against the exact float top-10
    (``FlatIndex``) of the live snapshot.

The **dataset** of a workload -- corpus vectors, the k-means/codec seed of
the deploy, the query pool of ``shard_zipf_cache``, the 512-query recall
sample -- is fixed (:data:`DATASET`), as a benchmark's corpus is.
The ``--seed`` draws the **traffic**: which queries are asked, the Zipf
ranks, arrival instants and tenants, which entries are written and with
what.  (Drawing the corpus from the seed too put 7-19% of cross-seed
spread on the modeled metrics and on ``setup_s`` -- k-means iterations and
cluster-size skew differ per draw -- which no bound under 25% survives.)

Modeled numbers are a pure function of seed and code: a second pass from a
fresh ``setup`` of the same seed reproduces every digest and modeled metric.
Sizes are set so that a pass takes 3-10 s of host time on the reference
box; ``bench/README.md`` gives the reasons each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.ann.flat import FlatIndex
from repro.core import QueuePolicy, ReisDevice, ShardedReisDevice
from repro.core.cache import CostAwarePolicy
from repro.core.config import ReisConfig
from repro.core.scheduler import DeviceScheduler
from repro.host.profile import HostProfile
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from repro.sim.latency import SimClock
from repro.sim.rng import make_rng, zipf_ranks

K = 10
DIM = 64
DATASET = "dataset-v1"  # seed material of everything that is not traffic
# Latency limit of the open-loop workloads: deadline = arrival + 8 ms.
LATENCY_LIMIT_S = 8e-3
RECALL_SAMPLE = 512

QUEUE_POLICY = dict(
    max_batch=32, min_batch=4, batching_timeout_s=1e-3, collision_target=0.5
)


def device_config(name: str, blocks_per_plane: int = 64) -> ReisConfig:
    """The tiny 2ch x 2die x 2plane topology with a deeper array, so the
    corpora (and the 0.1%-rule DRAM a cache budget comes out of) fit."""
    return ReisConfig(
        name=name,
        geometry=FlashGeometry(
            channels=2, chips_per_channel=1, dies_per_chip=2,
            planes_per_die=2, blocks_per_plane=blocks_per_plane,
            pages_per_block=64,
        ),
        timing=NandTiming(channel_bandwidth_bps=1.2e9),
    )


def scaled(count: int, scale: float) -> int:
    return max(1, int(count * scale))


def poisson_window(rng, n: int, rate: float) -> np.ndarray:
    """Offsets of ``n`` Poisson arrivals in a window of ``n / rate`` seconds.

    A Poisson process conditioned on its count is ``n`` uniform instants,
    sorted; fixing the window keeps the offered load at exactly ``rate``
    (free-running exponential gaps move it by 1/sqrt(n), 2.6% at n=1500).
    """
    return np.sort(rng.uniform(0.0, n / rate, size=n))


def result_digest(result) -> str:
    """Digest of one served query: ids, distances and document ids."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(result.ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.distances, dtype=np.int64).tobytes())
    h.update(repr([d.chunk_id for d in result.documents]).encode())
    return h.hexdigest()[:16]


def ack_digest(ack) -> str:
    return f"{ack.op}:{ack.entry_id}:{ack.replaced_id}:{int(ack.applied)}"


class PassLog:
    """What one pass did: digests, modeled samples, host marks, counts."""

    def __init__(self, traced: bool = False, count_calls: bool = False) -> None:
        # Only ``ReisDevice.ivf_search`` takes a host profile, so only
        # ``scan_100k`` gets the engine's own per-phase host times.
        self.host_profile: Optional[HostProfile] = (
            HostProfile() if traced else None
        )
        # [python calls, C calls] made inside the timed region (count pass).
        self.calls: Optional[List[int]] = [0, 0] if count_calls else None
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        # Modeled submission->completion seconds of the operations the
        # latency metrics are read on, and the rate metric's operands.
        self.latencies: List[float] = []
        self.qps_ops = 0
        self.qps_seconds = 0.0
        # Operations that carry a deadline for ``deadline_met_fraction``.
        self.deadline_ops = 0
        self.deadline_met = 0
        self.host_wall_s = 0.0
        self.unit_host_s: List[float] = []
        self._mark = 0.0
        # Modeled seconds per phase summed over batches, and batch stats.
        self.phase_seconds: Dict[str, float] = defaultdict(float)
        self.batches = 0
        self.batch_ops = 0
        self.scan_requests = 0
        self.scan_senses = 0
        self.unique_senses = 0
        self.total_senses = 0
        self.layer: Dict[str, float] = {}

    # ------------------------------------------------------------- timing

    @contextmanager
    def timed(self):
        """The timed region: collector off, clock read outside the work."""
        gc.collect()
        gc.disable()
        if self.calls is not None:
            sys.setprofile(self._count_call)
        self._mark = start = perf_counter()
        try:
            yield
        finally:
            self.host_wall_s += perf_counter() - start
            sys.setprofile(None)
            gc.enable()

    def _count_call(self, _frame, event, _arg) -> None:
        if event == "call":
            self.calls[0] += 1
        elif event == "c_call":
            self.calls[1] += 1

    def unit_done(self) -> None:
        """One unit (batch, rate rung, epoch) finished inside ``timed``."""
        now = perf_counter()
        self.unit_host_s.append(now - self._mark)
        self._mark = now

    # ------------------------------------------------------------ records

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(what)

    def record_op(self, key: str, digest: str) -> None:
        self.attempted += 1
        self.digests[key] = digest

    def record_batch(self, batch, key: str, batches: int = 1) -> None:
        """Phase decomposition and sense accounting of one served batch (or
        of ``batches`` queue-formed ones, merged); the phases must sum to
        the modeled wall."""
        self.batches += batches
        self.batch_ops += len(batch)
        phases = {
            name: seconds
            for name, seconds in batch.phase_seconds().items()
            if not name.startswith("host_")
        }
        wall = batch.wall_seconds
        if not math.isclose(sum(phases.values()), wall, rel_tol=1e-9, abs_tol=1e-15):
            self.fail(f"{key}: phases sum {sum(phases.values())!r} != wall {wall!r}")
        for name, seconds in phases.items():
            self.phase_seconds[name] += seconds
        stats = batch.batch_stats
        self.scan_requests += stats.scan_requests
        self.scan_senses += stats.scan_senses
        self.unique_senses += stats.unique_senses
        self.total_senses += stats.total_senses


def sample_recall(
    st, scale: float, nprobe: int, vectors: np.ndarray, ids: np.ndarray
) -> float:
    """Mean recall@K of the fixed sample ``st.evaluation``, searched on the
    device as it stands, against the exact float top-K over ``vectors``
    (row i is entry ``ids[i]``).  A result does not depend on how queries
    are batched or on what a cache holds, so this is the recall of the
    served traffic on these queries; being fixed, it is the same number
    for every ``--seed`` unless the seed's writes changed the snapshot."""
    index = FlatIndex(vectors.shape[1])
    index.add(vectors)
    sample = st.evaluation[:scaled(len(st.evaluation), scale)]
    found = 0
    for lo in range(0, len(sample), 64):
        queries = sample[lo:lo + 64]
        batch = st.device.ivf_search(st.db_id, queries, k=K, nprobe=nprobe)
        for query, result in zip(queries, batch):
            _distances, rows = index.search(query, K)
            found += len(set(ids[rows].tolist()) & set(result.ids.tolist()))
    return found / (len(sample) * K)


def record_closed_loop_batch(log: PassLog, b: int, batch) -> None:
    """A closed-loop client gets its batch back when the batch completes:
    every query's submission->completion time is the batch's modeled wall."""
    log.record_batch(batch, f"b{b}")
    wall = batch.wall_seconds
    for qi, result in enumerate(batch):
        log.record_op(f"b{b}.q{qi}", result_digest(result))
        log.latencies.append(wall)
    log.qps_ops += len(batch)
    log.qps_seconds += wall
    log.deadline_ops += len(batch)
    log.deadline_met += len(batch)  # no deadline: only a failure can miss


class Workload:
    open_loop = False

    def recall(self, st, scale: float) -> float:
        """The corpus is the live snapshot unless the workload writes."""
        return sample_recall(st, scale, self.NPROBE, st.vectors, np.arange(self.N))


# ----------------------------------------------------------------- scan_100k


class Scan100k(Workload):
    name = "scan_100k"
    N, NLIST, NPROBE = 100_000, 128, 4
    BATCH, BATCHES = 64, 24

    def setup(self, seed: int) -> SimpleNamespace:
        vectors, _ = make_clustered_embeddings(
            self.N, DIM, self.NLIST, seed=("scan", DATASET)
        )
        queries = make_queries(
            vectors, self.BATCH * self.BATCHES, seed=("scan-q", seed)
        )
        device = ReisDevice(device_config("BENCH-SCAN"))
        db_id = device.ivf_deploy("scan", vectors, nlist=self.NLIST, seed=DATASET)
        evaluation = make_queries(vectors, RECALL_SAMPLE, seed=("scan-eval", DATASET))
        device.ivf_search(db_id, evaluation[:8], k=K, nprobe=self.NPROBE)  # warm-up
        return SimpleNamespace(
            device=device, devices=[device], router=None, db_id=db_id,
            vectors=vectors, queries=queries, evaluation=evaluation,
        )

    def run(self, st, scale: float, log: PassLog) -> None:
        n_batches = scaled(self.BATCHES, scale)
        served = []
        with log.timed():
            for b in range(n_batches):
                served.append(
                    st.device.ivf_search(
                        st.db_id,
                        st.queries[b * self.BATCH:(b + 1) * self.BATCH],
                        k=K, nprobe=self.NPROBE,
                        host_profile=log.host_profile,
                    )
                )
                log.unit_done()
        for b, batch in enumerate(served):
            record_closed_loop_batch(log, b, batch)


# ------------------------------------------------------------- queue_poisson


def rate_label(rate: int) -> str:
    return f"{rate // 1000}k"


class QueuePoisson(Workload):
    name = "queue_poisson"
    open_loop = True
    N, NLIST, NPROBE = 800, 16, 4
    RATES = (4_000, 8_000, 16_000, 20_000, 24_000, 32_000)
    ARRIVALS = 1_500
    REFERENCE_RATE = 16_000  # latency and qps are read here ...
    REFERENCE_ARRIVALS = 4_500  # ... on 3x the arrivals: 45 beyond the p99
    POLICY = QueuePolicy(tenant_weights={"a": 3, "b": 1}, **QUEUE_POLICY)

    def setup(self, seed: int) -> SimpleNamespace:
        vectors, _ = make_clustered_embeddings(
            self.N, DIM, self.NLIST, seed=("queue", DATASET)
        )
        device = ReisDevice(device_config("BENCH-QUEUE", blocks_per_plane=8))
        db_id = device.ivf_deploy("queue", vectors, nlist=self.NLIST, seed=DATASET)
        traffic = {}
        for rate in self.RATES:
            n = self.arrivals(rate)
            rng = make_rng("queue-arrivals", seed, rate)
            traffic[rate] = SimpleNamespace(
                at=poisson_window(rng, n, rate),
                # Two tenants sharing the stream 3:1.
                tenant=np.where(rng.random(n) < 0.75, "a", "b"),
                queries=make_queries(vectors, n, seed=("queue-q", seed, rate)),
            )
        st = SimpleNamespace(
            device=device, devices=[device], router=None, db_id=db_id,
            vectors=vectors, traffic=traffic,
            evaluation=make_queries(
                vectors, RECALL_SAMPLE, seed=("queue-eval", DATASET)
            ),
        )
        self._serve(st, self.REFERENCE_RATE, 64)  # warm-up slice
        return st

    def arrivals(self, rate: int) -> int:
        return self.REFERENCE_ARRIVALS if rate == self.REFERENCE_RATE else self.ARRIVALS

    def _serve(self, st, rate: int, n: int):
        """Replay the first ``n`` arrivals of one rate through a fresh
        queue.  Arrivals are events on the simulated clock, so the load
        generator is never late: lag is 0 by construction."""
        t = st.traffic[rate]
        queue = st.device.submission_queue(
            st.db_id, k=K, nprobe=self.NPROBE, policy=self.POLICY,
            clock=SimClock(),
        )
        for i in range(n):
            at = float(t.at[i])
            queue.submit(
                t.queries[i], tenant=str(t.tenant[i]),
                deadline_s=at + LATENCY_LIMIT_S, at_s=at,
            )
        return queue.drain()

    def run(self, st, scale: float, log: PassLog) -> None:
        reports = {}
        with log.timed():
            for rate in self.RATES:
                reports[rate] = self._serve(
                    st, rate, scaled(self.arrivals(rate), scale)
                )
                log.unit_done()
        ladder = []
        for rate, report in reports.items():
            label = rate_label(rate)
            n = scaled(self.arrivals(rate), scale)
            if report.n_queries != n:
                log.fail(f"{label}: served {report.n_queries} of {n}", n)
            merged = report.as_batch_result()
            log.record_batch(merged, label, len(report.batches))
            latency = np.array(
                [q.finish_s - q.submission.submit_s for q in report.served]
            )
            met = sum(1 for q in report.served if not q.deadline_missed)
            for q in report.served:
                log.record_op(
                    f"{label}.s{q.submission.sub_id}", result_digest(q.result)
                )
            p99 = float(np.percentile(latency, 99))
            ladder.append((rate, p99, report.qps))
            waits = report.waits()
            log.layer.update({
                f"core.queue.wait_p50_ms.{label}": float(np.percentile(waits, 50)) * 1e3,
                f"core.queue.wait_p99_ms.{label}": float(np.percentile(waits, 99)) * 1e3,
                f"core.queue.mean_batch_size.{label}": report.mean_batch_size(),
                f"core.queue.achieved_qps.{label}": report.qps,
                f"core.queue.miss_fraction.{label}": 1.0 - met / n,
            })
            for reason, count in report.close_reasons().items():
                key = f"core.queue.close_reason.{reason}"
                log.layer[key] = log.layer.get(key, 0) + count
            if rate == self.REFERENCE_RATE:
                log.latencies = latency.tolist()
                log.qps_ops, log.qps_seconds = report.n_queries, report.makespan_s
            # Deadlines are counted over the whole ladder: the overload
            # rung alone amplifies a 3% change of capacity into 10%.
            log.deadline_ops += n
            log.deadline_met += met
        # Highest rate that meets the p99 limit without a growing backlog.
        passing = [
            rate for rate, p99, achieved in ladder
            if p99 <= LATENCY_LIMIT_S and achieved >= 0.95 * rate
        ]
        log.layer["core.queue.slo_max_rate_qps"] = float(max(passing, default=0))


# ---------------------------------------------------------- shard_zipf_cache


class ShardZipfCache(Workload):
    name = "shard_zipf_cache"
    N, NLIST, NPROBE = 24_000, 64, 8
    SHARDS, REPLICAS = 4, 2
    POOL, ZIPF_S = 512, 1.2
    BATCH, WARM_BATCHES, BATCHES = 16, 16, 80
    # Left free of the 0.1%-rule allowance for the lazily grown top-lists.
    DRAM_HEADROOM = 64 * 1024

    def setup(self, seed: int) -> SimpleNamespace:
        vectors, _ = make_clustered_embeddings(
            self.N, DIM, self.NLIST, seed=("shard", DATASET)
        )
        pool = make_queries(vectors, self.POOL, seed=("shard-pool", DATASET))
        ranks = zipf_ranks(
            self.POOL, self.ZIPF_S,
            (self.WARM_BATCHES + self.BATCHES) * self.BATCH, "shard", seed,
        )
        device = ShardedReisDevice(
            self.SHARDS, device_config("BENCH-SHARD"), placement="cluster",
            replication_factor=self.REPLICAS,
        )
        db_id = device.ivf_deploy("shard", vectors, nlist=self.NLIST, seed=DATASET)
        budget = (
            min(s.ssd.dram.free_bytes for s in device.shards)
            - self.DRAM_HEADROOM
        )
        caches = device.enable_page_cache(budget, policy_factory=CostAwarePolicy)
        st = SimpleNamespace(
            device=device, devices=device.shards, router=device.router,
            db_id=db_id, vectors=vectors, pool=pool, ranks=ranks, caches=caches,
            evaluation=pool,  # recall is read on the whole pool
        )
        for b in range(self.WARM_BATCHES):  # fixed prefix stream warms the cache
            device.ivf_search(db_id, self._batch(st, b), k=K, nprobe=self.NPROBE)
        return st

    def _batch(self, st, b: int) -> np.ndarray:
        return st.pool[st.ranks[b * self.BATCH:(b + 1) * self.BATCH]]

    def run(self, st, scale: float, log: PassLog) -> None:
        n_batches = scaled(self.BATCHES, scale)
        served = []
        with log.timed():
            for b in range(n_batches):
                served.append(
                    st.device.ivf_search(
                        st.db_id, self._batch(st, self.WARM_BATCHES + b),
                        k=K, nprobe=self.NPROBE,
                    )
                )
                log.unit_done()
        for b, batch in enumerate(served):
            record_closed_loop_batch(log, b, batch)
        log.layer["core.shard.failover_reexecutions"] = sum(
            1 for batch in served if "failover" in batch.phase_seconds()
        )


# ---------------------------------------------------------------- ingest_mix


class IngestMix(Workload):
    name = "ingest_mix"
    open_loop = True
    N, NLIST, NPROBE = 6_000, 32, 4
    GROWTH = 4_096
    RATE = 10_000.0
    EPOCHS, PER_EPOCH = 16, 250
    MIX = (0.70, 0.20, 0.05, 0.05)  # read, insert, delete, update
    POLICY = QueuePolicy(**QUEUE_POLICY)

    def setup(self, seed: int) -> SimpleNamespace:
        vectors, _ = make_clustered_embeddings(
            self.N, DIM, self.NLIST, seed=("ingest", DATASET)
        )
        n_ops = self.EPOCHS * self.PER_EPOCH
        rng = make_rng("ingest-ops", seed)
        offsets = np.concatenate([
            poisson_window(rng, self.PER_EPOCH, self.RATE)
            for _ in range(self.EPOCHS)
        ])
        # The mix holds exactly over the pass (shuffled, not drawn per
        # operation: 4,000 draws move the read share, and with it every
        # modeled metric, by +-1%).
        kinds = rng.permutation(
            np.repeat(np.arange(4), np.rint(np.array(self.MIX) * n_ops).astype(int))
        )
        reads = make_queries(vectors, n_ops, seed=("ingest-q", seed))
        # New vectors are noisy copies of deployed ones; delete and update
        # victims are deployed ids, each used once (a fixed shuffle), so
        # the whole operation list exists before the device sees any of it.
        anchors = rng.integers(0, self.N, size=n_ops)
        fresh = (
            vectors[anchors] + rng.normal(0, 0.05, (n_ops, DIM))
        ).astype(np.float32)
        victims = rng.permutation(self.N)[:n_ops]
        evaluation = make_queries(vectors, RECALL_SAMPLE, seed=("ingest-eval", DATASET))
        device = ReisDevice(device_config("BENCH-INGEST"))
        db_id = device.ivf_deploy(
            "ingest", vectors, nlist=self.NLIST, seed=DATASET,
            growth_entries=self.GROWTH,
        )
        device.ivf_search(db_id, evaluation[:8], k=K, nprobe=self.NPROBE)
        return SimpleNamespace(
            device=device, devices=[device], router=None, db_id=db_id,
            vectors=vectors, offsets=offsets, kinds=kinds, reads=reads, fresh=fresh,
            victims=victims, evaluation=evaluation,
            manager=device.ingest_manager(db_id),
            scheduler=DeviceScheduler(device),
            live={i: vectors[i] for i in range(self.N)},
        )

    def run(self, st, scale: float, log: PassLog) -> None:
        n_epochs = scaled(self.EPOCHS, scale)
        clock = SimClock()
        epochs = []
        with log.timed():
            for e in range(n_epochs):
                queue = st.device.ingest_queue(
                    st.db_id, k=K, nprobe=self.NPROBE, policy=self.POLICY,
                    clock=clock,
                )
                free_before = st.manager.free_slots
                epoch_start = clock.now_s
                subs = []
                for i in range(e * self.PER_EPOCH, (e + 1) * self.PER_EPOCH):
                    at = epoch_start + float(st.offsets[i])
                    how = dict(deadline_s=at + LATENCY_LIMIT_S, at_s=at)
                    kind = int(st.kinds[i])
                    if kind == 0:
                        sub = queue.submit(st.reads[i], tenant="reader", **how)
                    elif kind == 1:
                        sub = queue.submit_insert(st.fresh[i], tenant="writer", **how)
                    elif kind == 2:
                        sub = queue.submit_delete(
                            int(st.victims[i]), tenant="writer", **how
                        )
                    else:
                        sub = queue.submit_update(
                            int(st.victims[i]), st.fresh[i], tenant="writer", **how
                        )
                    subs.append((i, kind, sub))
                report = queue.drain()
                slots_used = free_before - st.manager.free_slots
                compaction = st.scheduler.run_ingest_maintenance(st.manager)
                clock.advance(compaction.seconds)
                epochs.append((subs, queue, report, slots_used, compaction))
                log.unit_done()
        reads = inserted = slots = acks_failed = 0
        for e, (subs, queue, report, slots_used, compaction) in enumerate(epochs):
            merged = report.as_batch_result()
            log.record_batch(merged, f"e{e}", len(report.batches))
            served = {q.submission.sub_id: q for q in report.served}
            slots += slots_used
            for i, kind, sub in subs:
                q = served.get(sub)
                key = f"e{e}.s{sub}"
                if q is None:
                    log.record_op(key, "unserved")
                    log.fail(f"{key}: never served")
                    continue
                log.latencies.append(q.finish_s - q.submission.submit_s)
                log.deadline_ops += 1
                log.deadline_met += 0 if q.deadline_missed else 1
                if kind == 0:
                    reads += 1
                    log.record_op(key, result_digest(q.result))
                    continue
                ack = queue.mutation_acks.get(sub)
                if ack is None or not ack.applied:
                    acks_failed += 1
                    log.record_op(key, "unacked")
                    log.fail(f"{key}: mutation not acknowledged ({ack})")
                    continue
                log.record_op(key, ack_digest(ack))
                # The oracle's mirror of the live snapshot.
                if kind in (2, 3):
                    st.live.pop(int(st.victims[i]), None)
                if kind in (1, 3):
                    st.live[int(ack.entry_id)] = st.fresh[i]
                    inserted += 1
            for reason, count in report.close_reasons().items():
                key = f"core.queue.close_reason.{reason}"
                log.layer[key] = log.layer.get(key, 0) + count
        log.qps_ops, log.qps_seconds = reads, clock.now_s
        log.layer.update({
            "core.ingest.compact_modeled_ms_per_epoch": 1e3 * sum(
                c.seconds for *_x, c in epochs) / n_epochs,
            "core.ingest.reclaimed_pages_per_epoch": sum(
                c.reclaimed_pages for *_x, c in epochs) / n_epochs,
            "core.ingest.tail_slots_per_insert": slots / max(inserted, 1),
            "core.ingest.acks_failed": acks_failed,
        })

    def recall(self, st, scale: float) -> float:
        """Against the oracle's mirror of the snapshot the pass left."""
        ids = np.array(sorted(st.live), dtype=np.int64)
        vectors = np.stack([st.live[int(i)] for i in ids])
        return sample_recall(st, scale, self.NPROBE, vectors, ids)


WORKLOADS = {w.name: w for w in (Scan100k(), QueuePoisson(), ShardZipfCache(), IngestMix())}
