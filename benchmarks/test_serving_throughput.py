"""Serving throughput: page-major batched execution vs the sequential loop.

The batch executor keeps a resident batch on the device and serves the scan
phases page-major: the page schedule (:func:`~repro.core.plan.schedule_order`
/ :func:`~repro.core.plan.schedule_senses`) maps each page the batch touches
to every query scan that wants it, the device senses each scheduled page
once, and the vectorized kernel drains all interested queries against the
latched data.  This benchmark sweeps the batch size
over {1, 4, 16, 64} and records, for each point, the sequential serving
time (sum of solo latencies), the batched wall clock, both throughputs,
the schedule's sense counts, and the **host wall-clock** of the simulator
itself (``time.perf_counter`` around the batched call) so future perf PRs
have a simulator-speed trajectory.  A second workload with more pages than
planes ablates the schedule optimizer on/off.  Results are written to
``BENCH_serving.json`` at the repository root.

A second test drives the **async submission queue** with Poisson arrivals
on the simulated clock (:mod:`repro.core.queue`): at each arrival-rate
point the same arrival trace is served once through the deadline/occupancy
batch former and once with ``max_batch=1`` (the batch-size-1 direct path
behind a FIFO), recording achieved QPS, p99 queue wait, deadline-miss
fraction and the formed batch sizes.  The points land in the same JSON
under ``arrival_serving``.

Invariants asserted:

* batched QPS is never below sequential QPS at any batch size;
* at batch 16 the speedup is a measurable margin; at batch 64 it holds the
  PR-2 level (>= 4.9x, no regression);
* a query's result does not depend on its batch (batch of N == N batches
  of one, bit for bit);
* the schedule optimizer never performs more senses, and never yields a
  slower modeled batch, than the unoptimized query-major order;
* under overload, queue-formed batches beat batch-size-1 QPS while the
  p99 deadline miss stays bounded, and the served wall clock decomposes
  fully into device phases plus the ``queue`` phase.

A third test sweeps **multi-device sharding** (``shard_scaling``): the
batched workload fanned across {1, 2, 4, 8} shard devices under
cluster-affinity placement, distance-merged results bit-identical to one
device holding everything, >1.8x QPS at 4 shards, with the host-side
``merge`` phase accounted in ``phase_seconds()``.

A fifth test sweeps **corpus size** (``host_scaling``): the batch-64
workload at 10^4 and 10^5 entries on a deeper (more blocks per plane)
flash array, with a :class:`~repro.host.profile.HostProfile` attached so
the recorded ``host_wall_seconds`` decomposes into per-phase host
seconds (prepare/ibc/coarse/fine/rerank/documents/finalize).  The 10^4
point doubles as the CI perf gate (``benchmarks/perf_smoke.py``).

A fourth test drives **streaming ingest** (``ingest_serving``): the same
Poisson arrival process with a write tenant mixed in at {0%, 10%, 50%} of
submissions (inserts and deletes through the
:class:`~repro.core.ingest.IngestQueue`), recording the read tenant's p99
queue wait at each mix, then a compaction maintenance pass
(:meth:`~repro.core.scheduler.DeviceScheduler.run_ingest_maintenance`)
with recall@k against the exact float top-k of the live corpus measured
before and after -- the drift must be exactly zero, because compaction is
bit-identical by construction.
"""

import json
import os
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.ann.ivf import build_ivf_model
from repro.core import (
    QueuePolicy,
    ReisDevice,
    ShardedReisDevice,
    ShardUnavailableError,
    tiny_config,
)
from repro.core.config import OptFlags, ReisConfig
from repro.host.profile import HostProfile
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from repro.sim.rng import make_rng, zipf_ranks

BATCH_SIZES = (1, 4, 16, 64)
N_ENTRIES = 800
DIM = 64
NLIST = 16
NPROBE = 4
K = 10
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"


def update_bench(bench_out: Path, sections: dict) -> None:
    """Write a sweep's sections into the session's copy of the sweep file
    (``bench_out`` fixture), seeded from the checked-in one so a sweep run
    on its own keeps the rest.

    Tests never write ``BENCH_PATH``: ``benchmarks/regen.py`` copies the
    session copy into place.
    """
    source = bench_out if bench_out.exists() else BENCH_PATH
    payload = json.loads(source.read_text())
    payload.update(sections)
    bench_out.write_text(json.dumps(payload, indent=2) + "\n")


# The optimizer ablation needs an embedding region with more pages than
# planes, so that query-major service order actually evicts latched pages.
SCHED_N, SCHED_DIM, SCHED_BATCH = 3200, 256, 32

# Arrival sweep: offered load as a multiple of the solo service rate, 64
# Poisson arrivals per point, deadlines at a fixed budget of solo-service
# times after each arrival.
ARRIVAL_LOADS = (0.5, 2.0, 4.0)
ARRIVAL_N = 64
DEADLINE_BUDGET_SOLO = 30.0

# Ingest serving: the arrival process re-run with a write tenant owning
# {0%, 10%, 50%} of the submissions (2/3 inserts, 1/3 deletes), plus a
# compaction pass with recall measured on either side.
INGEST_WRITE_MIXES = (0.0, 0.1, 0.5)
INGEST_N_ARRIVALS = 64
INGEST_LOAD = 2.0
INGEST_N_EVAL = 16

# Host scaling: the batch-64 workload at growing corpus sizes, with the
# opt-in HostProfile attached.  Each point is (n_entries, nlist,
# blocks_per_plane); the flash array is deepened so the corpus fits.  The
# packed document region (64B slots for the synthetic blobs, 256 per page
# instead of 4 subpage-wide ones) is what makes the 10^6 point fit: at one
# subpage per entry it needed ~9 GB of programmed pages, packed it is
# ~250 MB alongside the embedding and INT8 regions.
HOST_SCALE_POINTS = (
    (10_000, 64, 16),
    (100_000, 128, 64),
    (1_000_000, 256, 32),
)
HOST_SCALE_BATCH = 64
HOST_SCALE_REPEATS = 3

# Shard scaling: the batched workload fanned across {1, 2, 4, 8} devices
# under cluster-affinity placement.  Sized so the per-shard work (fine
# scan, TLC rerank/document reads) dominates the unscalable floor (IBC,
# the single centroid page, the host merge).
SHARD_COUNTS = (1, 2, 4, 8)
SHARD_SCALE_N, SHARD_SCALE_DIM = 3200, 128
SHARD_SCALE_NLIST, SHARD_SCALE_NPROBE = 32, 8
SHARD_SCALE_BATCH = 32

# Failover serving: a stream of batches through a 3-shard cluster with a
# shard killed mid-stream (at a fine barrier, mid-batch), replicated
# (R=2) vs unreplicated (R=1).  R=2 must serve every query through the
# kill bit-identically; R=1 degrades to clean per-batch failures.
FAILOVER_SHARDS = 3
FAILOVER_N, FAILOVER_DIM = 1200, 64
FAILOVER_NLIST, FAILOVER_NPROBE = 16, 5
FAILOVER_BATCHES, FAILOVER_BATCH = 10, 16
FAILOVER_KILL_AT = 4  # batch index whose fine barrier loses the shard
FAILOVER_VICTIM = 1

# Cache serving: Zipf-popularity query streams against the DRAM-budgeted
# page cache, sweeping skew x budget.  The working set (the "1x" budget)
# is measured per skew by serving the stream once with nearly all free
# DRAM as budget and reading back the cache occupancy; the flash array is
# deepened so the sized internal DRAM (0.1% of capacity) can hold it.
# The corpus is large enough that one query's nprobe footprint is a small
# slice of the stream's union -- that is what lets popularity skew
# translate into page-popularity skew for the cost-aware policy to bank.
CACHE_ZIPF_S = (0.0, 0.8, 1.2)
CACHE_BUDGET_FRACTIONS = (0.0, 0.125, 0.25, 0.5, 1.0)
CACHE_N, CACHE_NLIST, CACHE_NPROBE = 6_000, 32, 4
CACHE_POOL = 48       # distinct queries the Zipf stream draws ranks from
CACHE_STREAM = 192    # queries served per (skew, budget) point
CACHE_BATCH = 16
CACHE_BLOCKS_PER_PLANE = 512
# Per-shard budget of the cached-cluster events gate: ten page mirrors, a
# fraction of what a batch touches, so every batch admits and evicts.
CACHED_CLUSTER_BUDGET = 10 * (16_384 + 2_208)


def environment_block():
    """Host environment stamped into every section's workload block."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def host_scale_config(name, blocks_per_plane):
    """The tiny topology with a deeper array so larger corpora fit."""
    return ReisConfig(
        name=name,
        geometry=FlashGeometry(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=64,
        ),
        timing=NandTiming(channel_bandwidth_bps=1.2e9),
    )


def host_scaling_corpus(n_entries, nlist, blocks_per_plane):
    """What a host-scaling point deploys and serves: ``(the n_entries
    vectors, the batch-64 queries, a fresh device deep enough for them)``."""
    vectors, _ = make_clustered_embeddings(n_entries, DIM, nlist, seed="host-scale")
    queries = make_queries(vectors, HOST_SCALE_BATCH, seed="host-scale-q")
    device = ReisDevice(host_scale_config(f"HOST-{n_entries}", blocks_per_plane))
    return vectors, queries, device


def deploy_host_scaling_point(n_entries, nlist, blocks_per_plane):
    """A fresh device holding the ``n_entries`` corpus of a host-scaling
    point: ``(device, db_id, the batch-64 queries, deploy wall seconds)``."""
    vectors, queries, device = host_scaling_corpus(n_entries, nlist, blocks_per_plane)
    deploy_start = time.perf_counter()
    db_id = device.ivf_deploy("host-scale", vectors, nlist=nlist, seed=0)
    return device, db_id, queries, time.perf_counter() - deploy_start


def run_host_scaling_point(n_entries, nlist, blocks_per_plane,
                           repeats=HOST_SCALE_REPEATS):
    """Deploy ``n_entries`` and serve the batch-64 workload ``repeats`` times.

    Returns the best-of-``repeats`` host wall clock (within one process, so
    the numbers are comparable across points) with its per-phase HostProfile
    decomposition, asserting every repeat returns bit-identical results.
    """
    device, db_id, queries, deploy_seconds = deploy_host_scaling_point(
        n_entries, nlist, blocks_per_plane
    )

    best = None
    reference = None
    for _ in range(repeats):
        profile = HostProfile()
        wall_start = time.perf_counter()
        batch = device.ivf_search(
            db_id, queries, k=K, nprobe=NPROBE, host_profile=profile
        )
        host_wall = time.perf_counter() - wall_start
        results = [(r.ids.tolist(), r.distances.tolist()) for r in batch]
        if reference is None:
            reference = results
        else:
            # Post-ECC results are deterministic: every repeat is
            # bit-identical even though raw senses re-inject errors.
            assert results == reference
        if best is None or host_wall < best["host_wall_seconds"]:
            best = {
                "host_wall_seconds": host_wall,
                "host_phase_seconds": profile.report(),
                "host_phase_calls": dict(profile.calls),
                "batched_seconds": batch.wall_seconds,
                "speedup": batch.qps / batch.sequential_qps,
            }
    best.update(
        n_entries=n_entries,
        nlist=nlist,
        blocks_per_plane=blocks_per_plane,
        batch_size=HOST_SCALE_BATCH,
        deploy_seconds=deploy_seconds,
        repeats=repeats,
    )
    return best


def run_host_scaling():
    return [
        run_host_scaling_point(n_entries, nlist, blocks_per_plane)
        for n_entries, nlist, blocks_per_plane in HOST_SCALE_POINTS
    ]


def run_serving_sweep():
    vectors, _ = make_clustered_embeddings(N_ENTRIES, DIM, NLIST, seed="serve")
    queries = make_queries(vectors, max(BATCH_SIZES), seed="serve-q")
    device = ReisDevice(tiny_config("SERVE"))
    db_id = device.ivf_deploy("serve", vectors, nlist=NLIST, seed=0)

    points = []
    for batch_size in BATCH_SIZES:
        wall_start = time.perf_counter()
        batch = device.ivf_search(db_id, queries[:batch_size], k=K, nprobe=NPROBE)
        host_wall = time.perf_counter() - wall_start
        # A query's result does not depend on its batch (not timed).
        for query, result in zip(queries[:batch_size], batch):
            [solo] = device.ivf_search(db_id, query[None], k=K, nprobe=NPROBE)
            assert np.array_equal(solo.ids, result.ids)
            assert np.array_equal(solo.distances, result.distances)
        stats = batch.batch_stats
        points.append(
            {
                "batch_size": batch_size,
                "sequential_seconds": batch.total_seconds,
                "batched_seconds": batch.wall_seconds,
                "sequential_qps": batch.sequential_qps,
                "batched_qps": batch.qps,
                "speedup": batch.qps / batch.sequential_qps,
                "senses_total": stats.total_senses,
                "senses_unique": stats.unique_senses,
                "scan_requests": stats.scan_requests,
                "scan_senses": stats.scan_senses,
                "host_wall_seconds": host_wall,
                "phase_seconds": {
                    name: seconds
                    for name, seconds in batch.phase_seconds().items()
                },
            }
        )
    return points


def run_optimizer_ablation():
    """Batch the same queries with the schedule optimizer on and off."""
    vectors, _ = make_clustered_embeddings(
        SCHED_N, SCHED_DIM, NLIST, seed="sched"
    )
    queries = make_queries(vectors, SCHED_BATCH, seed="sched-q")
    out = {}
    for label, flags in (
        ("on", OptFlags()),
        ("off", OptFlags(schedule_optimization=False)),
    ):
        device = ReisDevice(tiny_config(f"SCHED-{label}"), flags=flags)
        db_id = device.ivf_deploy("sched", vectors, nlist=NLIST, seed=0)
        wall_start = time.perf_counter()
        batch = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
        host_wall = time.perf_counter() - wall_start
        stats = batch.batch_stats
        out[label] = {
            "scan_requests": stats.scan_requests,
            "scan_senses": stats.scan_senses,
            "batched_seconds": batch.wall_seconds,
            "speedup": batch.qps / batch.sequential_qps,
            "host_wall_seconds": host_wall,
            "ids": [result.ids.tolist() for result in batch],
        }
    return out


def run_arrival_sweep():
    """Queue-formed batches vs batch-size-1 serving of Poisson arrivals."""
    vectors, _ = make_clustered_embeddings(N_ENTRIES, DIM, NLIST, seed="serve")
    device = ReisDevice(tiny_config("ARRIVE"))
    db_id = device.ivf_deploy("arrive", vectors, nlist=NLIST, seed=0)
    queries = make_queries(vectors, ARRIVAL_N, seed="arrive-q")

    # Calibrate the solo service rate (batch-size-1 device throughput) as
    # the mean over the arrival population, not a single probe query --
    # per-query latency varies (shortlist sizes, page sharing in the
    # packed document region), and "load" should mean arrival rate over
    # the true mean service rate.
    calib = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
    solo_qps = calib.sequential_qps
    solo_s = 1.0 / solo_qps
    deadline_budget = DEADLINE_BUDGET_SOLO * solo_s

    points = []
    for load in ARRIVAL_LOADS:
        rate = load * solo_qps
        rng = make_rng("arrivals", load)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=ARRIVAL_N))
        deadlines = arrivals + deadline_budget
        point = {"load": load, "arrival_rate_qps": rate}
        for mode, policy in (
            (
                "queue",
                QueuePolicy(
                    max_batch=32, min_batch=4,
                    batching_timeout_s=4.0 * solo_s,
                    collision_target=0.5,
                ),
            ),
            ("batch1", QueuePolicy(max_batch=1)),
        ):
            wall_start = time.perf_counter()
            queue = device.submission_queue(
                db_id, k=K, nprobe=NPROBE, policy=policy
            )
            queue.submit_many(queries, deadlines_s=deadlines, at_s=arrivals)
            report = queue.drain()
            host_wall = time.perf_counter() - wall_start
            merged = report.as_batch_result()
            phases = merged.phase_seconds()
            point[mode] = {
                "achieved_qps": report.qps,
                "makespan_seconds": report.makespan_s,
                "service_seconds": report.service_seconds,
                "queue_seconds": merged.queue_seconds,
                "p99_wait_seconds": report.p99_wait_s(),
                "deadline_miss_fraction": report.deadline_miss_fraction,
                "batches": len(report.batches),
                "mean_batch_size": report.mean_batch_size(),
                "close_reasons": report.close_reasons(),
                "host_wall_seconds": host_wall,
                "phase_seconds": phases,
                "wall_seconds": merged.wall_seconds,
            }
            # Satellite: the served wall clock decomposes fully -- device
            # phases plus the queue phase sum to the total.
            assert sum(phases.values()) == pytest.approx(merged.wall_seconds)
            assert merged.wall_seconds == pytest.approx(
                report.service_seconds + merged.queue_seconds
            )
        points.append(point)
    return {
        "workload": {
            "n_entries": N_ENTRIES,
            "dim": DIM,
            "nlist": NLIST,
            "nprobe": NPROBE,
            "k": K,
            "environment": environment_block(),
        },
        "solo_qps": solo_qps,
        "deadline_budget_seconds": deadline_budget,
        "n_arrivals": ARRIVAL_N,
        "points": points,
    }


@pytest.mark.figure("serving")
def test_serving_throughput(benchmark, show, bench_out):
    points, ablation = benchmark.pedantic(
        lambda: (run_serving_sweep(), run_optimizer_ablation()),
        rounds=1, iterations=1,
    )

    show("", "Batched serving throughput (REIS-TINY functional device):")
    show(f"  {'batch':>5s} {'seq QPS':>12s} {'batched QPS':>12s} "
         f"{'speedup':>8s} {'senses saved':>13s} {'host wall':>10s}")
    for point in points:
        saved = point["senses_total"] - point["senses_unique"]
        show(
            f"  {point['batch_size']:5d} {point['sequential_qps']:12,.0f} "
            f"{point['batched_qps']:12,.0f} {point['speedup']:7.2f}x "
            f"{saved:6d}/{point['senses_total']:<6d} "
            f"{point['host_wall_seconds'] * 1e3:8.1f}ms"
        )
    show(
        f"  schedule optimizer (batch {SCHED_BATCH}, {SCHED_N}x{SCHED_DIM}): "
        f"{ablation['on']['scan_senses']} senses on vs "
        f"{ablation['off']['scan_senses']} off "
        f"({ablation['on']['speedup']:.2f}x vs "
        f"{ablation['off']['speedup']:.2f}x over sequential)"
    )

    # The optimizer only reorders page service: results are bit-identical.
    assert ablation["on"]["ids"] == ablation["off"]["ids"]

    update_bench(bench_out, {
        "workload": {
            "n_entries": N_ENTRIES,
            "dim": DIM,
            "nlist": NLIST,
            "nprobe": NPROBE,
            "k": K,
            "device": "REIS-TINY (2ch x 2die x 2pl)",
            "environment": environment_block(),
        },
        "points": points,
        "speedup_at_16": next(
            p["speedup"] for p in points if p["batch_size"] == 16
        ),
        "schedule_optimizer": {
            "workload": {
                "n_entries": SCHED_N,
                "dim": SCHED_DIM,
                "nlist": NLIST,
                "nprobe": NPROBE,
                "batch_size": SCHED_BATCH,
                "environment": environment_block(),
            },
            "on": {k: v for k, v in ablation["on"].items() if k != "ids"},
            "off": {k: v for k, v in ablation["off"].items() if k != "ids"},
        },
    })
    show(f"  wrote {bench_out}")

    by_size = {p["batch_size"]: p for p in points}
    for point in points:
        # Batching never loses to the sequential schedule.
        assert point["batched_qps"] >= point["sequential_qps"] * (1 - 1e-9)
        # The schedule never senses more often than it is asked.
        assert point["scan_senses"] <= point["scan_requests"]
    # A measurable margin once the batch can amortize and overlap, holding
    # the PR-2 level at batch 64 (no regression).
    assert by_size[16]["speedup"] > 1.5
    assert by_size[64]["speedup"] >= 4.9
    assert by_size[64]["speedup"] >= by_size[16]["speedup"] * 0.9
    # Shared senses are the mechanism, so collisions must exist at 16+.
    assert by_size[16]["senses_unique"] < by_size[16]["senses_total"]
    # The optimizer can only help: fewer (or equal) senses, never slower.
    assert ablation["on"]["scan_senses"] <= ablation["off"]["scan_senses"]
    assert (
        ablation["on"]["batched_seconds"]
        <= ablation["off"]["batched_seconds"] * (1 + 1e-9)
    )


@pytest.mark.figure("serving")
def test_host_scaling_serving(benchmark, show, bench_out):
    """Corpus-size sweep with per-phase host wall-clock decomposition."""
    points = benchmark.pedantic(run_host_scaling, rounds=1, iterations=1)

    show("", "Host scaling (batch 64, HostProfile attached, best of "
         f"{HOST_SCALE_REPEATS}):")
    show(f"  {'entries':>8s} {'deploy':>8s} {'host wall':>10s} "
         f"{'fine':>8s} {'rerank':>8s} {'docs':>8s}")
    for point in points:
        phases = point["host_phase_seconds"]
        show(
            f"  {point['n_entries']:8,d} {point['deploy_seconds']:7.2f}s "
            f"{point['host_wall_seconds'] * 1e3:8.1f}ms "
            f"{phases['host_fine'] * 1e3:6.1f}ms "
            f"{phases['host_rerank'] * 1e3:6.1f}ms "
            f"{phases['host_documents'] * 1e3:6.1f}ms"
        )

    update_bench(bench_out, {"host_scaling": {
        "workload": {
            "n_entries": [p[0] for p in HOST_SCALE_POINTS],
            "dim": DIM,
            "nprobe": NPROBE,
            "k": K,
            "batch_size": HOST_SCALE_BATCH,
            "device": "REIS-TINY, deepened array (blocks_per_plane per point)",
            "environment": environment_block(),
        },
        "points": points,
    }})
    show(f"  updated {bench_out.name} (host_scaling)")

    # The packed document region lifts the sweep to 10^6 entries.
    assert max(p["n_entries"] for p in points) >= 1_000_000
    for point in points:
        phases = point["host_phase_seconds"]
        # Every executor phase is profiled, TLC phases once per *batch*
        # (page-major kernels), and the phases nest inside the wall clock.
        assert set(phases) == {
            "host_prepare", "host_ibc", "host_coarse", "host_fine",
            "host_rerank", "host_documents", "host_finalize",
        }
        assert point["host_phase_calls"]["rerank"] == 1
        assert point["host_phase_calls"]["documents"] == 1
        assert sum(phases.values()) <= point["host_wall_seconds"] * (1 + 1e-6)
        assert sum(phases.values()) >= point["host_wall_seconds"] * 0.5
        # Batching still wins on the modeled clock at every corpus size.
        assert point["speedup"] > 1.0


def shard_scaling_corpus():
    """What every shard-scaling point deploys and serves: ``(vectors, the
    batch-32 queries, the IVF model the shards split)``."""
    vectors, _ = make_clustered_embeddings(
        SHARD_SCALE_N, SHARD_SCALE_DIM, SHARD_SCALE_NLIST, seed="scale"
    )
    queries = make_queries(vectors, SHARD_SCALE_BATCH, seed="scale-q")
    return vectors, queries, build_ivf_model(vectors, SHARD_SCALE_NLIST, seed=0)


def deploy_shard_scaling_point(n_shards, vectors, model):
    """A fresh ``n_shards`` cluster holding the shard-scaling corpus."""
    device = ShardedReisDevice(n_shards, tiny_config(f"SCALE-{n_shards}"))
    return device, device.ivf_deploy("scale", vectors, ivf_model=model, seed=0)


def run_shard_scaling():
    """The batched workload served by 1/2/4/8-shard clusters."""
    vectors, queries, model = shard_scaling_corpus()

    # The single-device reference the merged results must reproduce
    # (batched execution is itself bit-identical to solo search).
    reference = ReisDevice(tiny_config("SCALE-REF"))
    ref_id = reference.ivf_deploy("scale", vectors, ivf_model=model, seed=0)
    ref_batch = reference.ivf_search(
        ref_id, queries, k=K, nprobe=SHARD_SCALE_NPROBE
    )

    points = []
    for n_shards in SHARD_COUNTS:
        device, db_id = deploy_shard_scaling_point(n_shards, vectors, model)
        wall_start = time.perf_counter()
        batch = device.ivf_search(db_id, queries, k=K, nprobe=SHARD_SCALE_NPROBE)
        host_wall = time.perf_counter() - wall_start
        # Distance-merged shortlists are bit-identical to one device
        # holding the whole corpus, at every shard count.
        for merged, single in zip(batch, ref_batch):
            assert np.array_equal(merged.ids, single.ids)
            assert np.array_equal(merged.distances, single.distances)
        phases = batch.phase_seconds()
        points.append(
            {
                "shards": n_shards,
                "batched_seconds": batch.wall_seconds,
                "batched_qps": batch.qps,
                "merge_seconds": phases["merge"],
                "host_wall_seconds": host_wall,
                "phase_seconds": phases,
            }
        )
    for point in points:
        point["speedup_vs_1"] = points[0]["batched_seconds"] / point["batched_seconds"]
    return points


@pytest.mark.figure("serving")
def test_shard_scaling(benchmark, show, bench_out):
    """Multi-device scaling: QPS vs shard count, merge phase accounted."""
    points = benchmark.pedantic(run_shard_scaling, rounds=1, iterations=1)

    show("", "Shard scaling (cluster-affinity placement, batched workload):")
    show(f"  {'shards':>6s} {'QPS':>10s} {'speedup':>8s} {'merge':>9s} "
         f"{'host wall':>10s}")
    for point in points:
        show(
            f"  {point['shards']:6d} {point['batched_qps']:10,.0f} "
            f"{point['speedup_vs_1']:7.2f}x "
            f"{point['merge_seconds'] * 1e6:7.1f}us "
            f"{point['host_wall_seconds'] * 1e3:8.1f}ms"
        )

    update_bench(bench_out, {"shard_scaling": {
        "workload": {
            "n_entries": SHARD_SCALE_N,
            "dim": SHARD_SCALE_DIM,
            "nlist": SHARD_SCALE_NLIST,
            "nprobe": SHARD_SCALE_NPROBE,
            "batch_size": SHARD_SCALE_BATCH,
            "k": K,
            "placement": "cluster",
            "device": "REIS-TINY per shard",
            "environment": environment_block(),
        },
        "points": points,
    }})
    show(f"  updated {bench_out.name} (shard_scaling)")

    by_shards = {p["shards"]: p for p in points}
    for point in points:
        # The merge phase is accounted and the wall clock decomposes fully.
        assert point["merge_seconds"] > 0
        assert sum(point["phase_seconds"].values()) == pytest.approx(
            point["batched_seconds"]
        )
    # Scaling: adding shards never slows the batch, and 4 shards clear the
    # acceptance bar on the batched workload.
    assert by_shards[1]["speedup_vs_1"] == pytest.approx(1.0)
    assert by_shards[2]["batched_seconds"] <= by_shards[1]["batched_seconds"]
    assert by_shards[4]["speedup_vs_1"] > 1.8
    assert by_shards[8]["speedup_vs_1"] >= by_shards[4]["speedup_vs_1"]


@pytest.mark.figure("serving")
def test_arrival_rate_serving(benchmark, show, bench_out):
    """Async queue serving of Poisson arrivals vs batch-size-1 FIFO."""
    sweep = benchmark.pedantic(run_arrival_sweep, rounds=1, iterations=1)

    show("", "Arrival-rate serving (async submission queue, Poisson arrivals):")
    show(f"  solo service rate {sweep['solo_qps']:,.0f} qps, "
         f"deadline budget {sweep['deadline_budget_seconds'] * 1e3:.1f}ms, "
         f"{sweep['n_arrivals']} arrivals/point")
    show(f"  {'load':>5s} {'queue QPS':>10s} {'b1 QPS':>10s} "
         f"{'batch':>6s} {'p99 wait':>9s} {'miss%':>6s} {'b1 miss%':>8s}")
    for point in sweep["points"]:
        q, b1 = point["queue"], point["batch1"]
        show(
            f"  {point['load']:5.1f} {q['achieved_qps']:10,.0f} "
            f"{b1['achieved_qps']:10,.0f} {q['mean_batch_size']:6.1f} "
            f"{q['p99_wait_seconds'] * 1e3:7.2f}ms "
            f"{q['deadline_miss_fraction'] * 100:5.1f} "
            f"{b1['deadline_miss_fraction'] * 100:7.1f}"
        )

    update_bench(bench_out, {"arrival_serving": sweep})
    show(f"  updated {bench_out.name} (arrival_serving)")

    by_load = {p["load"]: p for p in sweep["points"]}
    for point in sweep["points"]:
        q, b1 = point["queue"], point["batch1"]
        # Every arrival is served exactly once in both modes.
        assert q["batches"] >= 1 and b1["batches"] == ARRIVAL_N
        # Below saturation the batching timeout may cost a sliver of
        # makespan (that is the forming trade-off); it must stay a sliver.
        assert q["achieved_qps"] >= b1["achieved_qps"] * 0.95
        assert q["deadline_miss_fraction"] <= b1["deadline_miss_fraction"] + 1e-9
        if point["load"] >= 1.0:
            # At and past saturation, forming wins outright.
            assert q["achieved_qps"] >= b1["achieved_qps"] * (1 - 1e-9)
    # Under overload the former must actually batch, win on throughput,
    # and keep the p99 deadline miss bounded while batch-size-1 collapses.
    top = by_load[max(ARRIVAL_LOADS)]
    assert top["queue"]["mean_batch_size"] > 2.0
    assert top["queue"]["achieved_qps"] >= top["batch1"]["achieved_qps"] * 1.5
    assert top["queue"]["deadline_miss_fraction"] <= 0.1
    assert top["batch1"]["deadline_miss_fraction"] >= 0.25
    assert top["queue"]["p99_wait_seconds"] <= sweep["deadline_budget_seconds"]
    # Below saturation the queue tracks the offered load.
    low = by_load[min(ARRIVAL_LOADS)]
    assert low["queue"]["deadline_miss_fraction"] == 0.0


def run_ingest_serving():
    """Read p99 under a write-tenant mix, recall drift across maintenance."""
    from repro.core.scheduler import DeviceScheduler

    base_vectors, _ = make_clustered_embeddings(
        N_ENTRIES, DIM, NLIST, seed="ingest"
    )
    model = build_ivf_model(base_vectors, NLIST, seed=0)
    eval_queries = make_queries(base_vectors, INGEST_N_EVAL, seed="ingest-eval")

    calib = ReisDevice(tiny_config("INGEST-CAL"))
    calib_id = calib.ivf_deploy("cal", base_vectors, ivf_model=model, seed=0)
    solo_qps = calib.ivf_search(
        calib_id, eval_queries[:1], k=K, nprobe=NPROBE
    ).sequential_qps
    solo_s = 1.0 / solo_qps
    rate = INGEST_LOAD * solo_qps

    points = []
    for mix in INGEST_WRITE_MIXES:
        device = ReisDevice(tiny_config(f"INGEST-{int(mix * 100)}"))
        db_id = device.ivf_deploy(
            "live", base_vectors, ivf_model=model, seed=0, growth_entries=2048
        )
        manager = device.ingest_manager(db_id)
        queue = device.ingest_queue(
            db_id, k=K, nprobe=NPROBE,
            policy=QueuePolicy(
                max_batch=32, min_batch=4,
                batching_timeout_s=4.0 * solo_s,
                collision_target=0.5,
            ),
        )
        rng = make_rng("ingest-mix", mix)
        arrivals = np.cumsum(
            rng.exponential(1.0 / rate, size=INGEST_N_ARRIVALS)
        )
        n_writes = int(round(mix * INGEST_N_ARRIVALS))
        write_slots = (
            set(
                rng.choice(
                    INGEST_N_ARRIVALS, size=n_writes, replace=False
                ).tolist()
            )
            if n_writes
            else set()
        )
        read_queries = make_queries(
            base_vectors, INGEST_N_ARRIVALS, seed=("ingest-q", mix)
        )

        # The host-side live-corpus model the recall ground truth uses.
        live_vectors = {i: base_vectors[i] for i in range(N_ENTRIES)}
        pending_inserts = {}
        deletable = list(range(N_ENTRIES))
        n_reads = n_deletes = 0
        for i in range(INGEST_N_ARRIVALS):
            at = float(arrivals[i])
            if i in write_slots:
                if i % 3 == 2 and deletable:
                    victim = deletable.pop(int(rng.integers(len(deletable))))
                    queue.submit_delete(victim, tenant="writer", at_s=at)
                    del live_vectors[victim]
                    n_deletes += 1
                else:
                    anchor = base_vectors[int(rng.integers(N_ENTRIES))]
                    vector = (anchor + rng.normal(0, 0.05, DIM)).astype(
                        np.float32
                    )
                    sub_id = queue.submit_insert(
                        vector, tenant="writer", at_s=at
                    )
                    pending_inserts[sub_id] = vector
            else:
                queue.submit(read_queries[i], tenant="reader", at_s=at)
                n_reads += 1
        report = queue.drain()
        for sub_id, vector in pending_inserts.items():
            ack = queue.mutation_acks[sub_id]
            assert ack.applied
            live_vectors[ack.entry_id] = vector

        gt_ids = np.array(sorted(live_vectors), dtype=np.int64)
        gt_matrix = np.stack([live_vectors[int(g)] for g in gt_ids])

        def mean_recall():
            batch = device.ivf_search(db_id, eval_queries, k=K, nprobe=NPROBE)
            total = 0.0
            for query, result in zip(eval_queries, batch):
                exact = ((gt_matrix - query) ** 2).sum(axis=1)
                truth = gt_ids[np.argsort(exact, kind="stable")[:K]]
                total += len(set(truth.tolist()) & set(result.ids.tolist()))
            return total / (len(eval_queries) * K)

        recall_before = mean_recall()
        scheduler = DeviceScheduler(device)
        maintenance = scheduler.run_ingest_maintenance(manager)
        recall_after = mean_recall()
        points.append(
            {
                "write_fraction": mix,
                "n_reads": n_reads,
                "n_inserts": len(pending_inserts),
                "n_deletes": n_deletes,
                "achieved_qps": report.qps,
                "mean_batch_size": report.mean_batch_size(),
                "read_p99_wait_seconds": report.p99_wait_s("reader"),
                "recall_before_maintenance": recall_before,
                "recall_after_maintenance": recall_after,
                "recall_drift": recall_after - recall_before,
                "maintenance": {
                    "seconds": maintenance.seconds,
                    "reclaimed_pages": maintenance.reclaimed_pages,
                    "erased_blocks": maintenance.erased_blocks,
                    "live_entries": maintenance.live_entries,
                },
            }
        )
    return {
        "workload": {
            "n_entries": N_ENTRIES,
            "dim": DIM,
            "nlist": NLIST,
            "nprobe": NPROBE,
            "k": K,
            "environment": environment_block(),
        },
        "solo_qps": solo_qps,
        "load": INGEST_LOAD,
        "n_arrivals": INGEST_N_ARRIVALS,
        "n_eval_queries": INGEST_N_EVAL,
        "k": K,
        "points": points,
    }


@pytest.mark.figure("serving")
def test_ingest_serving(benchmark, show, bench_out):
    """Streaming ingest: write-tenant mix sweep + maintenance recall drift."""
    sweep = benchmark.pedantic(run_ingest_serving, rounds=1, iterations=1)

    show("", "Ingest serving (write tenant mixed into the arrival process):")
    show(f"  {'writes':>6s} {'reads':>6s} {'ins/del':>8s} {'read p99':>9s} "
         f"{'recall pre':>10s} {'recall post':>11s} {'maint':>8s}")
    for point in sweep["points"]:
        show(
            f"  {point['write_fraction'] * 100:5.0f}% {point['n_reads']:6d} "
            f"{point['n_inserts']:4d}/{point['n_deletes']:<3d} "
            f"{point['read_p99_wait_seconds'] * 1e3:7.2f}ms "
            f"{point['recall_before_maintenance']:10.3f} "
            f"{point['recall_after_maintenance']:11.3f} "
            f"{point['maintenance']['seconds'] * 1e3:6.1f}ms"
        )

    update_bench(bench_out, {"ingest_serving": sweep})
    show(f"  updated {bench_out.name} (ingest_serving)")

    by_mix = {p["write_fraction"]: p for p in sweep["points"]}
    for point in sweep["points"]:
        # Maintenance rewrites flash (it costs time) but moves no result
        # bit, so recall drift is exactly zero at every mix.
        assert point["recall_drift"] == 0.0
        assert point["maintenance"]["seconds"] > 0
        assert point["read_p99_wait_seconds"] > 0
        assert point["n_reads"] + point["n_inserts"] + point["n_deletes"] == (
            INGEST_N_ARRIVALS
        )
    # The mixes actually differ, and mutations reclaim something at 50%.
    assert by_mix[0.0]["n_inserts"] == by_mix[0.0]["n_deletes"] == 0
    assert by_mix[0.5]["n_inserts"] > 0 and by_mix[0.5]["n_deletes"] > 0
    assert by_mix[0.5]["maintenance"]["reclaimed_pages"] > 0
    # Retrieval quality holds through a heavy write mix: the live-corpus
    # recall at 50% writes stays within a whisker of the read-only mix.
    assert by_mix[0.5]["recall_before_maintenance"] >= (
        by_mix[0.0]["recall_before_maintenance"] - 0.15
    )


def run_failover_serving():
    """A batch stream with a shard killed mid-stream, R=1 vs R=2."""
    vectors, _ = make_clustered_embeddings(
        FAILOVER_N, FAILOVER_DIM, FAILOVER_NLIST, seed="failover"
    )
    model = build_ivf_model(vectors, FAILOVER_NLIST, seed=0)
    batches = [
        make_queries(vectors, FAILOVER_BATCH, seed=("fo-q", i))
        for i in range(FAILOVER_BATCHES)
    ]

    # Single-device reference per batch: what every served query must
    # reproduce bit-for-bit, dead shard or not.
    reference = ReisDevice(tiny_config("FOSV-REF"))
    ref_id = reference.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
    ref_results = [
        reference.ivf_search(ref_id, q, k=K, nprobe=FAILOVER_NPROBE)
        for q in batches
    ]

    points = []
    for repl in (1, 2):
        device = ShardedReisDevice(
            FAILOVER_SHARDS, tiny_config(f"FOSV-R{repl}"), replication_factor=repl
        )
        db_id = device.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        served = failed = mismatches = 0
        latencies = []
        batch_rows = []
        for index, queries in enumerate(batches):
            if index == FAILOVER_KILL_AT:
                device.schedule_shard_failure(FAILOVER_VICTIM, "fine")
            try:
                batch = device.ivf_search(
                    db_id, queries, k=K, nprobe=FAILOVER_NPROBE
                )
            except ShardUnavailableError:
                failed += len(queries)
                batch_rows.append(
                    {
                        "batch": index,
                        "served": 0,
                        "failed": len(queries),
                        "qps": 0.0,
                        "failover_seconds": 0.0,
                    }
                )
                continue
            served += len(queries)
            for expect, got in zip(ref_results[index], batch):
                if not (
                    np.array_equal(expect.ids, got.ids)
                    and np.array_equal(expect.distances, got.distances)
                ):
                    mismatches += 1
            latencies.extend(r.latency.total_s for r in batch)
            phases = batch.phase_seconds()
            batch_rows.append(
                {
                    "batch": index,
                    "served": len(queries),
                    "failed": 0,
                    "qps": batch.qps,
                    "failover_seconds": phases.get("failover", 0.0),
                }
            )
        lat = np.asarray(latencies) if latencies else np.zeros(1)
        live_qps = [row["qps"] for row in batch_rows if row["served"]]
        points.append(
            {
                "replication_factor": repl,
                "served_queries": served,
                "failed_queries": failed,
                "result_mismatches": mismatches,
                "qps_mean": float(np.mean(live_qps)) if live_qps else 0.0,
                "p99_latency_seconds": float(np.quantile(lat, 0.99)),
                "failover_seconds_total": float(
                    sum(row["failover_seconds"] for row in batch_rows)
                ),
                "batches": batch_rows,
            }
        )
    return points


@pytest.mark.figure("serving")
def test_failover_serving(benchmark, show, bench_out):
    """QPS/p99 through a mid-stream shard kill: R=2 serves, R=1 degrades."""
    points = benchmark.pedantic(run_failover_serving, rounds=1, iterations=1)

    total = FAILOVER_BATCHES * FAILOVER_BATCH
    show("", "Failover serving (3 shards, shard killed at a fine barrier):")
    show(f"  {'R':>3s} {'served':>7s} {'failed':>7s} {'QPS':>10s} "
         f"{'p99':>9s} {'failover':>9s}")
    for point in points:
        show(
            f"  {point['replication_factor']:3d} "
            f"{point['served_queries']:7d} {point['failed_queries']:7d} "
            f"{point['qps_mean']:10,.0f} "
            f"{point['p99_latency_seconds'] * 1e3:7.2f}ms "
            f"{point['failover_seconds_total'] * 1e6:7.1f}us"
        )

    update_bench(bench_out, {"failover_serving": {
        "workload": {
            "n_entries": FAILOVER_N,
            "dim": FAILOVER_DIM,
            "nlist": FAILOVER_NLIST,
            "nprobe": FAILOVER_NPROBE,
            "n_batches": FAILOVER_BATCHES,
            "batch_size": FAILOVER_BATCH,
            "k": K,
            "shards": FAILOVER_SHARDS,
            "kill": {
                "victim": FAILOVER_VICTIM,
                "batch": FAILOVER_KILL_AT,
                "barrier": "fine",
            },
            "placement": "cluster",
            "device": "REIS-TINY per shard",
            "environment": environment_block(),
        },
        "points": points,
    }})
    show(f"  updated {bench_out.name} (failover_serving)")

    by_r = {p["replication_factor"]: p for p in points}
    # R=2 serves the whole stream through the kill, every result
    # bit-identical to the single-device reference, and the failover
    # reroute is visible in the phase accounting.
    assert by_r[2]["served_queries"] == total
    assert by_r[2]["failed_queries"] == 0
    assert by_r[2]["result_mismatches"] == 0
    assert by_r[2]["failover_seconds_total"] > 0
    # R=1 has no replica to reroute to: batches probing the dead shard's
    # clusters fail cleanly (and everything served stays bit-identical).
    assert by_r[1]["failed_queries"] > 0
    assert by_r[1]["result_mismatches"] == 0
    assert by_r[1]["served_queries"] + by_r[1]["failed_queries"] == total


def _cache_workload():
    """Deploy the cache-sweep corpus on a deepened array."""
    vectors, _ = make_clustered_embeddings(
        CACHE_N, DIM, CACHE_NLIST, seed="cache-serving"
    )
    model = build_ivf_model(vectors, CACHE_NLIST, seed=0)
    pool = make_queries(vectors, CACHE_POOL, seed="cache-pool")
    device = ReisDevice(
        host_scale_config("REIS-CACHE", CACHE_BLOCKS_PER_PLANE)
    )
    did = device.ivf_deploy("cache-bench", vectors, ivf_model=model, seed=0)
    return device, did, pool


def _serve_cache_stream(device, did, pool, ranks):
    """Serve one Zipf-rank stream in batches; modeled wall, host wall, ids."""
    wall = 0.0
    ids = []
    start = time.perf_counter()
    for lo in range(0, CACHE_STREAM, CACHE_BATCH):
        batch = device.ivf_search(
            did, pool[ranks[lo:lo + CACHE_BATCH]], k=K, nprobe=CACHE_NPROBE
        )
        wall += batch.wall_seconds
        ids.extend(r.ids.tolist() for r in batch.results)
    return wall, time.perf_counter() - start, ids


def _probe_working_set(device, did, pool, ranks):
    """Measure the stream's working set: serve once with nearly all free
    DRAM as budget (headroom for the lazily grown top-list arenas) and
    read back the cache occupancy."""
    device.enable_page_cache(device.ssd.dram.free_bytes - 65_536)
    _serve_cache_stream(device, did, pool, ranks)
    working_set = device.page_cache.used_bytes
    device.disable_page_cache()
    return working_set


def run_cache_serving():
    """Sweep Zipf skew x DRAM budget over the page cache.

    One deployment serves every point; each budget point gets a fresh
    (empty) cache, and counter deltas isolate the point's billed work so
    energy per query comes straight out of the power model.
    """
    from repro.core.cache import CostAwarePolicy

    device, did, pool = _cache_workload()

    def serve_stream(ranks):
        return _serve_cache_stream(device, did, pool, ranks)

    sweeps = []
    for s in CACHE_ZIPF_S:
        ranks = zipf_ranks(CACHE_POOL, s, CACHE_STREAM, "cache-serving")
        working_set = _probe_working_set(device, did, pool, ranks)
        points = []
        reference_ids = None
        for fraction in CACHE_BUDGET_FRACTIONS:
            budget = int(working_set * fraction)
            # The cost-aware policy banks page popularity (uses x energy
            # saved per byte), which is what keeps hot pages resident
            # through each batch's cold-page flood at partial budgets.
            cache = (
                device.enable_page_cache(budget, policy=CostAwarePolicy())
                if budget else None
            )
            before = device.ssd.counters.as_dict()
            wall, host_wall, ids = serve_stream(ranks)
            after = device.ssd.counters.as_dict()
            delta = defaultdict(float)
            for key, value in after.items():
                delta[key] = value - before.get(key, 0.0)
            energy = device.ssd.power.energy_breakdown(delta)
            points.append({
                "zipf_s": s,
                "budget_fraction": fraction,
                "budget_bytes": budget,
                "qps": CACHE_STREAM / wall,
                "wall_seconds": wall,
                "host_wall_seconds": host_wall,
                "hit_rate": cache.stats.hit_rate if cache else 0.0,
                "cache_hits_billed": delta["dram_cache_hits"],
                "nand_senses": delta["page_reads"],
                "energy_per_query_j": sum(energy.values()) / CACHE_STREAM,
                "dram_cache_energy_j": energy["dram_cache"],
            })
            if reference_ids is None:
                reference_ids = ids
            else:
                # A cache hit must never perturb one bit of the results.
                assert ids == reference_ids
            if cache is not None:
                device.disable_page_cache()
        sweeps.append({
            "zipf_s": s,
            "working_set_bytes": working_set,
            "points": points,
        })
    return sweeps


def cached_cluster_workload(batches):
    """A warm 4 x 2 cluster behind per-shard cost-aware page caches smaller
    than the stream's working set (the ``shard_zipf_cache`` shape): the
    cache-sweep corpus and its hot-Zipf stream, ``batches`` batches served.
    Returns ``(device, database id, the next batch's queries)``."""
    from repro.core.cache import CostAwarePolicy

    vectors, _ = make_clustered_embeddings(
        CACHE_N, DIM, CACHE_NLIST, seed="cache-serving"
    )
    pool = make_queries(vectors, CACHE_POOL, seed="cache-pool")
    ranks = zipf_ranks(CACHE_POOL, 1.2, CACHE_STREAM, "cache-serving")
    device = ShardedReisDevice(
        4, host_scale_config("CLUSTER-CACHE", CACHE_BLOCKS_PER_PLANE),
        replication_factor=2,
    )
    did = device.ivf_deploy("cluster-cache", vectors, nlist=CACHE_NLIST, seed=0)
    device.enable_page_cache(CACHED_CLUSTER_BUDGET, policy_factory=CostAwarePolicy)
    for lo in range(0, batches * CACHE_BATCH, CACHE_BATCH):
        device.ivf_search(
            did, pool[ranks[lo:lo + CACHE_BATCH]], k=K, nprobe=CACHE_NPROBE
        )
    lo = batches * CACHE_BATCH
    return device, did, pool[ranks[lo:lo + CACHE_BATCH]]


# Per shard of the warm cached 4 x 2 cluster (``SHARD_WARM_BATCHES`` = 4 of
# perf_smoke.py): cache stats (hits, misses, admitted, evicted, invalidated,
# hit_bytes), used bytes, and the resident pages as (region start page in
# plane, page offset, kind, uses) -- recorded from the per-page cache the
# columnar one replaced.
CACHED_CLUSTER_STATE = [
    ((3, 72, 72, 62, 0, 55_776), 185_920, [
        (0, 0, "centroid", 4), (128, 2, "cluster", 3), (128, 5, "cluster", 3),
        (192, 3, "document", 3), (192, 4, "document", 3),
        (192, 5, "document", 2), (192, 6, "document", 2),
        (192, 7, "document", 2), (192, 8, "document", 2),
        (192, 9, "document", 2),
    ]),
    ((1, 51, 51, 41, 0, 18_592), 185_920, [
        (0, 0, "centroid", 4), (128, 0, "cluster", 2), (128, 1, "cluster", 2),
        (128, 2, "cluster", 2), (128, 3, "cluster", 2), (128, 5, "cluster", 2),
        (128, 6, "cluster", 2), (128, 7, "cluster", 2),
        (192, 6, "document", 2), (192, 7, "document", 2),
    ]),
    ((3, 65, 65, 55, 0, 55_776), 185_920, [
        (0, 0, "centroid", 4), (128, 0, "cluster", 3), (128, 1, "cluster", 3),
        (128, 7, "cluster", 3), (128, 8, "cluster", 3), (128, 9, "cluster", 3),
        (192, 2, "document", 2), (192, 3, "document", 2),
        (192, 9, "document", 3), (192, 10, "document", 2),
    ]),
    ((1, 46, 46, 36, 0, 18_592), 185_920, [
        (0, 0, "centroid", 4), (64, 7, "cluster", 2), (64, 9, "cluster", 2),
        (64, 10, "cluster", 2), (128, 2, "cluster", 2), (128, 4, "cluster", 2),
        (128, 6, "cluster", 2), (128, 7, "cluster", 2), (128, 9, "cluster", 2),
        (128, 10, "cluster", 2),
    ]),
]


def test_cached_cluster_cache_state_is_pinned():
    """The warm cluster the perf gate counts ends in exactly the recorded
    per-shard cache state: same admissions, victims, ghosts and uses."""
    device, did, _queries = cached_cluster_workload(4)
    sdb = device.database(did)
    state = []
    for shard, db in zip(device.shards, sdb.shard_dbs):
        cache, s = shard.page_cache, shard.page_cache.stats
        regions = [
            db.centroid_region, db.embedding_region, db.int8_region,
            db.document_region,
        ]
        resident = sorted(
            (region.region.start_page_in_plane, page, entry.kind, entry.uses)
            for region in regions if region is not None
            for page in range(region.n_pages)
            for entry in [cache.peek(region, page)] if entry is not None
        )
        stats = (s.hits, s.misses, s.admitted, s.evicted, s.invalidated, s.hit_bytes)
        state.append((stats, cache.used_bytes, resident))
    assert state == CACHED_CLUSTER_STATE


def count_events(serve) -> int:
    """Python ``call`` + ``c_call`` events of one ``serve()``: exact for a
    given interpreter and numpy, whatever the machine's load."""
    events = 0

    def count(_frame, event, _arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        serve()
    finally:
        sys.setprofile(None)
    return events


def run_cache_smoke(repeats=5):
    """The CI cache gate: the hot-Zipf stream (s=1.2) served on two
    identical devices, one behind a working-set-sized cost-aware cache and
    one uncached, alternately, best-of-``repeats`` host wall each, so both
    sides share the machine's noise.  Cache hits skip the sense simulation
    (error injection), the ECC decode and the latch kernels, so the cached
    steady state must also be cheaper in *simulator* time.  (Sub-1x
    budgets trade that win for admission copies and eviction scans at
    this workload size, which is why the gate runs at the 1x point --
    the modeled QPS/energy wins at 1/2x are asserted by the benchmark
    sweep instead.)  Also returns the ``call`` + ``c_call`` events of one
    more stream on each device, and what that stream sensed on each: its
    page reads, its ECC-decoded bytes, its cache misses and whether it drew
    from the device's raw-bit-error stream."""
    from repro.core.cache import CostAwarePolicy

    ranks = zipf_ranks(CACHE_POOL, 1.2, CACHE_STREAM, "cache-serving")
    uncached, cached = [_cache_workload() for _ in range(2)]  # (device, did, pool)
    working_set = _probe_working_set(*cached, ranks)
    cached[0].enable_page_cache(working_set, policy=CostAwarePolicy())
    walls = [[], []]
    for _ in range(repeats + 1):  # the first round warms the mirror
        for workload, times in zip((uncached, cached), walls):
            times.append(_serve_cache_stream(*workload, ranks)[1])
    events, sensed = [], []
    for workload in (uncached, cached):
        before = _sense_activity(workload[0])
        events.append(count_events(lambda: _serve_cache_stream(*workload, ranks)))
        after = _sense_activity(workload[0])
        sensed.append({
            "page_reads": after[0] - before[0],
            "decoded_bytes": after[1] - before[1],
            "misses": after[2] - before[2],
            "drew_errors": after[3] != before[3],
        })
    return {
        "working_set_bytes": working_set,
        "budget_bytes": working_set,
        "uncached_host_wall_seconds": min(walls[0][1:]),
        "cached_host_wall_seconds": min(walls[1][1:]),
        "uncached_events": events[0],
        "cached_events": events[1],
        "uncached_sensed": sensed[0],
        "cached_sensed": sensed[1],
        "hit_rate": cached[0].page_cache.stats.hit_rate,
    }


def _sense_activity(device):
    """``(page reads, ECC-decoded bytes, cache misses, raw-bit-error stream
    state)`` of a device so far."""
    ssd, cache = device.ssd, device.page_cache
    return (
        ssd.counters["page_reads"],
        ssd.ecc.decoded_bytes,
        cache.stats.misses if cache is not None else 0,
        ssd.array.errors._rng.bit_generator.state,
    )


@pytest.mark.figure("serving")
def test_cache_serving(benchmark, show, bench_out):
    """Zipf x budget sweep: hit rate grows with budget, hot skew pays."""
    sweeps = benchmark.pedantic(run_cache_serving, rounds=1, iterations=1)

    show("", "Cache serving (Zipf streams x DRAM budget, "
         f"{CACHE_STREAM} queries, batch {CACHE_BATCH}):")
    show(f"  {'s':>4s} {'budget':>7s} {'hit rate':>9s} {'QPS':>10s} "
         f"{'energy/q':>10s} {'host wall':>10s}")
    for sweep in sweeps:
        for point in sweep["points"]:
            show(
                f"  {point['zipf_s']:4.1f} "
                f"{point['budget_fraction']:6.3f}x "
                f"{point['hit_rate']:8.1%} {point['qps']:10,.0f} "
                f"{point['energy_per_query_j'] * 1e6:8.2f}uJ "
                f"{point['host_wall_seconds'] * 1e3:8.1f}ms"
            )

    update_bench(bench_out, {"cache_serving": {
        "workload": {
            "n_entries": CACHE_N,
            "dim": DIM,
            "nlist": CACHE_NLIST,
            "nprobe": CACHE_NPROBE,
            "k": K,
            "policy": "cost-aware",
            "query_pool": CACHE_POOL,
            "stream_length": CACHE_STREAM,
            "batch_size": CACHE_BATCH,
            "zipf_s": list(CACHE_ZIPF_S),
            "budget_fractions": list(CACHE_BUDGET_FRACTIONS),
            "device": (
                f"REIS-TINY, deepened array "
                f"({CACHE_BLOCKS_PER_PLANE} blocks/plane)"
            ),
            "environment": environment_block(),
        },
        "sweeps": sweeps,
    }})
    show(f"  updated {bench_out.name} (cache_serving)")

    for sweep in sweeps:
        rates = [p["hit_rate"] for p in sweep["points"]]
        # No cache, no hits; and LRU over equal-size page entries is a
        # stack algorithm, so the hit rate grows monotonically in budget.
        assert rates[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.0
        # Served senses + cache hits shift, results never do; senses must
        # fall monotonically as the budget grows.
        senses = [p["nand_senses"] for p in sweep["points"]]
        assert all(b <= a for a, b in zip(senses, senses[1:]))
    hot = {
        p["budget_fraction"]: p
        for sweep in sweeps if sweep["zipf_s"] == 1.2
        for p in sweep["points"]
    }
    # The acceptance point: hot skew at half the working set must beat
    # uncached serving on modeled QPS and on energy per query.
    assert hot[0.5]["qps"] > hot[0.0]["qps"]
    assert hot[0.5]["energy_per_query_j"] < hot[0.0]["energy_per_query_j"]
    assert hot[0.5]["hit_rate"] > 0.0
