"""Sharded serving: one logical database across N REIS drives.

Run with::

    python examples/sharded_serving.py

Deploys the same IVF corpus on a single device and on a 4-shard
:class:`~repro.core.api.ShardedReisDevice` (cluster-affinity placement),
then drives the full serving stack end to end:

1. **Async submission queue** -- multi-tenant submissions with deadlines
   arrive on the simulated clock; the deadline/occupancy batch former
   cuts them into batches.
2. **Shard router** -- each formed batch fans out as per-shard query
   plans (per-shard nprobe trimmed to the centroids each shard owns),
   executes concurrently under the die/channel occupancy model, and the
   router distance-merges per-shard shortlists.
3. **Merged results** -- the global top-k is bit-identical to the single
   device holding everything; the wall clock decomposes into device
   phases plus the host-side ``merge`` phase.
"""

import numpy as np

from repro.ann.ivf import build_ivf_model
from repro.core import (
    QueuePolicy,
    ReisDevice,
    ShardedReisDevice,
    ShardedScheduler,
    tiny_config,
)
from repro.rag.embeddings import make_clustered_embeddings, make_queries

N_ENTRIES, DIM, NLIST = 3200, 128, 32
N_SHARDS, NPROBE, K = 4, 8, 5
N_QUERIES = 24


def main() -> None:
    vectors, _ = make_clustered_embeddings(N_ENTRIES, DIM, NLIST, seed="demo")
    queries = make_queries(vectors, N_QUERIES, seed="demo-q")
    model = build_ivf_model(vectors, NLIST, seed=0)

    print(f"deploying {N_ENTRIES} vectors: 1 device vs {N_SHARDS} shards "
          f"(cluster-affinity placement)")
    single = ReisDevice(tiny_config("DEMO-1"))
    single_id = single.ivf_deploy("demo", vectors, ivf_model=model, seed=0)
    cluster = ShardedReisDevice(N_SHARDS, tiny_config("DEMO-N"))
    cluster_id = cluster.ivf_deploy("demo", vectors, ivf_model=model, seed=0)
    sdb = cluster.database(cluster_id)
    sizes = sdb.assignment.shard_sizes()
    print(f"  placement: {[int(s) for s in sizes]} vectors/shard, "
          f"{[len(c) for c in sdb.assignment.shard_clusters]} clusters/shard")

    # --- the logical plan: per-shard stages + the host-side merge --------
    plan = cluster.router.plan(sdb, k=K, nprobe=NPROBE)
    print(f"  logical plan: {' -> '.join(plan.stage_names())}")

    # --- queue -> router -> merged results ------------------------------
    # Three tenants submit over a 2ms window with 8ms deadlines; the
    # former cuts batches, each batch fans out across all shards.
    scheduler = ShardedScheduler(cluster)
    rng = np.random.default_rng(7)
    arrivals = np.sort(rng.uniform(0.0, 2e-3, size=N_QUERIES))
    tenants = [f"tenant-{i % 3}" for i in range(N_QUERIES)]
    batch = scheduler.serve_queries(
        cluster_id, queries, k=K, nprobe=NPROBE,
        tenants=tenants,
        deadlines_s=(arrivals + 8e-3).tolist(),
        arrivals_s=arrivals.tolist(),
        policy=QueuePolicy(max_batch=8, batching_timeout_s=3e-4),
    )

    # The same trace served by the single device behind the same policy,
    # and the same whole batch served directly on both -- like for like.
    from repro.core import DeviceScheduler

    single_batch = DeviceScheduler(single).serve_queries(
        single_id, queries, k=K, nprobe=NPROBE,
        tenants=tenants,
        deadlines_s=(arrivals + 8e-3).tolist(),
        arrivals_s=arrivals.tolist(),
        policy=QueuePolicy(max_batch=8, batching_timeout_s=3e-4),
    )
    mismatches = sum(
        not (np.array_equal(a.ids, b.ids)
             and np.array_equal(a.distances, b.distances))
        for a, b in zip(batch, single_batch)
    )
    print(f"\nserved {len(batch)} queries through the cluster queue: "
          f"{mismatches} mismatches vs the single device (bit-identical)")
    print(f"  deadline misses: {batch.deadline_misses}")

    print("\nwall-clock decomposition (cluster, queue-served):")
    phases = batch.phase_seconds()
    for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        bar = "#" * int(40 * seconds / batch.wall_seconds)
        print(f"  {name:10s} {seconds * 1e6:9.1f}us {bar}")
    print(f"  {'total':10s} {batch.wall_seconds * 1e6:9.1f}us "
          f"(sums exactly: {abs(sum(phases.values()) - batch.wall_seconds) < 1e-12})")

    direct_one = single.ivf_search(single_id, queries, k=K, nprobe=NPROBE)
    direct_n = cluster.ivf_search(cluster_id, queries, k=K, nprobe=NPROBE)
    print(f"\nthroughput, same queue trace:  1 device {single_batch.qps:,.0f} qps"
          f" vs {N_SHARDS} shards {batch.qps:,.0f} qps"
          f" ({batch.qps / single_batch.qps:.2f}x)")
    print(f"throughput, one direct batch:  1 device {direct_one.qps:,.0f} qps"
          f" vs {N_SHARDS} shards {direct_n.qps:,.0f} qps"
          f" ({direct_n.qps / direct_one.qps:.2f}x)")

    report = scheduler.report()
    print("\ncluster utilization:",
          {k: f"{v:.1%}" for k, v in report["utilization"].items()})
    for shard, entry in enumerate(report["per_shard"]):
        print(f"  shard {shard}: rag {entry['rag_seconds'] * 1e6:8.1f}us busy, "
              f"{entry['queries_served']} queries")

    # One retrieved answer, end to end.
    result = batch[0]
    print(f"\nquery 0 top-{K}: ids {result.ids.tolist()}")
    print(f"  best chunk: {result.documents[0].text[:72]!r}")


if __name__ == "__main__":
    main()
