"""CI perf gate: the 10^4-entry host-scaling point must not regress.

Reads the checked-in ``BENCH_serving.json`` (only ``benchmarks/regen.py``
rewrites it), re-measures the batch-64 ``host_wall_seconds`` at the
10^4-entry host-scaling point best-of-5 in-process, and fails when the
measured wall clock exceeds 2x the checked-in value.  The 2x margin
absorbs CI machine speed variance; a vectorization regression on the
serving hot path (a reintroduced per-query Python loop) costs well over
2x and trips the gate.

A second, machine-speed-independent gate caps the *share* of host wall
spent in the TLC phases (``host_rerank`` + ``host_documents``) at that
point: the phase kernels (one sense run per plane into the page stack,
in-place ECC, one columnar billing pass) hold it near 0.58 of a batch
whose other phases bill through the cost ledger (0.45 of the slower batch
that filled a cost object per page visit; 0.60 of that batch while every
page was copied six times and billed through per-query loops), so a
reintroduced per-query TLC walk trips it regardless of how fast the CI
machine is.

A third, also machine-independent, caps the share of host wall the fine
scan may take at that point: the per-plane phase kernel holds it near
0.21 (0.24 before the scan billed its visits as columns, 0.27 while every
page run had its own READ_PAGE -> GEN_DIST chain, 0.59-0.75 while every
(query, page) demand did), so a per-task numpy chain creeping back trips
it.

A fourth is noise-free: the Python ``call`` + ``c_call`` events
(``sys.setprofile``) of the first batch-64 search on a fresh device,
against a constant measured when the gate was set, x1.05; the events of
the batch-of-one search that follows it are capped the same way, so the
small batches open-loop serving forms cannot regress unseen.  The count is
exact for a given interpreter and numpy, and host time tracks it at about
0.5 us per event, so a per-page Python loop creeping back into a phase
kernel trips it on any machine.  It is taken at the 10^5-entry point,
where pages outnumber planes by enough to show one: the per-page-run
chains this gate was set after cost +43% there and +7% at 10^4.

A fifth gate covers the DRAM page cache: the hot-Zipf (s=1.2) stream
served with a working-set-sized cost-aware cache must beat the same
stream uncached in host wall (best-of-5 each, same process).  Cache
hits skip the sense simulation, the ECC decode and the latch kernels,
so a cached steady state that is *slower* means the hit path grew a
per-page Python loop or the lookup stopped short-circuiting the sense.

A sixth, also noise-free, covers the index build: the ``tracemalloc`` peak
of the ``ivf_deploy`` that sets up the events gate's 10^5-entry point,
against a constant measured when the gate was set, x1.10.  The build
streams the corpus in row blocks (k-means keeps one block-sized distance
tile, the quantizers block-sized temporaries), so k-means, codec fitting
and encoding peak at 13 MB and the deploy as a whole where the last region
is programmed (the stored pages plus one region's page images); it was
4.7x that while k-means held the 100k x 128 distance matrix.  The matrix
(51 MB) or a one-shot INT8 encode (four 25.6 MB temporaries) creeping back
trips it on any machine; a single corpus-sized float32 temporary in the
build (13 + 25.6 MB) stays under the programming peak and does not.

A seventh and an eighth, noise-free again, cover the cluster path.  The
``call`` + ``c_call`` events of one warm 16-query batch on a 4 x 2 cluster
behind page caches smaller than the working set (the ``shard_zipf_cache``
shape) are capped at x1.05 of what the table-per-barrier router measured:
a per-(shard, query) loop creeping back into a merge barrier, the report
composition or the cache's eviction costs far more than 5%.  And the
events of the ``shard_scaling`` batch on 8 shards over the same batch on 1
shard are capped at x1.10 of the measured ratio -- the noise-free
restatement of "8-shard host wall <= 2x the 1-shard".  The ratio was 3.26
while every barrier and the composition ran once per (shard, query)
(124,118 / 38,029 events) and 3.19 with the router's tables (50,570 /
15,847).  The cost ledger (one visit table per phase instead of a cost
object per (shard, query) filled one page visit at a time) took a third
off the 8-shard count and nearly half off the 1-shard one, so both fell
and the *ratio rose* to 4.04: per-visit emission was the part of the glue
that did not grow with the shard count.  One TTL table per (shard, phase)
instead of a TTL object per (shard, query) brought it to 3.68.  What still
grows with shards -- per-(shard, query) contexts and quickselect charges,
and a fixed handful of array calls per (shard, phase) -- is the (shard,
plane, page) task table's to remove.

Usage: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import json
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_serving_throughput import (  # noqa: E402
    BENCH_PATH,
    CACHE_NPROBE,
    HOST_SCALE_POINTS,
    K,
    NPROBE,
    SHARD_SCALE_NPROBE,
    cached_cluster_workload,
    deploy_shard_scaling_point,
    host_scaling_corpus,
    run_cache_smoke,
    run_host_scaling_point,
    shard_scaling_corpus,
)

GATE_N_ENTRIES = 10_000
REGRESSION_FACTOR = 2.0
REPEATS = 5
# Measured (host_rerank + host_documents) / host_wall is 0.54-0.56 over ten
# samples on a quiet box and 0.56-0.60 over ten on a loaded one; +0.10
# margin.  Re-pinned by that rule when the cost ledger landed (0.54 before:
# the TLC kernels' own time did not grow, the rest of the batch -- scan
# billing, report composition -- got cheaper around them, and the parent
# already read 0.55 on the loaded box).
TLC_SHARE_CEILING = 0.70
# Measured host_fine / host_wall is 0.19-0.24; +0.10 margin.
FINE_SHARE_CEILING = 0.34
# Measured call + c_call events of the first batch-64 search at 10^5
# entries: 16,678 (python 3.11, numpy 2.4; 18,396 with one TTL object per
# query, 36,694 while every page visit filled a per-query cost object,
# 60,230 while every query's shortlist and report were also selected and
# composed one by one); x1.05 (x1.10 of 18,399 before the TTL table).
EVENTS_N_ENTRIES = 100_000
SEARCH_EVENTS_CEILING = 17_511
# Measured events of the batch-of-one search that follows it: 3,128
# (python 3.11, numpy 2.4; 3,194 with one TTL object per query); x1.05.
# A batch of one pays every per-batch pass for one query, so fixed
# per-batch work that batch 64 amortizes shows here first.
SOLO_EVENTS_CEILING = 3_284
# Measured tracemalloc peak of that point's ivf_deploy: 44.26 MB in a fresh
# process, +-3 KB run to run, 43.2 MB after the gates above (python 3.11,
# numpy 2.4; 206.19 MB with the whole-matrix build); x1.10.
DEPLOY_PEAK_BYTES_CEILING = 48_690_000
# Measured events of the fifth batch on the cached 4 x 2 cluster: 11,960
# (python 3.11, numpy 2.4; 13,421 with one TTL object per (shard, query),
# 14,353 while the cache was driven one page at a time, 18,973 before the
# cost ledger); x1.05.
SHARD_WARM_BATCHES = 4
SHARD_EVENTS_CEILING = 12_558
# Measured events(8 shards) / events(1 shard) on the shard_scaling batch:
# 28,120 / 7,634 = 3.68 (34,429 / 8,530 = 4.04 with one TTL object per
# (shard, query), 34,453 / 8,533 = 4.04 with the per-page cache,
# 50,570 / 15,847 = 3.19 and 124,118 / 38,029 = 3.26 before that); x1.10.
SHARD_SCALING_EVENTS_RATIO = 4.05


def tlc_share(point) -> float:
    """Fraction of the host wall spent in the rerank+documents kernels."""
    phases = point["host_phase_seconds"]
    tlc = phases.get("host_rerank", 0.0) + phases.get("host_documents", 0.0)
    return tlc / max(point["host_wall_seconds"], 1e-12)


def count_events(serve) -> int:
    """Python ``call`` + ``c_call`` events of one ``serve()``."""
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


def count_cluster_events() -> tuple:
    """``(events of one warm batch on the cached 4 x 2 cluster, events of
    the shard_scaling batch on 1 shard, on 8 shards)``, fresh clusters."""
    device, did, queries = cached_cluster_workload(SHARD_WARM_BATCHES)
    warm = count_events(
        lambda: device.ivf_search(did, queries, k=K, nprobe=CACHE_NPROBE)
    )
    assert sum(shard.page_cache.stats.evicted for shard in device.shards) > 0
    vectors, queries, model = shard_scaling_corpus()
    scale = []
    for n_shards in (1, 8):
        device, did = deploy_shard_scaling_point(n_shards, vectors, model)
        scale.append(count_events(
            lambda: device.ivf_search(did, queries, k=K, nprobe=SHARD_SCALE_NPROBE)
        ))
    return (warm, *scale)


def count_build_and_search() -> tuple:
    """The :data:`EVENTS_N_ENTRIES` host-scaling point on a fresh device:
    ``(tracemalloc peak bytes of its ivf_deploy, Python call + c_call
    events of the first batch-64 search, events of the batch-of-one search
    of its first query that follows)``."""
    n_entries, nlist, blocks_per_plane = next(
        p for p in HOST_SCALE_POINTS if p[0] == EVENTS_N_ENTRIES
    )
    vectors, queries, device = host_scaling_corpus(
        n_entries, nlist, blocks_per_plane
    )
    tracemalloc.start()
    try:
        db_id = device.ivf_deploy("host-scale", vectors, nlist=nlist, seed=0)
        _, deploy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = count_events(
        lambda: device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
    )
    solo_events = count_events(
        lambda: device.ivf_search(db_id, queries[:1], k=K, nprobe=NPROBE)
    )
    return deploy_peak, events, solo_events


def main() -> int:
    checked_in = json.loads(BENCH_PATH.read_text())
    baseline = next(
        p
        for p in checked_in["host_scaling"]["points"]
        if p["n_entries"] == GATE_N_ENTRIES
    )
    n_entries, nlist, blocks_per_plane = next(
        p for p in HOST_SCALE_POINTS if p[0] == GATE_N_ENTRIES
    )
    measured = run_host_scaling_point(
        n_entries, nlist, blocks_per_plane, repeats=REPEATS
    )

    budget = baseline["host_wall_seconds"] * REGRESSION_FACTOR
    print(
        f"perf-smoke: batch-{measured['batch_size']} host wall at "
        f"{n_entries:,} entries: measured "
        f"{measured['host_wall_seconds'] * 1e3:.1f}ms (best of {REPEATS}), "
        f"checked-in {baseline['host_wall_seconds'] * 1e3:.1f}ms, "
        f"budget {budget * 1e3:.1f}ms"
    )
    for name, seconds in sorted(measured["host_phase_seconds"].items()):
        print(f"  {name:>15s}: {seconds * 1e3:7.2f}ms")
    if measured["host_wall_seconds"] > budget:
        print(
            f"perf-smoke: FAIL -- host wall regressed "
            f">{REGRESSION_FACTOR:.0f}x vs checked-in BENCH_serving.json"
        )
        return 1

    measured_share = tlc_share(measured)
    print(
        f"perf-smoke: TLC share of host wall: measured "
        f"{measured_share:.1%}, ceiling {TLC_SHARE_CEILING:.0%}"
    )
    if measured_share > TLC_SHARE_CEILING:
        print(
            "perf-smoke: FAIL -- rerank+documents host share regressed "
            "(per-query TLC walk reintroduced?)"
        )
        return 1

    fine_share = (
        measured["host_phase_seconds"]["host_fine"]
        / max(measured["host_wall_seconds"], 1e-12)
    )
    print(
        f"perf-smoke: fine-scan share of host wall: measured "
        f"{fine_share:.1%}, ceiling {FINE_SHARE_CEILING:.0%}"
    )
    if fine_share > FINE_SHARE_CEILING:
        print(
            "perf-smoke: FAIL -- fine-scan host share regressed "
            "(per-task extraction chain reintroduced?)"
        )
        return 1

    deploy_peak, events, solo_events = count_build_and_search()
    print(
        f"perf-smoke: ivf_deploy of {EVENTS_N_ENTRIES:,} entries: tracemalloc "
        f"peak {deploy_peak / 2**20:.1f} MiB, ceiling "
        f"{DEPLOY_PEAK_BYTES_CEILING / 2**20:.1f} MiB"
    )
    if deploy_peak > DEPLOY_PEAK_BYTES_CEILING:
        print(
            "perf-smoke: FAIL -- index build peak memory regressed "
            "(corpus-sized temporary back in k-means or the quantizers?)"
        )
        return 1

    print(
        f"perf-smoke: batch-64 search at {EVENTS_N_ENTRIES:,} entries: "
        f"{events:,} call + c_call events, ceiling {SEARCH_EVENTS_CEILING:,}"
    )
    if events > SEARCH_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- Python call count regressed "
            "(per-page loop back in a phase kernel?)"
        )
        return 1
    print(
        f"perf-smoke: batch-1 search at {EVENTS_N_ENTRIES:,} entries: "
        f"{solo_events:,} call + c_call events, ceiling {SOLO_EVENTS_CEILING:,}"
    )
    if solo_events > SOLO_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- batch-of-one Python call count regressed "
            "(fixed per-batch work grew?)"
        )
        return 1

    warm, one_shard, eight_shards = count_cluster_events()
    print(
        f"perf-smoke: warm batch-16 on the cached 4x2 cluster: {warm:,} call + "
        f"c_call events, ceiling {SHARD_EVENTS_CEILING:,}"
    )
    if warm > SHARD_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- cluster Python call count regressed "
            "(per-(shard, query) loop back in a barrier, the composer or "
            "a per-page cache call?)"
        )
        return 1
    ratio = eight_shards / one_shard
    print(
        f"perf-smoke: shard_scaling batch-32 events: 8 shards {eight_shards:,} "
        f"/ 1 shard {one_shard:,} = {ratio:.2f}, ceiling "
        f"{SHARD_SCALING_EVENTS_RATIO:.2f}"
    )
    if ratio > SHARD_SCALING_EVENTS_RATIO:
        print(
            "perf-smoke: FAIL -- per-shard Python glue grew faster than the "
            "one-shard batch (work back on the (shard, query) cell?)"
        )
        return 1

    cache = run_cache_smoke(repeats=REPEATS)
    print(
        f"perf-smoke: hot-Zipf cache gate: cached "
        f"{cache['cached_host_wall_seconds'] * 1e3:.1f}ms vs uncached "
        f"{cache['uncached_host_wall_seconds'] * 1e3:.1f}ms "
        f"(best of {REPEATS}, hit rate {cache['hit_rate']:.1%}, "
        f"budget {cache['budget_bytes']:,}B)"
    )
    if cache["cached_host_wall_seconds"] >= cache["uncached_host_wall_seconds"]:
        print(
            "perf-smoke: FAIL -- cached hot-Zipf serving is not faster "
            "than uncached (cache hit path stopped skipping the sense?)"
        )
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
