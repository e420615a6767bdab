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
point: the phase kernels (one array read per shard into the page stack
with one raw-bit-error draw, ECC from that read's flip column, one
columnar billing pass) hold it near 0.59 of a batch whose other phases
bill through the cost ledger.  At 10^4 entries a batch of 64 senses only
80 TLC pages for 17,502 rerank and document rows, so the rows carry the
share, not the senses: drawing the errors once per read instead of once
per page moved it from 0.61-0.62 to 0.58-0.60 (0.58 with the per-page
draws on a quieter box; 0.45 of the slower batch that filled a cost
object per page visit; 0.60 of that batch while every page was copied
six times and billed through per-query loops), so a reintroduced
per-query TLC walk trips it regardless of how fast the CI machine is.

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
served on a device behind a working-set-sized cost-aware cache must beat
the same stream on an identical uncached device in host wall.  The two
devices serve alternately, best-of-5 each, so both sides share the
machine's noise (one after the other, the gate failed 3 runs in 7 on a
shared 2-vCPU box), and the ``call`` + ``c_call`` events of one stream
on each are printed beside the walls.  Cache hits skip the error draw
and the ECC decode of TLC pages, so a cached steady state that is
*slower* means the hit path grew a per-page Python loop or the lookup
stopped short-circuiting the sense.  The margin is thin since an ESP-SLC
sense became one copy of the stored bytes, as cheap as a mirror hit, and
thinner since a sense gathers its pages from the page table in one copy.
Next to it, noise-free: once the mirror is warm, one more stream on the
cached device misses nothing and adds no page read, no ECC-decoded byte
and no draw from the raw-bit-error stream, while the same stream on the
uncached device reads pages and draws errors.

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
instead of a TTL object per (shard, query) brought it to 3.68, and it
crept back to 4.00 as the one-device path lost fixed calls faster.  Each
phase kernel now runs once per barrier over every shard's (shard, plane,
page) table, with one TTL table whose rows are (shard, query) pairs: 2.60.
With each phase's die work one step per drive over its command, latch and
counter tables, and the embedded-core charges one column per drive: 2.44.
What still grows with shards is that per-drive step -- its per-(shard,
query) stats, its cache, core column and ledger.

Beside the ratio, the *difference* of the two counts (8-shard minus
1-shard events) is capped at x1.05 of its reading: a cut to fixed
per-query work lowers both counts alike and leaves the difference where it
was, while it moves the ratio up (the cut that took ~640 chunk
constructions off both batches read 2.44 -> 2.80 with no shard glue
added), so the difference is what measures per-shard glue.

A ninth, noise-free too, covers open-loop forming: the ``call`` +
``c_call`` events per query of a fixed Poisson slice served through a
tiny device's submission queue (the ``queue_poisson`` policy, batches of
a few queries), x1.05 of the reading with forming folding each arrival
into a running occupancy estimate.  An estimate that rebuilds every
pending candidate's schedule per arrival, a per-block finiteness check of
a single query, or a pending set re-sorted per event trips it.

A tenth, noise-free, covers building a device: the ``call`` + ``c_call``
events of constructing one 64-blocks-per-plane
:class:`~repro.nand.array.FlashArray` (8 planes, 32,768 pages), x1.05.
Its pages are rows of one table, so the build costs a few calls per plane;
a Python object per page or block creeping back costs tens of thousands.

An eleventh, noise-free, covers how the serving path calls numpy: the
``call`` events whose code lives under numpy's package directory during
the batch-of-one search above, x1.05.  The phase kernels call numpy
through its C entry points -- ufuncs and their ``reduce`` / ``accumulate``
methods, ndarray methods, the one sort-based unique of
:mod:`repro.sim.unique` -- so what is left there is the dispatchers of
``bincount``, ``concatenate`` and ``where`` and what numpy's random
generator calls itself.  A Python-level wrapper (``np.unique``,
``np.stack``, ``.sum()``, ``np.full``) back in a kernel adds its frames
here first.

A twelfth, noise-free, covers the NAND write path: the ``call`` +
``c_call`` events of one append commit plus one ``compact()`` on the tiny
ingest device of :func:`tests.conftest.tiny_ingest_device`, x1.05.  Deploy,
appends and compaction program and erase the page table by column (one
``PageTable.program`` per region write, one erase per cleared window), so
a write that goes back to one page or block per call chain trips it.

Usage: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

import json
import os
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from repro.core import QueuePolicy, ReisDevice, tiny_config  # noqa: E402
from repro.nand.array import FlashArray  # noqa: E402
from repro.rag.embeddings import make_clustered_embeddings, make_queries  # noqa: E402
from repro.sim.rng import make_rng  # noqa: E402
from test_serving_throughput import (  # noqa: E402
    BENCH_PATH,
    CACHE_NPROBE,
    DIM,
    HOST_SCALE_POINTS,
    K,
    N_ENTRIES,
    NLIST,
    NPROBE,
    SHARD_SCALE_NPROBE,
    cached_cluster_workload,
    count_events,
    deploy_shard_scaling_point,
    host_scale_config,
    host_scaling_corpus,
    run_cache_smoke,
    run_host_scaling_point,
    shard_scaling_corpus,
)
from tests.conftest import tiny_ingest_device  # noqa: E402

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
# entries: 1,361 with each run's per-query stats one count table that the
# kernels add columns to (python 3.11, numpy 2.4; 1,430 with one
# SearchStats object per query, incremented in per-query loops, 2,291
# with np.unique, np.stack, np.full and the reduction methods, with every
# sense gathering its pages from the array's page table in one copy; 3,057 while every gathered page
# was a call to its page object, 3,124 while every geometry size
# was a chained property and queries were checked for finiteness in row
# blocks, 6,596 while each plane's senses,
# extractions and comparator sweeps were their own die-command call chain
# and the embedded-core charges a per-query loop, 13,884 while every sensed TLC
# page drew its own raw bit errors, 15,908 before a device batch
# became the one-shard case of the cluster's phase kernels, 16,678 while
# each phase ledger was reduced on its own and the TLC phases derived their
# senses, 18,396 with one TTL object per query, 36,694 while every page
# visit filled a per-query cost object, 60,230 while every query's
# shortlist and report were also selected and composed one by one); x1.05.
EVENTS_N_ENTRIES = 100_000
SEARCH_EVENTS_CEILING = 1_429
# Measured events of the batch-of-one search that follows it: 995 with
# the per-query stats one count table per run (python 3.11, numpy 2.4;
# 1,001 with a SearchStats object per query, 1,529
# with numpy's Python-level wrappers and the page table, 1,581 with page
# objects, 1,644
# with chained geometry properties and a
# per-query finiteness check in row blocks, 2,476 with per-plane die
# commands, 2,862 with
# per-page error draws, 2,933 before
# the one-shard kernels, 3,128 with per-ledger reductions, 3,194 with one
# TTL object per query); x1.05.
# A batch of one pays every per-batch pass for one query, so fixed
# per-batch work that batch 64 amortizes shows here first.
SOLO_EVENTS_CEILING = 1_045
# Measured tracemalloc peak of that point's ivf_deploy: 30.03 MB in a fresh
# process, 28.9 MB after the gates above, with programming writing into the
# page table's preallocated rows (python 3.11, numpy 2.4; 44.26 MB while
# every programmed page allocated a padded copy of its own, 206.19 MB with
# the whole-matrix build); x1.10.
DEPLOY_PEAK_BYTES_CEILING = 33_040_000
# Measured events of the fifth batch on the cached 4 x 2 cluster: 2,268
# with one count table per run summed once per batch (python 3.11, numpy
# 2.4; 2,386 with a SearchStats object per (shard, query), summed again by
# the router, 3,410 with numpy's wrappers,
# the page table and one-copy cache hits, 3,580 with a call per gathered page and a per-row hit copy, 4,237 while
# every winner's chunk went through
# the NamedTuple constructor and replica election was a Python min per
# probed cluster, 6,234 with per-(shard, plane) die commands,
# 6,785 with per-page error draws, 10,618-10,678
# while every shard ran its own phase kernels, 10,928 while replica
# election and the down-cluster check asked each cluster's owners one call
# at a time, 11,960 with per-ledger
# reductions, 13,421 with one TTL object per (shard, query), 14,353 while
# the cache was driven one page at a time, 18,973 before the cost
# ledger); x1.05.
SHARD_WARM_BATCHES = 4
SHARD_EVENTS_CEILING = 2_381
# Measured events(8 shards) / events(1 shard) on the shard_scaling batch:
# 3,625 / 1,386 = 2.62 with one count table per run instead of a
# SearchStats object per (shard, query) (the gate stays at 2.68).  Before
# it: 3,948 / 1,497 = 2.64 with numpy called through its C entry points.
# Fixed work fell faster than per-shard work: with
# the wrappers gone and the phase's counter adds one call per device the
# ratio read 2.74 (4,165 / 1,519) until the per-shard cuts (the ledgers'
# visit columns built once per batch, the cache read as an SSD attribute,
# the core's REIS core an attribute, latch_senses taking arrays) brought
# it back under the gate.  Before it: 6,002 / 2,278 = 2.63 with the page
# table.
# Before it: 6,138 / 2,336 = 2.63 with the chunks, the election and the geometry
# sizes off the per-query path (both counts fell; the per-query cuts alone
# read 6,532 / 2,332 = 2.80, over the gate, until the rerank's log2 per
# distinct count and the TLC counter sums were taken once per batch
# instead of once per shard; the gate stays at 2.68).  Before it: 7,789 / 3,197 = 2.44 with each
# phase's die work one step per device
# (command, latch and counter tables) and the embedded-core charges one
# column per device; x1.10.  Before it: 11,455 / 4,108 = 2.79 with one
# raw-bit-error draw and one ECC call per
# shard's TLC read (the gate stays at 2.87, not raised: the one-shard count
# fell by 641, the eight-shard one by 912, so the ratio rose); 12,367 /
# 4,749 = 2.60 with per-page error draws, the first count with each phase
# kernel run once per barrier over every shard's (shard, plane, page)
# table; x1.10.  Before it, with one kernel call per shard: 25,772 /
# 6,448 = 4.00 (gated at 4.05, x1.10 of
# 28,120 / 7,634 = 3.68 read with per-ledger reductions); 26,099 / 6,768
# = 3.86 before the owner-table election; 34,429 / 8,530 = 4.04 with one
# TTL object per (shard, query); 34,453 / 8,533 = 4.04 with the per-page
# cache; 50,570 / 15,847 = 3.19 and 124,118 / 38,029 = 3.26 before that.
SHARD_SCALING_EVENTS_RATIO = 2.68
# Measured events(8 shards) - events(1 shard) on that batch: 2,239 with
# one count table per run (python 3.11, numpy 2.4; 2,451 with a
# SearchStats object per (shard, query), 3,724
# with its wrappers and the page table, 3,802 with page objects); x1.05.
SHARD_SCALING_EVENTS_DIFF_CEILING = 2_351
# Measured call + c_call events per query of the forming slice (an
# open-loop Poisson stream through a tiny-device submission queue): 175.2
# with submissions as rows of one table and each estimate folding its block
# of arrivals in one pass (python 3.11, numpy 2.4; 204.7 with an arrival
# heap, a footprint and a fold per arrival and records built in Python,
# 301.0 with numpy's wrappers and a running occupancy estimate, 350.3 while
# every estimate rebuilt each candidate's schedule); x1.05.
FORMING_ARRIVALS = 512
FORMING_RATE_QPS = 16_000.0
FORMING_EVENTS_CEILING = 184.0
# Measured call + c_call events of constructing one 64-blocks-per-plane
# FlashArray: 172 with the pages as rows of one table (python 3.11, numpy
# 2.4; 33,949 with a FlashPage object per page and a FlashBlock per block);
# x1.05.
BUILD_BLOCKS_PER_PLANE = 64
BUILD_EVENTS_CEILING = 181
# Measured call + c_call events of the first append commit plus one
# compact() on the tiny ingest device: 7,831 with program, erase and mode
# change writing page-table columns in one call per region or window
# (python 3.11, numpy 2.4; 10,781 with one call chain per page or block);
# x1.05.
INGEST_WRITE_EVENTS_CEILING = 8_223


# Measured call events of code under numpy's package directory during that
# batch-of-one search: 105 with every serving-path kernel calling numpy
# through its C entry points (python 3.11, numpy 2.4; 372 with np.unique,
# np.stack, np.full and the reduction methods); x1.05.
SOLO_NUMPY_EVENTS_CEILING = 110
NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def count_numpy_events(serve) -> tuple:
    """``(call + c_call events, call events of code under numpy's package
    directory)`` of one ``serve()``."""
    events = numpy_events = 0

    def count(frame, event, _arg):
        nonlocal events, numpy_events
        if event == "call":
            events += 1
            numpy_events += frame.f_code.co_filename.startswith(NUMPY_DIR)
        elif event == "c_call":
            events += 1

    sys.setprofile(count)
    try:
        serve()
    finally:
        sys.setprofile(None)
    return events, numpy_events


def tlc_share(point) -> float:
    """Fraction of the host wall spent in the rerank+documents kernels."""
    phases = point["host_phase_seconds"]
    tlc = phases.get("host_rerank", 0.0) + phases.get("host_documents", 0.0)
    return tlc / max(point["host_wall_seconds"], 1e-12)


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


def count_forming_events() -> float:
    """Python call + c_call events per query of a fixed open-loop slice:
    :data:`FORMING_ARRIVALS` Poisson arrivals at :data:`FORMING_RATE_QPS`
    (uniform instants over the window, two tenants 3:1) served through a
    tiny device's submission queue under the ``queue_poisson`` policy.
    Batches of a few queries each: admission, the occupancy estimate and
    the queue's bookkeeping weigh here as they do on that workload."""
    vectors, _ = make_clustered_embeddings(N_ENTRIES, DIM, NLIST, seed="forming")
    device = ReisDevice(tiny_config("FORMING"))
    db_id = device.ivf_deploy("forming", vectors, nlist=NLIST, seed=0)
    queries = make_queries(vectors, FORMING_ARRIVALS, seed="forming-q")
    rng = make_rng("forming-arrivals")
    arrivals = np.sort(
        rng.uniform(0.0, FORMING_ARRIVALS / FORMING_RATE_QPS, FORMING_ARRIVALS)
    ).tolist()
    tenants = ["a" if i % 4 else "b" for i in range(FORMING_ARRIVALS)]
    queue = device.submission_queue(
        db_id, k=K, nprobe=NPROBE,
        policy=QueuePolicy(
            max_batch=32, min_batch=4, batching_timeout_s=1e-3,
            collision_target=0.5, tenant_weights={"a": 3, "b": 1},
        ),
    )

    def serve():
        for query, tenant, at in zip(queries, tenants, arrivals):
            queue.submit(query, tenant=tenant, deadline_s=at + 8e-3, at_s=at)
        queue.drain()

    return count_events(serve) / FORMING_ARRIVALS


def count_ingest_write_events() -> int:
    """Python call + c_call events of the first mutation epoch's commit
    plus one compaction on a fresh tiny ingest device."""
    _device, manager, epochs = tiny_ingest_device()

    def serve():
        manager.apply(epochs[0])
        manager.compact()

    return count_events(serve)


def count_build_and_search() -> tuple:
    """The :data:`EVENTS_N_ENTRIES` host-scaling point on a fresh device:
    ``(tracemalloc peak bytes of its ivf_deploy, Python call + c_call
    events of the first batch-64 search, events of the batch-of-one search
    of its first query that follows, and that search's call events of code
    under numpy's package directory)``."""
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
    solo_events, solo_numpy = count_numpy_events(
        lambda: device.ivf_search(db_id, queries[:1], k=K, nprobe=NPROBE)
    )
    return deploy_peak, events, solo_events, solo_numpy


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

    deploy_peak, events, solo_events, solo_numpy = count_build_and_search()
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
    print(
        f"perf-smoke: batch-1 search at {EVENTS_N_ENTRIES:,} entries: "
        f"{solo_numpy:,} call events in numpy's own code, ceiling "
        f"{SOLO_NUMPY_EVENTS_CEILING:,}"
    )
    if solo_numpy > SOLO_NUMPY_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- numpy's Python-level code back on the "
            "serving path (np.unique, np.stack, .sum() in a kernel?)"
        )
        return 1

    geometry = host_scale_config("BUILD", BUILD_BLOCKS_PER_PLANE).geometry
    build = count_events(lambda: FlashArray(geometry))
    print(
        f"perf-smoke: building a {BUILD_BLOCKS_PER_PLANE}-blocks-per-plane "
        f"FlashArray ({geometry.total_pages:,} pages): {build:,} call + c_call "
        f"events, ceiling {BUILD_EVENTS_CEILING:,}"
    )
    if build > BUILD_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- device build Python call count regressed "
            "(an object per page or block back in nand/?)"
        )
        return 1

    writes = count_ingest_write_events()
    print(
        f"perf-smoke: append commit + compact() on the tiny ingest device: "
        f"{writes:,} call + c_call events, ceiling {INGEST_WRITE_EVENTS_CEILING:,}"
    )
    if writes > INGEST_WRITE_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- NAND write Python call count regressed "
            "(a program or erase back to one page or block per call?)"
        )
        return 1

    forming = count_forming_events()
    print(
        f"perf-smoke: open-loop forming slice of {FORMING_ARRIVALS} arrivals: "
        f"{forming:,.1f} call + c_call events per query, ceiling "
        f"{FORMING_EVENTS_CEILING:,.1f}"
    )
    if forming > FORMING_EVENTS_CEILING:
        print(
            "perf-smoke: FAIL -- open-loop Python call count regressed "
            "(forming re-deriving the pending set per arrival?)"
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
    diff = eight_shards - one_shard
    print(
        f"perf-smoke: shard_scaling batch-32 per-shard glue: 8 shards - 1 "
        f"shard = {diff:,} events, ceiling {SHARD_SCALING_EVENTS_DIFF_CEILING:,}"
    )
    if diff > SHARD_SCALING_EVENTS_DIFF_CEILING:
        print(
            "perf-smoke: FAIL -- per-shard Python glue grew (work back on "
            "the (shard, query) cell?)"
        )
        return 1

    cache = run_cache_smoke(repeats=REPEATS)
    print(
        f"perf-smoke: hot-Zipf cache gate: cached "
        f"{cache['cached_host_wall_seconds'] * 1e3:.1f}ms vs uncached "
        f"{cache['uncached_host_wall_seconds'] * 1e3:.1f}ms "
        f"(alternating, best of {REPEATS} each, hit rate "
        f"{cache['hit_rate']:.1%}, budget {cache['budget_bytes']:,}B); "
        f"{cache['cached_events']:,} vs {cache['uncached_events']:,} call + "
        f"c_call events per stream"
    )
    if cache["cached_host_wall_seconds"] >= cache["uncached_host_wall_seconds"]:
        print(
            "perf-smoke: FAIL -- cached hot-Zipf serving is not faster "
            "than uncached (cache hit path stopped skipping the sense?)"
        )
        return 1
    cached, uncached = cache["cached_sensed"], cache["uncached_sensed"]
    print(
        f"perf-smoke: steady hot-Zipf stream senses: cached "
        f"{cached['page_reads']:,.0f} page reads, {cached['decoded_bytes']:,} "
        f"ECC bytes, {cached['misses']} misses, error draw "
        f"{'yes' if cached['drew_errors'] else 'no'}; uncached "
        f"{uncached['page_reads']:,.0f} page reads, "
        f"{uncached['decoded_bytes']:,} ECC bytes"
    )
    if not uncached["page_reads"] or not uncached["drew_errors"]:
        print("perf-smoke: FAIL -- the uncached stream sensed nothing (vacuous gate)")
        return 1
    if (cached["misses"] or cached["page_reads"] or cached["decoded_bytes"]
            or cached["drew_errors"]):
        print(
            "perf-smoke: FAIL -- a steady-state cache hit sensed, decoded or "
            "drew raw bit errors (hit path no longer skips the sense?)"
        )
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
