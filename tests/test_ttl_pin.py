"""Pinned end-to-end values of the two TTL-heavy serving paths.

The Temporal Top Lists feed the shortlist, charge the embedded core one
quickselect per compaction and size the ``ttl-c`` / ``ttl-e`` DRAM
regions.  Any change to how they are stored must leave all three
bit-identical, so this module pins, for

* one single-device IVF batch whose threshold starves some queries into
  the unfiltered retry rescan (the filter-retry path), and
* one 2-shard, 2-replica batch that loses a shard at the fine barrier
  (the failover path: replacement runs rescan the dead shard's slice), and
* one healthy 4-shard, 2-replica batch on warm cost-aware caches
  (:func:`tests.conftest.serve_warm_cached_cluster`),

the result ids and distances, every query's :class:`SearchStats`, the
``repr`` of each device's embedded-core busy clock and each device's TTL
region sizes.  The values were recorded before the TTLs became one table
per scan phase; the 4-shard values before one TTL table served every
shard of a phase.
"""

from repro.core.api import ReisDevice, ShardedReisDevice
from repro.core.config import tiny_config
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from tests.conftest import serve_warm_cached_cluster


def _observe(batch, devices):
    return {
        "ids": [r.ids.tolist() for r in batch],
        "distances": [r.distances.tolist() for r in batch],
        "stats": [tuple(r.stats) for r in batch],
        "busy": [repr(d.ssd.cores.reis_core.busy_seconds) for d in devices],
        "ttl_bytes": [
            (d.ssd.dram.region_size("ttl-c"), d.ssd.dram.region_size("ttl-e"))
            for d in devices
        ],
    }


def _workload():
    vectors, _ = make_clustered_embeddings(400, 64, 8, seed="pin")
    return vectors, make_queries(vectors, 6, seed="pin-q")


def observe_filter_retry():
    vectors, queries = _workload()
    device = ReisDevice(tiny_config("PIN"))
    db_id = device.ivf_deploy("pin", vectors, nlist=8, seed=0)
    # Tight enough that queries 0, 1, 2 and 4 keep fewer than k survivors.
    device.database(db_id).filter_threshold = 8
    return _observe(device.ivf_search(db_id, queries, k=4, nprobe=3), [device])


def observe_shard_failover():
    vectors, queries = _workload()
    device = ShardedReisDevice(2, tiny_config("PIN-SH"), replication_factor=2)
    db_id = device.ivf_deploy("pin", vectors, nlist=8, seed=0)
    device.schedule_shard_failure(1, "fine")
    return _observe(
        device.ivf_search(db_id, queries, k=4, nprobe=3), device.shards
    )


# (pages_read, entries_scanned, entries_transferred, entries_filtered,
#  clusters_probed, candidates, filter_retries, ibc_transfers, cache_hits)
# per query, in SearchStats field order.
PINNED_FILTER_RETRY = {'ids': [[16, 327, 347, 315], [335, 30, 241, 365], [24, 386, 19, 325],
         [291, 115, 85, 142], [391, 12, 56, 42], [221, 99, 295, 291]],
 'distances': [[2607, 20820, 21654, 21986], [2103, 18266, 19147, 19769],
               [2616, 17371, 19319, 20151], [2314, 21606, 23274, 24273],
               [2206, 16227, 17411, 17534], [2020, 21610, 25286, 25829]],
 'stats': [(12, 318, 164, 154, 3, 155, 1, 4, 0), (10, 292, 151, 141, 3, 142, 1, 4, 0),
           (10, 336, 173, 163, 3, 164, 1, 4, 0), (6, 171, 12, 159, 3, 163, 0, 4, 0),
           (11, 298, 154, 144, 3, 145, 1, 4, 0), (7, 162, 12, 150, 3, 154, 0, 4, 0)],
 'busy': ['4.6973269496170516e-05'],
 'ttl_bytes': [(120, 2952)]}

PINNED_SHARD_FAILOVER = {'ids': [[16, 327, 347, 315], [335, 30, 241, 365], [24, 386, 19, 325],
         [291, 121, 324, 115], [391, 12, 56, 42], [221, 121, 246, 85]],
 'distances': [[2607, 20820, 21654, 21986], [2103, 18266, 19147, 19769],
               [2616, 17371, 19319, 20151], [2314, 14857, 21086, 21606],
               [2206, 16227, 17411, 17534], [2020, 19028, 19118, 20653]],
 'stats': [(13, 272, 272, 0, 3, 256, 0, 12, 0), (9, 193, 193, 0, 3, 177, 0, 12, 0),
           (10, 236, 236, 0, 3, 220, 0, 12, 0), (10, 235, 235, 0, 3, 219, 0, 12, 0),
           (12, 306, 306, 0, 3, 290, 0, 12, 0), (11, 217, 217, 0, 3, 201, 0, 12, 0)],
 'busy': ['6.712301199159327e-05', '3.519999999999999e-07'],
 'ttl_bytes': [(120, 2610), (120, 2610)]}


def test_filter_retry_batch_is_pinned():
    observed = observe_filter_retry()
    assert observed == PINNED_FILTER_RETRY


def test_shard_failover_batch_is_pinned():
    assert observe_shard_failover() == PINNED_SHARD_FAILOVER


PINNED_WARM_CACHED_CLUSTER = {
 'busy': ['0.00015942356990481232', '6.88543447946122e-05', '6.76258310293512e-05',
          '0.00016364872686678423'],
 'distances': [[2556, 21505, 25092, 26408], [2227, 16994, 17733, 19881],
               [2661, 21864, 22470, 22713], [3020, 23483, 24190, 24202],
               [2753, 19749, 20422, 20460], [2542, 21176, 23263, 23919],
               [2737, 18446, 19398, 21875], [2567, 19308, 21800, 22988],
               [2649, 18252, 19206, 19437], [2801, 22152, 25425, 26394],
               [3371, 22704, 23537, 24051], [2874, 14455, 18684, 20251],
               [2482, 20562, 20768, 21799], [2748, 17118, 18488, 18498],
               [2591, 19186, 19936, 21589], [2319, 17829, 19590, 22526]],
 'ids': [[365, 127, 17, 419], [41, 440, 588, 612], [53, 517, 467, 571],
         [124, 467, 686, 342], [770, 348, 706, 305], [697, 41, 440, 680],
         [194, 567, 153, 450], [458, 159, 781, 189], [390, 376, 334, 349],
         [785, 580, 389, 393], [311, 58, 219, 24], [617, 688, 319, 535],
         [666, 42, 608, 478], [796, 557, 44, 440], [84, 325, 534, 496],
         [303, 260, 739, 305]],
 'stats': [(1, 254, 251, 3, 4, 222, 0, 16, 12), (4, 248, 236, 12, 4, 216, 0, 16, 12),
           (2, 210, 202, 8, 4, 178, 0, 16, 11), (2, 260, 251, 9, 4, 228, 0, 16, 9),
           (3, 304, 297, 7, 4, 272, 0, 16, 11), (4, 223, 222, 1, 4, 191, 0, 16, 12),
           (2, 155, 152, 3, 4, 123, 0, 16, 8), (4, 222, 221, 1, 4, 190, 0, 16, 12),
           (3, 328, 315, 13, 4, 296, 0, 16, 12), (1, 184, 175, 9, 4, 152, 0, 16, 10),
           (1, 193, 193, 0, 4, 161, 0, 16, 12), (2, 224, 220, 4, 4, 192, 0, 16, 8),
           (4, 275, 268, 7, 4, 243, 0, 16, 9), (3, 248, 242, 6, 4, 216, 0, 16, 14),
           (2, 237, 227, 10, 4, 205, 0, 16, 12), (3, 253, 251, 2, 4, 221, 0, 16, 13)],
 'ttl_bytes': [(120, 3132), (120, 2196), (120, 3528), (120, 3528)]}


def test_warm_cached_cluster_batch_is_pinned():
    assert _observe(*serve_warm_cached_cluster()) == PINNED_WARM_CACHED_CLUSTER
