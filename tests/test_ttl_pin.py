"""Pinned end-to-end values of the two TTL-heavy serving paths.

The Temporal Top Lists feed the shortlist, charge the embedded core one
quickselect per compaction and size the ``ttl-c`` / ``ttl-e`` DRAM
regions.  Any change to how they are stored must leave all three
bit-identical, so this module pins, for

* one single-device IVF batch whose threshold starves some queries into
  the unfiltered retry rescan (the filter-retry path), and
* one 2-shard, 2-replica batch that loses a shard at the fine barrier
  (the failover path: replacement runs rescan the dead shard's slice),

the result ids and distances, every query's :class:`SearchStats`, the
``repr`` of each device's embedded-core busy clock and each device's TTL
region sizes.  The values were recorded before the TTLs became one table
per scan phase.
"""

import dataclasses

from repro.core.api import ReisDevice, ShardedReisDevice
from repro.core.config import tiny_config
from repro.rag.embeddings import make_clustered_embeddings, make_queries


def _observe(batch, devices):
    return {
        "ids": [r.ids.tolist() for r in batch],
        "distances": [r.distances.tolist() for r in batch],
        "stats": [dataclasses.astuple(r.stats) for r in batch],
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
