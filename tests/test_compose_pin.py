"""Pinned cost composition of the two ledger-heavy serving paths.

:func:`repro.core.costing.compose_batch` turns every phase ledger a batch
billed into the modeled clock: each query's solo report, the batch
report, the per-phase breakdowns (seconds, components, unique and total
senses).  The device counters record the same work as energy.  Any change
to how the ledgers are reduced -- how the senses of a phase are counted,
how many reductions run, how IBC latches are filled -- must leave all of
it bit-identical, so this module pins, for

* one single-device IVF batch of five whose threshold starves every query
  into the unfiltered retry rescan (the fine ledger carries two executed
  schedules), and
* one 2-shard, 2-replica batch on warm DRAM page caches that loses a
  shard at the fine barrier (primary and failover devices in one
  composition, mirror-served visits in the ledgers), and
* one healthy 4-shard, 2-replica batch on warm cost-aware caches
  (:func:`tests.conftest.serve_warm_cached_cluster`: replicas elected over
  several owners, mirror-served visits on every shard),

every query's ``repr(latency.total_s)`` and phase dict, the batch report,
``BatchStats.phases`` and ``ssd.counters.as_dict()`` per device.  Floats
are compared exactly (JSON keeps a float's ``repr``).  The values in
``compose_pin.json`` were recorded before the TLC phases billed their
executed senses and before the composer reduced all ledgers in one pass;
the 4-shard values before the phase kernels served every shard at once.

The ``peripheral`` key pins the array's peripheral state after two
batches -- the warm 4-shard cluster, and one device serving a batch with
a metadata filter whose tight threshold starves some queries into the
retry rescan (tag sweeps and the rescan's senses) -- per device: every
die's count of each :class:`~repro.core.commands.FlashOp`, a SHA-1 of
every plane's sensing, cache and OOB latch, every plane's fail-bit
counter invocations and the array counters.  Those values were recorded
while each die was still driven once per (shard, plane).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.api import ReisDevice, ShardedReisDevice
from repro.core.commands import FlashOp
from repro.core.config import tiny_config
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from tests.conftest import serve_warm_cached_cluster

PINNED_FILE = Path(__file__).with_name("compose_pin.json")


def _report(report):
    return {
        "total_s": repr(report.total_s),
        "phases": report.phases,
        "components": report.components,
    }


def _observe(batch, devices):
    observed = {
        "queries": [
            {"total_s": repr(r.latency.total_s), "phases": r.latency.phases}
            for r in batch
        ],
        "batch": _report(batch.batch_report),
        "phases": {
            name: {
                "seconds": phase.seconds,
                "unique_senses": phase.unique_senses,
                "total_senses": phase.total_senses,
                "components": phase.components,
            }
            for name, phase in batch.batch_stats.phases.items()
        },
        "counters": [d.ssd.counters.as_dict() for d in devices],
    }
    return json.loads(json.dumps(observed))


def _workload():
    vectors, _ = make_clustered_embeddings(400, 64, 8, seed="compose-pin")
    return vectors, make_queries(vectors, 10, seed="compose-pin-q")


def observe_filter_retry():
    vectors, queries = _workload()
    device = ReisDevice(tiny_config("CPIN"))
    db_id = device.ivf_deploy("pin", vectors, nlist=8, seed=0)
    device.database(db_id).filter_threshold = 1  # nothing survives the filter
    batch = device.ivf_search(db_id, queries[:5], k=4, nprobe=3)
    assert all(r.stats.filter_retries == 1 for r in batch)
    return _observe(batch, [device])


def observe_cached_shard_failover():
    vectors, queries = _workload()
    config = tiny_config("CPIN-SH")
    # A deeper array: the 0.1%-rule DRAM then holds a working-set cache.
    config = dataclasses.replace(
        config, geometry=dataclasses.replace(config.geometry, blocks_per_plane=64)
    )
    device = ShardedReisDevice(2, config, replication_factor=2)
    db_id = device.ivf_deploy("pin", vectors, nlist=8, seed=0)
    device.enable_page_cache(100_000)  # about five pages per shard
    device.ivf_search(db_id, queries[:5], k=4, nprobe=3)  # warms the mirrors
    device.schedule_shard_failure(0, "fine")
    batch = device.ivf_search(db_id, queries[3:8], k=4, nprobe=3)
    assert sum(r.stats.cache_hits for r in batch) > 0
    assert "failover" in batch.batch_stats.phases
    return _observe(batch, device.shards)


def observe_warm_cached_cluster():
    return _observe(*serve_warm_cached_cluster())


def _peripheral(devices):
    def sha1(latch):
        return hashlib.sha1(latch.tobytes()).hexdigest()

    observed = []
    for device in devices:
        latches = device.ssd.array.latches
        observed.append({
            "commands": {
                str(die): {op.value: die_trace[op] for op in FlashOp}
                for die, die_trace in device.engine._die_interfaces.items()
            },
            "latches": [
                list(map(sha1, rows))
                for rows in zip(latches.sensing, latches.cache, latches.oob)
            ],
            "invocations": latches.invocations.tolist(),
            "counters": device.ssd.counters.as_dict(),
        })
    return json.loads(json.dumps(observed))


def observe_tagged_retry():
    vectors, queries = _workload()
    device = ReisDevice(tiny_config("PPIN"))
    tags = (np.arange(len(vectors)) % 3).astype(np.uint32)
    db_id = device.ivf_deploy("pin", vectors, nlist=8, seed=0, metadata_tags=tags)
    db = device.database(db_id)
    db.filter_threshold = 12  # starves four of the six queries
    batch = device.ivf_search(db_id, queries[:6], k=4, nprobe=3, metadata_filter=1)
    retried = [r.stats.filter_retries for r in batch]
    assert retried == [1, 1, 0, 0, 1, 1]
    return _peripheral([device])


def observe_peripheral():
    _batch, shards = serve_warm_cached_cluster()
    return {"warm_cached_cluster": _peripheral(shards), "tagged_retry": observe_tagged_retry()}


def test_filter_retry_composition_is_pinned():
    pinned = json.loads(PINNED_FILE.read_text())["filter_retry"]
    assert observe_filter_retry() == pinned


def test_cached_shard_failover_composition_is_pinned():
    pinned = json.loads(PINNED_FILE.read_text())["shard_failover"]
    assert observe_cached_shard_failover() == pinned


def test_warm_cached_cluster_composition_is_pinned():
    pinned = json.loads(PINNED_FILE.read_text())["warm_cached_cluster"]
    assert observe_warm_cached_cluster() == pinned


def test_peripheral_state_is_pinned():
    pinned = json.loads(PINNED_FILE.read_text())["peripheral"]
    assert observe_peripheral() == pinned


if __name__ == "__main__":  # re-record: python tests/test_compose_pin.py
    PINNED_FILE.write_text(json.dumps({
        "filter_retry": observe_filter_retry(),
        "shard_failover": observe_cached_shard_failover(),
        "warm_cached_cluster": observe_warm_cached_cluster(),
        "peripheral": observe_peripheral(),
    }, indent=1, sort_keys=True) + "\n")
