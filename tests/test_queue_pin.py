"""Pinned serving history of the host submission queue (core/queue.py).

The queue only decides *which* submissions ride *which* batch and *when*;
any rework of how it stores submissions, admits arrivals, estimates a
forming footprint or builds its records must leave those decisions
bit-identical.  This module pins, for

* a fixed 2-tenant (3:1) Poisson stream on one device, shaped so that
  batches close by every trigger: ``full``, ``occupancy``, ``timeout``,
  ``deadline`` and ``flush``;
* the same stream through a 2-shard, 2-replica ``submission_queue``;
* an ``IngestQueue`` mix of reads, inserts, deletes and updates, followed
  by ``run_ingest_maintenance`` and a search of the compacted database;
* one batch whose execution raises (a dead shard), which requeues its
  members before a later drain serves them,

per batch the member sub ids, close reason, ``repr`` of the start and
finish instants and the deadline misses, plus a digest of every served
result and every mutation ack.  The values in ``queue_pin.json`` were
recorded while the queue still kept its arrivals in a heap and folded
each arrival into the forming estimate on its own.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DeviceScheduler,
    QueuePolicy,
    ReisDevice,
    ShardedReisDevice,
    ShardUnavailableError,
    tiny_config,
)
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from repro.sim.latency import SimClock

PINNED_FILE = Path(__file__).with_name("queue_pin.json")

N, DIM, NLIST, NPROBE, K = 600, 64, 12, 3, 5
POLICY = QueuePolicy(
    max_batch=8, min_batch=4, batching_timeout_s=4e-4, deadline_slack_s=5e-5,
    collision_target=0.5, tenant_weights={"a": 3, "b": 1},
)


def _deep_config(name):
    """``tiny_config`` with a deeper array: room for the growth tails."""
    config = tiny_config(name)
    return dataclasses.replace(
        config, geometry=dataclasses.replace(config.geometry, blocks_per_plane=64)
    )


def _vectors():
    return make_clustered_embeddings(N, DIM, NLIST, seed="queue-pin")[0]


def _digest(result) -> str:
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(result.ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.distances, dtype=np.int64).tobytes())
    h.update(repr([d.chunk_id for d in result.documents]).encode())
    return h.hexdigest()[:16]


def _stream():
    """``(instant, tenant, deadline)`` per arrival: a Poisson stretch, a
    burst of twelve at one instant, three sparse arrivals, one with a
    deadline tighter than the timeout, and a tail the drain flushes."""
    rng = np.random.default_rng(42)
    at = list(np.sort(rng.uniform(0.0, 4e-3, size=40)))
    at += [5e-3] * 12
    at += [7e-3, 8e-3, 9e-3]
    at += [10e-3]
    at += [11e-3, 11e-3]
    tenants = np.where(rng.random(len(at)) < 0.75, "a", "b").tolist()
    deadlines = [float(t) + 2e-3 for t in at]
    deadlines[55] = at[55] + 1e-4  # closes by deadline before the timeout
    return [(float(t), tenant, d) for t, tenant, d in zip(at, tenants, deadlines)]


def _batches(report):
    return [
        {
            "members": [s.sub_id for s in batch.submissions],
            "reason": batch.close_reason,
            "start_s": repr(batch.start_s),
            "finish_s": repr(batch.finish_s),
            "misses": batch.execution.deadline_misses,
        }
        for batch in report.batches
    ]


def _served(report):
    return {
        str(q.submission.sub_id): [_digest(q.result), repr(q.finish_s)]
        for q in report.served
    }


def _serve_stream(device, db_id):
    vectors = _vectors()
    queries = make_queries(vectors, 64, seed="queue-pin-q")
    queue = device.submission_queue(
        db_id, k=K, nprobe=NPROBE, policy=POLICY, clock=SimClock()
    )
    for i, (at, tenant, deadline) in enumerate(_stream()):
        queue.submit(queries[i], tenant=tenant, deadline_s=deadline, at_s=at)
    report = queue.drain()
    return {"batches": _batches(report), "served": _served(report)}


def observe_single_device():
    device = ReisDevice(tiny_config("QPIN"))
    db_id = device.ivf_deploy("pin", _vectors(), nlist=NLIST, seed=0)
    return _serve_stream(device, db_id)


def observe_replicated_shards():
    device = ShardedReisDevice(2, tiny_config("QPIN-SH"), replication_factor=2)
    db_id = device.ivf_deploy("pin", _vectors(), nlist=NLIST, seed=0)
    return _serve_stream(device, db_id)


def observe_ingest_mix():
    vectors = _vectors()
    queries = make_queries(vectors, 48, seed="queue-pin-ingest")
    device = ReisDevice(_deep_config("QPIN-IN"))
    db_id = device.ivf_deploy("pin", vectors, nlist=NLIST, seed=0, growth_entries=4096)
    manager = device.ingest_manager(db_id)
    queue = device.ingest_queue(
        db_id, k=K, nprobe=NPROBE, policy=POLICY, clock=SimClock()
    )
    rng = np.random.default_rng(7)
    at = np.sort(rng.uniform(0.0, 10e-3, size=48))
    kinds = rng.permutation(np.repeat(np.arange(4), [30, 10, 4, 4]))
    victims = rng.permutation(N)[:48]
    for i, kind in enumerate(kinds.tolist()):
        how = dict(deadline_s=float(at[i]) + 3e-3, at_s=float(at[i]))
        fresh = vectors[victims[i]] + 0.01
        if kind == 0:
            queue.submit(queries[i], tenant="reader", **how)
        elif kind == 1:
            queue.submit_insert(fresh, tenant="writer", **how)
        elif kind == 2:
            queue.submit_delete(int(victims[i]), tenant="writer", **how)
        else:
            queue.submit_update(int(victims[i]), fresh, tenant="writer", **how)
    report = queue.drain()
    compaction = DeviceScheduler(device).run_ingest_maintenance(manager)
    after = device.ivf_search(db_id, queries[:6], k=K, nprobe=NPROBE)
    return {
        "batches": _batches(report),
        "served": _served(report),
        "acks": {
            str(sub_id): [ack.op, ack.entry_id, ack.replaced_id, ack.applied]
            for sub_id, ack in sorted(queue.mutation_acks.items())
        },
        "compaction": [
            compaction.live_entries, compaction.erased_blocks,
            compaction.reclaimed_pages, compaction.pages_programmed,
            repr(compaction.seconds),
        ],
        "after": [_digest(result) for result in after],
    }


def observe_requeue():
    vectors = _vectors()
    queries = make_queries(vectors, 10, seed="queue-pin-requeue")
    device = ShardedReisDevice(3, _deep_config("QPIN-RQ"))
    db_id = device.ivf_deploy("pin", vectors, nlist=NLIST, seed=0, growth_entries=4096)
    # Probing every cluster: a dead shard makes any read unservable.
    queue = device.ingest_queue(
        db_id, k=K, nprobe=NLIST, policy=POLICY, clock=SimClock()
    )
    for i, query in enumerate(queries[:8]):
        queue.submit(query, tenant="ab"[i % 3 == 0], at_s=0.0)
    queue.submit_insert(vectors[3] + 0.01, tenant="b", at_s=1e-4)
    for i, query in enumerate(queries[8:]):
        queue.submit(query, tenant="ab"[i % 2], at_s=2e-4 + i * 5e-5)
    first = queue.step()  # served while every shard lives
    device.kill_shard(1)
    with pytest.raises(ShardUnavailableError):
        queue.step()
    failed_at = repr(queue.clock.now_s)
    pending = queue.pending_count
    device.revive_shard(1)
    report = queue.drain()
    return {
        "first": [s.sub_id for s in first.submissions],
        "failed_at": failed_at,
        "pending_after_failure": pending,
        "batches": _batches(report),
        "served": _served(report),
        "acks": {
            str(sub_id): [ack.op, ack.entry_id, ack.replaced_id, ack.applied]
            for sub_id, ack in sorted(queue.mutation_acks.items())
        },
    }


OBSERVERS = {
    "single_device": observe_single_device,
    "replicated_shards": observe_replicated_shards,
    "ingest_mix": observe_ingest_mix,
    "requeue": observe_requeue,
}


def _observe(name):
    return json.loads(json.dumps(OBSERVERS[name]()))


@pytest.mark.parametrize("name", sorted(OBSERVERS))
def test_queue_history_is_pinned(name):
    pinned = json.loads(PINNED_FILE.read_text())[name]
    assert _observe(name) == pinned


def test_single_device_stream_closes_by_every_trigger():
    pinned = json.loads(PINNED_FILE.read_text())["single_device"]
    reasons = {batch["reason"] for batch in pinned["batches"]}
    assert reasons == {"full", "occupancy", "timeout", "deadline", "flush"}


if __name__ == "__main__":  # re-record: PYTHONPATH=src:. python tests/test_queue_pin.py
    PINNED_FILE.write_text(json.dumps(
        {name: _observe(name) for name in sorted(OBSERVERS)},
        indent=1, sort_keys=True,
    ) + "\n")
