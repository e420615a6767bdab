"""Shared fixtures: small datasets, devices and deployed databases.

Expensive objects (trained indexes, deployed devices) are module- or
session-scoped; tests must not mutate them.  Tests that need mutation
build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.ivf import build_ivf_model
from repro.ann.recall import exact_ground_truth
from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.rag.documents import Corpus
from repro.rag.embeddings import make_clustered_embeddings, make_queries

SMALL_N = 600
SMALL_DIM = 128
SMALL_CLUSTERS = 12
SMALL_NLIST = 12
N_QUERIES = 12


def sense_one(array, plane, block, page, out=None):
    """A `FlashArray.read_pages` of one page of global plane ``plane``: its
    (data, oob) rows (``out``, a page-wide row, receives the data)."""
    run = array.read_pages([plane], [block], [page], None if out is None else out[None])
    return run.data[0], run.oob[0]


def stored_page(array, ppa):
    """The stored (data, oob) of the page at address ``ppa``: read-only
    views of its page-table row (:meth:`PageTable.view`)."""
    return array.pages.view(ppa.plane_linear(array.geometry), ppa.block, ppa.page)


@pytest.fixture(scope="session")
def small_vectors():
    vectors, labels = make_clustered_embeddings(
        SMALL_N, SMALL_DIM, SMALL_CLUSTERS, seed="tests"
    )
    return vectors, labels


@pytest.fixture(scope="session")
def small_queries(small_vectors):
    vectors, _ = small_vectors
    return make_queries(vectors, N_QUERIES, seed="tests-q")


@pytest.fixture(scope="session")
def small_ground_truth(small_vectors, small_queries):
    vectors, _ = small_vectors
    return exact_ground_truth(small_queries, vectors, 10)


@pytest.fixture(scope="session")
def small_corpus(small_vectors):
    _, labels = small_vectors
    return Corpus.synthetic(SMALL_N, labels, "unit")


@pytest.fixture(scope="session")
def small_ivf_model(small_vectors):
    vectors, _ = small_vectors
    return build_ivf_model(vectors, SMALL_NLIST, seed=0)


@pytest.fixture(scope="session")
def deployed_device(small_vectors, small_corpus, small_ivf_model):
    """A tiny REIS device with one IVF database deployed (read-only)."""
    vectors, _ = small_vectors
    device = ReisDevice(tiny_config())
    db_id = device.ivf_deploy(
        "unit-ivf", vectors, ivf_model=small_ivf_model, corpus=small_corpus, seed=0
    )
    return device, db_id


@pytest.fixture(scope="session")
def deployed_flat_device(small_vectors, small_corpus):
    """A tiny REIS device with one flat (brute-force) database (read-only)."""
    vectors, _ = small_vectors
    device = ReisDevice(tiny_config("REIS-TINY-FLAT"))
    db_id = device.db_deploy("unit-flat", vectors, corpus=small_corpus, seed=0)
    return device, db_id


@pytest.fixture()
def fresh_device():
    """A mutable device for tests that deploy/drop databases."""
    return ReisDevice(tiny_config("REIS-FRESH"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def sim_clock():
    """A fresh simulated clock (host-side queue decisions never read wall
    time; see the guard test in tests/test_core_queue.py)."""
    from repro.sim.latency import SimClock

    return SimClock()


class BlockRows:
    """A TTL row source over a materialized :class:`TtlBlock`: slot ``s``
    decodes to block row ``s`` (on a device the scan's latched pages play
    this part)."""

    def __init__(self, block):
        self.block = block

    def decode(self, _dists, _ranks, slots):
        return self.block.take(slots)


def stream_visits(ttl, source, visits):
    """Stream page visits ``[(query, [dist, ...]), ...]`` -- query-major,
    each query's in arrival order -- into ``ttl`` as one scan kernel call
    whose rows are slots ``0, 1, ...`` of ``source``.  Returns the table's
    compactions."""
    queries = np.array([q for q, _ in visits], dtype=np.int64)
    counts = np.array([len(page) for _, page in visits], dtype=np.int64)
    dists = np.array([d for _, page in visits for d in page], dtype=np.int64)
    slots = np.arange(dists.size)
    return ttl.stream(
        source, np.repeat(queries, counts), dists, np.zeros_like(slots), slots,
        queries, counts,
    )


def serve_warm_cached_cluster():
    """A healthy 4-shard, 2-replica batch on warm cost-aware page caches.

    Sixteen queries over 16 clusters after three warming batches: the
    serving replicas are elected over several owners, every shard serves
    its centroid page from the DRAM mirror, and the fine and TLC phases mix
    mirror-served visits with NAND senses.  Returns ``(batch, shards)``.
    """
    import dataclasses

    from repro.core.api import ShardedReisDevice
    from repro.core.cache import CostAwarePolicy

    vectors, _ = make_clustered_embeddings(800, 64, 16, seed="zipf-pin")
    queries = make_queries(vectors, 24, seed="zipf-pin-q")
    config = tiny_config("ZPIN")
    config = dataclasses.replace(
        config, geometry=dataclasses.replace(config.geometry, blocks_per_plane=64)
    )
    device = ShardedReisDevice(4, config, replication_factor=2)
    db_id = device.ivf_deploy("pin", vectors, nlist=16, seed=0)
    device.enable_page_cache(115_000, policy_factory=CostAwarePolicy)
    for lo in (0, 8, 16):
        device.ivf_search(db_id, queries[lo:lo + 8], k=4, nprobe=4)
    hits = [shard.ssd.counters.as_dict()["dram_cache_hits"] for shard in device.shards]
    batch = device.ivf_search(db_id, queries[4:20], k=4, nprobe=4)
    served = [
        shard.ssd.counters.as_dict()["dram_cache_hits"] - before
        for shard, before in zip(device.shards, hits)
    ]
    assert all(n > 0 for n in served)
    assert sum(n > len(batch) for n in served) >= 2  # fine hits on 2+ owners
    return batch, device.shards


def one_run(device, db, n_queries, codes=None):
    """A device's share of an ``n_queries`` batch as the phase kernels take
    it: an empty count table and the given binary query ``codes`` (the
    float queries are zeros; no kernel reads them but the rerank)."""
    from repro.core.batch import BatchExecutor

    run = BatchExecutor(device.engine).prepare(
        db, np.zeros((n_queries, db.dim), dtype=np.float32)
    )
    run.codes = codes
    return run


def fetch_documents(device, db, dadrs_per_query):
    """Fetch and decode each query's document slots through the device's
    document phase: ``(documents per query, the run)``; the run carries
    the count table and host-transfer seconds the kernel billed."""
    from repro.core.batch import BatchExecutor

    counts = [len(dadrs) for dadrs in dadrs_per_query]
    dadrs = np.concatenate([np.asarray(d, dtype=np.int64) for d in dadrs_per_query])
    run = one_run(device, db, len(counts))
    documents = BatchExecutor(device.engine)._fetch_documents(
        run, np.arange(len(counts)).repeat(counts), dadrs
    )
    cuts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return [documents[lo:hi] for lo, hi in zip(cuts, cuts[1:])], run


def tiny_ingest_device():
    """A tiny device holding a 1,200-entry IVF database with growth headroom,
    and two mutation epochs for it (inserts, deletes and updates; the
    second targets ids the first inserted).  Returns ``(device, manager,
    epochs)``; nothing is applied yet."""
    from repro.core.ingest import MutationRequest

    vectors, _ = make_clustered_embeddings(1200, 64, 12, seed="nand-write")
    device = ReisDevice(tiny_config("NWRITE"))
    db_id = device.ivf_deploy("db", vectors, nlist=12, seed=0, growth_entries=4096)
    rng = np.random.default_rng(7)

    def near(i):
        return (vectors[i % 1200] + rng.normal(0, 0.05, 64)).astype(np.float32)

    epochs = [
        [MutationRequest(op="insert", vector=near(i)) for i in range(0, 1200, 4)]
        + [MutationRequest(op="delete", entry_id=i) for i in range(1, 1200, 5)]
        + [MutationRequest(op="update", entry_id=i, vector=near(i)) for i in (2, 500, 999)],
        [MutationRequest(op="insert", vector=near(i)) for i in range(3, 1200, 6)]
        + [MutationRequest(op="delete", entry_id=i) for i in (1200, 1205, 1250, 63)]
        + [MutationRequest(op="update", entry_id=i, vector=near(i)) for i in (1201, 730)],
    ]
    return device, device.ingest_manager(db_id), epochs
