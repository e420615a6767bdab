"""Tests for the DRAM-budgeted hot-page cache tier (core/cache.py).

The central contract: serving from the DRAM mirror is *bit-identical* to
re-sensing from NAND -- ids, distances and documents never change for any
cache size, policy, or mutation/kill interleaving -- while the accounting
shifts exactly the served senses from the NAND counters to the
``dram_cache_*`` counters (billed work = unique NAND senses + DRAM hit
bytes).  Hypothesis drives random mutation scripts against a cached and an
uncached twin; deterministic tests pin the policy mechanics, the
``InternalDram`` bookkeeping edges, and the Zipf stream generator.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ann.ivf import build_ivf_model
from repro.core.api import ReisDevice, ShardedReisDevice
from repro.core.cache import CostAwarePolicy, PageCache
from repro.core.config import (
    FlashGeometry,
    NandTiming,
    ReisConfig,
    tiny_config,
)
from repro.core.ingest import MutationRequest
from repro.core.layout import CapacityError
from repro.sim.rng import zipf_ranks, zipf_weights
from repro.ssd.coarse import CoarseRegion
from repro.ssd.dram import InternalDram
from repro.rag.embeddings import make_clustered_embeddings, make_queries

DIM = 16
NLIST = 5
K = 5


def deep_config(name):
    """The tiny topology with a deeper array: 8x the flash, so the sized
    internal DRAM (0.1% of capacity) can hold a working-set-scale cache."""
    return ReisConfig(
        name=name,
        geometry=FlashGeometry(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=64,
            pages_per_block=64,
        ),
        timing=NandTiming(channel_bandwidth_bps=1.2e9),
    )


class _Region:
    """Minimal stand-in for RegionInfo: the cache keys on the bounds of
    ``.region``, a one-page-per-plane window at in-plane page ``tag``."""

    def __init__(self, tag):
        self.region = CoarseRegion(tag, tag + 1)


def _entry_arrays(n_data=100, n_oob=10, fill=0):
    data = np.full(n_data, fill, dtype=np.uint8)
    oob = np.full(n_oob, fill, dtype=np.uint8)
    return data, oob


def _admit(cache, region, page, kind, data, oob):
    """Admit one page through the array API."""
    return cache.admit_pages(region, np.array([page]), kind, data[None], oob[None])


def _lookup(cache, region, page):
    """Look one page up through the array API: hit or miss."""
    rows, _nbytes = cache.lookup_pages(region, np.array([page]))
    return bool(rows[0] >= 0)


class TestPageCacheUnit:
    def _cache(self, budget=330, policy=None):
        dram = InternalDram(10_000)
        return PageCache(dram, budget, policy=policy), dram

    def test_budget_is_a_named_dram_region(self):
        cache, dram = self._cache(budget=330)
        assert dram.region_size("page_cache") == 330
        cache.close()
        assert dram.region_size("page_cache") == 0

    def test_over_budget_raises_capacity_error(self):
        dram = InternalDram(1000)
        with pytest.raises(CapacityError):
            PageCache(dram, 1001)
        with pytest.raises(ValueError):
            PageCache(dram, 0)

    def test_admit_lookup_roundtrip_copies(self):
        cache, _ = self._cache()
        region = _Region(0)
        data, oob = _entry_arrays(fill=7)
        assert _admit(cache, region, 3, "cluster", data, oob)
        data[:] = 0  # the mirror must not alias caller buffers
        rows, nbytes = cache.lookup_pages(region, np.array([3, 4]))
        assert rows[0] >= 0 and rows[1] == -1
        assert nbytes.tolist() == [110, 0]
        mirror_data = np.zeros((2, 100), dtype=np.uint8)
        mirror_oob = np.zeros((2, 10), dtype=np.uint8)
        cache.gather(rows[:1], np.array([1]), mirror_data, mirror_oob)
        assert np.all(mirror_data[1] == 7) and np.all(mirror_data[0] == 0)
        assert np.all(mirror_oob[1] == 7) and np.all(mirror_oob[0] == 0)
        entry = cache.peek(region, 3)
        assert (entry.kind, entry.nbytes, entry.row) == ("cluster", 110, rows[0])
        assert cache.used_bytes == 110
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.hit_bytes == 110

    def test_oversized_page_and_disabled_kind_rejected(self):
        cache, _ = self._cache(budget=330)
        region = _Region(0)
        assert not _admit(
            cache, region, 0, "cluster", np.zeros(400, dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
        )
        small = PageCache(InternalDram(10_000), 330, kinds=("document",))
        data, oob = _entry_arrays()
        assert not _admit(small, region, 0, "cluster", data, oob)
        assert _admit(small, region, 0, "document", data, oob)

    def test_lru_evicts_least_recently_used(self):
        cache, _ = self._cache(budget=330)  # fits 3 x 110B entries
        region = _Region(0)
        for page in range(3):
            data, oob = _entry_arrays(fill=page)
            _admit(cache, region, page, "cluster", data, oob)
        _lookup(cache, region, 0)  # page 1 becomes the LRU entry
        data, oob = _entry_arrays(fill=9)
        _admit(cache, region, 3, "cluster", data, oob)
        assert cache.stats.evicted == 1
        assert not _lookup(cache, region, 1)
        assert _lookup(cache, region, 0)
        assert len(cache) == 3

    def test_cost_aware_evicts_lowest_energy_saved_per_byte(self):
        cache, _ = self._cache(budget=330, policy=CostAwarePolicy())
        region = _Region(0)
        for page in range(3):
            data, oob = _entry_arrays(fill=page)
            _admit(cache, region, page, "cluster", data, oob)
        # Page 0 is hot (2 re-uses), page 2 was re-used once; page 1 has
        # the least sense energy saved per byte and must be the victim.
        _lookup(cache, region, 0)
        _lookup(cache, region, 0)
        _lookup(cache, region, 2)
        data, oob = _entry_arrays(fill=9)
        _admit(cache, region, 3, "cluster", data, oob)
        assert not _lookup(cache, region, 1)
        assert _lookup(cache, region, 0)
        assert _lookup(cache, region, 2)

    def test_cost_aware_kind_weights_break_ties(self):
        policy = CostAwarePolicy()
        weights = np.array([policy.kind_weights[k] for k in ("document", "cluster")])
        score, ticks = policy.keys(
            np.array([1, 1]), np.array([110, 110]), weights, np.array([1, 2])
        )
        assert score[0] > score[1]
        assert ticks.tolist() == [1, 2]

    def test_cost_aware_kind_weights_are_read_at_eviction(self):
        # Weights changed after the cache is built still steer eviction.
        policy = CostAwarePolicy()
        cache, _ = self._cache(budget=330, policy=policy)
        region = _Region(0)
        for page, kind in enumerate(("document", "cluster", "cluster")):
            _admit(cache, region, page, kind, *_entry_arrays(fill=page))
        cache.lookup_pages(region, np.arange(3))
        policy.kind_weights["document"] = 0.5
        _admit(cache, region, 3, "cluster", *_entry_arrays(fill=9))
        assert cache.peek(region, 0) is None
        assert all(cache.peek(region, page) is not None for page in (1, 2, 3))

    def test_readmit_preserves_use_count(self):
        cache, _ = self._cache()
        region = _Region(0)
        data, oob = _entry_arrays()
        _admit(cache, region, 0, "cluster", data, oob)
        _lookup(cache, region, 0)
        _lookup(cache, region, 0)
        _admit(cache, region, 0, "cluster", data, oob)
        assert cache.peek(region, 0).uses == 2
        assert cache.used_bytes == 110  # replaced, not duplicated

    def test_one_call_evicts_a_page_it_admitted(self):
        # Cost-aware: a re-used resident outranks the call's fresh pages,
        # so the third fresh page evicts the first one, not the resident.
        cache, _ = self._cache(budget=330, policy=CostAwarePolicy())
        region = _Region(0)
        data, oob = _entry_arrays(fill=1)
        _admit(cache, region, 0, "cluster", data, oob)
        _lookup(cache, region, 0)
        stack = np.full((3, 100), 5, dtype=np.uint8)
        assert cache.admit_pages(
            region, np.array([4, 5, 6]), "cluster", stack, stack[:, :10]
        )
        assert cache.stats.evicted == 1
        assert cache.peek(region, 4) is None
        assert [cache.peek(region, p).uses for p in (0, 5, 6)] == [1, 0, 0]
        assert cache.used_bytes == 330

    def test_invalidation_page_region_clear(self):
        cache, _ = self._cache(budget=660)
        a, b = _Region(0), _Region(1)
        data, oob = _entry_arrays()
        for page in range(2):
            _admit(cache, a, page, "cluster", data, oob)
            _admit(cache, b, page, "document", data, oob)
        assert cache.invalidate_pages(a, np.array([0])) == 1
        assert cache.invalidate_pages(a, np.array([0])) == 0  # already gone
        assert cache.invalidate_region(b) == 2
        assert cache.used_bytes == 110
        assert cache.clear() == 1
        assert cache.used_bytes == 0
        assert len(cache) == 0
        assert cache.stats.invalidated == 4


class TestInternalDramBookkeeping:
    def test_free_of_unknown_region_is_a_silent_noop(self):
        dram = InternalDram(10_000)
        before = dram.free_bytes
        dram.free("never-allocated")
        assert dram.free_bytes == before

    def test_reallocate_after_free_restores_free_bytes_exactly(self):
        dram = InternalDram(10_000)
        virgin = dram.free_bytes
        dram.allocate("scratch", 4_096)
        assert dram.free_bytes == virgin - 4_096
        dram.free("scratch")
        assert dram.free_bytes == virgin
        dram.allocate("scratch", 4_096)
        assert dram.free_bytes == virgin - 4_096
        assert dram.region_size("scratch") == 4_096


class TestZipfStream:
    def test_weights_pin_the_distribution(self):
        w = zipf_weights(4, 1.0)
        # P(i) ~ 1/(i+1): exact normalized harmonic weights.
        expect = np.array([1, 1 / 2, 1 / 3, 1 / 4]) / (25 / 12)
        assert np.allclose(w, expect)
        assert np.allclose(zipf_weights(5, 0.0), np.full(5, 0.2))

    def test_stream_matches_weights_and_is_seeded(self):
        n, s, size = 50, 1.2, 20_000
        ranks = zipf_ranks(n, s, size, "unit")
        assert ranks.min() >= 0 and ranks.max() < n
        freq = np.bincount(ranks, minlength=n) / size
        w = zipf_weights(n, s)
        # Head ranks carry enough mass to pin tightly.
        assert np.allclose(freq[:5], w[:5], atol=0.02)
        assert np.array_equal(ranks, zipf_ranks(n, s, size, "unit"))
        assert not np.array_equal(ranks, zipf_ranks(n, s, size, "other"))

    def test_s_zero_is_uniform(self):
        freq = np.bincount(zipf_ranks(8, 0.0, 16_000, "u"), minlength=8)
        assert np.allclose(freq / 16_000, 1 / 8, atol=0.03)


# --------------------------------------------------------------------------
# Serving bit-identity: cached twin == uncached twin, always.


def _base(n, seed):
    vectors, _ = make_clustered_embeddings(n, DIM, NLIST, seed=seed)
    model = build_ivf_model(vectors, NLIST, seed=0)
    queries = make_queries(vectors, 6, seed=(seed, "q"))
    return vectors, model, queries


def _assert_batches_identical(cached, uncached, documents=True):
    for a, b in zip(cached.results, uncached.results):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        if documents:
            assert [d.chunk_id for d in a.documents] == [
                d.chunk_id for d in b.documents
            ]


class TestCachedServingBitIdentity:
    @pytest.mark.parametrize("policy", [None, CostAwarePolicy()])
    def test_repeated_batches_bit_identical_and_accounted(self, policy):
        vectors, model, queries = _base(120, "cache-serve")
        cached_dev = ReisDevice(deep_config("CACHE-ON"))
        plain_dev = ReisDevice(deep_config("CACHE-OFF"))
        cdb = cached_dev.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        pdb = plain_dev.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        cache = cached_dev.enable_page_cache(400_000, policy=policy)
        for _round in range(3):
            a = cached_dev.ivf_search(cdb, queries, k=K, nprobe=NLIST)
            b = plain_dev.ivf_search(pdb, queries, k=K, nprobe=NLIST)
            _assert_batches_identical(a, b, documents=False)
        # Warm rounds must actually hit, and every hit must have moved a
        # sense off the NAND counters onto the DRAM counters.
        counters = cached_dev.ssd.counters
        assert cache.stats.hits > 0
        # The cache counts one lookup per unique page per phase; the device
        # counter bills every query that shares the page (the same
        # asymmetry as shared senses), so billed >= looked-up.
        assert counters["dram_cache_hits"] >= cache.stats.hits
        assert counters["dram_cache_bytes"] >= cache.stats.hit_bytes
        assert (
            counters["page_reads"] < plain_dev.ssd.counters["page_reads"]
        )
        assert a.batch_stats.cache_hits > 0
        energy = cached_dev.ssd.power.energy_breakdown(counters)
        assert energy["dram_cache"] > 0.0
        plain_energy = plain_dev.ssd.power.energy_breakdown(
            plain_dev.ssd.counters
        )
        assert plain_energy["dram_cache"] == 0.0
        # The cached device's total dynamic energy must come out lower:
        # a DRAM hit is far cheaper than the sense + ECC it replaced.
        assert sum(energy.values()) < sum(plain_energy.values())

    def test_solo_searches_bit_identical_with_cache(self):
        vectors, model, queries = _base(120, "cache-solo")
        cached_dev = ReisDevice(deep_config("CSOLO-ON"))
        plain_dev = ReisDevice(deep_config("CSOLO-OFF"))
        cdb = cached_dev.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        pdb = plain_dev.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        cached_dev.enable_page_cache(400_000)
        for _round in range(2):
            for query in queries:
                [mine] = cached_dev.ivf_search(cdb, query[None], k=K, nprobe=NLIST)
                [ref] = plain_dev.ivf_search(pdb, query[None], k=K, nprobe=NLIST)
                assert np.array_equal(mine.ids, ref.ids)
                assert np.array_equal(mine.distances, ref.distances)
                assert [d.chunk_id for d in mine.documents] == [
                    d.chunk_id for d in ref.documents
                ]
        assert cached_dev.ssd.counters["dram_cache_hits"] > 0

    def test_dram_hits_are_billed_in_the_latency_report(self):
        vectors, model, queries = _base(120, "cache-bill")
        device = ReisDevice(deep_config("CBILL"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        device.enable_page_cache(400_000)
        device.ivf_search(db, queries, k=K, nprobe=NLIST)  # warm
        warm = device.ivf_search(db, queries, k=K, nprobe=NLIST)
        assert warm.batch_stats.cache_hits > 0
        components = warm.batch_report.components
        dram_keys = [key for key in components if key.endswith("_dram")]
        assert dram_keys, "cache hits must surface a *_dram cost component"
        assert all(components[key] > 0.0 for key in dram_keys)

    def test_disable_and_reenable(self):
        vectors, model, queries = _base(80, "cache-toggle")
        device = ReisDevice(tiny_config("CTOGGLE"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        # Warm first: serving lazily grows DRAM arenas (top-list scratch),
        # and we want a clean before/after of the cache region alone.
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        free_before = device.ssd.dram.free_bytes
        device.enable_page_cache(20_000)
        assert device.ssd.dram.free_bytes == free_before - 20_000
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        device.disable_page_cache()
        assert device.page_cache is None
        assert device.ssd.dram.free_bytes == free_before
        # Over-budget re-enable fails up front with CapacityError.
        with pytest.raises(CapacityError):
            device.enable_page_cache(device.ssd.dram.free_bytes + 1)


class TestFailedReenableKeepsTheCache:
    """A (re-)enable that raises leaves the device exactly as it was: the
    previous cache stays attached with its contents and its reservation
    (it used to be closed first, then kept serving and admitting with its
    DRAM region freed).  A sharded device switches every shard or none."""

    BUDGET = 20_000

    @staticmethod
    def _over_budget(dram):
        return dram.free_bytes + TestFailedReenableKeepsTheCache.BUDGET + 1

    @pytest.mark.parametrize("error", [CapacityError, ValueError])
    def test_single_device(self, error):
        vectors, model, queries = _base(80, "creenable")
        device = ReisDevice(tiny_config("CREENABLE"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        cache = device.enable_page_cache(self.BUDGET)
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        dram = device.ssd.dram
        free, used = dram.free_bytes, cache.used_bytes
        assert used > 0
        budget = self._over_budget(dram) if error is CapacityError else 0
        with pytest.raises(error):
            device.enable_page_cache(budget)
        assert device.page_cache is cache
        assert dram.region_size("page_cache") == self.BUDGET
        assert (dram.free_bytes, cache.used_bytes) == (free, used)
        lookups = cache.stats.lookups
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        assert cache.stats.lookups > lookups
        assert cache.used_bytes <= dram.region_size("page_cache")

    @pytest.mark.parametrize("error", [CapacityError, ValueError])
    def test_sharded_device_switches_every_shard_or_none(self, error):
        vectors, model, queries = _base(120, "csreenable")
        device = ShardedReisDevice(3, tiny_config("CSREENABLE"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        caches = device.enable_page_cache(self.BUDGET)
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        drams = [shard.ssd.dram for shard in device.shards]
        # The last shard alone cannot take a bigger budget: the ones before
        # it build their new caches before the failure.
        budget = 2 * self.BUDGET
        drams[-1].allocate("pinned", drams[-1].free_bytes - self.BUDGET // 2)
        if error is ValueError:
            budget = 0
        before = [(d.free_bytes, c.used_bytes) for d, c in zip(drams, caches)]
        with pytest.raises(error):
            device.enable_page_cache(budget)
        assert [shard.page_cache for shard in device.shards] == caches
        assert [d.region_size("page_cache") for d in drams] == [self.BUDGET] * 3
        assert [(d.free_bytes, c.used_bytes) for d, c in zip(drams, caches)] == before
        # A budget every shard can take switches all of them.
        fresh = device.enable_page_cache(self.BUDGET + 1)
        assert [shard.page_cache for shard in device.shards] == fresh
        assert [d.region_size("page_cache") for d in drams] == [self.BUDGET + 1] * 3


# --------------------------------------------------------------------------
# Invalidation: mutations, compaction, migration, failover.

SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

mutation_scripts = st.tuples(
    st.lists(st.sampled_from("IDU"), min_size=1, max_size=6),
    st.integers(0, 10**6),
    st.sampled_from([1, 20_000, 40_000]),  # cache budget (1B never admits)
)


def _mutation_groups(ops, seed, base_vectors):
    """Turn an IDU opcode script into two deterministic commit groups."""
    rng = np.random.default_rng(seed)
    n = len(base_vectors)
    candidates = set(range(n))
    requests = []
    for op in ops:
        if op == "I" or not candidates:
            anchor = base_vectors[int(rng.integers(n))]
            vector = (anchor + rng.normal(0, 0.05, DIM)).astype(np.float32)
            requests.append(MutationRequest(op="insert", vector=vector))
        elif op == "D":
            target = int(rng.choice(sorted(candidates)))
            candidates.discard(target)
            requests.append(MutationRequest(op="delete", entry_id=target))
        else:
            target = int(rng.choice(sorted(candidates)))
            candidates.discard(target)
            vector = (
                base_vectors[target % n] * 0.97 + rng.normal(0, 0.02, DIM)
            ).astype(np.float32)
            requests.append(
                MutationRequest(op="update", entry_id=target, vector=vector)
            )
    mid = max(1, len(requests) // 2)
    return [requests[:mid]] + ([requests[mid:]] if requests[mid:] else [])


class TestCacheInvalidation:
    @SETTINGS
    @given(mutation_scripts)
    def test_mutation_interleavings_match_uncached_twin(self, script):
        """Any cache size x any mutation interleaving == uncached results.

        The cached device serves (warming the mirror), mutates (which must
        invalidate the programmed tail pages), serves again, compacts
        (which must clear the mirror), and serves once more; every batch
        must be bit-identical to an uncached twin driven by the exact same
        script.
        """
        ops, seed, budget = script
        vectors, model, queries = _base(40, ("cinv", seed))
        cached_dev = ReisDevice(tiny_config(f"CINV-{seed}"))
        plain_dev = ReisDevice(tiny_config(f"PINV-{seed}"))
        cdb = cached_dev.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        pdb = plain_dev.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        cached_dev.enable_page_cache(budget)
        cm = cached_dev.ingest_manager(cdb)
        pm = plain_dev.ingest_manager(pdb)
        # Warm the mirror before any mutation lands.
        _assert_batches_identical(
            cached_dev.ivf_search(cdb, queries, k=K, nprobe=NLIST),
            plain_dev.ivf_search(pdb, queries, k=K, nprobe=NLIST),
            documents=False,
        )
        for group in _mutation_groups(ops, seed, vectors):
            cm.apply(group)
            pm.apply(group)
            _assert_batches_identical(
                cached_dev.ivf_search(cdb, queries, k=K, nprobe=NLIST),
                plain_dev.ivf_search(pdb, queries, k=K, nprobe=NLIST),
                documents=False,
            )
        cm.compact()
        pm.compact()
        _assert_batches_identical(
            cached_dev.ivf_search(cdb, queries, k=K, nprobe=NLIST),
            plain_dev.ivf_search(pdb, queries, k=K, nprobe=NLIST),
            documents=False,
        )

    @SETTINGS
    @given(
        st.tuples(
            st.lists(st.sampled_from("IDU"), min_size=1, max_size=4),
            st.integers(0, 10**6),
        )
    )
    def test_sharded_mutation_interleavings_match_uncached(self, script):
        ops, seed = script
        vectors, model, queries = _base(60, ("scinv", seed))
        cached = ShardedReisDevice(2, tiny_config(f"SCINV-{seed}"))
        plain = ShardedReisDevice(2, tiny_config(f"SPINV-{seed}"))
        cdb = cached.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        pdb = plain.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        cached.enable_page_cache(30_000)
        ccoord = cached.ingest_coordinator(cdb)
        pcoord = plain.ingest_coordinator(pdb)
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=NLIST),
            plain.ivf_search(pdb, queries, k=K, nprobe=NLIST),
            documents=False,
        )
        for group in _mutation_groups(ops, seed, vectors):
            ccoord.apply(group)
            pcoord.apply(group)
            _assert_batches_identical(
                cached.ivf_search(cdb, queries, k=K, nprobe=NLIST),
                plain.ivf_search(pdb, queries, k=K, nprobe=NLIST),
                documents=False,
            )
        ccoord.compact()
        pcoord.compact()
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=NLIST),
            plain.ivf_search(pdb, queries, k=K, nprobe=NLIST),
            documents=False,
        )

    def test_migration_invalidates_redeployed_shard(self):
        """migrate_cluster re-deploys through drop(reclaim=True): any
        mirrored page of the old layout must go at that barrier."""
        n, dim, nlist = 360, 64, 12
        vectors, _ = make_clustered_embeddings(n, dim, nlist, seed="cmig")
        queries = make_queries(vectors, 6, seed="cmig-q")
        model = build_ivf_model(vectors, nlist, seed=0)
        cached = ShardedReisDevice(
            3, tiny_config("CMIG-ON"), replication_factor=2
        )
        plain = ShardedReisDevice(
            3, tiny_config("CMIG-OFF"), replication_factor=2
        )
        cdb = cached.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        pdb = plain.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        caches = cached.enable_page_cache(30_000)
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=5),
            plain.ivf_search(pdb, queries, k=K, nprobe=5),
        )
        assert any(c.stats.admitted > 0 for c in caches)
        sdb = cached.database(cdb)
        cluster = 0
        owners = sdb.assignment.owners_of(cluster)
        dst = next(s for s in range(3) if s not in owners)
        cached.migrate_cluster(cdb, cluster, dst, src=owners[0])
        plain.migrate_cluster(pdb, cluster, dst, src=owners[0])
        for _round in range(2):
            _assert_batches_identical(
                cached.ivf_search(cdb, queries, k=K, nprobe=5),
                plain.ivf_search(pdb, queries, k=K, nprobe=5),
            )

    def test_mid_stream_kill_with_cache_matches_uncached(self):
        """Failover re-execution on warm replica caches stays bit-exact."""
        n, dim, nlist = 360, 64, 12
        vectors, _ = make_clustered_embeddings(n, dim, nlist, seed="ckill")
        queries = make_queries(vectors, 6, seed="ckill-q")
        model = build_ivf_model(vectors, nlist, seed=0)
        cached = ShardedReisDevice(
            3, tiny_config("CKILL-ON"), replication_factor=2
        )
        plain = ShardedReisDevice(
            3, tiny_config("CKILL-OFF"), replication_factor=2
        )
        cdb = cached.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        pdb = plain.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        cached.enable_page_cache(30_000)
        # Warm every replica's mirror, then kill a shard mid-batch (fine
        # barrier): the replacement runs must serve hot from the replicas'
        # own caches without perturbing one bit.
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=5),
            plain.ivf_search(pdb, queries, k=K, nprobe=5),
        )
        cached.schedule_shard_failure(1, "fine")
        plain.schedule_shard_failure(1, "fine")
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=5),
            plain.ivf_search(pdb, queries, k=K, nprobe=5),
        )
        # The shard stays dead; subsequent warm batches stay identical.
        _assert_batches_identical(
            cached.ivf_search(cdb, queries, k=K, nprobe=5),
            plain.ivf_search(pdb, queries, k=K, nprobe=5),
        )

    def test_drop_invalidates_regions(self):
        vectors, model, queries = _base(80, "cdrop")
        device = ReisDevice(tiny_config("CDROP"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        cache = device.enable_page_cache(40_000)
        device.ivf_search(db, queries, k=K, nprobe=NLIST)
        assert len(cache) > 0
        device.drop(db)
        assert len(cache) == 0
        assert cache.stats.invalidated > 0


class TestSchedulerCacheAccounting:
    def test_scheduler_reports_cache_hits(self):
        from repro.core.scheduler import DeviceScheduler

        vectors, model, queries = _base(120, "csched")
        device = ReisDevice(deep_config("CSCHED"))
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        device.enable_page_cache(400_000)
        scheduler = DeviceScheduler(device)
        scheduler.serve_queries(db, queries, k=K, nprobe=NLIST)
        scheduler.serve_queries(db, queries, k=K, nprobe=NLIST)
        assert scheduler.accounting.cache_hits > 0
        assert scheduler.report()["cache_hits"] == (
            scheduler.accounting.cache_hits
        )


class TestBatchCacheHitAccounting:
    """Cache hits a batch reports == hits the drives billed, on either API.

    The sharded merge used to sum six ``SearchStats`` fields by hand and
    drop ``cache_hits`` (and ``BatchStats.cache_hits``): a warm 4x2
    cluster reported zero hits while its shards' counters rose.
    """

    @pytest.fixture(params=["single", "sharded"])
    def either_device(self, request):
        vectors, model, queries = _base(240, "chits")
        if request.param == "single":
            device = ReisDevice(deep_config("CHITS-1"))
            drives = [device]
        else:
            device = ShardedReisDevice(
                4, deep_config("CHITS-4x2"), replication_factor=2
            )
            drives = device.shards
        db = device.ivf_deploy("db", vectors, ivf_model=model, seed=0)
        device.enable_page_cache(400_000)
        return device, drives, db, queries

    def test_per_query_hits_sum_to_the_batch_and_the_counters(self, either_device):
        device, drives, db, queries = either_device
        device.ivf_search(db, queries, k=K, nprobe=3)  # warm the mirrors

        def billed():
            return sum(d.ssd.counters["dram_cache_hits"] for d in drives)

        before = billed()
        batch = device.ivf_search(db, queries, k=K, nprobe=3)
        rise = billed() - before
        assert rise > 0
        assert batch.batch_stats.cache_hits == rise
        assert sum(r.stats.cache_hits for r in batch) == rise


# --------------------------------------------------------------------------
# Eviction order: the cache against the full-scan victim it replaced.


def _reference_victim(policy, entries):
    """The eviction scans ``PageCache`` ran once per admission before its
    victim heap, verbatim: the whole resident map, every time."""
    if isinstance(policy, CostAwarePolicy):
        weights, energy = policy.kind_weights, policy.sense_energy_j
        return min(
            (
                entry.uses * weights.get(entry.kind, 1.0) * energy
                / max(entry.nbytes, 1),
                entry.last_tick,
                rank,
                key,
            )
            for rank, (key, entry) in enumerate(entries.items())
        )[3]
    return min(entries, key=lambda key: entries[key].last_tick)


class _ReferenceEntry:
    def __init__(self, kind, nbytes, uses, last_tick):
        self.kind, self.nbytes = kind, nbytes
        self.uses, self.last_tick = uses, last_tick


class _ReferenceCache:
    """``PageCache``'s bookkeeping with the full-scan victim (no bytes)."""

    def __init__(self, budget, policy, kinds):
        from repro.core.cache import CacheStats

        self.budget, self.policy, self.kinds = budget, policy, kinds
        self.stats = CacheStats()
        self.entries, self.ghost = {}, {}
        self.used = self.tick = 0
        self.evictions = []  # keys, in eviction order

    def lookup(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.ghost[key] = self.ghost.get(key, 0) + 1
            self.stats.misses += 1
            return False
        self.tick += 1
        entry.uses += 1
        entry.last_tick = self.tick
        self.stats.hits += 1
        self.stats.hit_bytes += entry.nbytes
        return True

    def admit(self, key, kind, nbytes):
        if kind not in self.kinds or nbytes > self.budget:
            return False
        old = self.entries.pop(key, None)
        if old is not None:
            self.used -= old.nbytes
        while self.used + nbytes > self.budget:
            victim = _reference_victim(self.policy, self.entries)
            evicted = self.entries.pop(victim)
            self.ghost[victim] = self.ghost.get(victim, 0) + evicted.uses
            self.used -= evicted.nbytes
            self.stats.evicted += 1
            self.evictions.append(victim)
        self.tick += 1
        uses = old.uses if old is not None else self.ghost.pop(key, 0)
        self.entries[key] = _ReferenceEntry(kind, nbytes, uses, self.tick)
        self.used += nbytes
        self.stats.admitted += 1
        return True

    def invalidate_page(self, key):
        self.ghost.pop(key, None)
        entry = self.entries.pop(key, None)
        if entry is None:
            return False
        self.used -= entry.nbytes
        self.stats.invalidated += 1
        return True

    def invalidate_region(self, coarse):
        for key in [k for k in self.ghost if k[0] == coarse]:
            del self.ghost[key]
        doomed = [key for key in self.entries if key[0] == coarse]
        for key in doomed:
            self.used -= self.entries.pop(key).nbytes
        self.stats.invalidated += len(doomed)
        return len(doomed)

    def clear(self):
        n = len(self.entries)
        self.stats.invalidated += n
        self.entries.clear()
        self.ghost.clear()
        self.used = 0
        return n


def _cache_op(selector, where, kind, size):
    """Mostly admissions and lookups of 1-5 distinct pages -- a script has
    to overflow the 500-byte budget many times over -- with the
    invalidations the rare events they are (``one_of`` does not weight its
    branches)."""
    region, pages = where
    if selector < 50:
        return ("admit", region, pages, kind, size)
    if selector < 90:
        return ("lookup", region, pages)
    if selector < 96:
        return ("invalidate_pages", region, pages)
    return ("invalidate_region", region) if selector < 99 else ("clear",)


cache_scripts = st.lists(
    st.builds(
        _cache_op,
        st.integers(0, 99),
        st.tuples(
            st.integers(0, 1),
            st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True),
        ),
        st.sampled_from(["centroid", "cluster", "cluster", "document", "other"]),
        st.sampled_from([(30, 10), (100, 10), (100, 0), (190, 10), (600, 0)]),
    ),
    min_size=25,
    max_size=120,
)


class TestEvictionOrderAgainstFullScan:
    @settings(max_examples=150, deadline=None)
    @given(cache_scripts, st.sampled_from(["lru", "cost_aware"]))
    def test_same_victims_stats_and_uses_as_the_full_scan(self, script, policy_name):
        """Random multi-page lookup / admit (mixed kinds and sizes, kinds
        not enabled, an over-budget page, re-admission of a resident page,
        victims admitted earlier in the same call) / invalidate / clear
        sequences against the per-page reference: after every call the
        cache has evicted the pages the per-admission full scan would,
        holds the same residents with the same bytes and per-entry uses,
        and has equal stats and ``used_bytes``."""
        from repro.core.cache import DEFAULT_CACHE_KINDS, LruPolicy

        def make_policy():
            return CostAwarePolicy() if policy_name == "cost_aware" else LruPolicy()

        cache = PageCache(InternalDram(10_000), 500, policy=make_policy())
        model = _ReferenceCache(500, make_policy(), frozenset(DEFAULT_CACHE_KINDS))
        regions = [_Region(0), _Region(1)]
        universe = [(r, page) for r in regions for page in range(6)]
        fills = {}  # key -> byte value its resident copy was admitted with

        def resident():
            return {
                (r.region, page) for r, page in universe
                if cache.peek(r, page) is not None
            }

        for step, (op, *args) in enumerate(script):
            before, evicted_before = resident(), len(model.evictions)
            if op == "lookup":
                r, pages = args
                rows, nbytes = cache.lookup_pages(regions[r], np.array(pages))
                hits = [model.lookup((regions[r].region, page)) for page in pages]
                assert (rows >= 0).tolist() == hits
                assert (nbytes > 0).tolist() == hits
            elif op == "admit":
                r, pages, kind, (n_data, n_oob) = args
                fill = step % 251
                data = np.full((len(pages), n_data), fill, dtype=np.uint8)
                oob = np.full((len(pages), n_oob), fill, dtype=np.uint8)
                keys = [(regions[r].region, page) for page in pages]
                admitted = [model.admit(key, kind, n_data + n_oob) for key in keys]
                assert cache.admit_pages(
                    regions[r], np.array(pages), kind, data, oob
                ) == all(admitted)
                assert len(set(admitted)) == 1  # all-or-nothing per call
                if admitted[0]:
                    fills.update((key, (fill, n_data, n_oob)) for key in keys)
                # The pages that left are exactly the victims that did not
                # come back later in the call.
                victims = set(model.evictions[evicted_before:])
                assert (before | set(keys)) - resident() == (
                    victims - set(model.entries)
                ) | (set(keys) - set(model.entries))
            elif op == "invalidate_pages":
                r, pages = args
                assert cache.invalidate_pages(regions[r], np.array(pages)) == sum(
                    model.invalidate_page((regions[r].region, page)) for page in pages
                )
            elif op == "invalidate_region":
                r, = args
                assert cache.invalidate_region(regions[r]) == (
                    model.invalidate_region(regions[r].region)
                )
            else:
                assert cache.clear() == model.clear()
            assert resident() == set(model.entries)
            assert cache.stats == model.stats
            assert cache.used_bytes == model.used
            assert len(cache) == len(model.entries)
            for r, page in universe:
                entry = cache.peek(r, page)
                if entry is not None:
                    twin = model.entries[(r.region, page)]
                    assert (entry.uses, entry.kind, entry.nbytes) == (
                        twin.uses, twin.kind, twin.nbytes
                    )
                    fill, n_data, n_oob = fills[(r.region, page)]
                    data = np.empty((1, n_data), dtype=np.uint8)
                    oob = np.empty((1, n_oob), dtype=np.uint8)
                    cache.gather(np.array([entry.row]), np.array([0]), data, oob)
                    assert np.all(data == fill)
                    assert np.all(oob == fill)
