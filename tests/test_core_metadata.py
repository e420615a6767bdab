"""Unit tests for the Sec. 7.1 metadata extensions."""

import numpy as np
import pytest

from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.core.metadata import (
    TIMESTAMP_ENTRY_BYTES,
    TaggedSearcher,
    TimePartitionedStore,
    TimeWindow,
)


class TestTimeWindow:
    def test_contains_half_open(self):
        window = TimeWindow(10, 20)
        assert window.contains(10)
        assert window.contains(19)
        assert not window.contains(20)
        assert not window.contains(9)

    def test_overlap(self):
        assert TimeWindow(0, 10).overlaps(TimeWindow(5, 15))
        assert not TimeWindow(0, 10).overlaps(TimeWindow(10, 20))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeWindow(5, 5)


class TestTaggedSearcher:
    def test_requires_metadata_deployment(self, deployed_device):
        device, db_id = deployed_device
        with pytest.raises(ValueError):
            TaggedSearcher(device, db_id)

    def test_tag_restricted_search(self, small_vectors, small_queries):
        vectors, labels = small_vectors
        tags = (labels % 2).astype(np.uint32)
        device = ReisDevice(tiny_config("TAGSRCH"))
        db_id = device.ivf_deploy("m", vectors, nlist=8, metadata_tags=tags, seed=0)
        searcher = TaggedSearcher(device, db_id)
        batch = searcher.search(small_queries[:3], tag=0, k=5, nprobe=8)
        for result in batch:
            assert all(tags[int(i)] == 0 for i in result.ids)


class TestTimePartitionedStore:
    @pytest.fixture()
    def store(self, small_vectors):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("TIME"))
        store = TimePartitionedStore(device)
        store.ingest_snapshot(TimeWindow(0, 100), vectors[:200], nlist=4, seed=0)
        store.ingest_snapshot(TimeWindow(100, 200), vectors[200:400], nlist=4, seed=0)
        return store

    def test_overlapping_snapshot_rejected(self, store, small_vectors):
        vectors, _ = small_vectors
        with pytest.raises(ValueError):
            store.ingest_snapshot(TimeWindow(50, 150), vectors[400:500])

    def test_routing_by_window(self, store):
        assert len(store.databases_for(TimeWindow(0, 100))) == 1
        assert len(store.databases_for(TimeWindow(50, 150))) == 2
        assert store.databases_at(150) == store.databases_for(TimeWindow(150, 151))

    def test_search_merges_across_snapshots(self, store, small_queries):
        winners, merged = store.search(
            small_queries[0], TimeWindow(0, 200), k=8, nprobe=4
        )
        assert len(winners) == 8
        assert (np.diff(merged.distances) >= 0).all()
        db_ids = {db_id for db_id, _ in winners}
        assert db_ids <= set(store.windows())

    def test_merged_stats_sum_every_searched_snapshot(self, store, small_queries):
        query = small_queries[0]
        _, merged = store.search(query, TimeWindow(0, 200), k=8, nprobe=4)
        alone = [
            store.search(query, window, k=8, nprobe=4)[1].stats
            for window in (TimeWindow(0, 100), TimeWindow(100, 200))
        ]
        assert merged.stats.pages_read == sum(s.pages_read for s in alone) > 0
        assert tuple(merged.stats) == tuple(map(sum, zip(*alone)))

    def test_search_single_window_stays_local(self, store, small_queries):
        winners, _ = store.search(small_queries[0], TimeWindow(120, 130), k=5, nprobe=4)
        only_db = store.databases_for(TimeWindow(120, 130))[0]
        assert all(db_id == only_db for db_id, _ in winners)

    def test_no_matching_window_raises(self, store, small_queries):
        with pytest.raises(LookupError):
            store.search(small_queries[0], TimeWindow(500, 600), k=5)

    def test_timestamp_index_lives_in_dram(self, store):
        dram = store.device.ssd.dram
        assert dram.region_size("time-index/realtime") == 2 * TIMESTAMP_ENTRY_BYTES
