"""Integration tests on the full Table-3 SSD configurations.

The unit suite runs on a tiny 8-plane geometry for speed; these tests
deploy and search on the real REIS-SSD1 (256 planes) and REIS-SSD2
(512 planes) topologies to catch any addressing/striping assumption that
only holds for small arrays.
"""

import numpy as np
import pytest

from repro.ann.ivf import BqIvfIndex
from repro.core.api import ReisDevice
from repro.core.config import REIS_SSD1, REIS_SSD2
from repro.rag.embeddings import make_clustered_embeddings, make_queries


@pytest.fixture(scope="module", params=[REIS_SSD1, REIS_SSD2], ids=lambda c: c.name)
def full_device(request):
    # Shrink only the per-plane block count: the channel/die/plane topology
    # (what the striping math depends on) stays exactly as in Table 3.
    config = request.param.with_geometry(blocks_per_plane=4, pages_per_block=8)
    vectors, _ = make_clustered_embeddings(1200, 128, 16, seed="full")
    device = ReisDevice(config)
    db_id = device.ivf_deploy("full", vectors, nlist=16, seed=0)
    queries = make_queries(vectors, 6, seed="full-q")
    return device, db_id, vectors, queries


class TestFullTopologies:
    def test_deployment_spans_every_channel(self, full_device):
        device, db_id, _, _ = full_device
        db = device.database(db_id)
        geometry = device.config.geometry
        channels = {
            db.embedding_region.region.translate(o, geometry).channel
            for o in range(min(db.embedding_region.n_pages, geometry.total_planes))
        }
        # With >= total_planes pages the stripe must touch every channel;
        # with fewer pages it still must touch several.
        assert len(channels) == min(
            geometry.channels, max(db.embedding_region.n_pages, 1)
        )

    def test_search_matches_host_reference(self, full_device):
        device, db_id, vectors, queries = full_device
        reference = BqIvfIndex(128, 16, seed=0).fit(vectors)
        for query in queries[:3]:
            [result] = device.ivf_search(db_id, query[None], k=10, nprobe=6)
            ref_dist, _ = reference.search(query, 10, nprobe=6)
            assert np.array_equal(result.distances, ref_dist)

    def test_latency_benefits_from_plane_parallelism(self, full_device):
        device, db_id, _, queries = full_device
        # A 1200-entry scan spreads over 256/512 planes: the fine phase
        # should cost at most a couple of page iterations per plane.
        result = device.ivf_search(db_id, queries[0], k=10, nprobe=16)[0]
        geometry = device.config.geometry
        fine_read = result.latency.components["fine_read"]
        iteration = device.config.timing.read_time("slc_esp")
        pages = result.stats.pages_read
        max_per_plane = -(-pages // geometry.total_planes) + 1
        assert fine_read <= max_per_plane * (iteration + 10e-6) * 3

    def test_engine_spreads_reads_across_dies(self, full_device):
        """Striping puts consecutive pages on distinct dies, so the number
        of dies touched tracks the number of pages read (a 1200-entry
        functional database only occupies a handful of pages)."""
        device, db_id, _, queries = full_device
        result = device.ivf_search(db_id, queries[1], k=10, nprobe=16)[0]
        from repro.core.commands import FlashOp

        active_dies = sum(
            1
            for die_trace in device.engine._die_interfaces.values()
            if die_trace[FlashOp.READ_PAGE] > 0
        )
        geometry = device.config.geometry
        db = device.database(db_id)
        # The die command interfaces see the coarse+fine scans (rerank and
        # document fetches go through the controller's ECC path instead).
        # A full-probe scan touches every embedding page, and the stripe
        # puts consecutive pages on consecutive planes.
        scan_pages = db.embedding_region.n_pages + (
            db.centroid_region.n_pages if db.centroid_region else 0
        )
        expected_dies = -(
            -min(scan_pages, geometry.total_planes) // geometry.planes_per_die
        )
        assert active_dies >= max(1, expected_dies // 2)
        assert active_dies <= geometry.total_dies
        # And the stripe itself is die-diverse: consecutive embedding pages
        # land on distinct dies until the stripe wraps.
        offsets = range(min(db.embedding_region.n_pages, geometry.channels))
        dies = {
            db.embedding_region.region.translate(o, geometry).plane_linear(geometry)
            // geometry.planes_per_die
            for o in offsets
        }
        assert len(dies) == len(list(offsets))

    def test_energy_report_at_full_scale(self, full_device):
        device, db_id, _, queries = full_device
        batch = device.ivf_search(db_id, queries[:2], k=10, nprobe=8)
        report = device.energy_report(elapsed_s=batch.total_seconds)
        assert report["energy_j"] > 0
        assert 0.5 < report["average_power_w"] < 100.0


class TestSsd2OverSsd1Functional:
    def test_ssd2_reads_fewer_pages_per_plane(self):
        """SSD2's 512 planes halve the per-plane load of the same scan."""
        vectors, _ = make_clustered_embeddings(1200, 128, 16, seed="full")
        queries = make_queries(vectors, 2, seed="full-q2")
        latencies = {}
        for config in (REIS_SSD1, REIS_SSD2):
            small = config.with_geometry(blocks_per_plane=4, pages_per_block=8)
            device = ReisDevice(small)
            db_id = device.db_deploy("bf", vectors, seed=0)
            batch = device.search(db_id, queries, k=10)
            latencies[config.name] = batch.total_seconds
        assert latencies["REIS-SSD2"] <= latencies["REIS-SSD1"] * 1.1
