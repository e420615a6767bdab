"""Tests for the channel/chip organization and fig05's runner internals.

Channels, chips and dies are no objects of their own: they are ranges of
the array's global plane index (:func:`~repro.nand.geometry.page_address`).
"""

import pytest

from repro.nand.geometry import FlashGeometry, page_address
from repro.nand.timing import NandTiming
from repro.ssd.device import SsdSpec

GEOMETRY = FlashGeometry(channels=2, chips_per_channel=2, dies_per_chip=2)


def addresses(geometry):
    return [page_address(geometry, i, 0, 0) for i in range(geometry.total_planes)]


class TestChannelOrganization:
    def test_channel_holds_its_chips_and_dies(self):
        # A channel's planes are one contiguous run of rows, spanning its
        # chips and their dies.
        channel_of = [a.channel for a in addresses(GEOMETRY)]
        per_channel = GEOMETRY.dies_per_channel * GEOMETRY.planes_per_die
        assert channel_of == sorted(channel_of)
        assert channel_of.count(0) == per_channel
        mine = [a for a in addresses(GEOMETRY) if a.channel == 0]
        assert len({a.chip for a in mine}) == GEOMETRY.chips_per_channel
        assert len({(a.chip, a.die) for a in mine}) == GEOMETRY.dies_per_channel

    def test_transfer_time_and_counter(self):
        timing = NandTiming(channel_bandwidth_bps=1e9)
        assert timing.transfer_time(5e8) == pytest.approx(0.5)
        # The channels move bytes in parallel: the device's internal
        # bandwidth is their sum.
        spec = SsdSpec(geometry=GEOMETRY, timing=timing)
        assert spec.internal_bandwidth_bps == pytest.approx(GEOMETRY.channels * 1e9)

    def test_chip_die_count_and_ids(self):
        # Global die ids run channel, then chip, then die: chip 1 of
        # channel 0 holds dies dies_per_chip .. 2 * dies_per_chip - 1.
        die_of = {}
        for plane_index, a in enumerate(addresses(GEOMETRY)):
            die_of.setdefault((a.channel, a.chip), set()).add(
                plane_index // GEOMETRY.planes_per_die
            )
        assert len(die_of) == GEOMETRY.channels * GEOMETRY.chips_per_channel
        assert all(len(dies) == GEOMETRY.dies_per_chip for dies in die_of.values())
        first = GEOMETRY.dies_per_chip
        assert sorted(die_of[(0, 1)]) == list(range(first, first + GEOMETRY.dies_per_chip))


class TestFig05Runner:
    def test_small_run_produces_all_curves(self):
        from repro.experiments.fig05 import run_fig05

        points = run_fig05(functional_entries=400, n_queries=6, nlist=8)
        algorithms = {p.algorithm for p in points}
        assert algorithms == {"IVF", "BQ IVF", "PQ IVF", "HNSW", "BQ HNSW", "LSH"}
        for point in points:
            assert 0.0 <= point.recall <= 1.0
            assert point.normalized_qps > 0


class TestSchedulerWearIntegration:
    def test_maintenance_includes_wear_leveling(self, small_vectors, small_corpus):
        from repro.core.api import ReisDevice
        from repro.core.config import tiny_config
        from repro.core.scheduler import DeviceScheduler

        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("WEARSCHED"))
        db_id = device.ivf_deploy("w", vectors, nlist=8, corpus=small_corpus, seed=0)
        # Manufacture wear imbalance in the free (non-deployed) blocks.
        free_block = device.config.geometry.blocks_per_plane - 1
        for _ in range(200):
            device.ssd.array.pages.erase(0, free_block)
        scheduler = DeviceScheduler(device)
        scheduler.run_maintenance(wear_level=True)
        assert scheduler.accounting.maintenance_seconds >= 0
        # Search still works after maintenance touched the drive.
        from repro.rag.embeddings import make_queries

        queries = make_queries(vectors, 2, seed=1)
        batch = scheduler.serve_queries(db_id, queries, k=5, nprobe=4)
        assert all(r.k == 5 for r in batch)
