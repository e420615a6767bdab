"""Tests for the channel/chip organization and fig05's runner internals."""

import numpy as np
import pytest

from repro.nand.channel import Channel
from repro.nand.chip import FlashChip
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet

GEOMETRY = FlashGeometry()


class TestChannelOrganization:
    def test_channel_holds_its_chips_and_dies(self):
        channel = Channel(0, GEOMETRY, NandTiming(), counters=CounterSet())
        assert len(channel.chips) == GEOMETRY.chips_per_channel
        dies = list(channel.dies)
        assert len(dies) == GEOMETRY.dies_per_channel

    def test_transfer_time_and_counter(self):
        counters = CounterSet()
        channel = Channel(0, GEOMETRY, NandTiming(channel_bandwidth_bps=1e9), counters=counters)
        assert channel.transfer(5e8) == pytest.approx(0.5)
        assert counters["channel_bytes"] == 5e8

    def test_chip_die_count_and_ids(self):
        chip = FlashChip(chip_id=0, geometry=GEOMETRY, first_die_id=4)
        assert len(chip.dies) == GEOMETRY.dies_per_chip
        assert chip.dies[0].die_id == 4
        assert chip.dies[-1].die_id == 4 + GEOMETRY.dies_per_chip - 1


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
