"""Tests for the Sec. 7.2 device-management features: data refresh,
mode scheduling, and deployment-time defragmentation."""

import numpy as np
import pytest

from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.core.defrag import DefragmentationError, Defragmenter
from repro.core.scheduler import DeviceScheduler
from repro.nand.cell import CellMode
from repro.ssd.refresh import RefreshManager, RetentionPolicy
from tests.conftest import stored_page, tiny_ingest_device


class TestRefreshManager:
    def _system(self):
        ssd = tiny_config("REFRESH").make_ssd()
        manager = RefreshManager(ssd.array)
        return ssd, manager

    def _program_block(self, ssd, plane_index=0, block_index=0, mode=CellMode.TLC):
        ssd.array.pages.set_mode(plane_index, block_index, mode)
        ssd.array.program_pages(
            [plane_index] * 3, [block_index] * 3, range(3),
            np.arange(3, dtype=np.uint8)[:, None].repeat(64, axis=1),
        )

    def test_fresh_blocks_are_not_due(self):
        ssd, manager = self._system()
        self._program_block(ssd)
        manager.note_programmed(0, 0)
        assert manager.due_blocks() == []

    def test_tlc_due_before_esp(self):
        ssd, manager = self._system()
        self._program_block(ssd, block_index=0, mode=CellMode.TLC)
        self._program_block(ssd, block_index=1, mode=CellMode.SLC_ESP)
        manager.note_programmed(0, 0)
        manager.note_programmed(0, 1)
        manager.advance_days(120)  # past TLC's 90d, well inside ESP's 365d
        assert manager.due_blocks() == [(0, 0)]
        manager.advance_days(300)  # now past ESP's budget too
        assert (0, 1) in manager.due_blocks()

    def test_refresh_rewrites_and_preserves_data(self):
        ssd, manager = self._system()
        self._program_block(ssd, mode=CellMode.SLC_ESP)
        manager.note_programmed(0, 0)
        manager.advance_days(400)
        result = manager.refresh()
        assert result.blocks_refreshed == 1
        assert result.pages_rewritten == 3
        # Data is intact, at the same page indices, same cell mode.
        assert ssd.array.pages.mode[0, 0] == CellMode.SLC_ESP.code
        for page in range(3):
            golden, _ = ssd.array.pages.view(0, 0, page)
            assert (golden[:64] == page).all()
        # The block's age is reset.
        assert manager.age_of(0, 0) == 0.0
        assert manager.due_blocks() == []

    def test_refresh_respects_block_budget(self):
        ssd, manager = self._system()
        self._program_block(ssd, block_index=0)
        self._program_block(ssd, block_index=1)
        manager.note_programmed(0, 0)
        manager.note_programmed(0, 1)
        manager.advance_days(200)
        result = manager.refresh(max_blocks=1)
        assert result.blocks_refreshed == 1
        assert len(manager.due_blocks()) == 1

    def test_negative_time_rejected(self):
        _, manager = self._system()
        with pytest.raises(ValueError):
            manager.advance_days(-1)

    def test_policy_ordering(self):
        policy = RetentionPolicy()
        assert policy.budget_days(CellMode.SLC_ESP) > policy.budget_days(CellMode.TLC)
        assert policy.budget_days(CellMode.TLC) > policy.budget_days(CellMode.QLC)


class TestDeviceScheduler:
    @pytest.fixture()
    def scheduler(self, small_vectors, small_corpus):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("SCHED"))
        self.db_id = device.ivf_deploy(
            "s", vectors, nlist=12, corpus=small_corpus, seed=0
        )
        return DeviceScheduler(device)

    def test_queries_served_in_rag_mode(self, scheduler, small_queries):
        batch = scheduler.serve_queries(self.db_id, small_queries[:4], k=5, nprobe=3)
        assert len(batch) == 4
        assert scheduler.device.ssd.rag_mode
        assert scheduler.accounting.rag_seconds > 0
        assert scheduler.accounting.queries_served == 4

    def test_host_write_forces_mode_switch(self, scheduler, small_queries):
        scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=3)
        switches_before = scheduler.accounting.mode_switches
        scheduler.host_write(0, np.zeros(64, dtype=np.uint8))
        assert not scheduler.device.ssd.rag_mode
        assert scheduler.accounting.mode_switches == switches_before + 1
        assert scheduler.accounting.host_pages_written == 1

    def test_alternating_workload_counts_switches(self, scheduler, small_queries):
        for i in range(3):
            scheduler.serve_queries(self.db_id, small_queries[:1], k=5, nprobe=2)
            scheduler.host_write(i, np.zeros(8, dtype=np.uint8))
        # deploy left us in RAG mode: 3 exits + 2 re-entries.
        assert scheduler.accounting.mode_switches == 5
        assert scheduler.accounting.mode_switch_seconds > 0

    def test_maintenance_runs_in_normal_mode(self, scheduler):
        scheduler.run_maintenance()
        assert not scheduler.device.ssd.rag_mode
        assert len(scheduler.accounting.gc_results) == 1
        assert len(scheduler.accounting.refresh_results) == 1

    def test_utilization_sums_to_one(self, scheduler, small_queries):
        scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=3)
        scheduler.run_maintenance()
        utilization = scheduler.accounting.utilization()
        assert sum(utilization.values()) == pytest.approx(1.0)

    def test_report_shape(self, scheduler, small_queries):
        scheduler.serve_queries(self.db_id, small_queries[:1], k=5, nprobe=2)
        report = scheduler.report()
        assert report["queries_served"] == 1
        assert "utilization" in report

    def test_rag_time_uses_batched_wall_clock(self, scheduler, small_queries):
        """serve_queries routes through the BatchExecutor: the time billed
        to RAG is the overlapped batch wall clock, not the solo-latency sum."""
        batch = scheduler.serve_queries(self.db_id, small_queries[:8], k=5, nprobe=3)
        assert scheduler.accounting.rag_seconds == pytest.approx(batch.wall_seconds)
        assert scheduler.accounting.rag_seconds < batch.total_seconds

    def test_interleaved_sequence_mode_accounting(self, scheduler, small_queries):
        """Mode switches across an interleaved serve / write / maintenance /
        serve schedule: every activity bills its own bucket and the switch
        count matches the exact boundary sequence."""
        acc = scheduler.accounting
        # Deployment left the device in RAG mode: serving adds no switch.
        scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=2)
        assert acc.mode_switches == 0
        # RAG -> normal for a host write (1 switch), stays normal for the
        # second write and for maintenance (no further switches).
        scheduler.host_write(0, np.zeros(16, dtype=np.uint8))
        assert acc.mode_switches == 1
        scheduler.host_write(1, np.zeros(16, dtype=np.uint8))
        assert acc.mode_switches == 1
        scheduler.run_maintenance()
        assert acc.mode_switches == 1
        # Back into RAG mode to serve again (2nd switch).
        scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=2)
        assert acc.mode_switches == 2
        # Every bucket saw activity and the totals are self-consistent.
        # (A fresh device has nothing to collect or refresh, so maintenance
        # records a run but may legitimately bill zero seconds.)
        assert acc.rag_seconds > 0
        assert acc.host_io_seconds > 0
        assert len(acc.gc_results) == 1
        assert len(acc.refresh_results) == 1
        assert acc.maintenance_seconds >= 0
        assert acc.mode_switch_seconds > 0
        assert acc.queries_served == 4
        assert acc.host_pages_written == 2
        assert acc.total_seconds == pytest.approx(
            acc.rag_seconds + acc.host_io_seconds
            + acc.maintenance_seconds + acc.mode_switch_seconds
        )
        utilization = acc.utilization()
        assert sum(utilization.values()) == pytest.approx(1.0)
        # "merge" is the host-side shard-merge bucket: present in the key
        # set (the sharded scheduler fills it) but zero on one device.
        assert set(utilization) == {
            "rag", "host_io", "maintenance", "mode_switch", "merge"
        }
        assert utilization["merge"] == 0.0

    def test_maintenance_between_batches_preserves_results(
        self, scheduler, small_queries
    ):
        """Interleaving maintenance must not perturb retrieval (deployed
        blocks are reserved from GC/wear)."""
        before = scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=3)
        scheduler.host_write(3, np.full(32, 7, dtype=np.uint8))
        scheduler.run_maintenance()
        after = scheduler.serve_queries(self.db_id, small_queries[:2], k=5, nprobe=3)
        for first, second in zip(before, after):
            assert np.array_equal(first.ids, second.ids)
            assert np.array_equal(first.distances, second.distances)


class TestDefragmenter:
    def _fragmented_ssd(self):
        """An SSD with host data scattered across the first blocks."""
        config = tiny_config("DEFRAG")
        ssd = config.make_ssd()
        g = config.geometry
        for lpa in range(g.total_planes * 6):  # ~6 pages per plane
            ssd.host_write(lpa, np.full(32, lpa % 251, dtype=np.uint8))
        return ssd, g

    def test_clear_window_relocates_and_erases(self):
        ssd, g = self._fragmented_ssd()
        defrag = Defragmenter(ssd)
        window = (0, g.pages_per_block)
        occupied = defrag.window_occupancy(*window)
        assert occupied > 0
        result = defrag.clear_window(*window)
        assert result.relocated_pages == occupied
        assert result.erased_blocks > 0
        assert result.seconds > 0
        assert defrag.window_occupancy(*window) == 0

    def test_occupancy_counts_the_pages_clear_window_moves(self):
        """Only FTL-mapped pages are relocated, so only they occupy a window:
        a deployed region's pages have no logical owner."""
        ssd, g = self._fragmented_ssd()
        defrag = Defragmenter(ssd)
        occupied = defrag.window_occupancy(0, g.pages_per_block)
        assert occupied == defrag.clear_window(0, g.pages_per_block).relocated_pages
        device, _, _ = tiny_ingest_device()
        window = device.database(0).embedding_region.region
        defrag = Defragmenter(device.ssd)
        bounds = (window.start_page_in_plane, window.end_page_in_plane)
        occupied = defrag.window_occupancy(*bounds)
        assert occupied == defrag.clear_window(*bounds).relocated_pages == 0

    def test_host_data_survives_defragmentation(self):
        ssd, g = self._fragmented_ssd()
        Defragmenter(ssd).clear_window(0, g.pages_per_block)
        for lpa in range(g.total_planes * 6):
            ppa = ssd.ftl.translate(lpa)
            golden, _ = stored_page(ssd.array, ppa)
            assert (golden[:32] == lpa % 251).all()

    def test_relocations_leave_the_window(self):
        ssd, g = self._fragmented_ssd()
        defrag = Defragmenter(ssd)
        defrag.clear_window(0, g.pages_per_block)
        for lpa in range(g.total_planes * 6):
            ppa = ssd.ftl.translate(lpa)
            in_plane = ppa.block * g.pages_per_block + ppa.page
            assert in_plane >= g.pages_per_block

    def test_cleared_window_is_deployable(self, small_vectors, small_corpus):
        """End to end: defragment a used drive, then deploy REIS into it."""
        vectors, _ = small_vectors
        ssd, g = self._fragmented_ssd()
        defrag = Defragmenter(ssd)
        # Clear the first half of every plane for the database regions.
        defrag.clear_window(0, g.pages_per_plane // 2)
        from repro.core.layout import DatabaseDeployer

        deployer = DatabaseDeployer(ssd)
        db = deployer.deploy(0, "post-defrag", vectors[:200], corpus=None, seed=0)
        assert db.n_entries == 200

    def test_unaligned_window_rejected(self):
        ssd, g = self._fragmented_ssd()
        with pytest.raises(ValueError):
            Defragmenter(ssd).clear_window(1, g.pages_per_block)

    def test_window_outside_plane_rejected(self):
        ssd, g = self._fragmented_ssd()
        with pytest.raises(ValueError):
            Defragmenter(ssd).clear_window(0, g.pages_per_plane + g.pages_per_block)

    def test_full_drive_cannot_defragment(self):
        config = tiny_config("DEFRAG-FULL").with_geometry(blocks_per_plane=1)
        ssd = config.make_ssd()
        g = config.geometry
        for lpa in range(g.total_pages):
            ssd.host_write(lpa, np.zeros(8, dtype=np.uint8))
        with pytest.raises(DefragmentationError):
            Defragmenter(ssd).clear_window(0, g.pages_per_block)
