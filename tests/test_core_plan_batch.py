"""Tests for the plan/execute split and the batched serving pipeline.

The central contracts:

* a :class:`~repro.core.plan.QueryPlan` is an explicit, inspectable
  schedule -- the five paper phases as data, one record per batch;
* a query's result does not depend on its batch: executing a batch
  through the :class:`~repro.core.batch.BatchExecutor` returns
  **bit-identical** ids and distances to serving its queries one at a
  time (property-tested over random database shapes), because batching
  only changes page-service order and the cost composition, never what a
  query computes;
* the batched wall clock is never worse than the sequential serving time,
  and improves measurably once queries can share senses and overlap
  across dies and channels.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import ReisDevice
from repro.core.batch import BatchExecutor
from repro.core.commands import FlashOp
from repro.core.config import NO_OPT, OptFlags, tiny_config
from repro.core.costing import PhaseLedger
from repro.core.plan import (
    build_query_plan,
    schedule_order,
    schedule_senses,
    validate_queries,
)
from repro.nand.geometry import FlashGeometry
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.conftest import SMALL_NLIST
from tests.cost_reference import compose_ledger, compose_solo, query_cost


def _trace_count(device, op):
    """Total occurrences of ``op`` across every die's command trace."""
    return sum(die_trace[op] for die_trace in device.engine._die_interfaces.values())


class TestPlanConstruction:
    def test_ivf_plan_has_all_five_phases(self, deployed_device, small_queries):
        device, db_id = deployed_device
        db = device.database(db_id)
        plan = build_query_plan(device.engine, db, k=5, nprobe=3)
        assert plan.stage_names() == ["ibc", "coarse", "fine", "rerank", "documents"]
        assert (plan.k, plan.nprobe) == (5, 3)
        assert plan.shortlist_size == device.engine.params.shortlist_factor * 5
        assert plan.metadata_filter is None and plan.fetch_documents

    def test_flat_plan_skips_coarse(self, deployed_flat_device, small_queries):
        device, db_id = deployed_flat_device
        db = device.database(db_id)
        plan = build_query_plan(device.engine, db, k=5)
        assert plan.stage_names() == ["ibc", "fine", "rerank", "documents"]
        assert plan.nprobe is None

    def test_fetch_documents_false_drops_document_stage(
        self, deployed_device, small_queries
    ):
        device, db_id = deployed_device
        db = device.database(db_id)
        plan = build_query_plan(device.engine, db, k=5, fetch_documents=False)
        assert "documents" not in plan.stage_names()

    def test_nprobe_clamped_to_nlist(self, deployed_device, small_queries):
        device, db_id = deployed_device
        db = device.database(db_id)
        plan = build_query_plan(device.engine, db, k=5, nprobe=10_000)
        assert plan.nprobe == SMALL_NLIST

    def test_validation_happens_at_build_time(self, deployed_device, small_queries):
        device, db_id = deployed_device
        db = device.database(db_id)
        with pytest.raises(ValueError):
            build_query_plan(device.engine, db, k=0)
        with pytest.raises(ValueError):
            build_query_plan(device.engine, db, k=5, metadata_filter=3)
        # The queries are checked once, at the API, not per plan.
        with pytest.raises(ValueError):
            validate_queries(db, small_queries[0][:-8], k=5)


class TestBatchBitIdentity:
    SETTINGS = settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )

    @given(
        st.tuples(
            st.integers(80, 200),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 10),  # k
            st.integers(2, 9),  # batch size
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_batched_results_bit_identical_to_sequential(self, shape):
        n, dim, nlist, k, batch_size, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, batch_size, seed=(seed, "bq"))
        device = ReisDevice(tiny_config(f"BATCH-{seed}-{n}-{dim}"))
        db_id = device.ivf_deploy("b", vectors, nlist=nlist, seed=seed)
        db = device.database(db_id)

        sequential = [
            device.ivf_search(db_id, query[None], k=k, nprobe=2).results[0]
            for query in queries
        ]
        execution = BatchExecutor(device.engine).execute(
            db, queries, k=k, nprobe=2
        )
        assert len(execution) == batch_size
        for solo, batched in zip(sequential, execution):
            assert np.array_equal(solo.ids, batched.ids)
            assert np.array_equal(solo.distances, batched.distances)
            # Per-query solo latency reports are preserved verbatim.
            assert solo.latency.total_s == pytest.approx(
                batched.latency.total_s, rel=1e-12
            )
        sequential_total = sum(r.latency.total_s for r in sequential)
        assert execution.batch_seconds <= sequential_total * (1 + 1e-9)

    def test_metadata_filter_survives_batching(
        self, small_vectors, small_corpus, small_queries
    ):
        vectors, labels = small_vectors
        tags = (labels % 3).astype(np.uint32)
        device = ReisDevice(tiny_config("BATCH-META"))
        db_id = device.ivf_deploy(
            "m", vectors, nlist=SMALL_NLIST, corpus=small_corpus,
            metadata_tags=tags, seed=0,
        )
        batch = device.ivf_search(
            db_id, small_queries[:4], k=5, nprobe=SMALL_NLIST, metadata_filter=2
        )
        for result in batch:
            for original in result.ids:
                assert tags[int(original)] == 2


class TestBatchThroughput:
    def test_batched_wall_clock_beats_sequential(self, deployed_device, small_queries):
        device, db_id = deployed_device
        batch = device.ivf_search(db_id, small_queries, k=10, nprobe=4)
        assert batch.wall_seconds < batch.total_seconds
        assert batch.qps > batch.sequential_qps

    def test_qps_improves_with_batch_size(self, deployed_device, small_queries):
        """Speedup over sequential grows as the batch fills the device."""
        device, db_id = deployed_device
        speedups = []
        for batch_size in (1, 4, 12):
            batch = device.ivf_search(
                db_id, small_queries[:batch_size], k=10, nprobe=4
            )
            speedups.append(batch.qps / batch.sequential_qps)
        assert speedups[-1] > speedups[0]
        assert speedups[-1] > 1.5  # batch 12 must overlap substantially

    def test_senses_amortized_across_queries(self, deployed_device, small_queries):
        device, db_id = deployed_device
        batch = device.ivf_search(db_id, small_queries[:8], k=10, nprobe=4)
        stats = batch.batch_stats
        assert stats.n_queries == 8
        assert stats.total_senses > 0
        # Eight queries over twelve clusters must collide on some pages.
        assert stats.unique_senses < stats.total_senses
        assert stats.senses_amortized == stats.total_senses - stats.unique_senses

    def test_phase_seconds_sums_to_wall_clock(self, deployed_device, small_queries):
        device, db_id = deployed_device
        batch = device.ivf_search(db_id, small_queries[:6], k=5, nprobe=3)
        phases = batch.phase_seconds()
        for name in ("ibc", "coarse", "fine", "rerank", "documents"):
            assert name in phases
            assert phases[name] > 0
        assert sum(phases.values()) == pytest.approx(batch.wall_seconds)

    def test_single_query_batch_not_slower_than_solo(
        self, deployed_device, small_queries
    ):
        device, db_id = deployed_device
        batch = device.ivf_search(db_id, small_queries[:1], k=5, nprobe=3)
        assert batch.wall_seconds <= batch.total_seconds * (1 + 1e-9)


class TestPageSchedule:
    """Unit tests of the array page-service schedule
    (``schedule_order`` + ``schedule_senses``)."""

    PAGES = np.array([0, 1, 0, 2, 1, 0])

    @staticmethod
    def _planes(pages):
        return pages % 2  # pages 0 and 2 share plane 0, page 1 is alone

    def _schedule(self, demands, optimize, cached_pages=None):
        """``(task order, pages, planes, sensed)`` in service order."""
        demands = np.asarray(demands)
        order = schedule_order(demands, optimize)
        pages = demands[order]
        planes = self._planes(pages)
        cached = None
        if cached_pages is not None:
            cached = np.isin(pages, sorted(cached_pages))
        return order, pages, planes, schedule_senses(pages, planes, cached)

    def test_optimized_schedule_senses_each_page_once(self):
        order, pages, _planes, sensed = self._schedule(self.PAGES, True)
        assert sensed.size == 6
        assert sensed.sum() == 3  # three unique pages
        # Requests are stably grouped by page, pages in first-demand order.
        assert pages.tolist() == [0, 0, 0, 1, 1, 2]
        assert order.tolist() == [0, 2, 5, 1, 4, 3]

    def test_unoptimized_shares_only_while_latched(self):
        order, _pages, _planes, sensed = self._schedule(self.PAGES, False)
        # Caller order is preserved; page 0's second visit rides the latch,
        # but its third comes after page 2 evicted plane 0.
        assert order.tolist() == [0, 1, 2, 3, 4, 5]
        assert sensed.tolist() == [True, True, False, True, False, True]

    def test_senses_per_plane_sums_to_n_senses(self):
        """The per-plane sense counts the cost model is billed
        (``PhaseLedger.add_schedule``, one call per executed schedule) add
        up to the schedules' senses."""
        ledger = PhaseLedger("fine", 1, FlashGeometry(dies_per_chip=1))
        total = np.zeros(4, dtype=np.int64)
        for optimize in (True, False):
            _order, _pages, planes, sensed = self._schedule(self.PAGES, optimize)
            ledger.add_schedule(np.bincount(planes[sensed], minlength=4))
            total += [int(sensed[planes == plane].sum()) for plane in range(4)]
            assert ledger.senses.tolist() == total.tolist()

    def test_service_groups_cover_requests_in_order(self):
        """The optimized order is one run per page: the run's first
        request senses, the rest drain the latched page."""
        _order, pages, planes, sensed = self._schedule(self.PAGES, True)
        starts = np.flatnonzero(np.r_[True, pages[1:] != pages[:-1]])
        assert pages[starts].tolist() == [0, 1, 2]  # each page exactly once
        assert np.flatnonzero(sensed).tolist() == starts.tolist()
        for start, end in zip(starts, np.r_[starts[1:], pages.size]):
            assert len(set(planes[start:end].tolist())) == 1

    def test_cached_request_neither_senses_nor_evicts_the_latch(self):
        """A mirror-served request between two same-plane requests for one
        page: the controller streams it from DRAM, so the plane's latch
        still holds the page when the second request arrives."""
        demands = [0, 2, 0]  # both on plane 0
        *_, uncached = self._schedule(demands, False)
        assert uncached.tolist() == [True, True, True]  # page 2 evicts page 0
        *_, sensed = self._schedule(demands, False, cached_pages={2})
        assert sensed.tolist() == [True, False, False]


class TestPageMajorExecution:
    """The functional path now matches the cost model's sense accounting."""

    WORKLOAD = dict(n=400, dim=64, nlist=8, nprobe=4, k=5)

    def _deploy(self, tag, flags=None):
        w = self.WORKLOAD
        vectors, _ = make_clustered_embeddings(w["n"], w["dim"], w["nlist"], seed="pm")
        device = ReisDevice(tiny_config(f"PM-{tag}"), flags=flags)
        db_id = device.ivf_deploy("pm", vectors, nlist=w["nlist"], seed=0)
        queries = make_queries(vectors, 16, seed="pm-q")
        return device, db_id, queries

    def test_batch16_trace_reads_equal_unique_senses(self):
        """Acceptance: a batch-16 run performs exactly ``unique_senses``
        page reads -- the command trace and compose_batch_phase agree."""
        device, db_id, queries = self._deploy("trace")
        before = _trace_count(device, FlashOp.READ_PAGE)
        batch = device.ivf_search(
            db_id, queries, k=self.WORKLOAD["k"], nprobe=self.WORKLOAD["nprobe"]
        )
        traced_reads = _trace_count(device, FlashOp.READ_PAGE) - before
        stats = batch.batch_stats
        scan_unique = (
            stats.phases["coarse"].unique_senses
            + stats.phases["fine"].unique_senses
        )
        assert traced_reads == stats.scan_senses == scan_unique
        # And the batch really amortized: fewer senses than page visits.
        assert stats.scan_senses < stats.scan_requests

    def test_trace_reads_equal_the_ledgers_unique_senses(self, monkeypatch):
        """The same invariant computed from the phase ledgers the batch
        billed: READ_PAGE commands == the scan ledgers' unique senses ==
        the senses their executed schedules recorded == the SLC
        ``page_reads`` the planes counted; the TLC phases bill the senses
        their page stacks executed as their unique senses and every query's
        own visits as energy (``page_reads_tlc`` == their total senses)."""
        device, db_id, queries = self._deploy("ledger")
        runs, prepare = [], BatchExecutor.prepare

        def spy_prepare(executor, *args, **kwargs):
            runs.append(prepare(executor, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(BatchExecutor, "prepare", spy_prepare)
        counters = device.ssd.counters
        reads_before = _trace_count(device, FlashOp.READ_PAGE)
        before = counters.as_dict()
        device.ivf_search(
            db_id, queries, k=self.WORKLOAD["k"], nprobe=self.WORKLOAD["nprobe"]
        )
        traced_reads = _trace_count(device, FlashOp.READ_PAGE) - reads_before
        tlc_reads = counters["page_reads_tlc"] - before.get("page_reads_tlc", 0)
        scan_reads = counters["page_reads"] - before.get("page_reads", 0) - tlc_reads

        ledgers = runs[-1].ledgers
        assert list(ledgers) == ["coarse", "fine", "rerank", "documents"]
        engine = device.engine
        unique, total = {}, {}
        for name, ledger in ledgers.items():
            _solo, batch = ledger.stages(engine.timing, engine.ssd.ecc.decode_time(1))
            unique[name], total[name] = batch[5], batch[6]
        scheduled = sum(int(ledgers[name].senses.sum()) for name in ("coarse", "fine"))
        assert (
            traced_reads == unique["coarse"] + unique["fine"] == scheduled == scan_reads
        )
        assert scan_reads < total["coarse"] + total["fine"]  # the batch shared senses
        for name in ("rerank", "documents"):  # the TLC phases bill executed senses too
            assert int(ledgers[name].senses.sum()) == unique[name]
        assert tlc_reads == total["rerank"] + total["documents"]

    def test_energy_scales_with_unique_not_total_senses(self):
        """The page_reads counter (and hence sense energy) advances once
        per unique sense: one batch of 16 performs exactly the scan senses
        fewer than 16 batches of one that sharing pages across queries
        saves; latch work stays per visit."""
        w = self.WORKLOAD
        dev_seq, db_seq, queries = self._deploy("seq")
        dev_bat, db_bat, _ = self._deploy("bat")

        reads_before_seq = dev_seq.ssd.counters["page_reads"]
        solos = [
            dev_seq.ivf_search(db_seq, query, k=w["k"], nprobe=w["nprobe"])
            for query in queries
        ]
        reads_seq = dev_seq.ssd.counters["page_reads"] - reads_before_seq

        reads_before_bat = dev_bat.ssd.counters["page_reads"]
        batch = dev_bat.ivf_search(db_bat, queries, k=w["k"], nprobe=w["nprobe"])
        reads_bat = dev_bat.ssd.counters["page_reads"] - reads_before_bat

        for solo, batched in zip(solos, batch):
            assert np.array_equal(solo[0].ids, batched.ids)
        saved = (
            sum(solo.batch_stats.scan_senses for solo in solos)
            - batch.batch_stats.scan_senses
        )
        assert saved > 0
        # TLC reads are billed per query on both sides; the scan senses
        # the batch amortized are the whole difference.
        assert reads_seq - reads_bat == saved
        # Energy: the sense component shrinks by exactly the saved senses;
        # the in-plane latch work is identical (it runs per visit).
        power = dev_bat.ssd.power
        seq_energy = power.energy_breakdown(dev_seq.ssd.counters)
        bat_energy = power.energy_breakdown(dev_bat.ssd.counters)
        page_j = power.params.page_read_energy_j
        assert seq_energy["sense"] - bat_energy["sense"] == pytest.approx(
            saved * page_j
        )
        assert bat_energy["latch"] == pytest.approx(seq_energy["latch"])

    def test_schedule_optimizer_never_changes_results(self):
        """Deterministic multi-page workload where the optimizer really
        reorders: results stay bit-identical, senses never increase."""
        vectors, _ = make_clustered_embeddings(3200, 256, 16, seed="pm-big")
        queries = make_queries(vectors, 8, seed="pm-big-q")
        executions = {}
        for label, flags in (
            ("on", OptFlags()),
            ("off", OptFlags(schedule_optimization=False)),
        ):
            device = ReisDevice(tiny_config(f"PM-OPT-{label}"), flags=flags)
            db_id = device.ivf_deploy("pm", vectors, nlist=16, seed=0)
            executions[label] = device.ivf_search(
                db_id, queries, k=5, nprobe=4, fetch_documents=False
            )
        for on, off in zip(executions["on"], executions["off"]):
            assert np.array_equal(on.ids, off.ids)
            assert np.array_equal(on.distances, off.distances)
        on_stats = executions["on"].batch_stats
        off_stats = executions["off"].batch_stats
        assert on_stats.scan_requests == off_stats.scan_requests
        # The workload spans more pages than planes, so the query-major
        # order must lose latched pages that the optimizer keeps.
        assert on_stats.scan_senses < off_stats.scan_senses

    @given(
        st.tuples(
            st.integers(80, 200),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(2, 8),  # batch size
            st.integers(0, 10**6),  # seed
        )
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_schedule_reordering_property(self, shape):
        """Property: for any shape, optimizer on/off return identical
        results and the optimized schedule never senses more."""
        n, dim, nlist, batch_size, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, batch_size, seed=(seed, "rq"))
        executions = {}
        for label, flags in (
            ("on", OptFlags()),
            ("off", OptFlags(schedule_optimization=False)),
        ):
            device = ReisDevice(
                tiny_config(f"RP-{label}-{seed}-{n}"), flags=flags
            )
            db_id = device.ivf_deploy("r", vectors, nlist=nlist, seed=seed)
            executions[label] = device.ivf_search(
                db_id, queries, k=5, nprobe=2, fetch_documents=False
            )
        for on, off in zip(executions["on"], executions["off"]):
            assert np.array_equal(on.ids, off.ids)
            assert np.array_equal(on.distances, off.distances)
        assert (
            executions["on"].batch_stats.scan_senses
            <= executions["off"].batch_stats.scan_senses
        )

    def test_metadata_filtered_entries_emit_no_rd_ttl(self):
        """The Sec. 7.1 tag comparison runs in-die: filtered entries never
        get an RD_TTL command, so trace count == entries transferred."""
        w = self.WORKLOAD
        vectors, labels = make_clustered_embeddings(
            w["n"], w["dim"], w["nlist"], seed="pm-meta"
        )
        tags = (labels % 3).astype(np.uint32)
        device = ReisDevice(tiny_config("PM-META"))
        db_id = device.ivf_deploy(
            "pm", vectors, nlist=w["nlist"], metadata_tags=tags, seed=0
        )
        queries = make_queries(vectors, 4, seed="pm-meta-q")
        before = _trace_count(device, FlashOp.RD_TTL)
        batch = device.ivf_search(
            db_id, queries, k=w["k"], nprobe=w["nlist"],
            metadata_filter=2, fetch_documents=False,
        )
        traced = _trace_count(device, FlashOp.RD_TTL) - before
        transferred = sum(r.stats.entries_transferred for r in batch)
        filtered = sum(r.stats.entries_filtered for r in batch)
        assert filtered > 0  # the tag filter really dropped candidates
        assert traced == transferred


class TestComposeBatchPhase:
    """Unit tests of the die/channel-occupancy composition (the batch
    reduction of a :class:`PhaseLedger`)."""

    def _timing_and_flags(self):
        config = tiny_config("OCC")
        return config.timing, OptFlags()

    def _ledger(self, *queries):
        """One ledger row per query: ``dict(plane=, pages=, channel_bytes=,
        core=)``, pages visited in the given order."""
        ledger = PhaseLedger("fine", len(queries), FlashGeometry(dies_per_chip=1))
        for row, query in enumerate(queries):
            pages = np.array(query.get("pages", ()), dtype=np.int64)
            ledger.add_nand_visits(
                np.full(pages.size, row), np.full(pages.size, query.get("plane", 0)),
                pages,
            )
            ledger.channel_bytes[row, 0] = query.get("channel_bytes", 0.0)
            ledger.core_seconds[row] = query.get("core", 0.0)
        return ledger

    def test_shared_pages_sensed_once(self):
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(dict(pages=(10, 11, 12)), dict(pages=(11, 12, 13)))
        breakdown = compose_ledger(ledger, timing, flags)
        assert breakdown.total_senses == 6
        assert breakdown.unique_senses == 4
        assert breakdown.senses_amortized == 2

    def test_within_query_repeats_not_amortized(self):
        """A query's own re-reads (filter retry, repeated document slots)
        are temporally separated senses: a batch of one costs the solo
        model exactly."""
        timing, flags = self._timing_and_flags()
        retry = self._ledger(dict(pages=(1, 2, 1, 2)))  # one query scanning twice
        breakdown = compose_ledger(retry, timing, flags)
        assert breakdown.total_senses == 4
        assert breakdown.unique_senses == 4
        assert breakdown.senses_amortized == 0

    def test_cross_query_sharing_caps_at_max_multiplicity(self):
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(
            dict(pages=(1, 2, 1, 2)),  # needs each page twice itself
            dict(pages=(1, 2)),  # rides along with one of the first's passes
        )
        breakdown = compose_ledger(ledger, timing, flags)
        assert breakdown.total_senses == 6
        assert breakdown.unique_senses == 4
        assert breakdown.senses_amortized == 2

    def test_executed_schedule_overrides_derived_sharing(self):
        """A plane the executed schedule sensed on bills exactly those
        senses (a page-major schedule merges even a query's own repeats);
        planes it did not touch still derive theirs."""
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(
            dict(plane=0, pages=(1, 2, 1, 2)), dict(plane=1, pages=(9, 9))
        )
        ledger.add_schedule(np.array([2, 0, 0, 0]))
        breakdown = compose_ledger(ledger, timing, flags)
        assert breakdown.total_senses == 6
        assert breakdown.unique_senses == 2 + 2

    def test_disjoint_planes_overlap(self):
        """Two queries on different planes cost one query's read time."""
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(
            dict(plane=0, pages=(1, 2)), dict(plane=1, pages=(101, 102))
        )
        joint = compose_ledger(ledger, timing, flags)
        solo_a = compose_solo(ledger, timing, flags, query=0)[0]
        solo_b = compose_solo(ledger, timing, flags, query=1)[0]
        assert joint.seconds < solo_a + solo_b

    def test_batch_of_one_matches_solo_compose(self):
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(dict(pages=(1, 2, 3), channel_bytes=512.0, core=1e-6))
        solo_total, solo_components = compose_solo(ledger, timing, flags)
        breakdown = compose_ledger(ledger, timing, flags)
        assert breakdown.seconds == pytest.approx(solo_total)
        assert breakdown.components == pytest.approx(solo_components)

    def test_core_time_serializes(self):
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(*(dict(pages=(i,), core=1e-3) for i in range(4)))
        breakdown = compose_ledger(ledger, timing, flags)
        assert breakdown.components["fine_core"] == pytest.approx(4e-3)

    def test_query_that_did_not_run_has_no_cost(self):
        timing, flags = self._timing_and_flags()
        ledger = self._ledger(dict(pages=(1,)), dict(pages=(2, 3)))
        ledger.queries = np.array([0, 2])  # query 1 sat the phase out
        assert query_cost(ledger, 1) is None
        assert query_cost(ledger, 2).pages_per_plane == {0: 2}

    def test_no_pipelining_sums_stages(self):
        timing, _ = self._timing_and_flags()
        ledger = self._ledger(dict(pages=(1, 2), channel_bytes=2048.0, core=5e-6))
        breakdown = compose_ledger(ledger, timing, NO_OPT)
        assert breakdown.seconds == pytest.approx(
            sum(breakdown.components.values())
        )
