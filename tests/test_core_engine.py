"""Integration tests for the in-storage ANNS engine (Sec. 4.3).

The central fidelity claim: the engine, executing only NAND peripheral
operations (IBC, page read, latch XOR, fail-bit count, pass/fail check)
plus embedded-core kernels, must return the same results as the host-side
reference algorithm (BQ-IVF with INT8 rerank) running on the same data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.ivf import BqIvfIndex
from repro.ann.recall import mean_recall_at_k
from repro.core.api import ReisDevice
from repro.core.config import NO_OPT, OptFlags, tiny_config
from repro.core.costing import PhaseLedger
from repro.core.engine import InStorageAnnsEngine

from tests.conftest import SMALL_DIM, SMALL_N, SMALL_NLIST, one_run, stored_page


class TestEngineMatchesHostReference:
    """REIS-in-flash == BqIvfIndex-on-host, per query."""

    @pytest.fixture(scope="class")
    def reference(self, small_vectors):
        vectors, _ = small_vectors
        return BqIvfIndex(SMALL_DIM, SMALL_NLIST, seed=0).fit(vectors)

    @pytest.mark.parametrize("nprobe", [1, 3, SMALL_NLIST])
    def test_ivf_results_match(self, deployed_device, reference, small_queries, nprobe):
        device, db_id = deployed_device
        for query in small_queries[:6]:
            [result] = device.ivf_search(db_id, query[None], k=10, nprobe=nprobe)
            ref_dist, ref_ids = reference.search(query, 10, nprobe=nprobe)
            # Distances must agree exactly (same INT8 arithmetic); id order
            # may differ only where distances tie.
            assert np.array_equal(result.distances, ref_dist)
            overlap = len(set(result.ids.tolist()) & set(ref_ids.tolist()))
            assert overlap >= 9

    def test_brute_force_matches_flat_reference(
        self, deployed_flat_device, small_vectors, small_queries
    ):
        vectors, _ = small_vectors
        device, db_id = deployed_flat_device
        reference = BqIvfIndex(SMALL_DIM, nlist=1, seed=0).fit(vectors)
        for query in small_queries[:4]:
            [result] = device.search(db_id, query[None], k=10)
            ref_dist, _ = reference.search(query, 10, nprobe=1)
            assert np.array_equal(result.distances, ref_dist)


class TestPhaseKernelAgainstBruteForce:
    """``scan_page_run`` on hand-built demands == brute force over the host
    mirror: distance threshold, in-die metadata filter, and slot windows
    that start mid-page, run past the page and hit the short last page."""

    N, DIM = 500, 64  # 8-byte codes, 184 slots/page with metadata: 3 pages

    def test_threshold_filter_and_clamped_windows(self):
        from repro.core.batch import tasks_from_ranges
        from repro.core.plan import search_stats
        from repro.core.registry import TemporalTopList
        from repro.rag.embeddings import make_clustered_embeddings, make_queries

        vectors, _ = make_clustered_embeddings(self.N, self.DIM, 4, seed="pk")
        tags = (np.arange(self.N) % 3).astype(np.uint32)
        device = ReisDevice(tiny_config("PK"))
        db_id = device.ivf_deploy("pk", vectors, nlist=4, seed=0, metadata_tags=tags)
        db = device.database(db_id)
        region = db.embedding_region
        assert region.n_pages == 3 and region.n_slots % region.slots_per_page

        # Host mirror, in slot order.
        slot_codes = db.binary_quantizer.encode(vectors)[db.slot_to_original]
        slot_tags = tags[db.slot_to_original].astype(np.int64)
        queries = make_queries(vectors, 3, seed="pk-q")
        codes = db.binary_quantizer.encode(queries)
        dists = np.unpackbits(
            slot_codes[None, :, :] ^ codes[:, None, :], axis=2
        ).sum(axis=2)

        # query -> slot ranges (two ranges for query 1), threshold, filters.
        ranges = [(0, 50, 400), (1, 0, self.N - 1), (1, 10, 20), (2, self.N - 30, self.N - 1)]
        filters = [None, 2, 0]
        threshold = int(np.median(dists))
        tasks = tasks_from_ranges(
            region,
            np.zeros(len(ranges), dtype=np.int64),
            np.array([r[0] for r in ranges]),
            np.array([r[1] for r in ranges]),
            np.array([r[2] for r in ranges]),
            threshold,
            filters,
        )
        entry_bytes = device.engine.params.fine_entry_bytes(db.code_bytes)
        ttl = TemporalTopList("e", entry_bytes, len(queries), 1000)
        run = one_run(device, db, len(queries), codes)
        device.engine.scan_page_run(
            [run], [PhaseLedger("fine", len(queries), device.engine.geometry)],
            tasks, False, ttl,
        )
        stats = search_stats(run.counts)
        selection, bounds = ttl.select()

        for qi in range(3):
            slots = np.concatenate(
                [np.arange(lo, hi + 1) for q, lo, hi in ranges if q == qi]
            )
            keep = dists[qi, slots] < threshold
            if filters[qi] is not None:
                keep &= slot_tags[slots] == filters[qi]
            kept = slots[keep]
            assert stats[qi].entries_scanned == slots.size
            assert stats[qi].entries_transferred == kept.size == ttl.sizes[qi]
            assert stats[qi].entries_filtered == slots.size - kept.size
            expected = kept[np.argsort(dists[qi, kept], kind="stable")]
            block = selection.take(slice(bounds[qi], bounds[qi + 1]))
            assert block.eadrs.tolist() == expected.tolist()
            assert block.dists.tolist() == dists[qi, expected].tolist()
            assert block.metas.tolist() == slot_tags[expected].tolist()
            assert np.array_equal(block.embs, slot_codes[expected])
            # A fresh deploy links every slot to its own INT8/document twin.
            assert block.radrs.tolist() == block.dadrs.tolist() == expected.tolist()


class TestPassFailChecker:
    """The pass/fail comparator of the scan kernel against a host mirror:
    an entry survives exactly when its distance is strictly below the
    threshold, and survivors keep slot order among equal distances."""

    N, DIM = 500, 64

    @pytest.fixture(scope="class")
    def scan(self):
        from repro.core.batch import tasks_from_ranges
        from repro.core.plan import search_stats
        from repro.core.registry import TemporalTopList
        from repro.rag.embeddings import make_clustered_embeddings, make_queries

        vectors, _ = make_clustered_embeddings(self.N, self.DIM, 4, seed="pf")
        device = ReisDevice(tiny_config("PF"))
        db = device.database(device.ivf_deploy("pf", vectors, nlist=4, seed=0))
        slot_codes = db.binary_quantizer.encode(vectors)[db.slot_to_original]
        codes = db.binary_quantizer.encode(make_queries(vectors, 2, seed="pf-q"))
        dists = np.bitwise_count(slot_codes[None] ^ codes[:, None]).sum(axis=2)
        entry_bytes = device.engine.params.fine_entry_bytes(db.code_bytes)

        def run(threshold, firsts, lasts):
            """Survivor slots and distances of query 0, plus its stats."""
            zeros = np.zeros(len(firsts), dtype=np.int64)
            tasks = tasks_from_ranges(
                db.embedding_region, zeros, zeros,
                np.array(firsts), np.array(lasts), threshold, [None, None],
            )
            ttl = TemporalTopList("e", entry_bytes, 2, 1000)
            run = one_run(device, db, 2, codes)
            device.engine.scan_page_run(
                [run], [PhaseLedger("fine", 2, device.engine.geometry)],
                tasks, False, ttl,
            )
            selection, bounds = ttl.select()
            block = selection.take(slice(bounds[0], bounds[1]))
            return block.eadrs.tolist(), block.dists.tolist(), search_stats(run.counts)[0]

        return run, dists[0]

    def test_keeps_strictly_below_threshold(self, scan):
        run, dists = scan
        threshold = int(np.median(dists))
        slots, kept_dists, stats = run(threshold, [0], [self.N - 1])
        expected = np.flatnonzero(dists < threshold)
        assert sorted(slots) == expected.tolist()
        assert max(kept_dists) < threshold
        assert stats.entries_filtered == self.N - expected.size

    def test_threshold_is_exclusive(self, scan):
        run, dists = scan
        slot = 37
        at, _, _ = run(int(dists[slot]), [slot], [slot])
        above, _, _ = run(int(dists[slot]) + 1, [slot], [slot])
        assert at == [] and above == [slot]

    def test_empty_input(self, scan):
        run, _ = scan
        slots, _, stats = run(int(8 * self.DIM), [10], [9])
        assert slots == []
        assert stats.entries_scanned == stats.entries_transferred == 0

    @given(st.integers(0, 64), st.integers(0, 499), st.integers(0, 499))
    @settings(max_examples=15, deadline=None)
    def test_filter_is_order_preserving_subset(self, scan, threshold, a, b):
        run, dists = scan
        first, last = min(a, b), max(a, b)
        slots, kept_dists, stats = run(threshold, [first], [last])
        window = np.arange(first, last + 1)
        kept = window[dists[window] < threshold]
        # Nearest first; equal distances in slot order.
        assert slots == kept[np.argsort(dists[kept], kind="stable")].tolist()
        assert kept_dists == dists[slots].tolist()
        assert stats.entries_transferred == kept.size


class TestPhaseKernelAgainstLatchWalk:
    """``scan_page_run`` == a pure-Python walk of the schedule, one request
    at a time, over each plane's latch: the distances every query receives,
    the commands every die sees, the NAND counters, and the state each
    plane's page buffer is left in."""

    N = 2600  # 276 slots/page: 10 pages on 8 planes, 116 slots in the last

    @staticmethod
    def _walk(device, db, rows, codes, threshold, optimize, cached):
        """Serve ``rows`` = (query, page, lo, hi) demands page by page."""
        geometry = device.engine.geometry
        region = db.embedding_region
        spp, cb = region.slots_per_page, db.code_bytes
        order = list(range(len(rows)))
        if optimize:  # stably by page, pages in first-demand order
            first = {}
            for _q, page, _lo, _hi in rows:
                first.setdefault(page, len(first))
            order.sort(key=lambda t: first[rows[t][1]])
        trace = {}  # (die, op) -> count
        counters = dict.fromkeys(
            ("page_reads", "page_reads_slc_esp", "latch_xors", "bit_counts"), 0
        )
        extractions = [0] * geometry.total_planes
        latched = {}  # plane -> (page offset, data, oob)
        survivors = {}  # task -> [(eadr, dist)] in slot order

        def tick(die, op, n=1):
            trace[die, op] = trace.get((die, op), 0) + n

        for t in order:
            query, page, lo, hi = rows[t]
            ppa = region.region.translate(page, geometry)
            plane = ppa.plane_linear(geometry)
            die = plane // geometry.planes_per_die
            data, oob = device.ssd.array.pages.view(plane, ppa.block, ppa.page)
            on_nand = page not in cached
            if on_nand:
                if plane not in latched or latched[plane][0] != page:
                    tick(die, "read_page")
                    counters["page_reads"] += 1
                    counters["page_reads_slc_esp"] += 1
                    latched[plane] = (page, data, oob)
                tick(die, "xor")
                tick(die, "gen_dist")
                counters["latch_xors"] += 1
                counters["bit_counts"] += 1
                extractions[plane] += 1
            window = range(max(lo, 0), min(hi, spp - 1, region.n_slots - page * spp - 1) + 1)
            want = int.from_bytes(codes[query].tobytes(), "little")
            kept = []
            for slot in window:
                have = int.from_bytes(data[slot * cb:(slot + 1) * cb].tobytes(), "little")
                dist = bin(have ^ want).count("1")
                if threshold is None or dist < threshold:
                    kept.append((page * spp + slot, dist))
            if on_nand:
                if threshold is not None and len(window):
                    tick(die, "pass_fail")
                tick(die, "rd_ttl", len(kept))
            survivors[t] = kept
        return trace, counters, extractions, latched, survivors

    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("dim", [64, 40])  # 8-byte and 5-byte codes
    @pytest.mark.parametrize("partly_cached", [False, True])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_distances_commands_counters_and_latches(
        self, optimize, partly_cached, dim, filtered
    ):
        from repro.core.batch import tasks_from_ranges
        from repro.core.commands import FlashOp
        from repro.core.registry import TemporalTopList
        from repro.rag.embeddings import make_clustered_embeddings, make_queries

        vectors, _ = make_clustered_embeddings(self.N, dim, 4, seed="lw")
        device = ReisDevice(
            tiny_config("LW"), flags=OptFlags(schedule_optimization=optimize)
        )
        db = device.database(device.ivf_deploy("lw", vectors, nlist=4, seed=0))
        region = db.embedding_region
        spp = region.slots_per_page
        assert db.code_bytes == dim // 8 and region.n_pages == 10
        assert 0 < region.n_slots - 9 * spp < spp
        codes = db.binary_quantizer.encode(make_queries(vectors, 3, seed="lw-q"))
        threshold = 4 * db.code_bytes if filtered else None

        # Pages 0 and 8 share a plane, as do 1 and 9; queries 0 and 2 sweep
        # the region, query 1 takes two windows that start and end mid-page.
        ranges = [
            (0, 0, self.N - 1), (1, 100, 700), (1, 8 * spp + 40, self.N - 1),
            (2, 0, self.N - 1),
        ]
        tasks = tasks_from_ranges(
            region, np.zeros(len(ranges), dtype=np.int64),
            *(np.array(column) for column in zip(*ranges)), threshold, [None] * 3,
        )
        rows = list(zip(*(
            column.tolist()
            for column in (tasks.queries, tasks.pages, tasks.lo, tasks.hi)
        )))
        cached = set()
        if partly_cached:
            # Page 3 is its plane's only page; page 8 sits between the two
            # sweeps' visits to page 0 on their shared plane.
            cache = device.enable_page_cache(2 * (16384 + 2208))
            cached = {3, 8}
            for page in sorted(cached):
                ppa = region.region.translate(page, device.engine.geometry)
                data, oob = stored_page(device.ssd.array, ppa)
                cache.admit_pages(
                    region, np.array([page]), "cluster", data[None], oob[None]
                )
        latches = device.ssd.array.latches
        before = list(zip(latches.sensing.copy(), latches.oob.copy()))
        counters_before = device.ssd.counters.as_dict()
        trace, counters, extractions, latched, survivors = self._walk(
            device, db, rows, codes, threshold, optimize, cached
        )

        entry_bytes = device.engine.params.fine_entry_bytes(db.code_bytes)
        ttl = TemporalTopList("e", entry_bytes, len(codes), 10**6)
        device.engine.scan_page_run(
            [one_run(device, db, len(codes), codes)],
            [PhaseLedger("fine", len(codes), device.engine.geometry)],
            tasks, False, ttl,
        )

        # Every query received its in-window survivors, nearest first with
        # ties in its own scan order (= task order), at the walk's distances.
        selection, bounds = ttl.select()
        for qi in range(len(codes)):
            arrived = [
                row for t, task in enumerate(rows) if task[0] == qi
                for row in survivors[t]
            ]
            expected = sorted(arrived, key=lambda row: row[1])
            block = selection.take(slice(bounds[qi], bounds[qi + 1]))
            got = list(zip(block.eadrs.tolist(), block.dists.tolist()))
            assert got == expected and len(expected) > 0
        # The commands each die saw.
        for die, die_trace in device.engine._die_interfaces.items():
            for op in FlashOp:
                assert die_trace[op] == trace.get((die, op.value), 0), (die, op)
        # The NAND counters.
        after = device.ssd.counters.as_dict()
        for name, expected in counters.items():
            assert after.get(name, 0) - counters_before.get(name, 0) == expected, name
        # Each plane: one fail-bit-counter invocation per extraction, and
        # the page buffer holds the last page the plane sensed, zero-padded
        # -- or what it held before, where the mirror served every request.
        for index in range(len(before)):
            assert latches.invocations[index] == extractions[index]
            sensing, oob = before[index]
            if index in latched:
                _page, data, page_oob = latched[index]
                sensing = np.zeros_like(sensing)
                sensing[: data.size] = data
                oob = np.zeros_like(oob)
                oob[: page_oob.size] = page_oob
            assert np.array_equal(latches.sensing[index], sensing)
            assert np.array_equal(latches.oob[index], oob)
        if partly_cached:
            assert sorted(latched) != list(range(len(before)))  # page 3's plane


class TestScanNeedsEccFreeData:
    """In-plane distances are only defined on raw-BER-0 data (Sec. 4.1.2):
    a scan of a region in a noisy cell mode is refused by name, never
    served from bytes the ECC engine has not seen."""

    def test_noisy_mode_region_is_refused(self, small_vectors, small_queries):
        from dataclasses import replace

        from repro.nand.cell import CellMode

        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("NOISY"))
        db_id = device.ivf_deploy("noisy", vectors, nlist=SMALL_NLIST, seed=0)
        db = device.database(db_id)
        device.ivf_search(db_id, small_queries[0][None], k=5, nprobe=2)  # ESP-SLC: fine
        db.embedding_region = replace(db.embedding_region, mode=CellMode.TLC)
        with pytest.raises(ValueError, match=r"noisy/embeddings.*'tlc'.*ECC-free"):
            device.ivf_search(db_id, small_queries[0][None], k=5, nprobe=2)


class TestEngineBehaviour:
    def test_documents_match_returned_ids(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [result] = device.ivf_search(db_id, small_queries[0][None], k=5)
        assert len(result.documents) == 5
        for rank, doc in enumerate(result.documents):
            assert doc.chunk_id == int(result.ids[rank])

    def test_distances_sorted(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [result] = device.ivf_search(db_id, small_queries[1][None], k=10, nprobe=4)
        assert (np.diff(result.distances) >= 0).all()

    def test_k_larger_than_matches(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [result] = device.ivf_search(db_id, small_queries[0][None], k=10, nprobe=1)
        assert 0 < result.k <= 10

    def test_invalid_inputs_rejected(self, deployed_device, small_queries):
        device, db_id = deployed_device
        with pytest.raises(ValueError):
            device.ivf_search(db_id, small_queries[0][None], k=0)
        with pytest.raises(ValueError):
            device.ivf_search(db_id, small_queries[0][None, :-8], k=5)
        with pytest.raises(ValueError):
            device.ivf_search(db_id, small_queries[0][None], k=5, metadata_filter=3)

    def test_stats_accounting(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [result] = device.ivf_search(db_id, small_queries[2][None], k=10, nprobe=3)
        stats = result.stats
        assert stats.clusters_probed == 3
        assert stats.candidates > 0
        assert stats.entries_scanned >= stats.candidates
        assert stats.entries_transferred + stats.entries_filtered >= stats.candidates
        assert stats.pages_read > 0
        assert 0 < stats.filter_pass_fraction <= 1.0

    def test_latency_report_has_all_phases(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [result] = device.ivf_search(db_id, small_queries[0][None], k=5, nprobe=2)
        components = result.latency.components
        for name in ("ibc", "coarse_read", "fine_read", "rerank_read", "documents_read"):
            assert name in components
        assert result.latency.total_s > 0

    def test_more_probes_cost_more_time(self, deployed_device, small_queries):
        device, db_id = deployed_device
        [cheap] = device.ivf_search(db_id, small_queries[3][None], k=5, nprobe=1)
        [costly] = device.ivf_search(
            db_id, small_queries[3][None], k=5, nprobe=SMALL_NLIST
        )
        assert costly.latency.total_s > cheap.latency.total_s
        assert costly.stats.pages_read > cheap.stats.pages_read

    def test_skip_document_fetch(self, deployed_device, small_queries):
        device, db_id = deployed_device
        result = device.ivf_search(
            db_id, small_queries[0][None], k=5, nprobe=2, fetch_documents=False
        ).results[0]
        assert result.documents == []
        assert "documents_read" not in result.latency.components


class TestDistanceFiltering:
    def test_df_preserves_recall(self, small_vectors, small_corpus, small_queries, small_ground_truth):
        vectors, _ = small_vectors
        results = {}
        for df in (True, False):
            device = ReisDevice(
                tiny_config(f"DF-{df}"),
                flags=OptFlags(distance_filtering=df),
            )
            db_id = device.ivf_deploy("t", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0)
            batch = device.ivf_search(db_id, small_queries, k=10, nprobe=4)
            results[df] = mean_recall_at_k(batch.ids, small_ground_truth, 10)
        assert results[True] == pytest.approx(results[False], abs=0.02)

    def test_df_reduces_transferred_entries(self, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        transferred = {}
        for df in (True, False):
            device = ReisDevice(
                tiny_config(f"DFT-{df}"),
                flags=OptFlags(distance_filtering=df),
            )
            db_id = device.ivf_deploy("t", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0)
            batch = device.ivf_search(db_id, small_queries, k=10, nprobe=SMALL_NLIST)
            transferred[df] = sum(r.stats.entries_transferred for r in batch)
        assert transferred[True] < transferred[False]

    def test_no_threshold_never_retries(self, deployed_device):
        device, _ = deployed_device
        assert device.engine.fine_retries([0, 0], [50, 50], None, 400) == []

    def test_retry_when_survivors_fall_short_of_k(self, deployed_device):
        """A query retries when fewer than ``min(k, candidates)`` entries
        survived, ``k`` being the shortlist over the shortlist factor."""
        device, _ = deployed_device
        factor = device.engine.params.shortlist_factor
        shortlist = 10 * factor  # k = 10
        survivors = [9, 10, 3, 3, 0]
        candidates = [500, 500, 3, 4, 0]
        retries = device.engine.fine_retries(survivors, candidates, 7, shortlist)
        assert retries == [0, 3]

    def test_retry_counter_rare(self, deployed_device, small_queries):
        device, db_id = deployed_device
        retries = sum(
            result.stats.filter_retries
            for q in small_queries
            for result in device.ivf_search(db_id, q[None], k=10, nprobe=2)
        )
        assert retries <= len(small_queries) // 4

    def test_overaggressive_threshold_triggers_retry(
        self, small_vectors, small_corpus, small_queries
    ):
        """A threshold that filters everything forces the unfiltered rescan
        (Sec. 4.3.3): correctness never depends on the calibrated filter."""
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("DF-RETRY"))
        db_id = device.ivf_deploy(
            "r", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0
        )
        db = device.database(db_id)
        calibrated = db.filter_threshold
        db.filter_threshold = 1  # nothing is within 1 bit of the query

        [filtered] = device.ivf_search(db_id, small_queries[0][None], k=10, nprobe=3)
        assert filtered.stats.filter_retries == 1
        assert filtered.k == 10

        # The retry rescans every probed page, so reads roughly double.
        db.filter_threshold = calibrated
        [clean] = device.ivf_search(db_id, small_queries[0][None], k=10, nprobe=3)
        assert clean.stats.filter_retries == 0
        assert filtered.stats.pages_read > clean.stats.pages_read

        # And the rescued results equal the unfiltered reference.
        no_df = ReisDevice(tiny_config("DF-RETRY-REF"), flags=OptFlags(distance_filtering=False))
        ref_id = no_df.ivf_deploy(
            "r", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0
        )
        reference = no_df.ivf_search(
            ref_id, small_queries[0][None], k=10, nprobe=3
        ).results[0]
        assert np.array_equal(filtered.ids, reference.ids)
        assert np.array_equal(filtered.distances, reference.distances)

    def test_retry_survives_batched_serving(
        self, small_vectors, small_corpus, small_queries
    ):
        """The retry path composes with the batch executor: per-query stats
        keep the retry count and the batch still amortizes senses."""
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("DF-RETRY-BATCH"))
        db_id = device.ivf_deploy(
            "rb", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0
        )
        device.database(db_id).filter_threshold = 1
        batch = device.ivf_search(db_id, small_queries[:4], k=10, nprobe=3)
        assert all(r.stats.filter_retries == 1 for r in batch)
        assert batch.wall_seconds < batch.total_seconds


class TestNoHardwareModificationConstraint:
    def test_engine_uses_only_commodity_die_commands(self, deployed_device, small_queries):
        """Every flash-level operation must be one of the Table-2 commands
        plus the standard page read -- no MAC units anywhere."""
        from repro.core.commands import FlashOp

        device, db_id = deployed_device
        device.ivf_search(db_id, small_queries[0][None], k=5, nprobe=2)
        seen = set()
        for die_trace in device.engine._die_interfaces.values():
            seen.update(die_trace.counts)
        allowed = {
            FlashOp.READ_PAGE,
            FlashOp.IBC,
            FlashOp.XOR,
            FlashOp.GEN_DIST,
            FlashOp.PASS_FAIL,
            FlashOp.RD_TTL,
        }
        assert seen <= allowed
        assert FlashOp.XOR in seen
        assert FlashOp.GEN_DIST in seen


class TestOptimizationFlags:
    def _qps(self, flags, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config(flags.label()), flags=flags)
        db_id = device.ivf_deploy("t", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0)
        batch = device.ivf_search(db_id, small_queries[:6], k=10, nprobe=4)
        return batch.qps

    def test_each_optimization_helps_or_is_neutral(
        self, small_vectors, small_corpus, small_queries
    ):
        steps = [
            NO_OPT,
            OptFlags(True, False, False),
            OptFlags(True, True, False),
            OptFlags(True, True, True),
        ]
        qps = [self._qps(f, small_vectors, small_corpus, small_queries) for f in steps]
        for slower, faster in zip(qps, qps[1:]):
            # "Neutral" allows a small modeled loss: at 600 entries the
            # distance filter's fixed pass/fail + RD_TTL overhead is not
            # repaid (the shortlist is capped by the candidate count either
            # way), a ~1% effect once the packed document region shrank the
            # TLC phases it used to hide behind.  At paper scale DF always
            # pays (see the analytic ablation tests).
            assert faster >= slower * 0.97

    def test_flag_labels(self):
        assert NO_OPT.label() == "NO-OPT"
        assert OptFlags(True, True, True).label() == "DF+PL+MPIBC"
        assert OptFlags(True, False, False).label() == "DF"


class TestMetadataFiltering:
    def test_only_tagged_results_returned(self, small_vectors, small_corpus, small_queries):
        vectors, labels = small_vectors
        tags = (labels % 3).astype(np.uint32)
        device = ReisDevice(tiny_config("META"))
        db_id = device.ivf_deploy(
            "meta", vectors, nlist=SMALL_NLIST, corpus=small_corpus,
            metadata_tags=tags, seed=0,
        )
        batch = device.ivf_search(
            db_id, small_queries[:4], k=5, nprobe=SMALL_NLIST, metadata_filter=1
        )
        for result in batch:
            for original in result.ids:
                assert tags[int(original)] == 1

    def test_filtered_entries_never_cross_channel(self, small_vectors, small_corpus, small_queries):
        vectors, labels = small_vectors
        tags = (labels % 2).astype(np.uint32)
        device = ReisDevice(tiny_config("META2"), flags=NO_OPT)
        db_id = device.ivf_deploy(
            "meta", vectors, nlist=SMALL_NLIST, corpus=small_corpus,
            metadata_tags=tags, seed=0,
        )
        plain = device.ivf_search(db_id, small_queries[:2], k=5, nprobe=SMALL_NLIST)
        tagged = device.ivf_search(
            db_id, small_queries[:2], k=5, nprobe=SMALL_NLIST, metadata_filter=0
        )
        assert sum(r.stats.entries_transferred for r in tagged) < sum(
            r.stats.entries_transferred for r in plain
        )


# --------------------------------------------------------------------------
# Batched selection: one table per phase against one table per query.


def _reference_select_cluster_block(engine, ttl_c, cost):
    """A query's coarse selection from its own one-query table."""
    cost.core_seconds += engine.ssd.cores.reis_core.quickselect(
        int(ttl_c.sizes[0]), ttl_c.ks[0]
    )
    return ttl_c.select()[0]


def _reference_resolve_cluster_block(db, block):
    cluster_ids = block.eadrs
    mismatch = db.r_ivf.tags[cluster_ids] != block.tags
    if np.any(mismatch):
        bad = int(cluster_ids[np.argmax(mismatch)])
        raise RuntimeError(f"cluster tag mismatch for centroid {bad}")
    return cluster_ids


def _reference_select_shortlist(engine, ttl_e, cost):
    core = engine.ssd.cores.reis_core
    cost.core_seconds += core.quickselect(int(ttl_e.sizes[0]), ttl_e.ks[0])
    return ttl_e.select()[0]


class TestBatchedSelectAgainstPerTtl:
    """Ties-heavy TTLs (distances in 0..2): the selection of one table over
    a phase's queries == each query's own table, rows, charges and core
    clock."""

    N_QUERIES = 7

    def _blocks(self, db, seed, coarse, corrupt_tag=False):
        from repro.core.registry import TtlBlock

        rng = np.random.default_rng(seed)
        blocks = []
        for qi in range(self.N_QUERIES):
            pool = SMALL_NLIST if coarse else SMALL_N
            n = min(int(rng.integers(0, 30)), pool) if qi else 0  # one empty TTL
            rows = rng.permutation(pool)[:n]
            block = TtlBlock(
                dists=rng.integers(0, 3, n),
                embs=rng.integers(0, 255, (n, db.code_bytes), dtype=np.uint8),
                eadrs=rows,
                tags=db.r_ivf.tags[rows] if coarse else None,
                radrs=None if coarse else rows,
                dadrs=None if coarse else rows[::-1].copy(),
            )
            if corrupt_tag and n:
                block.tags[0] ^= 1
            blocks.append(block)
        return blocks

    @staticmethod
    def _table(blocks, k):
        """One table over ``blocks`` (query ``i``'s rows are ``blocks[i]``),
        each query's rows streamed as two page visits."""
        from repro.core.registry import TemporalTopList, TtlBlock
        from tests.conftest import BlockRows, stream_visits

        ttl = TemporalTopList("t", 4, len(blocks), k)
        visits = []
        for qi, block in enumerate(blocks):
            dists, half = block.dists.tolist(), len(block) // 2
            visits += [(qi, dists[:half]), (qi, dists[half:])]
        stream_visits(ttl, BlockRows(TtlBlock.concatenate(blocks)), visits)
        return ttl

    @staticmethod
    def _columns(block):
        return [
            getattr(block, name).tolist()
            for name in ("dists", "embs", "eadrs", "tags", "radrs", "dadrs", "metas")
        ]

    @pytest.mark.parametrize("k", [1, 4, 9])
    @pytest.mark.parametrize("coarse", [True, False])
    def test_stacked_selection_equals_per_ttl(self, deployed_device, coarse, k):
        from tests.cost_reference import PhaseCost

        device, db_id = deployed_device
        db, engine = device.database(db_id), device.engine
        core = engine.ssd.cores.reis_core
        blocks = self._blocks(db, k, coarse)

        # Both halves charge the core from the same starting clock, so the
        # accumulated floats must match to the bit.
        start = core.busy_seconds
        expected, expected_costs = [], []
        for block in blocks:
            ttl = self._table([block], k)
            cost = PhaseCost(name="phase")
            if coarse:
                selected = _reference_select_cluster_block(engine, ttl, cost)
                clusters = _reference_resolve_cluster_block(db, selected)
                assert len(clusters) == len(selected)
            else:
                selected = _reference_select_shortlist(engine, ttl, cost)
            expected.append(self._columns(selected))
            expected_costs.append(cost.core_seconds)
        reference_busy, core.busy_seconds = core.busy_seconds, start

        ledger = PhaseLedger("phase", self.N_QUERIES, engine.geometry)
        ttl = self._table(blocks, k)
        run = one_run(device, db, self.N_QUERIES)
        if coarse:
            block, bounds = engine.select_clusters([run], [ledger], ttl)
        else:
            block, bounds = engine.select_nearest([run], [ledger], ttl)
        assert core.busy_seconds == reference_busy
        assert ledger.core_seconds.tolist() == expected_costs
        assert [
            self._columns(block.take(slice(lo, hi))) for lo, hi in zip(bounds[:-1], bounds[1:])
        ] == expected

    def test_tag_mismatch_is_caught_in_the_stacked_form(self, deployed_device):
        device, db_id = deployed_device
        db, engine = device.database(db_id), device.engine
        ttl = self._table(
            self._blocks(db, 3, coarse=True, corrupt_tag=True), SMALL_NLIST
        )
        with pytest.raises(RuntimeError, match="cluster tag mismatch"):
            engine.select_clusters(
                [one_run(device, db, self.N_QUERIES)],
                [PhaseLedger("coarse", self.N_QUERIES, engine.geometry)], ttl,
            )
