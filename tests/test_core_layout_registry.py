"""Unit tests for the REIS database layout, R-DB/R-IVF and the TTLs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EngineParams, tiny_config
from repro.core.layout import CapacityError, DatabaseDeployer
from repro.core.registry import (
    RDb,
    RDbEntry,
    RIvf,
    RIvfEntry,
    TemporalTopList,
    TombstoneRegistry,
    TtlBlock,
    R_IVF_ENTRY_BYTES,
)
from repro.nand.cell import CellMode
from repro.ssd.coarse import COARSE_ENTRY_BYTES, CoarseRegion
from repro.ssd.dram import InternalDram

from tests.conftest import BlockRows, stream_visits


class TestRDb:
    def _entry(self, db_id=0):
        return RDbEntry(
            db_id=db_id,
            embedding_region=CoarseRegion(0, 4),
            document_region=CoarseRegion(4, 8),
            n_entries=100,
        )

    def test_register_and_lookup(self):
        rdb = RDb()
        rdb.register(self._entry())
        assert rdb.lookup(0).n_entries == 100
        assert 0 in rdb
        assert len(rdb) == 1

    def test_duplicate_id_rejected(self):
        rdb = RDb()
        rdb.register(self._entry())
        with pytest.raises(ValueError):
            rdb.register(self._entry())

    def test_drop(self):
        rdb = RDb()
        rdb.register(self._entry())
        rdb.drop(0)
        assert 0 not in rdb
        with pytest.raises(KeyError):
            rdb.lookup(0)

    def test_footprint_is_21_bytes_per_database(self):
        rdb = RDb()
        rdb.register(self._entry(0))
        rdb.register(self._entry(1))
        assert rdb.footprint_bytes == 2 * COARSE_ENTRY_BYTES


class TestRDbDramResync:
    """register->drop->register cycles must not leak controller DRAM."""

    def _entry(self, db_id):
        return RDbEntry(
            db_id=db_id,
            embedding_region=CoarseRegion(0, 4),
            document_region=CoarseRegion(4, 8),
            n_entries=100,
        )

    def test_footprint_resyncs_over_register_drop_cycles(self):
        dram = InternalDram(10_000)
        rdb = RDb(dram=dram)
        for _ in range(3):
            rdb.register(self._entry(7))
            assert rdb.footprint_bytes == COARSE_ENTRY_BYTES
            assert dram.region_size("r-db") == COARSE_ENTRY_BYTES
            rdb.drop(7)
            assert rdb.footprint_bytes == 0
            assert dram.region_size("r-db") == 0
        assert dram.allocated_bytes == 0

    def test_drop_frees_per_database_dram_structures(self):
        dram = InternalDram(10_000)
        rdb = RDb(dram=dram)
        rdb.register(self._entry(3))
        RIvf(
            [RIvfEntry(centroid_addr=0, first_embedding=0, last_embedding=4, tag=0)],
            dram=dram,
            db_id=3,
        )
        tombstones = TombstoneRegistry(3, dram=dram)
        tombstones.track_capacity(100)
        assert dram.region_size("r-ivf-3") == R_IVF_ENTRY_BYTES
        assert dram.region_size("tombstones-3") == (100 + 7) // 8
        rdb.drop(3)
        assert dram.region_size("r-ivf-3") == 0
        assert dram.region_size("tombstones-3") == 0
        assert dram.allocated_bytes == 0
        # The slate is clean: a re-register allocates exactly one record.
        rdb.register(self._entry(3))
        assert dram.allocated_bytes == COARSE_ENTRY_BYTES


class TestTombstoneRegistry:
    # Liveness itself is the MutableIndex ``live`` column
    # (tests/test_core_ingest.py::TestMutableIndex); the registry books it.
    def test_footprint_is_one_bit_per_slot(self):
        dram = InternalDram(10_000)
        tombstones = TombstoneRegistry(1, dram=dram)
        tombstones.track_capacity(9)
        assert tombstones.footprint_bytes == 2  # ceil(9 / 8)
        assert dram.region_size("tombstones-1") == 2
        tombstones.release()
        assert dram.region_size("tombstones-1") == 0


class TestRIvf:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            RIvfEntry(centroid_addr=0, first_embedding=0, last_embedding=0, tag=300)
        with pytest.raises(ValueError):
            RIvfEntry(centroid_addr=0, first_embedding=5, last_embedding=2, tag=0)

    def test_empty_cluster_allowed(self):
        entry = RIvfEntry(centroid_addr=0, first_embedding=3, last_embedding=2, tag=0)
        assert entry.size == 0

    def test_footprint_is_15_bytes_per_cluster(self):
        entries = [
            RIvfEntry(centroid_addr=i, first_embedding=i, last_embedding=i, tag=i)
            for i in range(5)
        ]
        assert RIvf(entries).footprint_bytes == 5 * R_IVF_ENTRY_BYTES
        assert R_IVF_ENTRY_BYTES == 15  # the paper's stated entry size

    def test_tag_aliasing_for_large_nlist(self):
        # Tags are 8-bit; clusters 0 and 256 share tag 0.
        entries = [
            RIvfEntry(centroid_addr=i, first_embedding=i, last_embedding=i, tag=i & 0xFF)
            for i in range(300)
        ]
        rivf = RIvf(entries)
        assert rivf.clusters_with_tag(0) == [0, 256]
        assert rivf.clusters_with_tag(44) == [44]


def _rows_block(rows):
    """A block of ``(dist, id)`` rows; ``eadrs`` carries the id."""
    return TtlBlock(
        dists=np.array([d for d, _ in rows], dtype=np.int64),
        embs=np.zeros((len(rows), 2), dtype=np.uint8),
        eadrs=np.array([i for _, i in rows], dtype=np.int64),
    )


def _feed(ttl, visits):
    """Stream ``[(query, [(dist, id), ...]), ...]`` page visits as one kernel
    call with its own row source; returns the compactions."""
    rows = [row for _, page in visits for row in page]
    return stream_visits(
        ttl, BlockRows(_rows_block(rows)),
        [(q, [d for d, _ in page]) for q, page in visits],
    )


def _selected(ttl):
    """Each query's selection as ``(dist, id)`` rows, and the bounds."""
    block, bounds = ttl.select()
    rows = list(zip(block.dists.tolist(), block.eadrs.tolist()))
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], bounds


class TestTemporalTopList:
    @staticmethod
    def _table(dists_by_query, k, dram=None):
        """One page visit per query that has rows, as one kernel call."""
        ttl = TemporalTopList("t", 10, len(dists_by_query), k, [dram])
        pages = [[dists] if dists else [] for dists in dists_by_query]
        return ttl, _feed(ttl, _number([pages])[0])

    def test_select_k_nearest(self):
        ttl, compactions = self._table([[5, 1, 9, 3]], k=2)
        assert compactions == []
        assert _selected(ttl)[0] == [[(1, 1), (3, 3)]]

    def test_select_more_than_present(self):
        ttl, _ = self._table([[1]], k=10)
        selected, bounds = _selected(ttl)
        assert selected == [[(1, 0)]] and bounds.tolist() == [0, 1]

    def test_compaction_above_2k_reports_processed(self):
        ttl, compactions = self._table([list(range(10))], k=3)
        assert compactions == [(0, 10)]
        assert ttl.sizes.tolist() == [3]
        assert [d for d, _ in _selected(ttl)[0][0]] == [0, 1, 2]

    def test_at_most_2k_does_not_compact(self):
        ttl, compactions = self._table([[1], [4, 3, 2, 1]], k=2)
        assert compactions == []
        assert ttl.sizes.tolist() == [1, 4]

    def test_peaks_size_the_dram_arena_which_only_grows(self):
        dram = InternalDram(10_000)
        ttl, _ = self._table([list(range(8)), [1, 2]], k=2, dram=dram)
        assert ttl.peaks.tolist() == [8, 2]
        assert dram.region_size("ttl-t") == 80
        self._table([[1, 2, 3]], k=2, dram=dram)
        assert dram.region_size("ttl-t") == 80

    def test_restart_drops_rows_and_sizes_keeps_peaks(self):
        ttl, _ = self._table([[4, 5], [2, 1]], k=2)
        ttl.restart([0])
        assert ttl.sizes.tolist() == [0, 2] and ttl.peaks.tolist() == [2, 2]
        selected, bounds = _selected(ttl)
        assert selected == [[], [(1, 3), (2, 2)]] and bounds.tolist() == [0, 0, 2]

    def test_empty_table_selects_nothing(self):
        block, bounds = TemporalTopList("t", 10, 3, 4).select()
        assert len(block) == 0 and bounds.tolist() == [0, 0, 0, 0]


class TestSelectSortKey:
    """``select`` sorts one packed ``(query, dist)`` key; its order must be
    ``np.lexsort((dist, query))``'s -- query, distance, then arrival --
    whether the key fits the 16-bit radix sort or not."""

    @staticmethod
    def _lexsort_selection(query_rows, k):
        """Reference: every row's ``(dist, id)``, one lexsort, k per query."""
        rows = [(q, d, i) for q, (d, i) in query_rows]
        query = np.array([q for q, _, _ in rows], dtype=np.int64)
        dist = np.array([d for _, d, _ in rows], dtype=np.int64)
        order = np.lexsort((dist, query)).tolist()
        picked = [[] for _ in range(int(query.max()) + 1)]
        for r in order:
            q, d, i = rows[r]
            if len(picked[q]) < k:
                picked[q].append((d, i))
        return picked

    @given(
        st.lists(st.lists(st.integers(0, 3), max_size=12), min_size=1, max_size=5),
        st.sampled_from([0, 70_000]),
        st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort_under_ties(self, dists_by_query, offset, k):
        # Distances in {0..3} tie heavily; the offset pushes the key past 16
        # bits (70,003 * n_queries) without breaking a single tie.
        dists_by_query = [[offset + d for d in dists] for dists in dists_by_query]
        ttl = TemporalTopList("t", 10, len(dists_by_query), k)
        visits = _number([[[dists] if dists else [] for dists in dists_by_query]])[0]
        _feed(ttl, visits)
        selected, _bounds = _selected(ttl)
        query_rows = [(q, row) for q, page in visits for row in page]
        if not query_rows:
            assert selected == [[] for _ in dists_by_query]
            return
        expected = self._lexsort_selection(query_rows, k)
        expected += [[]] * (len(dists_by_query) - len(expected))
        assert selected == expected


def _streaming_ttl(visits, k):
    """Pure-Python reference: a TTL that really trims above 2k.

    ``visits`` are page visits, each a list of ``(dist, arrival)`` rows.
    After every visit that leaves more than ``2 * k`` rows, compaction
    sorts them (a total order) and keeps the k nearest, still in arrival
    order.  Returns the entries every compaction processed, the final
    length, the peak, and the final selection of k.
    """
    rows, processed, peak = [], [], 0
    for page in visits:
        rows += page
        peak = max(peak, len(rows))
        if len(rows) > 2 * k:
            processed.append(len(rows))
            rows = sorted(sorted(rows)[:k], key=lambda row: row[1])
    return processed, len(rows), peak, sorted(rows)[:k]


def _number(calls):
    """Give ``calls`` (per call, per query: page visits as distance lists)
    global row ids in arrival order: ``[(query, [(dist, id), ...]), ...]``
    per call, query-major."""
    numbered, next_id = [], 0
    for call in calls:
        visits = []
        for q, pages in enumerate(call):
            for page in pages:
                visits.append((q, [(d, next_id + i) for i, d in enumerate(page)]))
                next_id += len(page)
        numbered.append(visits)
    return numbered


def _pages_of(visits, q):
    return [page for owner, page in visits if owner == q]


# Per query: its page visits, ties-heavy; a query may have none.
_QUERY_VISITS = st.lists(
    st.lists(st.lists(st.integers(0, 3), max_size=8), max_size=6),
    min_size=1, max_size=6,
)


class TestTtlTableAgainstStreamingReference:
    """One multi-query table accounts its compactions instead of running
    them; for any stream it must be indistinguishable from per-query TTLs
    that trim for real: compactions, sizes, peaks, arena and selection."""

    @given(_QUERY_VISITS, st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_or_two_sources(self, query_visits, k, data):
        # Each query's visits split between the scan and a second kernel
        # call with its own row source (or all in the scan).
        if data.draw(st.booleans()):
            splits = [data.draw(st.integers(0, len(v))) for v in query_visits]
        else:
            splits = [len(v) for v in query_visits]
        calls = _number([
            [v[:s] for v, s in zip(query_visits, splits)],
            [v[s:] for v, s in zip(query_visits, splits)],
        ])
        dram = InternalDram(10**6)
        ttl = TemporalTopList("t", 4, len(query_visits), k, [dram])
        got = [_feed(ttl, visits) for visits in calls]

        expected_calls, sizes, peaks, selections = [[], []], [], [], []
        for q in range(len(query_visits)):
            head = _pages_of(calls[0], q)
            prefix = _streaming_ttl(head, k)
            processed, size, peak, selected = _streaming_ttl(
                head + _pages_of(calls[1], q), k
            )
            expected_calls[0] += [(q, n) for n in prefix[0]]
            expected_calls[1] += [(q, n) for n in processed[len(prefix[0]):]]
            sizes.append(size)
            peaks.append(peak)
            selections.append(selected)
        assert got == expected_calls
        assert ttl.sizes.tolist() == sizes and ttl.peaks.tolist() == peaks
        assert dram.region_size("ttl-t") == 4 * max(peaks)
        selected, bounds = _selected(ttl)
        assert selected == selections
        assert bounds.tolist() == np.cumsum([0] + [len(s) for s in selections]).tolist()

    @given(_QUERY_VISITS, st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_restart_then_second_source(self, query_visits, k, data):
        """The filter retry: ``restart`` a subset, rescan it as a second
        source.  The reference clears those queries' TTLs and re-streams."""
        n_queries = len(query_visits)
        retried = sorted(data.draw(st.sets(st.integers(0, n_queries - 1))))
        rescans = [
            data.draw(st.lists(st.lists(st.integers(0, 3), max_size=8), max_size=6))
            if q in retried else []
            for q in range(n_queries)
        ]
        scan, rescan = _number([query_visits, rescans])
        ttl = TemporalTopList("t", 4, n_queries, k)
        _feed(ttl, scan)
        ttl.restart(retried)
        got = _feed(ttl, rescan)

        expected, sizes, peaks, selections = [], [], [], []
        for q in range(n_queries):
            first = _streaming_ttl(_pages_of(scan, q), k)
            processed, size, peak, selected = (
                _streaming_ttl(_pages_of(rescan, q), k) if q in retried else first
            )
            if q in retried:
                expected += [(q, n) for n in processed]
            sizes.append(size)
            peaks.append(max(peak, first[2]))
            selections.append(selected)
        assert got == expected
        assert ttl.sizes.tolist() == sizes and ttl.peaks.tolist() == peaks
        assert _selected(ttl)[0] == selections


class TestDatabaseDeployer:
    def _deploy(self, n=200, dim=64, nlist=None, metadata=None):
        from repro.ann.ivf import build_ivf_model
        from repro.sim.rng import make_rng

        config = tiny_config()
        ssd = config.make_ssd()
        deployer = DatabaseDeployer(ssd, config.engine)
        rng = make_rng("deploy-test", n, dim)
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        model = build_ivf_model(vectors, nlist, seed=0) if nlist else None
        db = deployer.deploy(
            1, "t", vectors, ivf_model=model, metadata_tags=metadata
        )
        return ssd, deployer, db, vectors

    def test_regions_do_not_overlap(self):
        _, _, db, _ = self._deploy(nlist=8)
        regions = [
            db.centroid_region.region,
            db.embedding_region.region,
            db.int8_region.region,
            db.document_region.region,
        ]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert (
                    a.end_page_in_plane <= b.start_page_in_plane
                    or b.end_page_in_plane <= a.start_page_in_plane
                )

    def test_embedding_region_is_esp_slc(self):
        ssd, _, db, _ = self._deploy()
        geometry = ssd.spec.geometry
        ppa = db.embedding_region.region.translate(0, geometry)
        assert ssd.array.plane(ppa).block_mode(ppa.block) is CellMode.SLC_ESP

    def test_document_region_is_tlc(self):
        ssd, _, db, _ = self._deploy()
        geometry = ssd.spec.geometry
        ppa = db.document_region.region.translate(0, geometry)
        assert ssd.array.plane(ppa).block_mode(ppa.block) is CellMode.TLC

    def test_embeddings_stored_in_cluster_order(self):
        _, _, db, vectors = self._deploy(nlist=8)
        codes = db.binary_quantizer.encode(vectors)
        geometry = tiny_config().geometry
        # Slot 0 must hold the code of the first vector of cluster 0.
        first_original = int(db.slot_to_original[0])
        region = db.embedding_region
        ppa = region.region.translate(0, geometry)
        # read through the deployer's SSD is done in the engine tests;
        # here we verify the permutation structure instead.
        assert db.original_to_slot[first_original] == 0
        perm = db.slot_to_original
        assert np.array_equal(np.sort(perm), np.arange(vectors.shape[0]))

    def test_rivf_ranges_are_contiguous_partition(self):
        _, _, db, vectors = self._deploy(nlist=8)
        cursor = 0
        for cluster in range(db.n_clusters):
            entry = db.r_ivf[cluster]
            assert entry.first_embedding == cursor
            cursor += entry.size
        assert cursor == vectors.shape[0]

    def test_oob_links_point_to_matching_slots(self):
        ssd, _, db, _ = self._deploy()
        geometry = ssd.spec.geometry
        region = db.embedding_region
        ppa = region.region.translate(0, geometry)
        _, oob = ssd.array.plane(ppa).golden_page(ppa.block, ppa.page)
        record = np.frombuffer(oob[: db.oob_record_bytes].tobytes(), dtype="<u4")
        assert record[0] == 0  # DADR of slot 0
        assert record[1] == 0  # RADR of slot 0

    def test_metadata_tags_deployed_in_oob(self):
        tags = np.arange(200, dtype=np.uint32) % 7
        ssd, _, db, _ = self._deploy(metadata=tags)
        assert db.has_metadata
        assert db.oob_record_bytes == 12
        geometry = ssd.spec.geometry
        ppa = db.embedding_region.region.translate(0, geometry)
        _, oob = ssd.array.plane(ppa).golden_page(ppa.block, ppa.page)
        record = np.frombuffer(oob[:12].tobytes(), dtype="<u4")
        original = int(db.slot_to_original[0])
        assert record[2] == tags[original]

    def test_metadata_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._deploy(metadata=np.zeros(3, dtype=np.uint32))

    def test_dimension_must_be_multiple_of_8(self):
        config = tiny_config()
        deployer = DatabaseDeployer(config.make_ssd(), config.engine)
        with pytest.raises(ValueError):
            deployer.deploy(0, "bad", np.zeros((10, 12), dtype=np.float32))

    def test_capacity_error_on_oversized_database(self):
        config = tiny_config()
        deployer = DatabaseDeployer(config.make_ssd(), config.engine)
        # Packed document slots (64B floor) fit 256 chunks per 16KB page, so
        # overflowing the drive takes far more entries than the unpacked
        # layout did: at 128 entries per total page the embedding and
        # document regions together need more blocks than the planes have.
        n_too_big = config.geometry.total_pages * 128
        with pytest.raises(CapacityError):
            deployer.deploy(
                0, "big", np.zeros((n_too_big, 8), dtype=np.float32)
            )

    def test_registered_in_rdb(self):
        _, deployer, db, _ = self._deploy()
        assert db.db_id in deployer.r_db
        entry = deployer.r_db.lookup(db.db_id)
        assert entry.n_entries == 200

    @pytest.mark.parametrize("n,dim,seed", [(5000, 64, 0), (40, 128, "small")])
    def test_filter_threshold_equals_the_per_query_calibration(self, n, dim, seed):
        """One broadcast XOR + popcount calibrates the threshold the 64
        per-query ``hamming_packed`` calls did (one corpus larger than the
        2,048-code sample, one smaller than the 64-query sample)."""
        from repro.ann.distances import hamming_packed
        from repro.core.layout import fit_deployment_codecs
        from repro.rag.embeddings import make_clustered_embeddings
        from repro.sim.rng import make_rng

        vectors, _ = make_clustered_embeddings(n, dim, 8, seed=("df", n))
        params = EngineParams()
        codecs = fit_deployment_codecs(vectors, params, seed)
        rng = make_rng("df-threshold", seed)
        queries = vectors[rng.integers(0, n, size=min(64, n))]
        sample = codecs.binary.encode(vectors[rng.integers(0, n, size=min(2048, n))])
        distances = np.concatenate(
            [hamming_packed(q, sample) for q in codecs.binary.encode(queries)]
        )
        keep = max(
            params.filter_keep_quantile,
            min(1.0, 1.5 * params.shortlist_factor * 10 / n),
        )
        assert codecs.filter_threshold == max(int(np.quantile(distances, keep)), 1)


class TestEngineParams:
    def test_ttl_entry_sizes(self):
        params = EngineParams()
        # Coarse: DIST(2) + EMB(code) + EADR(4) + TAG(1).
        assert params.coarse_entry_bytes(16) == 2 + 16 + 4 + 1
        # Fine: DIST(2) + EMB(code) + RADR(4) + DADR(4).
        assert params.fine_entry_bytes(16) == 2 + 16 + 8


class TestDeployedPagesGatherBack:
    """The page table is an oracle of the deploy: every page an
    ``ivf_deploy`` programmed gathers back to the bytes ``program_slots``
    handed the array (zero-padded), and a page no region touched gathers
    all-ones."""

    def test_every_programmed_page_gathers_its_written_bytes(self, small_vectors, small_corpus):
        from repro.core.api import ReisDevice

        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("ORACLE"))
        array, g = device.ssd.array, device.config.geometry
        written = []
        program_pages = array.program_pages

        def recording(planes, blocks, pages, data, oob=None):
            for i, address in enumerate(zip(planes, blocks, pages)):
                written.append(
                    (address, data[i].copy(), None if oob is None else oob[i].copy())
                )
            program_pages(planes, blocks, pages, data, oob)

        array.program_pages = recording
        device.ivf_deploy("oracle", vectors, nlist=8, corpus=small_corpus, seed=0)
        del array.program_pages
        db = device.database(0)
        regions = [db.embedding_region, db.centroid_region, db.int8_region, db.document_region]
        assert len(written) == sum(region.n_pages for region in regions)
        planes, blocks, pages = np.array([a for a, _data, _oob in written]).T
        data = np.zeros((len(written), g.page_bytes), dtype=np.uint8)
        oob = np.zeros((len(written), g.oob_bytes), dtype=np.uint8)
        codes = array.gather(planes, blocks, pages, slice(None), data, oob)
        for row, (address, want, want_oob) in enumerate(written):
            assert np.array_equal(data[row, : want.size], want)
            assert not data[row, want.size :].any()
            n_oob = 0 if want_oob is None else want_oob.size
            assert n_oob == 0 or np.array_equal(oob[row, :n_oob], want_oob)
            assert not oob[row, n_oob:].any()
        modes = {CellMode.SLC_ESP.code, CellMode.TLC.code}
        assert set(codes.tolist()) == modes
        # The last block of every plane lies past every region: erased.
        last = g.blocks_per_plane - 1
        assert not array.pages.next_page[:, last].any()
        blank = np.zeros((g.total_planes, g.page_bytes), dtype=np.uint8)
        blank_oob = np.zeros((g.total_planes, g.oob_bytes), dtype=np.uint8)
        array.gather(
            np.arange(g.total_planes), np.full(g.total_planes, last),
            np.zeros(g.total_planes, dtype=np.int64), np.arange(g.total_planes),
            blank, blank_oob,
        )
        assert (blank == 0xFF).all() and (blank_oob == 0xFF).all()
