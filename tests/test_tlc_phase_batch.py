"""Tests for the page-major TLC phases (rerank / document kernels).

The two TLC phases run as phase kernels -- the solo path is a phase of one
-- and this file pins each layer of them against an independent reference:

* **Kernels vs brute force** -- `_rerank_batch` against INT8 distances
  over the host mirror and `_fetch_documents_batch` against the deployed
  corpus, one-query and 64-query phases, cold and with a partially filled
  page cache;
* **Billing vs a pure-Python reference** -- `_bill_tlc_phase` charges each
  query its own unique pages and (page, codeword) pairs, straddling
  codewords, cached pages and zero-length reads included;
* **Sense in place** -- an array read is a gather: into a stack or not,
  a read of N equals N reads of one (stored bytes under the flips, latch
  contents, counters); an array read into a caller's stack equals the
  allocating read on a fresh array, flips included;
* **In-place ECC** -- :meth:`EccEngine.correct_batch` from the flip column
  equals the golden-page loop of ``tests/ecc_reference.py``, outputs,
  reported rows and counters, cancelling double flips and uncorrectable
  codewords included;
* **Phase of N == N phases of one** -- ids, distances, decoded document
  text and the per-query energy counters (``page_reads_tlc``, ECC decoded
  bytes) do not depend on how queries are grouped;
* **One call per batch** -- the host profiler sees exactly one
  rerank/documents phase entry per batch.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import ReisDevice
from repro.core.batch import BatchExecutor
from repro.core.config import tiny_config
from repro.core.engine import _TlcPages
from repro.core.plan import count_table, search_stats
from repro.host.profile import HostProfile
from repro.nand.array import FlashArray
from repro.nand.cell import CellMode
from repro.nand.ecc import EccEngine
from repro.nand.errors import NO_FLIPS
from repro.rag.documents import Corpus, DocumentChunk
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.conftest import fetch_documents, one_run, sense_one
from tests.cost_reference import replay
from tests.ecc_reference import PageByPageEcc, flip_column

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _chunk_corpus(n, seed):
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n):
        body = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=20))
        chunks.append(DocumentChunk(chunk_id=i, text=f"doc-{i}: {body}"))
    return Corpus(chunks)


class TestTlcBatchBitIdentity:
    """A phase of N queries == N phases of one, including document text."""

    @given(
        st.tuples(
            st.integers(80, 200),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 10),  # k
            st.integers(2, 9),  # batch size
            st.booleans(),  # deploy a corpus (True) or synthetic blobs
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_batch_matches_scalar_documents_included(self, shape):
        n, dim, nlist, k, batch_size, with_corpus, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, batch_size, seed=(seed, "tlc"))
        corpus = _chunk_corpus(n, seed) if with_corpus else None
        device = ReisDevice(tiny_config(f"TLC-{seed}-{n}-{dim}"))
        db_id = device.ivf_deploy(
            "t", vectors, nlist=nlist, corpus=corpus, seed=seed
        )
        db = device.database(db_id)
        # Force every document decode through the flash payloads so the
        # comparison covers the packed-region byte path, not the corpus
        # shortcut.
        db.corpus = None

        sequential = [
            device.ivf_search(db_id, query[None], k=k, nprobe=2).results[0]
            for query in queries
        ]
        execution = BatchExecutor(device.engine).execute(
            db, queries, k=k, nprobe=2
        )
        for solo, batched in zip(sequential, execution):
            assert np.array_equal(solo.ids, batched.ids)
            assert np.array_equal(solo.distances, batched.distances)
            assert [d.text for d in solo.documents] == [
                d.text for d in batched.documents
            ]
            assert solo.latency.total_s == pytest.approx(
                batched.latency.total_s, rel=1e-12
            )

    def test_tlc_counters_match_sequential_walk(
        self, small_vectors, small_corpus, small_queries
    ):
        """Cross-query page sharing shares work, never charges: the TLC
        sense and ECC decode counters equal one-query-at-a-time serving."""
        vectors, _ = small_vectors

        def run(batched):
            device = ReisDevice(tiny_config("TLC-CNT"))
            db_id = device.ivf_deploy(
                "c", vectors, nlist=4, corpus=small_corpus, seed=0
            )
            db = device.database(db_id)
            base_reads = device.engine.ssd.counters["page_reads_tlc"]
            base_decoded = device.engine.ssd.ecc.decoded_bytes
            assert base_reads == 0
            if batched:
                BatchExecutor(device.engine).execute(
                    db, small_queries[:8], k=10, nprobe=4
                )
            else:
                for query in small_queries[:8]:
                    device.ivf_search(db_id, query[None], k=10, nprobe=4)
            return (
                device.engine.ssd.counters["page_reads_tlc"] - base_reads,
                device.engine.ssd.ecc.decoded_bytes - base_decoded,
            )

        seq_reads, seq_decoded = run(batched=False)
        bat_reads, bat_decoded = run(batched=True)
        assert seq_reads > 0
        assert bat_reads == seq_reads
        assert bat_decoded == seq_decoded

    def test_one_profiler_call_per_batch(self, deployed_device, small_queries):
        device, db_id = deployed_device
        profile = HostProfile()
        device.ivf_search(
            db_id, small_queries[:6], k=5, nprobe=3, host_profile=profile
        )
        assert profile.calls["rerank"] == 1
        assert profile.calls["documents"] == 1
        # max_seconds tracks the single batch-level call's duration.
        assert profile.max_seconds["rerank"] == profile.seconds["rerank"]


class TestCorrectBatchEquivalence:
    """`correct_batch` from the flip column == the golden-page reference,
    outputs, the rows reported uncorrectable and the three counters."""

    @staticmethod
    def _check(raws, goldens, flips):
        solo, batch = PageByPageEcc(), EccEngine()
        expected = [solo.correct(raws[i], goldens[i]) for i in range(len(raws))]
        bad = batch.correct_batch(raws, flips)
        for i, row in enumerate(expected):
            assert np.array_equal(raws[i], row)
        assert bad.tolist() == [
            i for i, row in enumerate(expected) if not np.array_equal(row, goldens[i])
        ]
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords
        return batch

    @given(
        st.tuples(
            st.integers(1, 6),  # pages
            st.sampled_from([2048, 4096, 8192]),  # page bytes (cw multiple)
            st.integers(0, 10**6),
        )
    )
    @SETTINGS
    def test_matches_per_page_loop(self, shape):
        n_pages, page_bytes, seed = shape
        rng = np.random.default_rng(seed)
        goldens = rng.integers(0, 256, size=(n_pages, page_bytes)).astype(np.uint8)
        raws = goldens.copy()
        # Mix of clean, lightly-corrupted and uncorrectable pages: 100
        # flips in codeword 0 exceed the 72-bit capability.
        bits = [
            rng.integers(0, 8 * (2048 if n_flips == 100 else page_bytes), n_flips)
            for n_flips in rng.choice([0, 3, 10, 100], size=n_pages).tolist()
        ]
        self._check(raws, goldens, flip_column(raws, bits))

    @given(
        st.lists(  # per page: bit positions the injector hits (may repeat)
            st.tuples(
                st.lists(st.integers(0, 8 * 3000 - 1), max_size=12),
                st.sampled_from([0, 0, 80, 200]),  # extra flips in codeword 0
            ),
            max_size=4,
        ),
        st.sampled_from([3000, 4096]),
        st.integers(0, 10**6),
    )
    @SETTINGS
    def test_in_place_restore_matches_per_page(self, flip_sets, page_bytes, seed):
        """Injector-shaped flip columns: a bit hit twice cancels (its
        position repeats), >72 flips in one codeword stay corrupt and are
        counted, a 3000-byte page ends on a short codeword, and an empty
        stack is a no-op."""
        rng = np.random.default_rng(seed)
        n_pages = len(flip_sets)
        goldens = rng.integers(0, 256, size=(n_pages, page_bytes)).astype(np.uint8)
        raws = goldens.copy()
        bits = [
            np.concatenate([np.array(hits, dtype=np.int64), rng.integers(0, 8 * 2048, burst)])
            for hits, burst in flip_sets
        ]
        self._check(raws, goldens, flip_column(raws, bits))

    def test_a_bit_hit_twice_cancels(self):
        """Bit 3 of byte 10 is hit twice (no error left), byte 10's bit 5
        and byte 11's bit 0 once each, byte 12's bit 7 three times (one
        error): the reference sees three flipped bits."""
        rng = np.random.default_rng(5)
        goldens = rng.integers(0, 256, size=(2, 4096)).astype(np.uint8)
        raws = goldens.copy()
        bits = [[], [83, 85, 83, 88, 103, 103, 103]]
        batch = self._check(raws, goldens, flip_column(raws, bits))
        assert batch.corrected_bits == 3

    def test_corrected_bits_are_the_popcount_of_the_injected_pattern(self):
        """On an array read: every row ECC does not report equals its
        stored page, and ``corrected_bits`` is the popcount of the
        injected pattern (the raw stack XOR the stored pages)."""
        device = ReisDevice(tiny_config("ECC-POP"))
        array = device.ssd.array
        rng = np.random.default_rng(11)
        planes, pages = [], []
        for plane_index in range(array.geometry.total_planes):
            for page in range(4):  # TLC (the default mode): noisy reads
                array.planes[plane_index].program_page(
                    0, page, rng.integers(0, 256, 16384).astype(np.uint8)
                )
                planes.append(plane_index)
                pages.append(page)
        order = rng.permutation(len(planes))
        planes, pages = [planes[i] for i in order], [pages[i] for i in order]
        run = array.read_pages(planes, [0] * len(planes), pages)
        goldens = np.stack(
            [array.planes[p].golden_view(0, page)[0] for p, page in zip(planes, pages)]
        )
        injected = int(np.bitwise_count(run.data ^ goldens).sum())
        assert injected > 0
        ecc = EccEngine()
        assert ecc.correct_batch(run.data, run.flips).size == 0
        assert np.array_equal(run.data, goldens)
        assert ecc.corrected_bits == injected
        assert ecc.decoded_bytes == goldens.size

    def test_empty_stack_is_a_noop(self):
        ecc = EccEngine()
        bad = ecc.correct_batch(np.empty((0, 4096), dtype=np.uint8), NO_FLIPS)
        assert bad.size == 0
        assert ecc.decoded_bytes == 0

    def test_clean_rows_are_decoded_not_touched(self):
        ecc = EccEngine()
        raws = np.arange(3 * 4096, dtype=np.uint64).astype(np.uint8).reshape(3, 4096)
        before = raws.copy()
        assert ecc.correct_batch(raws, NO_FLIPS).size == 0
        assert np.array_equal(raws, before)
        assert ecc.decoded_bytes == raws.size
        assert ecc.corrected_bits == ecc.uncorrectable_codewords == 0


def _pages(plane_of, channel_of, page_id_of, cached):
    """Hand-built billing columns of one device (the page bytes are not
    billing's business)."""
    return _TlcPages(
        np.empty((len(plane_of), 0), dtype=np.uint8),
        np.asarray(plane_of), np.asarray(channel_of), np.asarray(page_id_of),
        np.where(cached, 16384 + 2208, 0), [0, len(plane_of)],
    )


def _bill(engine, rows, pages, n_queries):
    """Run `_bill_tlc_phase` over (query, page row, first cw, last cw) rows
    of one device (a run, as the biller reads it, is its engine)."""
    seg, page_row, first_cw, last_cw = (
        np.array(col, dtype=np.int64) for col in zip(*rows)
    )
    run = SimpleNamespace(engine=engine, counts=count_table(n_queries))
    [ledger] = engine._bill_tlc_phase(
        "probe", [run], [0, n_queries], np.arange(n_queries),
        seg, page_row, first_cw, last_cw, pages,
    )
    # Per-query costs, read back through ``query_cost(ledger, q)`` and the
    # visit columns replayed one ``add_page`` / ``add_dram_stream`` at a time.
    return replay(ledger), search_stats(run.counts)


class TestZeroLengthReadBilling:
    """A zero-length read senses its page but moves nothing over the channel."""

    def test_zero_length_read_bills_no_codewords(self):
        engine = ReisDevice(tiny_config("ZERO")).engine
        costs, stats = _bill(
            engine, [(0, 0, 0, -1)], _pages([3], [1], [77], [False]), 1
        )
        # The sense itself is still billed...
        assert stats[0].pages_read == 1
        assert costs[0].pages_per_plane == {3: 1}
        # ...but no codeword crosses the channel and nothing is decoded.
        assert costs[0].ecc_bytes == 0
        assert costs[0].channel_bytes == {}
        assert engine.ssd.counters["channel_bytes"] == 0

    def test_one_byte_read_still_bills_one_codeword(self):
        engine = ReisDevice(tiny_config("ONE-BYTE")).engine
        cw = engine.ssd.ecc.config.codeword_bytes
        costs, _stats = _bill(
            engine, [(0, 0, 0, 0)], _pages([3], [1], [77], [False]), 1
        )
        assert costs[0].ecc_bytes == cw
        assert costs[0].channel_bytes == {1: cw}
        assert engine.ssd.counters["channel_bytes"] == cw


class TestBillTlcPhaseAgainstReference:
    """`_bill_tlc_phase` == a per-query pure-Python walk of the same rows."""

    @given(
        st.lists(  # rows: (query, page, first codeword, codewords read)
            st.tuples(
                st.integers(0, 3), st.integers(0, 4),
                st.integers(0, 7), st.integers(0, 3),
            ),
            min_size=1, max_size=30,
        ),
        st.lists(st.booleans(), min_size=5, max_size=5),  # page cached?
        st.integers(0, 10**6),
    )
    @SETTINGS
    def test_matches_per_query_walk(self, raw_rows, cached_of_label, seed):
        engine = ReisDevice(tiny_config("BILL")).engine
        geometry = engine.geometry
        cw = engine.ssd.ecc.config.codeword_bytes
        rng = np.random.default_rng(seed)
        # Query-major rows over the pages they actually touch; a read of n
        # codewords starting near the page end is clipped to the page.
        raw_rows = sorted(raw_rows, key=lambda row: row[0])
        labels = sorted({row[1] for row in raw_rows})
        rows = [
            (q, labels.index(page), first, min(first + n, 8) - 1)
            for q, page, first, n in raw_rows
        ]
        n_pages = len(labels)
        plane_of = rng.integers(0, geometry.total_planes, n_pages)
        channel_of = rng.integers(0, geometry.channels, n_pages)
        page_id_of = 1000 + rng.permutation(n_pages)
        cached = np.array([cached_of_label[label] for label in labels])
        pages = _pages(plane_of, channel_of, page_id_of, cached)
        before = engine.ssd.counters.as_dict()
        decoded_before = engine.ssd.ecc.decoded_bytes
        costs, stats = _bill(engine, rows, pages, 4)

        sensed_visits = 0
        for qi in range(4):
            mine = [row for row in rows if row[0] == qi]
            touched = list(dict.fromkeys(row[1] for row in mine))
            per_plane, ids, hits = {}, {}, 0
            for page in touched:
                if cached[page]:
                    hits += 1
                    continue
                plane = int(plane_of[page])
                per_plane[plane] = per_plane.get(plane, 0) + 1
                ids.setdefault(plane, []).append(int(page_id_of[page]))
            codewords = {
                (page, c)
                for _q, page, first, last in mine if not cached[page]
                for c in range(first, last + 1)
            }
            channel_bytes = {}
            for page, _c in codewords:
                channel = int(channel_of[page])
                channel_bytes[channel] = channel_bytes.get(channel, 0) + cw
            sensed_visits += len(touched) - hits
            assert costs[qi].pages_per_plane == per_plane
            assert costs[qi].sensed_page_ids == ids
            assert costs[qi].channel_bytes == channel_bytes
            assert costs[qi].ecc_bytes == len(codewords) * cw
            assert stats[qi].pages_read == len(touched) - hits
            assert stats[qi].cache_hits == hits
            assert costs[qi].dram_bytes == hits * (16384 + 2208)
            assert sum(v for v, _s in costs[qi].dram_streams.values()) == hits
        # Device counters: every query pays its own senses; the phase
        # itself sensed each uncached page once (outside this helper).
        after = engine.ssd.counters.as_dict()
        shared = sensed_visits - int((~cached).sum())
        assert after.get("page_reads_tlc", 0) - before.get("page_reads_tlc", 0) == shared
        assert engine.ssd.ecc.decoded_bytes - decoded_before == shared * geometry.page_bytes
        assert after.get("channel_bytes", 0) - before.get("channel_bytes", 0) == sum(
            cost.ecc_bytes for cost in costs
        )


class TestSenseInPlace:
    """An array read is a gather: a read of N, into a stack or not, is N
    reads of one with the latches loaded once (stored bytes, latch contents
    and counters are pinned), and an array read into a caller's stack is
    the allocating read written somewhere else, flips included."""

    PAGE_BYTES, OOB_BYTES = 16384, 64
    # Interleaved ESP-SLC (block 0) and TLC (block 1) pages, with repeats.
    SEQUENCE = [(1, 0), (0, 0), (1, 1), (1, 0), (0, 2), (1, 2), (0, 1), (1, 1)]

    def _program(self, plane):
        plane.set_mode(0, CellMode.SLC_ESP)
        rng = np.random.default_rng(3)
        for block in range(2):
            for page in range(3):
                plane.program_page(
                    block, page,
                    rng.integers(0, 256, self.PAGE_BYTES - 100 * page).astype(np.uint8),
                    rng.integers(0, 256, self.OOB_BYTES // 2).astype(np.uint8),
                )
        return plane

    def _make_array(self):
        config = tiny_config("SENSE-IN-PLACE")
        array = FlashArray(config.geometry, config.timing)
        for plane in array.planes[:2]:
            self._program(plane)
        return array

    @pytest.mark.parametrize("into_rows", [True, False])
    def test_one_run_is_n_single_reads(self, into_rows):
        """One `read_pages` of the sequence on one plane == a read of one
        per page: every row is its stored bytes under the read's flips
        (none on the ESP-SLC rows), the OOB is stored, and the latch (the
        sequence's last page) and counters are the same."""
        single, batched = self._make_array(), self._make_array()
        for block, page in self.SEQUENCE:
            sense_one(single, 0, block, page)
        stack = np.full((8, self.PAGE_BYTES), 0xAB, dtype=np.uint8)
        blocks, pages = zip(*self.SEQUENCE)
        run = batched.read_pages(
            [0] * len(blocks), blocks, pages, out=stack if into_rows else None
        )
        assert (run.data is stack) == into_rows
        goldens = [batched.planes[0].golden_view(b, p) for b, p in self.SEQUENCE]
        expected = np.stack([data for data, _oob in goldens])
        positions, masks = run.flips
        assert positions.size > 0
        noisy_rows = np.unique(positions // self.PAGE_BYTES).tolist()
        assert noisy_rows == [row for row, (b, _p) in enumerate(self.SEQUENCE) if b == 1]
        np.bitwise_xor.at(expected.reshape(-1), positions, masks)
        assert np.array_equal(run.data, expected)
        for row, (_data, golden_oob) in enumerate(goldens):
            assert np.array_equal(run.oob[row], golden_oob)
        for a, b in zip(single.planes, batched.planes):
            assert np.array_equal(a.buffer.sensing, b.buffer.sensing)
            assert np.array_equal(a.buffer.oob, b.buffer.oob)
        assert np.array_equal(batched.planes[0].buffer.sensing, goldens[-1][0])
        assert batched.counters.as_dict() == single.counters.as_dict()

    def test_array_read_into_a_stack_is_the_allocating_read(self):
        """`out=` is a destination, not a mode: same bytes, same flips,
        same latches and counters on a fresh array given the same call."""
        plain, in_place = self._make_array(), self._make_array()
        planes = [i % 2 for i in range(len(self.SEQUENCE))]
        blocks, pages = zip(*self.SEQUENCE)
        stack = np.full((len(planes), self.PAGE_BYTES), 0xAB, dtype=np.uint8)
        allocated = plain.read_pages(planes, blocks, pages)
        written = in_place.read_pages(planes, blocks, pages, out=stack)
        assert written.data is stack
        assert np.array_equal(allocated.data, stack)
        for got, want in zip(written.flips, allocated.flips):
            assert np.array_equal(got, want)
        assert written.flips[0].size > 0  # the TLC reads really were noisy
        for got, want in zip(written.oob, allocated.oob):
            assert np.array_equal(got, want)
        for a, b in zip(plain.planes, in_place.planes):
            assert np.array_equal(a.buffer.sensing, b.buffer.sensing)
            assert np.array_equal(a.buffer.oob, b.buffer.oob)
        assert plain.counters.as_dict() == in_place.counters.as_dict()

    def test_a_stack_of_the_wrong_shape_is_refused(self):
        array = self._make_array()
        with pytest.raises(ValueError):
            array.read_pages([0, 1], [1, 1], [0, 0], out=np.empty((3, self.PAGE_BYTES), np.uint8))
        strided = np.empty((2, 2 * self.PAGE_BYTES), np.uint8)[:, ::2]
        with pytest.raises(ValueError):
            array.read_pages([0, 1], [1, 1], [0, 0], out=strided)

    def test_an_empty_run_touches_nothing(self):
        array = self._make_array()
        sense_one(array, 0, 1, 0)
        latch, counters = array.latches.sensing.copy(), array.counters.as_dict()
        run = array.read_pages([], [], [])
        assert run.data.shape == (0, self.PAGE_BYTES)
        assert run.oob.shape == (0, array.geometry.oob_bytes)
        assert np.array_equal(array.latches.sensing, latch)
        assert array.counters.as_dict() == counters


class TestTlcKernelsAgainstBruteForce:
    """The rerank kernel == brute-force INT8 distances over the host mirror
    and the document kernel == the deployed corpus, for one-query and
    64-query phases, cold and with a partially filled page cache."""

    N, DIM, K = 600, 64, 7

    @pytest.mark.parametrize("n_queries", [1, 64])
    @pytest.mark.parametrize("warm_cache", [False, True])
    def test_rerank_and_documents(self, n_queries, warm_cache):
        vectors, _ = make_clustered_embeddings(self.N, self.DIM, 6, seed="tlc-bf")
        corpus = _chunk_corpus(self.N, 5)
        device = ReisDevice(tiny_config(f"TLC-BF-{n_queries}-{warm_cache}"))
        db_id = device.ivf_deploy("bf", vectors, nlist=6, corpus=corpus, seed=0)
        db = device.database(db_id)
        engine = device.engine
        queries = make_queries(vectors, n_queries, seed="tlc-bf-q")
        assert db.int8_region.n_pages >= 3 and db.document_region.n_pages >= 2

        def mirror_page_zero(region, kind):
            """Leave only page 0 of `region` resident: the rest will miss."""
            if warm_cache:
                device.enable_page_cache(2 * (16384 + 2208))
                zero = np.zeros(1, np.int64)
                engine._materialize_tlc_batch(
                    [one_run(device, db, 1)], [region], zero, zero, kind
                )
                assert len(device.page_cache) == 1

        # Host mirror in slot order (a fresh deploy has RADR == DADR == slot).
        slot_codes = db.int8_quantizer.encode(vectors)[db.slot_to_original]
        query_codes = db.int8_quantizer.encode(queries).astype(np.int64)
        rng = np.random.default_rng(n_queries)
        sizes = rng.integers(0, 50, n_queries)
        sizes[0] = 50
        slots = [rng.choice(self.N, size, replace=False) for size in sizes]
        mirror_page_zero(db.int8_region, "cluster")
        run = one_run(device, db, n_queries)
        cells = np.arange(n_queries).repeat(sizes)
        radrs = np.concatenate(slots)
        order, refined = engine._rerank_batch([run], queries, cells, radrs, radrs)
        winners = []
        for qi in range(n_queries):
            mine = order[cells[order] == qi][: self.K]
            diff = slot_codes[slots[qi]].astype(np.int64) - query_codes[qi]
            exact = (diff * diff).sum(axis=1)
            top = np.argsort(exact, kind="stable")[: self.K]
            assert refined[mine].tolist() == exact[top].tolist()
            assert radrs[mine].tolist() == slots[qi][top].tolist()
            winners.append(radrs[mine])

        # Decode through the flash payloads, not the corpus shortcut.
        db.corpus = None
        mirror_page_zero(db.document_region, "document")
        fetched, fetch_run = fetch_documents(device, db, winners)
        for dadrs, documents, host_s in zip(winners, fetched, fetch_run.host_seconds):
            ids = db.slot_to_original[dadrs].tolist()
            assert [doc.chunk_id for doc in documents] == ids
            assert [doc.text for doc in documents] == [corpus[i].text for i in ids]
            assert (host_s > 0) == bool(len(dadrs))
        for stats in map(search_stats, (run.counts, fetch_run.counts)):
            assert sum(s.pages_read for s in stats) > 0
            assert (sum(s.cache_hits for s in stats) > 0) == warm_cache
