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
* **Sense in place** -- a `Plane.read_pages` run of one into a row draws
  the same errors, leaves the same latch contents and counters as the
  allocating run, and a run of N equals N runs of one;
* **In-place ECC** -- :meth:`EccEngine.correct_batch` equals the per-page
  loop of ``tests/ecc_reference.py``, outputs and counters, hinted and
  unhinted, cancelling double flips and uncorrectable codewords included;
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
from repro.core.plan import SearchStats
from repro.host.profile import HostProfile
from repro.nand.cell import CellMode
from repro.nand.ecc import EccEngine
from repro.nand.errors import BitErrorModel
from repro.nand.plane import Plane
from repro.rag.documents import Corpus, DocumentChunk
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.conftest import fetch_documents, one_run, sense_one
from tests.cost_reference import replay
from tests.ecc_reference import PageByPageEcc

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
    """`correct_batch` == per-page `correct`, outputs and counters."""

    @staticmethod
    def _page_stack(n_pages, page_bytes, flips, seed):
        """Golden pages plus raws with `flips[i]` flipped bits on page i."""
        rng = np.random.default_rng(seed)
        goldens = rng.integers(0, 256, size=(n_pages, page_bytes)).astype(
            np.uint8
        )
        raws = goldens.copy()
        hints = []
        for i, n_flips in enumerate(flips):
            positions = rng.choice(page_bytes, size=n_flips, replace=False)
            for pos in positions:
                raws[i, pos] ^= np.uint8(1 << int(rng.integers(0, 8)))
            # Hints are a superset of the flipped bytes, like the error
            # injector's report.
            extra = rng.choice(page_bytes, size=2, replace=False)
            hints.append(
                np.unique(np.concatenate([positions, extra])).astype(np.int64)
            )
        return raws, goldens, hints

    @given(
        st.tuples(
            st.integers(1, 6),  # pages
            st.sampled_from([2048, 4096, 8192]),  # page bytes (cw multiple)
            st.booleans(),  # pass hints
            st.integers(0, 10**6),
        )
    )
    @SETTINGS
    def test_matches_per_page_loop(self, shape):
        n_pages, page_bytes, hinted, seed = shape
        rng = np.random.default_rng(seed)
        # Mix of clean, lightly-corrupted and uncorrectable pages: 100
        # flipped bytes can exceed the 72-bit capability of one codeword.
        flips = rng.choice([0, 3, 10, 100], size=n_pages).tolist()
        raws, goldens, hints = self._page_stack(
            n_pages, page_bytes, flips, seed
        )

        solo, batch = PageByPageEcc(), EccEngine()
        expected = np.stack(
            [
                solo.correct(
                    raws[i], goldens[i],
                    candidate_bytes=hints[i] if hinted else None,
                )
                for i in range(n_pages)
            ]
        )
        got = batch.correct_batch(
            raws, goldens, candidate_bytes=hints if hinted else None
        )
        assert np.array_equal(got, expected)
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords

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
        """Injector-shaped flip sets: a bit hit twice cancels (its byte is
        still hinted), >72 flips in one codeword stay corrupt and are
        counted, and an empty page list is a no-op."""
        rng = np.random.default_rng(seed)
        n_pages = len(flip_sets)
        goldens = rng.integers(0, 256, size=(n_pages, page_bytes)).astype(np.uint8)
        raws = goldens.copy()
        hints = []
        for i, (bits, burst) in enumerate(flip_sets):
            positions = np.concatenate(
                [np.array(bits, dtype=np.int64), rng.integers(0, 8 * 2048, burst)]
            )
            np.bitwise_xor.at(
                raws[i], positions >> 3,
                (np.uint8(1) << (positions & 7).astype(np.uint8)),
            )
            hints.append(positions >> 3)

        solo, batch = PageByPageEcc(), EccEngine()
        expected = [
            solo.correct(raws[i], goldens[i], candidate_bytes=hints[i])
            for i in range(n_pages)
        ]
        got = batch.correct_batch(raws, list(goldens), hints)
        assert got is raws  # corrected in place
        for i in range(n_pages):
            assert np.array_equal(raws[i], expected[i])
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords

    def test_empty_stack_is_a_noop(self):
        ecc = EccEngine()
        out = ecc.correct_batch(
            np.empty((0, 4096), dtype=np.uint8),
            np.empty((0, 4096), dtype=np.uint8),
        )
        assert out.shape == (0, 4096)
        assert ecc.decoded_bytes == 0

    def test_odd_page_width_falls_back_per_page(self):
        # 3000 bytes is not a codeword multiple: each page ends on a short
        # codeword, exactly as on the per-page path.
        raws, goldens, hints = self._page_stack(3, 3000, [0, 5, 90], seed=7)
        solo, batch = PageByPageEcc(), EccEngine()
        expected = np.stack(
            [solo.correct(raws[i], goldens[i]) for i in range(3)]
        )
        got = batch.correct_batch(raws, goldens)
        assert np.array_equal(got, expected)
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords


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
    stats = [SearchStats() for _ in range(n_queries)]
    [ledger] = engine._bill_tlc_phase(
        "probe", [SimpleNamespace(engine=engine)], [0, n_queries], stats,
        seg, page_row, first_cw, last_cw, pages,
    )
    # Per-query costs, read back through ``query_cost(ledger, q)`` and the
    # visit columns replayed one ``add_page`` / ``add_dram_stream`` at a time.
    return replay(ledger), stats


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
    """A run of one into a row is the allocating run written somewhere
    else, and a run of N is N runs of one with the latch loaded once: the
    per-plane error stream, latch contents and counters are pinned."""

    PAGE_BYTES, OOB_BYTES = 16384, 64
    # Interleaved ESP-SLC (block 0) and TLC (block 1) pages, with repeats.
    SEQUENCE = [(1, 0), (0, 0), (1, 1), (1, 0), (0, 2), (1, 2), (0, 1), (1, 1)]

    def _make_plane(self):
        plane = Plane(
            0, blocks_per_plane=2, pages_per_block=3,
            page_bytes=self.PAGE_BYTES, oob_bytes=self.OOB_BYTES,
            error_model=BitErrorModel(seed="in-place"),
        )
        plane.blocks[0].set_mode(CellMode.SLC_ESP)
        rng = np.random.default_rng(3)
        for block in range(2):
            for page in range(3):
                plane.program_page(
                    block, page,
                    rng.integers(0, 256, self.PAGE_BYTES - 100 * page).astype(np.uint8),
                    rng.integers(0, 256, self.OOB_BYTES // 2).astype(np.uint8),
                )
        return plane

    def test_same_stream_latches_and_counters(self):
        plain, in_place = self._make_plane(), self._make_plane()
        stack = np.full((8, self.PAGE_BYTES), 0xAB, dtype=np.uint8)
        n_flipped = 0
        for row, (block, page) in enumerate(self.SEQUENCE):
            data, oob = sense_one(plain, block, page)
            got, got_oob = sense_one(in_place, block, page, out=stack[row])
            assert got is not data and np.shares_memory(got, stack[row])
            assert np.array_equal(stack[row], data)
            assert np.array_equal(got_oob, oob)
            assert np.array_equal(
                in_place.last_flipped_bytes, plain.last_flipped_bytes
            )
            assert np.array_equal(in_place.buffer.sensing, plain.buffer.sensing)
            assert np.array_equal(in_place.buffer.oob, plain.buffer.oob)
            golden = plain.golden_view(block, page)[0]
            if block == 0:  # ESP-SLC reads are error-free
                assert np.array_equal(data, golden)
            n_flipped += int((data != golden).sum())
        assert n_flipped > 0  # the TLC reads really were noisy
        assert in_place.counters.as_dict() == plain.counters.as_dict()

    @pytest.mark.parametrize("into_rows", [True, False])
    def test_one_run_is_n_single_reads(self, into_rows):
        """One `read_pages` over the sequence == a run of one per page on
        a same-seed plane: bytes including flips, OOB, per-page
        flipped-byte hints, the latch (the run's last page), counters and
        the error RNG's state afterwards."""
        single, run_plane = self._make_plane(), self._make_plane()
        reads = [sense_one(single, block, page) for block, page in self.SEQUENCE]
        hints = []
        replay = self._make_plane()  # per-page hints need their own walk
        for block, page in self.SEQUENCE:
            sense_one(replay, block, page)
            hints.append(replay.last_flipped_bytes)

        stack = np.full((8, self.PAGE_BYTES), 0xAB, dtype=np.uint8)
        blocks, pages = zip(*self.SEQUENCE)
        run = run_plane.read_pages(
            blocks, pages, out=list(stack) if into_rows else None
        )
        n_flipped = 0
        for row, ((block, page), (data, oob)) in enumerate(zip(self.SEQUENCE, reads)):
            golden = single.golden_view(block, page)[0]
            assert np.array_equal(run.data[row], data)
            assert np.array_equal(run.oob[row], oob)
            assert run.golden[row] is run_plane.golden_view(block, page)[0]
            assert np.array_equal(run.golden[row], golden)
            assert np.array_equal(run.flipped[row], hints[row])
            if into_rows:
                assert np.shares_memory(run.data[row], stack[row])
                assert np.array_equal(stack[row], data)
            elif block == 0:  # raw BER 0: the stored bytes, not a copy
                assert run.data[row] is run.golden[row]
                assert not run.data[row].flags.writeable
            n_flipped += int((data != golden).sum())
        assert n_flipped > 0
        assert np.array_equal(run_plane.buffer.sensing, single.buffer.sensing)
        assert np.array_equal(run_plane.buffer.oob, single.buffer.oob)
        assert np.array_equal(run_plane.last_flipped_bytes, single.last_flipped_bytes)
        assert run_plane.counters.as_dict() == single.counters.as_dict()
        assert (
            run_plane._errors._rng.bit_generator.state
            == single._errors._rng.bit_generator.state
        )

    def test_an_empty_run_touches_nothing(self):
        plane = self._make_plane()
        sense_one(plane, 1, 0)
        latch, counters = plane.buffer.sensing.copy(), plane.counters.as_dict()
        run = plane.read_pages([], [])
        assert run.data == run.oob == run.golden == run.flipped == []
        assert np.array_equal(plane.buffer.sensing, latch)
        assert plane.counters.as_dict() == counters


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
        for stats in (run.query_stats, fetch_run.query_stats):
            assert sum(s.pages_read for s in stats) > 0
            assert (sum(s.cache_hits for s in stats) > 0) == warm_cache
