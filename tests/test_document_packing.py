"""Tests for the packed document region.

The layout engine sizes document slots to the database's largest chunk
(smallest power of two between ``doc_pack_floor_bytes`` and
``doc_slot_bytes``) instead of burning a whole 4KB sub-page per chunk.
Pinned here:

* **Roundtrip** -- pack -> deploy -> fetch decodes byte-identically for
  chunk sizes straddling the ECC codeword (2048B) and sub-page (4096B)
  boundaries (hypothesis property over mixed-size corpora);
* **Geometry** -- slots are powers of two within [floor, cap], the
  region packs ``page_bytes // slot`` chunks per page, and a slot never
  straddles an ECC codeword unless it is wider than one;
* **Ingest** -- streamed tail appends land in packed slots and decode
  byte-identically through search.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import ReisDevice
from repro.core.config import EngineParams, tiny_config
from repro.core.ingest import MutationRequest
from repro.core.layout import DatabaseDeployer
from repro.rag.documents import Corpus, DocumentChunk
from repro.rag.embeddings import make_clustered_embeddings

from tests.conftest import fetch_documents

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CW = 2048  # ECC codeword
SUBPAGE = 4096

# Chunk byte-lengths clustered around the packing breakpoints: within the
# floor, just under/over one codeword, just under/at one sub-page.
BOUNDARY_SIZES = st.sampled_from(
    [1, 40, 63, 64, 65, 500, 2000, 2047, 2048, 2049, 3000, 4000, 4095, 4096]
)


def _ascii_chunk(chunk_id, n_bytes, rng):
    # Printable ASCII, never NUL-terminated, exactly n_bytes when encoded.
    body = "".join(chr(33 + int(c)) for c in rng.integers(0, 94, size=n_bytes))
    return DocumentChunk(chunk_id=chunk_id, text=body)


class TestPackedSlotPolicy:
    def test_power_of_two_between_floor_and_cap(self):
        params = EngineParams()
        seen = set()
        for max_chunk in range(0, 5000, 37):
            slot = DatabaseDeployer.packed_doc_slot_bytes(max_chunk, params)
            assert slot & (slot - 1) == 0  # power of two
            assert params.doc_pack_floor_bytes <= slot <= params.doc_slot_bytes
            assert slot >= max_chunk or slot == params.doc_slot_bytes
            seen.add(slot)
        assert {64, 128, 2048, 4096} <= seen

    def test_slots_never_straddle_codewords(self):
        params = EngineParams()
        for max_chunk in (1, 64, 100, 1000, 2048, 3000):
            slot = DatabaseDeployer.packed_doc_slot_bytes(max_chunk, params)
            if slot <= CW:
                # Every slot start is a multiple of the slot width, so a
                # power-of-two slot <= one codeword divides it evenly and
                # never crosses a codeword (or sub-page) boundary.
                assert CW % slot == 0
            else:
                assert slot % CW == 0
            assert SUBPAGE % slot == 0 or slot % SUBPAGE == 0


class TestPackedRoundtrip:
    @given(
        st.tuples(
            st.integers(8, 24),  # entries
            st.lists(BOUNDARY_SIZES, min_size=1, max_size=4),  # size mix
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_deploy_then_fetch_decodes_byte_identically(self, shape):
        n, size_mix, seed = shape
        rng = np.random.default_rng(seed)
        sizes = [size_mix[i % len(size_mix)] for i in range(n)]
        corpus = Corpus(
            [_ascii_chunk(i, sizes[i], rng) for i in range(n)]
        )
        vectors, _ = make_clustered_embeddings(n, 32, 2, seed=seed)
        device = ReisDevice(tiny_config(f"PACK-{seed}"))
        db_id = device.db_deploy("p", vectors, corpus=corpus, seed=seed)
        db = device.database(db_id)

        region = db.document_region
        assert region.item_bytes == DatabaseDeployer.packed_doc_slot_bytes(
            max(sizes), device.engine.params
        )
        geometry = device.config.geometry
        assert region.slots_per_page == geometry.page_bytes // region.item_bytes
        entry = device.deployer.r_db.lookup(db_id)
        assert entry.doc_slot_bytes == region.item_bytes

        # Decode through the flash payloads, not the corpus shortcut.
        db.corpus = None
        dadrs = np.arange(n, dtype=np.int64)
        [documents], _run = fetch_documents(device, db, [dadrs])
        by_id = {doc.chunk_id: doc.text for doc in documents}
        for chunk in corpus:
            assert by_id[chunk.chunk_id] == chunk.text

    def test_corpus_free_deploy_packs_synthetic_blobs(self):
        vectors, _ = make_clustered_embeddings(30, 32, 2, seed="packfree")
        device = ReisDevice(tiny_config("PACK-FREE"))
        db_id = device.db_deploy("p", vectors, seed=0)
        db = device.database(db_id)
        # 32-byte synthetic blobs pack at the 64B floor.
        assert db.document_region.item_bytes == 64
        [documents], _run = fetch_documents(device, db, [np.arange(30)])
        assert sorted(doc.text for doc in documents) == sorted(
            f"chunk-{i}" for i in range(30)
        )


class TestPackedIngestRoundtrip:
    def test_streamed_append_decodes_byte_identically(self):
        n = 40
        rng = np.random.default_rng(11)
        corpus = Corpus([_ascii_chunk(i, 60, rng) for i in range(n)])
        vectors, _ = make_clustered_embeddings(n, 32, 4, seed="packing")
        device = ReisDevice(tiny_config("PACK-ING"))
        db_id = device.ivf_deploy(
            "p", vectors, nlist=4, corpus=corpus, growth_entries=2048, seed=0
        )
        db = device.database(db_id)
        assert db.document_region.item_bytes == 64

        probe = (vectors[7] * 1.001).astype(np.float32)
        streamed = "packed tail append, 37B exactly!!"
        commit = device.ingest_manager(db_id).apply(
            [MutationRequest(op="insert", vector=probe, text=streamed)]
        )
        new_id = commit.ids[0]

        db.corpus = None  # force the flash byte path
        hit = device.ivf_search(db_id, probe[None, :], k=5, nprobe=4)
        docs = {
            r_id: doc
            for r_id, doc in zip(hit.results[0].ids, hit.results[0].documents)
        }
        assert new_id in docs
        assert docs[new_id].text == streamed


class TestDecodeRowsAgainstDecodeBytes:
    """``DocumentChunk.decode_rows`` (one pass over the gathered payload
    matrix) == ``DocumentChunk.decode_bytes`` row by row."""

    @given(
        st.integers(1, 48),
        st.lists(
            st.one_of(
                st.binary(max_size=64),  # raw bytes: embedded NULs, bad UTF-8
                st.text(max_size=24).map(lambda text: text.encode("utf-8")),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_decode_like_the_reference(self, slot_bytes, payloads):
        """Payloads are cut at the slot edge (a multi-byte character may
        lose its tail: ``errors="replace"``), may fill the slot exactly (no
        padding to strip), and may carry NULs inside or at their end."""
        rows = np.zeros((len(payloads), slot_bytes), dtype=np.uint8)
        for row, payload in zip(rows, payloads):
            cut = np.frombuffer(payload[:slot_bytes], dtype=np.uint8)
            row[: cut.size] = cut
        assert DocumentChunk.decode_rows(rows) == [
            DocumentChunk.decode_bytes(row) for row in rows
        ]

    def test_edge_payloads(self):
        slot = 8
        cases = [
            b"",  # an empty slot
            b"a\x00b",  # NUL inside the text survives
            b"ab\x00\x00",  # trailing NULs are padding
            b"12345678",  # fills its slot: nothing to strip
            "café-€".encode("utf-8")[:slot],  # euro sign cut mid-character
            b"\xff\xfe",  # not UTF-8 at all
        ]
        rows = np.zeros((len(cases), slot), dtype=np.uint8)
        for row, payload in zip(rows, cases):
            row[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        decoded = DocumentChunk.decode_rows(rows)
        assert decoded == [DocumentChunk.decode_bytes(row) for row in rows]
        assert decoded[1] == "a\x00b" and decoded[3] == "12345678"
        assert decoded[4].endswith("�")


class TestDecodedChunks:
    """Chunks built from decoded slots (``DocumentChunk.decoded``) are the
    chunks the constructor makes: equal, same hash, same ``repr``,
    immutable."""

    def test_decoded_equals_constructed(self):
        ids, texts = [7, 3], ["seven", "three"]
        built = [DocumentChunk(chunk_id=i, text=t) for i, t in zip(ids, texts)]
        decoded = DocumentChunk.decoded(ids, texts)
        assert decoded == built
        assert all(type(chunk) is DocumentChunk for chunk in decoded)
        assert [hash(c) for c in decoded] == [hash(c) for c in built]
        assert repr(decoded[0]) == "DocumentChunk(chunk_id=7, text='seven', source='')"
        assert decoded[1].source == "" and decoded[1].chunk_id == 3
        with pytest.raises(AttributeError):
            decoded[0].text = "changed"
        assert {decoded[0]: 1}[built[0]] == 1
