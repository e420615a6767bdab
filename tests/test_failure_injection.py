"""Failure injection and degenerate-input tests.

The functional simulator makes failure modes real: raw bit errors beyond
ECC capability, DRAM exhaustion, capacity exhaustion, and degenerate
database shapes all exercise actual error paths.
"""

import numpy as np
import pytest

from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.nand.cell import MODES, CellMode, RELIABILITY, ReliabilityProfile
from repro.nand.ecc import EccConfig, EccEngine, UncorrectableReadError
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.conftest import fetch_documents
from tests.ecc_reference import flip_column


class TestEccBeyondCapability:
    def test_uncorrectable_errors_are_reported_not_hidden(self):
        engine = EccEngine(EccConfig(codeword_bytes=128, correctable_bits_per_codeword=4))
        golden = np.zeros(256, dtype=np.uint8)
        raw = golden.copy()[None]
        # 128 flips in codeword 0 (far beyond capability), 1 in codeword 1.
        flips = flip_column(raw, [[*range(128), 8 * 200]])
        assert engine.correct_batch(raw, flips).tolist() == [0]  # row 0 is bad
        out = raw[0]
        assert engine.uncorrectable_codewords == 1
        assert engine.corrected_bits == 1
        assert not np.array_equal(out[:128], golden[:128])  # still corrupt
        assert np.array_equal(out[128:], golden[128:])  # fixed

    def test_tlc_reads_survive_through_device_ecc(self):
        """A TLC host read goes through ECC and returns clean data even
        though the raw sense injects bit errors."""
        ssd = tiny_config("ECC").make_ssd()
        data = np.arange(ssd.spec.geometry.page_bytes, dtype=np.uint64) % 256
        data = data.astype(np.uint8)
        ssd.host_write(0, data)
        for _ in range(5):
            assert np.array_equal(ssd.host_read(0), data)
        assert ssd.ecc.decoded_bytes > 0

    def test_uncorrectable_host_read_raises(self, monkeypatch):
        """A host read past the correction capability raises instead of
        returning bytes that differ from the written ones."""
        ssd = tiny_config("ECC").make_ssd()
        data = np.arange(ssd.spec.geometry.page_bytes, dtype=np.uint64) % 256
        ssd.host_write(0, data.astype(np.uint8))
        monkeypatch.setitem(
            RELIABILITY, CellMode.TLC.code, ReliabilityProfile(2e-2, 3_000, True)
        )
        with pytest.raises(UncorrectableReadError) as excinfo:
            ssd.host_read(0)
        assert ssd.ecc.uncorrectable_codewords > 0
        assert (excinfo.value.region, excinfo.value.page_offset) == ("host", 0)

    def test_failed_host_read_leaves_the_stored_page_intact(self, monkeypatch):
        """A read that raised is not destructive: once the raw error rate
        is back in range, the same page reads back as written."""
        ssd = tiny_config("ECC").make_ssd()
        data = (np.arange(ssd.spec.geometry.page_bytes) % 199).astype(np.uint8)
        ssd.host_write(0, data)
        with monkeypatch.context() as patch:
            patch.setitem(
                RELIABILITY, CellMode.TLC.code, ReliabilityProfile(2e-2, 3_000, True)
            )
            with pytest.raises(UncorrectableReadError):
                ssd.host_read(0)
        assert np.array_equal(ssd.host_read(0), data)


class TestUncorrectableTlcRead:
    """A TLC page past the correction capability ends in a named error:
    it is neither served as a result nor admitted to the cache as golden."""

    def _worn_out_device(self, monkeypatch, small_vectors):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("UNC"))
        db_id = device.ivf_deploy("worn", vectors, nlist=8, seed=0)
        device.enable_page_cache(2 * (16384 + 2208))
        # ~330 raw flips per 2KB codeword against a capability of 72.
        monkeypatch.setitem(
            RELIABILITY, CellMode.TLC.code, ReliabilityProfile(2e-2, 3_000, True)
        )
        return device, db_id, make_queries(vectors, 4, seed="worn-q")

    def test_batch_rerank_raises_and_caches_nothing(
        self, monkeypatch, small_vectors
    ):
        device, db_id, queries = self._worn_out_device(monkeypatch, small_vectors)
        with pytest.raises(UncorrectableReadError) as excinfo:
            device.ivf_search(db_id, queries, k=5, nprobe=3)
        assert device.ssd.ecc.uncorrectable_codewords > 0
        region = device.database(db_id).int8_region
        assert excinfo.value.region == region.name
        for page_offset in range(region.n_pages):
            assert device.page_cache.peek(region, page_offset) is None

    def test_solo_rerank_raises(self, monkeypatch, small_vectors):
        device, db_id, queries = self._worn_out_device(monkeypatch, small_vectors)
        with pytest.raises(UncorrectableReadError):
            device.ivf_search(db_id, queries[:1], k=5, nprobe=3)

    def test_document_page_raises(self, monkeypatch, small_vectors):
        device, db_id, _ = self._worn_out_device(monkeypatch, small_vectors)
        db = device.database(db_id)
        with pytest.raises(UncorrectableReadError) as excinfo:
            fetch_documents(device, db, [np.arange(3)])
        assert excinfo.value.region == db.document_region.name
        assert excinfo.value.page_offset == 0

    def test_the_first_bad_page_in_read_order_is_named(self, monkeypatch, small_vectors):
        """Every page of the read is past the capability: the error names
        the first one the phase sensed (first-touch order), not the lowest
        offset."""
        device, db_id, _ = self._worn_out_device(monkeypatch, small_vectors)
        db = device.database(db_id)
        spp = db.document_region.slots_per_page
        assert db.document_region.n_pages >= 3
        with pytest.raises(UncorrectableReadError) as excinfo:
            fetch_documents(device, db, [np.array([2 * spp, 0, spp])])
        assert excinfo.value.page_offset == 2


class TestCapacityExhaustion:
    # 3000 entries need a >1-block-per-plane document region on the tiny
    # 8-plane geometry, overflowing 3 blocks/plane mid-deployment.
    def _too_big(self):
        rng = np.random.default_rng(9)
        # 150k entries: with packed 64B document slots (256/page) and
        # OOB-bound embeddings (276/page), the regions need ~5 blocks per
        # plane on the 3-block drive below -- a clean capacity overflow.
        return rng.standard_normal((150_000, 32)).astype(np.float32)

    def test_deploying_past_flash_capacity_fails_cleanly(self, small_vectors):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("CAP").with_geometry(blocks_per_plane=3))
        with pytest.raises(Exception) as excinfo:
            device.db_deploy("too-big", self._too_big())
        assert "region" in str(excinfo.value) or "pages" in str(excinfo.value)
        # The failed attempt rolled back its reservation, so a database
        # that fills the whole drive (one block per region) still fits.
        db_id = device.db_deploy("small", vectors[:40], seed=0)
        assert device.database(db_id).n_entries == 40

    def test_failed_deploy_leaves_rdb_unregistered(self):
        device = ReisDevice(tiny_config("CAP2").with_geometry(blocks_per_plane=3))
        with pytest.raises(Exception):
            device.db_deploy("too-big", self._too_big(), db_id=5)
        assert 5 not in device.deployer.r_db
        assert device.deployer._next_page_in_plane == 0  # fully rolled back


class TestDegenerateDatabases:
    def test_single_entry_database(self):
        vectors = np.ones((1, 32), dtype=np.float32)
        device = ReisDevice(tiny_config("ONE"))
        db_id = device.db_deploy("one", vectors)
        result = device.search(db_id, vectors[0], k=10)[0]
        assert result.k == 1
        assert result.ids.tolist() == [0]

    def test_k_exceeding_database_size(self, small_vectors):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("KBIG"))
        db_id = device.db_deploy("s", vectors[:6], seed=0)
        result = device.search(db_id, vectors[0], k=50)[0]
        assert result.k == 6

    def test_minimum_dimension(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 8)).astype(np.float32)
        device = ReisDevice(tiny_config("DIM8"))
        db_id = device.db_deploy("d8", vectors, seed=0)
        result = device.search(db_id, vectors[3], k=3)[0]
        assert 0 < result.k <= 3

    def test_identical_vectors_tie_handling(self):
        vectors = np.tile(
            np.random.default_rng(1).standard_normal(32).astype(np.float32), (30, 1)
        )
        device = ReisDevice(tiny_config("TIES"))
        db_id = device.db_deploy("t", vectors, seed=0)
        result = device.search(db_id, vectors[0], k=5)[0]
        assert result.k == 5
        assert (result.distances == result.distances[0]).all()

    def test_ivf_with_empty_clusters(self):
        """k-means on tightly duplicated data can leave clusters empty;
        deployment and search must tolerate zero-size R-IVF ranges."""
        rng = np.random.default_rng(2)
        base = rng.standard_normal((2, 32)).astype(np.float32)
        vectors = np.vstack([base[0] + 1e-4 * rng.standard_normal((40, 32)),
                             base[1] + 1e-4 * rng.standard_normal((40, 32))]).astype(np.float32)
        device = ReisDevice(tiny_config("EMPTYC"))
        db_id = device.ivf_deploy("e", vectors, nlist=6, seed=0)
        db = device.database(db_id)
        result = device.ivf_search(db_id, vectors[0], k=5, nprobe=db.n_clusters)[0]
        assert result.k == 5


class TestReliabilityContract:
    def test_engine_scans_only_esp_blocks(self, deployed_device):
        """The in-plane scan path must only ever sense ESP-SLC blocks --
        anything else would compute on corrupted data without ECC."""
        device, db_id = deployed_device
        db = device.database(db_id)
        geometry = device.ssd.spec.geometry
        for region in (db.embedding_region, db.centroid_region):
            for offset in range(min(region.n_pages, 4)):
                ppa = region.region.translate(offset, geometry)
                code = device.ssd.array.pages.mode[ppa.plane_linear(geometry), ppa.block]
                assert MODES[code] is CellMode.SLC_ESP
                assert not RELIABILITY[code].requires_ecc

    def test_esp_profile_is_the_only_zero_ber_mode(self):
        zero_ber = [MODES[code] for code, p in RELIABILITY.items() if p.raw_ber == 0.0]
        assert zero_ber == [CellMode.SLC_ESP]

    def test_search_is_deterministic_despite_tlc_noise(self, small_vectors):
        """INT8 rerank reads noisy TLC pages; ECC must make results
        reproducible across repeated searches."""
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("DET"))
        db_id = device.ivf_deploy("d", vectors, nlist=8, seed=0)
        query = vectors[7]
        first = device.ivf_search(db_id, query, k=10, nprobe=4)[0]
        for _ in range(3):
            again = device.ivf_search(db_id, query, k=10, nprobe=4)[0]
            assert np.array_equal(first.ids, again.ids)
            assert np.array_equal(first.distances, again.distances)


class TestDramPressure:
    def test_ttl_compaction_bounds_dram(self, small_vectors):
        """Without per-iteration compaction a full-probe scan would
        overflow the tiny device's DRAM; the bounded TTL must keep the
        footprint under the shortlist-scaled cap."""
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("DRAM"))
        db_id = device.ivf_deploy("d", vectors, nlist=8, seed=0)
        device.ivf_search(db_id, vectors[0], k=10, nprobe=8)
        dram = device.ssd.dram
        ttl_bytes = dram.region_size("ttl-e")
        entry = device.config.engine.fine_entry_bytes(vectors.shape[1] // 8)
        cap = (2 * 40 * 10 + 300) * entry  # 2x shortlist + one page of slack
        assert 0 < ttl_bytes <= cap
