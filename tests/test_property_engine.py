"""Property-based tests of REIS deployment and search invariants.

Hypothesis drives randomized database shapes through deploy + search and
checks the invariants that must hold for *every* database:

* deployment is a permutation (every vector lands in exactly one slot);
* search returns at most k unique, valid original ids;
* returned distances are sorted ascending;
* results equal the host-side reference algorithm's results;
* probing every cluster equals brute force over the same data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ann.ivf import BqIvfIndex
from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.rag.embeddings import make_clustered_embeddings, make_queries

db_shapes = st.tuples(
    st.integers(60, 220),  # n
    st.sampled_from([32, 64]),  # dim
    st.integers(2, 6),  # nlist
    st.integers(1, 12),  # k
    st.integers(0, 10**6),  # seed
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _deploy(n, dim, nlist, seed):
    vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
    queries = make_queries(vectors, 2, seed=(seed, "q"))
    device = ReisDevice(tiny_config(f"PROP-{seed}-{n}-{dim}"))
    db_id = device.ivf_deploy("p", vectors, nlist=nlist, seed=seed)
    return device, db_id, vectors, queries


class TestDeploymentInvariants:
    @given(db_shapes)
    @SETTINGS
    def test_slot_mapping_is_a_permutation(self, shape):
        n, dim, nlist, _, seed = shape
        device, db_id, vectors, _ = _deploy(n, dim, nlist, seed)
        db = device.database(db_id)
        assert np.array_equal(np.sort(db.slot_to_original), np.arange(n))
        assert np.array_equal(
            db.slot_to_original[db.original_to_slot], np.arange(n)
        )

    @given(db_shapes)
    @SETTINGS
    def test_rivf_covers_all_slots_contiguously(self, shape):
        n, dim, nlist, _, seed = shape
        device, db_id, _, _ = _deploy(n, dim, nlist, seed)
        db = device.database(db_id)
        cursor = 0
        for cluster in range(db.n_clusters):
            entry = db.r_ivf[cluster]
            assert entry.first_embedding == cursor
            cursor += entry.size
        assert cursor == n


class TestSearchInvariants:
    @given(db_shapes)
    @SETTINGS
    def test_results_valid_unique_sorted(self, shape):
        n, dim, nlist, k, seed = shape
        device, db_id, _, queries = _deploy(n, dim, nlist, seed)
        batch = device.ivf_search(db_id, queries, k=k, nprobe=max(1, nlist // 2))
        for result in batch:
            assert 0 < result.k <= k
            ids = result.ids
            assert len(set(ids.tolist())) == ids.size  # unique
            assert ((0 <= ids) & (ids < n)).all()  # valid originals
            assert (np.diff(result.distances) >= 0).all()  # sorted

    @given(db_shapes)
    # Two centroids tie in Hamming distance at the nprobe boundary: the
    # reference must break the tie like the device, by (distance, id).
    @example((77, 64, 6, 9, 475))
    @SETTINGS
    def test_matches_host_reference(self, shape):
        n, dim, nlist, k, seed = shape
        device, db_id, vectors, queries = _deploy(n, dim, nlist, seed)
        reference = BqIvfIndex(dim, nlist, seed=seed).fit(vectors)
        nprobe = max(1, nlist - 1)
        for query in queries:
            [result] = device.ivf_search(db_id, query[None], k=k, nprobe=nprobe)
            ref_dist, _ = reference.search(query, k, nprobe=nprobe)
            assert np.array_equal(result.distances, ref_dist)

    @given(db_shapes)
    @SETTINGS
    def test_full_probe_equals_brute_force(self, shape):
        n, dim, nlist, k, seed = shape
        device, db_id, vectors, queries = _deploy(n, dim, nlist, seed)
        flat_device = ReisDevice(tiny_config(f"PROPF-{seed}-{n}-{dim}"))
        flat_id = flat_device.db_deploy("f", vectors, seed=seed)
        for query in queries:
            ivf = device.ivf_search(db_id, query, k=k, nprobe=nlist)[0]
            bf = flat_device.search(flat_id, query, k=k)[0]
            assert np.array_equal(ivf.distances, bf.distances)

    @given(db_shapes)
    @SETTINGS
    def test_documents_align_with_ids(self, shape):
        n, dim, nlist, k, seed = shape
        vectors, labels = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        from repro.rag.documents import Corpus

        corpus = Corpus.synthetic(n, labels, "prop")
        device = ReisDevice(tiny_config(f"PROPD-{seed}-{n}"))
        db_id = device.ivf_deploy("p", vectors, nlist=nlist, corpus=corpus, seed=seed)
        queries = make_queries(vectors, 1, seed=(seed, "q"))
        result = device.ivf_search(db_id, queries, k=k, nprobe=nlist)[0]
        for rank, doc in enumerate(result.documents):
            assert doc.chunk_id == int(result.ids[rank])
            assert f"topic {labels[doc.chunk_id]}" in doc.text
