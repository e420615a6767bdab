"""Unit tests for the ANN index implementations (flat, IVF, HNSW, LSH, PQ)."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import blocks
from repro.ann.flat import BinaryFlatIndex, FlatIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.ivf import BqIvfIndex, IvfIndex, IvfModel, build_ivf_model, coarse_probe
from repro.ann.kmeans import KMeansResult, kmeans
from repro.ann.lsh import LshIndex
from repro.ann.pq import PqIvfIndex, ProductQuantizer
from repro.ann.quantization import BinaryQuantizer, Int8Quantizer
from repro.ann.recall import exact_ground_truth, mean_recall_at_k, recall_at_k
from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from repro.sim.rng import make_rng

N, DIM, CLUSTERS = 500, 64, 10


@pytest.fixture(scope="module")
def data():
    vectors, _ = make_clustered_embeddings(N, DIM, CLUSTERS, seed="ann")
    queries = make_queries(vectors, 8, seed="ann-q")
    gt = exact_ground_truth(queries, vectors, 10)
    return vectors, queries, gt


class TestFlatIndex:
    def test_exactness(self, data):
        vectors, queries, gt = data
        index = FlatIndex(DIM)
        index.add(vectors)
        for i, q in enumerate(queries):
            _, ids = index.search(q, 10)
            assert recall_at_k(ids, gt[i], 10) == 1.0

    def test_distances_sorted(self, data):
        vectors, queries, _ = data
        index = FlatIndex(DIM)
        index.add(vectors)
        distances, _ = index.search(queries[0], 10)
        assert (np.diff(distances) >= 0).all()

    def test_incremental_add(self, data):
        vectors, _, _ = data
        index = FlatIndex(DIM)
        index.add(vectors[:100])
        index.add(vectors[100:])
        assert len(index) == N

    def test_first_add_keeps_a_read_only_view(self, data):
        vectors, queries, _ = data
        index = FlatIndex(DIM)
        index.add(vectors)
        assert np.shares_memory(index.vectors, vectors)
        assert not index.vectors.flags.writeable
        copied = FlatIndex(DIM)
        copied.add(vectors.astype(np.float64))  # dtype conversion
        strided = FlatIndex(DIM)
        strided.add(np.asfortranarray(vectors))  # layout conversion
        for other in (copied, strided):
            assert not np.shares_memory(other.vectors, vectors)
            assert other.vectors.flags.c_contiguous
            assert np.array_equal(other.vectors, vectors)
            for query in queries[:4]:
                expect, got = index.search(query, 10), other.search(query, 10)
                assert np.array_equal(expect[0], got[0])
                assert np.array_equal(expect[1], got[1])

    def test_second_add_concatenates_into_a_copy(self, data):
        vectors, queries, _ = data
        whole = FlatIndex(DIM)
        whole.add(vectors.copy())
        index = FlatIndex(DIM)
        index.add(vectors[:100])
        index.add(vectors[100:])
        assert not np.shares_memory(index.vectors, vectors)
        assert np.array_equal(index.vectors, vectors)
        for query in queries[:4]:
            expect, got = whole.search(query, 10), index.search(query, 10)
            assert np.array_equal(expect[0], got[0])
            assert np.array_equal(expect[1], got[1])

    def test_binary_flat(self, data):
        vectors, queries, _ = data
        from repro.ann.quantization import BinaryQuantizer

        bq = BinaryQuantizer().fit(vectors)
        index = BinaryFlatIndex(DIM // 8)
        index.add(bq.encode(vectors))
        distances, ids = index.search(bq.encode_one(queries[0]), 5)
        assert ids.size == 5
        assert (np.diff(distances) >= 0).all()


class TestKmeans:
    def test_assignment_to_nearest_centroid(self, data):
        vectors, _, _ = data
        result = kmeans(vectors, 8, max_iterations=10, seed=0)
        assert result.centroids.shape == (8, DIM)
        d = ((vectors[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignments, np.argmin(d, axis=1))

    def test_recovers_clear_clusters(self):
        vectors, labels = make_clustered_embeddings(300, 32, 3, cluster_std=0.1, seed=5)
        result = kmeans(vectors, 3, max_iterations=25, seed=0)
        # Each true cluster should map to exactly one k-means cluster.
        for true_label in range(3):
            found = result.assignments[labels == true_label]
            majority = np.bincount(found).max() / found.size
            assert majority > 0.95

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 4), dtype=np.float32), 5)


class TestIvf:
    def test_full_probe_equals_exhaustive(self, data):
        vectors, queries, gt = data
        index = IvfIndex(DIM, 8, seed=0).fit(vectors)
        for i, q in enumerate(queries):
            _, ids = index.search(q, 10, nprobe=8)
            assert recall_at_k(ids, gt[i], 10) == 1.0

    def test_recall_improves_with_nprobe(self, data):
        vectors, queries, gt = data
        index = IvfIndex(DIM, 10, seed=0).fit(vectors)
        recalls = []
        for nprobe in (1, 4, 10):
            ids = [index.search(q, 10, nprobe=nprobe)[1] for q in queries]
            recalls.append(mean_recall_at_k(ids, gt, 10))
        assert recalls[0] <= recalls[1] + 1e-9 <= recalls[2] + 2e-9

    def test_lists_partition_the_dataset(self, data):
        vectors, _, _ = data
        model = build_ivf_model(vectors, 8, seed=0)
        ids = np.concatenate(model.lists)
        assert np.array_equal(np.sort(ids), np.arange(N))
        assert model.cluster_sizes().sum() == N

    def test_coarse_probe_orders_by_distance(self, data):
        vectors, queries, _ = data
        model = build_ivf_model(vectors, 8, seed=0)
        clusters = coarse_probe(model, queries[0], 4)
        d = ((model.centroids - queries[0]) ** 2).sum(axis=1)
        assert (np.diff(d[clusters]) >= 0).all()

    def test_scanned_candidates_counts_cluster_members(self, data):
        vectors, queries, _ = data
        index = IvfIndex(DIM, 8, seed=0).fit(vectors)
        assert index.scanned_candidates(queries[0], 8) == N

    def test_unfitted_search_raises(self):
        with pytest.raises(RuntimeError):
            IvfIndex(DIM, 4).search(np.zeros(DIM, dtype=np.float32), 5)

    def test_dim_mismatch_rejected(self, data):
        vectors, _, _ = data
        with pytest.raises(ValueError):
            IvfIndex(DIM + 8, 4).fit(vectors)


class TestBqIvf:
    def test_full_probe_recall_matches_flat_bq(self, data):
        vectors, queries, gt = data
        flat = BqIvfIndex(DIM, nlist=1, seed=0).fit(vectors)
        clustered = BqIvfIndex(DIM, nlist=8, seed=0).fit(vectors)
        flat_ids = [flat.search(q, 10, nprobe=1)[1] for q in queries]
        full_ids = [clustered.search(q, 10, nprobe=8)[1] for q in queries]
        assert mean_recall_at_k(full_ids, gt, 10) == pytest.approx(
            mean_recall_at_k(flat_ids, gt, 10), abs=0.05
        )

    def test_rerank_improves_over_raw_hamming(self, data):
        vectors, queries, gt = data
        from repro.ann.quantization import BinaryQuantizer
        from repro.ann.distances import hamming_packed

        index = BqIvfIndex(DIM, nlist=1, seed=0).fit(vectors)
        bq = BinaryQuantizer().fit(vectors)
        codes = bq.encode(vectors)
        raw, reranked = [], []
        for i, q in enumerate(queries):
            h = hamming_packed(bq.encode_one(q), codes)
            raw_ids = np.argsort(h, kind="stable")[:10]
            raw.append(recall_at_k(raw_ids, gt[i], 10))
            _, ids = index.search(q, 10, nprobe=1)
            reranked.append(recall_at_k(ids, gt[i], 10))
        assert np.mean(reranked) >= np.mean(raw)

    def test_returned_distances_sorted(self, data):
        vectors, queries, _ = data
        index = BqIvfIndex(DIM, nlist=4, seed=0).fit(vectors)
        distances, _ = index.search(queries[0], 10, nprobe=4)
        assert (np.diff(distances) >= 0).all()


class TestHnsw:
    def test_reaches_high_recall(self, data):
        vectors, queries, gt = data
        index = HnswIndex(DIM, m=12, ef_construction=60, seed=0)
        index.add(vectors)
        ids = [index.search(q, 10, ef_search=80)[1] for q in queries]
        assert mean_recall_at_k(ids, gt, 10) > 0.85

    def test_recall_improves_with_ef(self, data):
        vectors, queries, gt = data
        index = HnswIndex(DIM, m=12, ef_construction=60, seed=0)
        index.add(vectors)
        low = mean_recall_at_k(
            [index.search(q, 10, ef_search=10)[1] for q in queries], gt, 10
        )
        high = mean_recall_at_k(
            [index.search(q, 10, ef_search=150)[1] for q in queries], gt, 10
        )
        assert high >= low

    def test_hop_count_accumulates(self, data):
        vectors, queries, _ = data
        index = HnswIndex(DIM, m=8, ef_construction=40, seed=0)
        index.add(vectors[:200])
        index.hop_count = 0
        index.search(queries[0], 5)
        assert index.hop_count > 0

    def test_graph_bytes_positive_and_degree_bounded(self, data):
        vectors, _, _ = data
        index = HnswIndex(DIM, m=8, ef_construction=40, seed=0)
        index.add(vectors[:200])
        assert index.graph_bytes() > 0
        assert index.average_degree() <= 2 * 8 + 1e-9

    def test_empty_search_raises(self):
        with pytest.raises(RuntimeError):
            HnswIndex(DIM).search(np.zeros(DIM, dtype=np.float32), 1)


class TestLsh:
    def test_recall_improves_with_probes(self, data):
        vectors, queries, gt = data
        index = LshIndex(DIM, n_bits=10, n_tables=6, seed=0)
        index.add(vectors)
        low = mean_recall_at_k(
            [index.search(q, 10, probes=1)[1] for q in queries], gt, 10
        )
        high = mean_recall_at_k(
            [index.search(q, 10, probes=2)[1] for q in queries], gt, 10
        )
        assert high >= low

    def test_candidates_grow_with_probes(self, data):
        vectors, queries, _ = data
        index = LshIndex(DIM, n_bits=10, n_tables=6, seed=0)
        index.add(vectors)
        assert index.candidates(queries[0], 2).size >= index.candidates(queries[0], 1).size

    def test_bits_bound(self):
        with pytest.raises(ValueError):
            LshIndex(DIM, n_bits=63)


class TestPq:
    def test_codes_shape(self, data):
        vectors, _, _ = data
        pq = ProductQuantizer(DIM, m=8, seed=0).fit(vectors)
        codes = pq.encode(vectors)
        assert codes.shape == (N, 8)

    def test_decode_reduces_error_vs_mean(self, data):
        vectors, _, _ = data
        pq = ProductQuantizer(DIM, m=8, seed=0).fit(vectors)
        decoded = pq.decode(pq.encode(vectors))
        pq_err = ((decoded - vectors) ** 2).sum()
        mean_err = ((vectors.mean(axis=0) - vectors) ** 2).sum()
        assert pq_err < mean_err

    def test_adc_close_to_exact(self, data):
        vectors, queries, _ = data
        pq = ProductQuantizer(DIM, m=16, seed=0).fit(vectors)
        codes = pq.encode(vectors)
        tables = pq.distance_tables(queries[0])
        adc = pq.adc_distances(tables, codes)
        exact = ((vectors - queries[0]) ** 2).sum(axis=1)
        corr = np.corrcoef(adc, exact)[0, 1]
        assert corr > 0.9

    def test_pq_ivf_with_rerank_beats_without(self, data):
        vectors, queries, gt = data
        index = PqIvfIndex(DIM, nlist=4, m=8, seed=0).fit(vectors)
        plain = mean_recall_at_k(
            [index.search(q, 10, nprobe=4)[1] for q in queries], gt, 10
        )
        reranked = mean_recall_at_k(
            [index.search(q, 10, nprobe=4, rerank_factor=10)[1] for q in queries],
            gt,
            10,
        )
        assert reranked >= plain


class TestRecallMetric:
    def test_perfect_recall(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0

    def test_partial_recall(self):
        assert recall_at_k([1, 9, 8], [1, 2, 3], 3) == pytest.approx(1 / 3)

    def test_only_first_k_count(self):
        assert recall_at_k([9, 9, 1], [1, 2], 2) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], 0)

    def test_mean_recall_requires_matched_lengths(self):
        with pytest.raises(ValueError):
            mean_recall_at_k([[1]], [[1], [2]], 1)


# --------------------------------------------------------------------------
# The index build streams the corpus in row blocks (repro.ann.blocks).  Its
# reference is the whole-matrix build it replaced, kept here verbatim.
# --------------------------------------------------------------------------


def _reference_pairwise(a, b):
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    cross = a @ b.T
    out = a_sq + b_sq - 2.0 * cross
    np.maximum(out, 0.0, out=out)
    return out


def _reference_kmeanspp(data, k, rng):
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float32)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    closest = _reference_pairwise(data, centroids[0:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i:] = data[rng.integers(0, n, size=k - i)]
            break
        probs = closest / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = data[chosen]
        dist_new = _reference_pairwise(data, centroids[i : i + 1]).ravel()
        np.minimum(closest, dist_new, out=closest)
    return centroids


def _reference_kmeans(
    data, k, max_iterations=25, tolerance=1e-4, seed=0, sample_limit=100_000
):
    """k-means over the whole ``(n, k)`` distance matrix with per-cluster
    masks: the algorithm ``repro.ann.kmeans.kmeans`` must equal bit for bit."""
    data = np.asarray(data, dtype=np.float32)
    n = data.shape[0]
    rng = make_rng("kmeans", seed, n, k)
    if n > sample_limit:
        train = data[rng.choice(n, size=sample_limit, replace=False)]
    else:
        train = data
    centroids = _reference_kmeanspp(train, k, rng)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _reference_pairwise(train, centroids)
        labels = distances.argmin(axis=1)
        inertia = float(distances[np.arange(train.shape[0]), labels].sum())
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = train[labels == cluster]
            if members.shape[0] > 0:
                new_centroids[cluster] = members.mean(axis=0)
            else:
                farthest = int(distances.min(axis=1).argmax())
                new_centroids[cluster] = train[farthest]
        centroids = new_centroids
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            break
        previous_inertia = inertia
    full_distances = _reference_pairwise(data, centroids)
    assignments = full_distances.argmin(axis=1).astype(np.int64)
    inertia = float(full_distances[np.arange(n), assignments].sum())
    return KMeansResult(centroids, assignments, inertia, iterations)


def _mask_lists(assignments, nlist):
    return [
        np.sort(np.nonzero(assignments == c)[0]).astype(np.int64)
        for c in range(nlist)
    ]


def _reference_embeddings(n, dim, n_clusters, cluster_std=0.5, seed=0):
    """``make_clustered_embeddings`` with its noise drawn in one shot."""
    rng = make_rng("corpus", seed, n, dim, n_clusters)
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    weights = 1.0 / np.arange(1, n_clusters + 1) ** 0.6
    weights /= weights.sum()
    labels = rng.choice(n_clusters, size=n, p=weights).astype(np.int64)
    per_coord = cluster_std / float(np.sqrt(dim))
    vectors = centers[labels] + per_coord * rng.standard_normal((n, dim)).astype(
        np.float32
    )
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors.astype(np.float32), labels


def _assert_same_clustering(got, want):
    assert got.centroids.dtype == want.centroids.dtype == np.float32
    assert got.assignments.dtype == want.assignments.dtype == np.int64
    assert np.array_equal(got.centroids, want.centroids)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


@contextmanager
def _row_block(value):
    """Context in which every build pass walks ``value``-row blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "ROW_BLOCK", value)
        yield


class TestRowBlocks:
    @pytest.mark.parametrize("block", [1, 7, blocks.ROW_BLOCK])
    def test_ranges_cover_every_row_once_and_fold_the_tail(self, block):
        with _row_block(block):
            for n in (0, 1, block - 1, block, block + 1, 2 * block - 1,
                      2 * block, 2 * block + 1, 5 * block + 3):
                ranges = blocks.row_blocks(n)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert all(lo % block == 0 for lo, _ in ranges)
                # No range is shorter than a block unless the input is:
                # a short tail would take another BLAS routine.
                assert all(hi - lo == block for lo, hi in ranges[:-1])
                last = ranges[-1][1] - ranges[-1][0]
                assert last == n if n < block else block <= last < 2 * block


class TestKmeansAgainstWholeMatrixReference:
    """``kmeans`` equals the whole-matrix reference bit for bit: centroids,
    assignments, inertia and iteration count."""

    @staticmethod
    def _data(kind, n, dim, seed):
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            return rng.standard_normal((n, dim)).astype(np.float32)
        # Duplicate-heavy: a handful of distinct integer rows (so a repeat's
        # distance is exactly 0): seeding runs out of distance mass
        # (``total <= 0``) and Lloyd finds empty clusters.
        pool = rng.integers(-3, 4, size=(max(1, n // 40), dim)).astype(np.float32)
        return pool[rng.integers(0, pool.shape[0], size=n)]

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["gaussian", "duplicates"]),
        n=st.integers(1, 3000),
        dim=st.sampled_from([1, 3, 8, 17, 33, 64]),
        k=st.integers(1, 48),
        seed=st.integers(0, 2**31),
        subsample=st.booleans(),
    )
    def test_property(self, kind, n, dim, k, seed, subsample):
        n = max(n, k)
        data = self._data(kind, n, dim, seed)
        limit = max(k, n // 2) if subsample else 100_000
        got = kmeans(data, k, seed=seed, sample_limit=limit)
        want = _reference_kmeans(data, k, seed=seed, sample_limit=limit)
        _assert_same_clustering(got, want)
        # The Lloyd early stop (kmeans module docstring) is kept, not fixed.
        assert got.iterations == 1

    def test_degenerate_data_reaches_both_reseed_branches(self):
        """3 distinct rows, 8 clusters: seeding exhausts the distance mass
        and five clusters come out of the Lloyd step empty."""
        data = np.repeat(np.eye(3, 5, dtype=np.float32), 20, axis=0)
        got = kmeans(data, 8, seed=3)
        assert np.unique(got.assignments).size == 3
        _assert_same_clustering(got, _reference_kmeans(data, 8, seed=3))

    @pytest.mark.parametrize("dim,k", [(64, 128), (17, 5), (33, 64)])
    def test_corpora_longer_than_a_block(self, dim, k):
        """The BLAS-facing half: the rows of a block-sized ``a @ b.T`` are
        bitwise the rows of the whole product.  Holds on a BLAS whose sgemm
        sums every output row in the same order wherever the row sits (the
        tail is folded into the last block so no product is short enough
        for another routine); one that does not must fail here, loudly."""
        block = blocks.ROW_BLOCK
        pool = np.random.default_rng(dim).standard_normal((3 * block, dim))
        for n in (block - 1, block, block + 1, 2 * block - 1, 2 * block,
                  2 * block + 1, 10_001):
            data = pool[:n].astype(np.float32)
            for limit in (100_000, n - 1000):
                got = kmeans(data, k, seed=n, sample_limit=limit)
                want = _reference_kmeans(data, k, seed=n, sample_limit=limit)
                _assert_same_clustering(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        block=st.sampled_from([1, 7]),
        exact=st.sampled_from(["grid", "line"]),
        tail=st.integers(-1, 1),
        multiple=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        subsample=st.booleans(),
    )
    def test_block_size_independence(
        self, block, exact, tail, multiple, k, seed, subsample
    ):
        """Blocks of 1 and 7 rows, n one below, at and one above a multiple
        of the block, on inputs whose arithmetic is exact in any summation
        order -- small integers clustered around their own seeds (no mean is
        taken), or one dimension (a 'sum' of one product) -- so the equality
        holds on every BLAS and pins the block walk itself."""
        n = max(k, block * multiple + tail)
        rng = np.random.default_rng(seed)
        if exact == "grid":
            data = rng.integers(-4, 5, size=(n, 5)).astype(np.float32)
            args = dict(max_iterations=0)
        else:
            data = rng.standard_normal((n, 1)).astype(np.float32)
            args = {}
        limit = max(k, n - 2) if subsample else 100_000
        want = _reference_kmeans(data, k, seed=seed, sample_limit=limit, **args)
        with _row_block(block):
            got = kmeans(data, k, seed=seed, sample_limit=limit, **args)
        _assert_same_clustering(got, want)


class TestBlockedBuildPasses:
    """The order-free passes of the build equal their one-shot forms at any
    block size, for n below, at and above a block."""

    CASES = [(1, n) for n in (1, 2, 5)] + [(7, n) for n in (6, 7, 8, 13, 14, 15, 50)]

    @pytest.mark.parametrize("nlist", [1, 7, 40])
    def test_inverted_lists_equal_the_mask_built_ones(self, data, nlist):
        vectors, _, _ = data
        model = build_ivf_model(vectors, nlist, seed=5)
        assignments = kmeans(vectors, nlist, max_iterations=20, seed=5).assignments
        want = _mask_lists(assignments, nlist)
        assert len(model.lists) == nlist
        for got, ref in zip(model.lists, want):
            assert got.dtype == np.int64
            assert np.array_equal(got, ref)
        assert np.array_equal(np.sort(np.concatenate(model.lists)), np.arange(N))

    @pytest.mark.parametrize("block,n", CASES + [
        (blocks.ROW_BLOCK, n)
        for n in (blocks.ROW_BLOCK - 1, blocks.ROW_BLOCK, 2 * blocks.ROW_BLOCK + 1)
    ])
    def test_clustered_embeddings_equal_the_one_shot_draw(self, block, n):
        want_vectors, want_labels = _reference_embeddings(n, 24, 5, seed="blk")
        with _row_block(block):
            vectors, labels = make_clustered_embeddings(n, 24, 5, seed="blk")
        assert vectors.dtype == np.float32 and labels.dtype == np.int64
        assert np.array_equal(vectors, want_vectors)
        assert np.array_equal(labels, want_labels)

    @pytest.mark.parametrize("block,n", CASES + [(blocks.ROW_BLOCK, 2 * blocks.ROW_BLOCK + 1)])
    def test_quantizers_equal_their_one_shot_forms(self, block, n):
        rng = np.random.default_rng(n)
        vectors = (rng.standard_normal((n, 16)) * 3 + 0.5).astype(np.float32)
        with _row_block(block):
            binary = BinaryQuantizer().fit(vectors)
            int8 = Int8Quantizer().fit(vectors)
            codes, codes_i8 = binary.encode(vectors), int8.encode(vectors)
        offset = vectors.mean(axis=0)
        spread = np.abs(vectors - offset).max()
        assert np.array_equal(binary.thresholds, offset)
        assert np.array_equal(int8.offset, offset)
        assert int8.scale == (float(spread) / 127.0 if spread > 0 else 1.0)
        want = np.packbits((vectors > offset).astype(np.uint8), axis=1)
        assert codes.dtype == np.uint8 and np.array_equal(codes, want)
        want_i8 = np.clip(
            np.round((vectors - offset) / int8.scale), -127, 127
        ).astype(np.int8)
        assert codes_i8.dtype == np.int8 and np.array_equal(codes_i8, want_i8)


def _programmed_pages(device):
    """``(plane, block, page) -> (data, oob)`` of every programmed page."""
    planes = device.ssd.array.planes
    return {
        (p, b, page): planes[p].golden_view(b, page)
        for (p, b), n_programmed in np.ndenumerate(device.ssd.array.pages.next_page)
        for page in range(n_programmed)
    }


def test_deployment_from_the_blocked_build_is_byte_identical():
    """``ivf_deploy(nlist=64)`` of a 20k-entry corpus and ``ivf_deploy`` of
    the model the whole-matrix reference builds leave the same flash image,
    slot order, filter threshold and quantizers."""
    n, nlist = 20_000, 64
    vectors, _ = make_clustered_embeddings(n, 64, nlist, seed="pin")
    device = ReisDevice(tiny_config("PIN"))
    db = device.database(device.ivf_deploy("pin", vectors, nlist=nlist, seed=0))

    reference = _reference_kmeans(vectors, nlist, max_iterations=20, seed=0)
    model = IvfModel(reference.centroids, _mask_lists(reference.assignments, nlist))
    twin = ReisDevice(tiny_config("PIN-REF"))
    ref = twin.database(twin.ivf_deploy("pin", vectors, ivf_model=model, seed=0))

    pages, ref_pages = _programmed_pages(device), _programmed_pages(twin)
    assert pages.keys() == ref_pages.keys() and len(pages) > 100
    for key, (data, oob) in pages.items():
        assert np.array_equal(data, ref_pages[key][0]), key
        assert np.array_equal(oob, ref_pages[key][1]), key
    assert np.array_equal(db.slot_to_original, ref.slot_to_original)
    assert db.filter_threshold == ref.filter_threshold
    assert np.array_equal(
        db.binary_quantizer.thresholds, ref.binary_quantizer.thresholds
    )
    assert db.int8_quantizer.scale == ref.int8_quantizer.scale
    assert np.array_equal(db.int8_quantizer.offset, ref.int8_quantizer.offset)
