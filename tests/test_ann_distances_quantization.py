"""Unit and property tests for distance kernels and quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ann.distances import (
    hamming_packed,
    inner_product,
    int8_l2_squared,
    l2_squared,
    pairwise_l2_squared,
    row_norms_squared,
)
from repro.ann.quantization import BinaryQuantizer, Int8Quantizer

float_vectors = arrays(
    np.float32,
    st.tuples(st.integers(2, 20), st.just(16)),
    elements=st.floats(-10, 10, width=32),
)


class TestDistances:
    @given(float_vectors)
    @settings(max_examples=30)
    def test_l2_matches_numpy(self, vectors):
        query = vectors[0]
        expected = ((vectors - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            l2_squared(query, vectors), expected, rtol=1e-4, atol=1e-3
        )

    @given(float_vectors)
    @settings(max_examples=30)
    def test_inner_product_matches_numpy(self, vectors):
        query = vectors[0]
        np.testing.assert_allclose(
            inner_product(query, vectors), vectors @ query, rtol=1e-4, atol=1e-3
        )

    def test_l2_of_self_is_zero(self):
        v = np.random.default_rng(0).standard_normal((5, 8)).astype(np.float32)
        distances = l2_squared(v[2], v)
        assert distances[2] == pytest.approx(0.0, abs=1e-5)

    @given(st.binary(min_size=8, max_size=8), st.integers(2, 30), st.data())
    @settings(max_examples=30)
    def test_hamming_matches_unpackbits(self, query_bytes, n, data):
        query = np.frombuffer(query_bytes, dtype=np.uint8).copy()
        codes = np.frombuffer(
            data.draw(st.binary(min_size=8 * n, max_size=8 * n)), dtype=np.uint8
        ).reshape(n, 8).copy()
        expected = np.unpackbits(codes ^ query, axis=1).sum(axis=1)
        distances = hamming_packed(query, codes)
        assert distances.dtype == np.int64
        assert np.array_equal(distances, expected)
        # A stack of queries is the stack of their rows.
        assert np.array_equal(
            hamming_packed(codes[:2], codes),
            [hamming_packed(codes[0], codes), hamming_packed(codes[1], codes)],
        )

    def test_hamming_identity_is_zero(self):
        code = np.arange(16, dtype=np.uint8)
        assert hamming_packed(code, code[None, :])[0] == 0

    def test_hamming_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, 16, dtype=np.uint8)
        b = rng.integers(0, 256, 16, dtype=np.uint8)
        assert hamming_packed(a, b[None, :])[0] == hamming_packed(b, a[None, :])[0]

    def test_int8_l2(self):
        q = np.array([1, -1], dtype=np.int8)
        codes = np.array([[1, -1], [3, 1]], dtype=np.int8)
        distances = int8_l2_squared(q, codes)
        assert distances.tolist() == [0, 8]

    def test_pairwise_matches_rowwise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((6, 8)).astype(np.float32)
        matrix = pairwise_l2_squared(a, b)
        for i in range(4):
            np.testing.assert_allclose(matrix[i], l2_squared(a[i], b), rtol=1e-4, atol=1e-3)
        # Norms the caller already holds give the same matrix, bit for bit.
        a_sq, b_sq = row_norms_squared(a), row_norms_squared(b)
        assert np.array_equal(pairwise_l2_squared(a, b, a_sq, b_sq), matrix)
        assert np.array_equal(pairwise_l2_squared(a, b, b_sq=b_sq), matrix)


class TestBinaryQuantizer:
    def test_code_size_is_32x_compression(self):
        assert BinaryQuantizer.code_bytes(1024) == 128  # 4096B fp32 -> 128B

    def test_dimension_must_be_multiple_of_8(self):
        with pytest.raises(ValueError):
            BinaryQuantizer.code_bytes(12)
        with pytest.raises(ValueError):
            BinaryQuantizer().encode(np.zeros((2, 12), dtype=np.float32))

    def test_threshold_at_training_mean(self):
        vectors = np.array([[0.0, 10.0]] * 4 + [[2.0, 20.0]] * 4, dtype=np.float32)
        bq = BinaryQuantizer().fit(np.tile(vectors, (1, 4)))
        np.testing.assert_allclose(bq.thresholds[:2], [1.0, 15.0])

    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(4, 16), st.just(16)),
            elements=st.floats(-5, 5, width=32),
        )
    )
    @settings(max_examples=30)
    def test_encode_matches_sign_rule(self, vectors):
        bq = BinaryQuantizer().fit(vectors)
        codes = bq.encode(vectors)
        bits = np.unpackbits(codes, axis=1)
        expected = (vectors > bq.thresholds).astype(np.uint8)
        assert np.array_equal(bits[:, : vectors.shape[1]], expected)

    def test_encode_one_matches_batch(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((6, 32)).astype(np.float32)
        bq = BinaryQuantizer().fit(vectors)
        assert np.array_equal(bq.encode_one(vectors[3]), bq.encode(vectors)[3])

    def test_unfitted_uses_zero_threshold(self):
        bq = BinaryQuantizer()
        codes = bq.encode(np.array([[1.0, -1.0] * 4], dtype=np.float32))
        bits = np.unpackbits(codes, axis=1)[0]
        assert bits.tolist() == [1, 0] * 4


class TestInt8Quantizer:
    def test_codes_within_int8_range(self):
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((32, 16)).astype(np.float32) * 100
        q = Int8Quantizer().fit(vectors)
        codes = q.encode(vectors)
        assert codes.dtype == np.int8
        assert codes.min() >= -127
        assert codes.max() <= 127

    def test_roundtrip_error_bounded_by_scale(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((64, 16)).astype(np.float32)
        q = Int8Quantizer().fit(vectors)
        decoded = q.decode(q.encode(vectors))
        assert np.abs(decoded - vectors).max() <= q.scale * 0.5 + 1e-6

    def test_distance_ordering_preserved(self):
        """INT8 rerank must rank near-duplicates of the query first."""
        rng = np.random.default_rng(9)
        base = rng.standard_normal(64).astype(np.float32)
        near = base + 0.01 * rng.standard_normal(64).astype(np.float32)
        far = base + 1.0 * rng.standard_normal(64).astype(np.float32)
        vectors = np.stack([near, far])
        q = Int8Quantizer().fit(np.vstack([vectors, base[None, :]]))
        query_i8 = q.encode_one(base).astype(np.int32)
        codes = q.encode(vectors).astype(np.int32)
        d = ((codes - query_i8) ** 2).sum(axis=1)
        assert d[0] < d[1]

    def test_constant_data_degenerate_scale(self):
        vectors = np.ones((4, 8), dtype=np.float32)
        q = Int8Quantizer().fit(vectors)
        codes = q.encode(vectors)
        assert (codes == 0).all()
