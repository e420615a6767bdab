"""Bit-identity properties for the vectorized host hot path.

The vectorization contract is exact equality, not approximation: every
kernel that replaced a per-item Python loop must reproduce the scalar
path bit for bit.  Three kernels get direct property coverage here:

* :func:`repro.core.shard.merge_order` -- the one ``np.lexsort`` behind
  every shard merge barrier -- reproduces the Python tuple sort for any
  stacked key columns whose least-significant key is unique (slots and
  shortlist positions are, because vectors are partitioned, never
  replicated);
* batched codec encode/decode (:class:`~repro.ann.quantization.BinaryQuantizer`,
  :class:`~repro.ann.quantization.Int8Quantizer`) equals the per-vector
  ``encode_one``/scalar path row for row, including the float32 decode;
* the region writer's page packer (``core.layout._page_rows``, behind
  ``program_slots``) produces the pages slot-by-slot writes into zeroed
  pages would (rows narrower than a slot included).

End-to-end bit-identity (ids AND distances through the full sharded
serving stack) is covered by ``TestShardedBitIdentity`` in
``tests/test_core_shard.py``; these properties pin the kernels the
barriers are built from.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ann.quantization import BinaryQuantizer, Int8Quantizer
from repro.core.layout import _page_rows
from repro.core.shard import merge_order

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMergeOrderProperty:
    """The lexsort merge == the single-device tuple sort, any key stack."""

    @given(st.data())
    @SETTINGS
    def test_matches_tuple_sort(self, data):
        n = data.draw(st.integers(1, 64))
        n_tie_keys = data.draw(st.integers(0, 2))
        keys = [
            # Distances and probe ranks carry heavy ties; a tiny value
            # range forces the tie-break keys to do the work.
            np.array(
                data.draw(
                    st.lists(st.integers(0, 4), min_size=n, max_size=n)
                ),
                dtype=np.int64,
            )
            for _ in range(1 + n_tie_keys)
        ]
        # The least-significant key is unique across the stack, exactly
        # like canonical slots / shortlist positions in the router.
        keys.append(
            np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        )
        order = merge_order(*keys)
        reference = sorted(
            range(n), key=lambda i: tuple(int(k[i]) for k in keys)
        )
        assert order.tolist() == reference

    @given(st.integers(1, 64), st.integers(1, 64))
    @SETTINGS
    def test_truncated_head_is_the_global_head(self, n, k):
        # Truncating the merged order to k (the barrier's [:k]) selects
        # exactly the k smallest tuples.
        rng = np.random.default_rng(n * 1000 + k)
        dists = rng.integers(0, 5, size=n).astype(np.int64)
        slots = rng.permutation(n).astype(np.int64)
        head = merge_order(dists, slots)[:k]
        reference = sorted(range(n), key=lambda i: (dists[i], slots[i]))[:k]
        assert head.tolist() == reference


class TestBatchedCodecBitIdentity:
    """Batch encode/decode == the scalar per-vector path, row for row."""

    shapes = st.tuples(
        st.integers(1, 24),  # n vectors
        st.sampled_from([8, 16, 64]),  # dim (multiple of 8 for packing)
        st.booleans(),  # fitted (trained thresholds/offset) or default
        st.integers(0, 10**6),  # seed
    )

    @staticmethod
    def _quantizers(shape):
        n, dim, fitted, seed = shape
        rng = np.random.default_rng(seed)
        vectors = rng.normal(0.0, 2.0, size=(n, dim)).astype(np.float32)
        binary, int8 = BinaryQuantizer(), Int8Quantizer()
        if fitted:
            train = rng.normal(0.5, 1.0, size=(32, dim)).astype(np.float32)
            binary.fit(train)
            int8.fit(train)
        return vectors, binary, int8

    @given(shapes)
    @SETTINGS
    def test_binary_encode_batch_equals_rows(self, shape):
        vectors, binary, _ = self._quantizers(shape)
        batch = binary.encode(vectors)
        for row, vector in zip(batch, vectors):
            assert np.array_equal(row, binary.encode_one(vector))

    @given(shapes)
    @SETTINGS
    def test_int8_roundtrip_batch_equals_rows(self, shape):
        vectors, _, int8 = self._quantizers(shape)
        codes = int8.encode(vectors)
        decoded = int8.decode(codes)
        for i, vector in enumerate(vectors):
            code_one = int8.encode_one(vector)
            assert np.array_equal(codes[i], code_one)
            # The float32 decode is elementwise, so the batched decode is
            # bit-identical to decoding each row alone.
            assert np.array_equal(decoded[i], int8.decode(code_one))


class TestPagePackerBitIdentity:
    """The page packer == slot-by-slot writes into zeroed pages."""

    @given(st.data())
    @SETTINGS
    def test_packed_pages_equal_slot_by_slot_writes(self, data):
        n_slots = data.draw(st.integers(0, 40))
        item_bytes = data.draw(st.integers(1, 16))
        width = data.draw(st.integers(0, item_bytes))
        slots_per_page = data.draw(st.integers(1, 8))
        n_pages = -(-n_slots // slots_per_page)
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        rows = rng.integers(0, 256, size=(n_slots, width)).astype(np.uint8)

        packed = _page_rows(rows, n_pages, slots_per_page, item_bytes)
        pages = np.zeros((n_pages, slots_per_page * item_bytes), dtype=np.uint8)
        for slot in range(n_slots):
            page, i = divmod(slot, slots_per_page)
            pages[page, i * item_bytes : i * item_bytes + width] = rows[slot]
        assert np.array_equal(packed, pages)
