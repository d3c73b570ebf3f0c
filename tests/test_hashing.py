"""Hash layer tests: frozen reference vectors and scalar/vector agreement.

The byte-level reference values were computed with an independent C
implementation of the same 32-bit hash; the seed-derivation values chain a
published 64-bit mixing function whose first output from state 0 is a known
constant.  A regression here silently re-keys every codebook and feature
map, so these stay byte-frozen.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsix.hashing import derive_seed, murmur3_32, murmur3_32_u64

BYTE_VECTORS = [
    (b"", 0x00000000, 0x00000000),
    (b"", 0x00000001, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"\x00\x00\x00\x00", 0x00000000, 0x2362F9DE),
    (b"test", 0x00000000, 0xBA6BD213),
    (b"test", 0x9747B28C, 0x704B81DC),
    (b"Hello, world!", 0x00000000, 0xC0363E43),
    (b"The quick brown fox", 42, 0xD109DB5F),
]

U64_VECTORS = [
    (0, 0, 0x63852AFC),
    (0, 1, 0xEA95647D),
    (1, 0, 0x53075D44),
    (1, 1, 0xDF087715),
    (2, 7, 0xCB24F146),
    (3, 7, 0x878E9112),
    (42, 12345, 0x6BEEC181),
    (2**63, 0xDEADBEEF, 0xDD4B8443),
    (2**64 - 1, 0xFFFFFFFF, 0xC6FD26E5),
    (123456789, 987654321, 0xBA67B8B2),
]

DERIVE_VECTORS = [
    (0, (0,), 0xE220A8397B1DCDAF),
    (0, (1,), 0xE4D971771B652C20),
    (1, (0,), 0x910A2DEC89025CC1),
    (42, (0,), 0xBDD732262FEB6E95),
    (42, (1,), 0x118E846EA93BC949),
    (42, (15,), 0x974E35325981068A),
    (0xDEADBEEFCAFEBABE, (3,), 0x97FA5175415DA42F),
    (7, (2, 5), 0x820033D5B597A6A1),
    (7, (5, 2), 0x7BFFCA5039D912B7),
    (2**64 - 1, (2**64 - 1,), 0x336503C6B835BEC0),
]


class TestScalarHash:
    @pytest.mark.parametrize("data,seed,expected", BYTE_VECTORS)
    def test_frozen_vectors(self, data, seed, expected):
        assert murmur3_32(data, seed) == expected

    def test_output_range(self):
        for n in range(64):
            h = murmur3_32(bytes(range(n)), seed=n)
            assert 0 <= h < 2**32

    def test_deterministic(self):
        assert murmur3_32(b"abcdef", 9) == murmur3_32(b"abcdef", 9)

    def test_seed_changes_hash(self):
        assert murmur3_32(b"abcdef", 1) != murmur3_32(b"abcdef", 2)


class TestVectorizedHash:
    @pytest.mark.parametrize("key,seed,expected", U64_VECTORS)
    def test_frozen_vectors(self, key, seed, expected):
        out = murmur3_32_u64(np.array([key], dtype=np.uint64), seed)
        assert int(out[0]) == expected

    @pytest.mark.parametrize("key,seed,expected", U64_VECTORS)
    def test_matches_scalar_on_le_bytes(self, key, seed, expected):
        """The vectorized path hashes the 8 little-endian key bytes."""
        assert murmur3_32(int(key).to_bytes(8, "little"), seed & 0xFFFFFFFF) == expected

    def test_empty_input(self):
        out = murmur3_32_u64(np.empty(0, dtype=np.uint64), 3)
        assert out.shape == (0,) and out.dtype == np.uint32

    def test_input_left_unchanged(self):
        """The rounds run in place on copies; the caller's keys are never written."""
        keys = np.array([0, 1, 2**63, 2**64 - 1, 123456789], dtype=np.uint64)
        before = keys.copy()
        out = murmur3_32_u64(keys, 7)
        assert np.array_equal(keys, before)
        assert not np.shares_memory(out, keys)

    @pytest.mark.parametrize("key,seed,expected", U64_VECTORS[:4])
    def test_zero_d_input(self, key, seed, expected):
        for arg in (np.uint64(key), np.array(key, dtype=np.uint64), key):
            out = murmur3_32_u64(arg, seed)
            assert isinstance(out, np.uint32)
            assert int(out) == expected

    def test_keeps_input_shape(self):
        keys = np.arange(6, dtype=np.uint64).reshape(2, 3)
        out = murmur3_32_u64(keys, 5)
        assert out.shape == (2, 3)
        assert np.array_equal(out.ravel(), murmur3_32_u64(keys.ravel(), 5))

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_vectorized_equals_scalar(self, keys, seed):
        """Property: batch output elementwise equals the byte-path scalar."""
        arr = np.array(keys, dtype=np.uint64)
        batch = murmur3_32_u64(arr, seed)
        for k, h in zip(keys, batch.tolist()):
            assert murmur3_32(int(k).to_bytes(8, "little"), seed & 0xFFFFFFFF) == h


def scalar_hashes(keys, seed: int) -> list[int]:
    """``murmur3_32`` of each key's 8 little-endian bytes, seed masked to 32 bits."""
    return [
        murmur3_32(int(k).to_bytes(8, "little"), seed & 0xFFFFFFFF)
        for k in np.asarray(keys, dtype=np.uint64).ravel().tolist()
    ]


def assert_k_wide(keys, seeds) -> None:
    """``murmur3_32_u64(keys, seeds)`` stacks the one-seed calls, bit for bit."""
    out = murmur3_32_u64(keys, seeds)
    shape = np.shape(keys)
    assert isinstance(out, np.ndarray) and out.dtype == np.uint32
    assert out.shape == (len(seeds), *shape)
    for row, seed in zip(out, seeds):
        one = murmur3_32_u64(keys, seed)
        assert row.shape == shape and row.tobytes() == np.asarray(one).tobytes()


class TestAnyKeyLayout:
    """The rounds read the keys as little-endian 32-bit words; every layout and
    byte order an array can have hashes its values, as the scalar path does.
    A sequence of seeds hashes them under every seed at once, with the bits of
    one call per seed."""

    KEYS = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=24)
    SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
    MORE_SEEDS = st.lists(SEEDS, max_size=4)

    @settings(max_examples=100, deadline=None)
    @given(keys=KEYS, seed=SEEDS, more=MORE_SEEDS, step=st.integers(1, 4), reverse=st.booleans())
    def test_strided(self, keys, seed, more, step, reverse):
        arr = np.array(keys, dtype=np.uint64)[:: -step if reverse else step]
        assert murmur3_32_u64(arr, seed).tolist() == scalar_hashes(arr, seed)
        assert_k_wide(arr, [seed, *more])

    @settings(max_examples=100, deadline=None)
    @given(keys=KEYS, seed=SEEDS, more=MORE_SEEDS, rows=st.integers(1, 4))
    def test_two_d_non_contiguous(self, keys, seed, more, rows):
        arr = np.array(keys * rows, dtype=np.uint64).reshape(rows, len(keys))
        for view in (arr.T, arr[:, ::2], arr[::-1, 1:]):
            out = murmur3_32_u64(view, seed)
            assert out.shape == view.shape and out.dtype == np.uint32
            assert out.ravel().tolist() == scalar_hashes(view, seed)
            assert_k_wide(view, (seed, *more))

    @settings(max_examples=100, deadline=None)
    @given(keys=KEYS, seed=SEEDS, more=MORE_SEEDS)
    def test_byte_swapped(self, keys, seed, more):
        big = np.array(keys, dtype=np.uint64).astype(">u8")
        assert murmur3_32_u64(big, seed).tolist() == scalar_hashes(keys, seed)
        assert murmur3_32_u64(big[::2], seed).tolist() == scalar_hashes(keys[::2], seed)
        assert_k_wide(big, [seed, *more])
        assert_k_wide(big[::2], [seed, *more])

    @settings(max_examples=100, deadline=None)
    @given(key=st.integers(min_value=0, max_value=2**64 - 1), seed=SEEDS, more=MORE_SEEDS)
    def test_zero_d(self, key, seed, more):
        native = np.array(key, dtype=np.uint64)
        for arg in (np.uint64(key), native, native.astype(">u8"), key):
            out = murmur3_32_u64(arg, seed)
            assert isinstance(out, np.uint32)
            assert int(out) == scalar_hashes([key], seed)[0]
            assert_k_wide(arg, [seed, *more])

    @pytest.mark.parametrize("seeds", [[], [3], [3, 3], [0, 2**32 - 1, 2**32, 2**64 - 1]])
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty(self, seeds, shape):
        keys = np.empty(shape, dtype=np.uint64)
        assert_k_wide(keys, seeds)
        assert murmur3_32_u64(keys, np.array(seeds, dtype=np.uint64)).shape == (len(seeds), *shape)

    @pytest.mark.parametrize("seed", [2**32, 2**32 + 7, 2**63 + 12345, 2**64 - 1])
    def test_seed_masked_to_32_bits(self, seed):
        keys = np.array([0, 1, 2**63, 2**64 - 1, 123456789], dtype=np.uint64)
        out = murmur3_32_u64(keys, seed)
        assert out.tolist() == scalar_hashes(keys, seed)
        assert out.tolist() == murmur3_32_u64(keys, seed & 0xFFFFFFFF).tolist()
        assert_k_wide(keys, [seed, seed & 0xFFFFFFFF, 2**32 - 1, 0])
        assert_k_wide(keys, np.array([seed, seed & 0xFFFFFFFF], dtype=np.uint64))
        assert_k_wide(keys, [np.uint64(seed), 2**64 + 5])


class TestDeriveSeed:
    @pytest.mark.parametrize("base,parts,expected", DERIVE_VECTORS)
    def test_frozen_vectors(self, base, parts, expected):
        assert derive_seed(base, *parts) == expected

    def test_order_sensitive(self):
        assert derive_seed(7, 2, 5) != derive_seed(7, 5, 2)

    def test_part_count_sensitive(self):
        assert derive_seed(7, 2) != derive_seed(7, 2, 0)

    def test_range(self):
        for base in (0, 1, 42, 2**64 - 1):
            for part in (0, 3, 2**63):
                assert 0 <= derive_seed(base, part) < 2**64

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=2**64 - 1),
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=0, max_value=1000),
    )
    def test_distinct_parts_distinct_seeds(self, base, a, b):
        if a != b:
            assert derive_seed(base, a) != derive_seed(base, b)
