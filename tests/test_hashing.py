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
