"""Inverted index tests: partition structure, golden postings, bucket loads."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sparsix.codes import CodeConfig, build_codebook
from sparsix.index import build_index, bucket_loads, index_bytes, lookup


def golden_index():
    return build_index(build_codebook(CodeConfig(4, 2, 8, base_seed=42)))


class TestBuildIndex:
    def test_golden_postings(self):
        idx = golden_index()
        # codes: label0=[1,7] label1=[3,3] label2=[6,2] label3=[5,5]
        expected_chunk0 = {1: [0], 3: [1], 5: [3], 6: [2]}
        expected_chunk1 = {2: [2], 3: [1], 5: [3], 7: [0]}
        for bucket in range(8):
            assert lookup(idx, 0, bucket).tolist() == expected_chunk0.get(bucket, [])
            assert lookup(idx, 1, bucket).tolist() == expected_chunk1.get(bucket, [])

    def test_postings_partition_labels(self):
        """Each chunk's buckets partition the label set exactly."""
        cc = CodeConfig(num_labels=300, num_chunks=5, buckets_per_chunk=16, base_seed=9)
        idx = build_index(build_codebook(cc))
        for chunk in range(5):
            seen = np.concatenate([lookup(idx, chunk, b) for b in range(16)])
            assert sorted(seen.tolist()) == list(range(300))

    def test_postings_sorted(self):
        cc = CodeConfig(num_labels=300, num_chunks=3, buckets_per_chunk=8, base_seed=9)
        idx = build_index(build_codebook(cc))
        for chunk in range(3):
            for bucket in range(8):
                post = lookup(idx, chunk, bucket)
                assert np.all(np.diff(post.astype(np.int64)) > 0)

    def test_postings_match_codebook(self):
        cc = CodeConfig(num_labels=120, num_chunks=4, buckets_per_chunk=10, base_seed=4)
        cb = build_codebook(cc)
        idx = build_index(cb)
        for chunk in range(4):
            for bucket in range(10):
                expected = np.flatnonzero(cb.codes[:, chunk] == bucket)
                assert lookup(idx, chunk, bucket).tolist() == expected.tolist()

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=5),
        b=st.integers(min_value=2, max_value=32),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_loads_sum_to_num_labels(self, n, k, b, seed):
        idx = build_index(build_codebook(CodeConfig(n, k, b, seed)))
        for chunk in range(k):
            assert bucket_loads(idx, chunk).sum() == n


def comparison_sort_index(cb):
    """The index from a stable comparison sort of each int32 code column."""
    b = cb.config.buckets_per_chunk
    offsets, labels = [], []
    for chunk in range(cb.config.num_chunks):
        column = cb.codes[:, chunk]
        assert column.dtype == np.int32
        offsets.append(np.concatenate([[0], np.cumsum(np.bincount(column, minlength=b))]))
        labels.append(np.argsort(column, kind="mergesort").astype(np.uint32))
    return offsets, labels


def assert_matches_comparison_sort(b, n):
    """``build_index`` gives the int32 stable sort's offsets and labels, bit for bit."""
    cb = build_codebook(CodeConfig(n, 3, b, base_seed=b))
    idx = build_index(cb)
    want_offsets, want_labels = comparison_sort_index(cb)
    for chunk in range(3):
        assert idx.offsets[chunk].dtype == np.int64
        assert idx.offsets[chunk].tobytes() == want_offsets[chunk].astype(np.int64).tobytes()
        assert idx.labels[chunk].dtype == np.uint32
        assert idx.labels[chunk].tobytes() == want_labels[chunk].tobytes()
        assert np.count_nonzero(bucket_loads(idx, chunk) == 0) >= max(b - n, 0)


class TestNarrowedSort:
    """The index sorts keys ``code << s | label``, s the bit length of N - 1, as
    uint32 while B << s is at most 2**32 and as uint64 past it."""

    @pytest.mark.parametrize("b", [2, 255, 256, 257, 65536, 65537])
    @pytest.mark.parametrize("n", [1, 3000])
    def test_matches_comparison_sort_bit_for_bit(self, b, n):
        """uint32 keys at every B here; n = 1 leaves all but one bucket empty."""
        assert_matches_comparison_sort(b, n)

    @pytest.mark.parametrize(
        "b, n", [(65536, 65536), (65537, 65536), (65537, 65537)],
        ids=["uint32-keys-at-the-edge", "uint64-keys", "uint64-keys-wider-labels"],
    )
    def test_wide_keys_match_comparison_sort_bit_for_bit(self, b, n):
        """B << s reaches 2**32 exactly at (65,536, 65,536): the largest key, 2**32 - 1,
        still fits uint32.  One bucket more, or one label more, takes uint64 keys."""
        assert_matches_comparison_sort(b, n)


class TestBuildMemory:
    def test_peak_is_the_tables_it_returns(self):
        """At B 2**24 the offsets take 128 MiB; the bucket loads are counted in them,
        not in a second B-sized array, so the slack does not grow with B."""
        config = CodeConfig(50, 1, 2**24, base_seed=3)
        cb = build_codebook(config)
        _, peak = traced_peak(lambda: build_index(cb))
        assert peak <= index_bytes(config) + 64 * 1024


class TestLookupErrors:
    def test_bad_chunk(self):
        idx = golden_index()
        with pytest.raises(ValueError):
            lookup(idx, 2, 0)

    def test_bad_bucket(self):
        idx = golden_index()
        with pytest.raises(ValueError):
            lookup(idx, 0, 8)


class TestLoadStatistics:
    def test_balanced_at_scale(self):
        """Random assignment keeps the worst bucket near the binomial tail."""
        cc = CodeConfig(num_labels=30000, num_chunks=2, buckets_per_chunk=1000, base_seed=3)
        idx = build_index(build_codebook(cc))
        for chunk in range(2):
            loads = bucket_loads(idx, chunk)
            assert loads.mean() == 30.0
            assert loads.max() <= 60
