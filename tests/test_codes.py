"""Codebook tests: golden assignments, dot-product statistics, and config checks."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sparsix.codes import (
    CODEBOOK_BLOCK,
    CodeConfig,
    binomial_chisquare,
    build_codebook,
    orthogonality_stats,
)
from sparsix.hashing import derive_seed, murmur3_32_u64

# Bucket assignments for (N=4, K=2, B=8, seed=42), frozen from an
# independent implementation of the underlying hash.
GOLDEN_CODES = [[1, 7], [3, 3], [6, 2], [5, 5]]


def small_config(**overrides) -> CodeConfig:
    base = dict(num_labels=4, num_chunks=2, buckets_per_chunk=8, base_seed=42)
    base.update(overrides)
    return CodeConfig(**base)


class TestBuildCodebook:
    def test_golden_matrix(self):
        cb = build_codebook(small_config())
        assert cb.codes.tolist() == GOLDEN_CODES

    def test_deterministic(self):
        a = build_codebook(small_config())
        b = build_codebook(small_config())
        assert np.array_equal(a.codes, b.codes)

    def test_seed_changes_codes(self):
        a = build_codebook(small_config(base_seed=42))
        b = build_codebook(small_config(base_seed=43))
        assert not np.array_equal(a.codes, b.codes)

    def test_one_bucket_per_chunk(self):
        """Every label occupies exactly one bucket in every chunk."""
        cc = CodeConfig(num_labels=500, num_chunks=6, buckets_per_chunk=50, base_seed=1)
        cb = build_codebook(cc)
        assert cb.codes.shape == (500, 6)
        assert cb.codes.min() >= 0 and cb.codes.max() < 50

    def test_blocks_give_the_whole_array_codes(self):
        """Hashing the labels block by block changes no bit: past two block edges,
        every column equals one hash over all the label ids at once."""
        cc = CodeConfig(2 * CODEBOOK_BLOCK + 5, 3, 1000, base_seed=9)
        keys = np.arange(cc.num_labels, dtype=np.uint64)
        want = np.stack(
            [murmur3_32_u64(keys, cc.chunk_seed(k)) % np.uint32(1000) for k in range(3)], axis=1
        )
        assert np.array_equal(build_codebook(cc).codes, want)

    def test_build_peaks_at_the_codebook_plus_one_block(self):
        """N 1,000,000, K 4: a 16 MB codebook, and one block's 28 bytes a label beside it."""
        cc = CodeConfig(1_000_000, 4, 1000, base_seed=3)
        cb, peak = traced_peak(lambda: build_codebook(cc))
        assert cb.codes.nbytes == 16_000_000
        assert cb.codes.nbytes < peak <= cb.codes.nbytes + 28 * CODEBOOK_BLOCK + 64 * 1024

    def test_codes_read_only(self):
        cb = build_codebook(small_config())
        with pytest.raises(ValueError):
            cb.codes[0, 0] = 3

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        k=st.integers(min_value=1, max_value=8),
        b=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_shape_and_range(self, n, k, b, seed):
        cb = build_codebook(CodeConfig(n, k, b, seed))
        assert cb.codes.shape == (n, k)
        assert cb.codes.min() >= 0 and cb.codes.max() < b


class TestCodeConfig:
    def test_chunk_seed_matches_shared_derivation(self):
        cc = small_config()
        assert cc.chunk_seed(0) == derive_seed(42, 0)
        assert cc.chunk_seed(1) == derive_seed(42, 1)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(num_labels=0),
            dict(num_chunks=0),
            dict(buckets_per_chunk=1),
            dict(base_seed=-1),
            dict(base_seed=2**64),
            dict(num_labels=2000.0),
            dict(num_labels=True),
            dict(buckets_per_chunk=2**31 + 1),
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            small_config(**bad)

    def test_accepts_the_edges_and_numpy_ints(self):
        cc = small_config(num_labels=np.int64(3), buckets_per_chunk=2**31, base_seed=2**64 - 1)
        assert (cc.num_labels, cc.buckets_per_chunk, cc.base_seed) == (3, 2**31, 2**64 - 1)


class TestOrthogonalityStats:
    def test_mean_near_expected(self):
        """Mean pairwise dot concentrates on K/B within 4 standard errors."""
        k, b, pairs = 8, 250, 20000
        cb = build_codebook(CodeConfig(2000, k, b, base_seed=11))
        st_ = orthogonality_stats(cb, pairs, sample_seed=1)
        p = 1.0 / b
        se = np.sqrt(k * p * (1 - p) / pairs)
        assert abs(st_.mean_dot - k * p) <= 4 * se

    def test_histogram_accounts_for_all_pairs(self):
        cb = build_codebook(CodeConfig(100, 4, 16, 2))
        st_ = orthogonality_stats(cb, 5000, sample_seed=3)
        assert st_.histogram.sum() == 5000
        assert st_.histogram.size == 5
        assert st_.num_pairs == 5000
        assert 0 <= st_.max_dot <= 4

    def test_histogram_matches_binomial(self):
        k, b = 8, 250
        cb = build_codebook(CodeConfig(2000, k, b, base_seed=11))
        st_ = orthogonality_stats(cb, 20000, sample_seed=1)
        _, _, pvalue = binomial_chisquare(st_.histogram, 1.0 / b)
        assert pvalue >= 0.001

    def test_needs_two_labels(self):
        cb = build_codebook(CodeConfig(1, 2, 8, 0))
        with pytest.raises(ValueError):
            orthogonality_stats(cb, 10, sample_seed=0)


class TestBinomialChisquare:
    def test_perfect_fit_high_pvalue(self):
        from scipy import stats

        k, p, n = 6, 0.05, 100000
        hist = np.round(n * stats.binom.pmf(np.arange(k + 1), k, p))
        _, _, pvalue = binomial_chisquare(hist, p)
        assert pvalue > 0.9

    def test_wrong_distribution_low_pvalue(self):
        # all mass at dot=K cannot come from a small collision probability
        hist = np.array([0, 0, 0, 0, 10000])
        _, _, pvalue = binomial_chisquare(hist, 0.01)
        assert pvalue < 1e-6

    def test_bins_merged_to_valid_expectations(self):
        # heavy-tailed p: most bins expect < 5 and must merge, not crash
        hist = np.array([99200, 795, 5, 0, 0, 0, 0, 0, 0])
        stat, dof, pvalue = binomial_chisquare(hist, 0.001)
        assert dof >= 1 and 0.0 <= pvalue <= 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            binomial_chisquare(np.array([1, 2, 3]), 0.0)
