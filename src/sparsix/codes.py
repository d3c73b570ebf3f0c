"""Random sparse label codebooks: each label owns one bucket per chunk.

A codebook assigns every label id a row of ``num_chunks`` bucket indexes,
each drawn by hashing the label id with a per-chunk seed.  Interpreted as a
binary vector of dimension ``num_chunks * buckets_per_chunk`` (one hot bucket
per chunk), two labels collide in a chunk with probability ``1/B``, so the
expected dot product between any two label vectors is ``K/B``, near zero for
realistic bucket counts.  The matrix is a pure function of the config and is
always rebuilt rather than persisted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hashing import derive_seed, murmur3_32_u64


@dataclass(frozen=True)
class CodeConfig:
    """Shape and seed of a codebook; total dimension is ``num_chunks * buckets_per_chunk``."""

    num_labels: int
    num_chunks: int
    buckets_per_chunk: int
    base_seed: int

    def __post_init__(self) -> None:
        if self.num_labels < 1:
            raise ValueError(f"num_labels must be >= 1, got {self.num_labels}")
        if self.num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {self.num_chunks}")
        if not 2 <= self.buckets_per_chunk <= 2**31:
            # codes are int32: the highest bucket, B - 1, must fit
            raise ValueError(
                f"buckets_per_chunk must be in [2, 2**31], got {self.buckets_per_chunk}"
            )
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must be an unsigned 64-bit integer")

    @property
    def total_dim(self) -> int:
        return self.num_chunks * self.buckets_per_chunk

    def chunk_seed(self, chunk: int) -> int:
        """64-bit seed for one chunk, split off the base seed."""
        return derive_seed(self.base_seed, chunk)


@dataclass(frozen=True)
class LabelCodebook:
    """Immutable ``num_labels x num_chunks`` matrix of bucket assignments."""

    config: CodeConfig
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        expected = (self.config.num_labels, self.config.num_chunks)
        if self.codes.shape != expected:
            raise ValueError(f"codes shape {self.codes.shape} != {expected}")
        self.codes.setflags(write=False)


@dataclass(frozen=True)
class OrthogonalityStats:
    """Pairwise dot-product statistics over sampled label pairs."""

    mean_dot: float
    max_dot: int
    histogram: np.ndarray  # counts indexed by dot value 0..num_chunks
    num_pairs: int


def build_codebook(config: CodeConfig) -> LabelCodebook:
    """Build the bucket-assignment matrix for *config*.

    Entry ``[i, k]`` is ``murmur3_32(i as 8 LE bytes, seed_k) mod B`` with
    ``seed_k`` split off the base seed, so rebuilding with the same config is
    bit-identical.  Modulo bias is accepted: B is tiny against 2**32.
    """
    n, k = config.num_labels, config.num_chunks
    b = config.buckets_per_chunk
    keys = np.arange(n, dtype=np.uint64)
    codes = np.empty((n, k), dtype=np.int32)
    for chunk in range(k):
        hashes = murmur3_32_u64(keys, config.chunk_seed(chunk))
        codes[:, chunk] = (hashes % np.uint32(b)).astype(np.int32)
    return LabelCodebook(config=config, codes=codes)


def orthogonality_stats(
    cb: LabelCodebook, num_pairs: int, sample_seed: int
) -> OrthogonalityStats:
    """Dot-product statistics over *num_pairs* random pairs with ``i != j``.

    ``mean_dot`` is an unbiased estimate of ``K/B``; the histogram counts
    pairs per dot value, which for independent per-chunk collisions follows
    ``Binomial(K, 1/B)``.
    """
    n = cb.config.num_labels
    if n < 2:
        raise ValueError("orthogonality stats need at least 2 labels")
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    rng = np.random.Generator(np.random.PCG64(sample_seed))
    i = rng.integers(0, n, size=num_pairs, dtype=np.int64)
    j = rng.integers(0, n, size=num_pairs, dtype=np.int64)
    clash = i == j
    while np.any(clash):
        j[clash] = rng.integers(0, n, size=int(clash.sum()), dtype=np.int64)
        clash = i == j
    dots = np.count_nonzero(cb.codes[i] == cb.codes[j], axis=1)
    hist = np.bincount(dots, minlength=cb.config.num_chunks + 1)
    return OrthogonalityStats(
        mean_dot=float(dots.mean()),
        max_dot=int(dots.max()),
        histogram=hist,
        num_pairs=num_pairs,
    )


def binomial_chisquare(
    histogram: np.ndarray, p: float, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Chi-square goodness of fit of a dot-value histogram to Binomial(K, p).

    ``histogram[d]`` counts pairs with dot value d, d = 0..K.  Adjacent bins
    are merged until every expected count reaches ``min_expected``, the
    usual validity condition for the chi-square approximation.  Returns
    (statistic, degrees of freedom, p-value); a single surviving bin means
    the test is vacuous and the p-value is 1.0.
    """
    from scipy import stats

    histogram = np.asarray(histogram, dtype=np.float64)
    trials = histogram.size - 1
    if trials < 1:
        raise ValueError("histogram must cover dot values 0..K with K >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    total = histogram.sum()
    observed = [float(x) for x in histogram]
    expected = [total * float(stats.binom.pmf(d, trials, p)) for d in range(trials + 1)]
    while len(expected) > 1 and min(expected) < min_expected:
        at = int(np.argmin(expected))
        into = at - 1 if at == len(expected) - 1 else at + 1
        expected[into] += expected.pop(at)
        observed[into] += observed.pop(at)
    if len(expected) == 1:
        return 0.0, 0, 1.0
    obs = np.array(observed)
    exp = np.array(expected)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    return stat, dof, float(stats.chi2.sf(stat, dof))
