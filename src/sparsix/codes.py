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

from .hashing import SEED_RANGE, check_ints, derive_seed, murmur3_32_u64

# build_codebook hashes this many labels at a time, so beyond the codebook it
# holds one block's keys and one hash call's scratch: 28 bytes a label, 1.75 MiB
CODEBOOK_BLOCK = 1 << 16
# binomial_chisquare merges bins until each expects this many: the chi-square's usual rule
CHI_SQUARE_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class CodeConfig:
    """Shape and seed of a codebook; total dimension is ``num_chunks * buckets_per_chunk``."""

    num_labels: int
    num_chunks: int
    buckets_per_chunk: int
    base_seed: int

    def __post_init__(self) -> None:
        check_ints(
            self,
            num_labels=(1, None),
            num_chunks=(1, None),
            buckets_per_chunk=(2, 2**31),  # codes are int32: the highest bucket, B - 1, must fit
            base_seed=SEED_RANGE,
        )

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
    bit-identical.  Modulo bias is accepted: B is tiny against 2**32.  Labels
    are hashed ``CODEBOOK_BLOCK`` at a time, so the build peaks at the
    codebook's 4·N·K bytes plus one block, whatever N.
    """
    n, k = config.num_labels, config.num_chunks
    b = np.uint32(config.buckets_per_chunk)
    seeds = [config.chunk_seed(chunk) for chunk in range(k)]
    codes = np.empty((n, k), dtype=np.int32)
    for start in range(0, n, CODEBOOK_BLOCK):
        keys = np.arange(start, min(start + CODEBOOK_BLOCK, n), dtype=np.uint64)
        for chunk, seed in enumerate(seeds):
            # below B <= 2**31, so every bucket fits int32
            codes[start : start + keys.size, chunk] = murmur3_32_u64(keys, seed) % b
    return LabelCodebook(config=config, codes=codes)


def codebook_bytes(config: CodeConfig) -> int:
    """Bytes of the int32 codebook :func:`build_codebook` returns, 4·N·K."""
    return 4 * config.num_labels * config.num_chunks


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


def binomial_chisquare(histogram: np.ndarray, p: float) -> tuple[float, int, float]:
    """Chi-square goodness of fit of a dot-value histogram to Binomial(K, p).

    ``histogram[d]`` counts pairs with dot value d, d = 0..K.  Adjacent bins
    are merged until every expected count reaches ``CHI_SQUARE_MIN_EXPECTED``.
    Returns (statistic, degrees of freedom, p-value); a single surviving bin
    means the test is vacuous and the p-value is 1.0.
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
    while len(expected) > 1 and min(expected) < CHI_SQUARE_MIN_EXPECTED:
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
