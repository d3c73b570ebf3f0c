"""Per-chunk inverted indexes mapping buckets to sorted label lists.

One index per chunk.  Chunk ``k`` places label ``i`` in the postings list of
bucket ``codes[i, k]``, so per chunk the postings lists partition the label
space.  Storage is CSR-style: an offsets array of length ``B + 1`` plus a
label array of length ``N``, which keeps lookups allocation-free and bucket
loads O(1).  Like the codebook, the index is a pure function of the code
config, so every reader rebuilds it rather than loading it from a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import CodeConfig, LabelCodebook


@dataclass(frozen=True)
class InvertedIndex:
    """K chunk tables; ``offsets[k][b] : offsets[k][b+1]`` slices chunk k's bucket b."""

    config: CodeConfig
    offsets: list[np.ndarray] = field(repr=False)  # per chunk, shape (B+1,)
    labels: list[np.ndarray] = field(repr=False)  # per chunk, shape (N,)

    def __post_init__(self) -> None:
        for arr in (*self.offsets, *self.labels):
            arr.setflags(write=False)


def build_index(cb: LabelCodebook) -> InvertedIndex:
    """Invert a codebook into per-chunk postings.

    Each chunk sorts one key per label, ``code << s | label`` with s the bit
    length of N - 1, in the narrowest unsigned type that holds them (uint32,
    else uint64), and keeps each key's low s bits, its label.  The keys are
    distinct, so any sort gives the order of a stable argsort of the code
    column: labels grouped by bucket, increasing inside each bucket.
    """
    cfg = cb.config
    n, b = cfg.num_labels, cfg.buckets_per_chunk
    shift = (n - 1).bit_length()
    key_type = np.uint32 if b << shift <= 2**32 else np.uint64
    offsets = []
    labels = []
    for k in range(cfg.num_chunks):
        keys = cb.codes[:, k].astype(key_type)
        # bucket loads, summed in place and shifted by one: one B-sized array
        off = np.bincount(keys, minlength=b + 1)
        np.cumsum(off, out=off)
        off[1:] = off[:-1]
        off[0] = 0
        assert off[-1] == n
        keys <<= shift
        keys |= np.arange(n, dtype=key_type)
        keys.sort()
        keys &= (1 << shift) - 1
        offsets.append(off)
        labels.append(keys.astype(np.uint32, copy=False))
    return InvertedIndex(config=cfg, offsets=offsets, labels=labels)


def index_bytes(config: CodeConfig) -> int:
    """Bytes of :func:`build_index`'s tables: per chunk N uint32 labels and B + 1 int64 offsets.

    Building one chunk's table briefly holds its keys beside their int64 copy
    that ``bincount`` makes, or beside the label ids: at most 16 bytes a label,
    less than the first query's :func:`infer.query_bytes`.  It counts the
    bucket loads in the offsets array itself.
    """
    return config.num_chunks * (4 * config.num_labels + 8 * (config.buckets_per_chunk + 1))


def lookup(idx: InvertedIndex, chunk: int, bucket: int) -> np.ndarray:
    """Sorted labels in one bucket, as a read-only view (no copy)."""
    _check_chunk(idx, chunk)
    if not 0 <= bucket < idx.config.buckets_per_chunk:
        raise ValueError(
            f"bucket {bucket} out of range [0, {idx.config.buckets_per_chunk})"
        )
    off = idx.offsets[chunk]
    return idx.labels[chunk][off[bucket] : off[bucket + 1]]


def bucket_loads(idx: InvertedIndex, chunk: int) -> np.ndarray:
    """Postings length of every bucket in one chunk."""
    _check_chunk(idx, chunk)
    off = idx.offsets[chunk]
    return np.diff(off)


def _check_chunk(idx: InvertedIndex, chunk: int) -> None:
    if not 0 <= chunk < idx.config.num_chunks:
        raise ValueError(f"chunk {chunk} out of range [0, {idx.config.num_chunks})")
