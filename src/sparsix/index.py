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

    A stable argsort of the bucket column groups labels by bucket while
    keeping label order increasing inside each bucket.  The column is first
    narrowed to the smallest unsigned type that holds B - 1, so for B up to
    65,536 NumPy sorts it with a radix sort, O(N) per chunk.
    """
    cfg = cb.config
    n, b = cfg.num_labels, cfg.buckets_per_chunk
    offsets = []
    labels = []
    for k in range(cfg.num_chunks):
        column = cb.codes[:, k].astype(np.min_scalar_type(b - 1))
        loads = np.bincount(column, minlength=b)
        off = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(loads, out=off[1:])
        order = np.argsort(column, kind="stable").astype(np.uint32)
        assert off[-1] == n
        offsets.append(off)
        labels.append(order)
    return InvertedIndex(config=cfg, offsets=offsets, labels=labels)


def index_bytes(config: CodeConfig) -> int:
    """Bytes of :func:`build_index`'s tables: per chunk N uint32 labels and B + 1 int64 offsets.

    Building one chunk's table briefly holds its narrowed column and int64
    sort order (at most 12 bytes a label, less than the first query's
    :func:`infer.query_bytes`) and its bucket loads (8 bytes a bucket).
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
