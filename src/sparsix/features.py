"""Documents and per-chunk feature hashing.

Bag-of-words inputs arrive as (token id, count) pairs over an unbounded id
space.  Each chunk model hashes token ids into its own fixed input dimension
with its own seed, so hash collisions differ across chunks and the ensemble
recovers most of the information any single chunk loses.

Values are token counts by default; binary mode saturates every occupied
slot at 1.  Hashing is unsigned (no sign flip): inputs stay non-negative,
which pairs well with ReLU hidden layers.

``hash_features`` orders a document's hashed ids by a stable sort, so tokens
that land in the same slot end up adjacent; one ``np.add.reduceat`` over the
run starts merges them, a step skipped when no two tokens collide.  Counts
are integers, so the sums are exact in any order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .hashing import murmur3_32_u64

FeatureMode = Literal["counts", "binary"]


@dataclass(frozen=True)
class Document:
    """One data point: unique token ids with counts, plus sorted label ids."""

    doc_id: int
    token_ids: np.ndarray = field(repr=False)  # uint64, unique
    token_counts: np.ndarray = field(repr=False)  # int64, >= 1
    labels: np.ndarray = field(repr=False)  # int64, strictly increasing

    def __post_init__(self) -> None:
        ids, counts, labels = self.token_ids, self.token_counts, self.labels
        if ids.shape != counts.shape:
            raise ValueError("token ids and counts must align")
        if ids.size > 1:
            ordered = np.sort(ids)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError(f"doc {self.doc_id}: duplicate token ids")
        if counts.size and counts.min() < 1:
            raise ValueError(f"doc {self.doc_id}: token counts must be >= 1")
        if (labels[1:] <= labels[:-1]).any():
            raise ValueError(f"doc {self.doc_id}: labels must be strictly increasing")

    @property
    def num_tokens(self) -> int:
        return int(self.token_ids.size)


@dataclass(frozen=True)
class DocBlock:
    """Documents as five flat arrays, which pickle with no object per document.

    Row r is ``[offsets[r]:offsets[r + 1]]`` of its tokens' and its labels' arrays.
    """

    token_ids: np.ndarray = field(repr=False)  # uint64
    token_counts: np.ndarray = field(repr=False)  # int64
    token_offsets: np.ndarray = field(repr=False)  # int64, one more than the rows
    labels: np.ndarray = field(repr=False)  # int64
    label_offsets: np.ndarray = field(repr=False)  # int64, one more than the rows

    @classmethod
    def from_documents(cls, docs: list[Document]) -> DocBlock:
        def flat(arrays: list[np.ndarray], dtype: type) -> tuple[np.ndarray, np.ndarray]:
            offsets = np.cumsum([0] + [a.size for a in arrays], dtype=np.int64)
            return np.concatenate([np.empty(0, dtype), *arrays]), offsets

        ids, token_offsets = flat([d.token_ids for d in docs], np.uint64)
        labels, label_offsets = flat([d.labels for d in docs], np.int64)
        counts, _ = flat([d.token_counts for d in docs], np.int64)
        return cls(ids, counts, token_offsets, labels, label_offsets)


def make_document(
    doc_id: int,
    tokens: list[tuple[int, int]],
    labels: list[int],
) -> Document:
    """Build a validated :class:`Document` from plain Python pairs."""
    ids = np.array([t for t, _ in tokens], dtype=np.uint64)
    counts = np.array([c for _, c in tokens], dtype=np.int64)
    return Document(
        doc_id=doc_id,
        token_ids=ids,
        token_counts=counts,
        labels=np.array(sorted(labels), dtype=np.int64),
    )


@dataclass(frozen=True)
class HashedFeatures:
    """Sparse non-negative input vector: strictly increasing indexes below dim."""

    dim: int
    indexes: np.ndarray = field(repr=False)  # int64, strictly increasing
    values: np.ndarray = field(repr=False)  # float64, finite

    def __post_init__(self) -> None:
        idx = self.indexes
        if idx.size:
            if not (idx[1:] > idx[:-1]).all():
                raise ValueError("feature indexes must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("feature index out of range")
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")


def hash_features(
    doc: Document,
    chunk_seed: int,
    feature_dim: int,
    mode: FeatureMode = "counts",
) -> HashedFeatures:
    """Hash a document's token ids into ``[0, feature_dim)``.

    Colliding tokens accumulate: counts mode sums their counts, binary mode
    saturates the slot at 1.
    """
    if mode not in ("counts", "binary"):
        raise ValueError(f"unknown feature mode {mode!r}")
    hashed = hash_token_ids(doc.token_ids, chunk_seed, feature_dim)
    order = np.argsort(hashed, kind="stable")
    indexes = hashed[order]
    values = doc.token_counts[order].astype(np.float64)
    fresh = indexes[1:] != indexes[:-1]
    if not fresh.all():
        starts = np.concatenate(([True], fresh)).nonzero()[0]
        indexes = indexes[starts]
        values = np.add.reduceat(values, starts)
    if mode == "binary":
        np.minimum(values, 1.0, out=values)
    return HashedFeatures(dim=feature_dim, indexes=indexes, values=values)


def hash_token_ids(token_ids: np.ndarray, chunk_seed: int, feature_dim: int) -> np.ndarray:
    """Map raw token ids to hashed feature indexes (no accumulation)."""
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    hashed = murmur3_32_u64(np.asarray(token_ids, dtype=np.uint64), chunk_seed)
    return (hashed % np.uint32(feature_dim)).astype(np.int64)
