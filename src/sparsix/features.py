"""Documents and per-chunk feature hashing.

Bag-of-words inputs arrive as (token id, count) pairs over an unbounded id
space.  Each chunk model hashes token ids into its own fixed input dimension
with its own seed, so hash collisions differ across chunks and the ensemble
recovers most of the information any single chunk loses.

Values are token counts by default; binary mode saturates every occupied
slot at 1.  Hashing is unsigned (no sign flip): inputs stay non-negative,
which pairs well with ReLU hidden layers.
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
        if self.token_ids.shape != self.token_counts.shape:
            raise ValueError("token ids and counts must align")
        if self.token_ids.size and len(np.unique(self.token_ids)) != self.token_ids.size:
            raise ValueError(f"doc {self.doc_id}: duplicate token ids")
        if np.any(self.token_counts < 1):
            raise ValueError(f"doc {self.doc_id}: token counts must be >= 1")
        if self.labels.size and np.any(np.diff(self.labels) <= 0):
            raise ValueError(f"doc {self.doc_id}: labels must be strictly increasing")

    @property
    def num_tokens(self) -> int:
        return int(self.token_ids.size)


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
        if self.indexes.size:
            if np.any(np.diff(self.indexes) <= 0):
                raise ValueError("feature indexes must be strictly increasing")
            if self.indexes[0] < 0 or self.indexes[-1] >= self.dim:
                raise ValueError("feature index out of range")
        if not np.all(np.isfinite(self.values)):
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
    indexes, inverse = np.unique(hashed, return_inverse=True)
    values = np.zeros(indexes.size, dtype=np.float64)
    np.add.at(values, inverse, doc.token_counts.astype(np.float64))
    if mode == "binary":
        values = np.minimum(values, 1.0)
    return HashedFeatures(dim=feature_dim, indexes=indexes, values=values)


def hash_token_ids(token_ids: np.ndarray, chunk_seed: int, feature_dim: int) -> np.ndarray:
    """Map raw token ids to hashed feature indexes (no accumulation)."""
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    hashed = murmur3_32_u64(np.asarray(token_ids, dtype=np.uint64), chunk_seed)
    return (hashed % np.uint32(feature_dim)).astype(np.int64)
