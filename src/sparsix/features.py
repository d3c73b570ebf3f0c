"""Documents and per-chunk feature hashing.

Bag-of-words inputs arrive as (token id, count) pairs over an unbounded id
space.  Each chunk model hashes token ids into its own fixed input dimension
with its own seed, so hash collisions differ across chunks and the ensemble
recovers most of the information any single chunk loses.

Values are token counts by default; binary mode saturates every occupied
slot at 1.  Hashing is unsigned (no sign flip): inputs stay non-negative,
which pairs well with ReLU hidden layers.

``merge_slots`` adds up colliding tokens, for a query (``hash_features``) and a
training block (``train._chunk_matrix``) alike: a stable sort keeps a slot's
tokens in token order, and one ``np.add.reduceat`` sums them.  Float sums past
2**53 depend on their order, so this one merge keeps the two paths' bits equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Literal

import numpy as np

from .hashing import murmur3_32_u64

FeatureMode = Literal["counts", "binary"]


@dataclass(frozen=True)
class Document:
    """One data point: unique token ids with counts, plus sorted label ids.

    Building one checks these rules.  ``DocBlock.documents`` builds its rows
    without checking them again: ``corpus.read_block`` checked every line of
    a block it reads, and ``DocBlock.from_documents`` takes checked documents.
    """

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

    @classmethod
    def _from_checked(
        cls, doc_id: int, token_ids: np.ndarray, token_counts: np.ndarray, labels: np.ndarray
    ) -> Document:
        """A document over arrays that already hold the rules ``__post_init__`` checks."""
        # set one attribute at a time, as the dataclass __init__ does: instances
        # then share their attribute names, half the bytes of a dict of their own
        doc = object.__new__(cls)
        object.__setattr__(doc, "doc_id", doc_id)
        object.__setattr__(doc, "token_ids", token_ids)
        object.__setattr__(doc, "token_counts", token_counts)
        object.__setattr__(doc, "labels", labels)
        return doc

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
            # cast, as hash_token_ids casts ids: promoting int64 with uint64 gives float64
            joined = np.concatenate([np.empty(0, dtype), *arrays], dtype=dtype, casting="unsafe")
            return joined, offsets

        ids, token_offsets = flat([d.token_ids for d in docs], np.uint64)
        labels, label_offsets = flat([d.labels for d in docs], np.int64)
        counts = np.concatenate([np.empty(0, np.int64), *(d.token_counts for d in docs)])
        return cls(ids, counts, token_offsets, labels, label_offsets)

    def documents(self) -> Iterator[Document]:
        """Each row as a :class:`Document` whose doc id is the row, over views of these arrays.

        The rows are not checked again; a block holds the rows its builder checked.
        """
        t, l = self.token_offsets.tolist(), self.label_offsets.tolist()
        ids, counts, labels = self.token_ids, self.token_counts, self.labels
        for row, (t0, t1, l0, l1) in enumerate(zip(t, t[1:], l, l[1:])):
            yield Document._from_checked(row, ids[t0:t1], counts[t0:t1], labels[l0:l1])

    @cached_property
    def distinct_tokens(self) -> int:
        """How many distinct token ids the block holds; they are sorted once per block."""
        return int(np.unique(self.token_ids).size)

    def labeled(self) -> DocBlock:
        """The rows that have labels, in order; ``self`` when every row has them."""
        keep = np.diff(self.label_offsets) > 0
        if keep.all():
            return self
        sizes = np.diff(self.token_offsets)
        tokens = np.repeat(keep, sizes)
        # a dropped row holds no labels, so the labels stay and only their offsets thin out
        return DocBlock(
            self.token_ids[tokens],
            self.token_counts[tokens],
            np.concatenate(([0], np.cumsum(sizes[keep]))),
            self.labels,
            np.concatenate(([0], self.label_offsets[1:][keep])),
        )


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
    """Sparse non-negative input vector: strictly increasing indexes below dim.

    Unchecked: ``merge_slots`` gives sorted unique slots, below dim by the modulo,
    and counts below 2**63 sum to finite values.
    """

    dim: int
    indexes: np.ndarray = field(repr=False)  # int64, strictly increasing
    values: np.ndarray = field(repr=False)  # float64, finite


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
    indexes, values = merge_slots(hashed, doc.token_counts.astype(np.float64), mode == "binary")
    return HashedFeatures(dim=feature_dim, indexes=indexes, values=values)


def merge_slots(
    keys: np.ndarray, values: np.ndarray, saturate: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys, sorted, with their values summed in input order; capped at 1 if ``saturate``."""
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    fresh = keys[1:] != keys[:-1]
    if not fresh.all():
        starts = np.concatenate(([True], fresh)).nonzero()[0]
        keys, values = keys[starts], np.add.reduceat(values, starts)
    if saturate:
        np.minimum(values, 1.0, out=values)
    return keys, values


def hash_token_ids(token_ids: np.ndarray, chunk_seed: int, feature_dim: int) -> np.ndarray:
    """Map raw token ids to hashed feature indexes, int64 (no accumulation).

    A uint32 hash modulo an int64 divisor gives int64 at once, the same values
    as reducing in uint32 and widening after.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    return murmur3_32_u64(token_ids, chunk_seed) % np.int64(feature_dim)
