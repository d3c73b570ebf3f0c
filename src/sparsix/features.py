"""Documents and per-chunk feature hashing.

Bag-of-words inputs arrive as (token id, count) pairs over an unbounded id
space.  Each chunk model hashes token ids into its own fixed input dimension
with its own seed, so hash collisions differ across chunks and the ensemble
recovers most of the information any single chunk loses.

Values are token counts by default; binary mode saturates every occupied
slot at 1.  Hashing is unsigned (no sign flip): inputs stay non-negative,
which pairs well with ReLU hidden layers.

Rows are flat entries plus offsets, row r being ``[offsets[r]:offsets[r + 1]]``,
and no other module knows more of their layout.  ``row_offsets`` builds offsets
from row sizes.  ``merge_rows`` adds up a row's entries that share a column, for
a block of queries (``hash_features``, a row per chunk seed and document) and a
training block's inputs and targets (``train``) alike: a stable sort keeps each
column's entries in order, and one ``np.add.reduceat`` sums them.  Float sums
past 2**53 depend on their order, so this one merge keeps the query's and the
training block's bits equal, and a query's bits the same in any block.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .hashing import murmur3_32_u64

# Every feature mode, the one list EngineConfig and hash_features check against
FEATURE_MODES = ("counts", "binary")


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
    def from_documents(cls, docs: Sequence[Document]) -> DocBlock:
        ids, counts, sizes = _flat_tokens(docs)
        labels = [d.labels for d in docs]
        joined = np.concatenate([np.empty(0, np.int64), *labels], dtype=np.int64, casting="unsafe")
        return cls(ids, counts, row_offsets(sizes), joined, row_offsets([a.size for a in labels]))

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
            row_offsets(sizes[keep]),
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


def _flat_tokens(docs: Sequence[Document]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The documents' token ids (uint64) and counts (int64), joined, and each one's size."""
    ids = [d.token_ids for d in docs]
    # cast, as hash_token_ids casts ids: promoting int64 with uint64 gives float64
    joined = np.concatenate([np.empty(0, np.uint64), *ids], dtype=np.uint64, casting="unsafe")
    counts = np.concatenate([np.empty(0, np.int64), *(d.token_counts for d in docs)])
    return joined, counts, [a.size for a in ids]


@dataclass(frozen=True)
class HashedFeatures:
    """Sparse non-negative input rows, each with strictly increasing indexes below dim.

    Row r is ``[offsets[r]:offsets[r + 1]]`` of ``indexes`` and ``values``;
    without offsets, every entry is one row.  Unchecked: ``merge_rows`` gives
    each row's columns sorted and unique, below dim, and counts below 2**63
    sum to finite values.
    """

    dim: int
    indexes: np.ndarray = field(repr=False)  # int64, strictly increasing in each row
    values: np.ndarray = field(repr=False)  # float64, finite
    offsets: np.ndarray | None = field(default=None, repr=False)  # int64, one more than the rows


def hash_features(
    docs: Document | Sequence[Document],
    chunk_seed: int | Sequence[int],
    feature_dim: int,
    mode: str = "counts",
) -> HashedFeatures | list[HashedFeatures]:
    """Hash documents' token ids into ``[0, feature_dim)``, for one seed or many.

    Colliding tokens accumulate: counts mode sums their counts, binary mode
    saturates the slot at 1.  One document is one row; a sequence of
    documents gives a row per document, in order.  One int *chunk_seed* gives
    one :class:`HashedFeatures`; a sequence of seeds gives one per seed, in
    order.

    Every seed's and document's slots are hashed in one ``hash_token_ids``
    call and merged in one ``merge_rows``, a row per seed and document, so
    each row's sums have the bits of merging it alone.
    """
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {mode!r}")
    one = isinstance(chunk_seed, (int, np.integer))
    block = [docs] if isinstance(docs, Document) else docs
    n = len(block)
    # a lone document's arrays are already flat, and its features one row: skipping the
    # join and the offsets saves 6 us of a 37 us call (K 4, 5 tokens)
    if n == 1:
        ids, counts, sizes = block[0].token_ids, block[0].token_counts, [block[0].num_tokens]
    else:
        ids, counts, sizes = _flat_tokens(block)
    slots = hash_token_ids(ids, [chunk_seed] if one else chunk_seed, feature_dim)
    values = np.empty(slots.shape)
    values[:] = counts  # each seed's row of the float64 counts
    # row j * n + r holds document r under seed j
    indptr, cols, values = merge_rows(
        slots.ravel(), values.ravel(), row_offsets(sizes * len(slots)), feature_dim, mode == "binary"
    )
    bounds, feats = indptr.tolist(), []
    for j in range(len(slots)):
        rows = bounds[j * n : (j + 1) * n + 1]
        a, b = rows[0], rows[-1]
        offsets = None if n == 1 else np.array([end - a for end in rows], dtype=np.int64)
        feats.append(HashedFeatures(feature_dim, cols[a:b], values[a:b], offsets))
    return feats[0] if one else feats


def row_offsets(sizes: Sequence[int] | np.ndarray) -> np.ndarray:
    """The offsets of rows of ``sizes`` entries each: 0, then their running sum, int64."""
    offsets = np.zeros(len(sizes) + 1, np.int64)
    np.add.accumulate(sizes, dtype=np.int64, out=offsets[1:])  # np.cumsum, at a third of its call cost
    return offsets


def merge_rows(
    cols: np.ndarray, values: np.ndarray, offsets: np.ndarray, dim: int, saturate: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the entries each row has in one column, as CSR ``(indptr, cols, values)``.

    Row r is entries ``offsets[r]:offsets[r + 1]``, each column below ``dim`` and
    2**32.  Each row's columns come out sorted and unique, each value the sum of
    its entries in input order, capped at 1 if ``saturate``.  One stable sort over
    the keys ``row * stride + column`` (int64 below 2**31 rows) and one
    ``np.add.reduceat`` merge every row, each with the bits of merging it alone.
    """
    stride = min(dim, 2**32)
    firsts = np.arange(offsets.size, dtype=np.int64) * stride  # each row's first key
    keys = np.repeat(firsts[:-1], offsets[1:] - offsets[:-1]) + cols
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    fresh = keys[1:] != keys[:-1]
    if not fresh.all():
        starts = np.concatenate(([True], fresh)).nonzero()[0]
        keys, values = keys[starts], np.add.reduceat(values, starts)
    if saturate:
        np.minimum(values, 1.0, out=values)
    indptr = keys.searchsorted(firsts)
    keys %= stride
    return indptr, keys, values


def hash_token_ids(
    token_ids: np.ndarray, chunk_seed: int | Sequence[int], feature_dim: int
) -> np.ndarray:
    """Map raw token ids to hashed feature indexes, int64 (no accumulation).

    One int *chunk_seed* gives the ids' shape; a sequence of K seeds gives a
    ``(K, *token_ids.shape)`` array, one row per seed, as ``murmur3_32_u64``.
    A uint32 hash modulo an int64 divisor gives int64 at once, the same values
    as reducing in uint32 and widening after.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    return murmur3_32_u64(token_ids, chunk_seed) % np.int64(feature_dim)
