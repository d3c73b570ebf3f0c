"""Documents and per-chunk feature hashing.

Bag-of-words inputs arrive as (token id, count) pairs over an unbounded id
space.  Each chunk model hashes token ids into its own fixed input dimension
with its own seed, so hash collisions differ across chunks and the ensemble
recovers most of the information any single chunk loses.

Values are token counts by default; binary mode saturates every occupied
slot at 1.  Hashing is unsigned (no sign flip): inputs stay non-negative,
which pairs well with ReLU hidden layers.

Rows are flat entries plus offsets, row r being ``[offsets[r]:offsets[r + 1]]``,
and no other module knows more of their layout.  A corpus is a ``DocBlock`` of
such rows, and a ``Document`` a handle on one of them that stores nothing else;
``make_document``, the one constructor that checks a row, gives a handle on a
one-row block of its own.  Handles of one block become a block, or hashed rows,
by one gather an array, and handles of several blocks are joined row by row.
``row_offsets`` builds offsets from row sizes.  ``merge_rows`` adds up a row's
entries that share a column, for a block of queries (``hash_features``, a row
per chunk seed and document) and a training block's inputs and targets
(``train``) alike: a stable sort keeps each column's entries in order, and one
``np.add.reduceat`` sums them.  Float sums past 2**53 depend on their order, so
this one merge keeps the query's and the training block's bits equal, and a
query's bits the same in any block.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .hashing import murmur3_32_u64

# Every feature mode, the one list EngineConfig and hash_features check against
FEATURE_MODES = ("counts", "binary")


@dataclass(frozen=True, slots=True, eq=False)
class Document:
    """One data point: a handle on row ``row`` of ``block``, under its own doc id.

    The row holds unique token ids (uint64) with counts (int64, >= 1) and
    strictly increasing label ids (int64, >= 0); each property returns a view of the
    block's row, taken on access, and the handle stores nothing else.  It keeps
    its block alive, as a view keeps its base, and pickles its row alone.  Two
    handles are equal only when they are the same object.

    Handles come from ``DocBlock.documents``, which does not check rows again
    (``corpus.read_block`` checked every line of a block it reads), or from
    :func:`make_document`, the one constructor that checks a row.
    """

    doc_id: int
    block: DocBlock = field(repr=False)
    row: int = field(repr=False)

    def __reduce__(self) -> tuple:
        return Document, (self.doc_id, DocBlock.from_documents([self]), 0)

    @property
    def token_ids(self) -> np.ndarray:
        t, r = self.block.token_offsets, self.row
        return self.block.token_ids[t[r] : t[r + 1]]

    @property
    def token_counts(self) -> np.ndarray:
        t, r = self.block.token_offsets, self.row
        return self.block.token_counts[t[r] : t[r + 1]]

    @property
    def labels(self) -> np.ndarray:
        l, r = self.block.label_offsets, self.row
        return self.block.labels[l[r] : l[r + 1]]


# DocBlock.documents sets a handle's slots through their descriptors: the dataclass's
# __init__ took 1.4-1.6 times as long a handle (40,000 handles, one Xeon core)
_set_doc_id, _set_block, _set_row = (getattr(Document, s).__set__ for s in Document.__slots__)


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
        """The documents' rows, in order, as one block.

        Handles of one block are taken by one gather an array; handles of
        several blocks, which no corpus read gives, are joined row by row.
        """
        keys = [id(d.block) for d in docs]
        if keys and keys.count(keys[0]) == len(keys):
            block, rows = docs[0].block, np.array([d.row for d in docs], dtype=np.int64)
            token_offsets, ids, counts = _take(
                block.token_offsets, rows, block.token_ids, block.token_counts
            )
            label_offsets, labels = _take(block.label_offsets, rows, block.labels)
            return cls(ids, counts, token_offsets, labels, label_offsets)
        ids, labels = [d.token_ids for d in docs], [d.labels for d in docs]
        return cls(
            np.concatenate([np.empty(0, np.uint64), *ids]),
            np.concatenate([np.empty(0, np.int64), *(d.token_counts for d in docs)]),
            row_offsets([a.size for a in ids]),
            np.concatenate([np.empty(0, np.int64), *labels]),
            row_offsets([a.size for a in labels]),
        )

    def documents(self, doc_ids: Sequence[int] | None = None) -> Iterator[Document]:
        """Each row as a :class:`Document`: row r under doc id ``doc_ids[r]``, or r.

        The rows are not checked again; a block holds the rows its builder checked.
        """
        # a list, so that without doc ids one int object is both a row's doc id and its row
        rows = list(range(self.token_offsets.size - 1))
        new = object.__new__
        for row, doc_id in zip(rows, rows if doc_ids is None else doc_ids, strict=True):
            doc = new(Document)
            _set_doc_id(doc, doc_id)
            _set_block(doc, self)
            _set_row(doc, row)
            yield doc

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


def make_document(doc_id: int, tokens: list[tuple[int, int]], labels: list[int]) -> Document:
    """A checked :class:`Document` from plain Python pairs, its labels sorted.

    The values are checked before any array is built: token ids unique and in
    [0, 2**64), counts in [1, 2**63), labels distinct and in [0, 2**63).  The
    handle is the only row of a block of its own.
    """
    ids, counts, labels = [t for t, _ in tokens], [c for _, c in tokens], sorted(labels)
    if min(ids, default=0) < 0:
        raise ValueError(f"doc {doc_id}: token ids must be >= 0")
    if len(set(ids)) != len(ids):
        raise ValueError(f"doc {doc_id}: duplicate token ids")
    if min(counts, default=1) < 1:
        raise ValueError(f"doc {doc_id}: token counts must be >= 1")
    if len(set(labels)) != len(labels):
        raise ValueError(f"doc {doc_id}: labels must be strictly increasing")
    if min(labels, default=0) < 0:
        raise ValueError(f"doc {doc_id}: labels must be >= 0")
    if max(ids, default=0) >= 2**64 or max(counts + labels, default=0) >= 2**63:
        raise ValueError(f"doc {doc_id}: id or count exceeds the 64-bit range")
    block = DocBlock(
        np.array(ids, np.uint64),
        np.array(counts, np.int64),
        row_offsets([len(ids)]),
        np.array(labels, np.int64),
        row_offsets([len(labels)]),
    )
    return next(block.documents([doc_id]))


def _take(offsets: np.ndarray, rows: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows ``rows`` of columns whose row r is ``[offsets[r]:offsets[r + 1]]``.

    Gives the taken rows' offsets, then each column's entries, by one gather.
    """
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    taken = row_offsets(sizes)
    index = np.arange(taken[-1]) + np.repeat(starts - taken[:-1], sizes)
    return (taken, *(c[index] for c in columns))


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
    # gather and the offsets saves 6 us of a 37 us call (K 4, 5 tokens)
    if n == 1:
        ids, counts = block[0].token_ids, block[0].token_counts
    else:
        joined = DocBlock.from_documents(block)
        ids, counts, offsets = joined.token_ids, joined.token_counts, joined.token_offsets
    slots = hash_token_ids(ids, [chunk_seed] if one else chunk_seed, feature_dim)
    values = np.empty(slots.shape)
    values[:] = counts  # each seed's row of the float64 counts
    # row j * n + r holds document r under seed j
    sizes = [ids.size] * len(slots) if n == 1 else np.tile(np.diff(offsets), len(slots))
    indptr, cols, values = merge_rows(
        slots.ravel(), values.ravel(), row_offsets(sizes), feature_dim, mode == "binary"
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
