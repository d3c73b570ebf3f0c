"""Sparse retrieval: top-m bucket selection, candidate lookup, score fusion.

A query is embedded once per chunk (hash, forward pass) to give a K x B
matrix of bucket probabilities.  Keeping only the m highest-probability
buckets per chunk turns the embedding into a candidate generator: the labels
posted in the selected buckets form the candidate set.  Candidates are then
scored with the full probability rows, one bucket per chunk, so setting
m = B reproduces brute-force scoring over every label exactly.

One cut rule, ``_top_k``, serves both bucket selection and label ranking:
ties break toward the lower index and NaN ranks lowest, which keeps every
stage reproducible.

After the K*m bucket lookups no stage does work that grows with the catalog
size N: the union sorts the R retrieved postings and drops repeats,
O(R log R); scoring gathers one probability per chunk and candidate, O(K*U)
for U unique candidates; ranking partitions to the top_k and sorts only
those, O(U + top_k log top_k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeConfig, LabelCodebook
from .features import Document, hash_features
from .index import InvertedIndex, lookup
from .model import ChunkEnsemble, forward

AGGREGATION_MODES = ("full-vector", "truncated")


@dataclass(frozen=True)
class InferParams:
    """Knobs for one retrieval call."""

    m: int
    top_k: int
    aggregation: str = "full-vector"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")


@dataclass(frozen=True)
class QuerySparseEmbedding:
    """Per-chunk bucket probabilities plus the surviving top-m bucket ids."""

    probs: np.ndarray  # (K, B) float64
    top_buckets: list[np.ndarray]  # per chunk, ascending bucket ids, size <= m

    def __post_init__(self) -> None:
        if self.probs.ndim != 2:
            raise ValueError("probs must be a (num_chunks, buckets) matrix")
        if len(self.top_buckets) != self.probs.shape[0]:
            raise ValueError("one bucket selection per chunk required")


@dataclass
class OpCounters:
    """Work actually done for one query, for cost accounting."""

    buckets_scored: int = 0  # probability entries computed (K * B)
    candidates_retrieved: int = 0  # posting entries read, with multiplicity
    unique_candidates: int = 0
    scores_summed: int = 0  # (chunk, candidate) additions performed


@dataclass(frozen=True)
class Prediction:
    labels: np.ndarray  # int64, best first
    scores: np.ndarray  # float64, descending
    counters: OpCounters


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest values, ascending; ties keep the lower position.

    A partition finds the k-th largest value, the cut.  Every entry above
    the cut survives, then the lowest positions among the entries equal to
    it fill the k places: the set a full sort by (value descending,
    position) would keep first.  NaN ranks below every number: when the cut
    is NaN, every number survives and the lowest-position NaNs fill the rest.
    """
    neg = -values
    cut = np.partition(neg, k - 1)[k - 1]
    if cut != cut:  # NaN
        tied = np.isnan(neg)
        keep = ~tied
    else:
        keep = neg <= cut
        picked = keep.nonzero()[0]
        if picked.size == k:  # no run of ties straddles the cut
            return picked.astype(np.int64, copy=False)
        tied = neg == cut
        keep = neg < cut
    need = k - np.count_nonzero(keep)
    keep[tied.nonzero()[0][:need]] = True
    return keep.nonzero()[0].astype(np.int64, copy=False)


def sparsify_topm(probs_row: np.ndarray, m: int) -> np.ndarray:
    """Indexes of the m largest entries, ascending; ties keep the lower index.

    The selection is a set, since downstream lookups do not care about
    rank.  NaN ranks below every number.
    """
    probs_row = np.asarray(probs_row, dtype=np.float64)
    if probs_row.ndim != 1:
        raise ValueError("expected a single chunk's probability row")
    b = probs_row.size
    if not 1 <= m <= b:
        raise ValueError(f"m must be in [1, {b}], got {m}")
    return _top_k(probs_row, m)


def embed_query(
    ensemble: ChunkEnsemble, doc: Document, m: int
) -> QuerySparseEmbedding:
    """Hash and score the query in every chunk, then keep m buckets each."""
    k = ensemble.code_config.num_chunks
    b = ensemble.code_config.buckets_per_chunk
    probs = np.empty((k, b))
    for chunk in range(k):
        feats = hash_features(
            doc,
            ensemble.engine.chunk_feature_seed(chunk),
            ensemble.engine.feature_dim,
            ensemble.engine.feature_mode,
        )
        probs[chunk] = forward(ensemble.models[chunk], feats)
    tops = [sparsify_topm(probs[chunk], m) for chunk in range(k)]
    return QuerySparseEmbedding(probs=probs, top_buckets=tops)


def retrieve_candidates(
    idx: InvertedIndex, emb: QuerySparseEmbedding, counters: OpCounters
) -> np.ndarray:
    """Union of labels posted in the selected buckets, ascending int64.

    The concatenated uint32 postings are sorted in place and each value that
    differs from the one before it is kept: O(R log R) in the R retrieved
    postings, and nothing the size of the catalog.
    """
    postings = []
    for chunk, buckets in enumerate(emb.top_buckets):
        for bucket in buckets.tolist():
            postings.append(lookup(idx, chunk, int(bucket)))
    merged = np.concatenate(postings) if postings else np.empty(0, dtype=np.uint32)
    counters.candidates_retrieved += int(merged.size)
    merged.sort()
    first = np.empty(merged.size, dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    candidates = merged[first].astype(np.int64)
    counters.unique_candidates += int(candidates.size)
    return candidates


def aggregate_scores(
    cb: LabelCodebook,
    emb: QuerySparseEmbedding,
    candidates: np.ndarray,
    counters: OpCounters,
    aggregation: str = "full-vector",
) -> np.ndarray:
    """Score candidates by summing their bucket probability in each chunk.

    full-vector mode reads one probability per chunk for every candidate, so
    the score is the exact dot product between the query's probability matrix
    and the candidate's code, independent of which buckets survived top-m.
    truncated mode zeroes contributions from buckets that were pruned.

    The K terms are summed in chunk order, starting from 0.0.  ``predict``
    and ``predict_full`` both score through here, so m = B reproduces brute
    force bit for bit.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
    candidates = np.asarray(candidates, dtype=np.int64)
    k, b = emb.probs.shape
    if candidates.size == 0:
        return np.empty(0, dtype=np.float64)
    codes = np.take(cb.codes, candidates, axis=0)  # (n, K)
    probs = emb.probs
    if aggregation == "truncated":
        selected = np.zeros((k, b), dtype=bool)
        for chunk in range(k):
            selected[chunk, emb.top_buckets[chunk]] = True
        probs = np.where(selected, probs, 0.0)
        counters.scores_summed += int(np.count_nonzero(selected[np.arange(k), codes]))
    else:
        counters.scores_summed += int(codes.size)
    scores = np.zeros(candidates.size)
    for chunk in range(k):
        scores += probs[chunk].take(codes[:, chunk])
    return scores


def _rank(labels: np.ndarray, scores: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort by descending score, lower label id first on ties, cut to top_k.

    ``labels`` must be ascending, as ``retrieve_candidates`` and ``np.arange``
    give them: then the lower position is the lower label, so ``_top_k``
    keeps the right ties and only the kept entries are sorted,
    O(U + top_k log top_k) for U scores.
    """
    if top_k < scores.size:
        keep = _top_k(scores, top_k)
        labels, scores = labels[keep], scores[keep]
    order = np.lexsort((labels, -scores))
    return labels[order], scores[order]


def predict(
    ensemble: ChunkEnsemble,
    cb: LabelCodebook,
    idx: InvertedIndex,
    doc: Document,
    params: InferParams,
) -> Prediction:
    """Sparse retrieval for one query: embed, prune, look up, fuse, rank."""
    counters = OpCounters()
    emb = embed_query(ensemble, doc, params.m)
    counters.buckets_scored = int(emb.probs.size)
    candidates = retrieve_candidates(idx, emb, counters)
    scores = aggregate_scores(cb, emb, candidates, counters, params.aggregation)
    labels, scores = _rank(candidates, scores, params.top_k)
    return Prediction(labels=labels, scores=scores, counters=counters)


def predict_full(
    ensemble: ChunkEnsemble,
    cb: LabelCodebook,
    doc: Document,
    top_k: int,
) -> Prediction:
    """Brute-force reference: score every label, no pruning, no index."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counters = OpCounters()
    emb = embed_query(ensemble, doc, ensemble.code_config.buckets_per_chunk)
    counters.buckets_scored = int(emb.probs.size)
    n = cb.config.num_labels
    all_labels = np.arange(n, dtype=np.int64)
    counters.candidates_retrieved = n
    counters.unique_candidates = n
    scores = aggregate_scores(cb, emb, all_labels, counters, "full-vector")
    labels, scores = _rank(all_labels, scores, top_k)
    return Prediction(labels=labels, scores=scores, counters=counters)


def query_bytes(config: CodeConfig) -> int:
    """Peak bytes of one query at m = B, or of one ``predict_full``, beside the tables.

    The larger of its two stages.  The union holds K·N uint32 postings sorted
    in place, a K·N-byte mask of repeats, and the N unique labels as uint32 and
    then int64: 5·K·N + 12·N bytes.  Scoring holds the N int64 candidates, the
    (N, K) int32 code gather, the int64 indexes ``take`` converts a column to,
    the N float64 scores and one gathered row: 4·K·N + 32·N bytes.  Ranking
    holds less than scoring: the candidates, the scores and two score-sized
    copies.
    """
    n, k = config.num_labels, config.num_chunks
    return max(5 * k * n + 12 * n, 4 * k * n + 32 * n)


# --- cost model -----------------------------------------------------------
#
# Comparison-count estimates for the retrieval stage, after the per-chunk
# probability rows exist.  Logs are base 2.  Expected candidates per bucket
# is N/B, so K chunks times m buckets yields K*m*N/B retrieved entries.  The
# ranking term prices each entry as a push into a top-k heap of the fixed
# evaluation depth 5, hence the log2(5) factor.  That heap is a model, not
# the code: the union sorts the retrieved entries, O(R log R), and ``_rank``
# partitions the U unique candidates and sorts only the top_k,
# O(U + top_k log top_k).  The formula stays the heap model because
# acceptance criterion 8 pins it.  The dense baseline scores all N labels at
# m=B and is priced with the same heap.


def op_count_bound(num_labels: int, buckets: int, chunks: int, m: int) -> float:
    """Expected sparse-path op count: selection + retrieval + heap pushes."""
    if min(num_labels, buckets, chunks, m) < 1:
        raise ValueError("all op-count inputs must be >= 1")
    retrieved = chunks * m * num_labels / buckets
    return buckets * math.log2(m) + retrieved + retrieved * math.log2(5)


def dense_op_count(num_labels: int, m: int, chunks: int) -> float:
    """Brute-force op count: m-sparse dot against every label, plus heap."""
    if min(num_labels, chunks, m) < 1:
        raise ValueError("all op-count inputs must be >= 1")
    return num_labels * m * chunks + num_labels * math.log2(5)
