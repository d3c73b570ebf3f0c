"""Sparse retrieval: top-m bucket selection, candidate lookup, score fusion.

Queries are embedded a block at a time (``embed_block``): one call hashes
every query of the block for all K chunks, each chunk under its own seed,
one forward pass a chunk gives each query its row of a K x B matrix of
bucket probabilities, and one cut keeps the m highest-probability buckets
of every query's K rows.  Each row keeps its own BLAS products, so a
query's bits never depend on its block, and ``predict`` is a block of one.
Keeping only m buckets per chunk turns the embedding into a candidate
generator: the labels posted in the selected buckets form the candidate
set.  Candidates are then scored with the full probability rows, one bucket
per chunk, so setting m = B reproduces brute-force scoring over every label
exactly.  ``predict`` and ``predict_block`` search each embedded query by
the same function.

One cut rule, ``_top_k``, serves both bucket selection and label ranking:
ties break toward the lower index and NaN ranks lowest, which keeps every
stage reproducible.

``predict`` scores no label that cannot rank.  It sorts the K*m selected
buckets by probability, strongest first, and visits a prefix of them: the
labels posted there are scored exactly against the whole embedding and
ranked.  A label posted in no visited bucket draws each chunk's term from an
unvisited bucket, so it scores at most the sum over chunks of each chunk's
strongest unvisited selected probability: an unselected bucket is no
stronger in full-vector mode and counts 0 in truncated mode.  Once the
top_k-th visited score beats that bound, no unvisited label can enter the
top_k, and the labels, their order and their score bits are those of
scoring the whole union.  Otherwise the prefix doubles while it holds at most
a quarter of the selection, and then the whole selection is scored.  This is
the threshold algorithm of Fagin, Lotem and Naor (PODS 2001), with one sorted
list per chunk and its per-list threshold.

No stage does work that grows with the catalog size N: a pass's union sorts
its R retrieved postings and drops repeats, O(R log R); scoring gathers one
probability per chunk and candidate, O(K*U) for U unique candidates; ranking
partitions to the top_k and sorts only those, O(U + top_k log top_k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .codes import CodeConfig, LabelCodebook
from .features import Document, hash_features
from .hashing import check_ints
from .index import InvertedIndex, lookup
from .model import ChunkEnsemble, EngineConfig, forward

AGGREGATION_MODES = ("full-vector", "truncated")


@dataclass(frozen=True)
class InferParams:
    """Knobs for one retrieval call."""

    m: int
    top_k: int
    aggregation: str = "full-vector"

    def __post_init__(self) -> None:
        check_ints(self, m=(1, None), top_k=(1, None))
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")


@dataclass(frozen=True)
class QuerySparseEmbedding:
    """Per-chunk bucket probabilities plus the surviving top-m bucket ids."""

    probs: np.ndarray  # (K, B) float64
    top_buckets: Sequence[np.ndarray]  # per chunk, ascending bucket ids, size <= m

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
    """Positions of each row's k largest values along the last axis, ascending;
    ties keep the lower position.  The result has ``values``'s shape, with k
    in its last axis.

    A partition finds the k-th largest value, the cut.  Every entry above
    the cut survives, then the lowest positions among the entries equal to
    it fill the k places: the set a full sort by (value descending,
    position) would keep first.  NaN ranks below every number: when the cut
    is NaN, every number survives and the lowest-position NaNs fill the rest.
    The partition runs in place on the negated copy, which puts NaN last.

    A block of rows is partitioned and cut at once: each row keeps every
    entry not below its cut, NaN included, at least k, and exactly its
    selection when there are k.  If some row keeps more, each row is cut on
    its own.
    """
    neg = -values
    neg.partition(k - 1)
    if values.ndim > 1:
        n = values.shape[-1]
        keep = values < -neg[..., k - 1 : k]
        np.logical_not(keep, out=keep)
        if np.count_nonzero(keep) == keep.size // n * k:
            positions = keep.ravel().nonzero()[0] % n
        else:  # a run of ties or NaN straddles some row's cut
            positions = np.concatenate([_top_k(row, k) for row in values.reshape(-1, n)])
        return positions.astype(np.int64, copy=False).reshape(values.shape[:-1] + (k,))
    cut = -neg[k - 1]
    if cut != cut:  # NaN
        tied = np.isnan(values)
        keep = ~tied
    else:
        keep = values >= cut
        if np.count_nonzero(keep) == k:  # no run of ties straddles the cut
            return keep.nonzero()[0].astype(np.int64, copy=False)
        tied = values == cut
        keep = values > cut
    need = k - np.count_nonzero(keep)
    keep[tied.nonzero()[0][:need]] = True
    return keep.nonzero()[0].astype(np.int64, copy=False)


def sparsify_topm(probs: np.ndarray, m: int) -> np.ndarray:
    """Indexes of each row's m largest entries, ascending; ties keep the lower index.

    ``probs`` is one chunk's probability row, giving ``(m,)``, or a
    ``(rows, B)`` block of rows, giving ``(rows, m)``.  The selection is a
    set, since downstream lookups do not care about rank.  NaN ranks below
    every number.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim not in (1, 2):
        raise ValueError("expected a probability row or a (rows, buckets) block of rows")
    check_m(m, probs.shape[-1])
    return _top_k(probs, m)


def check_m(m: int, buckets: int) -> None:
    """Raise ``ValueError`` unless m buckets can be kept of a chunk's ``buckets``."""
    if not 1 <= m <= buckets:
        raise ValueError(f"m must be in [1, {buckets}], got {m}")


@lru_cache(maxsize=64)
def _feature_seeds(engine: EngineConfig, chunks: int) -> tuple[int, ...]:
    """Each chunk's feature-hashing seed, derived once per engine and chunk count."""
    return tuple(engine.chunk_feature_seed(chunk) for chunk in range(chunks))


def embed_block(
    ensemble: ChunkEnsemble, docs: Sequence[Document], m: int
) -> list[QuerySparseEmbedding]:
    """Hash and score every query in every chunk, then keep m buckets each.

    One ``hash_features`` call hashes the block for all K chunks, each under
    its own seed; one ``forward`` a chunk scores the block's rows; one
    ``sparsify_topm`` cuts all of the block's K probability rows a query.  A
    query's probabilities, and so its selection, have the bits of embedding
    it alone.
    """
    k = ensemble.code_config.num_chunks
    b = ensemble.code_config.buckets_per_chunk
    engine = ensemble.engine
    rows = len(docs)
    probs = np.empty((k, rows, b))  # chunk-major: each forward fills one contiguous block
    feats = hash_features(docs, _feature_seeds(engine, k), engine.feature_dim, engine.feature_mode)
    for chunk, x in enumerate(feats):
        forward(ensemble.models[chunk], x, out=probs[chunk])
    tops = sparsify_topm(probs.reshape(-1, b), m).reshape(k, rows, m)
    return [QuerySparseEmbedding(probs[:, r], tops[:, r]) for r in range(rows)]


def embed_query(ensemble: ChunkEnsemble, doc: Document, m: int) -> QuerySparseEmbedding:
    """:func:`embed_block` of one query."""
    return embed_block(ensemble, [doc], m)[0]


# Bytes a served block's rows may hold while they are embedded (``embed_bytes``).
# At the benchmark's K 4, B 256 a row takes 33,792 bytes, so a block holds 124
# queries; at the shipped K 16, B 30,000 one row outgrows it, and a block is one query.
BLOCK_BYTES = 4 * 2**20


def block_rows(config: CodeConfig) -> int:
    """How many queries ``sparsix predict`` embeds a block: as many as ``BLOCK_BYTES`` holds."""
    return max(1, BLOCK_BYTES // embed_bytes(config, 1))


def embed_bytes(config: CodeConfig, rows: int) -> int:
    """Peak bytes ``embed_block`` holds for ``rows`` queries beside each ``forward``'s scratch.

    A row holds its K·B float64 probabilities, which each ``forward`` writes,
    and while ``sparsify_topm`` cuts them at up to m = B, their negated copy,
    a K·B-byte mask and the kept positions, 16 bytes a kept bucket: 33·K·B bytes.
    """
    return 33 * config.num_chunks * config.buckets_per_chunk * rows


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
    force bit for bit.  Each chunk's column of codes is widened to the index
    type once; in truncated mode it gathers both the masked probability row
    and the row's selection mask, whose kept entries ``scores_summed`` counts.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
    candidates = np.asarray(candidates, dtype=np.int64)
    k, b = emb.probs.shape
    if candidates.size == 0:
        return np.empty(0, dtype=np.float64)
    codes = np.take(cb.codes, candidates, axis=0)  # (n, K)
    probs, selected = emb.probs, None
    if aggregation == "truncated":
        selected = np.zeros((k, b), dtype=bool)
        for chunk, buckets in enumerate(emb.top_buckets):
            selected[chunk, buckets] = True
        probs = np.where(selected, probs, 0.0)
    else:
        counters.scores_summed += int(codes.size)
    scores = np.zeros(candidates.size)
    for chunk in range(k):
        column = codes[:, chunk].astype(np.intp)  # as ``take`` would convert it
        scores += probs[chunk].take(column)
        if selected is not None:
            counters.scores_summed += int(np.count_nonzero(selected[chunk].take(column)))
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
    return _search(cb, idx, embed_query(ensemble, doc, params.m), params)


def predict_block(
    ensemble: ChunkEnsemble,
    cb: LabelCodebook,
    idx: InvertedIndex,
    docs: Sequence[Document],
    params: InferParams,
) -> list[Prediction]:
    """:func:`predict` for each query of a block, embedded at once by :func:`embed_block`.

    Each query is searched on its own, by the code ``predict`` runs, so its
    prediction is ``predict``'s bit for bit, counters included, in any block.
    """
    return [_search(cb, idx, emb, params) for emb in embed_block(ensemble, docs, params.m)]


def _search(
    cb: LabelCodebook, idx: InvertedIndex, emb: QuerySparseEmbedding, params: InferParams
) -> Prediction:
    """Prune, look up, fuse and rank one embedded query.

    The ranking is that of every label in the selected buckets, bit for bit.
    The pruning passes ``_passes`` plans, each at most a quarter of the K*m
    selection, and then the whole selection are scored in turn until one's
    top_k-th score beats its bound; the counters sum the work of every pass run.
    """
    counters = OpCounters(buckets_scored=int(emb.probs.size))
    # the pruning passes, then the whole selection, beyond which no label can rank;
    # the candidates replace the last pass's labels, so a query's peak is its largest pass's
    for visited, bound in chain(_passes(emb, cb.config.num_labels, params), ((emb, math.inf),)):
        labels = retrieve_candidates(idx, visited, counters)
        scores = aggregate_scores(cb, emb, labels, counters, params.aggregation)
        labels, scores = _rank(labels, scores, params.top_k)
        # no label outside the visited buckets scores above ``bound``
        if scores.size == params.top_k and scores[-1] > bound:
            break
    return Prediction(labels=labels, scores=scores, counters=counters)


# A pruning pass runs only while it visits at most a quarter of the K*m
# selection: a larger one saves little over the whole selection, and costs it
# again if it fails to stop.  At N 2,000, B 256, m 10 and top_k 100 (s0 = 13 of
# 40), a rule of at most half the selection ran passes of 13 and then 40
# buckets on every trained query and raised p50 by 36% (300 queries, 20
# interleaved rounds in-process, 2 vCPUs).  At N 100,000 (passes of 4 and 8
# buckets, then all 40), of 1,000 held-out queries on the benchmark's engines
# for seeds 11 and 12, 986 and 978 stopped after 4 buckets, 12 and 14 after 8,
# and 2 and 8 visited all 40.  Pruning cut p50 by 35-45% and p95 by 29-45%
# (300 queries, interleaved rounds in-process, 2 vCPUs, at each of the host's
# two speeds).
_PRUNE_SHARE = 4


def _passes(
    emb: QuerySparseEmbedding, num_labels: int, params: InferParams
) -> Iterator[tuple[QuerySparseEmbedding, float]]:
    """Each pruning pass's visited buckets, and the most an unvisited label can score.

    ``emb`` is ``embed_query``'s: m buckets selected in every chunk, and
    probabilities in [0, 1] or NaN.  A pass visits the s strongest of the K*m
    selected buckets: highest probability first, ties to the lower chunk and
    then the lower bucket, NaN last.  The first visits s0 = max(K,
    ceil(top_k*B/N)), enough buckets to hold top_k labels at N/B labels a
    bucket, and each next one twice as many, while a pass visits at most a
    quarter of the K*m selection (``_PRUNE_SHARE``): checked before any
    planning and again for each doubled pass.

    In each chunk a pass visits a prefix of that chunk's own order.  A label
    posted in none of the visited buckets draws its chunk-c term from an
    unvisited bucket: a selected one, at most chunk c's strongest unvisited
    probability q_c, or an unselected one, at most q_c in full-vector mode
    (top-m keeps the m strongest) and 0 <= q_c in truncated mode.  Rounding is
    monotone, so its score is at most the bound, the q_c summed in chunk order
    from 0.0: the threshold of the threshold algorithm, one sorted list per
    chunk, and never above K times the strongest unvisited probability.  A
    pass whose bound is NaN, or not below the chunks' strongest probabilities
    summed the same way, cannot stop and is skipped.  Planning ends before a
    pass that would visit a chunk's whole selection, whose bound would need
    that chunk's strongest unselected probability; ``predict`` then visits
    the whole selection.
    """
    k, b = emb.probs.shape
    m = emb.top_buckets[0].size
    s = max(k, -(-params.top_k * b // num_labels))
    if _PRUNE_SHARE * s > k * m:
        return
    # a few dozen entries: array methods and lists cost less per call than NumPy's functions
    grid = np.array(emb.top_buckets)  # (K, m); each row ascending
    neg = emb.probs[np.arange(k)[:, None], grid]
    np.negative(neg, out=neg)
    order = neg.argsort(axis=None, kind="stable").tolist()  # strongest first, NaN last
    neg.sort(axis=1)  # each chunk's probabilities, strongest first, negated
    ranked = neg.tolist()
    # sums run in chunk order from 0.0, as a label's score does; subtracting a
    # negated term adds the term exactly
    strongest = 0.0
    for row in ranked:
        strongest -= row[0]
    while _PRUNE_SHARE * s <= k * m:
        depth = [0] * k  # buckets visited per chunk
        for position in order[:s]:
            depth[position // m] += 1
        if m in depth:
            return
        bound = 0.0
        for row, d in zip(ranked, depth):
            bound -= row[d]
        if bound < strongest:
            # sorted positions group the visited buckets by chunk, ascending
            visited = grid.ravel().take(sorted(order[:s]))
            tops, end = [], 0
            for d in depth:
                tops.append(visited[end : end + d])
                end += d
            yield QuerySparseEmbedding(probs=emb.probs, top_buckets=tops), bound
        s *= 2


def predict_full(
    ensemble: ChunkEnsemble,
    cb: LabelCodebook,
    doc: Document,
    top_k: int,
) -> Prediction:
    """Brute-force reference: score every label, no pruning, no index."""
    b = ensemble.code_config.buckets_per_chunk
    InferParams(m=b, top_k=top_k)  # checks top_k by the rule predict's top_k meets
    counters = OpCounters()
    emb = embed_query(ensemble, doc, b)
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
    holds less than scoring, even when every score ties at the cut: the
    candidates, the scores, a score-sized copy and three N-byte masks.
    ``predict``'s pruning passes hold less than its last pass, which visits
    every selected bucket.
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
# acceptance criterion 8 pins it.  It prices visiting every selected bucket,
# which ``predict`` does only when its first passes cannot stop: where
# s0 = max(K, ceil(top_k*B/N)) is at most a quarter of K*m, a query that
# stops after s buckets retrieves about s*N/B entries, so the measured counts
# fall below K*m*N/B as N grows.  The dense baseline scores all N labels at
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
