"""Retrieval tests: top-m pruning, exactness at m=B, counters, cost model."""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import traced_peak
from sparsix.codes import CodeConfig, LabelCodebook, build_codebook
from sparsix.corpus import make_separable_corpus
import sparsix.features
import sparsix.infer
from sparsix.features import FEATURE_MODES, hash_features, make_document
from sparsix.index import build_index, lookup
from sparsix.infer import (
    AGGREGATION_MODES,
    InferParams,
    OpCounters,
    QuerySparseEmbedding,
    _passes,
    _rank,
    _top_k,
    aggregate_scores,
    block_rows,
    dense_op_count,
    embed_bytes,
    embed_query,
    op_count_bound,
    predict,
    predict_block,
    predict_full,
    query_bytes,
    retrieve_candidates,
    sparsify_topm,
)
from sparsix.model import (
    PARAM_DTYPE,
    ChunkEnsemble,
    EngineConfig,
    forward,
    forward_bytes,
    init_model,
)
from sparsix.train import TrainConfig, train_all


class TestSparsifyTopm:
    def test_ties_keep_lower_index(self):
        p = np.array([0.5, 0.9, 0.5, 0.1])
        assert sparsify_topm(p, 2).tolist() == [0, 1]
        assert sparsify_topm(p, 3).tolist() == [0, 1, 2]

    def test_full_width_keeps_everything(self):
        p = np.array([0.2, 0.4, 0.1])
        assert sparsify_topm(p, 3).tolist() == [0, 1, 2]

    def test_result_sorted_ascending(self):
        rng = np.random.default_rng(3)
        p = rng.random(64)
        sel = sparsify_topm(p, 10)
        assert np.all(np.diff(sel) > 0)

    @pytest.mark.parametrize("m", [0, -1, 5])
    def test_m_out_of_range(self, m):
        with pytest.raises(ValueError):
            sparsify_topm(np.array([0.1, 0.2, 0.3, 0.4]), m)

    def test_rejects_scalar_and_3d_input(self):
        for probs in (np.float64(0.5), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="probability row"):
                sparsify_topm(probs, 1)

    def test_cuts_each_row_of_a_block(self):
        """A (rows, B) block gives (rows, m): each row's cut, as cutting it alone gives."""
        p = np.array([[0.5, 0.9, 0.5, 0.1], [np.nan, 0.1, np.nan, 0.3], [0.2, 0.2, 0.2, 0.2]])
        got = sparsify_topm(p, 3)
        assert got.dtype == np.int64 and got.tolist() == [[0, 1, 2], [0, 1, 3], [0, 1, 2]]
        assert [sparsify_topm(row, 3).tolist() for row in p] == got.tolist()
        assert sparsify_topm(np.empty((0, 4)), 2).shape == (0, 2)
        with pytest.raises(ValueError, match="m must be in"):
            sparsify_topm(p, 5)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_selection_dominates_rejects(self, seed, m):
        rng = np.random.default_rng(seed)
        p = np.round(rng.random(50), 1)  # coarse values force ties
        sel = sparsify_topm(p, m)
        assert sel.size == m
        out = np.setdiff1d(np.arange(50), sel)
        if out.size:
            assert p[sel].min() >= p[out].max()
            # at the tie boundary the kept index must be the lower one
            boundary = p[sel].min()
            if p[out].max() == boundary:
                assert max(sel[p[sel] == boundary]) < min(out[p[out] == boundary])


def sparsify_topm_reference(probs_row, m):
    """The two-key lexsort form that sparsify_topm must match."""
    order = np.lexsort((np.arange(probs_row.size), -probs_row))
    return np.sort(order[:m]).astype(np.int64)


class TestTopmMatchesLexsort:
    @staticmethod
    def rows():
        rng = np.random.default_rng(11)
        for b in (1, 2, 5, 16, 37):
            yield rng.random(b)
            yield np.round(rng.random(b) * 3) / 3  # coarse: many ties
            yield np.full(b, 0.25)  # all equal
            yield np.full(b, np.nan)
            with_nan = np.round(rng.random(b) * 2) / 2
            with_nan[rng.random(b) < 0.3] = np.nan
            yield with_nan
            yield rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0], size=b)

    def test_every_m(self):
        for row in self.rows():
            for m in range(1, row.size + 1):
                got = sparsify_topm(row, m)
                want = sparsify_topm_reference(row, m)
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist(), (row, m)

    def test_nan_ranks_lowest(self):
        p = np.array([np.nan, 0.1, np.nan, 0.3])
        assert sparsify_topm(p, 2).tolist() == [1, 3]
        assert sparsify_topm(p, 3).tolist() == [0, 1, 3]


# values that tie, order NaN, and compare ±0 and ±inf equal or extreme
TOP_K_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestTopKRows:
    @given(data=st.data(), rows=st.integers(0, 6), n=st.integers(1, 24))
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_its_stable_sort(self, data, rows, n):
        """Property: ``_top_k`` over a (rows, n) block keeps, in each row, the first
        k positions of a stable sort by (-value, position), NaN last, in ascending
        order; and a row cut alone, 1-D, keeps the same positions."""
        values = data.draw(hnp.arrays(np.float64, (rows, n), elements=TOP_K_ENTRIES))
        k = data.draw(st.integers(1, n))
        before = values.tobytes()
        got = _top_k(values, k)
        assert got.dtype == np.int64 and got.shape == (rows, k)
        assert values.tobytes() == before
        for row, cut in zip(values, got):
            first = np.argsort(-row, kind="stable")[:k]
            assert cut.tolist() == sorted(first.tolist())
            assert _top_k(row, k).tolist() == cut.tolist()


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, top_k=1),
            dict(m=1, top_k=0),
            dict(m=1, top_k=1, aggregation="mean"),
            dict(m=True, top_k=1),
            dict(m=2.0, top_k=1),
            dict(m=1, top_k=2.5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InferParams(**kwargs)

    @pytest.mark.parametrize("top_k", [2.5, True])
    def test_predict_full_checks_top_k_as_params_do(self, tiny_engine, top_k):
        doc = tiny_engine.test_docs[0]
        with pytest.raises(ValueError, match="top_k must be an integer >= 1"):
            predict_full(tiny_engine.ensemble, tiny_engine.cb, doc, top_k)

    def test_embedding_shape_checked(self):
        with pytest.raises(ValueError):
            QuerySparseEmbedding(probs=np.zeros((2, 4)), top_buckets=[np.array([0])])


class TestExactness:
    def test_m_equals_b_matches_brute_force(self, tiny_engine):
        """Unpruned sparse retrieval is the brute-force ranking, bit for bit."""
        b = tiny_engine.cb.config.buckets_per_chunk
        params = InferParams(m=b, top_k=10)
        for doc in tiny_engine.test_docs:
            sparse = predict(tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, doc, params)
            full = predict_full(tiny_engine.ensemble, tiny_engine.cb, doc, 10)
            assert np.array_equal(sparse.labels, full.labels)
            assert np.array_equal(sparse.scores, full.scores)

    def test_candidates_monotone_in_m(self, tiny_engine):
        doc = tiny_engine.test_docs[0]
        prev = np.empty(0, dtype=np.int64)
        for m in (1, 2, 4, 8, 16, 32):
            emb = embed_query(tiny_engine.ensemble, doc, m)
            cand = retrieve_candidates(tiny_engine.idx, emb, OpCounters())
            assert np.all(np.isin(prev, cand))
            prev = cand

    def test_full_vector_score_ignores_pruning(self, tiny_engine):
        """Any candidate that survives scores identically at every m."""
        doc = tiny_engine.test_docs[1]
        b = tiny_engine.cb.config.buckets_per_chunk
        ref = predict(
            tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, doc, InferParams(m=b, top_k=60)
        )
        ref_scores = dict(zip(ref.labels.tolist(), ref.scores.tolist()))
        pred = predict(
            tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, doc, InferParams(m=2, top_k=60)
        )
        for label, score in zip(pred.labels.tolist(), pred.scores.tolist()):
            assert score == ref_scores[label]

    def test_truncated_never_exceeds_full_vector(self, tiny_engine):
        doc = tiny_engine.test_docs[2]
        emb = embed_query(tiny_engine.ensemble, doc, 3)
        cand = retrieve_candidates(tiny_engine.idx, emb, OpCounters())
        full = aggregate_scores(tiny_engine.cb, emb, cand, OpCounters(), "full-vector")
        trunc = aggregate_scores(tiny_engine.cb, emb, cand, OpCounters(), "truncated")
        assert np.all(trunc <= full)
        assert np.all(trunc >= 0.0)


class TestPredictBlock:
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    @pytest.mark.parametrize("aggregation", AGGREGATION_MODES)
    @pytest.mark.parametrize("m", [1, 10, 32])
    def test_rows_are_predict_at_every_block_size(self, tiny_engine, mode, aggregation, m):
        """Each row of ``predict_block`` is ``predict``'s prediction of that query: its
        labels, its score bits and its counters, in blocks of 1, 2, 7, 64 and 256 rows
        and of the 992 rows the budget gives this engine, full and part-filled.  At
        m = 10 and 32 queries run pruning passes (s0 = 4 of K*m = 40 or 128 buckets)."""
        engine = dataclasses.replace(tiny_engine.ensemble.engine, feature_mode=mode)
        ensemble = dataclasses.replace(tiny_engine.ensemble, engine=engine)
        cb, idx = tiny_engine.cb, tiny_engine.idx
        params = InferParams(m=m, top_k=5, aggregation=aggregation)
        budget = block_rows(cb.config)
        assert budget == 992
        docs = tiny_engine.test_docs + [make_document(0, [], [])]  # a query with no tokens too
        queries = [docs[i % len(docs)] for i in range(budget + 1)]
        want = [predict(ensemble, cb, idx, doc, params) for doc in queries]
        for size in (1, 2, 7, 64, 256, budget):
            n = min(len(queries), 2 * size + 1)
            got = []
            for start in range(0, n, size):
                got += predict_block(ensemble, cb, idx, queries[start : min(start + size, n)], params)
            assert len(got) == n
            for row, (g, w) in enumerate(zip(got, want)):
                assert g.labels.tobytes() == w.labels.tobytes(), (size, row)
                assert g.scores.tobytes() == w.scores.tobytes(), (size, row)
                assert g.counters == w.counters, (size, row)

    def test_empty_block(self, tiny_engine):
        args = tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx
        assert predict_block(*args, [], InferParams(m=4, top_k=5)) == []


class TestBlockRows:
    def test_budget_over_a_rows_bytes(self):
        """33·K·B bytes of probabilities and top-m scratch a row: the benchmark's K 4,
        B 256 serve 124 queries a block, so each of its 100-query commands is one block,
        and the shipped K 16, B 30,000 one query a block."""
        bench = CodeConfig(2000, 4, 256, base_seed=1)
        assert embed_bytes(bench, 1) == 33 * 4 * 256 == 33_792
        assert block_rows(bench) == 4 * 2**20 // 33_792 == 124
        assert embed_bytes(bench, 124) == 124 * 33_792
        assert block_rows(CodeConfig(1000, 16, 30_000, base_seed=1)) == 1


class TestEmbedQuery:
    def test_one_hash_for_all_chunks(self, tiny_engine, monkeypatch):
        """A query is hashed once for its K chunks, with each chunk's bits of
        hashing it under that chunk's seed alone."""
        calls = {"hash_features": 0, "murmur3_32_u64": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(sparsix.infer, "hash_features")
        counted(sparsix.features, "murmur3_32_u64")
        ensemble, engine = tiny_engine.ensemble, tiny_engine.ensemble.engine
        for mode in ("counts", "binary"):
            ens = dataclasses.replace(
                ensemble, engine=dataclasses.replace(engine, feature_mode=mode)
            )
            for doc in tiny_engine.test_docs[:5] + [make_document(0, [], [])]:
                calls.update(hash_features=0, murmur3_32_u64=0)
                emb = embed_query(ens, doc, 3)
                assert calls == {"hash_features": 1, "murmur3_32_u64": 1}
                for chunk, model in enumerate(ens.models):
                    seed = engine.chunk_feature_seed(chunk)
                    x = hash_features(doc, seed, engine.feature_dim, mode)
                    assert emb.probs[chunk].tobytes() == forward(model, x).tobytes()


class TestRanking:
    def test_ties_prefer_lower_label(self):
        labels = np.array([2, 5, 9], dtype=np.int64)
        scores = np.array([0.7, 0.9, 0.7])
        top_labels, top_scores = _rank(labels, scores, 3)
        assert top_labels.tolist() == [5, 2, 9]
        assert top_scores.tolist() == [0.9, 0.7, 0.7]
        top_labels, top_scores = _rank(labels, scores, 2)
        assert top_labels.tolist() == [5, 2]

    def test_cut_to_top_k(self):
        labels = np.arange(10, dtype=np.int64)
        scores = np.linspace(1.0, 0.1, 10)
        top_labels, _ = _rank(labels, scores, 4)
        assert top_labels.tolist() == [0, 1, 2, 3]

    def test_empty_buckets_give_empty_prediction(self):
        cb = build_codebook(CodeConfig(4, 2, 8, base_seed=42))
        idx = build_index(cb)
        counters = OpCounters()
        # bucket 0 is unused by every label in both chunks of this codebook
        emb = QuerySparseEmbedding(
            probs=np.zeros((2, 8)), top_buckets=[np.array([0]), np.array([0])]
        )
        cand = retrieve_candidates(idx, emb, counters)
        assert cand.size == 0
        scores = aggregate_scores(cb, emb, cand, counters)
        labels, scores = _rank(cand, scores, 5)
        assert labels.size == 0 and scores.size == 0
        assert counters.candidates_retrieved == 0
        assert counters.scores_summed == 0


# --- sort-based reference stages -------------------------------------------
#
# The retrieval stages as first written: np.unique for the union, 2-D fancy
# indexing plus a row sum for scoring, and a lexsort of every candidate for
# ranking; and the union as a length-N mask, the linear-time form that
# preceded the sorted-postings union.  The stages must reproduce them bit for
# bit.


def ref_retrieve_candidates(idx, emb):
    postings = [
        lookup(idx, chunk, int(bucket))
        for chunk, buckets in enumerate(emb.top_buckets)
        for bucket in buckets.tolist()
    ]
    merged = np.concatenate(postings).astype(np.int64) if postings else np.empty(0, np.int64)
    return np.unique(merged), int(merged.size)


def mask_union(idx, emb):
    """The union as a length-N mask read back in label order, O(N + retrieved)."""
    seen = np.zeros(idx.config.num_labels, dtype=bool)
    retrieved = 0
    for chunk, buckets in enumerate(emb.top_buckets):
        for bucket in buckets.tolist():
            postings = lookup(idx, chunk, bucket)
            seen[postings] = True
            retrieved += postings.size
    return np.flatnonzero(seen).astype(np.int64), retrieved


def ref_aggregate_scores(cb, emb, candidates, aggregation):
    k, b = emb.probs.shape
    if candidates.size == 0:
        return np.empty(0, dtype=np.float64), 0
    cand_codes = cb.codes[candidates]
    chunk_ids = np.arange(k)
    per_chunk = emb.probs[chunk_ids[None, :], cand_codes]
    if aggregation == "truncated":
        selected = np.zeros((k, b), dtype=bool)
        for chunk in range(k):
            selected[chunk, emb.top_buckets[chunk]] = True
        keep = selected[chunk_ids[None, :], cand_codes]
        return np.where(keep, per_chunk, 0.0).sum(axis=1), int(keep.sum())
    return per_chunk.sum(axis=1), int(per_chunk.size)


def ref_rank(labels, scores, top_k):
    order = np.lexsort((labels, -scores))[:top_k]
    return labels[order], scores[order]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_embedding(rng, k, b, tied):
    """Probabilities from a coarse grid when ``tied`` (many equal scores); random
    bucket selections of any size, including buckets no label uses."""
    probs = rng.integers(0, 4, size=(k, b)) / 4.0 if tied else rng.random((k, b))
    tops = [np.sort(rng.choice(b, size=rng.integers(1, b + 1), replace=False)) for _ in range(k)]
    return QuerySparseEmbedding(probs=probs, top_buckets=tops)


class TestMatchesSortReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_labels=st.integers(1, 300),
        k=st.sampled_from([1, 4, 7]),
        b=st.integers(2, 40),
        tied=st.booleans(),
        top_k=st.integers(1, 320),
        aggregation=st.sampled_from(AGGREGATION_MODES),
    )
    @settings(max_examples=200, deadline=None)
    def test_stages_bit_identical(self, seed, num_labels, k, b, tied, top_k, aggregation):
        """Union, scoring and ranking against the reference; num_labels < b
        leaves buckets empty, so some selections retrieve nothing."""
        rng = np.random.default_rng(seed)
        cb = build_codebook(CodeConfig(num_labels, k, b, base_seed=seed))
        idx = build_index(cb)
        emb = random_embedding(rng, k, b, tied)

        counters = OpCounters()
        cand = retrieve_candidates(idx, emb, counters)
        want_cand, retrieved = ref_retrieve_candidates(idx, emb)
        assert_same_bits(cand, want_cand)
        assert_same_bits(cand, mask_union(idx, emb)[0])
        assert counters.candidates_retrieved == retrieved
        assert counters.unique_candidates == want_cand.size

        scores = aggregate_scores(cb, emb, cand, counters, aggregation)
        want_scores, summed = ref_aggregate_scores(cb, emb, cand, aggregation)
        assert_same_bits(scores, want_scores)
        assert counters.scores_summed == summed

        for got, want in zip(_rank(cand, scores, top_k), ref_rank(cand, scores, top_k)):
            assert_same_bits(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 200),
        top_k=st.integers(1, 220),
        nan_share=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rank_ties_across_cut(self, seed, n, top_k, nan_share):
        """Few distinct scores put ties across the top_k cut; labels are
        ascending with gaps, as the candidate union gives them.  NaN ranks last."""
        rng = np.random.default_rng(seed)
        labels = np.sort(rng.permutation(10 * n + 1)[:n]).astype(np.int64)
        scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=n)
        scores[rng.random(n) < nan_share] = np.nan
        for got, want in zip(_rank(labels, scores, top_k), ref_rank(labels, scores, top_k)):
            assert_same_bits(got, want)

    @given(seed=st.integers(0, 2**32 - 1), tied=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_many_chunks_sum_in_chunk_order(self, seed, tied):
        """At K >= 8 a row sum may reorder the adds; the score is the chunk-order sum."""
        k, b = 16, 8
        rng = np.random.default_rng(seed)
        cb = build_codebook(CodeConfig(50, k, b, base_seed=seed))
        emb = random_embedding(rng, k, b, tied)
        cand = np.arange(50, dtype=np.int64)
        for aggregation in AGGREGATION_MODES:
            want = np.zeros(cand.size)
            for chunk in range(k):
                codes = cb.codes[:, chunk]
                term = emb.probs[chunk, codes]
                if aggregation == "truncated":
                    term = np.where(np.isin(codes, emb.top_buckets[chunk]), term, 0.0)
                want += term
            got = aggregate_scores(cb, emb, cand, OpCounters(), aggregation)
            assert_same_bits(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_labels=st.integers(1, 400),
        k=st.sampled_from([1, 2, 4, 7, 16]),
        b=st.integers(2, 40),
        values=st.sampled_from(["random", "tied", "nan"]),
        top=st.sampled_from(["sparsified", "random"]),
        aggregation=st.sampled_from(AGGREGATION_MODES),
    )
    @settings(max_examples=300, deadline=None)
    def test_scores_and_counts_match_the_masked_matrix(
        self, seed, num_labels, k, b, values, top, aggregation
    ):
        """Scores and ``scores_summed`` equal those of masking the whole K x B
        matrix, gathering every (candidate, chunk) term at once and counting the
        kept ones, with NaN, ties and ±0 among the probabilities, selections of
        any size, and candidates in any order, repeats included."""
        rng = np.random.default_rng(seed)
        cb = build_codebook(CodeConfig(num_labels, k, b, base_seed=seed))
        probs = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(k, b))
        if values == "random":
            probs = rng.random((k, b))
        elif values == "nan":
            probs[rng.random((k, b)) < 0.3] = np.nan
        m = int(rng.integers(1, b + 1))
        if top == "sparsified":
            tops = [sparsify_topm(row, m) for row in probs]
        else:
            tops = random_embedding(rng, k, b, False).top_buckets
        emb = QuerySparseEmbedding(probs=probs, top_buckets=tops)
        cand = rng.integers(0, num_labels, size=rng.integers(0, 2 * num_labels))

        selected = np.zeros((k, b), dtype=bool)
        for chunk in range(k):
            selected[chunk, tops[chunk]] = True
        codes = cb.codes[cand]
        masked = np.where(selected, probs, 0.0) if aggregation == "truncated" else probs
        want = np.zeros(cand.size)
        for chunk in range(k):
            want += masked[chunk].take(codes[:, chunk])
        kept = selected if aggregation == "truncated" else np.ones((k, b), dtype=bool)
        summed = int(np.count_nonzero(kept[np.arange(k), codes]))

        counters = OpCounters()
        got = aggregate_scores(cb, emb, cand, counters, aggregation)
        assert_same_bits(got, want)
        assert counters.scores_summed == summed


def union_of(idx, emb):
    counters = OpCounters()
    cand = retrieve_candidates(idx, emb, counters)
    want, retrieved = mask_union(idx, emb)
    assert_same_bits(cand, want)
    assert counters.candidates_retrieved == retrieved
    assert counters.unique_candidates == want.size
    return cand


class TestSortedUnion:
    def test_m_equals_b_is_every_label(self):
        k, b, n = 4, 16, 5000
        idx = build_index(build_codebook(CodeConfig(n, k, b, base_seed=3)))
        emb = QuerySparseEmbedding(np.zeros((k, b)), [np.arange(b)] * k)
        assert_same_bits(union_of(idx, emb), np.arange(n, dtype=np.int64))

    def test_every_selected_bucket_empty(self):
        """Five labels in 64 buckets: select only buckets no label uses."""
        k, b = 3, 64
        cb = build_codebook(CodeConfig(5, k, b, base_seed=11))
        idx = build_index(cb)
        tops = [np.setdiff1d(np.arange(b), cb.codes[:, chunk])[:8] for chunk in range(k)]
        emb = QuerySparseEmbedding(np.zeros((k, b)), tops)
        assert_same_bits(union_of(idx, emb), np.empty(0, dtype=np.int64))

    def test_m_equals_b_stays_within_the_loading_estimate(self):
        """At m = B the union holds K·N uint32 postings, a K·N-byte repeat mask and
        N labels as uint32 and int64, the union stage ``query_bytes`` counts, beside
        the K·B postings views and interpreter overhead."""
        k, b, n = 4, 16, 200_000
        idx = build_index(build_codebook(CodeConfig(n, k, b, base_seed=3)))
        emb = QuerySparseEmbedding(np.zeros((k, b)), [np.arange(b)] * k)
        _, peak = traced_peak(lambda: retrieve_candidates(idx, emb, OpCounters()))
        assert 5 * k * n + 12 * n <= peak < 5 * k * n + 12 * n + 64 * 1024

    def test_predict_allocates_less_than_the_catalog(self):
        """N = 2**20, K = 4, B = 256, m = 1: a query retrieves about 16k postings
        and allocates under one byte per label."""
        n = 2**20
        cb = build_codebook(CodeConfig(n, 4, 256, base_seed=5))
        idx = build_index(cb)
        ensemble = untrained_ensemble(cb)
        params = InferParams(m=1, top_k=100)
        predict(ensemble, cb, idx, QUERY, params)  # first-call allocations stay out
        pred, peak = traced_peak(lambda: predict(ensemble, cb, idx, QUERY, params))
        assert pred.counters.candidates_retrieved > 10_000
        assert peak < n


QUERY = make_document(0, [(1, 2), (7, 1)], [])


def untrained_ensemble(cb, hidden_dim=4):
    """Freshly initialised float32 models, F = 64 and H = ``hidden_dim``, over ``cb``'s chunks."""
    engine = EngineConfig(feature_dim=64, hidden_dim=hidden_dim, init_seed=2)
    b = cb.config.buckets_per_chunk
    models = [
        init_model(64, hidden_dim, b, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE)
        for c in range(cb.config.num_chunks)
    ]
    return ChunkEnsemble(cb.config, engine, models)


def served_over(ensemble, cb, outputs, rng):
    """``ensemble``'s models serving ``cb``'s labels.  ``outputs`` "flat" zeroes
    W2 and b2, so every probability ties at 0.5; "nan" sets a fifth of b2 to
    NaN, so those buckets' probabilities are NaN.  "coarse" zeroes W2 and gives
    every bucket probability 0, 0.5 or 1, in shares drawn for each chunk: sums
    are exact, so scores tie with the pruning bound, and one chunk's unselected
    buckets may outrank another's selected ones."""
    models = []
    for model in ensemble.models:
        w2, b2 = model.W2, model.b2
        if outputs in ("flat", "coarse"):
            w2, b2 = np.zeros_like(w2), np.zeros_like(b2)
        if outputs == "nan":
            b2 = b2.copy()
            b2[rng.random(b2.size) < 0.2] = np.nan
        elif outputs == "coarse":
            b2[:] = rng.choice([-1e3, 0.0, 1e3], size=b2.size, p=rng.dirichlet(np.ones(3)))
        models.append(dataclasses.replace(model, W2=w2, b2=b2))
    return ChunkEnsemble(cb.config, ensemble.engine, models)


class TestQueryBytes:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_one_query_peaks_within_its_term(self, k):
        """N = 200,000, B = 256: a query at m = B in either aggregation, and one
        ``predict_full``, allocates at most ``query_bytes`` and a slack that does
        not grow with N.  Below K = 20 scoring, not the union, sets the peak."""
        n, b = 200_000, 256
        cb = build_codebook(CodeConfig(n, k, b, base_seed=5))
        idx = build_index(cb)
        # every probability is 0.5, so every score equals the pruning bound and
        # predict visits the whole selection at once
        ensemble = served_over(untrained_ensemble(cb), cb, "flat", None)
        queries = [
            lambda: predict(ensemble, cb, idx, QUERY, InferParams(m=b, top_k=100)),
            lambda: predict(ensemble, cb, idx, QUERY, InferParams(b, 100, "truncated")),
            lambda: predict_full(ensemble, cb, QUERY, top_k=100),
        ]
        for query in queries:
            query()  # first-call allocations stay out
            pred, peak = traced_peak(query)
            assert pred.counters.unique_candidates == n
            assert peak <= query_bytes(cb.config) + 256 * 1024

    def test_forward_copy_of_w2_is_counted(self):
        """K = 2, B = 8,192, H = 256, N = 1,000: ``forward`` multiplies a float64
        copy of the whole float32 W2, 8·B·H = 16 MiB, where ``query_bytes`` is
        40,000 bytes.  A query at m = B and one ``predict_full`` each peak within
        ``forward_bytes`` and ``query_bytes`` and the same slack."""
        k, b, h, n = 2, 8192, 256, 1000
        cb = build_codebook(CodeConfig(n, k, b, base_seed=5))
        idx = build_index(cb)
        ensemble = served_over(untrained_ensemble(cb, hidden_dim=h), cb, "flat", None)
        estimate = forward_bytes(ensemble.engine, b, 1) + query_bytes(cb.config)
        queries = [
            lambda: predict(ensemble, cb, idx, QUERY, InferParams(m=b, top_k=100)),
            lambda: predict_full(ensemble, cb, QUERY, top_k=100),
        ]
        for query in queries:
            query()  # first-call allocations stay out
            _, peak = traced_peak(query)
            assert 8 * b * h < peak <= estimate + 256 * 1024


class TestCounters:
    def test_counter_identities(self, tiny_engine):
        k = tiny_engine.cb.config.num_chunks
        b = tiny_engine.cb.config.buckets_per_chunk
        doc = tiny_engine.test_docs[3]
        pred = predict(
            tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, doc, InferParams(m=4, top_k=5)
        )
        c = pred.counters
        assert c.buckets_scored == k * b
        assert c.unique_candidates <= c.candidates_retrieved <= 4 * k * b
        assert c.scores_summed == k * c.unique_candidates

    def test_truncated_counts_only_kept_terms(self, tiny_engine):
        k = tiny_engine.cb.config.num_chunks
        doc = tiny_engine.test_docs[3]
        pred = predict(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            doc,
            InferParams(m=4, top_k=5, aggregation="truncated"),
        )
        c = pred.counters
        assert 0 < c.scores_summed <= k * c.unique_candidates

    def test_brute_force_counts_every_label(self, tiny_engine):
        n = tiny_engine.cb.config.num_labels
        k = tiny_engine.cb.config.num_chunks
        doc = tiny_engine.test_docs[0]
        pred = predict_full(tiny_engine.ensemble, tiny_engine.cb, doc, 5)
        assert pred.counters.unique_candidates == n
        assert pred.counters.scores_summed == n * k


def composed_stages(ensemble, cb, idx, doc, params):
    """Every label in the selected buckets, scored and ranked: the stages
    ``predict`` composes, without pruning."""
    emb = embed_query(ensemble, doc, params.m)
    cand = retrieve_candidates(idx, emb, OpCounters())
    scores = aggregate_scores(cb, emb, cand, OpCounters(), params.aggregation)
    return _rank(cand, scores, params.top_k)


def interleaved_embedding(k, b, m, rng):
    """m random buckets selected in each of k chunks of b, with distinct dyadic
    probabilities, exact in any sum: the i-th strongest of chunk c ranks i*k + c
    overall, so every pass visits each chunk's share of the selection.  The
    unselected buckets score 0."""
    probs = np.zeros((k, b))
    tops = []
    for chunk in range(k):
        buckets = np.sort(rng.choice(b, m, replace=False))
        strength = rng.permutation(m)  # 0 is the chunk's strongest
        probs[chunk, buckets] = (k * m - strength * k - chunk) / 2.0**20
        tops.append(buckets.astype(np.int64))
    return QuerySparseEmbedding(probs, tops)


def pass_sizes(emb, num_labels, top_k):
    """The number of buckets each pruning pass visits."""
    params = InferParams(emb.top_buckets[0].size, top_k)
    return [
        sum(t.size for t in visited.top_buckets) for visited, _ in _passes(emb, num_labels, params)
    ]


class TestPrunedPredict:
    @given(
        seed=st.integers(0, 2**32 - 1),
        trained=st.booleans(),
        num_labels=st.one_of(st.integers(1, 300), st.integers(300, 5000)),
        k=st.sampled_from([1, 2, 4, 7]),
        b=st.integers(2, 64),
        top_k=st.one_of(st.integers(1, 10), st.integers(1, 400)),
        aggregation=st.sampled_from(AGGREGATION_MODES),
        outputs=st.sampled_from(["as trained", "flat", "nan", "coarse"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_composed_stages(
        self, tiny_engine, seed, trained, num_labels, k, b, top_k, aggregation, outputs, data
    ):
        """Labels and score bits equal those of the unpruned stages, for any N, K,
        B and m up to B, top_k beyond the union, flat, NaN or coarse probabilities.  The
        trained engine keeps its K and B and serves N labels: a label's code does
        not depend on N."""
        rng = np.random.default_rng(seed)
        if trained:
            k, b = tiny_engine.cb.config.num_chunks, tiny_engine.cb.config.buckets_per_chunk
            base_seed = tiny_engine.cb.config.base_seed
            queries = [tiny_engine.test_docs[i] for i in rng.choice(len(tiny_engine.test_docs), 3)]
        else:
            base_seed = seed
            queries = [
                make_document(i, [(int(t), 1 + i) for t in rng.choice(64, 3, replace=False)], [])
                for i in range(3)
            ]
        cb = build_codebook(CodeConfig(num_labels, k, b, base_seed=base_seed))
        idx = build_index(cb)
        ensemble = tiny_engine.ensemble if trained else untrained_ensemble(cb)
        ensemble = served_over(ensemble, cb, outputs, rng)
        params = InferParams(data.draw(st.integers(1, b), label="m"), top_k, aggregation)
        for doc in queries:
            pred = predict(ensemble, cb, idx, doc, params)
            labels, scores = composed_stages(ensemble, cb, idx, doc, params)
            assert_same_bits(pred.labels, labels)
            assert_same_bits(pred.scores, scores)

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_labels=st.integers(1, 2000),
        k=st.sampled_from([1, 2, 4, 7]),
        b=st.integers(2, 64),
        top_k=st.one_of(st.integers(1, 10), st.integers(1, 400)),
        aggregation=st.sampled_from(AGGREGATION_MODES),
        probs=st.sampled_from(["scaled", "levels", "nan"]),
        data=st.data(),
    )
    @settings(max_examples=500, deadline=None)
    def test_no_label_outside_a_pass_scores_above_its_bound(
        self, seed, num_labels, k, b, top_k, aggregation, probs, data
    ):
        """Each pruning pass visits the strongest selected buckets, and every label
        posted in none of them scores at most the pass's bound, which is never
        above K times the larger of the strongest unvisited selected probability
        and (in full-vector mode) the strongest unselected one.  Chunks differ,
        so one chunk's unselected buckets may outrank another's selected ones;
        "levels" gives each chunk probabilities 0, 0.5 and 1 in its own shares,
        so sums are exact and scores tie with bounds."""
        rng = np.random.default_rng(seed)
        cb = build_codebook(CodeConfig(num_labels, k, b, base_seed=seed))
        idx = build_index(cb)
        if probs == "levels":
            rows = [rng.choice([0.0, 0.5, 1.0], b, p=rng.dirichlet(np.ones(3))) for _ in range(k)]
            p = np.stack(rows)
        else:  # each chunk scaled, often far down, so chunks differ as in "levels"
            p = rng.random((k, b)) * rng.random((k, 1)) ** 4
            if probs == "nan":
                p[rng.random((k, b)) < 0.1] = np.nan
        m = data.draw(st.integers(1, b), label="m")
        emb = QuerySparseEmbedding(p, [sparsify_topm(row, m) for row in p])
        params = InferParams(m, top_k, aggregation)
        every = np.arange(num_labels, dtype=np.int64)
        scores = aggregate_scores(cb, emb, every, OpCounters(), aggregation)
        unselected = p.copy()
        for chunk in range(k):
            unselected[chunk, emb.top_buckets[chunk]] = -np.inf
        t = unselected.max() if aggregation == "full-vector" else 0.0
        for visited, bound in _passes(emb, num_labels, params):
            held = [p[chunk, emb.top_buckets[chunk]] for chunk in range(k)]
            seen = [p[chunk, visited.top_buckets[chunk]] for chunk in range(k)]
            unseen = np.concatenate([np.setdiff1d(h, v) for h, v in zip(held, seen)])
            # NaN sorts last: each visited bucket outranks every unvisited number
            assert np.concatenate(seen).min() >= np.fmax.reduce(unseen, initial=-np.inf)
            outside = np.ones(num_labels, dtype=bool)
            outside[retrieve_candidates(idx, visited, OpCounters())] = False
            assert not (scores[outside] > bound).any()
            # K * max(t, p), p the strongest unvisited selected probability (NaN if
            # only NaN is left), summed as a score is; each chunk's term is at most max(t, p)
            left = np.concatenate(
                [
                    p[chunk, np.setdiff1d(emb.top_buckets[chunk], visited.top_buckets[chunk])]
                    for chunk in range(k)
                ]
            )
            nxt = np.fmax.reduce(left, initial=-np.inf) if (left == left).any() else np.nan
            most, uniform = float(np.maximum(t, nxt)), 0.0
            for _ in range(k):
                uniform += most
            assert bound <= uniform or np.isnan(uniform)

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_labels=st.integers(1, 10**6),
        k=st.integers(1, 16),
        b=st.integers(1, 512),
        top_k=st.integers(1, 1000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_pass_sizes(self, seed, num_labels, k, b, top_k, data):
        """The first pass visits s0 = max(K, ceil(top_k*B/N)) buckets, each next
        one twice as many, and none more than a quarter of the K*m selection;
        planning stops at the first doubling past that quarter.  The selected
        probabilities interleave the chunks, so no pass visits a chunk's whole
        selection or fails to lower its bound, and every planned pass is yielded."""
        m = data.draw(st.integers(1, b), label="m")
        emb = interleaved_embedding(k, b, m, np.random.default_rng(seed))
        sizes = pass_sizes(emb, num_labels, top_k)
        s0 = max(k, math.ceil(top_k * b / num_labels))
        if not sizes:
            assert 4 * s0 > k * m
            return
        assert sizes[0] == s0
        assert all(later == 2 * size for size, later in zip(sizes, sizes[1:]))
        assert 4 * sizes[-1] <= k * m < 4 * 2 * sizes[-1]

    def test_pass_sizes_at_the_benchmark_shape(self):
        """K 4, B 256, m 10 and top_k 100: at N 2,000 (s0 = 13 of 40) no pass is
        planned, and at N 100,000 passes of 4 and 8 buckets only, not 16."""
        emb = interleaved_embedding(4, 256, 10, np.random.default_rng(0))
        assert pass_sizes(emb, 2_000, 100) == []
        assert pass_sizes(emb, 100_000, 100) == [4, 8]

    def test_a_score_tied_with_the_bound_does_not_stop(self):
        """K 2, B 8, m 4, top_k 1.  The first pass visits chunk 0's buckets 0 and 1,
        with probabilities 1 and 0.5; the next selected bucket has 0.5, so the
        bound is 1.0.  Label 1, visited, scores 1.0 + 0 = 1.0; label 0, in no
        visited bucket, scores 0.5 + 0.5 = 1.0 and ranks first on the tie."""
        config = CodeConfig(4, 2, 8, base_seed=0)
        cb = LabelCodebook(config, np.array([[2, 0], [0, 4], [5, 5], [6, 6]], dtype=np.int32))
        ensemble = untrained_ensemble(cb)
        b2 = [[1e3, 0, 0, 0, -1e3, -1e3, -1e3, -1e3], [0, 0, 0, 0, -1e3, -1e3, -1e3, -1e3]]
        models = [
            dataclasses.replace(model, W2=np.zeros_like(model.W2), b2=np.array(row, PARAM_DTYPE))
            for model, row in zip(ensemble.models, b2)
        ]
        ensemble = ChunkEnsemble(config, ensemble.engine, models)
        for aggregation in AGGREGATION_MODES:
            pred = predict(ensemble, cb, build_index(cb), QUERY, InferParams(4, 1, aggregation))
            assert pred.labels.tolist() == [0] and pred.scores.tolist() == [1.0]

    def test_trained_queries_score_fewer_labels_than_the_selection_holds(self):
        """N = 100,000 in the catalog-100k shape (K 4, B 256, m 10, top_k 100):
        a trained engine's queries score fewer labels than their selected
        buckets hold, and fewer than K*m*N/B, and rank exactly as scoring all
        of them does."""
        train, test, _ = make_separable_corpus(
            50, docs_per_label=20, test_docs_per_label=1, noise_vocab=100, seed=3
        )
        engine = EngineConfig(feature_dim=1024, hidden_dim=32)
        cfg = TrainConfig(epochs=10, batch_size=50, lr=5e-2)
        trained = train_all(train, build_codebook(CodeConfig(50, 4, 256, 9)), engine, cfg)
        cb = build_codebook(CodeConfig(100_000, 4, 256, 9))
        idx = build_index(cb)
        ensemble = ChunkEnsemble(cb.config, engine, trained.ensemble.models)
        for aggregation in AGGREGATION_MODES:
            params = InferParams(10, 100, aggregation)
            for doc in test:
                pred = predict(ensemble, cb, idx, doc, params)
                held = retrieve_candidates(idx, embed_query(ensemble, doc, 10), OpCounters())
                assert pred.counters.unique_candidates < min(held.size, 4 * 10 * 100_000 / 256)
                assert pred.labels[0] == doc.labels[0]
                labels, scores = composed_stages(ensemble, cb, idx, doc, params)
                assert_same_bits(pred.labels, labels)
                assert_same_bits(pred.scores, scores)


def golden_engine():
    """A seeded engine that needs no training: initial float32 models, K 4, B 64,
    F 1,024 and H 16, over N 20,000.  The output weights are scaled by 16 (a
    power of two, so exactly) and the output biases set to -6, so that each
    chunk has a few strong buckets, as a trained engine's queries do: some
    queries stop after the first pruning pass, some after later ones, and some
    visit the whole selection."""
    cb = build_codebook(CodeConfig(20_000, 4, 64, base_seed=11))
    engine = EngineConfig(feature_dim=1024, hidden_dim=16, feature_seed=12, init_seed=13)
    models = []
    for chunk in range(4):
        model = init_model(1024, 16, 64, engine.chunk_init_seed(chunk), chunk, dtype=PARAM_DTYPE)
        model.W2 *= np.float32(16.0)
        model.b2[:] = -6.0
        models.append(model)
    return ChunkEnsemble(cb.config, engine, models), cb, build_index(cb)


def golden_queries():
    """240 seeded queries of 0 to 12 tokens with 64-bit ids and counts up to 4."""
    rng = np.random.default_rng(2025)
    docs = []
    for i in range(240):
        ids = rng.choice(2**40, size=rng.integers(0, 13), replace=False)
        docs.append(make_document(i, [(int(t), int(rng.integers(1, 5))) for t in ids], []))
    return docs


class TestGoldenDigests:
    """The sha256 of every prediction's labels and score bytes, recorded before
    the embedding kernels and the pass plan were last rewritten: a change to
    hashing, the forward pass, selection, pruning, scoring or ranking that
    moves any bit fails here.  The digests are of IEEE float64 arithmetic as
    NumPy and its BLAS compute it on x86-64."""

    DIGESTS = {
        "full-vector": "08c7fc9e80a40e2894549eb17edb03e1779075d730d3d76493f6818a5bbdff6b",
        "truncated": "36424ff808960efd96acfa9558957b498b87e15fe24bbefc2c474f893bb9d1f9",
        "full": "cd3b0290b30ed93f6de09d2fddbca10dde03764d2c786a0c61ed676205e77094",
    }

    @pytest.mark.parametrize("mode", ["full-vector", "truncated", "full"])
    def test_predictions_keep_their_bits(self, mode):
        ensemble, cb, idx = golden_engine()
        digest = hashlib.sha256()
        pruned = 0
        queries = golden_queries()
        for doc in queries:
            if mode == "full":
                pred = predict_full(ensemble, cb, doc, 20)
            else:
                pred = predict(ensemble, cb, idx, doc, InferParams(8, 20, mode))
                held = retrieve_candidates(idx, embed_query(ensemble, doc, 8), OpCounters())
                pruned += pred.counters.unique_candidates < held.size
            digest.update(pred.labels.tobytes())
            digest.update(pred.scores.tobytes())
        assert digest.hexdigest() == self.DIGESTS[mode]
        # the sparse digests cover queries that stop early and queries that do not
        assert mode == "full" or 0 < pruned < len(queries)


class TestCostModel:
    def test_sparse_formula_identity(self):
        n, b, k, m = 10**6, 30000, 16, 50
        got = op_count_bound(n, b, k, m)
        retrieved = k * m * n / b
        assert got == b * math.log2(m) + retrieved + retrieved * math.log2(5)

    def test_worked_example_magnitudes(self):
        sparse = op_count_bound(10**6, 30000, 16, 50)
        dense = dense_op_count(10**6, 50, 16)
        assert 2.0e5 < sparse < 3.0e5
        assert abs(sparse - 2.579e5) < 1e3
        assert abs(dense - 8.023e8) < 0.01 * 8.023e8
        assert sparse / dense < 1e-3

    def test_dense_formula_identity(self):
        n, m, k = 5000, 10, 4
        assert dense_op_count(n, m, k) == n * m * k + n * math.log2(5)

    @pytest.mark.parametrize("fn", [op_count_bound, dense_op_count])
    def test_nonpositive_inputs_rejected(self, fn):
        with pytest.raises(ValueError):
            if fn is op_count_bound:
                fn(0, 1, 1, 1)
            else:
                fn(1, 0, 1)
