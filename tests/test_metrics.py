"""Ranking metric tests: macro averages, fixed divisors, evaluation loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsix.features import make_document
from sparsix.infer import InferParams, predict_full
from sparsix.metrics import MetricReport, evaluate, precision_at_k, recall_at_k


class TestPrecision:
    def test_partial_hit(self):
        # predictions a,b,c with truth {a,c}: two of three slots relevant
        assert precision_at_k([10, 11, 12], [10, 12], 3) == pytest.approx(2 / 3)

    def test_divisor_stays_k_when_prediction_short(self):
        # only two predictions but k=2 and one hit among truth {a,c,d}
        assert precision_at_k([10, 11], [10, 12, 13], 2) == pytest.approx(1 / 2)

    def test_perfect(self):
        assert precision_at_k([1, 2, 3], [3, 1, 2], 3) == 1.0

    def test_disjoint(self):
        assert precision_at_k([1, 2], [8, 9], 2) == 0.0

    def test_missing_slots_count_against(self):
        # one correct prediction, k=5: the empty tail scores as misses
        assert precision_at_k([7], [7], 5) == pytest.approx(0.2)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            precision_at_k([1], [1], 0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k([1], [], 1)


class TestRecall:
    def test_partial(self):
        assert recall_at_k([10, 11], [10, 12, 13], 2) == pytest.approx(1 / 3)

    def test_full_coverage(self):
        assert recall_at_k([5, 4, 3], [3, 5], 3) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [], 1)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20, unique=True), st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_k(self, pred, data):
        truth = data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=10, unique=True))
        pred = np.array(pred)
        truth = np.array(truth)
        rec = [recall_at_k(pred, truth, k) for k in range(1, len(pred) + 1)]
        assert all(a <= b for a, b in zip(rec, rec[1:]))
        hits = [precision_at_k(pred, truth, k) * k for k in range(1, len(pred) + 1)]
        assert all(a <= b + 1e-9 for a, b in zip(hits, hits[1:]))


class TestEvaluate:
    def test_trained_engine_scores_high_on_train_set(self, tiny_engine):
        report = evaluate(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            tiny_engine.train_docs,
            InferParams(m=8, top_k=30),
            ks_precision=(1,),
            ks_recall=(30,),
        )
        assert report.precision_at[1] >= 0.95
        assert report.recall_at[30] >= 0.95
        assert report.num_queries == len(tiny_engine.train_docs)
        assert report.skipped_queries == 0

    def test_unpruned_eval_matches_brute_force_metrics(self, tiny_engine):
        b = tiny_engine.cb.config.buckets_per_chunk
        report = evaluate(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            tiny_engine.test_docs,
            InferParams(m=b, top_k=10),
            ks_precision=(1, 5),
            ks_recall=(10,),
        )
        # recompute the same averages from brute-force predictions
        p1 = p5 = r10 = 0.0
        for doc in tiny_engine.test_docs:
            pred = predict_full(tiny_engine.ensemble, tiny_engine.cb, doc, 10)
            p1 += precision_at_k(pred.labels, doc.labels, 1)
            p5 += precision_at_k(pred.labels, doc.labels, 5)
            r10 += recall_at_k(pred.labels, doc.labels, 10)
        n = len(tiny_engine.test_docs)
        assert report.precision_at[1] == pytest.approx(p1 / n)
        assert report.precision_at[5] == pytest.approx(p5 / n)
        assert report.recall_at[10] == pytest.approx(r10 / n)

    def test_unlabeled_queries_skipped(self, tiny_engine):
        docs = list(tiny_engine.test_docs[:4]) + [make_document(99, [(3, 1)], [])]
        report = evaluate(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            docs,
            InferParams(m=8, top_k=5),
            ks_precision=(1,),
            ks_recall=(5,),
        )
        assert report.num_queries == 4
        assert report.skipped_queries == 1

    def test_all_skipped_rejected(self, tiny_engine):
        docs = [make_document(0, [(3, 1)], [])]
        with pytest.raises(ValueError):
            evaluate(tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, docs, InferParams(m=4, top_k=5))

    def test_empty_testset_rejected(self, tiny_engine):
        with pytest.raises(ValueError):
            evaluate(tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx, [], InferParams(m=4, top_k=5))

    def test_shallow_top_k_rejected(self, tiny_engine):
        with pytest.raises(ValueError):
            evaluate(
                tiny_engine.ensemble,
                tiny_engine.cb,
                tiny_engine.idx,
                tiny_engine.test_docs,
                InferParams(m=4, top_k=5),
                ks_precision=(1,),
                ks_recall=(100,),
            )

    def test_report_text_and_dict_shape(self, tiny_engine):
        report = evaluate(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            tiny_engine.test_docs,
            InferParams(m=8, top_k=10),
            ks_precision=(1, 5),
            ks_recall=(10,),
        )
        text = report.as_text()
        for key in (
            "num_queries = ",
            "precision_at_1 = ",
            "precision_at_5 = ",
            "recall_at_10 = ",
            "mean_unique_candidates = ",
            "latency_p99_ms = ",
        ):
            assert key in text
        d = report.as_dict()
        assert d["precision_at"].keys() == {"1", "5"}
        assert d["recall_at"].keys() == {"10"}
        assert set(d["mean_counters"]) == {
            "buckets_scored",
            "candidates_retrieved",
            "unique_candidates",
            "scores_summed",
        }

    def test_report_validates_ranges(self):
        with pytest.raises(ValueError):
            MetricReport(
                precision_at={1: 1.5},
                recall_at={},
                num_queries=1,
                skipped_queries=0,
                mean_counters={},
            )
        with pytest.raises(ValueError):
            MetricReport(
                precision_at={},
                recall_at={},
                num_queries=0,
                skipped_queries=0,
                mean_counters={},
            )
