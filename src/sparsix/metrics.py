"""Ranking metrics and batch evaluation over a labeled query set.

Metrics are macro-averaged: each query contributes equally regardless of how
many relevant labels it has.  Queries with no relevant labels cannot be
scored and are skipped (the skip count is reported).  Latency is measured
around the retrieval call only, so parsing and setup costs stay out of the
per-point numbers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .codes import LabelCodebook
from .features import Document
from .index import InvertedIndex
from .infer import InferParams, OpCounters, predict
from .model import ChunkEnsemble

COUNTER_FIELDS = tuple(f.name for f in fields(OpCounters))


@dataclass(frozen=True)
class MetricReport:
    """Evaluation summary: quality, work, and wall time per query."""

    precision_at: dict[int, float]
    recall_at: dict[int, float]
    num_queries: int
    skipped_queries: int
    mean_counters: dict[str, float]
    latency_ms: dict[str, float] = field(default_factory=dict)  # mean, p50, p99

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ValueError("a report needs at least one evaluated query")
        for name, table in (("precision", self.precision_at), ("recall", self.recall_at)):
            for k, v in table.items():
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name}@{k} = {v} outside [0, 1]")

    def as_text(self) -> str:
        """Flat key = value block, one metric per line."""
        lines = [
            f"num_queries = {self.num_queries}",
            f"skipped_queries = {self.skipped_queries}",
        ]
        for k in sorted(self.precision_at):
            lines.append(f"precision_at_{k} = {self.precision_at[k]:.6f}")
        for k in sorted(self.recall_at):
            lines.append(f"recall_at_{k} = {self.recall_at[k]:.6f}")
        for name in COUNTER_FIELDS:
            lines.append(f"mean_{name} = {self.mean_counters[name]:.2f}")
        for stat in ("mean", "p50", "p99"):
            lines.append(f"latency_{stat}_ms = {self.latency_ms[stat]:.3f}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready form; metric depths become string keys."""
        return {
            "num_queries": self.num_queries,
            "skipped_queries": self.skipped_queries,
            "precision_at": {str(k): v for k, v in self.precision_at.items()},
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "mean_counters": dict(self.mean_counters),
            "latency_ms": dict(self.latency_ms),
        }


def precision_at_k(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Fraction of the first k predictions that are relevant.

    The divisor is always k: an engine that returns fewer than k predictions
    is penalized for the missing slots.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size == 0:
        raise ValueError("empty truth set; skip the query instead")
    head = np.asarray(pred, dtype=np.int64)[:k]
    return float(np.isin(head, truth).sum()) / k


def recall_at_k(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Fraction of the relevant labels found in the first k predictions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    truth = np.asarray(truth, dtype=np.int64)
    if truth.size == 0:
        raise ValueError("empty truth set; skip the query instead")
    head = np.asarray(pred, dtype=np.int64)[:k]
    return float(np.isin(truth, head).sum()) / truth.size


def evaluate(
    ensemble: ChunkEnsemble,
    cb: LabelCodebook,
    idx: InvertedIndex,
    testset: list[Document],
    params: InferParams,
    ks_precision: tuple[int, ...] = (1, 5, 10),
    ks_recall: tuple[int, ...] = (100,),
) -> MetricReport:
    """Run retrieval over the test set and macro-average the metrics.

    ``params.top_k`` must cover the deepest metric requested; raises
    otherwise rather than silently reporting truncated recall.
    """
    if not testset:
        raise ValueError("empty test set")
    deepest = max((*ks_precision, *ks_recall), default=1)
    if params.top_k < deepest:
        raise ValueError(
            f"top_k={params.top_k} is shallower than the deepest metric k={deepest}"
        )
    prec_sums = {k: 0.0 for k in ks_precision}
    rec_sums = {k: 0.0 for k in ks_recall}
    counter_sums = {name: 0.0 for name in COUNTER_FIELDS}
    latencies = []
    evaluated = 0
    skipped = 0
    for doc in testset:
        if doc.labels.size == 0:
            skipped += 1
            continue
        t0 = time.perf_counter()
        pred = predict(ensemble, cb, idx, doc, params)
        latencies.append((time.perf_counter() - t0) * 1e3)
        evaluated += 1
        for k in ks_precision:
            prec_sums[k] += precision_at_k(pred.labels, doc.labels, k)
        for k in ks_recall:
            rec_sums[k] += recall_at_k(pred.labels, doc.labels, k)
        for name in COUNTER_FIELDS:
            counter_sums[name] += getattr(pred.counters, name)

    if evaluated == 0:
        raise ValueError(f"all {skipped} queries had empty truth sets")
    lat = np.array(latencies)
    return MetricReport(
        precision_at={k: prec_sums[k] / evaluated for k in ks_precision},
        recall_at={k: rec_sums[k] / evaluated for k in ks_recall},
        num_queries=evaluated,
        skipped_queries=skipped,
        mean_counters={name: counter_sums[name] / evaluated for name in COUNTER_FIELDS},
        latency_ms={
            "mean": float(lat.mean()),
            "p50": float(np.percentile(lat, 50)),
            "p99": float(np.percentile(lat, 99)),
        },
    )
