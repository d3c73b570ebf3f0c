"""Shared fixtures: one small trained engine reused across test modules;
``traced_peak``, which tests import to measure what a call allocates; and
``save_untrained``, an engine of freshly initialised models on disk."""
from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable, TypeVar

import pytest

from sparsix.codes import CodeConfig, LabelCodebook, build_codebook
from sparsix.corpus import make_separable_corpus
from sparsix.features import Document
from sparsix.index import InvertedIndex, build_index
from sparsix.manifest import save_ensemble
from sparsix.model import PARAM_DTYPE, init_model
from sparsix.train import ChunkEnsemble, EngineConfig, TrainConfig, train_all

T = TypeVar("T")


def traced_peak(fn: Callable[[], T]) -> tuple[T, int]:
    """``fn()``'s result and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def save_untrained(path, k, f, h, b, n):
    """A K-chunk engine of freshly initialised float32 models over N labels."""
    engine = EngineConfig(f, h, feature_seed=3, init_seed=4)
    models = [
        init_model(f, h, b, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE) for c in range(k)
    ]
    return save_ensemble(ChunkEnsemble(CodeConfig(n, k, b, base_seed=5), engine, models), path)


@dataclass(frozen=True)
class TinyEngine:
    ensemble: ChunkEnsemble
    cb: LabelCodebook
    idx: InvertedIndex
    train_docs: list[Document]
    test_docs: list[Document]
    train_config: TrainConfig


@pytest.fixture(scope="session")
def tiny_engine() -> TinyEngine:
    """Separable 60-label corpus, trained to saturation in under a second."""
    train_docs, test_docs, _ = make_separable_corpus(
        num_labels=60,
        tokens_per_label=5,
        docs_per_label=6,
        tokens_per_doc=3,
        noise_tokens=1,
        noise_vocab=100,
        test_docs_per_label=2,
        seed=17,
    )
    code = CodeConfig(num_labels=60, num_chunks=4, buckets_per_chunk=32, base_seed=5)
    engine = EngineConfig(feature_dim=512, hidden_dim=24, feature_seed=6, init_seed=7)
    cfg = TrainConfig(epochs=15, batch_size=32, lr=5e-3, shuffle_seed=8)
    cb = build_codebook(code)
    result = train_all(train_docs, cb, engine, cfg)
    return TinyEngine(
        ensemble=result.ensemble,
        cb=cb,
        idx=build_index(cb),
        train_docs=train_docs,
        test_docs=test_docs,
        train_config=cfg,
    )
