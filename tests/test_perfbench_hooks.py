"""The benchmark's hooks into the program: the names it imports and wraps.

``perfbench/`` traces module attributes by name and never edits ``src/``, so
a refactor that renames one of them breaks only the traced benchmark run.
This test reads those modules and changes nothing under ``perfbench/``.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import sparsix.infer
import sparsix.train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch, tiny_engine):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing child resolves every sparsix name the end-to-end run imports
    child = importlib.import_module("child")
    spans = importlib.import_module("spans")

    tracer = spans.Tracer()
    child._wrap_query_path(tracer)
    wrapped = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer._patched]
    assert wrapped
    try:
        sparsix.infer.predict(
            tiny_engine.ensemble,
            tiny_engine.cb,
            tiny_engine.idx,
            tiny_engine.test_docs[0],
            sparsix.infer.InferParams(m=4, top_k=5),
        )
    finally:
        tracer.restore()
    # a wrapped name the query path stopped calling would zero its per-layer figure
    recorded = {span[0].rsplit(".", 1)[1] for span in tracer.spans}
    assert [attr for _, attr, _ in wrapped if attr not in recorded] == []
    for module, attr, wrapper in wrapped:
        assert getattr(module, attr) is not wrapper

    # the names traced_chunk_task wraps inside a training worker
    for name in ("_chunk_matrix", "_batch_step", "apply_update", "build_codebook"):
        assert callable(getattr(sparsix.train, name)), name
