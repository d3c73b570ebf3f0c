"""The benchmark's hooks into the program: the names it imports and wraps.

``perfbench/`` traces module attributes by name and never edits ``src/``, so
a refactor that renames one of them breaks only the traced benchmark run.
This test reads those modules and changes nothing under ``perfbench/``.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import sparsix.train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing child resolves every sparsix name the end-to-end run imports
    child = importlib.import_module("child")
    spans = importlib.import_module("spans")

    tracer = spans.Tracer()
    child._wrap_query_path(tracer)
    wrapped = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer._patched]
    assert wrapped
    tracer.restore()
    for module, attr, wrapper in wrapped:
        assert getattr(module, attr) is not wrapper

    # the names traced_chunk_task wraps inside a training worker
    for name in ("_chunk_matrix", "_batch_step", "apply_update", "build_codebook"):
        assert callable(getattr(sparsix.train, name)), name
