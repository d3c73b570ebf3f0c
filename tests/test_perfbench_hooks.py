"""The benchmark's hooks into the program: the names it imports and wraps.

``perfbench/`` traces module attributes by name and never edits ``src/``, so
a refactor that renames one of them breaks only the traced benchmark run.
This test reads those modules and changes nothing under ``perfbench/``.
"""
from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import sparsix.cli
import sparsix.infer
import sparsix.train
from sparsix.infer import (
    AGGREGATION_MODES,
    InferParams,
    OpCounters,
    embed_query,
    retrieve_candidates,
)
from sparsix.manifest import save_ensemble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch, tiny_engine):
    """``predict`` calls every traced name on both of its paths, in both
    aggregation modes: one pass over every selected bucket (m 2: s0 = 4
    buckets is over a quarter of K*m = 8), and pruning passes that stop
    before it (m 8: this query stops after its 4 strongest buckets)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing child resolves every sparsix name the end-to-end run imports
    child = importlib.import_module("child")
    spans = importlib.import_module("spans")

    ensemble, cb, idx = tiny_engine.ensemble, tiny_engine.cb, tiny_engine.idx
    doc = tiny_engine.test_docs[1]
    paths = [(m, pruned, mode) for m, pruned in [(2, False), (8, True)] for mode in AGGREGATION_MODES]
    for m, pruned, mode in paths:
        tracer = spans.Tracer()
        child._wrap_query_path(tracer)
        wrapped = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer._patched]
        assert wrapped
        try:
            params = InferParams(m=m, top_k=5, aggregation=mode)
            pred = sparsix.infer.predict(ensemble, cb, idx, doc, params)
        finally:
            tracer.restore()
        # a wrapped name the query path stopped calling would zero its per-layer figure
        recorded = {span[0].rsplit(".", 1)[1] for span in tracer.spans}
        assert [attr for _, attr, _ in wrapped if attr not in recorded] == [], m
        for module, attr, wrapper in wrapped:
            assert getattr(module, attr) is not wrapper

        scored = pred.counters.unique_candidates
        held = retrieve_candidates(idx, embed_query(ensemble, doc, m), OpCounters()).size
        assert scored < held if pruned else scored == held, m

    # the names traced_chunk_task wraps inside a training worker
    for name in ("_chunk_matrix", "_batch_step", "apply_update", "build_codebook"):
        assert callable(getattr(sparsix.train, name)), name
    # the names _trace_cli wraps in the predict command; its figures index two of their spans
    cli_names = ("load_ensemble", "build_codebook", "build_index", "parse_corpus", "predict")
    for name in (*cli_names, "_format_prediction"):
        assert callable(getattr(sparsix.cli, name)), name


# Trains two chunks with every chunk task traced, at the start method argv[1]
TRACED_TRAINING = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
import spans, sparsix.train
from sparsix.codes import CodeConfig, build_codebook
from sparsix.features import make_document

sparsix.train._train_chunk_task = spans.traced_chunk_task
docs = [make_document(i, [(i, 1), (i + 7, 2)], [i % 3]) for i in range(12)]
cb = build_codebook(CodeConfig(num_labels=3, num_chunks=2, buckets_per_chunk=4, base_seed=1))
engine = sparsix.train.EngineConfig(feature_dim=16, hidden_dim=3)
cfg = sparsix.train.TrainConfig(epochs=1, batch_size=5, workers=1)
result = sparsix.train.train_all(docs, cb, engine, cfg)
print(*[m.chunk for m in result.ensemble.models])
"""


def test_traced_chunk_task_records_every_training_span(monkeypatch, tmp_path):
    """Each worker's trace holds the spans the benchmark's training figures read.

    A worker reads the trace directory from the environment it starts with, and a
    fork server keeps the environment it started with.  So the traced training runs
    in a fresh interpreter whose environment holds the directory before any pool
    starts, at this process's start method.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    package_root = Path(sparsix.train.__file__).resolve().parents[1]
    env = {
        **os.environ,
        spans.TRACE_DIR_ENV: str(tmp_path),
        "PYTHONPATH": os.pathsep.join([str(package_root), str(PERFBENCH)]),
    }
    argv = [sys.executable, "-c", TRACED_TRAINING, multiprocessing.get_start_method()]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr

    assert run.stdout.split() == ["0", "1"]
    traces = sorted(tmp_path.glob("chunk-*.json"))
    assert [t.name for t in traces] == ["chunk-0.json", "chunk-1.json"]
    expected = {"train._chunk_matrix", "train._batch_step", "model.apply_update"}
    for trace in traces:
        names = {span[0] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]}
        assert expected <= names, trace.name
        # the caller builds the codebook and each chunk its targets; no chunk rebuilds it
        assert "codes.build_codebook" not in names, trace.name


def test_reload_gate_holds(monkeypatch, tmp_path, tiny_engine):
    """The benchmark's reload gate: trained and loaded models agree in dtype and bits."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    manifest = save_ensemble(tiny_engine.ensemble, tmp_path / "engine", tiny_engine.train_config)
    result = sparsix.train.TrainResult(
        ensemble=tiny_engine.ensemble, loss_curves=[], skipped_unlabeled=0, chunk_seconds=[]
    )
    gates = child.Gates()
    child._check_reload(gates, result, manifest, tiny_engine.test_docs)
    assert gates.attempted == 4 and gates.failures == {}
